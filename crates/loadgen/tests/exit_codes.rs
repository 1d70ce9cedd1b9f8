//! `kc-loadgen`'s exits on the real executable: the shared help and
//! usage-error conventions, and exit 1 when an `--slo` bound fails.

#[path = "../../../tests/support/cli_conventions.rs"]
mod cli_conventions;

use cli_conventions::{assert_help_and_usage_exits, run};

const KC_LOADGEN: &str = env!("CARGO_BIN_EXE_kc-loadgen");

#[test]
fn kc_loadgen_help_and_usage_exits() {
    assert_help_and_usage_exits("kc-loadgen", KC_LOADGEN);
}

#[test]
fn a_violated_slo_bound_exits_1() {
    let dir = std::env::temp_dir().join(format!("kc_loadgen_slo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("cells.json");
    let load = |slo: &str| {
        let out = run(
            KC_LOADGEN,
            &[
                "--noise-free",
                "--store",
                store.to_str().unwrap(),
                "--warm",
                "--duration-ms",
                "200",
                "--seed",
                "7",
                "--slo",
                slo,
            ],
        );
        (out.status.code(), String::from_utf8(out.stderr).unwrap())
    };

    // the first run fills the store; its timed window is warm either way
    let (code, log) = load("executions<=0,exactly_once_violations<=0");
    assert_eq!(code, Some(0), "{log}");
    assert!(log.contains("[slo] PASS"), "{log}");

    let (code, log) = load("p99_ms<=0.00001");
    assert_eq!(
        code,
        Some(1),
        "an impossible bound must fail the run:\n{log}"
    );
    assert!(log.contains("[slo] FAIL: 1 bound(s) violated"), "{log}");
    assert!(
        log.contains("(0 cells executed)"),
        "the second run is served from the store:\n{log}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
