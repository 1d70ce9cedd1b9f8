//! `kc_store` on the real executable: the shared exit conventions, and
//! the committed golden store round-tripping `json → sharded → json`
//! byte for byte, with `stat`, `compact` and `inspect` working on the
//! converted store.

#[path = "../../../tests/support/cli_conventions.rs"]
mod cli_conventions;

use cli_conventions::{assert_help_and_usage_exits, run};
use std::path::Path;

const KC_STORE: &str = env!("CARGO_BIN_EXE_kc_store");

/// Run `kc_store` and return its stdout, failing on a non-zero exit.
fn kc_store(args: &[&str]) -> String {
    let out = run(KC_STORE, args);
    assert!(
        out.status.success(),
        "kc_store {args:?}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn kc_store_help_and_usage_exits() {
    assert_help_and_usage_exits("kc_store", KC_STORE);
}

#[test]
fn golden_store_round_trips_through_the_sharded_format() {
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/golden/cells_extended.json");
    let dir = std::env::temp_dir().join(format!("kc_store_roundtrip_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sharded = dir.join("golden.kcs");
    let back = dir.join("roundtrip.json");
    let [golden_arg, sharded_arg, back_arg] =
        [&golden, &sharded, &back].map(|p| p.to_str().unwrap().to_string());

    kc_store(&["convert", &golden_arg, &format!("sharded:{sharded_arg}")]);
    kc_store(&["convert", &sharded_arg, &back_arg]);
    assert!(
        std::fs::read(&golden).unwrap() == std::fs::read(&back).unwrap(),
        "json -> sharded -> json is lossy"
    );

    let stat = kc_store(&["stat", &sharded_arg]);
    assert!(stat.contains("superseded ratio"), "{stat}");
    kc_store(&["compact", &sharded_arg]);
    let inspect = kc_store(&["inspect", &sharded_arg]);
    assert!(inspect.contains("format:  sharded"), "{inspect}");
    let _ = std::fs::remove_dir_all(&dir);
}
