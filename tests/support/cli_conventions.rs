//! The exit conventions every binary shares through `kc_core::cli`,
//! checked on the real executable.  Each crate that owns a binary
//! compiles this file into one of its integration tests (`#[path]`)
//! and points it at `env!("CARGO_BIN_EXE_<name>")`.

use std::process::{Command, Output, Stdio};

/// Run `exe` with `args`, stdin closed, and collect what it printed.
pub fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"))
}

/// `--help` prints the usage on stdout and exits 0 with stderr empty;
/// an unknown flag is a usage error (see [`assert_usage_error`]).
pub fn assert_help_and_usage_exits(name: &str, exe: &str) {
    let help = run(exe, &["--help"]);
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert_eq!(help.status.code(), Some(0), "{name} --help");
    assert!(
        stdout.starts_with(&format!("usage: {name}")),
        "{name} --help printed no usage on stdout:\n{stdout}"
    );
    assert_eq!(
        String::from_utf8_lossy(&help.stderr),
        "",
        "{name} --help wrote to stderr"
    );

    assert_usage_error(name, exe, &["--no-such-flag"]);
}

/// `args` are rejected at start-up: `error: …` on stderr, exit 2,
/// stdout empty.
pub fn assert_usage_error(name: &str, exe: &str, args: &[&str]) {
    let bad = run(exe, args);
    let line = format!("{name} {}", args.join(" "));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(bad.status.code(), Some(2), "{line}");
    assert!(
        stderr.starts_with("error: "),
        "{line} printed no error on stderr:\n{stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&bad.stdout),
        "",
        "{line} wrote to stdout"
    );
}
