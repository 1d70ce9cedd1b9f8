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
/// an unknown flag prints `error: …` on stderr and exits 2 with stdout
/// empty.
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

    let bad = run(exe, &["--no-such-flag"]);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(bad.status.code(), Some(2), "{name} --no-such-flag");
    assert!(
        stderr.starts_with("error: "),
        "{name} --no-such-flag printed no error on stderr:\n{stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&bad.stdout),
        "",
        "{name} --no-such-flag wrote to stdout"
    );
}
