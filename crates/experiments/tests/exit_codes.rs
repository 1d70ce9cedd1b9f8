//! The exit conventions of this crate's three binaries, on the real
//! executables: `--help` exits 0 on stdout, an unknown flag exits 2
//! with `error:` on stderr.

#[path = "../../../tests/support/cli_conventions.rs"]
mod cli_conventions;

use cli_conventions::assert_help_and_usage_exits;

#[test]
fn paper_tables_help_and_usage_exits() {
    assert_help_and_usage_exits("paper_tables", env!("CARGO_BIN_EXE_paper_tables"));
}

#[test]
fn kc_served_help_and_usage_exits() {
    assert_help_and_usage_exits("kc_served", env!("CARGO_BIN_EXE_kc_served"));
}

#[test]
fn kc_trace_help_and_usage_exits() {
    assert_help_and_usage_exits("kc_trace", env!("CARGO_BIN_EXE_kc_trace"));
}
