//! The exit conventions of `kc_regime`, on the real executable:
//! `--help` exits 0 on stdout, an unknown flag exits 2 with `error:`
//! on stderr.

#[path = "../../../tests/support/cli_conventions.rs"]
mod cli_conventions;

#[test]
fn kc_regime_help_and_usage_exits() {
    cli_conventions::assert_help_and_usage_exits("kc_regime", env!("CARGO_BIN_EXE_kc_regime"));
}
