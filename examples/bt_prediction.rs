//! Reproduce the paper's BT class-W study (Tables 3a/3b) in one go:
//! measure 3-kernel-chain couplings on the simulated IBM SP and
//! compare the coupling predictor against summation.
//!
//! ```text
//! cargo run --release --example bt_prediction
//! ```

use kernel_couplings::experiments::{catalog, Campaign};

fn main() {
    println!("BT class W on the simulated IBM SP (120 MHz P2SC nodes)\n");

    let campaign = Campaign::default(); // noisy timers, like real measurements
    let (output, _) = catalog::get("bt-w").unwrap().run(&campaign).unwrap();
    let tables = output.artifact.unwrap();

    println!("{}", tables.render_text());

    let sum = tables.predictions[0]
        .row("Summation")
        .unwrap()
        .avg_rel_err_pct()
        .unwrap();
    let cpl = tables.predictions[0]
        .row("Coupling: 3 kernels")
        .unwrap()
        .avg_rel_err_pct()
        .unwrap();
    println!("average relative error:  summation {sum:.2}%   coupling {cpl:.2}%");
    println!("(the paper reports 22.42% and 1.42% for the same experiment on the real machine)");
}
