//! Paper Eq. 3 in action: compose hand-derived analytical kernel
//! models with measured coupling coefficients.
//!
//! ```text
//! cargo run --release --example analytic_composition
//! ```

use kernel_couplings::experiments::{analytic, Campaign, Runner};
use kernel_couplings::npb::models::analytic_loop_models;
use kernel_couplings::npb::{Benchmark, Class, NpbApp};

fn main() {
    let campaign = Campaign::builder(Runner::noise_free()).build();
    let app = NpbApp::new(Benchmark::Bt, Class::W, 9);

    println!("hand-derived kernel models for {} —", app.label());
    println!(
        "{:>12} {:>11} {:>11} {:>11} {:>11} {:>12}",
        "kernel", "compute", "memory", "comm", "warm E_k", "isolated E_k"
    );
    for m in analytic_loop_models(&app, &campaign.runner().machine) {
        println!(
            "{:>12} {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>11.2}ms",
            m.name,
            1e3 * m.compute,
            1e3 * m.memory,
            1e3 * m.comm,
            1e3 * m.total(),
            1e3 * m.isolated_total(),
        );
    }

    println!();
    let procs = [4, 9, 16, 25];
    // measure the study as one parallel batch; the builder only reads it
    let requests = analytic::analytic_requests(Benchmark::Bt, Class::W, &procs, 3);
    campaign.prefetch(&requests).unwrap();
    let table = analytic::analytic_table(&campaign, Benchmark::Bt, Class::W, &procs, 3).unwrap();
    println!("{table}");
    println!(
        "The coupling coefficients correct the isolated-measurement bias of the\n\
         hand models without any simulation — Eq. 3's composition algebra."
    );
}
