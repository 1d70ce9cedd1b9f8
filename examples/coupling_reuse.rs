//! The paper's future work, answered: which coupling values can be
//! reused across configurations?
//!
//! ```text
//! cargo run --release --example coupling_reuse
//! ```

use kernel_couplings::experiments::{reuse, Campaign, Runner};
use kernel_couplings::npb::{Benchmark, Class};

fn main() {
    let campaign = Campaign::builder(Runner::noise_free()).build();
    let procs = [4, 9, 16, 25];
    let classes = [Class::S, Class::W, Class::A];
    // measure both studies as one parallel batch; the builders below
    // only read it
    let mut requests = reuse::proc_transfer_requests(Benchmark::Bt, Class::W, &procs, 3);
    requests.extend(reuse::class_transfer_requests(
        Benchmark::Bt,
        &classes,
        16,
        3,
    ));
    campaign.prefetch(&requests).unwrap();

    println!("Within one cache regime, coefficients transfer almost freely:\n");
    let (table, study) =
        reuse::proc_transfer_table(&campaign, Benchmark::Bt, Class::W, &procs, 3).unwrap();
    println!("{table}");
    println!(
        "mean transfer error {:.2}%, beats summation in {:.0}% of transfers\n",
        100.0 * study.mean_transfer_err(),
        100.0 * study.transfer_win_rate()
    );

    println!("Across cache regimes, reuse breaks down — measure anew:\n");
    let (table, study) =
        reuse::class_transfer_table(&campaign, Benchmark::Bt, &classes, 16, 3).unwrap();
    println!("{table}");
    println!(
        "mean transfer error {:.2}%, beats summation in {:.0}% of transfers",
        100.0 * study.mean_transfer_err(),
        100.0 * study.transfer_win_rate()
    );
    println!(
        "\nRule of thumb this study supports: reuse coupling values while the\n\
         per-processor working set stays at the same cache level (the paper's\n\
         'finite number of major value changes'); re-measure when it crosses one."
    );
}
