//! The paper's scaling finding: coupling values move through a finite
//! number of regimes as problem size and processor count scale, keyed
//! to which cache level holds the per-processor working set.
//!
//! ```text
//! cargo run --release --example coupling_scaling
//! ```

use kernel_couplings::experiments::{transitions, Campaign, Runner};
use kernel_couplings::npb::{Benchmark, Class};

fn main() {
    let campaign = Campaign::builder(Runner::noise_free()).build();
    let classes = [Class::S, Class::W, Class::A];
    let procs = [4, 9, 16, 25];
    // measure the whole study as one parallel batch; the builders
    // below only read it
    campaign
        .prefetch(&transitions::transition_requests(&classes, &procs))
        .unwrap();

    println!(
        "{}",
        transitions::transition_table(&campaign, &classes, &procs).unwrap()
    );
    println!("{}", transitions::regime_table(&campaign, &classes, &procs));

    println!("per-processor working sets (BT):");
    for class in classes {
        print!("  class {class}:");
        for p in procs {
            let ws = transitions::working_set_bytes(Benchmark::Bt, class, p);
            print!("  {:>8.1} KiB", ws as f64 / 1024.0);
        }
        println!();
    }
    println!(
        "\nWhere the working set crosses a cache capacity (128 KiB L1, 4 MiB L2),\n\
         the mean coupling value shifts regime — class A starts memory-bound at\n\
         4 processors (coupling ~1) and becomes cache-resident and strongly\n\
         constructive by 25."
    );
}
