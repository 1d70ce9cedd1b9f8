//! `kc-regime`: change-point detection, and a whole sweep assembled
//! in-process from a warm campaign.

use super::{timed, Bench};
use kc_experiments::{Campaign, Runner};
use kc_prophesy::CellStore;
use kc_regime::{
    build_map, detect_changepoints, run_sweep, sweep_requests, DetectParams, SweepSpec,
};
use rand::SmallRng;
use std::hint::black_box;
use std::io;

/// A coupling-like curve of `n` points: three plateaus with seeded
/// noise well below the steps between them.
fn curve(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| [0.80, 0.90, 1.00][3 * i / n] + 0.004 * (rng.gen_f64() - 0.5))
        .collect()
}

pub fn run(b: &mut Bench) -> io::Result<()> {
    let params = DetectParams::default();
    for (n, calls) in [(12, 20_000u32), (200, 500)] {
        let xs = curve(n, b.seed);
        let (secs, _boundaries) = b.repeat(&format!("regime.detect_n{n}"), || {
            let mut found = Vec::new();
            let (secs, ()) = timed(|| {
                for _ in 0..calls {
                    found = detect_changepoints(black_box(&xs), &params);
                }
            });
            Ok((secs, found))
        })?;
        b.layers.set(
            &format!("regime.us_per_detect.n{n}"),
            1e6 * secs / f64::from(calls),
        );
    }

    // the committed sweep over a campaign whose cells all come from
    // the golden store: assembly, detection and rendering, no simulation
    let spec =
        SweepSpec::load(&b.env.scripts.join("regime_small.json")).map_err(io::Error::other)?;
    let golden_map = std::fs::read_to_string(b.env.golden.join("regime_map.json"))?;
    let cells = CellStore::load(&b.env.golden.join("cells_regime.json"))?;
    let campaign = Campaign::builder(Runner::noise_free())
        .backend(Box::new(cells))
        .jobs(2)
        .build();
    let requests = sweep_requests(&spec).map_err(io::Error::other)?;
    let warmed = campaign.prefetch(&requests).map_err(io::Error::other)?;
    b.gate.check(if warmed.cells_executed == 0 {
        Ok(())
    } else {
        Err(format!(
            "the golden regime store missed {} cells",
            warmed.cells_executed
        ))
    });
    let (secs, same_as_golden) = b.repeat("regime.sweep_warm_inproc", || {
        let (secs, json) = timed(|| {
            run_sweep(&campaign, &spec).map(|curves| {
                build_map(
                    &spec.name,
                    &spec.benchmark,
                    spec.chain_len,
                    &curves,
                    &params,
                )
                .to_json_pretty()
            })
        });
        Ok((secs, json.map_err(io::Error::other)? == golden_map))
    })?;
    b.gate.check(if same_as_golden {
        Ok(())
    } else {
        Err("the in-process regime map differs from the golden".into())
    });
    b.layers.set("regime.sweep_warm_inproc_ms", 1e3 * secs);
    Ok(())
}
