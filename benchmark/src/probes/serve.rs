//! `kc-serve`: a hit answered in-process (no wire) and the codec.

use super::{timed, Bench};
use crate::stats;
use kc_experiments::{Campaign, CampaignEngine, Runner};
use kc_serve::protocol::{encode_response, parse_request};
use kc_serve::{Server, ServerConfig};
use std::hint::black_box;
use std::io;
use std::sync::Arc;

const HOT_REQUEST: &str = r#"{"id":1,"benchmark":"bt","class":"S","procs":4,"chain_len":2}"#;
/// Closed-loop hits per repetition.
const HITS: usize = 2_000;
/// Parse + encode round trips per repetition.
const FRAMES: u32 = 20_000;

pub fn run(b: &mut Bench) -> io::Result<()> {
    let campaign = Arc::new(Campaign::builder(Runner::noise_free()).jobs(2).build());
    let server = Server::new(
        Arc::new(CampaignEngine::new(campaign)),
        ServerConfig::default(),
    );
    // resolve the hot spec once; every later request is a memory hit
    let warm = server.submit_line(HOT_REQUEST).wait();
    b.gate.check(match warm.status {
        kc_serve::Status::Ok => Ok(()),
        other => Err(format!("in-process warm-up answered {other}")),
    });

    let mut medians = Vec::new();
    b.repeat("serve.inproc_hit", || {
        let mut latencies = Vec::with_capacity(HITS);
        let (secs, ()) = timed(|| {
            for _ in 0..HITS {
                let (s, response) = timed(|| server.submit_line(HOT_REQUEST).wait());
                black_box(response);
                latencies.push(s);
            }
        });
        medians.push(stats::median(&latencies));
        Ok((secs, ()))
    })?;
    b.layers
        .set("serve.inproc_hit_us_p50", 1e6 * stats::median(&medians));

    let (secs, _) = b.repeat("serve.codec", || {
        let (secs, bytes) = timed(|| {
            (0..FRAMES)
                .map(|_| {
                    black_box(parse_request(black_box(HOT_REQUEST)).expect("valid request"));
                    encode_response(black_box(&warm)).len()
                })
                .sum::<usize>()
        });
        Ok((secs, bytes))
    })?;
    b.layers
        .set("serve.codec_ns_per_frame", 1e9 * secs / f64::from(FRAMES));
    server.shutdown();
    Ok(())
}
