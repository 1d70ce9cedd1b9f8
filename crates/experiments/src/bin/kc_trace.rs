//! `kc_trace` — render a `--trace` JSON-lines file as a span timeline.
//!
//! ```text
//! kc_trace render TRACE.jsonl [-o OUT.svg]
//! ```
//!
//! The campaign trace (`paper_tables --trace`, `kc_served --trace`)
//! is a stream of [`TelemetryEvent`]s without absolute timestamps:
//! canonical order plus per-event durations.  `render` reconstructs a
//! timeline from exactly that — one horizontal lane per executing
//! worker, `CellExecuted` spans packed end to end in stream order
//! with width proportional to `duration_secs`, plus a `serve` lane
//! for `RequestServed` events — and writes it as one self-contained
//! SVG (no external scripts or styles; hovering a span shows its
//! cell key and duration via a `<title>` tooltip).
//!
//! The picture answers the questions a regression report raises:
//! which workers carried the run, where the slow cells sit, and how
//! evenly the scheduler spread them.  Output goes to `-o` (or stdout
//! when omitted); a one-line summary of lanes and span counts goes
//! to stderr.

use kc_core::cli::{self, fail, CliError, Flag};
use kc_core::{read_jsonl, TelemetryEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const USAGE_HEADER: &str = "usage: kc_trace render TRACE.jsonl [-o OUT.svg]\n\
     \n\
     renders a campaign --trace file as a self-contained SVG span\n\
     timeline: one lane per worker, CellExecuted spans packed in\n\
     stream order (width = simulated duration), plus a serve lane\n\
     for RequestServed events\n\
     \n";

/// What `render`'s arguments configure.
#[derive(Default)]
pub(crate) struct Render {
    pub(crate) trace: Option<PathBuf>,
    pub(crate) out: Option<PathBuf>,
}

fn flags() -> [Flag<Render>; 1] {
    [Flag::value(
        "--out",
        "OUT.svg",
        "write the SVG here instead of stdout",
        cli::path,
        |o: &mut Render, file| o.out = Some(file),
    )
    .short("-o")]
}

pub(crate) fn parse_cli(args: &[String]) -> Result<Render, CliError> {
    let (command, rest) = cli::subcommand(args)?;
    if command != "render" {
        return Err(CliError::Usage(format!("unknown subcommand '{command}'")));
    }
    let render = cli::parse(rest, &flags(), |o: &mut Render, arg| {
        match o.trace.replace(PathBuf::from(arg)) {
            None => Ok(()),
            Some(_) => Err(format!("unexpected argument '{arg}'")),
        }
    })?;
    if render.trace.is_none() {
        return Err(CliError::Usage(
            "render needs a TRACE.jsonl path".to_string(),
        ));
    }
    Ok(render)
}

/// One rendered span: a placed interval on a named lane.
struct Span {
    lane: String,
    start: f64,
    duration: f64,
    label: String,
    color: &'static str,
}

/// A muted, print-safe palette; spans are colored by benchmark (the
/// first `|`-segment of the cell key) so one kernel family reads as
/// one hue across lanes.
const PALETTE: [&str; 6] = [
    "#4878a8", "#d1605e", "#6aa56a", "#e0a352", "#8b7cb3", "#8a8a8a",
];

/// Status colors for the serve lane.
fn status_color(status: &str) -> &'static str {
    match status {
        "ok" => "#6aa56a",
        "overloaded" => "#e0a352",
        "deadline" => "#8b7cb3",
        _ => "#d1605e",
    }
}

/// Pack events into per-lane spans, stream order, no gaps.
fn layout(events: &[TelemetryEvent]) -> Vec<Span> {
    let mut palette: BTreeMap<String, &'static str> = BTreeMap::new();
    let mut cursors: BTreeMap<String, f64> = BTreeMap::new();
    let mut spans = Vec::new();
    for event in events {
        match event {
            TelemetryEvent::CellExecuted {
                key,
                duration_secs,
                worker,
            } => {
                let benchmark = key.split('|').next().unwrap_or("").to_string();
                let next = palette.len() % PALETTE.len();
                let color = *palette.entry(benchmark).or_insert(PALETTE[next]);
                let lane = if worker.is_empty() { "worker" } else { worker };
                let cursor = cursors.entry(lane.to_string()).or_insert(0.0);
                spans.push(Span {
                    lane: lane.to_string(),
                    start: *cursor,
                    duration: *duration_secs,
                    label: format!("{key} — {:.3} ms", duration_secs * 1e3),
                    color,
                });
                *cursor += duration_secs;
            }
            TelemetryEvent::RequestServed {
                request,
                status,
                batch_size,
                duration_secs,
                ..
            } => {
                let cursor = cursors.entry("serve".to_string()).or_insert(0.0);
                spans.push(Span {
                    lane: "serve".to_string(),
                    start: *cursor,
                    duration: *duration_secs,
                    label: format!(
                        "{request} [{status}, batch {batch_size}] — {:.3} ms",
                        duration_secs * 1e3
                    ),
                    color: status_color(status),
                });
                *cursor += duration_secs;
            }
            _ => {}
        }
    }
    spans
}

/// Minimal XML text escaping for labels embedded in the SVG.
fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

const LANE_HEIGHT: f64 = 22.0;
const LANE_GAP: f64 = 6.0;
const MARGIN_LEFT: f64 = 150.0;
const MARGIN_TOP: f64 = 34.0;
const PLOT_WIDTH: f64 = 1000.0;

/// Render packed spans as one self-contained SVG document.
fn render_svg(spans: &[Span], source: &Path) -> String {
    let mut lanes: Vec<&str> = Vec::new();
    let mut extent = 0.0f64;
    for s in spans {
        if !lanes.contains(&s.lane.as_str()) {
            lanes.push(&s.lane);
        }
        extent = extent.max(s.start + s.duration);
    }
    if extent <= 0.0 {
        extent = 1.0;
    }
    let scale = PLOT_WIDTH / extent;
    let height = MARGIN_TOP + lanes.len().max(1) as f64 * (LANE_HEIGHT + LANE_GAP) + 24.0;
    let width = MARGIN_LEFT + PLOT_WIDTH + 20.0;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" font-family=\"monospace\" font-size=\"11\">"
    );
    let _ = writeln!(
        svg,
        "  <title>kc trace timeline: {}</title>",
        escape(&source.display().to_string())
    );
    let _ = writeln!(
        svg,
        "  <rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>"
    );
    let _ = writeln!(
        svg,
        "  <text x=\"{MARGIN_LEFT}\" y=\"16\" fill=\"#333\">{} — {} spans, {} lanes, {:.3} ms packed extent</text>",
        escape(&source.display().to_string()),
        spans.len(),
        lanes.len(),
        extent * 1e3,
    );
    // axis ticks: 5 even divisions of the packed extent
    for tick in 0..=5 {
        let secs = extent * tick as f64 / 5.0;
        let x = MARGIN_LEFT + secs * scale;
        let _ = writeln!(
            svg,
            "  <line x1=\"{x:.1}\" y1=\"{MARGIN_TOP}\" x2=\"{x:.1}\" y2=\"{:.1}\" stroke=\"#ddd\"/>",
            height - 24.0
        );
        let _ = writeln!(
            svg,
            "  <text x=\"{x:.1}\" y=\"{:.1}\" fill=\"#888\" text-anchor=\"middle\">{:.2}ms</text>",
            height - 8.0,
            secs * 1e3
        );
    }
    for (i, lane) in lanes.iter().enumerate() {
        let y = MARGIN_TOP + i as f64 * (LANE_HEIGHT + LANE_GAP);
        let _ = writeln!(
            svg,
            "  <text x=\"{:.1}\" y=\"{:.1}\" fill=\"#333\" text-anchor=\"end\">{}</text>",
            MARGIN_LEFT - 8.0,
            y + LANE_HEIGHT - 7.0,
            escape(lane)
        );
        for s in spans.iter().filter(|s| s.lane == **lane) {
            let x = MARGIN_LEFT + s.start * scale;
            let w = (s.duration * scale).max(1.0);
            let _ = writeln!(
                svg,
                "  <rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" height=\"{LANE_HEIGHT}\" \
                 fill=\"{}\" stroke=\"#fff\" stroke-width=\"0.5\"><title>{}</title></rect>",
                s.color,
                escape(&s.label)
            );
        }
    }
    svg.push_str("</svg>\n");
    svg
}

fn render(trace: &Path, out: Option<&Path>) {
    let events =
        read_jsonl(trace).unwrap_or_else(|e| fail(format!("cannot read {}: {e}", trace.display())));
    let spans = layout(&events);
    let lanes: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.lane.as_str()).collect();
    let svg = render_svg(&spans, trace);
    match out {
        Some(path) => std::fs::write(path, &svg)
            .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display()))),
        None => print!("{svg}"),
    }
    eprintln!(
        "[kc_trace] {} events -> {} spans on {} lanes{}",
        events.len(),
        spans.len(),
        lanes.len(),
        out.map(|p| format!(" -> {}", p.display()))
            .unwrap_or_default(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || cli::usage(USAGE_HEADER, &flags(), 22);
    let Render { trace, out } = cli::exit_on(parse_cli(&args), usage);
    render(&trace.expect("parse_cli checked"), out.as_deref());
}
