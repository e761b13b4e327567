//! The repository's benchmark: one command that starts from seeded
//! inputs, drives the encode/evaluate service through its public API,
//! checks every output, and prints the end-to-end metrics (or, traced,
//! the per-layer metrics and a per-request time table).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold|sweep|fullsim|wire --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod check;
mod cold;
mod fullsim;
mod gen;
mod harness;
mod sweep;
mod wire;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imt_serve::service::Service;

use harness::{median, peak_rss_mib, Phase, Scratch, SpanLog};

/// Service workers in every workload.
pub const WORKERS: usize = 2;
/// Client threads generating the closed-loop load.
pub const CLIENTS: usize = 2;

/// One workload, set up and ready to take load.
pub trait Workload {
    /// Sends requests in a closed loop for `duration`; every round that
    /// started runs to its end.
    fn load(&self, duration: Duration) -> Phase;
    /// Checks every reply of `phases` against the independent recounts.
    fn check(&self, phases: &[&Phase]) -> Result<(), String>;
    /// Replays the traced phase's requests through each layer's public
    /// functions, timing each call as a span in `log`.
    fn layers(&self, phase: &Phase, log: &mut SpanLog) -> LayerReport;
    fn service(&self) -> &Service;
    fn shutdown(self: Box<Self>);
}

/// Per-layer numbers a workload measured, and its requests' time split.
pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64)>,
    pub rows: Vec<Row>,
    /// Batch keys first submitted during the traced phase.
    pub distinct_keys: u64,
    /// A line printed under the table, for what the rows cannot show.
    pub note: Option<String>,
}

/// Where a layer's time falls relative to a request's latency.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// Inside the queue + service time the server reports.
    Service,
    /// On the request's path, outside the server-reported time.
    Path,
    /// Before the request is sent; not part of its latency.
    OffPath,
}

pub struct Row {
    pub label: &'static str,
    pub us: f64,
    pub place: Place,
}

impl Row {
    pub fn service(label: &'static str, us: f64) -> Row {
        Row {
            label,
            us,
            place: Place::Service,
        }
    }
    pub fn path(label: &'static str, us: f64) -> Row {
        Row {
            label,
            us,
            place: Place::Path,
        }
    }
    pub fn off_path(label: &'static str, us: f64) -> Row {
        Row {
            label,
            us,
            place: Place::OffPath,
        }
    }
}

/// The timed phase runs as this many equal windows, one after the other;
/// each rate and latency metric is the median of its per-window values,
/// so a burst of load on the host that lasts a second or two moves it
/// little. Bus reduction is taken over the whole phase.
const WINDOWS: u32 = 10;

/// Every per-layer metric with its unit, in the order printed.
const PER_LAYER: [(&str, &str); 25] = [
    ("kernels.spec_build_us", "us"),
    ("isa.assemble_us", "us"),
    ("isa.words", "count"),
    ("sim.record_ms", "ms"),
    ("sim.record_mfetch_per_s", "Mfetch/s"),
    ("sim.fetches", "count"),
    ("core.encode_us", "us"),
    ("core.replay_us", "us"),
    ("core.fullsim_ms", "ms"),
    ("core.fullsim_mfetch_per_s", "Mfetch/s"),
    ("fault.replay_us", "us"),
    ("fault.replay_mfetch_per_s", "Mfetch/s"),
    ("serve.queue_wait_us", "us"),
    ("serve.service_us", "us"),
    ("serve.profile_warms", "count"),
    ("serve.warm_useful_ratio", "ratio"),
    ("serve.mean_batch", "count"),
    ("serve.result_memo_hits", "count"),
    ("serve.memo_hit_us", "us"),
    ("net.rtt_us", "us"),
    ("net.server_residual_us", "us"),
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.bytes_per_req", "bytes"),
    ("obs.trace_overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// A started workload: how to set it up, and how often set-up is
/// repeated to report its median.
struct Plan {
    setups: usize,
    setup: SetUp,
}

type SetUp = Box<dyn Fn(&Scratch) -> Result<Box<dyn Workload>, String>>;

fn plan(args: &Args) -> Result<Plan, String> {
    let seed = args.seed;
    Ok(match args.workload.as_str() {
        "cold" => {
            let seq = Arc::new(gen::cold_sequence(seed));
            Plan {
                setups: 51,
                setup: Box::new(move |_| cold::setup(&seq)),
            }
        }
        "sweep" => Plan {
            setups: 5,
            setup: Box::new(move |_| sweep::setup(seed)),
        },
        "fullsim" => {
            let inputs = Arc::new(fullsim::prepare(seed)?);
            Plan {
                setups: 9,
                setup: Box::new(move |_| fullsim::setup(&inputs)),
            }
        }
        "wire" => Plan {
            setups: 5,
            setup: Box::new(move |s| wire::setup(seed, s)),
        },
        other => {
            return Err(format!(
                "unknown workload `{other}` (cold, fullsim, wire, sweep)"
            ))
        }
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a metric that could not be
        // measured reads as null and fails the run's validation.
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Points the program's profile cache at an empty directory private to
/// the next set-up, so no set-up or run warms another. Made before the
/// set-up timer starts: the directory is the benchmark's, not the
/// program's, work.
fn fresh_profile_cache(scratch: &Scratch) -> Result<(), String> {
    let dir = scratch
        .fresh_dir("cache")
        .map_err(|e| format!("profile cache directory: {e}"))?;
    std::env::set_var(imt_core::profile_cache::DIR_ENV, dir);
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    imt_obs::set_mode(imt_obs::Mode::Off);
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let plan = plan(args)?;
    let seconds = Duration::from_secs_f64(args.seconds);
    if args.trace {
        return traced(args, &plan, &scratch, seconds);
    }
    // The first set-up serves the timed phase; the repeats that give
    // `setup_s` its median come after it, so the peak memory read after
    // the phase holds one set-up, as a user's process would.
    let set_up = || -> Result<(Box<dyn Workload>, f64), String> {
        fresh_profile_cache(&scratch)?;
        let t0 = Instant::now();
        let workload = (plan.setup)(&scratch)?;
        Ok((workload, t0.elapsed().as_secs_f64()))
    };
    let (workload, first) = set_up()?;
    let windows: Vec<Phase> = (0..WINDOWS).map(|_| workload.load(seconds / WINDOWS)).collect();
    let rss = peak_rss_mib();
    let checked = workload.check(&windows.iter().collect::<Vec<_>>());
    workload.shutdown();
    if let Err(e) = &checked {
        eprintln!("perfbench: check failed: {e}");
    }
    let mut setup_s = vec![first];
    for _ in 1..plan.setups {
        let (workload, secs) = set_up()?;
        setup_s.push(secs);
        workload.shutdown();
    }
    let per_window = |f: fn(&Phase) -> f64| median(&mut windows.iter().map(f).collect::<Vec<_>>());
    let (req_per_s, p50_ms, mfetch_per_s) = (
        per_window(Phase::req_per_s),
        per_window(|w| w.latency_ms(0.50)),
        per_window(Phase::mfetch_per_s),
    );
    let phase = Phase::join(windows);
    let metrics = [
        Metric {
            name: "setup_s",
            value: median(&mut setup_s),
            unit: "s",
        },
        Metric {
            name: "req_per_s",
            value: req_per_s,
            unit: "req/s",
        },
        Metric {
            name: "p50_ms",
            value: p50_ms,
            unit: "ms",
        },
        Metric {
            name: "mfetch_per_s",
            value: mfetch_per_s,
            unit: "Mfetch/s",
        },
        Metric {
            name: "bus_reduction_pct",
            value: phase.reduction_pct(),
            unit: "%",
        },
        Metric {
            name: "peak_rss_mib",
            value: rss,
            unit: "MiB",
        },
    ];
    // p90 and p99 are printed here but not reported as metrics: from one
    // set of runs to another their spread reaches the largest bound a
    // metric may have.
    eprintln!(
        "perfbench {} seed {}: {} completed in {:.2} s (p90 {:.3} ms, p99 {:.3} ms), set-up median of {}",
        args.workload,
        args.seed,
        phase.completed(),
        phase.elapsed.as_secs_f64(),
        phase.latency_ms(0.90),
        phase.latency_ms(0.99),
        plan.setups
    );
    Ok(result_line(
        checked.is_ok(),
        phase.tally.attempted,
        phase.tally.failed,
        &metrics,
    ))
}

/// Untraced (false) and traced (true) slices of the traced run, in an
/// order that puts a steady drift over the run (a growing profile memo,
/// the instance mix, host load) on both halves alike.
const SLICES: [bool; 8] = [false, true, true, false, false, true, true, false];

/// The traced run: untraced and traced slices of the same load,
/// alternating (their throughput ratio is the tracing overhead), the
/// program's own counters read over the traced slices, then a replay of
/// the traced slices' requests through each layer.
fn traced(
    args: &Args,
    plan: &Plan,
    scratch: &Scratch,
    seconds: Duration,
) -> Result<String, String> {
    fresh_profile_cache(scratch)?;
    let workload = (plan.setup)(scratch)?;
    let warms = imt_obs::registry::span_stat("serve.profile_warm");
    let hits = imt_obs::registry::counter("serve.result_memo_hits");
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut warm_count, mut hit_count, mut batches, mut batched_jobs) = (0, 0, 0, 0);
    let slice = seconds / SLICES.len() as u32;
    for on in SLICES {
        if !on {
            plain.push(workload.load(slice));
            continue;
        }
        imt_obs::set_mode(imt_obs::Mode::Report);
        let (warms0, hits0, stats0) = (warms.count(), hits.get(), workload.service().stats());
        traced.push(workload.load(slice));
        let (warms1, hits1, stats1) = (warms.count(), hits.get(), workload.service().stats());
        imt_obs::set_mode(imt_obs::Mode::Off);
        warm_count += warms1 - warms0;
        hit_count += hits1 - hits0;
        batches += stats1.batches - stats0.batches;
        batched_jobs += stats1.batched_jobs - stats0.batched_jobs;
    }
    let (plain, phase) = (Phase::join(plain), Phase::join(traced));
    let checked = workload.check(&[&plain, &phase]);
    if let Err(e) = &checked {
        eprintln!("perfbench: check failed: {e}");
    }
    let mut log = SpanLog::new();
    let report = workload.layers(&phase, &mut log);
    workload.shutdown();

    let mut values: Vec<(&str, f64)> = vec![
        ("serve.queue_wait_us", phase.mean_queue_us()),
        ("serve.service_us", phase.mean_service_us()),
        ("serve.profile_warms", warm_count as f64),
        (
            "serve.warm_useful_ratio",
            if warm_count == 0 {
                1.0
            } else {
                report.distinct_keys as f64 / warm_count as f64
            },
        ),
        (
            "serve.mean_batch",
            batched_jobs as f64 / batches.max(1) as f64,
        ),
        ("serve.result_memo_hits", hit_count as f64),
        ("obs.trace_overhead_pct", trace_overhead_pct(&plain, &phase)),
    ];
    values.extend(report.metrics.iter().copied());
    // A layer this workload's requests do not pass through reads 0.
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1),
        })
        .collect();

    println!("{}", table(args, &plain, &phase, &report));
    let spans = scratch.path().parent().map(|p| {
        p.join(format!(
            "perfbench-spans-{}-{}.jsonl",
            args.workload, args.seed
        ))
    });
    if let Some(path) = spans {
        match log.write(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let attempted = plain.tally.attempted + phase.tally.attempted;
    let failed = plain.tally.failed + phase.tally.failed;
    Ok(result_line(checked.is_ok(), attempted, failed, &metrics))
}

/// The per-request time table of the traced slices: each layer's share of
/// the mean client latency, and the residual no layer accounts for.
fn table(args: &Args, plain: &Phase, phase: &Phase, report: &LayerReport) -> String {
    let latency = phase.mean_latency_us();
    let server = phase.mean_queue_us() + phase.mean_service_us();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed {} (traced): mean per-request time by layer over {} replies",
        args.workload,
        args.seed,
        phase.completed()
    );
    let line = |out: &mut String, label: &str, us: f64| {
        let _ = writeln!(
            out,
            "  {label:<44} {us:>12.1} us {:>6.1}%",
            us / latency * 100.0
        );
    };
    let mut accounted = 0.0;
    let mut in_service = 0.0;
    for row in report.rows.iter().filter(|r| r.place == Place::Service) {
        line(&mut out, row.label, row.us);
        in_service += row.us;
    }
    line(
        &mut out,
        "serve (queue wait + service beyond the rows above)",
        server - in_service,
    );
    accounted += server;
    for row in report.rows.iter().filter(|r| r.place == Place::Path) {
        line(&mut out, row.label, row.us);
        accounted += row.us;
    }
    line(
        &mut out,
        "residual (no layer accounts for it)",
        latency - accounted,
    );
    line(&mut out, "total: mean client latency", latency);
    for row in report.rows.iter().filter(|r| r.place == Place::OffPath) {
        let _ = writeln!(
            out,
            "  off the latency path: {:<22} {:>12.1} us",
            row.label, row.us
        );
    }
    if let Some(note) = &report.note {
        let _ = writeln!(out, "  {note}");
    }
    let _ = write!(
        out,
        "  tracing overhead: {:.1}% ({:.2} Mfetch/s traced vs {:.2} untraced; {:.1} vs {:.1} req/s)",
        trace_overhead_pct(plain, phase),
        phase.mfetch_per_s(),
        plain.mfetch_per_s(),
        phase.req_per_s(),
        plain.req_per_s()
    );
    out
}

/// Throughput lost to tracing: the traced slices' useful fetches per
/// second against the untraced slices'. Fetches, not requests, so that
/// slices drawing larger or smaller requests (on `cold`, instances of
/// 0.4-2x paper-scale work) do not pass for tracing cost.
fn trace_overhead_pct(plain: &Phase, traced: &Phase) -> f64 {
    (plain.mfetch_per_s() - traced.mfetch_per_s()) / plain.mfetch_per_s() * 100.0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
