//! Shared run machinery: reply records, tallies, percentiles, the run's
//! private scratch directory, peak memory, and the in-memory span log of
//! the traced run.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed request, kept compact (16 bytes) so the benchmark's own
/// storage stays small next to the program's memory: which job, a digest
/// of every field the checks compare, and the client-side latency.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub job: u32,
    pub latency_ns: u32,
    pub digest: u64,
}

impl Reply {
    pub fn new(job: u64, digest: u64, latency: Duration) -> Reply {
        Reply {
            job: u32::try_from(job).expect("job indices stay below 2^32"),
            latency_ns: u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX),
            digest,
        }
    }
}

/// Running sums over one client's replies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub baseline: u64,
    pub encoded: u64,
    /// Fetches the workload counts as useful (see each workload).
    pub fetches: u64,
    pub queue_ns: u64,
    pub service_ns: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.baseline += o.baseline;
        self.encoded += o.encoded;
        self.fetches += o.fetches;
        self.queue_ns += o.queue_ns;
        self.service_ns += o.service_ns;
    }
}

/// What one timed phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub replies: Vec<Reply>,
    pub tally: Tally,
    pub elapsed: Duration,
}

impl Phase {
    pub fn merge(parts: Vec<(Vec<Reply>, Tally)>, start: Instant) -> Phase {
        let mut phase = Phase {
            elapsed: start.elapsed(),
            ..Phase::default()
        };
        for (replies, tally) in parts {
            phase.replies.extend(replies);
            phase.tally.add(&tally);
        }
        phase
    }

    /// Several phases as one: replies and tallies together, elapsed
    /// times summed.
    pub fn join(parts: Vec<Phase>) -> Phase {
        let mut phase = Phase::default();
        for part in parts {
            phase.replies.extend(part.replies);
            phase.tally.add(&part.tally);
            phase.elapsed += part.elapsed;
        }
        phase
    }

    pub fn completed(&self) -> u64 {
        self.replies.len() as u64
    }

    pub fn req_per_s(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64()
    }

    /// Nearest-rank percentile of client latency in ms; failed requests
    /// rank above every completed one.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let mut lat: Vec<u64> = self
            .replies
            .iter()
            .map(|r| u64::from(r.latency_ns))
            .collect();
        lat.extend(std::iter::repeat_n(u64::MAX, self.tally.failed as usize));
        lat.sort_unstable();
        if lat.is_empty() {
            return f64::NAN;
        }
        let rank = ((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        lat[rank - 1] as f64 / 1e6
    }

    pub fn mean_latency_us(&self) -> f64 {
        let sum: u64 = self.replies.iter().map(|r| u64::from(r.latency_ns)).sum();
        sum as f64 / self.replies.len().max(1) as f64 / 1e3
    }

    pub fn reduction_pct(&self) -> f64 {
        let t = &self.tally;
        (t.baseline as f64 - t.encoded as f64) / t.baseline as f64 * 100.0
    }

    pub fn mfetch_per_s(&self) -> f64 {
        self.tally.fetches as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    pub fn mean_queue_us(&self) -> f64 {
        self.tally.queue_ns as f64 / self.completed().max(1) as f64 / 1e3
    }

    pub fn mean_service_us(&self) -> f64 {
        self.tally.service_ns as f64 / self.completed().max(1) as f64 / 1e3
    }
}

/// The run's private scratch directory (profile caches, the socket),
/// removed when dropped. It lives under the cargo target directory, so a
/// run reads and writes only inside its checkout.
pub struct Scratch {
    path: PathBuf,
    next: Mutex<u32>,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target"));
        let path = base.join(format!("perfbench-run-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Scratch {
            path,
            next: Mutex::new(0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty directory inside the scratch directory.
    pub fn fresh_dir(&self, tag: &str) -> std::io::Result<PathBuf> {
        let mut next = self.next.lock().expect("scratch counter lock");
        *next += 1;
        let dir = self.path.join(format!("{tag}-{}", *next));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Runs `body` on `threads` client threads for `duration`; each call of
/// `body` is one whole round that runs to its end even past the deadline
/// (it returns false when it has nothing left to send). Returns the
/// merged replies and tallies, timed until the last round ended.
pub fn closed_loop<F>(threads: usize, duration: Duration, body: F) -> Phase
where
    F: Fn(&mut Vec<Reply>, &mut Tally) -> bool + Sync,
{
    let start = Instant::now();
    let deadline = start + duration;
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let body = &body;
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        if !body(&mut replies, &mut tally) {
                            break;
                        }
                    }
                    (replies, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    Phase::merge(parts, start)
}

/// One span of the traced run: a layer call made from the benchmark's
/// own code, with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory during the traced run and written out at its end.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Self time per span: duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut cover = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        cover += b - a;
                        reach = b;
                    }
                }
                (s.name, (s.end_ns - s.start_ns).saturating_sub(cover))
            })
            .collect()
    }

    /// Mean self time (µs) and count of the spans named `name`.
    pub fn mean_self_us(&self, name: &str) -> (f64, u64) {
        let (sum, n) = self
            .self_times()
            .into_iter()
            .filter(|(n, _)| *n == name)
            .fold((0u64, 0u64), |(s, c), (_, t)| (s + t, c + 1));
        if n == 0 {
            (0.0, 0)
        } else {
            (sum as f64 / n as f64 / 1e3, n)
        }
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        log.spans = vec![
            Span {
                name: "root",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                parent: Some(0),
                start_ns: 30,
                end_ns: 50,
            },
            Span {
                name: "c",
                parent: Some(1),
                start_ns: 15,
                end_ns: 20,
            },
        ];
        let times = log.self_times();
        assert_eq!(times[0], ("root", 60));
        assert_eq!(times[1], ("a", 25));
        assert_eq!(times[2], ("b", 20));
    }

    #[test]
    fn percentiles_use_nearest_rank_and_rank_failures_last() {
        let mut phase = Phase {
            replies: (1..=100)
                .map(|i| Reply::new(i, 0, Duration::from_millis(i)))
                .collect(),
            ..Phase::default()
        };
        assert_eq!(phase.latency_ms(0.5), 50.0);
        assert_eq!(phase.latency_ms(0.99), 99.0);
        phase.tally.failed = 5;
        assert!(phase.latency_ms(0.99).is_infinite() || phase.latency_ms(0.99) > 1e9);
    }
}
