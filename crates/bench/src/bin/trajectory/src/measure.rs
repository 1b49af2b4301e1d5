//! The closed loop, its latency samples, the calibration that divides the
//! host's slowdown out of them, and the process counters (`/proc/self`) the
//! end-to-end metrics are built from.

use crate::spec;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one call of a client's operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Done {
    /// A foreground operation that completed with the right answer.
    Ok,
    /// A foreground operation that failed, was refused, timed out or
    /// answered wrongly.
    Failed,
    /// Housekeeping (a checkpoint): its time passes, no sample is kept.
    Untimed,
}

/// One foreground operation of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Window the operation ran in.
    pub window: u32,
    /// Latency in nanoseconds, as the clock read it.
    pub lat_ns: u64,
    /// Whether the operation completed correctly.
    pub ok: bool,
}

/// What one client did in the measured phase.
pub struct ClientRun {
    /// Its operations, in completion order.
    pub samples: Vec<Sample>,
    /// Seconds each window lasted for this client: from its release to the
    /// end of the operation that crossed the window's length.
    pub window_s: Vec<f64>,
    /// The host's slowdown as this client's thread saw it at every window
    /// boundary (one more entry than there are windows).
    pub slowdown: Vec<f64>,
}

impl ClientRun {
    /// Slowdown during window `w`: the mean of its two boundaries.
    fn factor(&self, w: usize) -> f64 {
        (self.slowdown[w] + self.slowdown[w + 1]) / 2.0
    }
}

/// The measured phase of one run.
pub struct Phase {
    /// One entry per client.
    pub clients: Vec<ClientRun>,
    /// Process CPU (user + system) spent in each window, milliseconds.
    pub window_cpu_ms: Vec<f64>,
}

/// A client's operation: called back to back, each call one request.
pub type Op<'a> = Box<dyn FnMut() -> Done + Send + 'a>;

/// Measures how much slower than its reference speed the host runs right
/// now, by timing a fixed piece of work: sorting [`spec::CAL_KEYS`]
/// pseudo-random keys (branches, cache misses and arithmetic in the mix a
/// query engine has).
///
/// The sandbox shares its cores with other tenants and runs 10-60 % slower
/// for seconds to minutes at a time; ten runs of the same code spread by up
/// to 37 % (README, "Host speed"). Every time the benchmark reports is
/// therefore divided by the slowdown measured next to it, on the same
/// thread: the numbers are times at reference speed, and a run in a slow
/// stretch reports what a run in a fast one does.
pub struct Calibrator {
    keys: Vec<u64>,
}

impl Calibrator {
    /// A calibrator; the first call of [`Calibrator::slowdown`] allocates.
    pub fn new() -> Calibrator {
        Calibrator { keys: Vec::new() }
    }

    /// Time of the kernel now over [`spec::CAL_REF_NS`].
    pub fn slowdown(&mut self) -> f64 {
        let start = Instant::now();
        self.keys.clear();
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..spec::CAL_KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.keys.push(x);
        }
        self.keys.sort_unstable();
        std::hint::black_box(&self.keys);
        start.elapsed().as_nanos() as f64 / spec::CAL_REF_NS
    }
}

/// Windows a measured phase of `measure` is cut into.
fn window_count(measure: Duration) -> usize {
    ((measure.as_millis() / spec::WINDOW_MS) as usize).max(spec::SPREAD_GROUPS)
}

/// Runs one closed loop per client: `warm` of discarded operations, then
/// `measure` of recorded ones, cut into windows of [`spec::WINDOW_MS`].
/// Every client starts its next operation only when the previous one has
/// returned. A window ends for a client with the operation that crosses
/// its length, so no operation is cut off or dropped; the client's window
/// lasted until then.
///
/// Between two windows every client is parked and measures the host's
/// slowdown on its own thread ([`Calibrator`]); the coordinating thread
/// reads the process CPU time on either side of each window. `probe` is
/// called when the first window begins and when the last has ended, so
/// that counters are read at the same points.
pub fn run_phase<P>(
    warm: Duration,
    measure: Duration,
    ops: Vec<Op<'_>>,
    probe: impl Fn() -> P,
) -> (Phase, P, P) {
    let windows = window_count(measure);
    let window = measure / windows as u32;
    let barrier = Barrier::new(ops.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .into_iter()
            .map(|mut op| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let start = Instant::now();
                    while start.elapsed() < warm {
                        op();
                    }
                    let mut cal = Calibrator::new();
                    let mut run = ClientRun {
                        samples: Vec::new(),
                        window_s: Vec::new(),
                        slowdown: Vec::new(),
                    };
                    for w in 0..windows {
                        barrier.wait(); // every client is parked
                        run.slowdown.push(cal.slowdown());
                        barrier.wait(); // released together
                        let start = Instant::now();
                        let mut begin = Duration::ZERO;
                        while begin < window {
                            let done = op();
                            let end = start.elapsed();
                            if done != Done::Untimed {
                                run.samples.push(Sample {
                                    window: w as u32,
                                    lat_ns: (end - begin).as_nanos() as u64,
                                    ok: done == Done::Ok,
                                });
                            }
                            begin = end;
                        }
                        run.window_s.push(begin.as_secs_f64());
                    }
                    barrier.wait();
                    run.slowdown.push(cal.slowdown());
                    run
                })
            })
            .collect();
        let mut cpu = Vec::new();
        let mut before = None;
        let mut cpu_start = 0.0;
        for w in 0..windows {
            barrier.wait();
            if w > 0 {
                cpu.push(cpu_ms() - cpu_start);
            }
            before.get_or_insert_with(&probe);
            barrier.wait();
            // Read after the release, so that the clients' calibration is
            // not counted as the window's CPU.
            cpu_start = cpu_ms();
        }
        barrier.wait();
        cpu.push(cpu_ms() - cpu_start);
        let after = probe();
        let phase = Phase {
            clients: handles
                .into_iter()
                .map(|h| h.join().expect("a benchmark client panicked"))
                .collect(),
            window_cpu_ms: cpu,
        };
        (phase, before.expect("a phase has windows"), after)
    })
}

/// Latency, throughput and CPU cost of a set of clients.
///
/// Times are at reference speed: every latency, window length and CPU
/// reading is divided by the slowdown of its window ([`Calibrator`]), then
/// percentiles are taken over the whole phase. The `raw_*` fields are what
/// the clock read. `*_spread` is the distance between the first and third
/// quartile over their median of the same number computed on each of the
/// [`spec::SPREAD_GROUPS`] consecutive parts of the phase.
pub struct Summary {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not complete correctly.
    pub failed: u64,
    /// Correct operations per second.
    pub ops_per_s: f64,
    /// Median latency of correct operations, µs.
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs; `None` below 1 000 samples.
    pub p99_us: Option<f64>,
    /// Process CPU per correct operation, ms.
    pub cpu_ms_per_op: f64,
    /// `[ops_per_s, p50_us, p95_us, cpu_ms_per_op, p99_us]` as the clock
    /// read them.
    pub raw: [f64; 5],
    /// Spread of `[ops_per_s, p50_us, p95_us, cpu_ms_per_op]` over the
    /// parts of the phase.
    pub spread: [f64; 4],
    /// Median slowdown of the host over the phase.
    pub slowdown: f64,
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered values (0 when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// (Q3 − Q1) / median of `values`, quartiles by linear interpolation
/// between closest ranks.
fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = median(sorted.clone());
    if mid == 0.0 {
        return 0.0;
    }
    let quantile = |q: f64| {
        let at = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
    };
    (quantile(0.75) - quantile(0.25)) / mid
}

/// `[ops_per_s, p50_us, p95_us, cpu_ms_per_op, p99_us]` of the correct
/// operations of `clients` in `windows`; at reference speed when `scaled`.
fn figures(
    phase: &Phase,
    clients: &[ClientRun],
    windows: std::ops::Range<usize>,
    scaled: bool,
) -> [f64; 5] {
    let factor = |c: &ClientRun, w: usize| if scaled { c.factor(w) } else { 1.0 };
    let mut lat_us = Vec::new();
    let mut ops_per_s = 0.0;
    for c in clients {
        let ok = c
            .samples
            .iter()
            .filter(|s| s.ok && windows.contains(&(s.window as usize)));
        let before = lat_us.len();
        lat_us.extend(ok.map(|s| s.lat_ns as f64 / 1e3 / factor(c, s.window as usize)));
        let seconds: f64 = windows.clone().map(|w| c.window_s[w] / factor(c, w)).sum();
        ops_per_s += (lat_us.len() - before) as f64 / seconds;
    }
    let cpu_ms: f64 = windows
        .clone()
        .map(|w| {
            let all = clients.iter().map(|c| factor(c, w)).sum::<f64>();
            phase.window_cpu_ms[w] / (all / clients.len().max(1) as f64)
        })
        .sum();
    lat_us.sort_by(f64::total_cmp);
    [
        ops_per_s,
        percentile(&lat_us, 0.50),
        percentile(&lat_us, 0.95),
        cpu_ms / lat_us.len().max(1) as f64,
        percentile(&lat_us, 0.99),
    ]
}

/// Summarises what `clients` did over `phase`.
pub fn summarize(phase: &Phase, clients: &[ClientRun]) -> Summary {
    let windows = phase.window_cpu_ms.len();
    let samples = || clients.iter().flat_map(|c| c.samples.iter());
    let attempted = samples().count() as u64;
    let ok = samples().filter(|s| s.ok).count() as u64;
    let [ops_per_s, p50_us, p95_us, cpu_ms_per_op, p99_us] =
        figures(phase, clients, 0..windows, true);
    let raw = figures(phase, clients, 0..windows, false);
    let groups = spec::SPREAD_GROUPS;
    let parts: Vec<[f64; 5]> = (0..groups)
        .map(|g| g * windows / groups..(g + 1) * windows / groups)
        .map(|part| figures(phase, clients, part, true))
        .collect();
    let part_spread = |i: usize| spread(&parts.iter().map(|p| p[i]).collect::<Vec<_>>());
    let factors = clients
        .iter()
        .flat_map(|c| (0..windows).map(|w| c.factor(w)))
        .collect();
    Summary {
        attempted,
        failed: attempted - ok,
        ops_per_s,
        p50_us,
        p95_us,
        p99_us: (ok >= 1000).then_some(p99_us),
        cpu_ms_per_op,
        raw,
        spread: [0, 1, 2, 3].map(part_spread),
        slowdown: median(factors),
    }
}

/// User + system CPU of this process so far, in milliseconds
/// (`/proc/self/stat` fields 14 and 15, in ticks of 1/100 s on Linux).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; count from its ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) * 10.0
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let us: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&us, 0.50), 50.0);
        assert_eq!(percentile(&us, 0.95), 95.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
    }

    #[test]
    fn closed_loop_counts_failures_and_skips_untimed() {
        let mut n = 0u64;
        let op: Op<'_> = Box::new(move || {
            n += 1;
            std::thread::sleep(Duration::from_micros(200));
            match n % 3 {
                0 => Done::Failed,
                1 => Done::Untimed,
                _ => Done::Ok,
            }
        });
        let (warm, measure) = (Duration::from_millis(5), Duration::from_millis(60));
        let (phase, (), ()) = run_phase(warm, measure, vec![op], || ());
        let s = summarize(&phase, &phase.clients);
        assert_eq!(phase.window_cpu_ms.len(), spec::SPREAD_GROUPS);
        assert!(s.attempted > 10 && s.failed > 0 && s.failed < s.attempted);
        assert!(s.raw[1] >= 200.0, "the clock read at least the sleep");
        // Times at reference speed are the clock's over the slowdown.
        let ratio = s.raw[1] / s.p50_us;
        assert!(
            (ratio / s.slowdown - 1.0).abs() < 0.5,
            "{ratio} {}",
            s.slowdown
        );
    }
}
