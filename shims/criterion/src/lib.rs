//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! ships a minimal bench harness with criterion's surface: benchmark
//! groups, `bench_function` / `bench_with_input`, `sample_size`,
//! `throughput` (elements only), and the `criterion_group!` /
//! `criterion_main!` macros. Measurement is plain
//! wall-clock timing — a warm-up pass, then `sample_size` timed samples;
//! it reports min/mean per iteration to stdout with none of criterion's
//! statistics, plots, or outlier analysis.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Label for one benchmark: `function/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Just the parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Runs one benchmark body repeatedly.
pub struct Bencher {
    samples: usize,
    /// (total time, iterations) of the best sample, for reporting.
    best: Option<Duration>,
    mean: Duration,
}

impl Bencher {
    /// Times `f`: one warm-up call, then `samples` timed calls.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        black_box(f()); // warm-up
        let mut total = Duration::ZERO;
        let mut best: Option<Duration> = None;
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            let t = start.elapsed();
            total += t;
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        }
        self.best = best;
        self.mean = total / self.samples.max(1) as u32;
    }
}

/// How much work one iteration does, for per-unit reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// One iteration processes this many elements.
    Elements(u64),
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares the work per iteration of the benchmarks that follow;
    /// their report gains a per-element time.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    fn run(&mut self, id: String, f: impl FnOnce(&mut Bencher)) {
        let mut b = Bencher {
            samples: self.sample_size,
            best: None,
            mean: Duration::ZERO,
        };
        f(&mut b);
        let per_element = |t: Duration| match self.throughput {
            Some(Throughput::Elements(n)) if n > 0 => {
                format!(" ({:.1} ns/elem)", t.as_nanos() as f64 / n as f64)
            }
            _ => String::new(),
        };
        match b.best {
            Some(best) => println!(
                "{}/{}: best {:.2?}{}, mean {:.2?}{} over {} samples",
                self.name,
                id,
                best,
                per_element(best),
                b.mean,
                per_element(b.mean),
                b.samples
            ),
            None => println!("{}/{}: no measurement (iter never called)", self.name, id),
        }
    }

    /// Benches a closure.
    pub fn bench_function(&mut self, id: impl std::fmt::Display, f: impl FnOnce(&mut Bencher)) {
        self.run(id.to_string(), f);
    }

    /// Benches a closure against one input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) {
        self.run(id.to_string(), |b| f(b, input));
    }

    /// Ends the group (a no-op; criterion compatibility).
    pub fn finish(self) {}
}

/// The bench context handed to every registered function.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 20,
            throughput: None,
            _criterion: self,
        }
    }

    /// Benches a standalone closure (implicit group).
    pub fn bench_function(&mut self, id: impl std::fmt::Display, f: impl FnOnce(&mut Bencher)) {
        let name = id.to_string();
        let mut group = self.benchmark_group(name.clone());
        group.bench_function("", f);
        group.finish();
    }
}

/// Registers bench functions under one group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running every registered group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut calls = 0;
        group.bench_function("counted", |b| {
            b.iter(|| calls += 1);
        });
        group.finish();
        assert_eq!(calls, 4); // 1 warm-up + 3 samples
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        let mut seen = 0;
        group.bench_with_input(BenchmarkId::new("q", "x"), &41, |b, &i| {
            b.iter(|| seen = i + 1);
        });
        group.finish();
        assert_eq!(seen, 42);
    }
}
