//! `trajectory`: the one fixed benchmark every later change is judged by.
//!
//! Five closed-loop workloads, eight bounded end-to-end metrics, and a
//! traced run that yields the per-layer numbers. See
//! `README.md` beside this file for what each workload stresses, which
//! end-to-end metric each per-layer metric should move, and how to run.
//!
//! ```text
//! trajectory --workload <name> [--seed N] [--seconds S] [--trace 0|1]   one run, in this process
//! trajectory --all [--trace] [--seed N] [--seconds S] [--out DIR]       every workload, a process each
//! trajectory --trace                                                    the traced run of every workload
//! trajectory --smoke                                                    every code path on tiny documents
//! trajectory --compare A B                                              judge result set B against A
//! ```

mod gen;
mod measure;
mod report;
mod spec;
mod trace;
mod wire;
mod workloads;

use spec::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Cfg, Report};

const USAGE: &str =
    "usage: trajectory --workload <name> | --all | --trace | --smoke | --compare A B
       [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

struct Args {
    workload: Option<Workload>,
    all: bool,
    trace: bool,
    smoke: bool,
    seed: u64,
    seconds: Option<f64>,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        trace: false,
        smoke: false,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        out: default_out(),
        compare: None,
        print_benchmark_json: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two result sets")?),
                    PathBuf::from(value("two result sets")?),
                ));
            }
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => {
                let operand = argv.peek().map(String::as_str);
                args.trace = operand != Some("0");
                if matches!(operand, Some("0" | "1")) {
                    argv.next();
                }
            }
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// `trajectory_out` beside the executable, which is inside the build
/// directory: the benchmark writes nowhere else.
fn default_out() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("trajectory_out")
}

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload in this process and stamps the report with the
/// toolchain and revision it ran on.
fn run_one(cfg: &Cfg) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.out)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out.display()))?;
    let mut report = workloads::run(cfg)?;
    report
        .header
        .push(("git_revision", first_line("git", &["rev-parse", "HEAD"])));
    report
        .header
        .push(("rustc_version", first_line("rustc", &["--version"])));
    Ok(report)
}

fn rows_file(out: &Path, workload: Workload, trace: bool) -> PathBuf {
    let mode = if trace { "trace" } else { "run" };
    out.join(format!("{}.{mode}.tsv", workload.name()))
}

/// Every workload in both modes on tiny documents, in this process.
fn smoke(out: &Path, seed: u64, seconds: f64) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            reports.push(run_one(&Cfg {
                workload,
                seed,
                seconds,
                trace,
                smoke: true,
                out: out.to_path_buf(),
            })?);
        }
    }
    Ok(reports)
}

/// Every workload in a child process of its own, so that `peak_rss_mb`
/// and `cpu_ms_per_op` belong to one workload. Returns the merged rows and
/// whether every child succeeded with no failed operation.
fn run_all(args: &Args, modes: &[bool]) -> Result<(Vec<report::Row>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut rows = Vec::new();
    let mut clean = true;
    for &trace in modes {
        for workload in Workload::ALL {
            let file = rows_file(&args.out, workload, trace);
            let _ = std::fs::remove_file(&file);
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out);
            if let Some(seconds) = args.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} exited with {status}", workload.name()));
            }
            let child_rows = report::read_results(&file)?;
            clean &= child_rows
                .iter()
                .any(|r| r.name == spec::ERROR_RATE && r.value.parse() == Ok(0.0));
            rows.extend(child_rows);
        }
    }
    Ok((rows, clean))
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((base, new)) = &args.compare {
        let (table, worse) =
            report::compare(&report::read_results(base)?, &report::read_results(new)?);
        print!("{table}");
        return Ok(if worse == 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!("trajectory: {worse} row(s) worse than the bound allows");
            ExitCode::FAILURE
        });
    }
    let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS as f64);
    if args.smoke {
        let reports = smoke(&args.out, args.seed, args.seconds.unwrap_or(0.3))?;
        reports.iter().for_each(report::print);
        let rows: Vec<_> = reports.iter().flat_map(report::rows).collect();
        report::write_results(&args.out, &rows).map_err(|e| e.to_string())?;
        let clean = reports.iter().all(|r| r.failed == 0);
        return Ok(if clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if let Some(workload) = args.workload {
        let report = run_one(&Cfg {
            workload,
            seed: args.seed,
            seconds,
            trace: args.trace,
            smoke: false,
            out: args.out.clone(),
        })?;
        let file = rows_file(&args.out, workload, args.trace);
        std::fs::write(&file, report::tsv(&report::rows(&report)))
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        // The result line goes last on standard output.
        report::print(&report);
        return Ok(ExitCode::SUCCESS);
    }
    let modes: &[bool] = match (args.all, args.trace) {
        (true, true) => &[false, true],
        (true, false) => &[false],
        (false, true) => &[true],
        (false, false) => return Err(USAGE.into()),
    };
    let (rows, clean) = run_all(&args, modes)?;
    report::write_results(&args.out, &rows).map_err(|e| e.to_string())?;
    println!("# results in {}", args.out.join("result.tsv").display());
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("trajectory: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is rendered from `spec.rs`; the file may not drift
    /// from the constants (names, units, directions, bounds, run length).
    #[test]
    fn benchmark_json_matches_the_source() {
        let file = include_str!("../../../../../../BENCHMARK.json");
        assert_eq!(
            file,
            spec::benchmark_json(),
            "regenerate with `trajectory --print-benchmark-json > BENCHMARK.json`"
        );
    }

    /// `--smoke` runs every workload in both modes and emits every metric
    /// and workload `BENCHMARK.json` names, under well-formed names.
    #[test]
    fn smoke_emits_every_declared_metric() {
        let out = std::env::temp_dir().join(format!("trajectory-smoke-{}", std::process::id()));
        let reports = smoke(&out, spec::DEFAULT_SEED, 0.3).expect("smoke run");
        let _ = std::fs::remove_dir_all(&out);
        assert_eq!(reports.len(), 2 * Workload::ALL.len());
        for report in &reports {
            assert_eq!(
                report.failed,
                0,
                "{} failed operations",
                report.workload.name()
            );
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let declared: Vec<&str> = if report.traced {
                spec::PER_LAYER.iter().map(|(name, _, _)| *name).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(names, declared, "{}", report.workload.name());
            assert!(report.extras.iter().any(|m| m.name == spec::ERROR_RATE));
            for m in report.metrics.iter().chain(&report.extras) {
                let well_formed = m
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
                assert!(
                    well_formed && m.value.is_finite(),
                    "{} = {}",
                    m.name,
                    m.value
                );
            }
            let line = report::result_line(report);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}
