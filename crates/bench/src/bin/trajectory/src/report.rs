//! Output: the lines a run prints, the flat `result.tsv` / `result.json`
//! files, and `--compare`.
//!
//! The repository has no JSON parser, so everything the benchmark reads
//! back is the TSV: `workload <TAB> kind <TAB> name <TAB> value <TAB> unit`
//! with `kind` one of `header`, `end_to_end`, `per_layer`, `extra`.

use crate::spec::{self, Better};
use crate::workloads::Report;
use std::fmt::Write as _;
use std::path::Path;

/// One line of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// `header`, `end_to_end`, `per_layer` or `extra`.
    pub kind: String,
    /// Metric or header name.
    pub name: String,
    /// Value, as printed.
    pub value: String,
    /// Unit (empty for headers).
    pub unit: String,
}

/// The rows of one report.
pub fn rows(report: &Report) -> Vec<Row> {
    let workload = report.workload.name();
    let row = |kind: &str, name: &str, value: String, unit: &str| Row {
        workload: workload.into(),
        kind: kind.into(),
        name: name.into(),
        value,
        unit: unit.into(),
    };
    let declared = if report.traced {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut out = Vec::new();
    for (name, value) in &report.header {
        out.push(row("header", name, value.clone(), ""));
    }
    for m in &report.metrics {
        out.push(row(declared, &m.name, m.value.to_string(), m.unit));
    }
    for m in &report.extras {
        out.push(row("extra", &m.name, m.value.to_string(), m.unit));
    }
    out
}

/// Prints every metric by name with its unit, then the result line the
/// driver reads: one JSON object, last on standard output.
pub fn print(report: &Report) {
    let header: Vec<String> = report
        .header
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "# trajectory workload={} trace={} {}",
        report.workload.name(),
        u8::from(report.traced),
        header.join(" ")
    );
    for m in report.metrics.iter().chain(&report.extras) {
        println!(
            "{:<12} {:<36} {:>16.6} {}",
            report.workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!("{}", result_line(report));
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `rows` as tab-separated lines.
pub fn tsv(rows: &[Row]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{}\t{}\t{}\t{}\t{}\n",
                r.workload, r.kind, r.name, r.value, r.unit
            )
        })
        .collect()
}

/// Writes `rows` as `result.tsv` and `result.json` into `dir`.
pub fn write_results(dir: &Path, rows: &[Row]) -> std::io::Result<()> {
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let value = match r.value.parse::<f64>() {
            Ok(v) if r.kind != "header" => json_number(v),
            _ => format!("\"{}\"", r.value.replace('\\', "\\\\").replace('"', "\\\"")),
        };
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "  {{\"workload\": \"{}\", \"kind\": \"{}\", \"name\": \"{}\", \"value\": {value}, \
             \"unit\": \"{}\"}}{comma}",
            r.workload, r.kind, r.name, r.unit
        );
    }
    json.push_str("]\n");
    std::fs::write(dir.join("result.tsv"), tsv(rows))?;
    std::fs::write(dir.join("result.json"), json)
}

/// Reads a `result.tsv` (or the directory holding one).
pub fn read_results(path: &Path) -> Result<Vec<Row>, String> {
    let file = if path.is_dir() {
        path.join("result.tsv")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            match f[..] {
                [workload, kind, name, value, unit] => Ok(Row {
                    workload: workload.into(),
                    kind: kind.into(),
                    name: name.into(),
                    value: value.into(),
                    unit: unit.into(),
                }),
                _ => Err(format!("{}: malformed line {line:?}", file.display())),
            }
        })
        .collect()
}

/// The verdict on one (workload, end-to-end metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// The spread recorded over the parts of a run exceeds the bound, so
    /// a difference of that size cannot be told from noise.
    Unresolved,
}

/// Judges `new` against `base` by the relative worsening in the metric's own
/// direction.
pub fn verdict(base: f64, new: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    let worsening = match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `--compare A B`: one row per (workload, end-to-end metric) with both
/// values, the ratio with its base, and a verdict. Returns the table and
/// the number of `worse` rows.
pub fn compare(base: &[Row], new: &[Row]) -> (String, usize) {
    let find = |rows: &[Row], workload: &str, name: &str| -> Option<f64> {
        rows.iter()
            .find(|r| r.workload == workload && r.name == name && r.kind != "header")
            .and_then(|r| r.value.parse().ok())
    };
    let mut table = format!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut worse = 0;
    for workload in spec::Workload::ALL {
        let w = workload.name();
        for m in &spec::END_TO_END {
            let (Some(a), Some(b)) = (find(base, w, m.name), find(new, w, m.name)) else {
                continue;
            };
            let spread_name = format!("{}.spread", m.name);
            let spread = [base, new]
                .iter()
                .filter_map(|rows| find(rows, w, &spread_name))
                .fold(0.0, f64::max);
            let v = verdict(a, b, m.better, m.bound, spread);
            worse += usize::from(v == Verdict::Worse);
            let _ = writeln!(
                table,
                "{w:<12} {:<14} {a:>14.4} {b:>14.4} {:>8.3} {:>6.1}%  {}",
                m.name,
                b / a,
                m.bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    (table, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let v = |a, b, better, spread| verdict(a, b, better, 0.10, spread);
        assert_eq!(v(100.0, 105.0, Better::Lower, 0.0), Verdict::Same);
        assert_eq!(v(100.0, 115.0, Better::Lower, 0.0), Verdict::Worse);
        assert_eq!(v(100.0, 85.0, Better::Lower, 0.0), Verdict::Better);
        assert_eq!(v(100.0, 85.0, Better::Higher, 0.0), Verdict::Worse);
        assert_eq!(v(100.0, 115.0, Better::Lower, 0.2), Verdict::Unresolved);
    }

    #[test]
    fn compare_counts_worse_rows_and_reads_what_it_wrote() {
        let row = |name: &str, value: &str| Row {
            workload: "embed_point".into(),
            kind: "end_to_end".into(),
            name: name.into(),
            value: value.into(),
            unit: "us".into(),
        };
        let base = vec![row("p50_us", "30"), row("p95_us", "6000")];
        let new = vec![row("p50_us", "40"), row("p95_us", "6100")];
        let (table, worse) = compare(&base, &new);
        assert_eq!(worse, 1, "{table}");
        let dir = std::env::temp_dir().join(format!("trajectory-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_results(&dir, &base).unwrap();
        assert_eq!(read_results(&dir).unwrap(), base);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
