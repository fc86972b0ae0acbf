//! CI perf-regression gate: diffs fresh `BENCH_*.json` wall-clock records
//! against the previous run's records and fails on regressions beyond a
//! noise threshold.
//!
//! ```sh
//! perf_gate --baseline bench-baseline --fresh . [--tolerance 0.5] [--slack-ms 15] \
//!     [--paired new-method:ref-method]...
//! ```
//!
//! A cell regresses when its fresh wall-clock exceeds the baseline by more
//! than `tolerance` (relative) **and** by more than `slack-ms` (absolute —
//! sub-millisecond cells on shared CI runners are pure noise). Unknown
//! keys are **recorded, never failed**: cells missing from the baseline
//! (new benches, new metrics, renamed methods) are reported as new, a
//! missing or empty baseline directory (cold CI cache, first run on a
//! branch) gates nothing — the fresh records simply become the next
//! baseline. F1 drift is reported as context. Exit code 1 when any cell
//! regresses.
//!
//! `--paired` additionally compares two methods **within the fresh
//! records**: in every (bench, cell) where both methods were measured, the
//! `new` method must not exceed the `ref` method by tolerance + slack.
//! This gates the fast path against its from-scratch counterpart inside a
//! single run — same machine, same load — so it works from the very first
//! CI run with no baseline at all, and is how the cells of
//! `BENCH_session_delta.json` (`region-exact:full-recount`, `dag:serial`)
//! are enforced. A pair that compares no cell at all (a renamed or
//! dropped method) fails: it would otherwise gate nothing, silently.
//!
//! The records are the flat documents written by
//! [`bench::record::BenchRecorder`];
//! the vendored serde stand-in has no deserializer, so the fields are
//! pulled out by a small line scanner matched to that writer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Cell {
    f1_mean: Option<f64>,
    wall_ms: f64,
}

/// (bench, method, cell) → measurement.
type Records = BTreeMap<(String, String, String), Cell>;

fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest: String = line[start..]
        .chars()
        .take_while(|c| !matches!(c, ',' | '}' | '\n'))
        .collect();
    rest.trim().parse().ok()
}

fn parse_record(path: &Path, into: &mut Records) -> std::io::Result<()> {
    let body = std::fs::read_to_string(path)?;
    let mut bench = String::new();
    for line in body.lines() {
        if bench.is_empty() {
            if let Some(b) = str_field(line, "bench") {
                bench = b;
            }
        }
        let (Some(method), Some(cell)) = (str_field(line, "method"), str_field(line, "cell"))
        else {
            continue;
        };
        let Some(wall_ms) = num_field(line, "wall_ms") else {
            continue;
        };
        into.insert(
            (bench.clone(), method, cell),
            Cell {
                f1_mean: num_field(line, "f1_mean"),
                wall_ms,
            },
        );
    }
    Ok(())
}

/// Loads every `BENCH_*.json` under `dir`. A directory that does not
/// exist yields an **empty** record set, not an error: a cold CI cache has
/// no baseline directory at all, and "no baseline" must mean "record,
/// don't fail", exactly like an unknown cell key.
fn load_dir(dir: &Path) -> std::io::Result<Records> {
    let mut records = Records::new();
    if !dir.exists() {
        return Ok(records);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            parse_record(&path, &mut records)?;
        }
    }
    Ok(records)
}

/// What one gate run concluded.
#[derive(Debug, Default)]
struct GateReport {
    /// Keys that regressed beyond tolerance + slack.
    regressions: Vec<(String, String, String)>,
    /// Keys compared against a baseline cell.
    compared: usize,
    /// Fresh keys with no baseline cell — recorded, never failed.
    new_cells: usize,
    /// `--paired` specs (`new:ref`) that matched no cell — failures.
    unmatched_pairs: Vec<String>,
    /// Human-readable findings, one line each.
    lines: Vec<String>,
}

/// Pure gating logic: diffs `fresh` against `baseline`. An empty baseline
/// (cold cache) or a fresh key absent from the baseline (a brand-new bench
/// metric) never produces a regression.
fn gate(baseline: &Records, fresh: &Records, tolerance: f64, slack_ms: f64) -> GateReport {
    let mut report = GateReport::default();
    for (key, fresh_cell) in fresh {
        let Some(base_cell) = baseline.get(key) else {
            report.new_cells += 1;
            report.lines.push(format!(
                "new cell (no baseline): {}/{}/{} at {:.1} ms",
                key.0, key.1, key.2, fresh_cell.wall_ms
            ));
            continue;
        };
        report.compared += 1;
        let (b, f) = (base_cell.wall_ms, fresh_cell.wall_ms);
        let regressed = f > b * (1.0 + tolerance) && f > b + slack_ms;
        let marker = if regressed { "REGRESSION" } else { "ok" };
        if regressed || f > b * (1.0 + tolerance / 2.0) {
            report.lines.push(format!(
                "{marker}: {}/{}/{}  {:.1} ms -> {:.1} ms ({:+.0}%)",
                key.0,
                key.1,
                key.2,
                b,
                f,
                (f / b - 1.0) * 100.0
            ));
        }
        if let (Some(bf1), Some(ff1)) = (base_cell.f1_mean, fresh_cell.f1_mean) {
            if (bf1 - ff1).abs() > 1e-9 {
                report.lines.push(format!(
                    "note: F1 drift on {}/{}/{}: {bf1} -> {ff1}",
                    key.0, key.1, key.2
                ));
            }
        }
        if regressed {
            report.regressions.push(key.clone());
        }
    }
    for key in baseline.keys() {
        if !fresh.contains_key(key) {
            report
                .lines
                .push(format!("cell vanished: {}/{}/{}", key.0, key.1, key.2));
        }
    }
    report
}

/// In-run comparison of two methods over every shared (bench, cell): the
/// `new` method regresses where it exceeds the `ref` method by tolerance +
/// slack. Needs no baseline — both sides come from the same fresh run. A
/// pair with no shared cell is reported in `unmatched_pairs`.
fn gate_paired(
    fresh: &Records,
    pairs: &[(String, String)],
    tolerance: f64,
    slack_ms: f64,
) -> GateReport {
    let mut report = GateReport::default();
    for (new_method, ref_method) in pairs {
        let compared_before = report.compared;
        for (key, new_cell) in fresh {
            if &key.1 != new_method {
                continue;
            }
            let ref_key = (key.0.clone(), ref_method.clone(), key.2.clone());
            let Some(ref_cell) = fresh.get(&ref_key) else {
                report.lines.push(format!(
                    "paired: {}/{} has no {ref_method} partner in {}",
                    key.0, new_method, key.2
                ));
                continue;
            };
            report.compared += 1;
            let (r, f) = (ref_cell.wall_ms, new_cell.wall_ms);
            let regressed = f > r * (1.0 + tolerance) && f > r + slack_ms;
            if regressed {
                report.lines.push(format!(
                    "PAIRED REGRESSION: {}/{}  {new_method} {:.1} ms vs {ref_method} {:.1} ms ({:+.0}%)",
                    key.0,
                    key.2,
                    f,
                    r,
                    (f / r - 1.0) * 100.0
                ));
                report.regressions.push(key.clone());
            }
        }
        if report.compared == compared_before {
            let spec = format!("{new_method}:{ref_method}");
            report.lines.push(format!(
                "PAIRED UNMATCHED: {spec} compared no cell — no {new_method} cell has a \
                 {ref_method} partner"
            ));
            report.unmatched_pairs.push(spec);
        }
    }
    report
}

struct Opts {
    baseline: PathBuf,
    fresh: PathBuf,
    tolerance: f64,
    slack_ms: f64,
    paired: Vec<(String, String)>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut baseline = None;
    let mut fresh = None;
    let mut tolerance = 0.5f64;
    let mut slack_ms = 15.0f64;
    let mut paired = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
            "--fresh" => fresh = Some(PathBuf::from(value("--fresh")?)),
            "--tolerance" => {
                tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--slack-ms" => {
                slack_ms = value("--slack-ms")?
                    .parse()
                    .map_err(|e| format!("--slack-ms: {e}"))?
            }
            "--paired" => {
                let spec = value("--paired")?;
                let (new_method, ref_method) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--paired expects new:ref, got {spec}"))?;
                if new_method.is_empty() || ref_method.is_empty() {
                    return Err(format!("--paired expects new:ref, got {spec}"));
                }
                paired.push((new_method.to_string(), ref_method.to_string()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        baseline: baseline.ok_or("--baseline <dir> is required")?,
        fresh: fresh.ok_or("--fresh <dir> is required")?,
        tolerance,
        slack_ms,
        paired,
    })
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match load_dir(&opts.baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "perf_gate: cannot read baseline {}: {e}",
                opts.baseline.display()
            );
            return ExitCode::from(2);
        }
    };
    let fresh = match load_dir(&opts.fresh) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf_gate: cannot read fresh {}: {e}", opts.fresh.display());
            return ExitCode::from(2);
        }
    };
    // The paired gate runs on the fresh records alone — it holds even on a
    // cold cache, where the trajectory gate has nothing to diff.
    let paired_report = gate_paired(&fresh, &opts.paired, opts.tolerance, opts.slack_ms);
    for line in &paired_report.lines {
        println!("  {line}");
    }
    if !opts.paired.is_empty() {
        println!(
            "perf_gate: paired {} cells across {} method pair(s): {} regression(s), \
             {} unmatched pair(s)",
            paired_report.compared,
            opts.paired.len(),
            paired_report.regressions.len(),
            paired_report.unmatched_pairs.len()
        );
    }

    let mut regressions = paired_report.regressions.len() + paired_report.unmatched_pairs.len();
    if baseline.is_empty() {
        println!(
            "perf_gate: baseline is empty or missing — nothing to gate against \
             (cold cache / first run); recording fresh cells only"
        );
    } else {
        let report = gate(&baseline, &fresh, opts.tolerance, opts.slack_ms);
        for line in &report.lines {
            println!("  {line}");
        }
        println!(
            "perf_gate: compared {} cells, {} new (tolerance {:.0}% + {:.0} ms slack): {} regression(s)",
            report.compared,
            report.new_cells,
            opts.tolerance * 100.0,
            opts.slack_ms,
            report.regressions.len()
        );
        regressions += report.regressions.len();
    }
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(wall_ms: f64) -> Cell {
        Cell {
            f1_mean: Some(0.5),
            wall_ms,
        }
    }

    fn key(s: &str) -> (String, String, String) {
        ("b".into(), "m".into(), s.into())
    }

    #[test]
    fn cold_start_missing_baseline_dir_loads_empty() {
        let dir = std::env::temp_dir().join("perf_gate_cold_start_does_not_exist");
        assert!(!dir.exists());
        let records = load_dir(&dir).expect("missing dir is a cold cache, not an error");
        assert!(records.is_empty(), "cold start must gate nothing");
    }

    #[test]
    fn unknown_fresh_keys_are_recorded_not_failed() {
        let mut baseline = Records::new();
        baseline.insert(key("old"), cell(10.0));
        let mut fresh = Records::new();
        fresh.insert(key("old"), cell(10.5));
        // A brand-new metric (e.g. a proximity-refresh bench cell).
        fresh.insert(key("prox-delta/b5"), cell(3.0));
        let report = gate(&baseline, &fresh, 0.5, 15.0);
        assert!(report.regressions.is_empty());
        assert_eq!(report.compared, 1);
        assert_eq!(report.new_cells, 1);
        assert!(report.lines.iter().any(|l| l.contains("new cell")));
    }

    #[test]
    fn real_regressions_still_fail() {
        let mut baseline = Records::new();
        baseline.insert(key("hot"), cell(100.0));
        let mut fresh = Records::new();
        fresh.insert(key("hot"), cell(400.0));
        let report = gate(&baseline, &fresh, 0.5, 15.0);
        assert_eq!(report.regressions, vec![key("hot")]);
        assert!(report.lines.iter().any(|l| l.contains("REGRESSION")));
        // Within slack: sub-slack absolute growth is noise, never a failure.
        let mut fresh = Records::new();
        fresh.insert(key("hot"), cell(110.0));
        assert!(gate(&baseline, &fresh, 0.5, 15.0).regressions.is_empty());
    }

    fn method_key(method: &str, cell: &str) -> (String, String, String) {
        ("b".into(), method.into(), cell.into())
    }

    fn pairs(spec: &[(&str, &str)]) -> Vec<(String, String)> {
        spec.iter()
            .map(|&(n, r)| (n.to_string(), r.to_string()))
            .collect()
    }

    #[test]
    fn paired_gate_fails_when_the_fast_method_loses_within_one_run() {
        let mut fresh = Records::new();
        fresh.insert(method_key("splice", "table4-b5"), cell(120.0));
        fresh.insert(method_key("add", "table4-b5"), cell(50.0));
        // A healthy cell of the same pair.
        fresh.insert(method_key("splice", "tiny-b5"), cell(1.0));
        fresh.insert(method_key("add", "tiny-b5"), cell(2.0));
        let report = gate_paired(&fresh, &pairs(&[("splice", "add")]), 0.5, 15.0);
        assert_eq!(report.compared, 2);
        assert_eq!(report.regressions, vec![method_key("splice", "table4-b5")]);
        assert!(report.lines.iter().any(|l| l.contains("PAIRED REGRESSION")));
    }

    #[test]
    fn paired_gate_needs_no_baseline_and_respects_slack() {
        let mut fresh = Records::new();
        // 3x slower but within the absolute slack: CI-runner noise.
        fresh.insert(method_key("dag", "tiny-t2"), cell(3.0));
        fresh.insert(method_key("serial", "tiny-t2"), cell(1.0));
        let report = gate_paired(&fresh, &pairs(&[("dag", "serial")]), 0.5, 15.0);
        assert_eq!(report.compared, 1);
        assert!(report.regressions.is_empty());
        // A cell without a partner is reported, not failed, while the
        // pair still compares another cell.
        fresh.insert(method_key("dag", "tiny-t4"), cell(3.0));
        let report = gate_paired(&fresh, &pairs(&[("dag", "serial")]), 0.5, 15.0);
        assert_eq!(report.compared, 1);
        assert!(report.regressions.is_empty());
        assert!(report.unmatched_pairs.is_empty());
        assert!(report.lines.iter().any(|l| l.contains("no serial partner")));
    }

    #[test]
    fn paired_spec_that_matches_no_cell_fails() {
        let mut fresh = Records::new();
        fresh.insert(method_key("dag", "tiny-t2"), cell(3.0));
        fresh.insert(method_key("serial", "tiny-t2"), cell(9.0));
        // A renamed reference method: the pair would gate nothing.
        let report = gate_paired(
            &fresh,
            &pairs(&[("dag", "levels"), ("dag", "serial")]),
            0.5,
            15.0,
        );
        assert_eq!(report.compared, 1);
        assert!(report.regressions.is_empty());
        assert_eq!(report.unmatched_pairs, vec!["dag:levels".to_string()]);
        assert!(report.lines.iter().any(|l| l.contains("PAIRED UNMATCHED")));
        // So does a spec whose new method was never measured.
        let report = gate_paired(&fresh, &pairs(&[("splice", "add")]), 0.5, 15.0);
        assert_eq!(report.unmatched_pairs, vec!["splice:add".to_string()]);
    }

    #[test]
    fn vanished_cells_are_reported_without_failing() {
        let mut baseline = Records::new();
        baseline.insert(key("gone"), cell(10.0));
        let report = gate(&baseline, &Records::new(), 0.5, 15.0);
        assert!(report.regressions.is_empty());
        assert!(report.lines.iter().any(|l| l.contains("cell vanished")));
    }
}
