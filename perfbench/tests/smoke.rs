//! Every workload, untraced and traced, end to end on the tiny world: the
//! run must pass its own checks and print exactly the metrics
//! `BENCHMARK.json` lists.

use perfbench::report::{END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn smoke(workload: &str, trace: &str) {
    let (code, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.3",
        "--trace",
        trace,
        "--scale",
        "tiny",
    ]);
    let last = stdout.lines().last().unwrap_or_default();
    assert_eq!(code, 0, "{workload} trace {trace}: {stdout}");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    let names = if trace == "1" { PER_LAYER } else { END_TO_END };
    for (name, unit) in names {
        let entry = format!("\"{name}\": {{\"value\": ");
        assert!(
            last.contains(&entry),
            "{workload}: {name} missing from {last}"
        );
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
    }
    assert_eq!(last.matches("\"value\": ").count(), names.len());
    assert!(
        stdout.contains("\"git_commit\": "),
        "provenance line missing"
    );
}

#[test]
fn cell_smoke() {
    smoke("cell", "0");
    smoke("cell", "1");
}

#[test]
fn active_smoke() {
    smoke("active", "0");
    smoke("active", "1");
}

#[test]
fn serve_smoke() {
    smoke("serve", "0");
    smoke("serve", "1");
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(".perfbench-work");
    assert!(!work.exists(), "the serve workload leaves its files behind");
}

#[test]
fn bad_arguments_are_refused() {
    let (code, stdout) = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty());
    let (code, _) = run(&["--workload", "cell", "--seed", "1", "--seconds", "1"]);
    assert_eq!(code, 2, "--trace is required");
}

#[test]
fn catalogue_matches_benchmark_json() {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for (section, names) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
        let at = spec.find(section).expect("section present");
        let body = &spec[at..];
        let body = &body[..body.find(']').expect("section closes")];
        let listed = body.matches("\"name\":").count();
        assert_eq!(listed, names.len(), "{section} lists {listed} metrics");
        for (name, unit) in names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(body.contains(&entry), "{section} lacks {entry}");
        }
    }
}
