//! # perfbench — the repository's end-to-end benchmark
//!
//! Three workloads, each generated from `--seed`:
//!
//! * `cell` — one table IV cell (ActiveIter-100, ConflictQuery, θ = 50,
//!   γ = 0.6) through `eval::run_experiment`;
//! * `active` — the session-driven active loop (UncertaintyQuery, batch 5,
//!   budget 500) driven round by round;
//! * `serve` — a 2-worker `Coordinator` under two closed-loop clients.
//!
//! With tracing off a run calls only the programs' public entry points and
//! reports [`report::END_TO_END`]. With tracing on it replays the same
//! inputs, times every call into a layer from this crate's own code, and
//! reports [`report::PER_LAYER`]. See `METRICS.md` beside this crate.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cell --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a provenance line, a detail line, and as its last line the JSON
//! result. Exits 1 when a correctness check failed, 2 on bad arguments.

#![forbid(unsafe_code)]

mod active;
mod cell;
mod host;
mod serve;

use perfbench::report::{self, Metric};
use perfbench::stats::{self, Tally};
use std::time::{Duration, Instant};

fn main() {
    // The serving workload's tier re-executes this binary as its workers.
    if std::env::args().nth(1).as_deref() == Some("--serve-worker") {
        std::process::exit(session::serve::worker_main());
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let provenance = host::provenance(&opts.workload, opts.seed, opts.workers, opts.trace);
    println!("{{\"provenance\": {}}}", report::string_object(&provenance));
    let outcome = run(&opts);
    let mut detail = outcome.detail.clone();
    detail.push(report::Metric::new(
        "attempted",
        outcome.tally.attempted as f64,
        "count",
    ));
    detail.push(report::Metric::new(
        "failed",
        outcome.tally.failed as f64,
        "count",
    ));
    println!("{{\"detail\": {}}}", report::metrics_object(&detail));
    let (line, correct) = report::result_line(outcome.tally, &outcome.metrics);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// Input scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the metrics are defined at.
    Paper,
    /// The tiny smoke world, for tests of the benchmark itself.
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name: `cell`, `active` or `serve`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Worker-thread budget handed to the programs.
    pub workers: usize,
}

/// Names of the workloads.
pub const WORKLOADS: &[&str] = &["cell", "active", "serve"];

/// Worker-thread budget the programs are run with.
pub const WORKER_BUDGET: usize = 2;

impl Opts {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--scale paper|tiny]`.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scale = Scale::Paper;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    })
                }
                "--scale" => {
                    scale = match value()?.as_str() {
                        "paper" => Scale::Paper,
                        "tiny" => Scale::Tiny,
                        other => return Err(format!("--scale takes paper or tiny, got {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Opts {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
            workers: WORKER_BUDGET,
        })
    }

    /// The timed-phase length.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The generator config of a Table II-proportioned world with
    /// `n_shared` anchored users (the tiny smoke world at tiny scale).
    pub fn world_config(&self, n_shared: usize) -> datagen::GeneratorConfig {
        match self.scale {
            Scale::Paper => datagen::presets::paper_scale(n_shared, self.seed),
            Scale::Tiny => datagen::presets::tiny(self.seed),
        }
    }
}

/// θ clamped to what the world can supply (the tiny world cannot give
/// 50 negatives per positive).
pub fn feasible_np_ratio(cfg: &datagen::GeneratorConfig, want: usize) -> usize {
    let n_pos = cfg.n_shared_users.max(1);
    let universe = cfg.n_left_users() * cfg.n_right_users() - cfg.n_shared_users;
    want.min((universe / n_pos).max(1))
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further named figures, printed on their own line before the result.
    pub detail: Vec<Metric>,
}

/// Runs `setup` `times` times, dropping each result before the next, and
/// returns the last result with the median wall time in seconds.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let mut secs = Vec::with_capacity(times);
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("setup ran at least once"),
        stats::median(&secs).expect("at least one setup"),
    )
}

/// How many times each run repeats its setup for `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// Runs the workload `opts` names.
pub fn run(opts: &Opts) -> Outcome {
    match opts.workload.as_str() {
        "cell" => cell::run(opts),
        "active" => active::run(opts),
        "serve" => serve::run(opts),
        other => unreachable!("workload {other} was validated at parse time"),
    }
}

/// Seconds as milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean of `xs`, 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
