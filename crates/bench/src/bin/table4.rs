//! Regenerates **Table IV**: the same metrics at θ = 50 across the
//! sample-ratio sweep γ ∈ {10%, …, 100%}, including the paper's headline
//! comparison — ActiveIter-100 at γ vs Iter-MPMD at γ+10%.
//!
//! ```sh
//! cargo run --release -p bench --bin table4 [-- --full]
//! ```

use eval::{run_experiment, Method, Metrics, Table};

fn main() {
    let opts = bench::HarnessOpts::from_args();
    let world = opts.world();
    let methods = Method::paper_lineup();
    let gammas = bench::gamma_sweep();

    let mut table = Table::new(
        format!(
            "Table IV — performance vs sample-ratio γ (θ = 50, {} fold rotations, seed {})",
            opts.rotations(),
            opts.seed
        ),
        "γ",
        gammas
            .iter()
            .map(|g| format!("{:.0}%", g * 100.0))
            .collect(),
        methods.iter().map(|m| m.name()).collect(),
        Metrics::NAMES.iter().map(|s| s.to_string()).collect(),
    );

    let mut recorder = opts.recorder("table4");
    // The record names the θ actually run (the tiny preset clamps θ = 50
    // down to the world's capacity).
    recorder.annotate("theta", opts.spec(50, 0.6).np_ratio);
    let mut f1_by_gamma: Vec<(f64, f64)> = Vec::new(); // (ActiveIter-100, Iter-MPMD)
    for (ci, &gamma) in gammas.iter().enumerate() {
        let spec = opts.spec(50, gamma);
        let mut row = (0.0, 0.0);
        for (mi, &method) in methods.iter().enumerate() {
            let start = std::time::Instant::now();
            let cell = run_experiment(&world, &spec, method);
            recorder.record(
                method.name(),
                format!("{:.0}%", gamma * 100.0),
                cell.f1,
                start.elapsed(),
            );
            if matches!(method, Method::ActiveIter { budget: 100 }) {
                row.0 = cell.f1.mean;
            }
            if method == Method::IterMpmd {
                row.1 = cell.f1.mean;
            }
            for metric in Metrics::NAMES {
                table.set(metric, mi, ci, cell.get(metric));
            }
        }
        f1_by_gamma.push(row);
        eprintln!("γ = {gamma:.1} done");
    }
    println!("{table}");
    match recorder.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write bench record: {e}"),
    }

    println!();
    println!("=== §IV-D headline: ActiveIter-100 @ γ vs Iter-MPMD @ γ+10% (F1) ===");
    println!("ActiveIter queries ≤ 100 labels; the Iter-MPMD column gets the whole extra");
    println!("10% of the training fold instead.");
    for i in 0..f1_by_gamma.len().saturating_sub(1) {
        let gamma = (i + 1) as f64 / 10.0;
        let active = f1_by_gamma[i].0;
        let pu_plus = f1_by_gamma[i + 1].1;
        println!(
            "γ = {:>4.0}%: ActiveIter-100 {:.3} vs Iter-MPMD@{:.0}% {:.3}  {}",
            gamma * 100.0,
            active,
            (gamma + 0.1) * 100.0,
            pu_plus,
            // A tie is not a win: equal cells (ActiveIter-100 collapsing
            // onto Iter-MPMD) are marked apart.
            match active.partial_cmp(&pu_plus) {
                Some(std::cmp::Ordering::Greater) => "← active wins",
                Some(std::cmp::Ordering::Equal) => "= tie",
                _ => "",
            }
        );
    }
}
