//! Measures **open-from-snapshot vs rebuild** for a `Counted` alignment
//! session (ISSUE 5 / ROADMAP "Session checkpointing / serving").
//!
//! The serving claim under test: at the table IV world (the default
//! `--quick` scale; `--tiny`/`--full` switch it), reopening a persisted
//! session — read the file, decode, re-validate, recompute `Lᵀ` caches —
//! is strictly cheaper than rebuilding it with a full 31-template catalog
//! count, and a per-round journal append (ΔA bytes + fsync) is strictly
//! cheaper than a monolithic save. The bin times six phases over `--reps`
//! repetitions (rebuild, save, open, journal-append, journal-open,
//! compact), verifies the reopened and journal-replayed sessions resume
//! `update_anchors` bit-equal to the rebuilt one, and writes
//! `BENCH_snapshot.json` for the CI perf-trajectory gate.
//!
//! ```sh
//! cargo run --release -p bench --bin snapshot [-- --tiny | --full]
//! ```

use eval::MetricSummary;
use session::{snapshot, Journal, SessionBuilder};
use std::time::{Duration, Instant};

fn main() {
    let opts = bench::HarnessOpts::from_args();
    let world = opts.world();
    let links = world.truth().links();
    // 60% of the anchors train the session (a mid-sweep γ); the rest are
    // the held-out updates that prove the reopened session resumes.
    let n_train = (links.len() * 6) / 10;
    let train = links[..n_train].to_vec();
    let held_out = &links[n_train..];
    let reps = 3usize;

    let build = || {
        SessionBuilder::new(world.left(), world.right())
            .anchors(train.clone())
            .threading(metadiagram::Threading::Threads(eval::effective_threads(
                opts.threads,
            )))
            .count()
            .expect("generated networks share attribute universes")
    };

    let mut rebuild_time = Duration::ZERO;
    let mut save_time = Duration::ZERO;
    let mut open_time = Duration::ZERO;
    let path = std::env::temp_dir().join(format!("bench-snapshot-{}.snap", std::process::id()));
    let mut file_bytes = 0u64;
    let mut last: Option<session::AlignmentSession<session::Counted>> = None;
    for _ in 0..reps {
        let t = Instant::now();
        let counted = build();
        rebuild_time += t.elapsed();

        let t = Instant::now();
        snapshot::save(&counted, &path).expect("snapshot save");
        save_time += t.elapsed();
        file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

        let t = Instant::now();
        let reopened = snapshot::open(&path).expect("snapshot open");
        open_time += t.elapsed();
        last = Some(reopened);
        drop(counted);
    }

    // Correctness spot-check: the reopened session folds in the held-out
    // anchors bit-equal to a rebuilt one, without a second full count.
    let mut reopened = last.expect("reps >= 1");
    let mut rebuilt = build();
    assert_eq!(
        reopened.update_anchors(held_out).expect("update reopened"),
        rebuilt.update_anchors(held_out).expect("update rebuilt"),
    );
    for i in 0..reopened.catalog().len() {
        assert_eq!(
            reopened.count_of(i),
            rebuilt.count_of(i),
            "count {i} diverged after reopen"
        );
    }
    assert_eq!(reopened.stats().full_counts, 1, "reopen must not recount");
    let base_bytes = std::fs::read(&path).expect("read saved base");
    let total_anchors = reopened.n_anchors();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(Journal::path_for(&path)).ok();

    // Journal cells: the same trained base persisted as base + delta
    // journal. `journal-append` is the durable per-round cost — append
    // the held-out batch and fsync a checkpoint — which the paired CI
    // gate (`--paired journal-append:save`) holds against the monolithic
    // save above. `journal-open` replays base + journal; `compact` folds
    // the journal back into a fresh base (serialize + marker + publish).
    let jbase = std::env::temp_dir().join(format!("bench-journal-{}.snap", std::process::id()));
    let mut append_time = Duration::ZERO;
    let mut jopen_time = Duration::ZERO;
    let mut compact_time = Duration::ZERO;
    let mut journal_bytes = 0u64;
    for _ in 0..reps {
        let mut journal = Journal::create(&jbase, &base_bytes).expect("journal create");

        let t = Instant::now();
        journal.append(held_out).expect("journal append");
        journal
            .checkpoint(total_anchors)
            .expect("journal checkpoint");
        append_time += t.elapsed();
        journal_bytes = journal.journal_bytes();

        let t = Instant::now();
        let (replayed, mut journal) = Journal::open(&jbase).expect("journal open");
        jopen_time += t.elapsed();
        assert_eq!(
            snapshot::to_bytes(&replayed),
            snapshot::to_bytes(&reopened),
            "journal replay must be bit-equal to the monolithic reopen"
        );

        let t = Instant::now();
        let folded = snapshot::to_bytes(&replayed);
        journal.compact(&folded).expect("journal compact");
        compact_time += t.elapsed();
        assert_eq!(
            journal.delta_records(),
            0,
            "compaction must drain the journal"
        );
    }
    std::fs::remove_file(&jbase).ok();
    std::fs::remove_file(Journal::path_for(&jbase)).ok();

    let rebuild = rebuild_time / reps as u32;
    let save = save_time / reps as u32;
    let open = open_time / reps as u32;
    let append = append_time / reps as u32;
    let jopen = jopen_time / reps as u32;
    let compact = compact_time / reps as u32;
    let no_f1 = MetricSummary {
        mean: f64::NAN,
        std: 0.0,
    };
    let mut recorder = opts.recorder("snapshot");
    recorder.annotate("reps", reps);
    recorder.annotate("n_train", n_train);
    recorder.annotate("snapshot_bytes", file_bytes);
    recorder.annotate("journal_bytes", journal_bytes);
    recorder.record("rebuild", "counted-stage", no_f1, rebuild);
    recorder.record("save", "counted-stage", no_f1, save);
    recorder.record("open", "counted-stage", no_f1, open);
    recorder.record("journal-append", "counted-stage", no_f1, append);
    recorder.record("journal-open", "counted-stage", no_f1, jopen);
    recorder.record("compact", "counted-stage", no_f1, compact);
    let json = recorder.write().expect("write BENCH_snapshot.json");

    println!(
        "snapshot bench — {} scale, {} anchors trained",
        opts.scale.name(),
        n_train
    );
    println!("  rebuild (full catalog count): {rebuild:>10.2?}");
    println!("  save snapshot:                {save:>10.2?}  ({file_bytes} bytes)");
    println!("  open from snapshot:           {open:>10.2?}");
    println!("  journal append + checkpoint:  {append:>10.2?}  ({journal_bytes} bytes)");
    println!("  open base + replay journal:   {jopen:>10.2?}");
    println!("  compact journal into base:    {compact:>10.2?}");
    println!(
        "  open is {:.1}× faster than rebuild",
        rebuild.as_secs_f64() / open.as_secs_f64().max(1e-9)
    );
    println!(
        "  journal append is {:.1}× faster than save",
        save.as_secs_f64() / append.as_secs_f64().max(1e-9)
    );
    println!("record: {}", json.display());
    // The serving claim holds where serving happens: at the table IV
    // world (quick) and above, where rebuild is SpGEMM-bound. The tiny
    // smoke world counts its whole catalog in well under a millisecond —
    // there file I/O can tie, so tiny runs record without asserting.
    if opts.scale != bench::Scale::Tiny {
        assert!(
            open < rebuild,
            "open-from-snapshot ({open:?}) must beat rebuild ({rebuild:?})"
        );
        assert!(
            append < save,
            "journal append ({append:?}) must beat monolithic save ({save:?})"
        );
    }
}
