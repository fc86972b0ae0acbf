//! `serve`: the multi-process tier under two closed-loop clients.
//!
//! World `paper_scale(500)`; a base counted from 60% of the true anchors
//! and saved as a snapshot, copied into 8 slots, served by a
//! `Coordinator` with 2 worker processes. Each client owns 4 slots that
//! span both workers and loops over 40% updates (2 true anchors the slot
//! has never applied, so every write recounts), 40% queries of 64 pairs,
//! 10% align with k = 10 and 10% checkpoints.
//!
//! Each slot can take 100 such updates before its held-out anchors run
//! out, so the load runs in epochs: a fresh tier opens fresh bases,
//! serves until a client runs out, checkpoints and shuts down; then a
//! respawned tier reopens every slot from base+journal (the replay
//! opens) and must reach the served anchor counts. Epoch 0 serves the
//! `--seed` world; each later epoch serves a world of its own, set up
//! between epochs, so a run's medians span several worlds.
//!
//! Correctness: every reply is checked against what the client knows
//! (anchor counts, reply shapes), and the request stream of chosen slots
//! is replayed into an in-process `SessionPool` whose answers must equal
//! the tier's bit for bit. Untraced runs replay one slot per epoch; the
//! traced run replays every slot and times each pool call, the codec and
//! a scratch journal's appends on the same requests.

use crate::{host, mean, ms, repeat_setup, Opts, Outcome, Scale, SETUP_REPEATS};
use hetnet::AnchorLink;
use perfbench::report::{complete, Metric, END_TO_END, PER_LAYER};
use perfbench::stats::{median, p90, Tally};
use session::serve::{
    decode_frame, decode_request, decode_response, encode_request, encode_response, Coordinator,
    Request, Response, ServeConfig, WorkerSpec,
};
use session::{snapshot, AlignmentSession, CompactionPolicy, Counted, Journal, SessionPool};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Anchored users of the world.
pub const PAPER_SHARED: usize = 500;
/// Session slots served.
pub const SLOTS: u64 = 8;
/// Closed-loop clients.
pub const CLIENTS: u64 = 2;
/// Worker processes.
pub const TIER_WORKERS: usize = 2;
/// Anchors per update request.
pub const EDGES_PER_UPDATE: usize = 2;
/// Pairs per query request.
pub const QUERY_PAIRS: usize = 64;
/// `k` of align requests.
pub const ALIGN_K: u32 = 10;

/// Request kinds of the load mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `update_anchors`, 40%.
    Update,
    /// `query` of 64 pairs, 40%.
    Query,
    /// `align` with k = 10, 10%.
    Align,
    /// `checkpoint`, 10%.
    Checkpoint,
}

impl Kind {
    fn of(u: f64) -> Kind {
        match u {
            u if u < 0.4 => Kind::Update,
            u if u < 0.8 => Kind::Query,
            u if u < 0.9 => Kind::Align,
            _ => Kind::Checkpoint,
        }
    }
}

/// A served request and the tier's reply.
#[derive(Debug, Clone)]
struct Op {
    slot: u64,
    request: Request,
    response: Response,
    /// Round trip through the coordinator.
    tier: Duration,
    /// The client's whole operation: request generation, round trip and
    /// reply checks.
    wall: Duration,
}

impl Op {
    fn kind(&self) -> Kind {
        match self.request {
            Request::UpdateAnchors { .. } => Kind::Update,
            Request::Query { .. } => Kind::Query,
            Request::Align { .. } => Kind::Align,
            _ => Kind::Checkpoint,
        }
    }
}

/// splitmix64: the load generator's seeded stream.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The workload's inputs and files.
pub struct Inputs {
    base_bytes: Vec<u8>,
    n_base: u64,
    held_out: Vec<AnchorLink>,
    truth: Vec<(u32, u32)>,
    n_left: u32,
    n_right: u32,
    dir: PathBuf,
    compact_env: String,
    policy: CompactionPolicy,
    seed: u64,
    count_time: Duration,
}

impl Inputs {
    fn slot_path(&self, slot: u64) -> PathBuf {
        self.dir.join("tier").join(format!("slot-{slot}.snap"))
    }

    fn pristine(&self) -> PathBuf {
        self.dir.join("base.snap")
    }

    /// Fresh bases in `sub` with no journals. They are hard links to the
    /// pristine base: compaction publishes a new base by rename and never
    /// writes into the old file, so the pristine copy stays intact.
    fn fresh_bases(&self, sub: &str, slots: impl Iterator<Item = u64>) -> Vec<PathBuf> {
        let d = self.dir.join(sub);
        std::fs::create_dir_all(&d).expect("create the work directory");
        let remove = |p: &std::path::Path| match std::fs::remove_file(p) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                panic!("remove {}: {e}", p.display())
            }
            _ => {}
        };
        slots
            .map(|s| {
                let p = d.join(format!("slot-{s}.snap"));
                remove(&Journal::path_for(&p));
                remove(&p);
                std::fs::hard_link(self.pristine(), &p)
                    .or_else(|_| std::fs::copy(self.pristine(), &p).map(drop))
                    .expect("place a fresh base");
                p
            })
            .collect()
    }
}

/// Where a run keeps its files: inside the working directory.
fn work_dir() -> PathBuf {
    std::env::current_dir()
        .expect("a working directory")
        .join(".perfbench-work")
        .join(format!("serve-{}", std::process::id()))
}

fn compaction(scale: Scale) -> (String, CompactionPolicy) {
    // About one fold per slot per epoch (100 updates per slot), so every
    // slot compacts several times in a run.
    let n = match scale {
        Scale::Paper => 60,
        Scale::Tiny => 2,
    };
    (format!("everyn:{n}"), CompactionPolicy::EveryN(n))
}

fn spawn_tier(inputs: &Inputs) -> Coordinator {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let mut spec = WorkerSpec::new(exe);
    spec.args.push("--serve-worker".into());
    spec.envs
        .push(("SERVE_COMPACT".into(), inputs.compact_env.clone()));
    let config = ServeConfig {
        workers: TIER_WORKERS,
        max_in_flight: 32,
        deadline: Duration::from_secs(60),
        restart_limit: 1,
    };
    Coordinator::spawn(spec, config).expect("spawn the serving tier")
}

/// World generation, the base count, the snapshot writes and the tier
/// spawn, for the run's world number `world` (0 is the `--seed` world).
fn setup(opts: &Opts, world: u64) -> (Inputs, Coordinator) {
    let mut cfg = opts.world_config(PAPER_SHARED);
    cfg.seed ^= world.wrapping_mul(0x2545_f491_4f6c_dd1d);
    let world = datagen::generate(&cfg);
    let links = world.truth().links();
    let n_train = links.len() * 6 / 10;
    let t = Instant::now();
    let counted = session::SessionBuilder::new(world.left(), world.right())
        .anchors(links[..n_train].to_vec())
        .threading(metadiagram::Threading::Threads(opts.workers))
        .count()
        .expect("generated networks share attribute universes");
    let count_time = t.elapsed();
    let (compact_env, policy) = compaction(opts.scale);
    let mut inputs = Inputs {
        base_bytes: Vec::new(),
        n_base: counted.n_anchors() as u64,
        held_out: links[n_train..].to_vec(),
        truth: links.iter().map(|l| (l.left.0, l.right.0)).collect(),
        n_left: world.left().n_users() as u32,
        n_right: world.right().n_users() as u32,
        dir: work_dir(),
        compact_env,
        policy,
        seed: opts.seed,
        count_time,
    };
    std::fs::create_dir_all(&inputs.dir).expect("create the work directory");
    snapshot::save(&counted, inputs.pristine()).expect("save the base snapshot");
    inputs.base_bytes = std::fs::read(inputs.pristine()).expect("read the base snapshot");
    inputs.fresh_bases("tier", 0..SLOTS);
    let tier = spawn_tier(&inputs);
    (inputs, tier)
}

/// What one client saw in one epoch.
#[derive(Debug, Default)]
struct ClientLog {
    ops: Vec<Op>,
    tally: Tally,
}

/// One client's closed loop over its slots until `stop` is set, by
/// either client running out of anchors.
fn client(
    inputs: &Inputs,
    tier: &Coordinator,
    epoch: u64,
    c: u64,
    expected: &mut [u64],
    stop: &AtomicBool,
) -> ClientLog {
    let owned: Vec<u64> = (c * SLOTS / CLIENTS..(c + 1) * SLOTS / CLIENTS).collect();
    let mut rng = Rng::new(inputs.seed, (epoch << 8) | c);
    // Each slot's supply: the held-out anchors in a per-slot order.
    let mut supply: Vec<Vec<AnchorLink>> = owned
        .iter()
        .map(|&s| {
            let mut v = inputs.held_out.clone();
            let mut r = Rng::new(inputs.seed, (epoch << 16) | (s << 8) | 0xff);
            for i in (1..v.len()).rev() {
                v.swap(i, r.below(i + 1));
            }
            v
        })
        .collect();
    let mut log = ClientLog::default();
    while !stop.load(Ordering::Relaxed) {
        let start = Instant::now();
        let kind = Kind::of(rng.unit());
        let mut at = rng.below(owned.len());
        let request = match kind {
            Kind::Update => {
                let Some(k) = (0..owned.len())
                    .map(|i| (at + i) % owned.len())
                    .find(|&k| supply[k].len() >= EDGES_PER_UPDATE)
                else {
                    stop.store(true, Ordering::Relaxed);
                    break;
                };
                at = k;
                let keep = supply[k].len() - EDGES_PER_UPDATE;
                Request::UpdateAnchors {
                    slot: owned[k],
                    edges: supply[k].split_off(keep),
                }
            }
            Kind::Query => Request::Query {
                slot: owned[at],
                pairs: (0..QUERY_PAIRS)
                    .map(|i| {
                        if i % 2 == 0 {
                            inputs.truth[rng.below(inputs.truth.len())]
                        } else {
                            (
                                rng.below(inputs.n_left as usize) as u32,
                                rng.below(inputs.n_right as usize) as u32,
                            )
                        }
                    })
                    .collect(),
            },
            Kind::Align => Request::Align {
                slot: owned[at],
                left: inputs.truth[rng.below(inputs.truth.len())].0,
                k: ALIGN_K,
            },
            Kind::Checkpoint => Request::Checkpoint { slot: owned[at] },
        };
        let slot = owned[at];
        let want = &mut expected[slot as usize];
        let t = Instant::now();
        let reply = match request.clone() {
            Request::UpdateAnchors { slot, edges } => {
                tier.update_anchors(slot, edges)
                    .map(|(applied, n_anchors)| Response::Updated {
                        slot,
                        applied,
                        n_anchors,
                    })
            }
            Request::Query { slot, pairs } => tier.query(slot, pairs).map(Response::Scores),
            Request::Align { slot, left, k } => tier.align(slot, left, k).map(Response::Aligned),
            Request::Checkpoint { slot } => tier
                .checkpoint(slot)
                .map(|n_anchors| Response::Checkpointed { n_anchors }),
            _ => unreachable!("the mix has four kinds"),
        };
        let tier_time = t.elapsed();
        let response = match reply {
            Ok(r) => r,
            Err(e) => {
                log.tally
                    .check(false, || format!("slot {slot} {kind:?}: {e}"));
                continue;
            }
        };
        let ok = match &response {
            Response::Updated {
                applied, n_anchors, ..
            } => {
                *want += applied;
                *applied == EDGES_PER_UPDATE as u64 && *n_anchors == *want
            }
            Response::Scores(s) => {
                s.len() == QUERY_PAIRS && s.iter().all(|v| v.is_finite() && *v >= 0.0)
            }
            Response::Aligned(h) => {
                h.len() <= ALIGN_K as usize
                    && h.iter()
                        .all(|(r, v)| *r < inputs.n_right && v.is_finite() && *v > 0.0)
                    && h.windows(2).all(|w| w[0].1 >= w[1].1)
            }
            Response::Checkpointed { n_anchors } => *n_anchors == *want,
            _ => false,
        };
        log.tally.check(ok, || {
            format!("slot {slot} {kind:?}: unexpected reply {response:?}")
        });
        log.ops.push(Op {
            slot,
            request,
            response,
            tier: tier_time,
            wall: start.elapsed(),
        });
    }
    log
}

/// One epoch's results.
#[derive(Debug, Default)]
struct Epoch {
    /// Every served request, per slot in service order.
    ops: Vec<Vec<Op>>,
    load: Duration,
    opens_fresh: Vec<Duration>,
    opens_replay: Vec<Duration>,
    expected: Vec<u64>,
    restarts: u32,
    /// Top-1 F1 of the freshly opened slot 0.
    f1: f64,
}

fn shut_down(tier: Coordinator, tally: &mut Tally) -> u32 {
    let restarts = (0..tier.workers()).map(|w| tier.restarts(w)).sum::<u32>();
    tally.check(restarts == 0, || format!("{restarts} worker restarts"));
    let down = tier.shutdown();
    tally.check(down.is_ok(), || format!("tier shutdown: {down:?}"));
    restarts
}

fn open_all(inputs: &Inputs, tier: &Coordinator, want: &[u64], tally: &mut Tally) -> Vec<Duration> {
    (0..SLOTS)
        .map(|s| {
            let path = inputs.slot_path(s).display().to_string();
            let t = Instant::now();
            let n = tier.open(s, path);
            let dt = t.elapsed();
            tally.check(matches!(n, Ok(n) if n == want[s as usize]), || {
                format!("open slot {s}: {n:?}, want {} anchors", want[s as usize])
            });
            dt
        })
        .collect()
}

/// Top-1 alignment of every anchored left user on a freshly opened slot
/// 0: the F1 of the served alignment against the true anchors.
fn served_f1(inputs: &Inputs, tier: &Coordinator, tally: &mut Tally) -> f64 {
    let (mut tp, mut predicted) = (0usize, 0usize);
    let probes = &inputs.truth;
    for &(left, right) in probes {
        match tier.align(0, left, 1) {
            Ok(hits) => {
                tally.record(true);
                if let Some(&(r, _)) = hits.first() {
                    predicted += 1;
                    tp += usize::from(r == right);
                }
            }
            Err(e) => {
                tally.check(false, || format!("align probe: {e}"));
            }
        }
    }
    let precision = tp as f64 / predicted.max(1) as f64;
    let recall = tp as f64 / probes.len().max(1) as f64;
    if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    }
}

/// Serves one epoch on `tier` (spawned, nothing open) and consumes it.
fn epoch(inputs: &Inputs, tier: Coordinator, index: u64, tally: &mut Tally) -> Epoch {
    let mut out = Epoch {
        expected: vec![inputs.n_base; SLOTS as usize],
        ..Epoch::default()
    };
    out.opens_fresh = open_all(inputs, &tier, &out.expected, tally);
    out.f1 = served_f1(inputs, &tier, tally);

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let logs: Vec<(ClientLog, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (tier, stop) = (&tier, &stop);
                scope.spawn(move || {
                    let mut mine = vec![inputs.n_base; SLOTS as usize];
                    let log = client(inputs, tier, index, c, &mut mine, stop);
                    (log, mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    out.load = start.elapsed();

    out.ops = vec![Vec::new(); SLOTS as usize];
    let per_client = (SLOTS / CLIENTS) as usize;
    for (c, (log, mine)) in logs.into_iter().enumerate() {
        let owned = c * per_client..(c + 1) * per_client;
        out.expected[owned.clone()].copy_from_slice(&mine[owned]);
        tally.merge(log.tally);
        for op in log.ops {
            out.ops[op.slot as usize].push(op);
        }
    }
    for s in 0..SLOTS {
        let n = tier.checkpoint(s);
        tally.check(matches!(n, Ok(n) if n == out.expected[s as usize]), || {
            format!("final checkpoint of slot {s}: {n:?}")
        });
    }
    out.restarts += shut_down(tier, tally);

    // The replay opens: a respawned tier must reach the served counts.
    let again = spawn_tier(inputs);
    out.opens_replay = open_all(inputs, &again, &out.expected, tally);
    out.restarts += shut_down(again, tally);
    out
}

/// The served scoring of `Request::Query` (as the worker computes it).
fn score_pairs(s: &AlignmentSession<Counted>, pairs: &[(u32, u32)]) -> Vec<f64> {
    let (rows, cols) = s.anchor().shape();
    pairs
        .iter()
        .map(|&(l, r)| {
            let (l, r) = (l as usize, r as usize);
            if l >= rows || r >= cols {
                return 0.0;
            }
            (0..s.catalog().len())
                .map(|i| s.count_of(i).get(l, r))
                .sum()
        })
        .collect()
}

/// The served ranking of `Request::Align` (as the worker computes it).
fn align_top(s: &AlignmentSession<Counted>, left: u32, k: u32) -> Vec<(u32, f64)> {
    let (rows, cols) = s.anchor().shape();
    if left as usize >= rows {
        return Vec::new();
    }
    let mut hits: Vec<(u32, f64)> = (0..cols)
        .filter_map(|r| {
            let score: f64 = (0..s.catalog().len())
                .map(|i| s.count_of(i).get(left as usize, r))
                .sum();
            (score > 0.0).then_some((r as u32, score))
        })
        .collect();
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    hits.truncate(k as usize);
    hits
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Pool service time and codec cost of one replayed slot.
#[derive(Debug, Default)]
struct SlotReplay {
    /// In-process service time per op, in the slot's op order.
    service: Vec<Duration>,
    open_fresh: Duration,
    open_replay: Duration,
    compactions: usize,
    journal_bytes: u64,
}

/// Replays slot `slot`'s request stream into an in-process pool with a
/// journal under the tier's compaction policy, checking every answer
/// against the tier's.
fn replay_slot(inputs: &Inputs, slot: u64, ops: &[Op], want: u64, tally: &mut Tally) -> SlotReplay {
    let path = inputs
        .fresh_bases("replay", std::iter::once(slot))
        .pop()
        .expect("one base copy");
    let mut out = SlotReplay::default();
    let mut pool = SessionPool::new(1);
    pool.set_compaction(inputs.policy);
    let t = Instant::now();
    let id = pool.open(&path).expect("open a fresh base copy");
    out.open_fresh = t.elapsed();
    for op in ops {
        let t = Instant::now();
        let ok = match (&op.request, &op.response) {
            (Request::UpdateAnchors { edges, .. }, Response::Updated { applied, .. }) => {
                let got = pool.update_anchors(id, edges);
                let folded = pool.maybe_compact(id);
                out.service.push(t.elapsed());
                out.compactions += usize::from(matches!(folded, Ok(true)));
                matches!(got, Ok(n) if n as u64 == *applied) && folded.is_ok()
            }
            (Request::Query { pairs, .. }, Response::Scores(scores)) => {
                let got = pool.with_counted(id, |s| score_pairs(s, pairs));
                out.service.push(t.elapsed());
                matches!(got, Ok(g) if same_bits(&g, scores))
            }
            (Request::Align { left, k, .. }, Response::Aligned(hits)) => {
                let got = pool.with_counted(id, |s| align_top(s, *left, *k));
                out.service.push(t.elapsed());
                matches!(got, Ok(g) if g.len() == hits.len()
                    && g.iter().zip(hits).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()))
            }
            (Request::Checkpoint { .. }, Response::Checkpointed { n_anchors }) => {
                let got = pool.checkpoint(id).and_then(|()| pool.n_anchors(id));
                out.service.push(t.elapsed());
                matches!(got, Ok(n) if n as u64 == *n_anchors)
            }
            _ => {
                out.service.push(t.elapsed());
                false
            }
        };
        tally.check(ok, || {
            format!(
                "slot {slot}: in-process pool disagrees with the tier on {:?}",
                op.kind()
            )
        });
    }
    let folds = pool.flush_compactions();
    tally.check(folds.is_empty(), || {
        format!("slot {slot}: background folds failed: {folds:?}")
    });
    let _ = pool.checkpoint(id);
    out.journal_bytes = pool
        .journal_stats(id)
        .ok()
        .flatten()
        .map_or(0, |(_, bytes, _)| bytes);
    drop(pool);
    let mut pool = SessionPool::new(1);
    let t = Instant::now();
    let reopened = pool.open(&path);
    out.open_replay = t.elapsed();
    let n = reopened.and_then(|id| pool.n_anchors(id));
    tally.check(matches!(n, Ok(n) if n as u64 == want), || {
        format!("slot {slot}: in-process reopen gave {n:?}, the tier served {want}")
    });
    out
}

/// Time of the five codec calls on an op's real frames, and their bytes.
fn codec(seq: u64, request: &Request, response: &Response, tally: &mut Tally) -> (Duration, usize) {
    let t = Instant::now();
    let frame = encode_request(seq, request);
    let req_ok = matches!(decode_frame(&frame), Ok(Some((p, n))) if n == frame.len()
        && matches!(decode_request(p), Ok((s, ref r)) if s == seq && r == request));
    let back = encode_response(seq, response);
    let resp_ok = matches!(decode_frame(&back), Ok(Some((p, n))) if n == back.len()
        && matches!(decode_response(p), Ok((s, ref r)) if s == seq && r == response));
    let dt = t.elapsed();
    tally.check(req_ok && resp_ok, || {
        "codec round trip changed a frame".into()
    });
    (dt, frame.len() + back.len())
}

/// Load figures over epochs. Latencies are pooled; the headline update
/// p50 and request rate are medians of per-epoch figures, so an epoch
/// that meets a disk stall moves them less.
#[derive(Debug, Default)]
struct Load {
    update: Vec<f64>,
    query: Vec<f64>,
    align: Vec<f64>,
    checkpoint: Vec<f64>,
    open: Vec<f64>,
    ops: usize,
    epoch_update_p50: Vec<f64>,
    epoch_rate: Vec<f64>,
}

impl Load {
    fn add(&mut self, e: &Epoch) {
        let (ops, updates) = (self.ops, self.update.len());
        for op in e.ops.iter().flatten() {
            let v = ms(op.tier);
            match op.kind() {
                Kind::Update => self.update.push(v),
                Kind::Query => self.query.push(v),
                Kind::Align => self.align.push(v),
                Kind::Checkpoint => self.checkpoint.push(v),
            }
            self.ops += 1;
        }
        self.open
            .extend(e.opens_fresh.iter().chain(&e.opens_replay).map(|d| ms(*d)));
        if let Some(p50) = median(&self.update[updates..]) {
            self.epoch_update_p50.push(p50);
        }
        self.epoch_rate
            .push((self.ops - ops) as f64 / e.load.as_secs_f64());
    }

    fn update_p50(&self) -> f64 {
        median(&self.epoch_update_p50).unwrap_or(f64::NAN)
    }

    fn ops_per_s(&self) -> f64 {
        median(&self.epoch_rate).unwrap_or(f64::NAN)
    }
}

/// Serves whole epochs until `budget` of load has been served, and at
/// least `min_epochs`; `after` sees each epoch once it is done.
///
/// Epoch `i` serves world `i`: the first comes from setup, each later
/// one is set up between epochs, outside the timing.
fn serve_epochs(
    opts: &Opts,
    first: (Inputs, Coordinator),
    tally: &mut Tally,
    mut after: impl FnMut(u64, &Inputs, &Epoch, &mut Tally),
    min_epochs: u64,
) -> u32 {
    let mut next = Some(first);
    let mut served = Duration::ZERO;
    let mut restarts = 0;
    let mut i = 0u64;
    while i < min_epochs || served < opts.budget() {
        let (inputs, tier) = next.take().unwrap_or_else(|| setup(opts, i));
        let e = epoch(&inputs, tier, i, tally);
        served += e.load;
        restarts += e.restarts;
        after(i, &inputs, &e, tally);
        i += 1;
    }
    restarts
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let (first, setup_s) = repeat_setup(SETUP_REPEATS, || setup(opts, 0));
    let dir = first.0.dir.clone();
    let outcome = if opts.trace {
        traced(opts, first)
    } else {
        untraced(opts, first, setup_s)
    };
    std::fs::remove_dir_all(&dir).ok();
    if let Some(parent) = dir.parent() {
        // Only removes the shared parent when no other run uses it.
        std::fs::remove_dir(parent).ok();
    }
    outcome
}

fn untraced(opts: &Opts, first: (Inputs, Coordinator), setup_s: f64) -> Outcome {
    let mut tally = Tally::default();
    let mut load = Load::default();
    let mut f1s = Vec::new();
    serve_epochs(
        opts,
        first,
        &mut tally,
        |i, inputs, e, tally| {
            load.add(e);
            f1s.push(e.f1);
            // One slot per epoch is replayed in process.
            let s = (inputs.seed.wrapping_add(i) % SLOTS) as usize;
            replay_slot(inputs, s as u64, &e.ops[s], e.expected[s], tally);
        },
        1,
    );
    let f1 = mean(&f1s);
    tally.check(f1 > 0.0, || {
        "the served alignment found no true anchor".into()
    });
    let update_p50 = load.update_p50();
    let mut detail = vec![
        Metric::new("update_p50_ms", update_p50, "ms"),
        Metric::new(
            "query_p50_ms",
            median(&load.query).unwrap_or(f64::NAN),
            "ms",
        ),
        Metric::new("open_p50_ms", median(&load.open).unwrap_or(f64::NAN), "ms"),
        Metric::new("serve_ops_per_s", load.ops_per_s(), "1/s"),
        Metric::new("f1", f1, "score"),
        Metric::new("requests", load.ops as f64, "count"),
        Metric::new("epochs", load.epoch_rate.len() as f64, "count"),
        Metric::new("opens", load.open.len() as f64, "count"),
    ];
    for (name, xs) in [
        ("update_p90_ms", &load.update),
        ("query_p90_ms", &load.query),
    ] {
        match p90(xs) {
            Ok(v) => detail.push(Metric::new(name, v, "ms")),
            Err(e) => eprintln!("{name} not reported: {e}"),
        }
    }
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("op_p50_ms", update_p50, "ms"),
        Metric::new("ops_per_s", load.ops_per_s(), "1/s"),
        Metric::new("f1", f1, "score"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ];
    Outcome {
        tally,
        metrics: complete(END_TO_END, &metrics),
        detail,
    }
}

/// Per-kind sums over the fully replayed epochs.
#[derive(Debug, Default)]
struct KindCost {
    n: usize,
    tier: Duration,
    service: Duration,
    codec: Duration,
}

impl KindCost {
    fn add(&mut self, tier: Duration, service: Duration, codec: Duration) {
        self.n += 1;
        self.tier += tier;
        self.service += service;
        self.codec += codec;
    }

    fn per(&self, d: Duration) -> f64 {
        ms(d) / self.n.max(1) as f64
    }

    fn transport_ms(&self) -> f64 {
        self.per(self.tier) - self.per(self.service) - self.per(self.codec)
    }
}

fn traced(opts: &Opts, first: (Inputs, Coordinator)) -> Outcome {
    let mut tally = Tally::default();
    let (mut plain, mut traced) = (Load::default(), Load::default());
    let mut kinds: [KindCost; 5] = Default::default(); // the four mix kinds, then opens
    let (mut frame_bytes, mut n_frames, mut codec_all) = (0usize, 0usize, Duration::ZERO);
    let (mut compactions, mut journal_bytes, mut replayed) = (0usize, Vec::new(), 0usize);
    let mut count_ms = Vec::new();
    let mut unattributed = Vec::new();
    let mut appends = Vec::new();
    let scratch = first
        .0
        .fresh_bases("scratch", std::iter::once(0))
        .pop()
        .expect("one base copy");
    let mut journal = Journal::create(&scratch, &first.0.base_bytes).expect("scratch journal");
    let (mut f1_plain, mut f1_traced) = (Vec::new(), Vec::new());
    let restarts = serve_epochs(
        opts,
        first,
        &mut tally,
        |i, inputs, e, tally| {
            // Odd epochs are replayed in full; even ones as untraced runs
            // replay them, so the two halves give the tracing overhead.
            count_ms.push(ms(inputs.count_time));
            if i % 2 == 0 {
                plain.add(e);
                f1_plain.push(e.f1);
                let s = (inputs.seed.wrapping_add(i) % SLOTS) as usize;
                replay_slot(inputs, s as u64, &e.ops[s], e.expected[s], tally);
                return;
            }
            traced.add(e);
            f1_traced.push(e.f1);
            for s in 0..SLOTS as usize {
                let r = replay_slot(inputs, s as u64, &e.ops[s], e.expected[s], tally);
                compactions += r.compactions;
                journal_bytes.push(r.journal_bytes as f64);
                replayed += 1;
                for (k, (op, service)) in e.ops[s].iter().zip(&r.service).enumerate() {
                    let (c, bytes) = codec(k as u64 + 1, &op.request, &op.response, tally);
                    codec_all += c;
                    frame_bytes += bytes;
                    n_frames += 1;
                    kinds[op.kind() as usize].add(op.tier, *service, c);
                    unattributed.push(ms(op.wall.saturating_sub(op.tier)));
                    if let Request::UpdateAnchors { edges, .. } = &op.request {
                        let t = Instant::now();
                        let ok = journal.append(edges);
                        appends.push(ms(t.elapsed()));
                        tally.check(ok.is_ok(), || format!("scratch journal append: {ok:?}"));
                    }
                }
                let open = Request::Open {
                    slot: s as u64,
                    path: inputs.slot_path(s as u64).display().to_string(),
                };
                for (tier_open, pool_open, n) in [
                    (e.opens_fresh[s], r.open_fresh, inputs.n_base),
                    (e.opens_replay[s], r.open_replay, e.expected[s]),
                ] {
                    let reply = Response::Opened {
                        slot: s as u64,
                        n_anchors: n,
                    };
                    let (c, _) = codec(0, &open, &reply, tally);
                    kinds[4].add(tier_open, pool_open, c);
                }
            }
        },
        2,
    );
    drop(journal);

    let [update, query, align, checkpoint, open] = &kinds;
    let mix_n = (update.n + query.n + align.n + checkpoint.n).max(1) as f64;
    let mix =
        |f: fn(&KindCost) -> Duration| ms(f(update) + f(query) + f(align) + f(checkpoint)) / mix_n;
    let tier_ms = mix(|k| k.tier);
    let p50_or = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let layer = vec![
        Metric::new("session.count_ms", mean(&count_ms), "ms"),
        Metric::new("session.pool_update_ms", update.per(update.service), "ms"),
        Metric::new("session.pool_query_ms", query.per(query.service), "ms"),
        Metric::new("session.pool_align_ms", align.per(align.service), "ms"),
        Metric::new("session.pool_open_ms", open.per(open.service), "ms"),
        Metric::new(
            "session.checkpoint_ms",
            checkpoint.per(checkpoint.service),
            "ms",
        ),
        Metric::new("session.journal_append_ms", mean(&appends), "ms"),
        Metric::new("session.journal_bytes", mean(&journal_bytes), "bytes"),
        Metric::new("session.compactions", compactions as f64, "count"),
        Metric::new(
            "serve.codec_us",
            ms(codec_all) * 1e3 / n_frames.max(1) as f64,
            "us",
        ),
        Metric::new(
            "serve.frame_bytes",
            frame_bytes as f64 / n_frames.max(1) as f64,
            "bytes",
        ),
        Metric::new(
            "serve.transport_ms",
            tier_ms - mix(|k| k.service) - mix(|k| k.codec),
            "ms",
        ),
        Metric::new("serve.transport_update_ms", update.transport_ms(), "ms"),
        Metric::new("serve.transport_query_ms", query.transport_ms(), "ms"),
        Metric::new("serve.transport_align_ms", align.transport_ms(), "ms"),
        Metric::new(
            "serve.transport_checkpoint_ms",
            checkpoint.transport_ms(),
            "ms",
        ),
        Metric::new("serve.transport_open_ms", open.transport_ms(), "ms"),
        Metric::new("serve.restarts", restarts as f64, "count"),
        // Service, codec and transport together make up the round trip.
        Metric::new("serve.layers_ms", tier_ms, "ms"),
        Metric::new("serve.unattributed_ms", mean(&unattributed), "ms"),
        Metric::new(
            "overhead.op_p50_ms",
            traced.update_p50() - plain.update_p50(),
            "ms",
        ),
        Metric::new(
            "overhead.ops_per_s",
            traced.ops_per_s() - plain.ops_per_s(),
            "1/s",
        ),
        Metric::new("overhead.f1", mean(&f1_traced) - mean(&f1_plain), "score"),
    ];
    Outcome {
        tally,
        metrics: complete(PER_LAYER, &layer),
        detail: vec![
            Metric::new("replayed_slots", replayed as f64, "count"),
            Metric::new("traced_requests", traced.ops as f64, "count"),
            Metric::new("untraced_requests", plain.ops as f64, "count"),
            Metric::new(
                "overhead.query_p50_ms",
                p50_or(&traced.query) - p50_or(&plain.query),
                "ms",
            ),
            Metric::new(
                "overhead.open_p50_ms",
                p50_or(&traced.open) - p50_or(&plain.open),
                "ms",
            ),
        ],
    }
}
