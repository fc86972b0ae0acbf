//! The meta diagram count engine.
//!
//! Computes, for any [`Diagram`], the **instance count matrix**
//! `C ∈ N^{|U⁽¹⁾| × |U⁽²⁾|}` where `C[i][j] = |P_Ψ(u⁽¹⁾ᵢ, u⁽²⁾ⱼ)|` — the
//! number of diagram instances connecting the user pair. The algebra:
//!
//! * **meta paths** are SpGEMM chains of typed adjacency matrices
//!   (PathSim-style counting);
//! * **social middle-stackings** Ψ(Pi×Pj) contract over the shared anchored
//!   pair: `(Lᵢ ⊙ Lⱼ) · A · (Rᵢ ⊙ Rⱼ)` with `L/R` the per-network user×user
//!   step matrices;
//! * **attribute middle-stackings** Ψ(Pa×Pb) contract over the shared post
//!   pair: `W¹ · (S_a ⊙ S_b) · W²ᵀ` with `S_x` the post×post shared-attribute
//!   counts. Two execution strategies are provided:
//!   [`AttrCountStrategy::Materialize`] computes the post×post products
//!   directly, [`AttrCountStrategy::CompositeKey`] joins posts on composite
//!   `(attr_a, attr_b)` keys and never materializes a post×post matrix —
//!   both are exactly equal (property-tested), the latter asymptotically
//!   cheaper on check-in-shaped data;
//! * **endpoint stackings** multiply branch counts pointwise (Lemma 1's
//!   sound direction).
//!
//! A memoizing cache keyed by the diagram realizes the paper's Lemma-2
//! reuse: Ψf²,a² = Ψf² ⊙ Ψa² costs one Hadamard once its factors are cached.
//! The cache can be disabled for the ablation benchmark.

use crate::diagram::{AttrPathId, Diagram, SocialPathId};
use hetnet::{Direction, HetNet, LinkKind, NodeKind};
use parking_lot::Mutex;
use sparsela::{spgemm_par, CsrMatrix, Threading};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Strategy for counting attribute middle-stackings (Ψa²).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrCountStrategy {
    /// Compute the post×post shared-attribute matrices and Hadamard them.
    /// General but allocates `O(posts²)`-pattern intermediates on dense
    /// attribute spaces.
    Materialize,
    /// Join posts on composite `(attr_a, attr_b)` keys. Exactly equivalent
    /// (the key space is the Cartesian product of the per-post attribute
    /// sets) and never forms a post×post matrix.
    CompositeKey,
}

/// Errors detected when wiring an engine to a pair of networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The anchor matrix shape does not match the user populations.
    AnchorShape {
        /// Shape received.
        got: (usize, usize),
        /// Shape required.
        want: (usize, usize),
    },
    /// The two networks disagree on a shared attribute universe size.
    AttributeUniverseMismatch {
        /// The mismatching attribute kind.
        kind: NodeKind,
        /// Left population.
        left: usize,
        /// Right population.
        right: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::AnchorShape { got, want } => write!(
                f,
                "anchor matrix is {}x{}, networks require {}x{}",
                got.0, got.1, want.0, want.1
            ),
            EngineError::AttributeUniverseMismatch { kind, left, right } => write!(
                f,
                "shared attribute universe mismatch for {kind}: left {left}, right {right}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Counters exposed for the covering-set-reuse ablation.
///
/// Counters accumulate over the engine's whole lifetime. An engine's cache
/// is never cleared in place — callers that need a fresh cache lifetime
/// build a fresh engine (or let `session::AlignmentSession` rebuild or
/// delta-update its stage artifacts), so any two snapshots from the same
/// engine always describe the same cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Diagram-level cache hits.
    pub cache_hits: usize,
    /// Diagram-level cache misses (fresh computations).
    pub cache_misses: usize,
    /// Number of sparse matrix products executed.
    pub spgemm_calls: usize,
    /// Number of Hadamard products executed.
    pub hadamard_calls: usize,
}

/// The count engine bound to one aligned pair and one (training) anchor set.
///
/// The engine is `Sync`: [`CountEngine::count`] takes `&self` and may be
/// called from any number of scoped worker threads concurrently — the
/// Lemma-2 memoization cache is shared across all of them behind a mutex.
/// An optional [`Threading`] knob additionally parallelizes the *individual*
/// SpGEMM products; leave it at `Serial` when callers already fan out over
/// diagrams (the two levels of parallelism would otherwise oversubscribe).
pub struct CountEngine<'a> {
    left: &'a HetNet,
    right: &'a HetNet,
    anchor: CsrMatrix,
    strategy: AttrCountStrategy,
    caching: bool,
    threading: Threading,
    cache: Mutex<HashMap<Diagram, Arc<CsrMatrix>>>,
    /// Per-diagram in-flight gates: concurrent callers of the same uncached
    /// diagram serialize on its gate instead of duplicating the product
    /// chain.
    pending: Mutex<HashMap<Diagram, Arc<Mutex<()>>>>,
    stats: Mutex<EngineStats>,
}

impl<'a> fmt::Debug for CountEngine<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CountEngine")
            .field("left", &self.left.name())
            .field("right", &self.right.name())
            .field("anchors", &self.anchor.nnz())
            .field("strategy", &self.strategy)
            .field("caching", &self.caching)
            .finish()
    }
}

impl<'a> CountEngine<'a> {
    /// Wires an engine to two networks and a **training** anchor matrix
    /// (`|U⁽¹⁾| × |U⁽²⁾|`, binary). Passing ground-truth anchors here would
    /// leak labels — callers build the matrix from the training fold only.
    pub fn new(
        left: &'a HetNet,
        right: &'a HetNet,
        anchor: CsrMatrix,
    ) -> Result<Self, EngineError> {
        Self::with_options(left, right, anchor, AttrCountStrategy::CompositeKey, true)
    }

    /// [`CountEngine::new`] with explicit strategy and cache toggles
    /// (used by the ablation benchmarks).
    pub fn with_options(
        left: &'a HetNet,
        right: &'a HetNet,
        anchor: CsrMatrix,
        strategy: AttrCountStrategy,
        caching: bool,
    ) -> Result<Self, EngineError> {
        let want = (left.n_users(), right.n_users());
        if anchor.shape() != want {
            return Err(EngineError::AnchorShape {
                got: anchor.shape(),
                want,
            });
        }
        for kind in [NodeKind::Word, NodeKind::Location, NodeKind::Timestamp] {
            if left.count(kind) != right.count(kind) {
                return Err(EngineError::AttributeUniverseMismatch {
                    kind,
                    left: left.count(kind),
                    right: right.count(kind),
                });
            }
        }
        Ok(CountEngine {
            left,
            right,
            anchor,
            strategy,
            caching,
            threading: Threading::Serial,
            cache: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            stats: Mutex::new(EngineStats::default()),
        })
    }

    /// Sets the [`Threading`] knob for the engine's internal SpGEMM
    /// products (builder style).
    #[must_use]
    pub fn with_threading(mut self, threading: Threading) -> Self {
        self.threading = threading;
        self
    }

    /// The engine's SpGEMM threading knob.
    pub fn threading(&self) -> Threading {
        self.threading
    }

    /// The training anchor matrix the engine was wired with.
    pub fn anchor(&self) -> &CsrMatrix {
        &self.anchor
    }

    /// The anchor-chain factorization of `diagram`, when it has one.
    ///
    /// Social paths and social middle-stackings count as `C = L·A·R` where
    /// `A` is the anchor matrix and `L`/`R` are anchor-independent
    /// user×user step matrices; this returns `Some((L, R))` for them.
    /// Attribute paths and attribute middle-stackings never touch `A`
    /// (their counts are invariant under anchor updates) and endpoint
    /// stackings factor through their branches, so both return `None`.
    ///
    /// The factors are what makes incremental anchor updates low-rank:
    /// `C(A + ΔA) = C(A) + L·ΔA·R` exactly (see
    /// [`sparsela::spgemm_lowrank`] and [`crate::delta`]).
    pub fn anchor_chain_factors(&self, diagram: &Diagram) -> Option<(CsrMatrix, CsrMatrix)> {
        match diagram {
            Diagram::Social(p) => {
                let (l, r) = self.social_steps(*p);
                Some((l.clone(), r.clone()))
            }
            Diagram::SocialPair(i, j) => {
                if i == j {
                    return self.anchor_chain_factors(&Diagram::Social(*i));
                }
                let (li, ri) = self.social_steps(*i);
                let (lj, rj) = self.social_steps(*j);
                let l = li.hadamard(lj).expect("step matrices share shapes");
                let r = ri.hadamard(rj).expect("step matrices share shapes");
                Some((l, r))
            }
            Diagram::Attr(_) | Diagram::AttrPair(_, _) | Diagram::Stack(_) => None,
        }
    }

    /// Cumulative statistics (ablation instrumentation).
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock()
    }

    fn mul(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        self.stats.lock().spgemm_calls += 1;
        spgemm_par(a, b, self.threading).expect("engine-internal shapes are consistent")
    }

    fn had(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        self.stats.lock().hadamard_calls += 1;
        a.hadamard(b)
            .expect("engine-internal shapes are consistent")
    }

    /// The instance count matrix of `diagram` (`|U⁽¹⁾| × |U⁽²⁾|`).
    ///
    /// Safe to call from any number of threads; concurrent callers of the
    /// same uncached diagram serialize on a per-diagram gate, so the
    /// expensive product chain runs exactly once per distinct diagram.
    pub fn count(&self, diagram: &Diagram) -> Arc<CsrMatrix> {
        if !self.caching {
            self.stats.lock().cache_misses += 1;
            return Arc::new(self.compute(diagram));
        }
        if let Some(hit) = self.cache.lock().get(diagram) {
            self.stats.lock().cache_hits += 1;
            return Arc::clone(hit);
        }
        let gate = Arc::clone(
            self.pending
                .lock()
                .entry(diagram.clone())
                .or_insert_with(|| Arc::new(Mutex::new(()))),
        );
        let guard = gate.lock();
        // Double-check under the gate: a concurrent worker may have finished
        // this diagram while we waited.
        if let Some(hit) = self.cache.lock().get(diagram) {
            self.stats.lock().cache_hits += 1;
            return Arc::clone(hit);
        }
        self.stats.lock().cache_misses += 1;
        let computed = Arc::new(self.compute(diagram));
        self.cache
            .lock()
            .insert(diagram.clone(), Arc::clone(&computed));
        drop(guard);
        self.pending.lock().remove(diagram);
        computed
    }

    fn compute(&self, diagram: &Diagram) -> CsrMatrix {
        match diagram {
            Diagram::Social(p) => self.social_path(*p),
            Diagram::Attr(a) => self.attr_path(*a),
            Diagram::SocialPair(i, j) => self.social_pair(*i, *j),
            Diagram::AttrPair(a, b) => self.attr_pair(*a, *b),
            Diagram::Stack(parts) => {
                let mut parts_iter = parts.iter();
                let first = parts_iter
                    .next()
                    .expect("Stack diagrams have at least one branch");
                let mut acc = (*self.count(first)).clone();
                for p in parts_iter {
                    let c = self.count(p);
                    acc = self.had(&acc, &c);
                }
                acc
            }
        }
    }

    /// Per-network step matrices of a social path: `L[u1, x1]` and
    /// `R[x2, u2]` such that `count = L · A · R`.
    fn social_steps(&self, p: SocialPathId) -> (&CsrMatrix, &CsrMatrix) {
        // Left step: does u1 -follow-> x1 (Forward) or x1 -follow-> u1
        // (Reverse, i.e. transposed adjacency)?
        let ldir = match p {
            SocialPathId::P1 | SocialPathId::P3 => Direction::Forward,
            SocialPathId::P2 | SocialPathId::P4 => Direction::Reverse,
        };
        // Right step as a matrix *from the anchored user x2 to the sink u2*:
        // P1/P4 traverse a follow edge u2 -> x2 (so x2→u2 needs the
        // transpose); P2/P3 traverse x2 -> u2 (plain adjacency).
        let rdir = match p {
            SocialPathId::P1 | SocialPathId::P4 => Direction::Reverse,
            SocialPathId::P2 | SocialPathId::P3 => Direction::Forward,
        };
        (
            self.left.adjacency(LinkKind::Follow, ldir),
            self.right.adjacency(LinkKind::Follow, rdir),
        )
    }

    fn social_path(&self, p: SocialPathId) -> CsrMatrix {
        let (l, r) = self.social_steps(p);
        let la = self.mul(l, &self.anchor);
        self.mul(&la, r)
    }

    fn social_pair(&self, i: SocialPathId, j: SocialPathId) -> CsrMatrix {
        if i == j {
            // Degenerate stacking: Pi × Pi = Pi on binary adjacency.
            return self.social_path(i);
        }
        let (li, ri) = self.social_steps(i);
        let (lj, rj) = self.social_steps(j);
        let l = self.had(li, lj);
        let r = self.had(ri, rj);
        let la = self.mul(&l, &self.anchor);
        self.mul(&la, &r)
    }

    fn attr_link(&self, a: AttrPathId) -> LinkKind {
        match a {
            AttrPathId::Timestamp => LinkKind::At,
            AttrPathId::Location => LinkKind::Checkin,
            AttrPathId::Word => LinkKind::HasWord,
        }
    }

    fn attr_path(&self, a: AttrPathId) -> CsrMatrix {
        let kind = self.attr_link(a);
        let w1 = self.left.adjacency(LinkKind::Write, Direction::Forward);
        let w2 = self.right.adjacency(LinkKind::Write, Direction::Forward);
        let c1 = self.left.adjacency(kind, Direction::Forward);
        let c2 = self.right.adjacency(kind, Direction::Forward);
        // (W¹·C¹) · (W²·C²)ᵀ — user×attr intermediates, never post×post.
        let ul = self.mul(w1, c1);
        let ur = self.mul(w2, c2);
        self.mul(&ul, &ur.transpose())
    }

    fn attr_pair(&self, a: AttrPathId, b: AttrPathId) -> CsrMatrix {
        if a == b {
            return self.attr_path(a);
        }
        match self.strategy {
            AttrCountStrategy::Materialize => self.attr_pair_materialize(a, b),
            AttrCountStrategy::CompositeKey => self.attr_pair_composite(a, b),
        }
    }

    fn attr_pair_materialize(&self, a: AttrPathId, b: AttrPathId) -> CsrMatrix {
        let (ka, kb) = (self.attr_link(a), self.attr_link(b));
        let w1 = self.left.adjacency(LinkKind::Write, Direction::Forward);
        let sa = {
            let c1 = self.left.adjacency(ka, Direction::Forward);
            let c2t = self.right.adjacency(ka, Direction::Reverse);
            self.mul(c1, c2t)
        };
        let sb = {
            let c1 = self.left.adjacency(kb, Direction::Forward);
            let c2t = self.right.adjacency(kb, Direction::Reverse);
            self.mul(c1, c2t)
        };
        let joint = self.had(&sa, &sb);
        let wj = self.mul(w1, &joint);
        let w2t = self.right.adjacency(LinkKind::Write, Direction::Reverse);
        self.mul(&wj, w2t)
    }

    fn attr_pair_composite(&self, a: AttrPathId, b: AttrPathId) -> CsrMatrix {
        let (ka, kb) = (self.attr_link(a), self.attr_link(b));
        // Key dictionary over (attr_a, attr_b) pairs present on left posts.
        let left_a = self.left.adjacency(ka, Direction::Forward);
        let left_b = self.left.adjacency(kb, Direction::Forward);
        let right_a = self.right.adjacency(ka, Direction::Forward);
        let right_b = self.right.adjacency(kb, Direction::Forward);

        let mut key_ids: HashMap<(usize, usize), usize> = HashMap::new();
        // First pass: enumerate left-post keys, assigning ids.
        let mut c1_triplets: Vec<(usize, usize)> = Vec::new();
        for p in 0..self.left.n_posts() {
            for (ia, _) in left_a.row(p) {
                for (ib, _) in left_b.row(p) {
                    let next = key_ids.len();
                    let id = *key_ids.entry((ia, ib)).or_insert(next);
                    c1_triplets.push((p, id));
                }
            }
        }
        let n_keys = key_ids.len();
        let mut c1 =
            sparsela::CooMatrix::with_capacity(self.left.n_posts(), n_keys, c1_triplets.len());
        for (p, k) in c1_triplets {
            c1.push(p, k, 1.0).expect("key ids are dense");
        }
        // Second pass: right posts contribute only keys seen on the left —
        // keys exclusive to one side cannot participate in any instance.
        let mut c2 = sparsela::CooMatrix::new(self.right.n_posts(), n_keys);
        for p in 0..self.right.n_posts() {
            for (ia, _) in right_a.row(p) {
                for (ib, _) in right_b.row(p) {
                    if let Some(&id) = key_ids.get(&(ia, ib)) {
                        c2.push(p, id, 1.0).expect("key id in range");
                    }
                }
            }
        }
        let c1 = c1.to_csr();
        let c2 = c2.to_csr();
        let w1 = self.left.adjacency(LinkKind::Write, Direction::Forward);
        let w2 = self.right.adjacency(LinkKind::Write, Direction::Forward);
        let ul = self.mul(w1, &c1);
        let ur = self.mul(w2, &c2);
        self.mul(&ul, &ur.transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram::Diagram;
    use hetnet::{AnchorLink, HetNetBuilder, LocationId, TimestampId, UserId};

    /// Hand-built 3+3-user world where every count is checkable by hand.
    ///
    /// Left: u0 -> u1, u2 -> u1; u0 writes p0 at (loc0, ts0).
    /// Right: v0 -> v1, v2 -> v1; v0 writes q0 at (loc0, ts0),
    ///        v2 writes q1 at (loc0, ts1).
    /// Training anchor: (u1, v1).
    fn tiny_world() -> (hetnet::HetNet, hetnet::HetNet, CsrMatrix) {
        let mut l = HetNetBuilder::new("L", 3, 2, 2, 0);
        l.add_follow(UserId(0), UserId(1)).unwrap();
        l.add_follow(UserId(2), UserId(1)).unwrap();
        let p0 = l.add_post(UserId(0)).unwrap();
        l.add_checkin(p0, LocationId(0)).unwrap();
        l.add_at(p0, TimestampId(0)).unwrap();
        let left = l.build();

        let mut r = HetNetBuilder::new("R", 3, 2, 2, 0);
        r.add_follow(UserId(0), UserId(1)).unwrap();
        r.add_follow(UserId(2), UserId(1)).unwrap();
        let q0 = r.add_post(UserId(0)).unwrap();
        r.add_checkin(q0, LocationId(0)).unwrap();
        r.add_at(q0, TimestampId(0)).unwrap();
        let q1 = r.add_post(UserId(2)).unwrap();
        r.add_checkin(q1, LocationId(0)).unwrap();
        r.add_at(q1, TimestampId(1)).unwrap();
        let right = r.build();

        let anchor =
            hetnet::aligned::anchor_matrix(3, 3, &[AnchorLink::new(UserId(1), UserId(1))]).unwrap();
        (left, right, anchor)
    }

    #[test]
    fn p1_counts_common_anchored_followees() {
        let (l, r, a) = tiny_world();
        let e = CountEngine::new(&l, &r, a).unwrap();
        let c = e.count(&Diagram::Social(SocialPathId::P1));
        // u0 follows u1 ~ v1; v0 and v2 follow v1 → pairs (0,0), (0,2) and
        // likewise for u2.
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 2), 1.0);
        assert_eq!(c.get(2, 0), 1.0);
        assert_eq!(c.get(2, 2), 1.0);
        assert_eq!(c.get(0, 1), 0.0);
        assert_eq!(c.get(1, 1), 0.0);
    }

    #[test]
    fn p2_is_empty_without_anchored_followers() {
        let (l, r, a) = tiny_world();
        let e = CountEngine::new(&l, &r, a).unwrap();
        // The anchored user u1/v1 follows nobody, so "common anchored
        // follower" has no instances anywhere.
        let c = e.count(&Diagram::Social(SocialPathId::P2));
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn p5_p6_count_shared_attributes() {
        let (l, r, a) = tiny_world();
        let e = CountEngine::new(&l, &r, a).unwrap();
        let ts = e.count(&Diagram::Attr(AttrPathId::Timestamp));
        // p0(ts0) matches q0(ts0) only → authors (u0, v0).
        assert_eq!(ts.get(0, 0), 1.0);
        assert_eq!(ts.get(0, 2), 0.0);
        let loc = e.count(&Diagram::Attr(AttrPathId::Location));
        // p0(loc0) matches q0 and q1 → (u0,v0) and (u0,v2).
        assert_eq!(loc.get(0, 0), 1.0);
        assert_eq!(loc.get(0, 2), 1.0);
    }

    #[test]
    fn psi2_requires_joint_place_and_time() {
        let (l, r, a) = tiny_world();
        let e = CountEngine::new(&l, &r, a).unwrap();
        let c = e.count(&Diagram::psi2());
        // Only q0 shares BOTH the location and the timestamp with p0. The
        // (u0, v2) pair — same place, different moment — is the paper's
        // "dislocated" false signal and must vanish here.
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 2), 0.0);
    }

    #[test]
    fn both_attr_strategies_agree_on_tiny_world() {
        let (l, r, a) = tiny_world();
        let mat =
            CountEngine::with_options(&l, &r, a.clone(), AttrCountStrategy::Materialize, true)
                .unwrap();
        let key =
            CountEngine::with_options(&l, &r, a, AttrCountStrategy::CompositeKey, true).unwrap();
        let cm = mat.count(&Diagram::psi2());
        let ck = key.count(&Diagram::psi2());
        assert_eq!(&*cm, &*ck);
    }

    #[test]
    fn stack_multiplies_pointwise() {
        let (l, r, a) = tiny_world();
        let e = CountEngine::new(&l, &r, a).unwrap();
        let p1 = e.count(&Diagram::Social(SocialPathId::P1));
        let p5 = e.count(&Diagram::Attr(AttrPathId::Timestamp));
        let stack = e.count(&Diagram::Stack(vec![
            Diagram::Social(SocialPathId::P1),
            Diagram::Attr(AttrPathId::Timestamp),
        ]));
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(stack.get(i, j), p1.get(i, j) * p5.get(i, j));
            }
        }
    }

    #[test]
    fn cache_hits_on_repeated_counts() {
        let (l, r, a) = tiny_world();
        let e = CountEngine::new(&l, &r, a).unwrap();
        let _ = e.count(&Diagram::psi2());
        let before = e.stats();
        let _ = e.count(&Diagram::psi2());
        let after = e.stats();
        assert_eq!(after.cache_hits, before.cache_hits + 1);
        assert_eq!(after.cache_misses, before.cache_misses);
    }

    #[test]
    fn disabling_cache_recomputes() {
        let (l, r, a) = tiny_world();
        let e =
            CountEngine::with_options(&l, &r, a, AttrCountStrategy::CompositeKey, false).unwrap();
        let _ = e.count(&Diagram::psi2());
        let first = e.stats().spgemm_calls;
        let _ = e.count(&Diagram::psi2());
        assert_eq!(e.stats().spgemm_calls, 2 * first);
    }

    #[test]
    fn stack_reuses_cached_factors() {
        let (l, r, a) = tiny_world();
        let e = CountEngine::new(&l, &r, a).unwrap();
        let _ = e.count(&Diagram::psi2());
        let calls_after_psi2 = e.stats().spgemm_calls;
        // Ψ3 = P1 × Ψ2: must only pay for P1 (2 products) plus a Hadamard.
        let _ = e.count(&Diagram::psi3());
        let calls_after_psi3 = e.stats().spgemm_calls;
        assert_eq!(calls_after_psi3 - calls_after_psi2, 2);
    }

    #[test]
    fn degenerate_pairs_equal_paths() {
        let (l, r, a) = tiny_world();
        let e = CountEngine::new(&l, &r, a).unwrap();
        let pair = e.count(&Diagram::SocialPair(SocialPathId::P1, SocialPathId::P1));
        let path = e.count(&Diagram::Social(SocialPathId::P1));
        assert_eq!(&*pair, &*path);
        let apair = e.count(&Diagram::AttrPair(
            AttrPathId::Location,
            AttrPathId::Location,
        ));
        let apath = e.count(&Diagram::Attr(AttrPathId::Location));
        assert_eq!(&*apair, &*apath);
    }

    #[test]
    fn constructor_validates_shapes() {
        let (l, r, _) = tiny_world();
        let bad = CsrMatrix::zeros(2, 3);
        assert!(matches!(
            CountEngine::new(&l, &r, bad),
            Err(EngineError::AnchorShape { .. })
        ));
    }

    #[test]
    fn constructor_validates_attribute_universes() {
        let (l, _, _) = tiny_world();
        let other = HetNetBuilder::new("R2", 3, 5, 2, 0).build();
        let anchor = CsrMatrix::zeros(3, 3);
        assert!(matches!(
            CountEngine::new(&l, &other, anchor),
            Err(EngineError::AttributeUniverseMismatch {
                kind: NodeKind::Location,
                ..
            })
        ));
    }

    #[test]
    fn anchor_chain_factors_reproduce_counts() {
        let (l, r, a) = tiny_world();
        let e = CountEngine::new(&l, &r, a.clone()).unwrap();
        // Every social path and pair factors as L·A·R.
        let mut diagrams: Vec<Diagram> =
            SocialPathId::ALL.into_iter().map(Diagram::Social).collect();
        for (ii, &i) in SocialPathId::ALL.iter().enumerate() {
            for &j in &SocialPathId::ALL[ii..] {
                diagrams.push(Diagram::SocialPair(i, j));
            }
        }
        for d in &diagrams {
            let (lf, rf) = e.anchor_chain_factors(d).expect("social diagrams factor");
            let la = sparsela::spgemm(&lf, &a).unwrap();
            let lar = sparsela::spgemm(&la, &rf).unwrap();
            assert_eq!(&lar, &*e.count(d), "factor chain mismatch for {d}");
        }
        // Anchor-free diagrams do not factor through A.
        assert!(e
            .anchor_chain_factors(&Diagram::Attr(AttrPathId::Location))
            .is_none());
        assert!(e.anchor_chain_factors(&Diagram::psi2()).is_none());
        assert!(e.anchor_chain_factors(&Diagram::psi3()).is_none());
    }

    #[test]
    fn concurrent_counting_shares_the_cache_and_matches_serial() {
        let (l, r, a) = tiny_world();
        let serial = CountEngine::new(&l, &r, a.clone()).unwrap();
        let expected_psi2 = serial.count(&Diagram::psi2());
        let expected_psi3 = serial.count(&Diagram::psi3());

        let shared = CountEngine::new(&l, &r, a).unwrap();
        let diagrams = [Diagram::psi2(), Diagram::psi3(), Diagram::psi2()];
        let counts: Vec<Arc<CsrMatrix>> = std::thread::scope(|scope| {
            let handles: Vec<_> = diagrams
                .iter()
                .map(|d| {
                    let shared = &shared;
                    scope.spawn(move || shared.count(d))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("count worker panicked"))
                .collect()
        });
        assert_eq!(&*counts[0], &*expected_psi2);
        assert_eq!(&*counts[1], &*expected_psi3);
        assert_eq!(&*counts[2], &*expected_psi2);
        // The in-flight gates deduplicate concurrent computation: the three
        // requests touch exactly three distinct diagrams (Ψ2, Ψ3 and Ψ3's
        // P1 factor), each computed exactly once wherever it landed first.
        assert_eq!(shared.stats().cache_misses, 3);
        let again = shared.count(&Diagram::psi3());
        assert_eq!(&*again, &*expected_psi3);
    }

    #[test]
    fn threaded_engine_produces_identical_counts() {
        let (l, r, a) = tiny_world();
        let serial = CountEngine::new(&l, &r, a.clone()).unwrap();
        let par = CountEngine::new(&l, &r, a)
            .unwrap()
            .with_threading(Threading::Threads(3));
        assert_eq!(par.threading(), Threading::Threads(3));
        for d in [
            Diagram::Social(SocialPathId::P1),
            Diagram::Attr(AttrPathId::Location),
            Diagram::psi2(),
            Diagram::psi3(),
        ] {
            assert_eq!(&*serial.count(&d), &*par.count(&d), "diagram {d:?}");
        }
    }

    #[test]
    fn error_display() {
        let e = EngineError::AnchorShape {
            got: (1, 2),
            want: (3, 4),
        };
        assert!(e.to_string().contains("1x2"));
        let e = EngineError::AttributeUniverseMismatch {
            kind: NodeKind::Word,
            left: 1,
            right: 2,
        };
        assert!(e.to_string().contains("Word"));
    }
}
