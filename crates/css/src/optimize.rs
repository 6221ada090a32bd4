//! CSS schedule optimization: reorder a context sweep to minimize the
//! modeled broadcast toggles (and therefore dynamic switching energy).
//!
//! The paper's hybrid MV/binary CSS makes a context switch cheap, but *how
//! cheap* depends on which pair of contexts is being switched between: a
//! polarity flip (even ↔ odd context) toggles all four of a block's lines,
//! a same-polarity hop only two, and a block change retires one block's
//! pair while raising another's. A sweep that visits contexts in naive
//! ascending order pays the worst-case polarity flip on every step; a
//! reordered sweep visits same-polarity contexts back-to-back and pays the
//! flip once. Because every scheduled step evaluates its context plane
//! combinationally — independent of when its siblings run — any reordering
//! of a sweep is **output-equivalent**; only the broadcast energy changes.
//!
//! [`CostMatrix`] captures the pairwise transition cost for any CSS family
//! (constructors for the hybrid and binary generators are provided);
//! [`optimize_sweep`] reorders a sweep against it — exhaustively
//! (Held–Karp) when the sweep visits at most [`EXACT_LIMIT`] distinct
//! contexts, greedy nearest-neighbour above that — and never returns an
//! order costlier than the input.
//!
//! **Duplicate context ids collapse.** A sweep visits each context at most
//! once: duplicates in the input are deduplicated (keeping one visit), not
//! rejected — the same decision [`Schedule::active_sweep`] makes. Callers
//! that need a context executed twice schedule two sweeps.
//!
//! ```
//! use mcfpga_css::{optimize_sweep, CostMatrix, Schedule};
//!
//! // A 4-context hybrid fabric: the ascending sweep 0→1→2→3 flips the
//! // S0 polarity at every step (4 toggles each, 12 total); grouping the
//! // even contexts before the odd ones pays the flip only once (2+4+2).
//! let sweep = Schedule::active_sweep(4, &[0, 1, 2, 3])?;
//! let matrix = CostMatrix::hybrid(4)?;
//! let opt = optimize_sweep(&sweep, &matrix, Some(0))?;
//! assert_eq!((opt.naive_cost, opt.optimized_cost), (12, 8));
//!
//! // Output-equivalence is structural: the optimized sweep is a
//! // permutation of the same distinct contexts.
//! let mut visited = opt.schedule.as_slice().to_vec();
//! visited.sort_unstable();
//! assert_eq!(visited, vec![0, 1, 2, 3]);
//! # Ok::<(), mcfpga_css::CssError>(())
//! ```

use crate::{BinaryCss, CssError, HybridCssGen, Schedule};

/// Largest distinct-context count optimized exhaustively (Held–Karp,
/// `O(2^n · n²)`); sweeps visiting more distinct contexts fall back to
/// greedy nearest-neighbour.
pub const EXACT_LIMIT: usize = 8;

/// How a schedule-driven executor orders its context sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptimizeMode {
    /// Ascending context order — the naive active sweep.
    Naive,
    /// Each sweep is reordered by [`optimize_sweep`] to minimize modeled
    /// CSS toggles. Output-equivalent to [`Naive`](OptimizeMode::Naive);
    /// never costs more energy.
    #[default]
    Optimized,
}

/// Pairwise context-transition cost matrix (broadcast-wire toggles).
///
/// Row `a`, column `b` holds the modeled cost of switching the broadcast
/// from context `a` to context `b`. The diagonal is the cost of *staying*
/// (zero for every CSS family this crate models).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostMatrix {
    contexts: usize,
    cost: Vec<usize>,
}

impl CostMatrix {
    /// Builds a matrix by evaluating `f(from, to)` over the full domain.
    pub fn from_fn(
        contexts: usize,
        mut f: impl FnMut(usize, usize) -> usize,
    ) -> Result<Self, CssError> {
        if contexts == 0 {
            return Err(CssError::BadContextCount(0));
        }
        let mut cost = Vec::with_capacity(contexts * contexts);
        for a in 0..contexts {
            for b in 0..contexts {
                cost.push(f(a, b));
            }
        }
        Ok(CostMatrix { contexts, cost })
    }

    /// Toggle costs of the paper's hybrid MV/binary CSS
    /// ([`HybridCssGen::toggles_between`]); `contexts` must be a multiple
    /// of 4 in `4..=64`.
    pub fn hybrid(contexts: usize) -> Result<Self, CssError> {
        let gen = HybridCssGen::new(contexts)?;
        Self::from_fn(contexts, |a, b| {
            gen.toggles_between(a, b)
                .expect("domain enumerated from the generator")
        })
    }

    /// Hamming-distance costs of the conventional binary context word.
    /// The word is sized like the SRAM architecture's broadcast
    /// ([`BinaryCss`] over the next power of two ≥ 2), so the matrix
    /// matches what a binary sequencer charges per switch.
    pub fn binary(contexts: usize) -> Result<Self, CssError> {
        if contexts == 0 {
            return Err(CssError::BadContextCount(0));
        }
        // constructed only to validate the padded domain the costs model
        let _ = BinaryCss::new(contexts.next_power_of_two().max(2))?;
        Self::from_fn(contexts, |a, b| (a ^ b).count_ones() as usize)
    }

    /// Number of contexts in the domain.
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// Transition cost from context `a` to context `b`.
    pub fn cost(&self, a: usize, b: usize) -> Result<usize, CssError> {
        for ctx in [a, b] {
            if ctx >= self.contexts {
                return Err(CssError::ContextOutOfRange {
                    ctx,
                    contexts: self.contexts,
                });
            }
        }
        Ok(self.cost[a * self.contexts + b])
    }

    #[inline]
    fn at(&self, a: usize, b: usize) -> usize {
        self.cost[a * self.contexts + b]
    }

    /// Per-step transition costs of walking `seq`, optionally charging the
    /// entry transition from `start` to `seq[0]` (a `None` start charges
    /// the first step zero — the walk begins *on* `seq[0]`).
    pub fn step_costs(&self, start: Option<usize>, seq: &[usize]) -> Result<Vec<usize>, CssError> {
        self.walk(start, seq)?.collect()
    }

    /// Total transition cost of walking `seq` (sum of
    /// [`step_costs`](Self::step_costs), without collecting them).
    pub fn path_cost(&self, start: Option<usize>, seq: &[usize]) -> Result<usize, CssError> {
        self.walk(start, seq)?.sum()
    }

    /// The checked cost of each step of walking `seq` from `start`, after
    /// checking `start` itself.
    fn walk<'a>(
        &'a self,
        start: Option<usize>,
        seq: &'a [usize],
    ) -> Result<impl Iterator<Item = Result<usize, CssError>> + 'a, CssError> {
        if let Some(s) = start {
            self.cost(s, s)?;
        }
        let mut cur = start;
        Ok(seq.iter().map(move |&ctx| {
            let cost = match cur {
                Some(c) => self.cost(c, ctx),
                None => self.cost(ctx, ctx).map(|_| 0),
            };
            cur = Some(ctx);
            cost
        }))
    }
}

/// One optimized sweep: the reordered schedule and both modeled costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizedSweep {
    /// The reordered sweep — the same distinct contexts as the (deduped)
    /// input, each visited exactly once.
    pub schedule: Schedule,
    /// Modeled toggles of the *input* order (after duplicate collapse).
    pub naive_cost: usize,
    /// Modeled toggles of the returned order. Never exceeds
    /// [`naive_cost`](Self::naive_cost).
    pub optimized_cost: usize,
}

impl OptimizedSweep {
    /// Toggles saved over the input order (`naive_cost − optimized_cost`).
    #[must_use]
    pub fn saved(&self) -> usize {
        self.naive_cost - self.optimized_cost
    }
}

/// Reorders `sweep` to minimize total transition cost under `matrix`,
/// starting from the broadcast's current context `start` (`None` = the
/// first visited context is free, as in a fresh replay).
///
/// Duplicate context ids in `sweep` collapse to a single visit (see the
/// [module docs](self) for why this is the specified behaviour). The
/// search is exact (Held–Karp) when the sweep visits ≤ [`EXACT_LIMIT`]
/// distinct contexts and greedy nearest-neighbour above that; in both
/// regimes the result is compared against the deduplicated input order and
/// the cheaper one wins, so `optimized_cost ≤ naive_cost` **always** holds.
///
/// Errors when the sweep's domain differs from the matrix's, or when
/// `start`/any scheduled context is outside the matrix domain.
pub fn optimize_sweep(
    sweep: &Schedule,
    matrix: &CostMatrix,
    start: Option<usize>,
) -> Result<OptimizedSweep, CssError> {
    let mut order = Vec::new();
    let (naive_cost, optimized_cost) = optimize_sweep_into(
        sweep.contexts(),
        sweep.as_slice(),
        matrix,
        start,
        &mut SweepScratch::default(),
        &mut order,
    )?;
    Ok(OptimizedSweep {
        schedule: Schedule::explicit(sweep.contexts(), order)?,
        naive_cost,
        optimized_cost,
    })
}

/// Working memory of [`optimize_sweep_into`], reused across calls so a
/// caller that plans a sweep per flush allocates nothing once its
/// buffers have grown to its largest sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepScratch {
    nodes: Vec<usize>,
    dp: Vec<usize>,
    parent: Vec<usize>,
}

/// [`optimize_sweep`] over a sweep of `contexts`-wide domain given as a
/// slice, writing the chosen order into `order` (cleared first) and
/// returning `(naive_cost, optimized_cost)`. Same order, costs and errors
/// as [`optimize_sweep`]; all working memory comes from `scratch`.
pub fn optimize_sweep_into(
    contexts: usize,
    sweep: &[usize],
    matrix: &CostMatrix,
    start: Option<usize>,
    scratch: &mut SweepScratch,
    order: &mut Vec<usize>,
) -> Result<(usize, usize), CssError> {
    if contexts != matrix.contexts() {
        return Err(CssError::DomainMismatch {
            schedule: contexts,
            matrix: matrix.contexts(),
        });
    }
    if let Some(s) = start {
        matrix.cost(s, s)?;
    }
    // duplicates collapse, first occurrence kept (specified: dedup, not error)
    let nodes = &mut scratch.nodes;
    nodes.clear();
    for &ctx in sweep {
        matrix.cost(ctx, ctx)?;
        if !nodes.contains(&ctx) {
            nodes.push(ctx);
        }
    }
    let naive_cost = matrix.path_cost(start, nodes)?;
    order.clear();
    if nodes.len() <= 1 {
        order.extend_from_slice(nodes);
    } else if nodes.len() <= EXACT_LIMIT {
        exact_order(
            nodes,
            matrix,
            start,
            &mut scratch.dp,
            &mut scratch.parent,
            order,
        );
    } else {
        greedy_order(nodes, matrix, start, order);
    }
    let optimized_cost = matrix.path_cost(start, order)?;
    // the optimizer is advisory: if a heuristic ever loses to the input
    // order, the input order ships — "never worse" is structural, not hoped
    if optimized_cost <= naive_cost {
        Ok((naive_cost, optimized_cost))
    } else {
        order.clear();
        order.extend_from_slice(nodes);
        Ok((naive_cost, naive_cost))
    }
}

/// Optimized cost of sweeping the context set `ctxs` from `start` — the
/// toggles [`optimize_sweep`]'s order would spend visiting every listed
/// context once. The shared scoring primitive of energy-aware *placement*
/// (marginal cost of a slot joining its shard's sweep) and of *migration*
/// billing (the broadcast realignment a restored tenant adds at its
/// destination). An empty set costs nothing.
pub fn sweep_cost(
    matrix: &CostMatrix,
    start: Option<usize>,
    ctxs: &[usize],
) -> Result<usize, CssError> {
    if ctxs.is_empty() {
        return Ok(0);
    }
    let sweep = Schedule::active_sweep(matrix.contexts(), ctxs)?;
    Ok(optimize_sweep(&sweep, matrix, start)?.optimized_cost)
}

/// Held–Karp minimum-cost Hamiltonian path over `nodes` (`2 ≤ n ≤ 8`):
/// `dp[mask][i]` = cheapest way to visit exactly the contexts in `mask`
/// ending on `nodes[i]`. The path goes into `order`; `dp` and `parent`
/// are working memory.
fn exact_order(
    nodes: &[usize],
    matrix: &CostMatrix,
    start: Option<usize>,
    dp: &mut Vec<usize>,
    parent: &mut Vec<usize>,
    order: &mut Vec<usize>,
) {
    let n = nodes.len();
    let full = (1usize << n) - 1;
    dp.clear();
    dp.resize((1 << n) * n, usize::MAX);
    parent.clear();
    parent.resize((1 << n) * n, usize::MAX);
    for i in 0..n {
        dp[(1 << i) * n + i] = start.map_or(0, |s| matrix.at(s, nodes[i]));
    }
    for mask in 1..=full {
        for last in 0..n {
            let cur = dp[mask * n + last];
            if cur == usize::MAX || mask & (1 << last) == 0 {
                continue;
            }
            for next in 0..n {
                if mask & (1 << next) != 0 {
                    continue;
                }
                let nmask = mask | (1 << next);
                let cand = cur + matrix.at(nodes[last], nodes[next]);
                if cand < dp[nmask * n + next] {
                    dp[nmask * n + next] = cand;
                    parent[nmask * n + next] = last;
                }
            }
        }
    }
    let mut last = (0..n)
        .min_by_key(|&i| dp[full * n + i])
        .expect("n >= 2 nodes");
    let mut mask = full;
    loop {
        order.push(nodes[last]);
        let p = parent[mask * n + last];
        if p == usize::MAX {
            break;
        }
        mask &= !(1 << last);
        last = p;
    }
    order.reverse();
}

/// Greedy nearest-neighbour path: from `start` (or the cheapest-pair seed
/// when there is none), repeatedly hop to the cheapest unvisited context.
/// Ties break toward the lowest context id, so the result is deterministic.
/// The path goes into `order`. Only sweeps wider than [`EXACT_LIMIT`]
/// contexts come here, and only this regime allocates.
fn greedy_order(
    nodes: &[usize],
    matrix: &CostMatrix,
    start: Option<usize>,
    order: &mut Vec<usize>,
) {
    let mut remaining: Vec<usize> = nodes.to_vec();
    remaining.sort_unstable();
    let mut cur = start;
    while !remaining.is_empty() {
        let pick = match cur {
            Some(c) => remaining
                .iter()
                .enumerate()
                .min_by_key(|&(_, &ctx)| (matrix.at(c, ctx), ctx))
                .map(|(i, _)| i)
                .expect("remaining non-empty"),
            // no current context: seed on the lowest id (free first visit)
            None => 0,
        };
        let ctx = remaining.remove(pick);
        order.push(ctx);
        cur = Some(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_matrix_matches_generator() {
        let m = CostMatrix::hybrid(8).unwrap();
        let gen = HybridCssGen::new(8).unwrap();
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(m.cost(a, b).unwrap(), gen.toggles_between(a, b).unwrap());
            }
        }
        assert!(m.cost(8, 0).is_err());
    }

    #[test]
    fn binary_matrix_is_hamming() {
        let m = CostMatrix::binary(6).unwrap(); // padded to an 8-context word
        assert_eq!(m.cost(0, 5).unwrap(), 2);
        assert_eq!(m.cost(3, 3).unwrap(), 0);
        assert_eq!(m.cost(1, 4).unwrap(), 2);
        assert!(CostMatrix::binary(0).is_err());
    }

    #[test]
    fn path_and_step_costs() {
        let m = CostMatrix::hybrid(4).unwrap();
        assert_eq!(m.step_costs(Some(0), &[0, 2, 1]).unwrap(), vec![0, 2, 4]);
        assert_eq!(m.path_cost(Some(0), &[0, 2, 1]).unwrap(), 6);
        assert_eq!(m.path_cost(None, &[2, 1]).unwrap(), 4);
        assert_eq!(m.path_cost(None, &[]).unwrap(), 0);
        assert!(m.path_cost(Some(4), &[0]).is_err());
        assert!(m.path_cost(None, &[4]).is_err());
    }

    #[test]
    fn full_four_context_sweep_saves_a_third() {
        let sweep = Schedule::active_sweep(4, &[0, 1, 2, 3]).unwrap();
        let m = CostMatrix::hybrid(4).unwrap();
        let opt = optimize_sweep(&sweep, &m, Some(0)).unwrap();
        assert_eq!(opt.naive_cost, 12);
        assert_eq!(opt.optimized_cost, 8);
        assert_eq!(opt.saved(), 4);
        // permutation of the same contexts, each exactly once
        let mut v = opt.schedule.as_slice().to_vec();
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3]);
        // reported cost is the real cost of the returned order
        assert_eq!(
            m.path_cost(Some(0), opt.schedule.as_slice()).unwrap(),
            opt.optimized_cost
        );
    }

    #[test]
    fn duplicates_collapse_to_one_visit() {
        let dup = Schedule::explicit(4, vec![2, 0, 2, 0, 2]).unwrap();
        let m = CostMatrix::hybrid(4).unwrap();
        let opt = optimize_sweep(&dup, &m, Some(0)).unwrap();
        let mut v = opt.schedule.as_slice().to_vec();
        v.sort_unstable();
        assert_eq!(v, vec![0, 2], "each context visited exactly once");
        // naive_cost is the cost of the *deduped* input order [2, 0]
        assert_eq!(opt.naive_cost, m.path_cost(Some(0), &[2, 0]).unwrap());
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let m = CostMatrix::hybrid(4).unwrap();
        let empty = Schedule::explicit(4, vec![]).unwrap();
        let opt = optimize_sweep(&empty, &m, Some(3)).unwrap();
        assert!(opt.schedule.is_empty());
        assert_eq!((opt.naive_cost, opt.optimized_cost), (0, 0));

        let one = Schedule::explicit(4, vec![2]).unwrap();
        let opt = optimize_sweep(&one, &m, Some(0)).unwrap();
        assert_eq!(opt.schedule.as_slice(), &[2]);
        assert_eq!(opt.optimized_cost, 2, "entry transition still charged");
    }

    #[test]
    fn greedy_regime_still_never_worse() {
        // 12 distinct contexts > EXACT_LIMIT → greedy path
        let m = CostMatrix::hybrid(12).unwrap();
        let sweep = Schedule::active_sweep(12, &(0..12).collect::<Vec<_>>()).unwrap();
        let opt = optimize_sweep(&sweep, &m, Some(0)).unwrap();
        assert!(opt.optimized_cost <= opt.naive_cost);
        assert!(
            opt.optimized_cost < opt.naive_cost,
            "ascending order flips polarity every step; greedy must beat it"
        );
        let mut v = opt.schedule.as_slice().to_vec();
        v.sort_unstable();
        assert_eq!(v, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn no_start_lets_the_first_visit_ride_free() {
        let m = CostMatrix::hybrid(4).unwrap();
        let sweep = Schedule::active_sweep(4, &[1, 3]).unwrap();
        // from ctx 0 both visits cost (0→1)=4 then (1→3)=2, or (0→3)=4, (3→1)=2
        let anchored = optimize_sweep(&sweep, &m, Some(0)).unwrap();
        assert_eq!(anchored.optimized_cost, 6);
        // with no anchor only the hop between them is charged
        let free = optimize_sweep(&sweep, &m, None).unwrap();
        assert_eq!(free.optimized_cost, 2);
    }

    #[test]
    fn domain_mismatch_is_rejected() {
        let m = CostMatrix::hybrid(4).unwrap();
        let sweep = Schedule::active_sweep(8, &[0, 5]).unwrap();
        assert!(matches!(
            optimize_sweep(&sweep, &m, None),
            Err(CssError::DomainMismatch {
                schedule: 8,
                matrix: 4
            })
        ));
    }

    #[test]
    fn exact_limit_boundary_uses_held_karp() {
        // exactly 8 distinct contexts: still exact; verify optimality by
        // brute force over all 8! orders
        let m = CostMatrix::hybrid(8).unwrap();
        let sweep = Schedule::active_sweep(8, &(0..8).collect::<Vec<_>>()).unwrap();
        let opt = optimize_sweep(&sweep, &m, Some(0)).unwrap();
        let mut best = usize::MAX;
        let mut perm: Vec<usize> = (0..8).collect();
        // Heap's algorithm, iterative
        let mut c = [0usize; 8];
        best = best.min(m.path_cost(Some(0), &perm).unwrap());
        let mut i = 0;
        while i < 8 {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                best = best.min(m.path_cost(Some(0), &perm).unwrap());
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        assert_eq!(opt.optimized_cost, best, "Held-Karp must be optimal");
    }
}
