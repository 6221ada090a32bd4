//! Context sequencing and switching-energy accounting.
//!
//! A [`ContextSequencer`] owns the CSS generator state for one fabric
//! architecture — built once, replayed many times — and charges the energy
//! model per step: binary word toggles for the SRAM architecture, hybrid
//! line toggles for the proposed one. [`run_schedule`] drives a whole
//! schedule through a [`CompiledFabric`], swapping the per-context compiled
//! plane at every CSS switch while keeping the energy accounting identical
//! to the plain replay.
//!
//! ```
//! use mcfpga_core::ArchKind;
//! use mcfpga_css::Schedule;
//! use mcfpga_device::TechParams;
//! use mcfpga_fabric::compiled::CompiledFabric;
//! use mcfpga_fabric::context::{run_schedule, ContextSequencer};
//! use mcfpga_fabric::netlist_ir::generators;
//! use mcfpga_fabric::route::implement_netlist;
//! use mcfpga_fabric::{Fabric, FabricParams};
//!
//! // A wire in context 0; replay an explicit 0,0,0 schedule through it.
//! let mut fabric = Fabric::new(FabricParams::default())?;
//! implement_netlist(&mut fabric, &generators::wire_lanes(1)?, 0, 1)?;
//! let compiled = CompiledFabric::compile(&fabric)?;
//! let mut seq = ContextSequencer::new(ArchKind::Hybrid, 4)?;
//! let schedule = Schedule::explicit(4, vec![0, 0, 0]).map_err(mcfpga_core::CoreError::Css)?;
//! let run = run_schedule(&compiled, &mut seq, &schedule, &[("in0", 0b101)], &TechParams::default())?;
//! assert_eq!(run.stats.steps, 3);
//! assert_eq!(run.stats.switches, 0); // never leaves context 0
//! assert_eq!(run.steps[0].1[0].1, 0b101); // lanes pass straight through
//! # Ok::<(), mcfpga_fabric::FabricError>(())
//! ```

use crate::compiled::CompiledFabric;
use crate::FabricError;
use mcfpga_core::ArchKind;
use mcfpga_css::optimize::{
    optimize_sweep, optimize_sweep_into, CostMatrix, OptimizeMode, SweepScratch,
};
use mcfpga_css::{BinaryCss, HybridCssGen, Schedule};
use mcfpga_device::TechParams;

/// Energy/latency statistics for replaying a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceStats {
    /// Steps replayed.
    pub steps: usize,
    /// Steps where the context actually changed.
    pub switches: usize,
    /// Total broadcast-wire toggles.
    pub wire_toggles: usize,
    /// Dynamic energy spent toggling broadcast wires (joules).
    pub dynamic_energy_j: f64,
}

impl SequenceStats {
    fn zero() -> Self {
        SequenceStats {
            steps: 0,
            switches: 0,
            wire_toggles: 0,
            dynamic_energy_j: 0.0,
        }
    }
}

/// CSS generator state for one architecture, reusable across replays.
///
/// The original `replay_schedule` rebuilt `BinaryCss`/`HybridCssGen` from
/// scratch on every call; a sequencer is built once and [`reset`] between
/// replays, so repeated schedule replays pay no setup cost.
///
/// [`reset`]: ContextSequencer::reset
#[derive(Debug, Clone)]
pub struct ContextSequencer {
    arch: ArchKind,
    contexts: usize,
    css: CssState,
    cur: usize,
}

#[derive(Debug, Clone)]
enum CssState {
    Binary(BinaryCss),
    Hybrid(HybridCssGen),
}

impl ContextSequencer {
    /// Builds the CSS machinery for `arch` over `contexts` contexts.
    pub fn new(arch: ArchKind, contexts: usize) -> Result<Self, FabricError> {
        let css = match arch {
            ArchKind::Sram => CssState::Binary(
                BinaryCss::new(contexts.next_power_of_two().max(2))
                    .map_err(mcfpga_core::CoreError::Css)?,
            ),
            ArchKind::MvFgfp | ArchKind::Hybrid => {
                CssState::Hybrid(HybridCssGen::new(contexts).map_err(mcfpga_core::CoreError::Css)?)
            }
        };
        Ok(ContextSequencer {
            arch,
            contexts,
            css,
            cur: 0,
        })
    }

    /// The architecture this sequencer models.
    #[must_use]
    pub fn arch(&self) -> ArchKind {
        self.arch
    }

    /// Number of contexts in the domain.
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// The currently broadcast context.
    #[must_use]
    pub fn current(&self) -> usize {
        self.cur
    }

    /// The pairwise context-transition cost matrix of this sequencer's CSS
    /// — exactly the toggles [`step_to`](Self::step_to) charges per switch
    /// (binary-word Hamming distance for the SRAM architecture, hybrid
    /// broadcast-line toggles for the MV families). This is the matrix the
    /// sweep optimizer ([`mcfpga_css::optimize`]) minimizes against.
    #[must_use]
    pub fn cost_matrix(&self) -> CostMatrix {
        match &self.css {
            CssState::Binary(_) => {
                CostMatrix::from_fn(self.contexts, |a, b| (a ^ b).count_ones() as usize)
            }
            CssState::Hybrid(gen) => CostMatrix::from_fn(self.contexts, |a, b| {
                gen.toggles_between(a, b)
                    .expect("domain enumerated from the sequencer")
            }),
        }
        .expect("sequencer context count validated at construction")
    }

    /// Orders `sweep` for execution from the sequencer's *current* context:
    /// a no-op under [`OptimizeMode::Naive`], a minimum-toggle reordering
    /// (via [`optimize_sweep`] over [`cost_matrix`](Self::cost_matrix))
    /// under [`OptimizeMode::Optimized`]. The plan is advisory — replaying
    /// either order produces identical per-context outputs; the optimized
    /// one never costs more broadcast toggles.
    ///
    /// Builds a fresh cost matrix per call; replay-heavy callers should
    /// compute [`cost_matrix`](Self::cost_matrix) once and use
    /// [`plan_sweep_with`](Self::plan_sweep_with).
    pub fn plan_sweep(
        &self,
        sweep: &Schedule,
        mode: OptimizeMode,
    ) -> Result<Schedule, FabricError> {
        self.plan_sweep_with(sweep, mode, &self.cost_matrix())
    }

    /// [`plan_sweep`](Self::plan_sweep) against a caller-cached cost
    /// matrix — the hot-path form: the matrix never changes for a given
    /// sequencer, so a service flushing many sweeps computes it once.
    pub fn plan_sweep_with(
        &self,
        sweep: &Schedule,
        mode: OptimizeMode,
        matrix: &CostMatrix,
    ) -> Result<Schedule, FabricError> {
        match mode {
            OptimizeMode::Naive => Ok(sweep.clone()),
            OptimizeMode::Optimized => Ok(optimize_sweep(sweep, matrix, Some(self.cur))
                .map_err(mcfpga_core::CoreError::Css)?
                .schedule),
        }
    }

    /// [`plan_sweep_with`](Self::plan_sweep_with) over a sweep of this
    /// sequencer's own context domain given as a slice, writing the order
    /// into `order` with the optimizer's working memory taken from
    /// `scratch` — the allocation-free form a service flushing every
    /// cycle uses.
    pub fn plan_sweep_into(
        &self,
        sweep: &[usize],
        mode: OptimizeMode,
        matrix: &CostMatrix,
        scratch: &mut SweepScratch,
        order: &mut Vec<usize>,
    ) -> Result<(), FabricError> {
        match mode {
            OptimizeMode::Naive => {
                order.clear();
                order.extend_from_slice(sweep);
            }
            OptimizeMode::Optimized => {
                optimize_sweep_into(self.contexts, sweep, matrix, Some(self.cur), scratch, order)
                    .map_err(mcfpga_core::CoreError::Css)?;
            }
        }
        Ok(())
    }

    /// Returns the sequencer to context 0 without charging toggles, so the
    /// next replay starts from the same state a fresh sequencer would.
    pub fn reset(&mut self) -> Result<(), FabricError> {
        self.resume_at(0)
    }

    /// Parks the broadcast on `ctx` without charging toggles — the
    /// restore half of sweep-position capture ([`current`](Self::current)
    /// being the capture half). A checkpoint records where a shard's
    /// broadcast sat at the context-switch boundary; rebuilding that shard
    /// resumes the sequencer here so subsequent sweeps are planned and
    /// charged from the same position, not from a fictitious context 0.
    pub fn resume_at(&mut self, ctx: usize) -> Result<(), FabricError> {
        if ctx >= self.contexts {
            return Err(FabricError::ContextOutOfRange {
                ctx,
                contexts: self.contexts,
            });
        }
        if let CssState::Binary(css) = &mut self.css {
            css.switch_to(ctx).map_err(mcfpga_core::CoreError::Css)?;
        }
        self.cur = ctx;
        Ok(())
    }

    /// One accounted schedule step: switches to `ctx` and charges `stats`.
    /// SRAM counts a switch when any word bit toggles; the hybrid families
    /// count context changes — preserved from the original replay.
    fn charge_step(&mut self, ctx: usize, stats: &mut SequenceStats) -> Result<(), FabricError> {
        let changed = ctx != self.cur;
        let t = self.step_to(ctx)?;
        stats.steps += 1;
        let switched = match self.arch {
            ArchKind::Sram => t > 0,
            ArchKind::MvFgfp | ArchKind::Hybrid => changed,
        };
        if switched {
            stats.switches += 1;
        }
        stats.wire_toggles += t;
        Ok(())
    }

    /// Switches the broadcast to `ctx`, returning the broadcast-wire
    /// toggles that cost.
    pub fn step_to(&mut self, ctx: usize) -> Result<usize, FabricError> {
        let toggles = match &mut self.css {
            CssState::Binary(css) => {
                let t = css.hamming_to(ctx);
                css.switch_to(ctx).map_err(mcfpga_core::CoreError::Css)?;
                t
            }
            CssState::Hybrid(gen) => gen
                .toggles_between(self.cur, ctx)
                .map_err(mcfpga_core::CoreError::Css)?,
        };
        self.cur = ctx;
        Ok(toggles)
    }

    /// Replays `schedule` from a reset state, counting broadcast toggles.
    /// (The fabric's switches respond combinationally; what costs energy at
    /// switch time is the broadcast network.)
    pub fn replay(
        &mut self,
        schedule: &Schedule,
        params: &TechParams,
    ) -> Result<SequenceStats, FabricError> {
        self.reset()?;
        let mut stats = SequenceStats::zero();
        for ctx in schedule.iter() {
            self.charge_step(ctx, &mut stats)?;
        }
        stats.dynamic_energy_j = stats.wire_toggles as f64 * params.css_toggle_energy_j;
        Ok(stats)
    }
}

/// Replays `schedule` against the CSS machinery of `arch`, counting
/// broadcast toggles. Convenience wrapper building a throwaway
/// [`ContextSequencer`]; replay-heavy callers should build the sequencer
/// once and call [`ContextSequencer::replay`] directly.
pub fn replay_schedule(
    arch: ArchKind,
    contexts: usize,
    schedule: &Schedule,
    params: &TechParams,
) -> Result<SequenceStats, FabricError> {
    ContextSequencer::new(arch, contexts)?.replay(schedule, params)
}

/// Outcome of driving a schedule through a compiled fabric.
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// Energy/switch accounting, identical to [`replay_schedule`].
    pub stats: SequenceStats,
    /// Per step: the context executed and its named output lanes
    /// (64 input vectors wide, bit `l` = vector `l`).
    pub steps: Vec<(usize, Vec<(String, u64)>)>,
}

/// Replays `schedule` by actually executing each scheduled context on
/// `compiled` with the given 64-lane input batch, while `seq` charges the
/// broadcast-network energy of every switch.
///
/// `inputs` is the union of all contexts' bound input signals; each plane
/// picks the names it binds. The sequencer is reset first, so repeated
/// runs of the same schedule are reproducible.
pub fn run_schedule(
    compiled: &CompiledFabric,
    seq: &mut ContextSequencer,
    schedule: &Schedule,
    inputs: &[(&str, u64)],
    params: &TechParams,
) -> Result<ScheduleRun, FabricError> {
    seq.reset()?;
    let mut stats = SequenceStats::zero();
    let mut steps = Vec::with_capacity(schedule.len());
    let mut scratch = compiled.new_state();
    for ctx in schedule.iter() {
        seq.charge_step(ctx, &mut stats)?;
        // the CSS has swapped the active plane; execute it bit-parallel
        let outs = compiled.eval_batch_into(ctx, inputs, &mut scratch)?;
        steps.push((ctx, outs));
    }
    stats.dynamic_energy_j = stats.wire_toggles as f64 * params.css_toggle_energy_j;
    Ok(ScheduleRun { stats, steps })
}

// Each shard engine owns one sequencer and may run on any worker thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ContextSequencer>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{Fabric, FabricParams};
    use crate::netlist_ir::generators;
    use crate::route::implement_netlist;

    #[test]
    fn round_robin_toggle_counts() {
        let sched = Schedule::round_robin(4, 4).unwrap();
        let p = TechParams::default();
        let sram = replay_schedule(ArchKind::Sram, 4, &sched, &p).unwrap();
        let hybrid = replay_schedule(ArchKind::Hybrid, 4, &sched, &p).unwrap();
        assert_eq!(sram.steps, 16);
        assert_eq!(sram.switches, 15, "first step lands on ctx 0 (no change)");
        assert!(sram.wire_toggles > 0);
        assert!(hybrid.wire_toggles > 0);
        assert!(hybrid.dynamic_energy_j > 0.0);
    }

    #[test]
    fn idle_schedule_costs_nothing() {
        let sched = Schedule::explicit(4, vec![0, 0, 0, 0]).unwrap();
        let p = TechParams::default();
        for arch in ArchKind::all() {
            let s = replay_schedule(arch, 4, &sched, &p).unwrap();
            assert_eq!(s.switches, 0);
            assert_eq!(s.wire_toggles, 0);
            assert_eq!(s.dynamic_energy_j, 0.0);
        }
    }

    #[test]
    fn bursty_cheaper_than_random() {
        let p = TechParams::default();
        let bursty = Schedule::bursty(4, 256, 16, 5).unwrap();
        let random = Schedule::random(4, 256, 5).unwrap();
        for arch in [ArchKind::Sram, ArchKind::Hybrid] {
            let b = replay_schedule(arch, 4, &bursty, &p).unwrap();
            let r = replay_schedule(arch, 4, &random, &p).unwrap();
            assert!(b.wire_toggles < r.wire_toggles, "{arch:?}");
        }
    }

    #[test]
    fn cached_sequencer_matches_fresh_replays() {
        let p = TechParams::default();
        let scheds = [
            Schedule::round_robin(4, 8).unwrap(),
            Schedule::random(4, 64, 3).unwrap(),
            Schedule::bursty(4, 64, 8, 9).unwrap(),
        ];
        for arch in ArchKind::all() {
            let mut seq = ContextSequencer::new(arch, 4).unwrap();
            for sched in &scheds {
                let cached = seq.replay(sched, &p).unwrap();
                let fresh = replay_schedule(arch, 4, sched, &p).unwrap();
                assert_eq!(cached, fresh, "{arch:?}");
                // replaying again from the cached sequencer is idempotent
                assert_eq!(seq.replay(sched, &p).unwrap(), fresh, "{arch:?} repeat");
            }
        }
    }

    #[test]
    fn run_schedule_executes_every_context() {
        // parity in ctx 0, wire lane in ctx 1
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &generators::parity_tree(3).unwrap(), 0, 2).unwrap();
        implement_netlist(&mut f, &generators::wire_lanes(1).unwrap(), 1, 3).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        let mut seq = ContextSequencer::new(ArchKind::Hybrid, 4).unwrap();
        let sched = Schedule::explicit(4, vec![0, 1, 0, 1]).unwrap();
        let p = TechParams::default();
        // lanes: x0 = 0b01, x1 = 0b11, x2 = 0; in0 = 0b10
        let inputs = [("x0", 0b01u64), ("x1", 0b11), ("x2", 0), ("in0", 0b10)];
        let run = run_schedule(&compiled, &mut seq, &sched, &inputs, &p).unwrap();
        assert_eq!(run.steps.len(), 4);
        assert_eq!(run.stats.steps, 4);
        assert_eq!(run.stats.switches, 3, "0→1, 1→0, 0→1");
        // ctx 0: parity(x0,x1,x2): lane0 = parity(1,1,0)=0, lane1 = parity(0,1,0)=1
        let (ctx0, outs0) = &run.steps[0];
        assert_eq!(*ctx0, 0);
        assert_eq!(outs0[0].1 & 0b11, 0b10);
        // ctx 1: wire lane passes in0 through
        let (ctx1, outs1) = &run.steps[1];
        assert_eq!(*ctx1, 1);
        assert_eq!(outs1[0].1, 0b10);
        // energy accounting matches the plain replay exactly
        let plain = replay_schedule(ArchKind::Hybrid, 4, &sched, &p).unwrap();
        assert_eq!(run.stats, plain);
    }

    /// `resume_at` parks the broadcast without charging, and subsequent
    /// steps charge exactly as if the sequencer had stepped there.
    #[test]
    fn resume_at_restores_position_without_charging() {
        for arch in ArchKind::all() {
            let mut walked = ContextSequencer::new(arch, 4).unwrap();
            walked.step_to(3).unwrap();
            let mut resumed = ContextSequencer::new(arch, 4).unwrap();
            resumed.resume_at(3).unwrap();
            assert_eq!(resumed.current(), 3, "{arch:?}");
            for next in 0..4 {
                let mut a = walked.clone();
                let mut b = resumed.clone();
                assert_eq!(
                    a.step_to(next).unwrap(),
                    b.step_to(next).unwrap(),
                    "{arch:?}"
                );
            }
            assert!(resumed.resume_at(4).is_err());
        }
    }

    /// The cost matrix must model exactly what `step_to` charges — for
    /// every architecture and every ordered context pair.
    #[test]
    fn cost_matrix_matches_step_to_charges() {
        for arch in ArchKind::all() {
            let mut seq = ContextSequencer::new(arch, 8).unwrap();
            let m = seq.cost_matrix();
            for a in 0..8 {
                for b in 0..8 {
                    seq.reset().unwrap();
                    seq.step_to(a).unwrap();
                    let charged = seq.step_to(b).unwrap();
                    assert_eq!(m.cost(a, b).unwrap(), charged, "{arch:?} {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn plan_sweep_replays_cheaper_never_worse() {
        let p = TechParams::default();
        for arch in ArchKind::all() {
            let mut seq = ContextSequencer::new(arch, 8).unwrap();
            let naive = Schedule::active_sweep(8, &(0..8).collect::<Vec<_>>()).unwrap();
            // Naive mode is the identity
            assert_eq!(seq.plan_sweep(&naive, OptimizeMode::Naive).unwrap(), naive);
            let planned = seq.plan_sweep(&naive, OptimizeMode::Optimized).unwrap();
            let cost_naive = seq.replay(&naive, &p).unwrap().wire_toggles;
            let cost_planned = seq.replay(&planned, &p).unwrap().wire_toggles;
            assert!(cost_planned <= cost_naive, "{arch:?}");
            let mut visited = planned.as_slice().to_vec();
            visited.sort_unstable();
            assert_eq!(visited, (0..8).collect::<Vec<_>>(), "{arch:?}");
        }
        // the hybrid full sweep is the paper's headline case: strictly cheaper
        let seq = ContextSequencer::new(ArchKind::Hybrid, 4).unwrap();
        let naive = Schedule::active_sweep(4, &[0, 1, 2, 3]).unwrap();
        let planned = seq.plan_sweep(&naive, OptimizeMode::Optimized).unwrap();
        let m = seq.cost_matrix();
        assert!(
            m.path_cost(Some(0), planned.as_slice()).unwrap()
                < m.path_cost(Some(0), naive.as_slice()).unwrap()
        );
    }

    /// Plans account for where the broadcast currently sits: after stepping
    /// to the last context, the next sweep is planned from *there*.
    #[test]
    fn plan_sweep_starts_from_current_context() {
        let mut seq = ContextSequencer::new(ArchKind::Hybrid, 4).unwrap();
        seq.step_to(3).unwrap();
        let sweep = Schedule::active_sweep(4, &[0, 1, 2, 3]).unwrap();
        let planned = seq.plan_sweep(&sweep, OptimizeMode::Optimized).unwrap();
        let m = seq.cost_matrix();
        // from ctx 3 the optimal tour re-enters 3 first (free), e.g.
        // 3→1→0→2 = 0+2+4+2 = 8; the plan must cost exactly that
        assert_eq!(m.path_cost(Some(3), planned.as_slice()).unwrap(), 8);
        assert_eq!(planned.as_slice()[0], 3, "current context rides free");
    }
}
