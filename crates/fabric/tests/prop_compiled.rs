//! Engine equivalence: the compiled levelized bit-parallel engine must
//! match the legacy fixpoint sweep **bit-for-bit** — on random routed
//! fabrics, across every context, across all 64 lanes of a batch — and
//! the straight-line kernel (with its dirty-cone incremental path) must
//! match the branchy reference interpreter at every lane width from one
//! to [`LANE_WORDS`] words, leaving every word past the width zero.

use mcfpga_fabric::array::{Dir, Sink, Source};
use mcfpga_fabric::compiled::{BoundPlan, CompiledFabric, LaneChunk, LANES, LANE_WORDS};
use mcfpga_fabric::netlist_ir::{LogicNetlist, NodeId};
use mcfpga_fabric::route::implement_netlist;
use mcfpga_fabric::sim::evaluate_fixpoint;
use mcfpga_fabric::{Fabric, FabricParams, TileCoord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random DAG: `inputs` primary inputs named `{prefix}i0..`, `luts` LUT
/// nodes with 1–3 fanins drawn from earlier nodes, 2 primary outputs
/// named `{prefix}o1`/`{prefix}o2`. A `"reg:"` prefix mimics a temporal
/// stage's stream-register IO.
fn random_dag(seed: u64, inputs: usize, luts: usize, prefix: &str) -> LogicNetlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = LogicNetlist::new();
    let mut pool: Vec<NodeId> = (0..inputs)
        .map(|i| nl.add_input(&format!("{prefix}i{i}")))
        .collect();
    for j in 0..luts {
        let f = 1 + rng.random_range(0..3usize.min(pool.len()));
        let mut fanin = Vec::with_capacity(f);
        for _ in 0..f {
            fanin.push(pool[rng.random_range(0..pool.len())]);
        }
        fanin.dedup();
        let rows = 1u64 << fanin.len();
        let table = rng.random_range(0..(1u64 << rows.min(63)));
        let id = nl.add_lut(&format!("l{j}"), &fanin, table).unwrap();
        pool.push(id);
    }
    let o1 = pool[pool.len() - 1];
    let o2 = pool[pool.len() - 2];
    nl.add_output(&format!("{prefix}o1"), o1).unwrap();
    nl.add_output(&format!("{prefix}o2"), o2).unwrap();
    nl
}

fn fabric() -> Fabric {
    Fabric::new(FabricParams {
        width: 5,
        height: 5,
        channel_width: 4,
        ..FabricParams::default()
    })
    .unwrap()
}

/// Random full-width lane chunk: one of 256 vectors per bit position.
/// Words past a pass's width carry stray bits the engine must ignore.
fn random_chunk(rng: &mut StdRng) -> LaneChunk {
    std::array::from_fn(|_| rng.random_range(0..u64::MAX))
}

/// Every output word past the pass's `words` must come back zero.
fn assert_zero_past(outs: &[LaneChunk], words: usize) -> Result<(), TestCaseError> {
    for (i, chunk) in outs.iter().enumerate() {
        prop_assert!(
            chunk[words..].iter().all(|w| *w == 0),
            "output {} carries bits past word {}: {:?}",
            i,
            words,
            chunk
        );
    }
    Ok(())
}

/// Every occupied lane of a context-0 pass (`outs` parallel to the
/// bound outputs) equals a scalar fixpoint evaluation of that lane.
fn assert_lanes_match_fixpoint(
    f: &Fabric,
    bound: &BoundPlan,
    chunks: &[LaneChunk],
    outs: &[LaneChunk],
    words: usize,
) -> Result<(), TestCaseError> {
    for lane in 0..words * 64 {
        let (word, bit) = (lane / 64, lane % 64);
        let scalar: Vec<(&str, bool)> = bound
            .inputs()
            .iter()
            .zip(chunks)
            .map(|((_, n, _), c)| (n.as_ref(), (c[word] >> bit) & 1 == 1))
            .collect();
        let (gold, _) = evaluate_fixpoint(f, 0, &scalar).unwrap();
        prop_assert_eq!(gold.len(), outs.len());
        for ((_, name, _), chunk) in bound.outputs().iter().zip(outs) {
            let want = gold.iter().find(|(n, _)| n == name.as_ref()).unwrap().1;
            prop_assert_eq!(
                want,
                (chunk[word] >> bit) & 1 == 1,
                "output {} lane {}",
                name,
                lane
            );
        }
    }
    Ok(())
}

/// Overlay a two-tile combinational wire loop on free sinks of `ctx`,
/// turning the plane cyclic without disturbing the routed netlist.
/// Returns false if every candidate sink pair is already driven.
fn inject_wire_loop(f: &mut Fabric, ctx: usize) -> bool {
    let p = *f.params();
    for y in 0..p.height {
        for x in 0..p.width.saturating_sub(1) {
            let a = TileCoord { x, y };
            let b = TileCoord { x: x + 1, y };
            for w in 0..p.channel_width {
                let east = Sink::WireTo { dir: Dir::East, w };
                let west = Sink::WireTo { dir: Dir::West, w };
                let free = f.route_of(a, ctx, east).unwrap().is_none()
                    && f.route_of(b, ctx, west).unwrap().is_none();
                if !free {
                    continue;
                }
                // a.east <- (east neighbour's) west feed and vice versa:
                // the two wires drive each other and never resolve
                f.set_route(a, ctx, east, Some(Source::WireFrom { dir: Dir::East, w }))
                    .unwrap();
                f.set_route(b, ctx, west, Some(Source::WireFrom { dir: Dir::West, w }))
                    .unwrap();
                return true;
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Compiled batch evaluation equals the fixpoint sweep on every context
    /// of a multi-context fabric, for every one of the 64 lanes.
    #[test]
    fn compiled_matches_fixpoint_all_contexts_all_lanes(
        seed in 0u64..5000,
        lane_seed in any::<u64>(),
    ) {
        const INPUTS: usize = 4;
        // a different random DAG in each of the 4 contexts
        let mut f = fabric();
        let mut mapped = Vec::new();
        for ctx in 0..4usize {
            let nl = random_dag(seed.wrapping_add(1 + ctx as u64), INPUTS, 5 + ctx, "");
            if implement_netlist(&mut f, &nl, ctx, seed ^ ctx as u64).is_ok() {
                mapped.push(ctx);
            } else {
                f.clear_context(ctx).unwrap();
            }
        }
        prop_assume!(!mapped.is_empty());

        let compiled = CompiledFabric::compile(&f).unwrap();
        // 64 random input vectors, packed one lane each
        let mut rng = StdRng::seed_from_u64(lane_seed);
        let lanes: Vec<u64> = (0..INPUTS).map(|_| rng.random_range(0..u64::MAX)).collect();
        let names: Vec<String> = (0..INPUTS).map(|i| format!("i{i}")).collect();
        let batch: Vec<(&str, u64)> = names
            .iter()
            .zip(&lanes)
            .map(|(n, v)| (n.as_str(), *v))
            .collect();

        let mut st = compiled.new_state();
        for &ctx in &mapped {
            let mut got = compiled.eval_batch_into(ctx, &batch, &mut st).unwrap();
            got.sort();
            for lane in 0..LANES {
                let scalar: Vec<(&str, bool)> = names
                    .iter()
                    .zip(&lanes)
                    .map(|(n, v)| (n.as_str(), (v >> lane) & 1 == 1))
                    .collect();
                let (mut want, _) = evaluate_fixpoint(&f, ctx, &scalar).unwrap();
                want.sort();
                prop_assert_eq!(want.len(), got.len());
                for (w, g) in want.iter().zip(&got) {
                    prop_assert_eq!(&w.0, &g.0, "ctx {} lane {}", ctx, lane);
                    prop_assert_eq!(
                        w.1,
                        (g.1 >> lane) & 1 == 1,
                        "output {} ctx {} lane {}",
                        w.0, ctx, lane
                    );
                }
            }
        }
    }

    /// The dense compiled state agrees with the sparse fixpoint state on
    /// every routing resource (values *and* known-ness), per lane.
    #[test]
    fn compiled_state_matches_fixpoint_state(
        seed in 0u64..2000,
        vector in any::<u8>(),
    ) {
        const INPUTS: usize = 4;
        let nl = random_dag(seed, INPUTS, 7, "");
        let mut f = fabric();
        prop_assume!(implement_netlist(&mut f, &nl, 0, seed).is_ok());
        let compiled = CompiledFabric::compile(&f).unwrap();

        let scalar: Vec<(String, bool)> = (0..INPUTS)
            .map(|i| (format!("i{i}"), (vector >> i) & 1 == 1))
            .collect();
        let scalar_ref: Vec<(&str, bool)> =
            scalar.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let batch: Vec<(&str, u64)> = scalar
            .iter()
            .map(|(n, v)| (n.as_str(), if *v { !0u64 } else { 0 }))
            .collect();

        let (_, want) = evaluate_fixpoint(&f, 0, &scalar_ref).unwrap();
        let mut got = compiled.new_state();
        compiled.eval_batch_into(0, &batch, &mut got).unwrap();
        let p = *f.params();
        for t in f.tiles() {
            prop_assert_eq!(
                want.lut_out(t),
                got.lut_out(t).map(|v| v & 1 == 1),
                "lut_out {}", t
            );
            for dir in mcfpga_fabric::array::Dir::ALL {
                for w in 0..p.channel_width {
                    prop_assert_eq!(
                        want.wire(t, dir, w),
                        got.wire(t, dir, w).map(|v| v & 1 == 1),
                        "wire {} {:?} {}", t, dir, w
                    );
                }
            }
            for port in 0..p.io_out {
                prop_assert_eq!(
                    want.io_out(t, port),
                    got.io_out(t, port).map(|v| v & 1 == 1),
                    "io_out {} {}", t, port
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The straight-line kernel equals the branchy interpreter — and the
    /// legacy fixpoint sweep — bit-for-bit on every occupied lane, at
    /// every width of 1..=4 words, with and without stream-register
    /// (`reg:`) IO names.
    #[test]
    fn kernel_matches_interpreter_and_fixpoint_across_chunked_lanes(
        seed in 0u64..5000,
        lane_seed in any::<u64>(),
        reg_io in any::<bool>(),
        words in 1usize..=LANE_WORDS,
    ) {
        const INPUTS: usize = 4;
        let prefix = if reg_io { "reg:" } else { "" };
        let nl = random_dag(seed, INPUTS, 7, prefix);
        let mut f = fabric();
        prop_assume!(implement_netlist(&mut f, &nl, 0, seed).is_ok());
        let compiled = CompiledFabric::compile(&f).unwrap();

        // the bound plan flags the reg-ness of the IO
        let bound = compiled.bind(0).unwrap();
        for (_, name, is_reg) in bound.inputs().iter().chain(bound.outputs()) {
            prop_assert_eq!(*is_reg, reg_io, "reg flag of '{}'", name);
        }
        let mut rng = StdRng::seed_from_u64(lane_seed);
        let chunks: Vec<LaneChunk> =
            bound.inputs().iter().map(|_| random_chunk(&mut rng)).collect();

        let (mut kernel_outs, mut ref_outs) = (Vec::new(), Vec::new());
        let stats = compiled
            .eval_bound_into(&bound, &chunks, words, &mut compiled.new_state(), &mut kernel_outs)
            .unwrap();
        prop_assert_eq!(stats.ops_skipped, 0, "a fresh state's sweep skips nothing");
        compiled
            .eval_bound_reference(&bound, &chunks, words, &mut compiled.new_state(), &mut ref_outs)
            .unwrap();
        prop_assert_eq!(&kernel_outs, &ref_outs, "kernel vs interpreter at {} words", words);
        assert_zero_past(&kernel_outs, words)?;
        assert_lanes_match_fixpoint(&f, &bound, &chunks, &kernel_outs, words)?;
    }

    /// A cyclic plane runs on the kernel too: the ops on or past its
    /// loop never resolve, so the kernel keeps the rest and stays
    /// bit-exact with the reference interpreter and the fixpoint sweep at
    /// every width — on a fresh state, and again when a repeat of the
    /// same inputs reuses the sweep.
    #[test]
    fn cyclic_overlay_kernel_matches_interpreter_and_fixpoint(
        seed in 0u64..3000,
        lane_seed in any::<u64>(),
        words in 1usize..=LANE_WORDS,
    ) {
        const INPUTS: usize = 4;
        let nl = random_dag(seed, INPUTS, 5, "");
        let mut f = fabric();
        prop_assume!(implement_netlist(&mut f, &nl, 0, seed).is_ok());
        prop_assume!(inject_wire_loop(&mut f, 0));
        let compiled = CompiledFabric::compile(&f).unwrap();
        prop_assert!(compiled.plane(0).unwrap().is_cyclic());

        let bound = compiled.bind(0).unwrap();
        let mut rng = StdRng::seed_from_u64(lane_seed);
        let chunks: Vec<LaneChunk> =
            bound.inputs().iter().map(|_| random_chunk(&mut rng)).collect();
        let (mut got, mut reference) = (Vec::new(), Vec::new());
        let mut st = compiled.new_state();
        let stats = compiled
            .eval_bound_into(&bound, &chunks, words, &mut st, &mut got)
            .unwrap();
        prop_assert_eq!(stats.ops_skipped, 0);
        let interpreted = compiled
            .eval_bound_reference(&bound, &chunks, words, &mut compiled.new_state(), &mut reference)
            .unwrap();
        prop_assert!(
            stats.ops_total < interpreted.ops_total,
            "the kernel counts only the ops its inputs reach, not the loop's"
        );
        prop_assert_eq!(&got, &reference);
        assert_zero_past(&got, words)?;
        assert_lanes_match_fixpoint(&f, &bound, &chunks, &got, words)?;
        let repeat = compiled
            .eval_bound_into(&bound, &chunks, words, &mut st, &mut got)
            .unwrap();
        prop_assert_eq!(repeat.ops_skipped, repeat.ops_total);
        prop_assert_eq!(&got, &reference);
    }

    /// Dirty-cone partial sweeps on a persistent state are
    /// observationally equivalent to fresh full sweeps at every width:
    /// after any sequence of partial input changes, outputs match both a
    /// kernel run on a fresh state and the reference interpreter, with
    /// every word past the width zero.
    #[test]
    fn dirty_cone_partial_sweeps_match_full_evals(
        seed in 0u64..5000,
        lane_seed in any::<u64>(),
        rounds in 1usize..5,
        words in 1usize..=LANE_WORDS,
    ) {
        const INPUTS: usize = 4;
        let nl = random_dag(seed, INPUTS, 7, "");
        let mut f = fabric();
        prop_assume!(implement_netlist(&mut f, &nl, 0, seed).is_ok());
        let compiled = CompiledFabric::compile(&f).unwrap();
        let bound = compiled.bind(0).unwrap();

        let mut rng = StdRng::seed_from_u64(lane_seed);
        let mut chunks: Vec<LaneChunk> =
            bound.inputs().iter().map(|_| random_chunk(&mut rng)).collect();
        let mut st = compiled.new_state();
        let mut outs = Vec::new();
        let full = compiled
            .eval_bound_into(&bound, &chunks, words, &mut st, &mut outs)
            .unwrap();
        prop_assert_eq!(full.ops_skipped, 0);

        for round in 0..rounds {
            // redraw a random subset of inputs (possibly none)
            let mut changed = false;
            for chunk in chunks.iter_mut() {
                if rng.random_range(0..2u32) == 1 {
                    *chunk = random_chunk(&mut rng);
                    changed = true;
                }
            }
            let stats = compiled
                .eval_bound_into(&bound, &chunks, words, &mut st, &mut outs)
                .unwrap();
            prop_assert_eq!(stats.ops_total, full.ops_total);
            if !changed {
                prop_assert_eq!(
                    stats.ops_skipped, stats.ops_total,
                    "an unchanged sweep skips the whole op program"
                );
            }
            let incremental = outs.clone();
            assert_zero_past(&incremental, words)?;

            // oracle 1: a full kernel sweep on a fresh state
            let cold = compiled
                .eval_bound_into(&bound, &chunks, words, &mut compiled.new_state(), &mut outs)
                .unwrap();
            prop_assert_eq!(cold.ops_skipped, 0);
            prop_assert_eq!(&incremental, &outs, "round {}: partial vs cold", round);

            // oracle 2: the branchy reference interpreter
            compiled
                .eval_bound_reference(&bound, &chunks, words, &mut compiled.new_state(), &mut outs)
                .unwrap();
            prop_assert_eq!(&incremental, &outs, "round {}: partial vs interpreter", round);
        }
    }
}
