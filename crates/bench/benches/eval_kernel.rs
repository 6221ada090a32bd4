//! X6 — hot-path evaluation pipeline: straight-line kernel vs branchy
//! interpreter, the kernel at one occupied lane word, the dirty-cone
//! incremental path's hit rate, and the bytes of evaluation state each
//! path keeps per plane.
//!
//! The reference workload is the service-throughput fabric: an 8×8,
//! 4-context, channel-width-6 fabric holding the four wide equality
//! comparators (cmp16..cmp13), one per context. Each context's plane is
//! evaluated at the full 256-lane chunk width three ways — the branchy
//! reference interpreter, the branch-free straight-line kernel (full
//! sweeps), and the prebound dirty-cone path under a service-like
//! repeat/partial-change request mix — and the kernel is timed once more
//! at one word (64 lanes), the width of a sparse pass. Every timed kernel
//! pass is a full sweep: the passes alternate between two input sets
//! that differ in every chunk, and each asserts it skipped nothing (in
//! smoke mode too), so no timing can pick up a reused sweep. Outputs are
//! cross-checked bit-for-bit on every path, in smoke mode too; outside
//! smoke mode the bench **fails if the kernel is slower than the
//! interpreter**, or if a one-word sweep costs more than 0.6× a four-word
//! one, on this workload. The kernel keeps one lane chunk per bound input
//! and per LUT, plus each input's raw chunk; the interpreter one per
//! routing resource of the fabric.
//!
//! Last run (2-core shared host, `cargo bench -p mcfpga-bench --bench
//! eval_kernel`): the kernel is 3.77× faster than the interpreter at 256
//! lanes (4.8 against 18.2 µs per 4-context sweep), and a one-word
//! sweep costs 0.30× a four-word one (1.5 µs). It keeps 3,072 bytes of
//! state per plane, against the interpreter's 61,248-byte arena.

use criterion::{criterion_group, criterion_main, Criterion};
use mcfpga_bench::{smoke, time_us, write_bench_json};
use mcfpga_fabric::compiled::{BoundPlan, CompiledFabric, LaneChunk, LANE_WORDS, MAX_LANES};
use mcfpga_fabric::netlist_ir::{generators, LogicNetlist};
use mcfpga_fabric::route::implement_netlist;
use mcfpga_fabric::{Fabric, FabricParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// Sweeps in the dirty-cone request mix per context.
const MIX_SWEEPS: usize = 64;

/// Most a one-word kernel sweep may cost, as a share of a four-word one.
const ONE_WORD_MAX_RATIO: f64 = 0.6;

fn reference_designs() -> Vec<(&'static str, LogicNetlist)> {
    vec![
        ("cmp16", generators::equality_comparator(16).unwrap()),
        ("cmp15", generators::equality_comparator(15).unwrap()),
        ("cmp14", generators::equality_comparator(14).unwrap()),
        ("cmp13", generators::equality_comparator(13).unwrap()),
    ]
}

/// The 8×8/4-context reference fabric with one comparator per context,
/// compiled.
fn build_reference() -> CompiledFabric {
    let mut f = Fabric::new(FabricParams {
        width: 8,
        height: 8,
        channel_width: 6,
        ..FabricParams::default()
    })
    .expect("fabric");
    for (ctx, (_, nl)) in reference_designs().iter().enumerate() {
        implement_netlist(&mut f, nl, ctx, ctx as u64).expect("route");
    }
    CompiledFabric::compile(&f).expect("compile")
}

fn random_chunk(rng: &mut StdRng) -> LaneChunk {
    std::array::from_fn(|_| rng.random_range(0..u64::MAX))
}

/// Makes every comparator input `b{i}` equal to its `a{i}` on the lanes
/// of a random mask drawn from `rng` — about half of them — so the
/// comparator answers "equal" there: independent random inputs never
/// agree on every bit of a lane, and outputs that are all zero would let
/// a wrong kernel pass the cross-checks.
fn agree_on_half_the_lanes(bound: &BoundPlan, chunks: &mut [LaneChunk], rng: &mut StdRng) {
    let equal = random_chunk(rng);
    let names: Vec<&str> = bound.inputs().iter().map(|(_, n, _)| &**n).collect();
    for (b, name) in names.iter().enumerate() {
        let Some(bit) = name.strip_prefix('b') else {
            continue;
        };
        let a = names
            .iter()
            .position(|n| n.strip_prefix('a') == Some(bit))
            .expect("every b input has its a");
        let a_chunk = chunks[a];
        for (w, word) in chunks[b].iter_mut().enumerate() {
            *word = (a_chunk[w] & equal[w]) | (*word & !equal[w]);
        }
    }
}

/// Does `outs` answer both "equal" and "not equal" somewhere?
fn mixed(outs: &[LaneChunk]) -> bool {
    let ones: u32 = outs.iter().flatten().map(|w| w.count_ones()).sum();
    ones > 0 && (ones as usize) < outs.len() * MAX_LANES
}

/// Mean µs of `iters` kernel passes of `bound` at `words`, each a full
/// sweep: the passes alternate between `chunks` and its complement, so
/// every input changes on every pass and no cone is clean to skip.
fn time_full_sweeps(
    compiled: &CompiledFabric,
    bound: &BoundPlan,
    chunks: &[LaneChunk],
    words: usize,
    iters: usize,
) -> f64 {
    let flipped: Vec<LaneChunk> = chunks.iter().map(|c| c.map(|w| !w)).collect();
    let sets = [chunks, &flipped[..]];
    let mut st = compiled.new_state();
    let mut outs = Vec::new();
    let mut pass = 0;
    time_us(iters, || {
        pass += 1;
        let s = compiled
            .eval_bound_into(bound, sets[pass % 2], words, &mut st, &mut outs)
            .expect("kernel eval");
        assert_eq!(s.ops_skipped, 0, "a timed kernel pass reused a sweep");
        black_box(s);
    })
}

/// One context's measurements.
struct CtxRun {
    ops_total: u64,
    interpreter_us: f64,
    kernel_us: f64,
    kernel_1word_us: f64,
    mix_ops_total: u64,
    mix_ops_skipped: u64,
    kernel_state_bytes: usize,
    arena_state_bytes: usize,
}

fn run_context(compiled: &CompiledFabric, ctx: usize) -> CtxRun {
    let bound = compiled.bind(ctx).expect("bind");
    let mut rng = StdRng::seed_from_u64(0xEA17 + ctx as u64);
    // the equality masks come from their own stream, so `rng` draws the
    // same inputs (and mix changes) as it would without them
    let mut masks = StdRng::seed_from_u64(0xE9A1 + ctx as u64);
    let mut chunks: Vec<LaneChunk> = bound
        .inputs()
        .iter()
        .map(|_| random_chunk(&mut rng))
        .collect();
    agree_on_half_the_lanes(&bound, &mut chunks, &mut masks);

    // correctness first, always (smoke mode included): kernel output ==
    // interpreter output, bit for bit, across all 256 lanes
    let mut st = compiled.new_state();
    let mut reference = Vec::new();
    compiled
        .eval_bound_reference(&bound, &chunks, LANE_WORDS, &mut st, &mut reference)
        .expect("reference eval");
    assert!(
        mixed(&reference),
        "ctx {ctx}: the reference answers must hold ones and zeros"
    );
    let mut kst = compiled.new_state();
    let mut outs = Vec::new();
    let stats = compiled
        .eval_bound_into(&bound, &chunks, LANE_WORDS, &mut kst, &mut outs)
        .expect("kernel eval");
    assert_eq!(reference, outs, "kernel diverged from the interpreter");
    // one occupied word: word 0 as at full width, nothing past it
    compiled
        .eval_bound_into(&bound, &chunks, 1, &mut kst, &mut outs)
        .expect("one-word kernel eval");
    for (narrow, full) in outs.iter().zip(&reference) {
        assert_eq!(narrow[0], full[0], "one-word kernel diverged in word 0");
        assert_eq!(
            narrow[1..],
            [0u64; LANE_WORDS - 1],
            "bits past the occupied word"
        );
    }

    let iters = if smoke() { 8 } else { 2000 };
    let interpreter_us = time_us(iters, || {
        let s = compiled
            .eval_bound_reference(&bound, &chunks, LANE_WORDS, &mut st, &mut reference)
            .expect("reference eval");
        black_box(s);
    });
    let kernel_us = time_full_sweeps(compiled, &bound, &chunks, LANE_WORDS, iters);
    let kernel_1word_us = time_full_sweeps(compiled, &bound, &chunks, 1, iters);

    // service-like request mix on a state that swept `chunks` at full
    // width: half the sweeps repeat the previous vectors exactly, a
    // quarter change one input, a quarter redraw everything — the
    // dirty-cone hit rate is what the kernel's own input diff saves
    // across the whole mix
    let mut mix = chunks.clone();
    compiled
        .eval_bound_into(&bound, &mix, LANE_WORDS, &mut kst, &mut outs)
        .expect("kernel eval");
    let (mut mix_total, mut mix_skipped, mut mix_mixed) = (0u64, 0u64, 0usize);
    for sweep in 0..MIX_SWEEPS {
        match sweep % 4 {
            0 | 2 => {}
            1 => {
                let i = rng.random_range(0..mix.len());
                mix[i] = random_chunk(&mut rng);
            }
            _ => {
                for c in mix.iter_mut() {
                    *c = random_chunk(&mut rng);
                }
                agree_on_half_the_lanes(&bound, &mut mix, &mut masks);
            }
        }
        let s = compiled
            .eval_bound_into(&bound, &mix, LANE_WORDS, &mut kst, &mut outs)
            .expect("incremental eval");
        mix_total += s.ops_total;
        mix_skipped += s.ops_skipped;
        // every incremental answer equals a full sweep on a fresh state
        let mut cold_st = compiled.new_state();
        let mut cold = Vec::new();
        compiled
            .eval_bound_into(&bound, &mix, LANE_WORDS, &mut cold_st, &mut cold)
            .expect("cold eval");
        assert_eq!(outs, cold, "incremental sweep diverged (ctx {ctx})");
        mix_mixed += usize::from(mixed(&outs));
    }
    assert!(
        mix_mixed >= MIX_SWEEPS / 4,
        "ctx {ctx}: only {mix_mixed} mix sweeps answered both ways"
    );

    CtxRun {
        ops_total: stats.ops_total,
        kernel_state_bytes: kst.state_bytes(),
        arena_state_bytes: st.state_bytes(),
        interpreter_us,
        kernel_us,
        kernel_1word_us,
        mix_ops_total: mix_total,
        mix_ops_skipped: mix_skipped,
    }
}

fn bench(c: &mut Criterion) {
    let compiled = build_reference();
    let contexts = compiled.params().contexts;
    let runs: Vec<CtxRun> = (0..contexts)
        .map(|ctx| run_context(&compiled, ctx))
        .collect();

    let ops: u64 = runs.iter().map(|r| r.ops_total).sum();
    let interp_us: f64 = runs.iter().map(|r| r.interpreter_us).sum();
    let kernel_us: f64 = runs.iter().map(|r| r.kernel_us).sum();
    let interp_ns_per_op = interp_us * 1e3 / ops as f64;
    let kernel_ns_per_op = kernel_us * 1e3 / ops as f64;
    let speedup = interp_us / kernel_us.max(f64::MIN_POSITIVE);
    let kernel_1word_us: f64 = runs.iter().map(|r| r.kernel_1word_us).sum();
    let one_word_ratio = kernel_1word_us / kernel_us.max(f64::MIN_POSITIVE);
    let mix_total: u64 = runs.iter().map(|r| r.mix_ops_total).sum();
    let mix_skipped: u64 = runs.iter().map(|r| r.mix_ops_skipped).sum();
    let hit_rate = mix_skipped as f64 / mix_total.max(1) as f64;
    let kernel_bytes = runs.iter().map(|r| r.kernel_state_bytes).max().unwrap_or(0);
    let arena_bytes = runs.iter().map(|r| r.arena_state_bytes).max().unwrap_or(0);

    let gate_enforced = !smoke();
    let gates = if gate_enforced {
        "enforced"
    } else {
        "skipped: smoke mode"
    };
    println!(
        "eval kernel (8x8, 4 contexts, cmp16..cmp13, {MAX_LANES} lanes, {ops} ops/4-ctx sweep):\n  \
         interpreter: {interp_us:.2} µs/4-ctx sweep ({interp_ns_per_op:.2} ns/op)\n  \
         kernel:      {kernel_us:.2} µs/4-ctx sweep ({kernel_ns_per_op:.2} ns/op)\n  \
         speedup: {speedup:.2}x (gate: kernel <= interpreter, {gates})\n  \
         kernel, 1 word: {kernel_1word_us:.2} µs/4-ctx sweep = {one_word_ratio:.2}x the 4-word \
         sweep (gate: <= {ONE_WORD_MAX_RATIO}, {gates})\n  \
         dirty-cone mix: {mix_skipped}/{mix_total} ops skipped ({:.1}% hit rate)\n  \
         state per plane: kernel {kernel_bytes} B, interpreter arena {arena_bytes} B",
        hit_rate * 100.0,
    );
    if gate_enforced {
        assert!(
            kernel_us <= interp_us,
            "straight-line kernel ({kernel_us:.2} µs) slower than the branchy \
             interpreter ({interp_us:.2} µs) on the reference workload"
        );
        assert!(
            one_word_ratio <= ONE_WORD_MAX_RATIO,
            "a one-word kernel sweep ({kernel_1word_us:.2} µs) costs {one_word_ratio:.2}x \
             a four-word one ({kernel_us:.2} µs): sparse passes are paying for empty words"
        );
    }
    assert!(
        hit_rate > 0.4,
        "the repeat-heavy mix must skip a substantial share of ops \
         (got {:.1}%)",
        hit_rate * 100.0
    );
    if smoke() {
        println!("MCFPGA_BENCH_SMOKE set: skipping the artifact and wall-clock sampling");
        return;
    }

    let json = write_bench_json(
        "eval_kernel",
        &[
            ("ops_per_sweep", ops.into()),
            ("lanes", MAX_LANES.into()),
            ("contexts", contexts.into()),
            ("interpreter_us_per_sweep", interp_us.into()),
            ("kernel_us_per_sweep", kernel_us.into()),
            ("kernel_1word_us_per_sweep", kernel_1word_us.into()),
            ("kernel_1word_ratio", one_word_ratio.into()),
            ("interpreter_ns_per_op", interp_ns_per_op.into()),
            ("kernel_ns_per_op", kernel_ns_per_op.into()),
            ("kernel_speedup", speedup.into()),
            ("dirty_mix_sweeps", (MIX_SWEEPS * contexts).into()),
            ("dirty_mix_ops_total", mix_total.into()),
            ("dirty_mix_ops_skipped", mix_skipped.into()),
            ("dirty_cone_hit_rate", hit_rate.into()),
            ("kernel_state_bytes_per_plane", kernel_bytes.into()),
            ("interpreter_state_bytes_per_plane", arena_bytes.into()),
        ],
    )
    .expect("write BENCH_eval_kernel.json");
    println!("wrote {}", json.display());

    let bounds: Vec<_> = (0..contexts)
        .map(|ctx| compiled.bind(ctx).expect("bind"))
        .collect();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let chunks: Vec<Vec<LaneChunk>> = bounds
        .iter()
        .map(|b| b.inputs().iter().map(|_| random_chunk(&mut rng)).collect())
        .collect();
    // one state across the four planes: each pass finds another plane's
    // sweep there and runs in full
    c.bench_function("fabric/kernel_4ctx_256lane_sweep", |b| {
        let mut st = compiled.new_state();
        let mut outs = Vec::new();
        b.iter(|| {
            for (bound, c) in bounds.iter().zip(&chunks) {
                let s = compiled
                    .eval_bound_into(bound, c, LANE_WORDS, &mut st, &mut outs)
                    .expect("eval");
                assert_eq!(s.ops_skipped, 0, "a timed kernel pass reused a sweep");
                black_box(s);
            }
        });
    });

    c.bench_function("fabric/interpreter_4ctx_256lane_sweep", |b| {
        let mut st = compiled.new_state();
        let mut outs = Vec::new();
        b.iter(|| {
            for (bound, c) in bounds.iter().zip(&chunks) {
                let s = compiled
                    .eval_bound_reference(bound, c, LANE_WORDS, &mut st, &mut outs)
                    .expect("eval");
                black_box(s);
            }
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
