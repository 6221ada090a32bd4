//! Kernel accounting: the [`EvalStats`] a kernel pass reports for the
//! four reference tenant designs, routed the way the service admits
//! them, pinned to constants.
//!
//! `fabric_ops_total` and `fabric_ops_skipped` are deterministic service
//! counters, published in every metric snapshot. They count the ops of
//! the compiled plane a pass stands for, so a faster kernel must report
//! exactly these numbers whatever it executes. Never re-pin them
//! silently.

use mcfpga_fabric::compiled::{CompiledFabric, LaneChunk, LANE_WORDS};
use mcfpga_fabric::netlist_ir::{generators, LogicNetlist};
use mcfpga_fabric::route::implement_netlist_robust;
use mcfpga_fabric::{Fabric, FabricParams};

/// The service's per-slot seed base: a slot in context `ctx` is routed
/// with seed `SLOT_SEED + ctx`.
const SLOT_SEED: u64 = 0x5EED_0000;
/// The service's placement-seed retries.
const ATTEMPTS: usize = 16;

/// The reference fabric: 8×8 tiles, channel width 6, 4 contexts.
fn reference() -> FabricParams {
    FabricParams {
        width: 8,
        height: 8,
        channel_width: 6,
        ..FabricParams::default()
    }
}

/// The four reference tenant designs.
fn designs() -> [(&'static str, LogicNetlist); 4] {
    [
        ("cmp16", generators::equality_comparator(16).unwrap()),
        ("add8", generators::ripple_adder(8).unwrap()),
        ("cmp12", generators::equality_comparator(12).unwrap()),
        ("add6", generators::ripple_adder(6).unwrap()),
    ]
}

/// `(design, ctx, ops_total, ops_skipped after input 0 changes,
/// ops_skipped after the last input changes)`.
#[rustfmt::skip]
const GOLDEN: [(&str, usize, u64, u64, u64); 16] = [
    ("cmp16", 0, 209, 194, 194),
    ("cmp16", 1, 224, 210, 206),
    ("cmp16", 2, 245, 221, 231),
    ("cmp16", 3, 257, 233, 235),
    ("add8",  0, 138,  87,  91),
    ("add8",  1, 148,  97, 101),
    ("add8",  2, 191, 138, 136),
    ("add8",  3, 195, 146, 144),
    ("cmp12", 0, 157, 140, 140),
    ("cmp12", 1, 158, 138, 144),
    ("cmp12", 2, 174, 158, 162),
    ("cmp12", 3, 181, 161, 169),
    ("add6",  0, 102,  64,  67),
    ("add6",  1, 148, 106, 110),
    ("add6",  2, 134,  95,  97),
    ("add6",  3, 129,  89,  89),
];

/// Admits `netlist` into context `ctx` the way the service does and
/// returns `(ops_total, skipped after input 0 changes, skipped after the
/// last input changes)`, checking every pass against the interpreter.
fn measure(netlist: &LogicNetlist, ctx: usize) -> (u64, u64, u64) {
    let mut fabric = Fabric::new(reference()).unwrap();
    implement_netlist_robust(&mut fabric, netlist, ctx, SLOT_SEED + ctx as u64, ATTEMPTS).unwrap();
    let compiled = CompiledFabric::compile_context(&fabric, ctx).unwrap();
    let bound = compiled.bind(ctx).unwrap();
    let mut chunks: Vec<LaneChunk> = (0..bound.inputs().len() as u64)
        .map(|i| std::array::from_fn(|w| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> w))
        .collect();
    let mut st = compiled.new_state();
    let mut outs = Vec::new();
    let mut pass = |chunks: &[LaneChunk]| {
        let stats = compiled
            .eval_bound_into(&bound, chunks, LANE_WORDS, &mut st, &mut outs)
            .unwrap();
        let mut want = Vec::new();
        compiled
            .eval_bound_reference(
                &bound,
                chunks,
                LANE_WORDS,
                &mut compiled.new_state(),
                &mut want,
            )
            .unwrap();
        assert_eq!(outs, want, "kernel diverged from the interpreter");
        stats
    };
    let full = pass(&chunks);
    assert_eq!(full.ops_skipped, 0);
    chunks[0][0] ^= 0xF0F0;
    let first = pass(&chunks);
    let last = chunks.len() - 1;
    chunks[last][1] ^= 0x0FF0;
    let tail = pass(&chunks);
    for stats in [first, tail] {
        assert_eq!(stats.ops_total, full.ops_total);
    }
    (full.ops_total, first.ops_skipped, tail.ops_skipped)
}

#[test]
fn kernel_op_counts_match_the_pinned_plane_counts() {
    let designs = designs();
    let mut got = Vec::new();
    for (name, netlist) in &designs {
        for ctx in 0..reference().contexts {
            let (total, first, tail) = measure(netlist, ctx);
            got.push((*name, ctx, total, first, tail));
        }
    }
    assert_eq!(got, GOLDEN);
}
