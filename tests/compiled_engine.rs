//! Integration: the compiled bit-parallel engine through the public facade
//! — compile → batch-evaluate → schedule-replay, cross-checked against the
//! golden netlist model and the reference fixpoint sweep.

use mcfpga::core::ArchKind;
use mcfpga::fabric::compiled::{pack_lanes, CompiledFabric, LANES};
use mcfpga::fabric::context::{replay_schedule, run_schedule, ContextSequencer};
use mcfpga::fabric::netlist_ir::generators;
use mcfpga::fabric::route::implement_netlist;
use mcfpga::fabric::sim::evaluate_fixpoint;
use mcfpga::fabric::{bitstream, stats};
use mcfpga::prelude::*;

fn fabric(w: usize, h: usize, ch: usize) -> Fabric {
    Fabric::new(FabricParams {
        width: w,
        height: h,
        channel_width: ch,
        ..FabricParams::default()
    })
    .unwrap()
}

/// Exhaustive 8-input parity: 256 vectors in four 64-lane batches, checked
/// against the netlist golden model.
#[test]
fn parity8_exhaustive_in_four_batches() {
    let nl = generators::parity_tree(8).unwrap();
    let mut f = fabric(4, 4, 3);
    implement_netlist(&mut f, &nl, 0, 11).unwrap();
    let compiled = CompiledFabric::compile(&f).unwrap();
    for batch in 0..4u64 {
        // lane l carries vector 64*batch + l
        let ins: Vec<(String, u64)> = (0..8)
            .map(|i| {
                let lanes = pack_lanes(|l| ((batch * LANES as u64 + l as u64) >> i) & 1 == 1);
                (format!("x{i}"), lanes)
            })
            .collect();
        let ins_ref: Vec<(&str, u64)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let out = compiled
            .eval_batch_into(0, &ins_ref, &mut compiled.new_state())
            .unwrap();
        for l in 0..LANES as u64 {
            let v = batch * LANES as u64 + l;
            let want = (0..8).filter(|i| (v >> i) & 1 == 1).count() % 2 == 1;
            assert_eq!((out[0].1 >> l) & 1 == 1, want, "vector {v}");
        }
    }
}

/// The compiled engine survives a bitstream round-trip: packing and
/// unpacking a configured fabric yields an identical compiled plane.
#[test]
fn bitstream_roundtrip_preserves_compiled_behaviour() {
    let nl = generators::ripple_adder(2).unwrap();
    let mut f = fabric(4, 4, 3);
    implement_netlist(&mut f, &nl, 1, 23).unwrap();
    let restored = bitstream::unpack(&bitstream::pack(&f).unwrap()).unwrap();
    let a = CompiledFabric::compile(&f).unwrap();
    let b = CompiledFabric::compile(&restored).unwrap();
    let names = ["a0", "a1", "b0", "b1", "cin"];
    let ins: Vec<(&str, u64)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (*n, 0xA5A5_5A5A_DEAD_BEEFu64.rotate_left(i as u32 * 7)))
        .collect();
    assert_eq!(
        a.eval_batch_into(1, &ins, &mut a.new_state()).unwrap(),
        b.eval_batch_into(1, &ins, &mut b.new_state()).unwrap()
    );
}

/// Driving a schedule through compiled planes matches plain replay energy
/// accounting for every architecture, and executes the right tenant.
#[test]
fn schedule_execution_matches_replay_accounting() {
    let mut f = fabric(4, 4, 3);
    implement_netlist(&mut f, &generators::parity_tree(4).unwrap(), 0, 3).unwrap();
    implement_netlist(&mut f, &generators::wire_lanes(2).unwrap(), 2, 5).unwrap();
    let compiled = CompiledFabric::compile(&f).unwrap();
    let sched = Schedule::explicit(4, vec![0, 2, 2, 0, 2]).unwrap();
    let p = TechParams::default();
    let inputs = [
        ("x0", 0b1010u64),
        ("x1", 0b1100),
        ("x2", 0),
        ("x3", 0b1111),
        ("in0", 0xF0F0),
        ("in1", 0x1234),
    ];
    for arch in ArchKind::all() {
        let mut seq = ContextSequencer::new(arch, 4).unwrap();
        let run = run_schedule(&compiled, &mut seq, &sched, &inputs, &p).unwrap();
        let plain = replay_schedule(arch, 4, &sched, &p).unwrap();
        assert_eq!(run.stats, plain, "{arch:?}");
        assert_eq!(run.steps.len(), 5);
        // step 1 runs the wire lanes of ctx 2
        let outs: &Vec<(String, u64)> = &run.steps[1].1;
        let mut sorted = outs.clone();
        sorted.sort();
        assert_eq!(sorted[0], ("out0".to_string(), 0xF0F0));
        assert_eq!(sorted[1], ("out1".to_string(), 0x1234));
        // step 0 parity agrees with the reference sweep per lane
        let parity = &run.steps[0].1[0];
        for lane in 0..4 {
            let scalar: Vec<(&str, bool)> = inputs[..4]
                .iter()
                .map(|(n, v)| (*n, (v >> lane) & 1 == 1))
                .collect();
            let (want, _) = evaluate_fixpoint(&f, 0, &scalar).unwrap();
            assert_eq!((parity.1 >> lane) & 1 == 1, want[0].1, "lane {lane}");
        }
    }
}

/// Compiled-plane stats surface the engine mode through the facade.
#[test]
fn compiled_stats_through_facade() {
    let mut f = fabric(4, 4, 3);
    implement_netlist(&mut f, &generators::parity_tree(4).unwrap(), 0, 3).unwrap();
    let compiled = CompiledFabric::compile(&f).unwrap();
    let st = stats::compiled_stats(&compiled).unwrap();
    assert_eq!(st.len(), 4);
    assert!(st[0].lut_ops == 3 && !st[0].cyclic && st[0].levels > 0);
    assert_eq!(st[3].copy_ops + st[3].lut_ops, 0);
}
