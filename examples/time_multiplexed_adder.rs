//! Time-multiplexed execution on the multi-context fabric (the Trimberger
//! use case the paper's introduction assumes).
//!
//! A 4-bit ripple-carry adder is temporally partitioned into four stages,
//! each mapped into its own context of one small fabric; executing a "user
//! cycle" runs the contexts back to back, carrying values through the
//! context register file. The result is checked against the netlist golden
//! model, and the configuration is round-tripped through the bitstream.
//!
//! ```text
//! cargo run --example time_multiplexed_adder
//! ```

use mcfpga::fabric::compiled::{pack_lanes, CompiledFabric, LANES};
use mcfpga::fabric::netlist_ir::generators;
use mcfpga::fabric::temporal::{execute, execute_compiled, implement, partition};
use mcfpga::fabric::{bitstream, context};
use mcfpga::prelude::*;

fn main() {
    const WIDTH: usize = 4;
    let nl = generators::ripple_adder(WIDTH).expect("adder netlist");
    println!(
        "netlist: {} LUTs, depth {} — partitioning into 4 contexts\n",
        nl.lut_count(),
        nl.depth()
    );

    let part = partition(&nl, 4).expect("temporal partition");
    for (s, stage) in part.stages.iter().enumerate() {
        println!(
            "stage {s}: {} LUTs, {} outputs ({} register writes)",
            stage.lut_count(),
            stage.outputs().len(),
            stage
                .outputs()
                .iter()
                .filter(|(n, _)| n.starts_with("reg:"))
                .count()
        );
    }

    let mut fabric = Fabric::new(FabricParams {
        width: 5,
        height: 5,
        channel_width: 3,
        ..FabricParams::default()
    })
    .expect("fabric");
    let designs = implement(&mut fabric, &part, 2024).expect("map all stages");
    let wl: usize = designs.iter().map(|d| d.wirelength).sum();
    println!(
        "\nmapped {} stages, total wirelength {wl} hops",
        designs.len()
    );

    // Exhaustive check against the golden model: compile once, then run
    // all 256 (a, b) pairs as four 64-lane batches — lane l of batch k is
    // the pair with index 64k + l (a = low nibble, b = high nibble).
    let compiled = CompiledFabric::compile(&fabric).expect("compile");
    let mut checked = 0;
    for batch in 0..4u64 {
        let mut ins: Vec<(String, u64)> = Vec::new();
        for i in 0..WIDTH {
            let idx = |lane: usize| batch * LANES as u64 + lane as u64;
            ins.push((
                format!("a{i}"),
                pack_lanes(|lane| ((idx(lane) & 0xF) >> i) & 1 == 1),
            ));
            ins.push((
                format!("b{i}"),
                pack_lanes(|lane| ((idx(lane) >> 4) >> i) & 1 == 1),
            ));
        }
        ins.push(("cin".into(), 0));
        let ins_ref: Vec<(&str, u64)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let out = execute_compiled(&compiled, &part, &ins_ref).expect("execute");
        for lane in 0..LANES as u64 {
            let idx = batch * LANES as u64 + lane;
            let (a, b) = ((idx & 0xF) as u32, (idx >> 4) as u32);
            let mut got = 0u32;
            for (name, v) in &out {
                if (v >> lane) & 1 == 0 {
                    continue;
                }
                if let Some(i) = name.strip_prefix('s') {
                    got |= 1 << i.parse::<u32>().expect("sum index");
                } else if name == "cout" {
                    got |= 1 << WIDTH;
                }
            }
            assert_eq!(got, a + b, "a={a} b={b}");
            checked += 1;
        }
    }
    println!(
        "exhaustively verified {checked} input pairs against the golden model \
         (4 bit-parallel batches)"
    );

    // Bitstream round-trip.
    let bits = bitstream::pack(&fabric).expect("pack");
    println!(
        "\nbitstream: {} bytes for all 4 configuration planes",
        bits.len()
    );
    let restored = bitstream::unpack(&bits).expect("unpack");
    let out = execute(
        &restored,
        &part,
        &[
            ("a0", true),
            ("a1", false),
            ("a2", false),
            ("a3", false),
            ("b0", true),
            ("b1", false),
            ("b2", false),
            ("b3", false),
            ("cin", false),
        ],
    )
    .expect("execute restored");
    println!("restored fabric computes 1+1: {out:?}");

    // Context-switch energy per architecture: build each CSS generator
    // once, then replay any number of user cycles through it for free.
    let p = TechParams::default();
    println!("\ncontext-switch cost of one user cycle (and 1000 cycles):");
    for arch in ArchKind::all() {
        let mut seq = context::ContextSequencer::new(arch, 4).expect("sequencer");
        let one = seq
            .replay(&Schedule::round_robin(4, 1).expect("schedule"), &p)
            .expect("replay");
        let thousand = seq
            .replay(&Schedule::round_robin(4, 1000).expect("schedule"), &p)
            .expect("replay");
        println!(
            "  {:<28} {:>3} wire toggles, {:.2e} J  ({:>5} toggles, {:.2e} J over 1000)",
            arch.label(),
            one.wire_toggles,
            one.dynamic_energy_j,
            thousand.wire_toggles,
            thousand.dynamic_energy_j
        );
    }
}
