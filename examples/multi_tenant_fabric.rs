//! Multi-tenant fabric: four *different* applications resident at once,
//! one per context — the "switch personalities in one cycle" use case that
//! motivates multi-context FPGAs in the first place.
//!
//! Context 0: 4-bit parity (error detection)
//! Context 1: 4-way multiplexer (datapath steering)
//! Context 2: 4-bit equality comparator (tag match)
//! Context 3: 4-input popcount (counting)
//!
//! The fabric is **compiled once** into dense per-context planes, then a
//! CSS-driven schedule cycles the tenants while each query runs 64 input
//! vectors per bit-parallel pass. Per-context utilization, compiled-plane
//! shape and the area/power bill per switch architecture follow.
//!
//! ```text
//! cargo run --example multi_tenant_fabric
//! ```

use mcfpga::core::ArchKind;
use mcfpga::fabric::compiled::{pack_lanes, CompiledFabric, LANES};
use mcfpga::fabric::context::{run_schedule, ContextSequencer};
use mcfpga::fabric::netlist_ir::generators;
use mcfpga::fabric::route::implement_netlist;
use mcfpga::fabric::{power, stats};
use mcfpga::prelude::*;

fn main() {
    let mut fabric = Fabric::new(FabricParams {
        width: 5,
        height: 5,
        channel_width: 3,
        ..FabricParams::default()
    })
    .expect("fabric");

    // Four tenants, four contexts.
    let tenants = [
        ("parity", generators::parity_tree(4).expect("parity")),
        ("mux4", generators::mux_tree(2).expect("mux")),
        ("compare", generators::equality_comparator(4).expect("cmp")),
        ("popcount", generators::popcount4().expect("popcount")),
    ];
    for (ctx, (name, nl)) in tenants.iter().enumerate() {
        let d = implement_netlist(&mut fabric, nl, ctx, 0x5EED + ctx as u64).expect("map tenant");
        println!(
            "ctx {ctx}: tenant '{name}' — {} LUTs, wirelength {} hops",
            nl.lut_count(),
            d.wirelength
        );
    }

    // Compile once: every context plane flattened and levelized.
    let compiled = CompiledFabric::compile(&fabric).expect("compile");
    let mut scratch = compiled.new_state();

    // Single queries through the batch engine (lane 0 carries the vector).
    println!("\ncycling contexts over shared input pads:");

    let out = compiled
        .eval_batch_into(
            0,
            &[
                ("x0", u64::from(true)),
                ("x1", u64::from(true)),
                ("x2", u64::from(false)),
                ("x3", u64::from(true)),
            ],
            &mut scratch,
        )
        .expect("parity");
    println!("  ctx 0 parity(1101)   → {}", out[0].1 & 1 == 1);

    let out = compiled
        .eval_batch_into(
            1,
            &[
                ("d0", u64::from(false)),
                ("d1", u64::from(false)),
                ("d2", u64::from(true)),
                ("d3", u64::from(false)),
                ("sel0", u64::from(false)),
                ("sel1", u64::from(true)),
            ],
            &mut scratch,
        )
        .expect("mux");
    println!("  ctx 1 mux(sel=2)     → {}", out[0].1 & 1 == 1);

    let out = compiled
        .eval_batch_into(
            2,
            &[
                ("a0", u64::from(true)),
                ("a1", u64::from(false)),
                ("a2", u64::from(true)),
                ("a3", u64::from(false)),
                ("b0", u64::from(true)),
                ("b1", u64::from(false)),
                ("b2", u64::from(true)),
                ("b3", u64::from(false)),
            ],
            &mut scratch,
        )
        .expect("compare");
    println!("  ctx 2 eq(0b0101, 0b0101) → {}", out[0].1 & 1 == 1);

    let out = compiled
        .eval_batch_into(
            3,
            &[
                ("x0", u64::from(true)),
                ("x1", u64::from(true)),
                ("x2", u64::from(true)),
                ("x3", u64::from(false)),
            ],
            &mut scratch,
        )
        .expect("popcount");
    let count = out.iter().fold(0u32, |acc, (n, v)| {
        if *v & 1 == 1 {
            acc | 1 << n.strip_prefix('c').unwrap().parse::<u32>().unwrap()
        } else {
            acc
        }
    });
    println!("  ctx 3 popcount(1110) → {count}");

    // Batch mode: all 16 parity input vectors in one bit-parallel pass.
    let lanes: Vec<(String, u64)> = (0..4)
        .map(|i| (format!("x{i}"), pack_lanes(|v| v < 16 && (v >> i) & 1 == 1)))
        .collect();
    let ins: Vec<(&str, u64)> = lanes.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let batch = compiled
        .eval_batch_into(0, &ins, &mut scratch)
        .expect("batch parity");
    println!(
        "\nbatch query: parity of all 16 vectors in one {LANES}-lane pass → {:#06x}",
        batch[0].1 & 0xFFFF
    );

    // A CSS-driven schedule sweeping the tenants, energy accounted.
    let mut seq = ContextSequencer::new(ArchKind::Hybrid, 4).expect("sequencer");
    let sched = Schedule::round_robin(4, 2).expect("schedule");
    let union: Vec<(&str, u64)> = vec![
        ("x0", !0),
        ("x1", 0),
        ("x2", !0),
        ("x3", 0),
        ("d0", 0),
        ("d1", !0),
        ("d2", 0),
        ("d3", 0),
        ("sel0", !0),
        ("sel1", 0),
        ("a0", !0),
        ("a1", 0),
        ("a2", !0),
        ("a3", 0),
        ("b0", !0),
        ("b1", 0),
        ("b2", !0),
        ("b3", 0),
    ];
    let run = run_schedule(&compiled, &mut seq, &sched, &union, &TechParams::default())
        .expect("schedule run");
    println!(
        "schedule run: {} steps, {} switches, {} broadcast toggles, {:.3e} J",
        run.stats.steps, run.stats.switches, run.stats.wire_toggles, run.stats.dynamic_energy_j
    );

    // Utilization and compiled shape per plane.
    println!("\nutilization per configuration plane:");
    let st = stats::all_context_stats(&fabric).expect("stats");
    print!("{}", stats::render_stats(&st));
    println!("\ncompiled planes:");
    let cs = stats::compiled_stats(&compiled).expect("compiled stats");
    print!("{}", stats::render_compiled_stats(&cs));

    // What this residency costs in routing silicon, per architecture.
    println!("\nrouting silicon for this 5×5 fabric:");
    for arch in ArchKind::all() {
        let f = Fabric::new(FabricParams {
            width: 5,
            height: 5,
            channel_width: 3,
            arch,
            ..FabricParams::default()
        })
        .expect("fabric");
        let rep = power::routing_power(&f, &TechParams::default());
        println!(
            "  {:<28} {:>8} transistors, {:>10.3e} W static",
            arch.label(),
            rep.routing_transistors,
            rep.static_power_w
        );
    }
}
