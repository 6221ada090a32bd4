//! X4 — fabric-level workload benchmarks.
//!
//! The headline measurement is **interpreted vs compiled** simulation: the
//! legacy fixpoint sweep re-walks the whole tile grid per vector, while the
//! compiled engine flattens each context once and pushes 64 vectors per
//! bit-parallel pass. On the 8×8, 4-context fabric below the compiled
//! engine must amortize to ≥10× faster per vector — the bench prints the
//! measured ratio alongside the Criterion timings.

use criterion::{criterion_group, criterion_main, Criterion};
use mcfpga_core::ArchKind;
use mcfpga_css::Schedule;
use mcfpga_device::TechParams;
use mcfpga_fabric::compiled::{CompiledFabric, LANES};
use mcfpga_fabric::context::{run_schedule, ContextSequencer};
use mcfpga_fabric::netlist_ir::{generators, LogicNetlist};
use mcfpga_fabric::route::implement_netlist_robust;
use mcfpga_fabric::sim::evaluate_fixpoint;
use mcfpga_fabric::temporal::{execute, execute_compiled, implement, partition};
use mcfpga_fabric::{Fabric, FabricParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// 8×8, 4-context fabric with a distinct workload mapped in every context.
/// Returns the fabric plus each context's input signal names.
fn workload_fabric() -> (Fabric, Vec<Vec<String>>) {
    let mut fabric = Fabric::new(FabricParams {
        width: 8,
        height: 8,
        channel_width: 4,
        ..FabricParams::default()
    })
    .expect("8x8 fabric");
    let designs: Vec<LogicNetlist> = vec![
        generators::parity_tree(8).unwrap(),
        generators::ripple_adder(3).unwrap(),
        generators::equality_comparator(3).unwrap(),
        generators::popcount4().unwrap(),
    ];
    let mut input_names = Vec::new();
    for (ctx, nl) in designs.iter().enumerate() {
        implement_netlist_robust(&mut fabric, nl, ctx, 0xC0FFEE + ctx as u64, 32)
            .unwrap_or_else(|e| panic!("ctx {ctx} failed to map: {e}"));
        input_names.push(
            nl.input_ids()
                .into_iter()
                .map(|id| match nl.node(id) {
                    mcfpga_fabric::netlist_ir::Node::Input { name } => name.clone(),
                    _ => unreachable!(),
                })
                .collect(),
        );
    }
    (fabric, input_names)
}

/// 64 random vectors for `names`, both lane-packed and per-vector scalar.
#[allow(clippy::type_complexity)]
fn random_batch(names: &[String], seed: u64) -> (Vec<(String, u64)>, Vec<Vec<(String, bool)>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let lanes: Vec<(String, u64)> = names
        .iter()
        .map(|n| (n.clone(), rng.random_range(0..u64::MAX)))
        .collect();
    let scalars = (0..LANES)
        .map(|lane| {
            lanes
                .iter()
                .map(|(n, v)| (n.clone(), (v >> lane) & 1 == 1))
                .collect()
        })
        .collect();
    (lanes, scalars)
}

/// The acceptance measurement: per-vector amortized time of both engines
/// over all four contexts, printed as a ratio.
fn measure_speedup(fabric: &Fabric, inputs: &[Vec<String>]) -> f64 {
    let reps = 5usize;
    let compiled = CompiledFabric::compile(fabric).expect("compiles");
    let batches: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(ctx, names)| random_batch(names, 0xBEEF + ctx as u64))
        .collect();

    let t0 = Instant::now();
    for _ in 0..reps {
        for (ctx, (_, scalars)) in batches.iter().enumerate() {
            for scalar in scalars {
                let ins: Vec<(&str, bool)> = scalar.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                black_box(evaluate_fixpoint(fabric, ctx, &ins).expect("resolves"));
            }
        }
    }
    let vectors = (reps * batches.len() * LANES) as f64;
    let legacy_per_vec = t0.elapsed().as_secs_f64() / vectors;

    // The compiled side finishes in microseconds, so a fixed rep count would
    // leave the denominator inside scheduler-noise territory; loop until the
    // measurement itself spans a robust wall-clock window.
    let min_elapsed = std::time::Duration::from_millis(50);
    let lane_ins: Vec<Vec<(&str, u64)>> = batches
        .iter()
        .map(|(lanes, _)| lanes.iter().map(|(n, v)| (n.as_str(), *v)).collect())
        .collect();
    let mut st = compiled.new_state();
    let mut compiled_reps = 0usize;
    let t1 = Instant::now();
    while t1.elapsed() < min_elapsed {
        for (ctx, ins) in lane_ins.iter().enumerate() {
            black_box(
                compiled
                    .eval_batch_into(ctx, ins, &mut st)
                    .expect("resolves"),
            );
        }
        compiled_reps += 1;
    }
    let compiled_vectors = (compiled_reps * batches.len() * LANES) as f64;
    let compiled_per_vec = t1.elapsed().as_secs_f64() / compiled_vectors;

    let speedup = legacy_per_vec / compiled_per_vec;
    println!(
        "engine comparison (8x8, 4 contexts, {LANES}-vector batches, per-vector amortized):\n  \
         legacy fixpoint sweep: {:.2} µs/vec\n  \
         compiled bit-parallel: {:.3} µs/vec\n  \
         speedup: {speedup:.1}x (acceptance: >=10x)",
        legacy_per_vec * 1e6,
        compiled_per_vec * 1e6,
    );
    speedup
}

fn bench(c: &mut Criterion) {
    let (fabric, input_names) = workload_fabric();
    let speedup = measure_speedup(&fabric, &input_names);
    assert!(
        speedup >= 10.0,
        "compiled engine only {speedup:.1}x faster than the legacy sweep"
    );

    c.bench_function("fabric/legacy_fixpoint_64vec_8x8", |b| {
        let (_, scalars) = random_batch(&input_names[0], 7);
        b.iter(|| {
            for scalar in &scalars {
                let ins: Vec<(&str, bool)> = scalar.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                black_box(evaluate_fixpoint(&fabric, 0, &ins).unwrap());
            }
        });
    });

    c.bench_function("fabric/compiled_batch_64vec_8x8", |b| {
        let compiled = CompiledFabric::compile(&fabric).unwrap();
        let (lanes, _) = random_batch(&input_names[0], 7);
        let ins: Vec<(&str, u64)> = lanes.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let mut st = compiled.new_state();
        b.iter(|| black_box(compiled.eval_batch_into(0, &ins, &mut st).unwrap()));
    });

    c.bench_function("fabric/compile_8x8_4ctx", |b| {
        b.iter(|| black_box(CompiledFabric::compile(&fabric).unwrap()));
    });

    c.bench_function("fabric/run_schedule_rr16_compiled", |b| {
        let compiled = CompiledFabric::compile(&fabric).unwrap();
        let mut seq = ContextSequencer::new(ArchKind::Hybrid, 4).unwrap();
        let sched = Schedule::round_robin(4, 4).unwrap();
        let p = TechParams::default();
        // shared pads: a signal name bound by several contexts carries the
        // same lanes in every step, so dedup keeps the first assignment
        let mut union: Vec<(String, u64)> = Vec::new();
        for (ctx, names) in input_names.iter().enumerate() {
            for entry in random_batch(names, 0xBEEF + ctx as u64).0 {
                if !union.iter().any(|(n, _)| *n == entry.0) {
                    union.push(entry);
                }
            }
        }
        let ins: Vec<(&str, u64)> = union.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        b.iter(|| black_box(run_schedule(&compiled, &mut seq, &sched, &ins, &p).unwrap()));
    });

    c.bench_function("fabric/map_adder3_4ctx", |b| {
        let nl = generators::ripple_adder(3).unwrap();
        let part = partition(&nl, 4).unwrap();
        b.iter(|| {
            let mut fabric = Fabric::new(FabricParams {
                width: 4,
                height: 4,
                channel_width: 3,
                ..FabricParams::default()
            })
            .unwrap();
            black_box(implement(&mut fabric, &part, 17).unwrap().len())
        });
    });

    c.bench_function("fabric/execute_adder3_4ctx", |b| {
        let nl = generators::ripple_adder(3).unwrap();
        let part = partition(&nl, 4).unwrap();
        let mut fabric = Fabric::new(FabricParams {
            width: 4,
            height: 4,
            channel_width: 3,
            ..FabricParams::default()
        })
        .unwrap();
        implement(&mut fabric, &part, 17).unwrap();
        let ins = vec![
            ("a0", true),
            ("a1", false),
            ("a2", true),
            ("b0", true),
            ("b1", true),
            ("b2", false),
            ("cin", false),
        ];
        // legacy wrapper: pays a full compile per call
        b.iter(|| black_box(execute(&fabric, &part, &ins).unwrap()));
    });

    c.bench_function("fabric/execute_compiled_adder3_4ctx", |b| {
        let nl = generators::ripple_adder(3).unwrap();
        let part = partition(&nl, 4).unwrap();
        let mut fabric = Fabric::new(FabricParams {
            width: 4,
            height: 4,
            channel_width: 3,
            ..FabricParams::default()
        })
        .unwrap();
        implement(&mut fabric, &part, 17).unwrap();
        let compiled = CompiledFabric::compile(&fabric).unwrap();
        let ins: Vec<(&str, u64)> = vec![
            ("a0", !0),
            ("a1", 0),
            ("a2", !0),
            ("b0", !0),
            ("b1", !0),
            ("b2", 0),
            ("cin", 0),
        ];
        // compile-once path: 64 user cycles per call
        b.iter(|| black_box(execute_compiled(&compiled, &part, &ins).unwrap()));
    });

    c.bench_function("fabric/bitstream_roundtrip", |b| {
        let nl = generators::parity_tree(8).unwrap();
        let mut fabric = Fabric::new(FabricParams::default()).unwrap();
        mcfpga_fabric::route::implement_netlist(&mut fabric, &nl, 0, 5).unwrap();
        b.iter(|| {
            let bits = mcfpga_fabric::bitstream::pack(&fabric).unwrap();
            black_box(
                mcfpga_fabric::bitstream::unpack(&bits)
                    .unwrap()
                    .crosspoint_count(),
            )
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
