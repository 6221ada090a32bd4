//! X1 — scaling sweeps: transistor counts and latency vs context count and
//! block size (the quantitative form of the paper's "high scalability"),
//! plus compiled-engine throughput vs fabric geometry — the measurement
//! that keeps future scaling PRs honest about simulation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcfpga_core::timing::TimingParams;
use mcfpga_cost::sweep;
use mcfpga_fabric::compiled::CompiledFabric;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::route::implement_netlist_robust;
use mcfpga_fabric::{Fabric, FabricParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// Square fabric of side `n` with a parity tree mapped in context 0.
fn parity_fabric(n: usize) -> Fabric {
    let mut fabric = Fabric::new(FabricParams {
        width: n,
        height: n,
        channel_width: 4,
        ..FabricParams::default()
    })
    .expect("fabric");
    let nl = generators::parity_tree(8).unwrap();
    implement_netlist_robust(&mut fabric, &nl, 0, 2024, 32).expect("maps");
    fabric
}

fn bench(c: &mut Criterion) {
    println!("{}", mcfpga_bench::scaling_report());
    println!("{}", mcfpga_bench::latency_report());
    c.bench_function("scaling/contexts_sweep", |b| {
        b.iter(|| black_box(sweep::contexts_sweep(&sweep::STANDARD_CONTEXTS)));
    });
    c.bench_function("scaling/sb_size_sweep", |b| {
        let ks: Vec<usize> = (1..=64).collect();
        b.iter(|| black_box(sweep::sb_size_sweep(&ks, 4)));
    });
    c.bench_function("scaling/latency_sweep", |b| {
        let p = TimingParams::default();
        b.iter(|| black_box(sweep::latency_sweep(&sweep::STANDARD_CONTEXTS, &p)));
    });

    // compiled engine throughput per 64-vector batch as the grid grows
    let mut g = c.benchmark_group("scaling/compiled_batch_eval");
    for n in [4usize, 8, 12] {
        let fabric = parity_fabric(n);
        let compiled = CompiledFabric::compile(&fabric).unwrap();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let lanes: Vec<(String, u64)> = (0..8)
            .map(|i| (format!("x{i}"), rng.random_range(0..u64::MAX)))
            .collect();
        let ins: Vec<(&str, u64)> = lanes.iter().map(|(s, v)| (s.as_str(), *v)).collect();
        let mut st = compiled.new_state();
        g.bench_function(BenchmarkId::from_parameter(format!("{n}x{n}")), |b| {
            b.iter(|| black_box(compiled.eval_batch_into(0, &ins, &mut st).unwrap()));
        });
    }
    g.finish();

    // compile cost as the grid grows (paid once, amortized over batches)
    let mut g = c.benchmark_group("scaling/compile_cost");
    for n in [4usize, 8, 12] {
        let fabric = parity_fabric(n);
        g.bench_function(BenchmarkId::from_parameter(format!("{n}x{n}")), |b| {
            b.iter(|| black_box(CompiledFabric::compile(&fabric).unwrap()));
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench
}
criterion_main!(benches);
