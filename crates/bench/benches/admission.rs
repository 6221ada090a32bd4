//! X8 — what admitting a tenant costs on the 8×8 / channel-width-6
//! reference fabric: annealing placement, maze routing and compiling the
//! routed plane, per reference design, at the service's own per-slot
//! seed.
//!
//! Acceptance (asserted, runs in CI): every reference design admitted
//! into every context of the fabric lands on its pinned configuration
//! digest and wirelength — the placer and router are deterministic, and
//! plane-cache keys, checkpoint digests and every response downstream
//! depend on them deciding exactly as before. The full table (three seed
//! bases, placement hashes, a congested geometry) is pinned in
//! `crates/fabric/tests/golden_route.rs`.
//!
//! Writes `BENCH_admission.json` with place, route and compile µs per
//! design. Set `MCFPGA_BENCH_SMOKE=1` to run only the digest gate and
//! skip all timing — the mode CI uses on every push.

use criterion::{criterion_group, criterion_main, Criterion};
use mcfpga_bench::{smoke, time_us, write_bench_json, BenchValue};
use mcfpga_fabric::netlist_ir::{generators, LogicNetlist};
use mcfpga_fabric::place::place_luts;
use mcfpga_fabric::route::{implement_netlist, implement_netlist_robust};
use mcfpga_fabric::{CompiledFabric, Fabric, FabricParams};
use std::hint::black_box;

/// The service's per-slot seed base: context `ctx` is routed with seed
/// `SLOT_SEED + ctx`.
const SLOT_SEED: u64 = 0x5EED_0000;
/// The service's placement-seed retries.
const ATTEMPTS: usize = 16;

fn reference_params() -> FabricParams {
    FabricParams {
        width: 8,
        height: 8,
        channel_width: 6,
        ..FabricParams::default()
    }
}

/// Per context, the `(digest, wirelength)` an admission at
/// `SLOT_SEED + ctx` must reproduce.
type Golden = [(u64, usize); 4];

/// The reference designs with their pinned admissions.
fn designs() -> [(&'static str, LogicNetlist, Golden); 4] {
    [
        (
            "cmp16",
            generators::equality_comparator(16).unwrap(),
            [
                (0xeed935bbc7dc1d90, 240),
                (0xcda50379251cbcb5, 255),
                (0xe4158b620b0c22a6, 276),
                (0x297b3b86a72d6596, 288),
            ],
        ),
        (
            "add8",
            generators::ripple_adder(8).unwrap(),
            [
                (0xb48782cff4a2f9ff, 170),
                (0xecc2e13a9af7a34e, 180),
                (0x4d276a2627789ba4, 223),
                (0x7b2716e5c59c0008, 227),
            ],
        ),
        (
            "cmp12",
            generators::equality_comparator(12).unwrap(),
            [
                (0x0e7c098a95127bb9, 180),
                (0xd0547b312c601ea8, 181),
                (0xdfad6e3e76c6e90f, 197),
                (0xd7a944dcadb22296, 204),
            ],
        ),
        (
            "add6",
            generators::ripple_adder(6).unwrap(),
            [
                (0x43fa2dea9db671d9, 126),
                (0xfff7d38291a47999, 172),
                (0x6bc93493dd18fbab, 158),
                (0xa51708e0833af96f, 153),
            ],
        ),
    ]
}

/// The asserted acceptance pass: every design, every context, its
/// pinned digest and wirelength.
fn acceptance() {
    for (name, netlist, golden) in designs() {
        let mut fabric = Fabric::new(reference_params()).unwrap();
        for (ctx, &(digest, wirelength)) in golden.iter().enumerate() {
            let seed = SLOT_SEED + ctx as u64;
            let d = implement_netlist_robust(&mut fabric, &netlist, ctx, seed, ATTEMPTS).unwrap();
            let got = (fabric.context_digest(ctx).unwrap(), d.wirelength);
            assert_eq!(
                got,
                (digest, wirelength),
                "{name} in ctx {ctx} moved: digest {:#018x}, wirelength {}",
                got.0,
                got.1
            );
        }
        println!("{name}: 4 contexts on their pinned digests");
    }
}

/// Mean µs of placement, place+route and compile of one design into
/// context 0 (seed `SLOT_SEED`), the context cleared before each route.
fn time_design(netlist: &LogicNetlist, iters: usize) -> (f64, f64, f64) {
    let params = reference_params();
    let place_us = time_us(iters, || {
        black_box(place_luts(netlist, &params, SLOT_SEED).unwrap().len());
    });
    let mut fabric = Fabric::new(params).unwrap();
    let implement_us = time_us(iters, || {
        fabric.clear_context(0).unwrap();
        black_box(implement_netlist(&mut fabric, netlist, 0, SLOT_SEED).unwrap());
    });
    let compile_us = time_us(iters, || {
        black_box(CompiledFabric::compile_context(&fabric, 0).unwrap());
    });
    (place_us, implement_us - place_us, compile_us)
}

/// Per-design place/route/compile latencies — the machine-readable
/// admission trajectory.
fn write_artifact() {
    const ITERS: usize = 50;
    let mut fields: Vec<(String, BenchValue)> = Vec::new();
    let mut total_us = 0.0;
    for (name, netlist, _) in designs() {
        let (place_us, route_us, compile_us) = time_design(&netlist, ITERS);
        println!(
            "{name}: place {place_us:.0} us, route {route_us:.0} us, compile {compile_us:.0} us"
        );
        total_us += place_us + route_us + compile_us;
        fields.push((format!("{name}_place_us"), place_us.into()));
        fields.push((format!("{name}_route_us"), route_us.into()));
        fields.push((format!("{name}_compile_us"), compile_us.into()));
    }
    let mean_us = total_us / designs().len() as f64;
    println!("mean admission (place + route + compile): {mean_us:.0} us");
    fields.push(("mean_admission_us".into(), mean_us.into()));
    let json = write_bench_json("admission", &fields).expect("write BENCH_admission.json");
    println!("wrote {}", json.display());
}

fn bench(c: &mut Criterion) {
    acceptance();
    if smoke() {
        println!("MCFPGA_BENCH_SMOKE set: skipping wall-clock sampling");
        return;
    }
    write_artifact();

    let mut group = c.benchmark_group("admission");
    group.sample_size(20);
    let params = reference_params();
    for (name, netlist, _) in designs() {
        group.bench_function(format!("place_{name}"), |b| {
            b.iter(|| black_box(place_luts(&netlist, &params, SLOT_SEED).unwrap().len()));
        });
        group.bench_function(format!("place_and_route_{name}"), |b| {
            let mut fabric = Fabric::new(params).unwrap();
            b.iter(|| {
                fabric.clear_context(0).unwrap();
                black_box(implement_netlist(&mut fabric, &netlist, 0, SLOT_SEED).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
