//! X7 — checkpoint/migration cost on the 8×8 / 4-context reference
//! workload: checkpoint wire size, checkpoint+encode latency,
//! end-to-end live-migration latency (`migrate_tenant`: the cached plane
//! shared into the new slot, pending lane batch moved), whole-shard
//! evacuation, and what a node restart costs (a fresh 3-shard service
//! built, an emptied one dropped).
//!
//! Acceptance (asserted, runs in CI): the checkpoint wire round-trips
//! losslessly, a migrated tenant answers bit-for-bit like its
//! never-migrated twin, and a full 64-lane checkpoint stays under 4 KiB —
//! the format ships digests and lane words, never bitstreams or planes.
//!
//! Set `MCFPGA_BENCH_SMOKE=1` to run only the acceptance checks and skip
//! wall-clock sampling — the mode CI uses on every push.

use criterion::{criterion_group, criterion_main, Criterion};
use mcfpga_bench::{smoke, time_us, write_bench_json};
use mcfpga_device::TechParams;
use mcfpga_fabric::compiled::LANES;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricParams;
use mcfpga_migrate::TenantCheckpoint;
use mcfpga_service::{ShardedService, TenantId};
use std::hint::black_box;

fn reference_params() -> FabricParams {
    FabricParams {
        width: 8,
        height: 8,
        channel_width: 4,
        ..FabricParams::default()
    }
}

/// A 3-shard reference pool with a mover and its never-migrated twin,
/// both holding `pending` queued requests of identical vectors.
fn build_pool(pending: usize) -> (ShardedService, TenantId, TenantId, Vec<(String, bool)>) {
    let mut svc = ShardedService::new(3, reference_params(), TechParams::default()).unwrap();
    let parity = generators::parity_tree(8).unwrap();
    let mover = svc.admit("mover", &parity).unwrap();
    let twin = svc.admit("twin", &parity).unwrap();
    let vector: Vec<(String, bool)> = (0..8).map(|i| (format!("x{i}"), i % 2 == 0)).collect();
    let refs: Vec<(&str, bool)> = vector.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    for _ in 0..pending {
        svc.submit(mover, &refs).unwrap();
        svc.submit(twin, &refs).unwrap();
    }
    (svc, mover, twin, vector)
}

/// A reference pool whose tenants were admitted — routing two shards'
/// fabrics — and then retired: what a drained node holds at restart.
fn emptied_pool() -> ShardedService {
    let (mut svc, mover, twin, _) = build_pool(0);
    svc.retire_tenant(mover).unwrap();
    svc.retire_tenant(twin).unwrap();
    svc
}

/// The asserted acceptance pass: lossless wire round-trip, bounded
/// checkpoint size, and output equivalence across a live migration.
fn acceptance() {
    // a checkpoint of a full-but-one lane batch (the 64th would flush)
    let (svc, mover, _, _) = build_pool(LANES - 1);
    let ckpt = svc.checkpoint_tenant(mover).unwrap();
    let wire = ckpt.to_bytes();
    assert_eq!(wire.len(), ckpt.encoded_len());
    assert_eq!(TenantCheckpoint::from_bytes(&wire).unwrap(), ckpt);
    assert_eq!(ckpt.pending.lanes, LANES - 1);
    assert!(
        wire.len() < 4096,
        "checkpoint ballooned to {} bytes — is a bitstream leaking in?",
        wire.len()
    );
    println!(
        "checkpoint: {} pending lanes, {} inputs, {} wire bytes",
        ckpt.pending.lanes,
        ckpt.pending.inputs.len(),
        wire.len()
    );

    // migrate with pending work; the twin is the bit-for-bit oracle
    let (mut svc, mover, twin, _) = build_pool(17);
    let dst = svc.migrate_tenant(mover, 2).unwrap();
    let mut responses = svc.drain().unwrap();
    responses.sort_by_key(|r| r.request);
    let moved: Vec<_> = responses.iter().filter(|r| r.tenant == mover).collect();
    let stayed: Vec<_> = responses.iter().filter(|r| r.tenant == twin).collect();
    assert_eq!(moved.len(), 17);
    assert_eq!(stayed.len(), 17);
    for (m, s) in moved.iter().zip(&stayed) {
        assert_eq!(m.outputs, s.outputs, "migration changed an answer");
    }
    println!(
        "migrated mover -> shard {}, ctx {}; 17 pending requests all answered identically",
        dst.shard, dst.ctx
    );
    let usage = svc.usage(mover).unwrap();
    println!(
        "billed: {} migration, {} wire bytes, {} downtime cycles, {} realignment toggles",
        usage.migrations,
        usage.migration_bytes,
        usage.migration_downtime_cycles,
        usage.migration_css_toggles
    );
}

/// Timed latencies with a plain `Instant` loop (independent of the
/// criterion harness, cheap enough for smoke mode) plus the checkpoint
/// wire size — the machine-readable migration trajectory.
fn write_artifact() {
    const ITERS: usize = 200;
    let (svc, mover, _, _) = build_pool(LANES - 1);
    let ckpt = svc.checkpoint_tenant(mover).unwrap();
    let wire = ckpt.to_bytes();

    let encode_us = time_us(ITERS, || {
        black_box(svc.checkpoint_tenant(mover).unwrap().to_bytes().len());
    });
    let decode_us = time_us(ITERS, || {
        black_box(TenantCheckpoint::from_bytes(&wire).unwrap().pending.lanes);
    });
    let migrate_us = {
        let (mut svc, mover, _, _) = build_pool(31);
        let mut dst = 2usize;
        time_us(ITERS, move || {
            black_box(svc.migrate_tenant(mover, dst).unwrap().ctx);
            dst = if dst == 2 { 1 } else { 2 };
        })
    };

    let restart_us = {
        const RESTARTS: usize = 50;
        let mut emptied: Vec<ShardedService> = (0..RESTARTS).map(|_| emptied_pool()).collect();
        let mut fresh = Vec::with_capacity(RESTARTS);
        time_us(RESTARTS, || {
            let old = emptied.pop().expect("one emptied pool per restart");
            fresh.push(old.fresh_like().unwrap());
            drop(old);
        })
    };

    let json = write_bench_json(
        "migration_latency",
        &[
            ("checkpoint_wire_bytes", wire.len().into()),
            ("checkpoint_pending_lanes", ckpt.pending.lanes.into()),
            ("checkpoint_input_names", ckpt.pending.inputs.len().into()),
            ("encode_latency_us", encode_us.into()),
            ("decode_latency_us", decode_us.into()),
            ("migrate_end_to_end_us", migrate_us.into()),
            ("service_restart_us", restart_us.into()),
        ],
    )
    .expect("write BENCH_migration_latency.json");
    println!("wrote {}", json.display());
}

fn bench(c: &mut Criterion) {
    acceptance();
    write_artifact();
    if smoke() {
        println!("MCFPGA_BENCH_SMOKE set: skipping wall-clock sampling");
        return;
    }

    let mut group = c.benchmark_group("migration_latency");
    group.sample_size(20);

    group.bench_function("checkpoint_encode_63_lanes", |b| {
        let (svc, mover, _, _) = build_pool(LANES - 1);
        b.iter(|| {
            let ckpt = svc.checkpoint_tenant(mover).unwrap();
            black_box(ckpt.to_bytes().len())
        });
    });

    group.bench_function("decode_63_lanes", |b| {
        let (svc, mover, _, _) = build_pool(LANES - 1);
        let wire = svc.checkpoint_tenant(mover).unwrap().to_bytes();
        b.iter(|| black_box(TenantCheckpoint::from_bytes(&wire).unwrap().pending.lanes));
    });

    group.bench_function("migrate_end_to_end", |b| {
        // ping-pong between shards 1 and 2 so every iteration migrates
        let (mut svc, mover, _, _) = build_pool(31);
        let mut dst = 2usize;
        b.iter(|| {
            let placement = svc.migrate_tenant(mover, dst).unwrap();
            dst = if dst == 2 { 1 } else { 2 };
            black_box(placement.ctx)
        });
    });

    group.bench_function("evacuate_shard_end_to_end", |b| {
        let (mut svc, mover, _, _) = build_pool(31);
        // alternate: evacuate wherever the mover currently lives
        b.iter(|| {
            let shard = svc.registry().tenant(mover).unwrap().placement.shard;
            black_box(svc.evacuate_shard(shard).unwrap().len())
        });
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
