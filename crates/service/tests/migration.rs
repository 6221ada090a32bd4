//! Live-migration integration: checkpoint/restore/migrate/evacuate against
//! a twin tenant that never moves, asserting bit-for-bit equivalence,
//! request-id conservation, fault-record consistency and billing.

use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::route::implement_netlist;
use mcfpga_fabric::{CompiledFabric, Fabric, FabricError, FabricParams, LogicNetlist};
use mcfpga_service::{
    MigrateError, Outputs, Placement, RequestId, RequestIdSource, ServiceError, ShardedService,
    TenantCheckpoint, TenantId, TenantIdSource,
};
use std::sync::Arc;

fn service(shards: usize) -> ShardedService {
    ShardedService::new(shards, FabricParams::default(), TechParams::default()).unwrap()
}

/// `y = x XOR reg:acc`, `reg:acc = y` — a one-bit stream accumulator:
/// pass `n` answers `y_n = x_n ⊕ y_{n-1}` (lane-aligned state).
fn accumulator() -> LogicNetlist {
    let mut nl = LogicNetlist::new();
    let x = nl.add_input("x");
    let acc = nl.add_input("reg:acc");
    let xor = nl.add_lut("t", &[x, acc], 0b0110).unwrap();
    nl.add_output("y", xor).unwrap();
    nl.add_output("reg:acc", xor).unwrap();
    nl
}

fn parity_inputs(v: u32) -> Vec<(String, bool)> {
    (0..3)
        .map(|i| (format!("x{i}"), (v >> i) & 1 == 1))
        .collect()
}

fn submit3(svc: &mut ShardedService, t: TenantId, v: u32) {
    let owned = parity_inputs(v);
    let refs: Vec<(&str, bool)> = owned.iter().map(|(n, b)| (n.as_str(), *b)).collect();
    svc.submit(t, &refs).unwrap();
}

/// A migrated tenant's pending requests keep their ids and produce
/// exactly the responses a never-migrated twin produces.
#[test]
fn migration_preserves_request_ids_and_outputs() {
    let mut svc = service(3);
    let parity = generators::parity_tree(3).unwrap();
    let mover = svc.admit("mover", &parity).unwrap(); // shard 0
    let twin = svc.admit("twin", &parity).unwrap(); // shard 1

    let vectors = [0b101u32, 0b010, 0b111, 0b001];
    for &v in &vectors {
        submit3(&mut svc, mover, v);
        submit3(&mut svc, twin, v);
    }
    let before = svc.pending_requests();
    let dst = svc.migrate_tenant(mover, 2).unwrap();
    assert_eq!(dst.shard, 2);
    assert_eq!(
        svc.pending_requests(),
        before,
        "migration drops or invents no requests"
    );
    assert_eq!(svc.registry().tenant(mover).unwrap().placement, dst);
    assert_eq!(svc.registry().occupant(0, 0), None, "source slot freed");

    let mut responses = svc.drain().unwrap();
    responses.sort_by_key(|r| r.request);
    assert_eq!(responses.len(), 2 * vectors.len());
    // interleaved submission: even ids are the mover's, odd the twin's
    for pair in responses.chunks(2) {
        assert_eq!(pair[0].tenant, mover);
        assert_eq!(pair[1].tenant, twin);
        assert_eq!(
            pair[0].outputs, pair[1].outputs,
            "migrated tenant must answer bit-for-bit like its twin"
        );
    }
    assert!(svc.take_faults().is_empty());

    // overhead was billed
    let usage = svc.usage(mover).unwrap();
    assert_eq!(usage.migrations, 1);
    assert!(usage.migration_bytes > 0);
    assert_eq!(usage.migration_downtime_cycles, 1 + vectors.len());
    assert_eq!(svc.usage(twin).unwrap().migrations, 0);
    let report = svc.billing_report();
    assert!(report.contains("migr"));
}

/// Stream-register state survives migration: an accumulator continues its
/// stream at the destination exactly where the source left off.
#[test]
fn register_state_travels_with_the_tenant() {
    let mut svc = service(2);
    let acc = accumulator();
    let mover = svc.admit("mover", &acc).unwrap(); // shard 0
    let twin = svc.admit("twin", &acc).unwrap(); // shard 1

    let stream = [true, true, false, true, false, false, true];
    let mut expected = Vec::new();
    let mut state = false;
    for &x in &stream {
        state ^= x;
        expected.push(state);
    }
    // half the stream, then migrate mid-stream, then the rest
    let mut got_mover = Vec::new();
    let mut got_twin = Vec::new();
    for (i, &x) in stream.iter().enumerate() {
        if i == 3 {
            assert_eq!(svc.register_file(mover).unwrap().len(), 1, "state exists");
            svc.migrate_tenant(mover, 1).unwrap();
        }
        svc.submit(mover, &[("x", x)]).unwrap();
        svc.submit(twin, &[("x", x)]).unwrap();
        for r in svc.drain().unwrap() {
            let y = r
                .outputs
                .iter()
                .find(|(n, _)| &**n == "y")
                .expect("reg outputs are state, not answers")
                .1;
            assert!(
                !r.outputs.iter().any(|(n, _)| n.starts_with("reg:")),
                "register values must not leak into responses"
            );
            if r.tenant == mover {
                got_mover.push(y);
            } else {
                got_twin.push(y);
            }
        }
    }
    assert_eq!(got_mover, expected, "stream unbroken across migration");
    assert_eq!(got_twin, expected);
}

/// Satellite regression: a tenant checkpointed mid-fault must not
/// resurrect already-discarded requests — a restore issues fresh ids and
/// never replays retired ones.
#[test]
fn stale_checkpoint_cannot_resurrect_discarded_requests() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();

    svc.inject_plane_fault(t).unwrap();
    submit3(&mut svc, t, 0b011);
    submit3(&mut svc, t, 0b110);
    assert!(
        svc.drain().unwrap().is_empty(),
        "faulted pass answers nothing"
    );
    let faults = svc.take_faults();
    assert_eq!(faults.len(), 1);

    // checkpoint taken mid-fault: it snapshots the two pending requests
    let ckpt = svc.checkpoint_tenant(t).unwrap();
    assert_eq!(ckpt.pending.lanes, 2);
    let retired: Vec<u64> = ckpt.pending.requests.clone();

    // ... which are then discarded at the source
    assert_eq!(svc.discard_pending(t).unwrap(), 2);
    svc.repair_plane(t).unwrap();

    // restoring the stale checkpoint re-queues the *payloads* under fresh
    // ids; the discarded ids stay dead
    let (clone, fresh) = svc.restore_tenant(&ckpt, 1).unwrap();
    assert_eq!(fresh.len(), 2);
    for id in &fresh {
        assert!(
            !retired.contains(&id.value()),
            "restore reissued a retired request id"
        );
    }
    let responses = svc.drain().unwrap();
    // the restored clone's plane is the cached *healthy* plane (the digest
    // names the true configuration, not the injected corruption)
    let clone_responses: Vec<_> = responses.iter().filter(|r| r.tenant == clone).collect();
    assert_eq!(clone_responses.len(), 2);
    for r in &responses {
        assert!(
            !retired.contains(&r.request.value()),
            "a discarded request was answered"
        );
    }
}

/// Migrating a tenant whose plane is currently faulted moves the fault,
/// not heals it: recorded faults re-point at the new slot, the poisoned
/// plane travels, and repair-by-digest still restores service there.
#[test]
fn migration_preserves_fault_state_and_repair_path() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();

    svc.inject_plane_fault(t).unwrap();
    submit3(&mut svc, t, 0b101);
    assert!(svc.drain().unwrap().is_empty());
    // fault recorded at (0, 0); do NOT take it yet — migrate first
    let dst = svc.migrate_tenant(t, 1).unwrap();

    let faults = svc.take_faults();
    assert_eq!(faults.len(), 1);
    assert_eq!(
        (faults[0].shard, faults[0].ctx),
        (dst.shard, dst.ctx),
        "fault records follow the migrated slot"
    );

    // the poisoned plane travelled: the next pass still faults, at dst
    assert!(svc.drain().unwrap().is_empty());
    let faults = svc.take_faults();
    assert_eq!((faults[0].shard, faults[0].ctx), (dst.shard, dst.ctx));

    // repair resolves through the digest cache (the tenant is no longer
    // fabric-resident, so this is the only path) and the request completes
    svc.repair_plane(t).unwrap();
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].outputs[0].1, false ^ true ^ false ^ true);
    assert_eq!(svc.pending_requests(), 0);
}

/// Evacuation clears the shard, keeps every pending request answerable,
/// and refuses (atomically) when the pool cannot absorb the tenants.
#[test]
fn evacuation_moves_every_tenant_or_nothing() {
    let mut svc = service(3);
    let parity = generators::parity_tree(3).unwrap();
    let wire = generators::wire_lanes(1).unwrap();
    // round-robin: shard 0 gets t0 and t3
    let t0 = svc.admit("t0", &parity).unwrap();
    let _t1 = svc.admit("t1", &wire).unwrap();
    let _t2 = svc.admit("t2", &parity).unwrap();
    let t3 = svc.admit("t3", &wire).unwrap();
    submit3(&mut svc, t0, 0b110);
    svc.submit(t3, &[("in0", true)]).unwrap();

    svc.inject_plane_fault(t0).unwrap();
    let moved = svc.evacuate_shard(0).unwrap();
    assert_eq!(moved.len(), 2);
    assert!(moved.iter().all(|(_, p)| p.shard != 0));
    assert!(svc.registry().occupied_contexts(0).is_empty());

    // faulted tenant still faulted (evacuation is not a repair) …
    assert_eq!(svc.drain().unwrap().len(), 1, "t3 served from its new slot");
    assert_eq!(svc.take_faults().len(), 1);
    // … until repaired, wherever it now lives
    svc.repair_plane(t0).unwrap();
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].tenant, t0);
    assert!(!responses[0].outputs[0].1, "parity(0,1,1) is even");

    // a 1-shard service can never evacuate: nothing moves, typed error
    let mut small = service(1);
    let a = small.admit("a", &parity).unwrap();
    submit3(&mut small, a, 0b001);
    let err = small.evacuate_shard(0).unwrap_err();
    assert_eq!(
        err,
        ServiceError::Migrate(MigrateError::EvacuationBlocked {
            tenants: 1,
            free_elsewhere: 0,
        })
    );
    assert_eq!(small.registry().tenant(a).unwrap().placement.shard, 0);
    assert_eq!(small.pending_requests(), 1, "nothing was disturbed");
}

/// Cross-service restore: a checkpoint serialized on one service resumes
/// on another that has the plane cached, and refuses one that does not.
#[test]
fn serialized_checkpoint_restores_across_services() {
    let parity = generators::parity_tree(3).unwrap();
    let mut src = service(1);
    let t = src.admit("roamer", &parity).unwrap();
    submit3(&mut src, t, 0b111);
    let wire = src.checkpoint_tenant(t).unwrap().to_bytes();

    let ckpt = TenantCheckpoint::from_bytes(&wire).unwrap();

    // a destination that has seen the same netlist holds the plane
    let mut dst = service(2);
    dst.admit("seeder", &parity).unwrap();
    let (restored, fresh) = dst.restore_tenant(&ckpt, 1).unwrap();
    assert_eq!(fresh.len(), 1);
    let responses = dst.drain().unwrap();
    let ours: Vec<_> = responses.iter().filter(|r| r.tenant == restored).collect();
    assert_eq!(ours.len(), 1);
    assert!(ours[0].outputs[0].1, "parity(1,1,1)");
    assert_eq!(dst.usage(restored).unwrap().requests, ckpt.usage.requests);

    // a cold destination cannot materialize the plane from a digest
    let mut cold = service(1);
    assert!(matches!(
        cold.restore_tenant(&ckpt, 0),
        Err(ServiceError::Migrate(MigrateError::PlaneUnavailable { .. }))
    ));

    // a truly incompatible destination refuses outright: a *smaller*
    // grid cannot embed the checkpointed plane …
    let mut narrow = ShardedService::new(
        1,
        FabricParams {
            width: 3,
            ..FabricParams::default()
        },
        TechParams::default(),
    )
    .unwrap();
    assert!(matches!(
        narrow.restore_tenant(&ckpt, 0),
        Err(ServiceError::Migrate(MigrateError::GeometryMismatch { .. }))
    ));
    // … and neither can a grid whose tiles have a different resource
    // shape, however large
    let mut fat = ShardedService::new(
        1,
        FabricParams {
            width: 10,
            height: 10,
            channel_width: FabricParams::default().channel_width + 1,
            ..FabricParams::default()
        },
        TechParams::default(),
    )
    .unwrap();
    assert!(matches!(
        fat.restore_tenant(&ckpt, 0),
        Err(ServiceError::Migrate(MigrateError::GeometryMismatch { .. }))
    ));
}

/// Regression for the old exact-geometry false reject: a checkpoint from
/// a smaller fabric restores onto a larger host of the same tile shape —
/// the plane is pad-and-remapped — and answers bit-for-bit what its
/// never-migrated twin answers.
#[test]
fn smaller_geometry_checkpoint_restores_onto_larger_host() {
    let parity = generators::parity_tree(3).unwrap();
    let small = FabricParams {
        width: 8,
        height: 8,
        ..FabricParams::default()
    };
    let big = FabricParams {
        width: 10,
        height: 10,
        contexts: 8,
        ..FabricParams::default()
    };
    let mut src = ShardedService::new(1, small, TechParams::default()).unwrap();
    let mover = src.admit("mover", &parity).unwrap();
    let twin = src.admit("twin", &parity).unwrap();
    submit3(&mut src, mover, 0b110);
    submit3(&mut src, twin, 0b110);

    // checkpoint the mover (pending request travels), ship its plane —
    // the big host never routed the design, so the digest alone would
    // dead-end in PlaneUnavailable
    let ckpt = src.checkpoint_tenant(mover).unwrap();
    let mut dst = ShardedService::new(1, big, TechParams::default()).unwrap();
    assert!(matches!(
        dst.restore_tenant(&ckpt, 0),
        Err(ServiceError::Migrate(MigrateError::PlaneUnavailable { .. }))
    ));
    let plane = src.export_plane(ckpt.digest).expect("source holds plane");
    dst.import_plane(ckpt.digest, plane).unwrap();

    // the old code rejected this restore with GeometryMismatch
    let (restored, fresh) = dst.restore_tenant(&ckpt, 0).unwrap();
    assert_eq!(fresh.len(), 1);
    src.retire_tenant(mover).unwrap();

    // bit-for-bit: the restored 8x8 tenant on the 10x10 host answers
    // exactly what the never-migrated twin answers on the 8x8 source
    let dst_responses = dst.drain().unwrap();
    let src_responses = src.drain().unwrap();
    let moved: Vec<_> = dst_responses
        .iter()
        .filter(|r| r.tenant == restored)
        .collect();
    let stayed: Vec<_> = src_responses.iter().filter(|r| r.tenant == twin).collect();
    assert_eq!(moved.len(), 1);
    assert_eq!(stayed.len(), 1);
    assert_eq!(moved[0].outputs, stayed[0].outputs);
    assert!(!moved[0].outputs[0].1, "parity(1,1,0) is even");

    // the retired source id is dead; the twin still serves
    assert!(src.usage(mover).is_err());
    submit3(&mut src, twin, 0b000);
    assert_eq!(src.drain().unwrap().len(), 1);
}

/// The cold-cache recovery path: a fresh node that never compiled the
/// design re-provisions the plane from the source netlist, keyed by the
/// checkpoint's digest — then the restore proceeds normally.
#[test]
fn fresh_node_restore_reprovisions_plane_from_netlist() {
    let parity = generators::parity_tree(3).unwrap();
    let mut src = service(1);
    let t = src.admit("roamer", &parity).unwrap();
    submit3(&mut src, t, 0b011);
    let ckpt = src.checkpoint_tenant(t).unwrap();

    // fresh node: digest-only restore dead-ends …
    let mut cold = service(2);
    assert!(matches!(
        cold.restore_tenant(&ckpt, 0),
        Err(ServiceError::Migrate(MigrateError::PlaneUnavailable { .. }))
    ));
    // … but provisioning from the shipped netlist reproduces the exact
    // routed configuration (deterministic per-slot seeding) and caches it
    cold.provision_plane(ckpt.digest, &parity, ckpt.params)
        .unwrap();
    let (restored, fresh) = cold.restore_tenant(&ckpt, 0).unwrap();
    assert_eq!(fresh.len(), 1);
    let responses = cold.drain().unwrap();
    let ours: Vec<_> = responses.iter().filter(|r| r.tenant == restored).collect();
    assert_eq!(ours.len(), 1);
    assert!(!ours[0].outputs[0].1, "parity(0,1,1) is even");

    // a *different* design never provisions under this digest
    let other = generators::wire_lanes(1).unwrap();
    let mut cold2 = service(1);
    assert!(matches!(
        cold2.provision_plane(ckpt.digest, &other, ckpt.params),
        Err(ServiceError::Migrate(
            MigrateError::NetlistDigestMismatch { .. }
        ))
    ));
    // provisioning is idempotent once cached
    cold.provision_plane(ckpt.digest, &parity, ckpt.params)
        .unwrap();
}

/// Directed-migration error surface: bad shard, full shard.
#[test]
fn migration_error_paths() {
    let mut svc = service(2);
    let wire = generators::wire_lanes(1).unwrap();
    let t = svc.admit("t", &wire).unwrap();
    assert!(matches!(
        svc.migrate_tenant(t, 9),
        Err(ServiceError::NoSuchShard {
            shard: 9,
            shards: 2
        })
    ));
    // fill shard 1 completely
    let contexts = svc.params().contexts;
    let mut filled = 1; // t already on shard 0
    while filled < 2 * contexts {
        svc.admit(&format!("f{filled}"), &wire).unwrap();
        filled += 1;
    }
    assert!(matches!(
        svc.migrate_tenant(t, 1),
        Err(ServiceError::Migrate(MigrateError::NoFreeSlot { shard: 1 }))
    ));
    // intra-shard moves are allowed when a slot is free — but here the
    // whole pool is full
    assert!(matches!(
        svc.migrate_tenant(t, 0),
        Err(ServiceError::Migrate(MigrateError::NoFreeSlot { shard: 0 }))
    ));
}

/// Review regression: a tenant migrated *while its plane was faulted*
/// lands with the corrupted plane (which binds nothing) — after repair it
/// must still refuse under-driven requests, which holds because its input
/// columns travel with it rather than coming from the installed plane.
#[test]
fn repair_after_faulted_migration_restores_submit_validation() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();
    svc.inject_plane_fault(t).unwrap();
    svc.migrate_tenant(t, 1).unwrap();
    svc.repair_plane(t).unwrap();
    let err = svc.submit(t, &[("x0", true)]).unwrap_err();
    assert!(
        matches!(err, ServiceError::MissingInput { .. }),
        "under-driven request accepted after faulted migration + repair: {err}"
    );
    submit3(&mut svc, t, 0b100);
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].outputs[0].1, "parity(0,0,1)");
}

/// Review regression: restoring a checkpoint with NO pending work must
/// still open the slot over the tenant's input columns — the restored
/// tenant refuses under-driven requests exactly like a fresh one.
#[test]
fn empty_pending_restore_keeps_submit_validation() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();
    let ckpt = svc.checkpoint_tenant(t).unwrap();
    assert_eq!(ckpt.pending.lanes, 0);
    let (clone, fresh) = svc.restore_tenant(&ckpt, 1).unwrap();
    assert!(fresh.is_empty());
    // an under-driven request is still refused (x2 left undriven) …
    let err = svc
        .submit(clone, &[("x0", true), ("x1", true), ("oops", true)])
        .unwrap_err();
    assert!(matches!(err, ServiceError::MissingInput { ref name } if name == "x2"));
    // … and a fully driven one is answered correctly
    submit3(&mut svc, clone, 0b111);
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].outputs[0].1, "parity(1,1,1)");
}

/// Review regression: an intra-shard move bills realignment against the
/// post-move occupancy — the vacated context no longer counts. (With
/// contexts 0,1,2 occupied and the ctx-1 tenant moving to ctx 3, the
/// shard's sweep goes {0,2} → {0,2,3}: 2 → 6 toggles, a 4-toggle charge;
/// counting the vacated ctx 1 in both sweeps would misbill 2.)
#[test]
fn intra_shard_migration_bills_post_move_occupancy() {
    let mut svc = service(1);
    let wire = generators::wire_lanes(1).unwrap();
    let _t0 = svc.admit("t0", &wire).unwrap(); // ctx 0
    let mover = svc.admit("mover", &wire).unwrap(); // ctx 1
    let _t2 = svc.admit("t2", &wire).unwrap(); // ctx 2
    let dst = svc.migrate_tenant(mover, 0).unwrap();
    assert_eq!(dst, Placement { shard: 0, ctx: 3 }, "only free slot");
    assert_eq!(svc.usage(mover).unwrap().migration_css_toggles, 4);
}

/// A checkpoint's CSS sweep position is adopted when restoring onto an
/// *idle* shard (reconstructing the source's boundary state), and left
/// alone on a shard with resident tenants — observable through the
/// realignment bill, which is charged from the broadcast's position.
#[test]
fn restore_adopts_sweep_position_only_on_idle_shards() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap(); // shard 0, ctx 0

    let mut ckpt = svc.checkpoint_tenant(t).unwrap();
    ckpt.css_position = 1; // the source broadcast sat on ctx 1
    let (first, _) = svc.restore_tenant(&ckpt, 1).unwrap(); // shard 1 idle
                                                            // idle shard adopts position 1; landing the tenant on ctx 0 is a
                                                            // polarity flip on the hybrid CSS: 4 realignment toggles
    assert_eq!(svc.usage(first).unwrap().migration_css_toggles, 4);

    let mut again = svc.checkpoint_tenant(t).unwrap();
    again.css_position = 3;
    let (second, _) = svc.restore_tenant(&again, 1).unwrap();
    // shard 1 is occupied now: its own position (1) is kept, not 3. The
    // second tenant lands on ctx 2 (cheapest marginal), and the sweep
    // {0} → {0,2} replanned from ctx 1 costs 6 − 4 = 2 toggles
    assert_eq!(
        svc.registry().tenant(second).unwrap().placement,
        Placement { shard: 1, ctx: 2 }
    );
    assert_eq!(svc.usage(second).unwrap().migration_css_toggles, 2);
}

/// Energy-aware destination choice: the chosen slot is the cheapest
/// marginal addition to the destination shard's sweep, with the no-rebase
/// context preferred only on ties (mirrors admission placement).
#[test]
fn migration_destination_is_energy_scored() {
    let mut svc = service(2);
    let wire = generators::wire_lanes(1).unwrap();
    let parity = generators::parity_tree(3).unwrap();
    let mover = svc.admit("mover", &parity).unwrap(); // shard 0, ctx 0
    let _anchor = svc.admit("anchor", &wire).unwrap(); // shard 1, ctx 0
                                                       // shard 1 holds ctx 0; on the hybrid CSS, ctx 2 (same polarity) adds
                                                       // 2 toggles where ctx 1 (polarity flip) adds 4 — and the energy
                                                       // ranking beats the no-rebase affinity for ctx 0 (occupied anyway)
    let dst = svc.migrate_tenant(mover, 1).unwrap();
    assert_eq!(dst, Placement { shard: 1, ctx: 2 });
    let usage = svc.usage(mover).unwrap();
    assert_eq!(usage.migration_css_toggles, 2, "marginal join cost billed");
}

/// Checkpoints cross lane-width boundaries: a tenant checkpointed on the
/// 256-wide default restores onto a 64-wide service bit-for-bit as long
/// as its pending lanes fit, and a 64-wide checkpoint restores onto the
/// wide default unchanged. A checkpoint whose pending lanes exceed the
/// destination's width is a typed refusal, not silent truncation.
#[test]
fn checkpoints_roundtrip_across_lane_widths() {
    let parity = generators::parity_tree(3).unwrap();

    // wide source → narrow destination
    let mut src = service(1);
    assert_eq!(src.lane_width(), 256);
    let t = src.admit("roamer", &parity).unwrap();
    submit3(&mut src, t, 0b101);
    let ckpt = TenantCheckpoint::from_bytes(&src.checkpoint_tenant(t).unwrap().to_bytes()).unwrap();
    let mut narrow = service(2);
    narrow.set_lane_width(64).unwrap();
    narrow.admit("seeder", &parity).unwrap();
    let (restored, fresh) = narrow.restore_tenant(&ckpt, 1).unwrap();
    assert_eq!(fresh.len(), 1);
    let out: Vec<_> = narrow
        .drain()
        .unwrap()
        .into_iter()
        .filter(|r| r.tenant == restored)
        .collect();
    assert_eq!(out.len(), 1);
    assert!(!out[0].outputs[0].1, "parity(1,0,1) = 0");

    // narrow source → wide destination
    let mut nsrc = service(1);
    nsrc.set_lane_width(64).unwrap();
    let nt = nsrc.admit("roamer", &parity).unwrap();
    submit3(&mut nsrc, nt, 0b110);
    let nckpt = nsrc.checkpoint_tenant(nt).unwrap();
    let mut wide = service(2);
    wide.admit("seeder", &parity).unwrap();
    let (wrestored, _) = wide.restore_tenant(&nckpt, 1).unwrap();
    let wout: Vec<_> = wide
        .drain()
        .unwrap()
        .into_iter()
        .filter(|r| r.tenant == wrestored)
        .collect();
    assert_eq!(wout.len(), 1);
    assert!(!wout[0].outputs[0].1, "parity(0,1,1) = 0");

    // oversized pending batch cannot squeeze into a narrower slot
    let mut fat = service(1);
    let ft = fat.admit("fat", &parity).unwrap();
    for v in 0..65u32 {
        submit3(&mut fat, ft, v);
    }
    let fat_ckpt = fat.checkpoint_tenant(ft).unwrap();
    assert_eq!(fat_ckpt.pending.lanes, 65);
    let mut tight = service(2);
    tight.set_lane_width(64).unwrap();
    tight.admit("seeder", &parity).unwrap();
    assert!(
        tight.restore_tenant(&fat_ckpt, 1).is_err(),
        "65 pending lanes must not restore into a 64-lane slot"
    );
}

/// `y = a AND NOT b` — asymmetric in its inputs, so a restore that
/// matched checkpoint chunks to inputs by position would answer wrongly.
fn a_and_not_b() -> LogicNetlist {
    let mut nl = LogicNetlist::new();
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let y = nl.add_lut("t", &[a, b], 0b0010).unwrap();
    nl.add_output("y", y).unwrap();
    nl
}

/// The outputs a restore of `ckpt` on shard 1 produces for its pending
/// requests.
fn restored_outputs(svc: &mut ShardedService, ckpt: &TenantCheckpoint) -> Vec<(String, bool)> {
    let (_, fresh) = svc.restore_tenant(ckpt, 1).unwrap();
    let responses = svc.drain().unwrap();
    assert!(svc.take_faults().is_empty());
    let mut outputs = Vec::new();
    for id in fresh {
        let r = responses.iter().find(|r| r.request == id).unwrap();
        outputs.extend(r.outputs.iter().map(|(n, v)| (n.to_string(), *v)));
    }
    outputs
}

/// A checkpoint's pending names resolve to the tenant's input columns
/// by name: reversing them changes nothing, and names that are not
/// columns are dropped.
#[test]
fn restore_resolves_pending_names_by_name() {
    let nl = a_and_not_b();
    let expected = nl.eval(&[("a", true), ("b", false)]).unwrap();
    assert_eq!(expected, vec![("y".to_string(), true)]);
    let mut svc = service(2);
    let t = svc.admit("t", &nl).unwrap();
    svc.submit(t, &[("a", true), ("b", false)]).unwrap();
    let ckpt = svc.checkpoint_tenant(t).unwrap();
    let names: Vec<&str> = ckpt
        .pending
        .inputs
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(names, ["a", "b"]);
    assert_eq!(restored_outputs(&mut svc, &ckpt), expected);

    let mut reversed = ckpt.clone();
    reversed.pending.inputs.reverse();
    assert_eq!(restored_outputs(&mut svc, &reversed), expected);

    let mut extra = ckpt.clone();
    extra.pending.inputs.insert(0, ("zz".into(), [1, 0, 0, 0]));
    let (clone, _) = svc.restore_tenant(&extra, 1).unwrap();
    let names: Vec<String> = svc
        .checkpoint_tenant(clone)
        .unwrap()
        .pending
        .inputs
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, ["a", "b"], "the extra name was dropped");
}

/// A pending batch that misses one of the tenant's columns, or repeats
/// a name, is corrupt: restore refuses it and changes nothing.
#[test]
fn restore_refuses_a_pending_batch_missing_or_repeating_a_name() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();
    submit3(&mut svc, t, 0b100);
    let ckpt = svc.checkpoint_tenant(t).unwrap();

    let mut missing = ckpt.clone();
    missing.pending.inputs.retain(|(n, _)| n != "x2");
    let mut repeated = ckpt.clone();
    repeated.pending.inputs.push(ckpt.pending.inputs[0].clone());
    for bad in [missing, repeated] {
        let (tenants, pending) = (svc.registry().len(), svc.pending_requests());
        let report = svc.billing_report();
        let err = svc.restore_tenant(&bad, 1).unwrap_err();
        assert!(
            matches!(err, ServiceError::Migrate(MigrateError::Corrupt(_))),
            "{err}"
        );
        assert_eq!(svc.registry().len(), tenants);
        assert_eq!(svc.pending_requests(), pending);
        assert_eq!(svc.billing_report(), report);
    }
    // the intact checkpoint still restores and answers parity(0,0,1)
    svc.restore_tenant(&ckpt, 1).unwrap();
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 2);
    assert!(responses.iter().all(|r| r.outputs[0].1));
}

/// A checkpoint whose usage counts fewer requests than it has pending
/// lanes is corrupt: every pending lane was counted when submitted, and
/// discarding the restored lanes would take the counter below zero.
/// Restore refuses it and changes nothing; a checkpoint counting exactly
/// its pending lanes restores, and discarding them leaves zero.
#[test]
fn restore_refuses_usage_counting_fewer_requests_than_pending_lanes() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();
    submit3(&mut svc, t, 0b100);
    submit3(&mut svc, t, 0b010);
    let ckpt = svc.checkpoint_tenant(t).unwrap();
    assert_eq!((ckpt.usage.requests, ckpt.pending.lanes), (2, 2));

    let mut undercounted = ckpt.clone();
    undercounted.usage.requests = 1;
    let (tenants, pending) = (svc.registry().len(), svc.pending_requests());
    let report = svc.billing_report();
    let err = svc.restore_tenant(&undercounted, 1).unwrap_err();
    assert!(
        matches!(err, ServiceError::Migrate(MigrateError::Corrupt(_))),
        "{err}"
    );
    assert_eq!(svc.registry().len(), tenants);
    assert_eq!(svc.pending_requests(), pending);
    assert_eq!(svc.billing_report(), report);

    let (restored, _) = svc.restore_tenant(&ckpt, 1).unwrap();
    assert_eq!(svc.discard_pending(restored).unwrap(), 2);
    assert_eq!(svc.usage(restored).unwrap().requests, 0);
}

/// A request naming a stream register does not drive it: `reg:*` inputs
/// come only from the tenant's register file, so one lane cannot
/// overwrite its siblings' stream state.
#[test]
fn a_request_naming_a_register_does_not_drive_it() {
    let mut svc = service(1);
    let t = svc.admit("t", &accumulator()).unwrap();
    // pass 1: both lanes x=1, so reg:acc holds 1 in lanes 0 and 1
    svc.submit(t, &[("x", true)]).unwrap();
    svc.submit(t, &[("x", true)]).unwrap();
    assert_eq!(svc.drain().unwrap().len(), 2);
    // pass 2: lane 0 also names reg:acc; both lanes still read 1 ⊕ 0
    svc.submit(t, &[("x", false), ("reg:acc", true)]).unwrap();
    svc.submit(t, &[("x", false)]).unwrap();
    let responses = svc.drain().unwrap();
    let ys: Vec<bool> = responses.iter().map(|r| r.outputs[0].1).collect();
    assert_eq!(ys, [true, true]);
    // a request that drives only a register still misses its column
    let err = svc.submit(t, &[("reg:acc", true)]).unwrap_err();
    assert!(matches!(err, ServiceError::MissingInput { ref name } if name == "x"));
}

/// Usage counters arrive in checkpoint bytes, so billing a move must not
/// overflow them. A restore whose billed counter would pass `usize::MAX`
/// is refused as corrupt with nothing committed — not the tenant, not
/// the idle shard's adopted sweep position — and an in-service move of a
/// tenant whose counter is already full is refused the same way, with
/// the tenant left where it was.
#[test]
fn restore_and_move_refuse_usage_counters_that_would_overflow() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();
    submit3(&mut svc, t, 0b101);
    let mut ckpt = svc.checkpoint_tenant(t).unwrap();
    ckpt.css_position = 1;

    let overflowing: [fn(&mut TenantCheckpoint); 4] = [
        |c| c.usage.migrations = usize::MAX,
        |c| c.usage.migration_bytes = usize::MAX,
        |c| c.usage.migration_downtime_cycles = usize::MAX - 1,
        |c| c.usage.migration_css_toggles = usize::MAX,
    ];
    let (tenants, pending) = (svc.registry().len(), svc.pending_requests());
    let report = svc.billing_report();
    let position = svc.engines()[1].css_position();
    for set in overflowing {
        let mut bad = ckpt.clone();
        set(&mut bad);
        let err = svc.restore_tenant(&bad, 1).unwrap_err();
        assert!(
            matches!(err, ServiceError::Migrate(MigrateError::Corrupt(_))),
            "{err}"
        );
        assert_eq!(svc.registry().len(), tenants);
        assert_eq!(svc.pending_requests(), pending);
        assert_eq!(svc.billing_report(), report);
        assert_eq!(svc.engines()[1].css_position(), position);
    }

    // one below the limit restores, and the counter reads exactly full
    let mut full = ckpt.clone();
    full.usage.migrations = usize::MAX - 1;
    let (restored, _) = svc.restore_tenant(&full, 1).unwrap();
    assert_eq!(svc.usage(restored).unwrap().migrations, usize::MAX);
    let placement = svc.registry().tenant(restored).unwrap().placement;

    let (tenants, pending) = (svc.registry().len(), svc.pending_requests());
    let report = svc.billing_report();
    let err = svc.migrate_tenant(restored, 0).unwrap_err();
    assert!(
        matches!(err, ServiceError::Migrate(MigrateError::Corrupt(_))),
        "{err}"
    );
    assert_eq!(
        svc.registry().tenant(restored).unwrap().placement,
        placement
    );
    assert_eq!(svc.registry().len(), tenants);
    assert_eq!(svc.pending_requests(), pending);
    assert_eq!(svc.billing_report(), report);
    // both tenants still answer their pending lane
    assert_eq!(svc.drain().unwrap().len(), 2);
}

/// Admission owns a context's hygiene. Whichever way the context was
/// freed — its tenant retired, its tenant migrated off in service, or an
/// admission into it failed — admitting a netlist there routes it exactly
/// as into the same slot of a fresh service: the same digest, the same
/// cache hit, the same answers.
#[test]
fn an_admission_into_a_freed_context_matches_a_fresh_one() {
    let parity = generators::parity_tree(3).unwrap();
    let adder = generators::ripple_adder(2).unwrap();
    // 40 inputs for the 32 input ports of a default fabric: the first 32
    // bind before placement fails
    let mut too_wide = LogicNetlist::new();
    let inputs: Vec<_> = (0..40)
        .map(|i| too_wide.add_input(&format!("w{i}")))
        .collect();
    let lut = too_wide.add_lut("y", &inputs[..2], 0b0110).unwrap();
    too_wide.add_output("y", lut).unwrap();
    let slot = Placement { shard: 0, ctx: 0 };
    // every service has the parity plane cached (admitted at the same
    // context index of shard 1) before the measured admission; each
    // service's pinned admissions mint from its own tenant-id source
    let primed = || {
        let (mut svc, mut ids) = (service(2), TenantIdSource::new());
        let elsewhere = Placement { shard: 1, ctx: 0 };
        svc.admit_placed(&mut ids, "primer", &parity, elsewhere)
            .unwrap();
        (svc, ids)
    };
    let admit_parity = |(svc, ids): &mut (ShardedService, TenantIdSource)| {
        let (hits, misses) = (svc.cache().hits(), svc.cache().misses());
        let t = svc.admit_placed(ids, "parity", &parity, slot).unwrap();
        let cache = (svc.cache().hits() - hits, svc.cache().misses() - misses);
        for v in 0..8 {
            submit3(svc, t, v);
        }
        let answers: Vec<Outputs> = svc
            .drain()
            .unwrap()
            .into_iter()
            .map(|r| r.outputs)
            .collect();
        (svc.registry().tenant(t).unwrap().digest, cache, answers)
    };
    let want = admit_parity(&mut primed());
    assert_eq!(want.1, (1, 0), "the fresh admission is a cache hit");

    let (mut retired, mut ids) = primed();
    let t = retired
        .admit_placed(&mut ids, "adder", &adder, slot)
        .unwrap();
    retired.retire_tenant(t).unwrap();
    let retired = (retired, ids);
    let (mut migrated, mut ids) = primed();
    let t = migrated
        .admit_placed(&mut ids, "adder", &adder, slot)
        .unwrap();
    assert_ne!(migrated.migrate_tenant(t, 0).unwrap(), slot);
    let migrated = (migrated, ids);
    let (mut failed, mut ids) = primed();
    assert!(matches!(
        failed.admit_placed(&mut ids, "too wide", &too_wide, slot),
        Err(ServiceError::Fabric(FabricError::PlacementFailed(_)))
    ));
    let failed = (failed, ids);
    for (how, mut svc) in [
        ("retired", retired),
        ("migrated", migrated),
        ("failed", failed),
    ] {
        assert_eq!(
            admit_parity(&mut svc),
            want,
            "context freed by a {how} tenant"
        );
    }
}

/// A plane is bound when it enters the cache: a multi-context
/// compilation has no context of its own for a slot to evaluate, so
/// importing one is refused as `BadParams` and caches nothing.
#[test]
fn importing_a_multi_context_compilation_is_refused() {
    let mut fabric = Fabric::new(FabricParams::default()).unwrap();
    implement_netlist(&mut fabric, &generators::parity_tree(3).unwrap(), 0, 7).unwrap();
    let digest = fabric.context_digest(0).unwrap();
    let every_context = Arc::new(CompiledFabric::compile(&fabric).unwrap());
    let mut svc = service(1);
    assert!(matches!(
        svc.import_plane(digest, every_context),
        Err(ServiceError::Fabric(FabricError::BadParams(_)))
    ));
    assert!(!svc.cache().contains(digest));
    // the same context compiled alone imports
    let alone = Arc::new(CompiledFabric::compile_context(&fabric, 0).unwrap());
    svc.import_plane(digest, alone).unwrap();
    assert!(svc.cache().contains(digest));
}

fn submit3_from(
    svc: &mut ShardedService,
    ids: &mut RequestIdSource,
    t: TenantId,
    v: u32,
) -> RequestId {
    let owned = parity_inputs(v);
    let refs: Vec<(&str, bool)> = owned.iter().map(|(n, b)| (n.as_str(), *b)).collect();
    svc.submit_from(ids, t, &refs).unwrap()
}

/// The input vectors [`hand_over_setup`] queues.
const QUEUED: [u32; 4] = [0b101, 0b010, 0b111, 0b001];

/// Admits `netlist` into the slot `svc`'s round robin would pick, under
/// an id minted from `tenants` — how a cluster admits into its nodes.
fn admit_from(
    svc: &mut ShardedService,
    tenants: &mut TenantIdSource,
    name: &str,
    netlist: &LogicNetlist,
) -> TenantId {
    let slot = svc.registry().reserve().unwrap();
    svc.admit_placed(tenants, name, netlist, slot).unwrap()
}

/// Two services that mint only from `ids` and `tenants` (as a cluster's
/// nodes do): a parity tenant on `src` with [`QUEUED`] pending under
/// `ids`, and an empty `dst` holding the tenant's plane. Returns the
/// pending ids too.
fn hand_over_setup(
    ids: &mut RequestIdSource,
    tenants: &mut TenantIdSource,
) -> (ShardedService, ShardedService, TenantId, Vec<RequestId>) {
    let mut src = service(2);
    let t = admit_from(
        &mut src,
        tenants,
        "mover",
        &generators::parity_tree(3).unwrap(),
    );
    let sent = QUEUED.map(|v| submit3_from(&mut src, ids, t, v)).to_vec();
    let mut dst = service(2);
    let digest = src.registry().tenant(t).unwrap().digest;
    dst.import_plane(digest, src.export_plane(digest).unwrap())
        .unwrap();
    (src, dst, t, sent)
}

/// A fresh [`hand_over_setup`] with sources of its own.
fn fresh_hand_over_setup() -> (ShardedService, ShardedService, TenantId, Vec<RequestId>) {
    hand_over_setup(&mut RequestIdSource::new(), &mut TenantIdSource::new())
}

/// What a refused hand-over must leave unchanged: pending requests,
/// every tenant's usage, and the registry's occupancy.
fn hand_over_state(svc: &ShardedService) -> (usize, String, usize, Vec<Placement>) {
    let registry = svc.registry();
    (
        svc.pending_requests(),
        svc.billing_report(),
        registry.len(),
        registry.free_slots(),
    )
}

/// `submit` is `submit_from` over the service's own source: the same
/// ids, answers and deterministic metrics.
#[test]
fn submit_from_queues_like_submit() {
    let parity = generators::parity_tree(3).unwrap();
    let (mut own, mut lent) = (service(2), service(2));
    let (a, b) = (
        own.admit("t", &parity).unwrap(),
        lent.admit("t", &parity).unwrap(),
    );
    let mut ids = RequestIdSource::new();
    for v in 0..8 {
        let owned = parity_inputs(v);
        let refs: Vec<(&str, bool)> = owned.iter().map(|(n, b)| (n.as_str(), *b)).collect();
        assert_eq!(
            own.submit(a, &refs).unwrap(),
            lent.submit_from(&mut ids, b, &refs).unwrap()
        );
    }
    assert_eq!(own.drain().unwrap(), lent.drain().unwrap());
    assert_eq!(
        own.telemetry().registry().deterministic_json(),
        lent.telemetry().registry().deterministic_json()
    );
}

/// A hand-over moves the tenant into the exact slot asked for, under its
/// own id, and its pending lanes are answered there under the ids their
/// submits returned; the next id comes from the same source.
#[test]
fn hand_over_keeps_request_ids() {
    let mut ids = RequestIdSource::new();
    let (mut src, mut dst, t, sent) = hand_over_setup(&mut ids, &mut TenantIdSource::new());
    let slot = Placement { shard: 1, ctx: 2 };
    let kept = src.hand_over(t, &mut dst, slot).unwrap();
    assert_eq!(kept, sent);
    assert!(src.registry().tenant(t).is_err(), "retired at the source");
    assert_eq!(src.pending_requests(), 0);
    assert_eq!(dst.registry().tenant(t).unwrap().placement, slot);

    let next = submit3_from(&mut dst, &mut ids, t, 0b011);
    let answers: Vec<(RequestId, TenantId, bool)> = dst
        .drain()
        .unwrap()
        .iter()
        .map(|r| (r.request, r.tenant, r.outputs[0].1))
        .collect();
    let parity = |v: u32| v.count_ones() % 2 == 1;
    let want: Vec<(RequestId, TenantId, bool)> = sent
        .iter()
        .chain([&next])
        .zip(QUEUED.iter().chain([&0b011]))
        .map(|(&id, &v)| (id, t, parity(v)))
        .collect();
    assert_eq!(answers, want);
}

/// A hand-over bills exactly what a checkpoint, `restore_tenant_into`
/// the same slot and `retire_tenant` bill on an identical setup.
#[test]
fn hand_over_bills_like_checkpoint_restore_and_retire() {
    let slot = Placement { shard: 0, ctx: 3 };
    let (mut src, mut dst, t, _) = fresh_hand_over_setup();
    src.hand_over(t, &mut dst, slot).unwrap();

    let (mut src2, mut dst2, t2, _) = fresh_hand_over_setup();
    let ckpt = src2.checkpoint_tenant(t2).unwrap();
    let (restored, _) = dst2.restore_tenant_into(&ckpt, slot).unwrap();
    src2.retire_tenant(t2).unwrap();

    let usage = dst.usage(t).unwrap();
    assert_eq!(usage, dst2.usage(restored).unwrap());
    assert_eq!(usage.migrations, 1);
    assert_eq!(dst.billing_report(), dst2.billing_report());
    assert_eq!(src.billing_report(), src2.billing_report());
}

/// Every check a restore runs happens before the source changes: an
/// occupied slot, a destination already holding the tenant's id, a plane
/// the destination has not cached and pending lanes wider than the
/// destination's lane width each refuse the hand-over and leave both
/// services as they were.
#[test]
fn a_refused_hand_over_changes_neither_service() {
    let parity = generators::parity_tree(3).unwrap();
    let mut tenants = TenantIdSource::new();
    let refused = |src: &mut ShardedService, dst: &mut ShardedService, t, slot| {
        let before = (hand_over_state(src), hand_over_state(dst));
        let err = src.hand_over(t, dst, slot).unwrap_err();
        assert_eq!(
            (hand_over_state(src), hand_over_state(dst)),
            before,
            "{err}"
        );
        err
    };

    // occupied slot
    let (mut src, mut dst, t, _) = hand_over_setup(&mut RequestIdSource::new(), &mut tenants);
    let taken = admit_from(&mut dst, &mut tenants, "resident", &parity);
    let slot = dst.registry().tenant(taken).unwrap().placement;
    let err = refused(&mut src, &mut dst, t, slot);
    assert!(matches!(err, ServiceError::BadConfig(_)), "{err}");

    // a destination whose own admissions (from another source) already
    // hold the tenant's id
    let mut twin = service(2);
    let digest = src.registry().tenant(t).unwrap().digest;
    twin.import_plane(digest, src.export_plane(digest).unwrap())
        .unwrap();
    assert_eq!(
        admit_from(&mut twin, &mut TenantIdSource::new(), "twin", &parity),
        t
    );
    let err = refused(&mut src, &mut twin, t, Placement { shard: 1, ctx: 0 });
    assert!(matches!(err, ServiceError::BadConfig(_)), "{err}");

    // plane not cached at the destination
    let mut cold = service(2);
    let err = refused(&mut src, &mut cold, t, Placement { shard: 0, ctx: 0 });
    assert!(
        matches!(
            err,
            ServiceError::Migrate(MigrateError::PlaneUnavailable { .. })
        ),
        "{err}"
    );

    // the 4 pending lanes do not fit a 2-lane destination batch
    let mut narrow = service(2);
    narrow.set_lane_width(2).unwrap();
    narrow
        .import_plane(digest, src.export_plane(digest).unwrap())
        .unwrap();
    let err = refused(&mut src, &mut narrow, t, Placement { shard: 1, ctx: 1 });
    assert!(
        matches!(err, ServiceError::Migrate(MigrateError::Corrupt(_))),
        "{err}"
    );
}

/// Kept ids could collide with ids a service minted from its own
/// source, so a hand-over from or to such a service is refused.
#[test]
fn hand_over_refuses_a_service_that_minted_its_own_ids() {
    let slot = Placement { shard: 0, ctx: 0 };
    for minted_at_src in [true, false] {
        let (mut src, mut dst, t, _) = fresh_hand_over_setup();
        if minted_at_src {
            submit3(&mut src, t, 0b001);
        } else {
            let seeder = admit_from(
                &mut dst,
                &mut TenantIdSource::new(),
                "seeder",
                &generators::parity_tree(3).unwrap(),
            );
            submit3(&mut dst, seeder, 0b001);
        }
        let before = (hand_over_state(&src), hand_over_state(&dst));
        let err = src.hand_over(t, &mut dst, slot).unwrap_err();
        assert!(matches!(err, ServiceError::BadConfig(_)), "{err}");
        assert_eq!((hand_over_state(&src), hand_over_state(&dst)), before);
    }
}

/// A kept tenant id could collide with one a service minted from its
/// own tenant-id source — through `admit` or a restore — so a hand-over
/// from or to a service that admitted a tenant on its own is refused,
/// even before any request was submitted. An own admission whose id
/// collides with a lent one already live is refused by the registry.
#[test]
fn hand_over_refuses_a_service_that_admitted_on_its_own() {
    let parity = generators::parity_tree(3).unwrap();
    let refused = |src: &mut ShardedService, dst: &mut ShardedService, t| {
        assert!(src.has_minted_ids() || dst.has_minted_ids());
        let before = (hand_over_state(src), hand_over_state(dst));
        let err = src
            .hand_over(t, dst, Placement { shard: 1, ctx: 1 })
            .unwrap_err();
        assert!(matches!(err, ServiceError::BadConfig(_)), "{err}");
        assert_eq!((hand_over_state(src), hand_over_state(dst)), before);
    };
    // a destination that admitted, or restored, a tenant of its own
    for by_restore in [false, true] {
        let (mut src, mut dst, t, _) = fresh_hand_over_setup();
        if by_restore {
            // the mover without its pending lanes: restoring it mints a
            // tenant id and no request id
            let mut ckpt = src.checkpoint_tenant(t).unwrap();
            ckpt.pending = Default::default();
            dst.restore_tenant(&ckpt, 0).unwrap();
        } else {
            dst.admit("own", &parity).unwrap();
        }
        refused(&mut src, &mut dst, t);
    }

    // a source that admitted a tenant of its own before the lent one
    let mut src = service(2);
    src.admit("own", &parity).unwrap();
    let mut tenants = TenantIdSource::new();
    tenants.mint(); // id 0 is the service's own tenant's
    let t = admit_from(&mut src, &mut tenants, "mover", &parity);
    let mut dst = service(2);
    let digest = src.registry().tenant(t).unwrap().digest;
    dst.import_plane(digest, src.export_plane(digest).unwrap())
        .unwrap();
    refused(&mut src, &mut dst, t);

    // an own admission after a lent one mints the lent tenant's id
    let (mut src, _, t, _) = fresh_hand_over_setup();
    let err = src.admit("own", &parity).unwrap_err();
    assert!(matches!(err, ServiceError::BadConfig(_)), "{err}");
    assert_eq!(src.registry().len(), 1);
    assert_eq!(src.registry().tenant(t).unwrap().name, "mover");
}
