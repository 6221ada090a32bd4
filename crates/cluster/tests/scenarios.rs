//! Cluster operational scenarios: node drain, rolling restart,
//! thundering-herd re-admission, rebalancer interventions, heterogeneous
//! 8×8 → 10×10 migration, and a seeded chaos replay — all asserting the
//! cluster's core conservation law: **every admitted request is answered
//! exactly once**, wherever its tenant happens to run by then.

use mcfpga_cluster::{
    Cluster, ClusterError, ClusterRequestId, ClusterTenantId, NodeHealth, RebalanceAction,
    RebalancerPolicy,
};
use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricParams;
use mcfpga_service::{OptimizeMode, PlacementPolicy, ShardedService};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

fn node(shards: usize) -> ShardedService {
    ShardedService::new(shards, FabricParams::default(), TechParams::default()).unwrap()
}

fn cluster3() -> Cluster {
    Cluster::new(vec![node(2), node(2), node(2)]).unwrap()
}

/// Submits `parity_tree(3)` inputs encoding the low 3 bits of `bits`.
fn submit3(c: &mut Cluster, t: ClusterTenantId, bits: u64) -> ClusterRequestId {
    c.submit(
        t,
        &[
            ("x0", bits & 1 == 1),
            ("x1", bits >> 1 & 1 == 1),
            ("x2", bits >> 2 & 1 == 1),
        ],
    )
    .unwrap()
}

#[test]
fn node_drain_moves_tenants_and_preserves_inflight_requests() {
    let mut c = cluster3();
    let parity = generators::parity_tree(3).unwrap();
    let tenants: Vec<ClusterTenantId> = (0..6)
        .map(|i| c.admit(&format!("t{i}"), &parity).unwrap())
        .collect();
    // two in-flight requests per tenant, none drained yet
    let mut issued = HashSet::new();
    for (i, &t) in tenants.iter().enumerate() {
        issued.insert(submit3(&mut c, t, i as u64));
        issued.insert(submit3(&mut c, t, (i + 3) as u64));
    }

    let moved = c.drain_node(1).unwrap();
    assert!(!moved.is_empty(), "node 1 held tenants before the drain");
    assert_eq!(c.node_health(1).unwrap(), NodeHealth::Drained);
    assert!(c.tenants_on(1).unwrap().is_empty());

    // the queued requests travelled with their tenants: all answered,
    // each exactly once, under the ids the submitter was given
    let responses = c.drain().unwrap();
    let answered: HashSet<ClusterRequestId> = responses.iter().map(|r| r.request).collect();
    assert_eq!(
        responses.len(),
        issued.len(),
        "a request was lost or duplicated"
    );
    assert_eq!(answered, issued);

    // a drained node is out of the admission rotation
    let late = c.admit("late", &parity).unwrap();
    assert_ne!(c.tenant_node(late).unwrap(), 1);
}

#[test]
fn rolling_restart_keeps_the_cluster_serving() {
    let mut c = cluster3();
    let parity = generators::parity_tree(3).unwrap();
    let tenants: Vec<ClusterTenantId> = (0..6)
        .map(|i| c.admit(&format!("t{i}"), &parity).unwrap())
        .collect();

    let mut issued = HashSet::new();
    let mut answered: HashSet<ClusterRequestId> = HashSet::new();
    for restart in 0..c.node_count() {
        // a wave of traffic lands while one node is cycled
        for (i, &t) in tenants.iter().enumerate() {
            issued.insert(submit3(&mut c, t, (restart + i) as u64));
        }
        c.drain_node(restart).unwrap();
        c.restart_node(restart).unwrap();
        assert_eq!(c.node_health(restart).unwrap(), NodeHealth::Healthy);
        for r in c.drain().unwrap() {
            assert!(
                answered.insert(r.request),
                "duplicate answer for {}",
                r.request
            );
        }
    }

    assert_eq!(answered, issued, "every request answered exactly once");
    for i in 0..c.node_count() {
        assert_eq!(c.node_health(i).unwrap(), NodeHealth::Healthy);
    }
    // the fleet still takes traffic end to end
    let t0 = tenants[0];
    submit3(&mut c, t0, 0b111);
    let last = c.drain().unwrap();
    assert_eq!(last.len(), 1);
    assert!(last[0].outputs[0].1, "parity(1,1,1) is odd");
}

/// A service that took `submit` calls of its own before it was federated
/// is refused when the cluster is built, not at its first migration.
#[test]
fn a_node_that_minted_its_own_ids_is_refused_at_construction() {
    let parity = generators::parity_tree(3).unwrap();
    let mut used = node(1);
    let t = used.admit("solo", &parity).unwrap();
    assert!(!used.has_minted_ids(), "admission mints no request id");
    used.submit(t, &[("x0", true), ("x1", false), ("x2", true)])
        .unwrap();
    used.drain().unwrap();
    used.retire_tenant(t).unwrap();
    assert!(used.has_minted_ids(), "emptied, but it minted");
    assert_eq!(
        Cluster::new(vec![node(1), used, node(1)]).err(),
        Some(ClusterError::NodeMintedIds { node: 1 })
    );
    // the cluster's own submits lend its source: its nodes mint nothing,
    // and a tenant still moves between them
    let mut c = Cluster::new(vec![node(1), node(1)]).unwrap();
    let t = c.admit("t", &parity).unwrap();
    submit3(&mut c, t, 0b011);
    assert!(!c.node(0).unwrap().has_minted_ids());
    assert!(!c.node(1).unwrap().has_minted_ids());
    c.migrate_tenant(t, 1 - c.tenant_node(t).unwrap()).unwrap();
    assert_eq!(c.drain().unwrap().len(), 1);
}

/// A restarted node mints nothing of its own: requests it serves after
/// the restart carry the cluster's next ids, never ones already issued.
#[test]
fn a_restarted_node_serves_under_the_clusters_next_ids() {
    let mut c = Cluster::new(vec![node(1), node(1)]).unwrap();
    let parity = generators::parity_tree(3).unwrap();
    let t = c.admit("t", &parity).unwrap();
    let u = c.admit("u", &parity).unwrap();
    assert_eq!(c.tenant_node(u).unwrap(), 1);
    let before: Vec<ClusterRequestId> = (0..3).map(|b| submit3(&mut c, u, b)).collect();
    c.drain_node(1).unwrap();
    c.restart_node(1).unwrap();
    c.migrate_tenant(u, 1).unwrap();
    let after = submit3(&mut c, u, 0b111);
    let other = submit3(&mut c, t, 0b001);
    assert_eq!(after.value(), before[2].value() + 1);
    assert_eq!(other.value(), after.value() + 1);
    let mut answered: Vec<ClusterRequestId> =
        c.drain().unwrap().iter().map(|r| r.request).collect();
    answered.sort();
    assert_eq!(answered, [before, vec![after, other]].concat());
}

#[test]
fn thundering_herd_readmits_across_the_restarted_node() {
    let mut c = Cluster::new(vec![node(2), node(2)]).unwrap();
    let parity = generators::parity_tree(3).unwrap();
    let old: Vec<ClusterTenantId> = (0..4)
        .map(|i| c.admit(&format!("old{i}"), &parity).unwrap())
        .collect();

    c.drain_node(0).unwrap();
    c.restart_node(0).unwrap();

    // the herd: many admissions the moment the node returns
    let herd: Vec<ClusterTenantId> = (0..8)
        .map(|i| c.admit(&format!("new{i}"), &parity).unwrap())
        .collect();
    let on0 = c.tenants_on(0).unwrap().len();
    let on1 = c.tenants_on(1).unwrap().len();
    assert!(on0 > 0, "the restarted node rejoined the rotation");
    assert!(on1 > 0, "the herd did not stampede onto one node");
    assert_eq!(on0 + on1, old.len() + herd.len());

    // everyone — survivors and herd — serves correctly
    let mut issued = HashSet::new();
    for (i, &t) in old.iter().chain(herd.iter()).enumerate() {
        issued.insert(submit3(&mut c, t, i as u64));
    }
    let responses = c.drain().unwrap();
    let answered: HashSet<ClusterRequestId> = responses.iter().map(|r| r.request).collect();
    assert_eq!(answered, issued);
}

#[test]
fn rebalancer_sheds_hot_node_and_evacuates_faulted_node() {
    let mut c = cluster3();
    c.enable_rebalancer(RebalancerPolicy {
        check_period: 10,
        hot_pending: 4,
        fault_threshold: 2,
    });
    let parity = generators::parity_tree(3).unwrap();

    // corner all four tenants onto node 0 by taking the others out of
    // rotation during admission
    c.set_node_health(1, NodeHealth::Draining).unwrap();
    c.set_node_health(2, NodeHealth::Draining).unwrap();
    let tenants: Vec<ClusterTenantId> = (0..4)
        .map(|i| c.admit(&format!("t{i}"), &parity).unwrap())
        .collect();
    assert_eq!(c.tenants_on(0).unwrap().len(), 4);
    c.set_node_health(1, NodeHealth::Healthy).unwrap();
    c.set_node_health(2, NodeHealth::Healthy).unwrap();

    // 6 queued requests ≥ hot_pending=4: the next check marks node 0 hot,
    // sheds half its tenants (their queues travel), and sees it recover
    let mut issued = HashSet::new();
    for (i, &t) in tenants.iter().take(3).enumerate() {
        issued.insert(submit3(&mut c, t, i as u64));
        issued.insert(submit3(&mut c, t, (i + 4) as u64));
    }
    c.advance(10);
    let actions = c.pump().unwrap();
    assert!(actions.contains(&RebalanceAction::MarkedHot { node: 0 }));
    assert!(actions
        .iter()
        .any(|a| matches!(a, RebalanceAction::Migrated { from: 0, .. })));
    assert!(actions.contains(&RebalanceAction::Recovered { node: 0 }));
    assert_eq!(c.tenants_on(0).unwrap().len(), 2);

    let responses = c.drain().unwrap();
    let mut answered: HashSet<ClusterRequestId> = responses.iter().map(|r| r.request).collect();
    assert_eq!(answered, issued, "shed queues still answered exactly once");

    // now fault a node past the threshold: two poisoned sweeps
    let victim = *c
        .tenants_on(1)
        .unwrap()
        .first()
        .expect("node 1 got a shed tenant");
    let vnode = c.tenant_node(victim).unwrap();
    assert_eq!(vnode, 1);
    for round in 0..2u64 {
        c.inject_plane_fault(victim).unwrap();
        issued.insert(submit3(&mut c, victim, round));
        let r = c.drain().unwrap();
        assert!(
            r.iter().all(|resp| resp.tenant != victim),
            "poisoned slot answered"
        );
    }
    c.advance(10);
    let actions = c.pump().unwrap();
    assert!(actions.contains(&RebalanceAction::MarkedFaulted { node: vnode }));
    assert!(
        c.tenants_on(vnode).unwrap().is_empty(),
        "faulted node evacuated"
    );
    assert_eq!(c.node_health(vnode).unwrap(), NodeHealth::Faulted);

    // the evacuation reinstalled the true plane from the cache: the
    // stranded requests answer from the new home
    let responses = c.drain().unwrap();
    for r in &responses {
        assert!(
            answered.insert(r.request),
            "duplicate answer for {}",
            r.request
        );
    }
    assert_eq!(
        answered, issued,
        "every admitted request answered exactly once"
    );

    // only a restart brings the faulted node back
    c.restart_node(vnode).unwrap();
    assert_eq!(c.node_health(vnode).unwrap(), NodeHealth::Healthy);
}

#[test]
fn tenant_migrates_from_8x8_node_onto_10x10_node_bit_for_bit() {
    let small = FabricParams {
        width: 8,
        height: 8,
        ..FabricParams::default()
    };
    let big = FabricParams {
        width: 10,
        height: 10,
        ..FabricParams::default()
    };
    let mut c = Cluster::new(vec![
        ShardedService::new(2, small, TechParams::default()).unwrap(),
        ShardedService::new(2, big, TechParams::default()).unwrap(),
    ])
    .unwrap();
    let parity = generators::parity_tree(3).unwrap();
    // round-robin puts both on the 8×8 node (global shards 0 and 1)
    let mover = c.admit("mover", &parity).unwrap();
    let twin = c.admit("twin", &parity).unwrap();
    assert_eq!(c.tenant_node(mover).unwrap(), 0);
    assert_eq!(c.tenant_node(twin).unwrap(), 0);

    let vectors: &[u64] = &[0b000, 0b110, 0b101, 0b011, 0b111, 0b001];
    let mut mover_outs = Vec::new();
    let mut twin_outs = Vec::new();
    let collect =
        |c: &mut Cluster, mover_outs: &mut Vec<Vec<bool>>, twin_outs: &mut Vec<Vec<bool>>| {
            for r in c.drain().unwrap() {
                let outs: Vec<bool> = r.outputs.iter().map(|(_, v)| *v).collect();
                if r.tenant == mover {
                    mover_outs.push(outs);
                } else {
                    twin_outs.push(outs);
                }
            }
        };

    // phase 1: both serve from the 8×8 node
    for &bits in &vectors[..2] {
        submit3(&mut c, mover, bits);
        submit3(&mut c, twin, bits);
    }
    collect(&mut c, &mut mover_outs, &mut twin_outs);

    // phase 2: queue one request each, then migrate the mover onto the
    // 10×10 node with its request still pending — pad-and-remap
    submit3(&mut c, mover, vectors[2]);
    submit3(&mut c, twin, vectors[2]);
    c.migrate_tenant(mover, 1).unwrap();
    assert_eq!(c.tenant_node(mover).unwrap(), 1);
    collect(&mut c, &mut mover_outs, &mut twin_outs);

    // phase 3: steady state on the larger geometry
    for &bits in &vectors[3..] {
        submit3(&mut c, mover, bits);
        submit3(&mut c, twin, bits);
    }
    collect(&mut c, &mut mover_outs, &mut twin_outs);

    assert_eq!(mover_outs.len(), vectors.len());
    assert_eq!(
        mover_outs, twin_outs,
        "migrated tenant diverged from its never-migrated twin"
    );
    assert_eq!(c.usage(mover).unwrap().migrations, 1);
    assert_eq!(c.usage(twin).unwrap().migrations, 0);
}

/// Seeded chaos: random submits, drains, fault injections, repairs,
/// directed migrations, rebalancer ticks and node drain/restart cycles.
/// Whatever the interleaving, the conservation law holds and a replay at
/// a different executor width produces bit-identical responses.
#[test]
fn seeded_cluster_chaos_replay() {
    let first = chaos_run(0xC1A0_5EED, 1);
    let second = chaos_run(0xC1A0_5EED, 8);
    assert_eq!(
        first, second,
        "chaos replay diverged between 1 and 8 executor threads"
    );
}

fn chaos_run(seed: u64, threads: usize) -> Vec<(u64, usize, Vec<bool>)> {
    let mut c = cluster3();
    c.set_threads(threads);
    c.enable_rebalancer(RebalancerPolicy {
        check_period: 16,
        hot_pending: 24,
        fault_threshold: 4,
    });
    let parity = generators::parity_tree(3).unwrap();
    let tenants: Vec<ClusterTenantId> = (0..8)
        .map(|i| c.admit(&format!("t{i}"), &parity).unwrap())
        .collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut issued: HashSet<ClusterRequestId> = HashSet::new();
    let mut answered: HashSet<ClusterRequestId> = HashSet::new();
    let mut poisoned: HashSet<ClusterTenantId> = HashSet::new();
    let mut log: Vec<(u64, usize, Vec<bool>)> = Vec::new();
    let absorb = |responses: Vec<mcfpga_cluster::ClusterResponse>,
                  answered: &mut HashSet<ClusterRequestId>,
                  log: &mut Vec<(u64, usize, Vec<bool>)>| {
        for r in responses {
            assert!(
                answered.insert(r.request),
                "duplicate answer for {}",
                r.request
            );
            log.push((
                r.request.value(),
                r.tenant.index(),
                r.outputs.iter().map(|(_, v)| *v).collect(),
            ));
        }
    };

    for _ in 0..400 {
        match rng.random_range(0..100u32) {
            0..=49 => {
                let t = tenants[rng.random_range(0..tenants.len())];
                let bits = rng.random_range(0..8u64);
                match c.submit(
                    t,
                    &[
                        ("x0", bits & 1 == 1),
                        ("x1", bits >> 1 & 1 == 1),
                        ("x2", bits >> 2 & 1 == 1),
                    ],
                ) {
                    Ok(id) => {
                        assert!(issued.insert(id), "request id reused");
                    }
                    // a faulted node refuses traffic — legitimate
                    Err(ClusterError::NodeUnavailable { .. }) => {}
                    Err(e) => panic!("submit failed: {e}"),
                }
            }
            50..=64 => absorb(c.drain().unwrap(), &mut answered, &mut log),
            65..=71 => {
                let t = tenants[rng.random_range(0..tenants.len())];
                if c.inject_plane_fault(t).is_ok() {
                    poisoned.insert(t);
                }
            }
            72..=79 => {
                for &t in poisoned.iter() {
                    c.repair_plane(t).unwrap();
                }
                poisoned.clear();
            }
            80..=87 => {
                let t = tenants[rng.random_range(0..tenants.len())];
                let dst = rng.random_range(0..c.node_count());
                let from = c.tenant_node(t).unwrap();
                match c.migrate_tenant(t, dst) {
                    // a real move re-installs the true plane: it heals
                    Ok(()) if from != dst => {
                        poisoned.remove(&t);
                    }
                    Ok(()) => {}
                    Err(ClusterError::CapacityExhausted) => {}
                    Err(e) => panic!("migrate failed: {e}"),
                }
            }
            88..=93 => {
                c.advance(rng.random_range(1..32u64));
                for action in c.pump().unwrap() {
                    // an evacuation restores from the cache → heals
                    if let RebalanceAction::Migrated { tenant, .. } = action {
                        poisoned.remove(&tenant);
                    }
                }
            }
            _ => {
                let victim = rng.random_range(0..c.node_count());
                match c.drain_node(victim) {
                    Ok(moved) => {
                        for t in moved {
                            poisoned.remove(&t);
                        }
                        c.restart_node(victim).unwrap();
                    }
                    // no healthy destination with capacity: put the node
                    // back into rotation and move on
                    Err(ClusterError::CapacityExhausted) => {
                        c.set_node_health(victim, NodeHealth::Healthy).unwrap();
                    }
                    Err(e) => panic!("drain_node failed: {e}"),
                }
            }
        }
    }

    // settle: heal everything, recover faulted nodes, flush the fleet
    for &t in poisoned.iter() {
        c.repair_plane(t).unwrap();
    }
    for i in 0..c.node_count() {
        if c.node_health(i).unwrap() == NodeHealth::Faulted {
            match c.drain_node(i) {
                Ok(_) => c.restart_node(i).unwrap(),
                Err(ClusterError::CapacityExhausted) => {
                    c.set_node_health(i, NodeHealth::Healthy).unwrap();
                }
                Err(e) => panic!("recovery drain failed: {e}"),
            }
        }
    }
    absorb(c.drain().unwrap(), &mut answered, &mut log);

    assert_eq!(
        answered, issued,
        "conservation violated: answered set != issued set"
    );
    log
}

/// A restart starts a node's *state* afresh — no tenants, a cold plane
/// cache — but keeps its configuration: lane width, sweep-ordering and
/// placement policies, span-ring capacity, and its executor width,
/// whether set on the node or through the cluster.
#[test]
fn restart_keeps_the_node_configuration() {
    let mut tuned = node(2);
    tuned.set_lane_width(64).unwrap();
    tuned.set_optimize_mode(OptimizeMode::Naive);
    tuned.set_placement_policy(PlacementPolicy::EnergyAware);
    tuned.telemetry().trace_buffer().set_capacity(17);
    tuned.set_threads(3);
    let mut c = Cluster::new(vec![node(2), tuned]).unwrap();
    let parity = generators::parity_tree(3).unwrap();
    let tenants: Vec<ClusterTenantId> = (0..4)
        .map(|i| c.admit(&format!("t{i}"), &parity).unwrap())
        .collect();
    for (i, &t) in tenants.iter().enumerate() {
        submit3(&mut c, t, i as u64);
    }
    assert!(!c.tenants_on(1).unwrap().is_empty());
    let kept = |c: &Cluster, threads: usize| {
        let svc = c.node(1).unwrap();
        assert_eq!(svc.lane_width(), 64);
        assert_eq!(svc.optimize_mode(), OptimizeMode::Naive);
        assert_eq!(svc.placement_policy(), PlacementPolicy::EnergyAware);
        assert_eq!(svc.telemetry().trace_buffer().capacity(), 17);
        assert_eq!(svc.threads(), threads);
        assert!(svc.registry().is_empty() && svc.cache().is_empty());
    };
    c.drain_node(1).unwrap();
    c.restart_node(1).unwrap();
    kept(&c, 3);
    // a width set through the cluster is the node's own
    c.set_threads(2);
    c.restart_node(1).unwrap();
    kept(&c, 2);
    // every request queued before the drain is still answered once
    let answered = c.drain().unwrap();
    assert_eq!(answered.len(), tenants.len());
}

/// The cluster's clock is its telemetry's cycle cell, pushed into every
/// node's: a new cluster starts them all at 0, whatever a node held, and
/// `advance` and `restart_node` keep them equal.
#[test]
fn one_clock_for_the_cluster_and_its_nodes() {
    let stale = node(1);
    stale.telemetry().set_cycle(9);
    let mut c = Cluster::new(vec![node(2), stale]).unwrap();
    let clocks = |c: &Cluster| {
        let nodes = (0..c.node_count()).map(|n| c.node(n).unwrap().telemetry().cycle());
        (c.now(), c.telemetry().cycle(), nodes.collect::<Vec<_>>())
    };
    assert_eq!(clocks(&c), (0, 0, vec![0, 0]));
    c.advance(7);
    assert_eq!(clocks(&c), (7, 7, vec![7, 7]));
    c.restart_node(1).unwrap();
    assert_eq!(clocks(&c), (7, 7, vec![7, 7]));
    c.advance(3);
    assert_eq!(clocks(&c), (10, 10, vec![10, 10]));
}
