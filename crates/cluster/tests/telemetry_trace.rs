//! Cluster telemetry scenarios: cross-node request-lifecycle trace
//! reconstruction through a live migration, and health snapshots as a
//! pure function of published gauges — including the mid-drain /
//! mid-migration invariant that an in-flight request is counted by
//! exactly one node at any instant.

use mcfpga_cluster::{Cluster, ClusterRequestId, ClusterTenantId, RebalancerPolicy};
use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricParams;
use mcfpga_service::ShardedService;
use mcfpga_telemetry::{sort_timeline, SpanEvent, SpanKind};
use std::collections::HashMap;

fn node(shards: usize) -> ShardedService {
    ShardedService::new(shards, FabricParams::default(), TechParams::default()).unwrap()
}

fn submit3(c: &mut Cluster, t: ClusterTenantId, bits: u64) -> mcfpga_cluster::ClusterRequestId {
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

/// The acceptance scenario: a request admitted on node 0, carried to
/// node 1 by a live tenant migration while still queued, then drained —
/// `trace` must reconstruct the complete admitted→demuxed timeline,
/// including the cross-node `MigrationHop`, with every span keyed to the
/// cluster request id and stamped with the node that recorded it.
#[test]
fn trace_reconstructs_cross_node_timeline_through_migration() {
    let mut c = Cluster::new(vec![node(2), node(2)]).unwrap();
    let parity = generators::parity_tree(3).unwrap();
    let t = c.admit("mover", &parity).unwrap();
    assert_eq!(c.tenant_node(t).unwrap(), 0);

    c.advance(5);
    let rid = submit3(&mut c, t, 0b101);
    c.advance(2); // clock 7
    c.migrate_tenant(t, 1).unwrap();
    assert_eq!(c.tenant_node(t).unwrap(), 1);
    c.advance(2); // clock 9
    let responses = c.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].request, rid);
    assert!(!responses[0].outputs[0].1, "parity(1,0,1) is even");

    let timeline = c.trace(rid);
    let kinds: Vec<SpanKind> = timeline.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            SpanKind::Admitted,
            SpanKind::Queued,
            SpanKind::MigrationHop,
            SpanKind::Planned,
            SpanKind::Evaluated,
            SpanKind::Applied,
            SpanKind::Demuxed,
        ],
        "full timeline:\n{}",
        timeline
            .iter()
            .map(|e| format!("  {e}\n"))
            .collect::<String>()
    );
    // every span answers to the cluster request id, stamped with the
    // node that recorded it: admission on node 0, everything after the
    // hop on node 1
    assert!(timeline.iter().all(|e| e.key == rid.value()));
    let nodes: Vec<u32> = timeline.iter().map(|e| e.node).collect();
    assert_eq!(nodes, vec![0, 0, 1, 1, 1, 1, 1]);
    // the hop names its source, and the virtual-clock stamps hold
    let hop = &timeline[2];
    assert_eq!(hop.detail, 0, "hop records the source node");
    assert_eq!(hop.cycle, 7);
    assert_eq!(timeline[0].cycle, 5, "admission stamped at submit time");
    assert_eq!(timeline[6].cycle, 9, "demux stamped at drain time");
}

/// A request that never migrates still traces end to end on its single
/// node.
#[test]
fn trace_of_local_request_covers_full_lifecycle() {
    let mut c = Cluster::new(vec![node(2)]).unwrap();
    let parity = generators::parity_tree(3).unwrap();
    let t = c.admit("stay", &parity).unwrap();
    let rid = submit3(&mut c, t, 0b111);
    c.drain().unwrap();

    let kinds: Vec<SpanKind> = c.trace(rid).iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            SpanKind::Admitted,
            SpanKind::Queued,
            SpanKind::Planned,
            SpanKind::Evaluated,
            SpanKind::Applied,
            SpanKind::Demuxed,
        ]
    );
    assert!(c.trace(rid).iter().all(|e| e.node == 0));
}

/// One id at every layer: a request queued on node 0 behind earlier
/// traffic there, then carried to node 1 by a live migration, is
/// answered under the id its submit returned, and both nodes' rings know
/// it by that id — node 0 queued it, node 1 demuxed it.
#[test]
fn a_moved_request_keeps_one_id_at_every_layer() {
    let mut c = Cluster::new(vec![node(2), node(2)]).unwrap();
    let parity = generators::parity_tree(3).unwrap();
    let busy = c.admit("busy", &parity).unwrap();
    let mover = c.admit("mover", &parity).unwrap();
    assert_eq!(c.tenant_node(busy).unwrap(), 0);
    assert_eq!(c.tenant_node(mover).unwrap(), 0);
    for bits in 0..3 {
        submit3(&mut c, busy, bits);
    }
    assert_eq!(c.drain().unwrap().len(), 3);

    let rid = submit3(&mut c, mover, 0b110);
    c.migrate_tenant(mover, 1).unwrap();
    let responses = c.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!((responses[0].request, responses[0].tenant), (rid, mover));
    let kinds = |n: usize| -> Vec<SpanKind> {
        let svc = c.node(n).unwrap();
        svc.trace(rid).iter().map(|e| e.kind).collect()
    };
    assert!(
        kinds(0).contains(&SpanKind::Queued),
        "node 0: {:?}",
        kinds(0)
    );
    assert!(
        !kinds(0).contains(&SpanKind::Demuxed),
        "node 0: {:?}",
        kinds(0)
    );
    assert!(
        kinds(1).contains(&SpanKind::Demuxed),
        "node 1: {:?}",
        kinds(1)
    );
}

/// Sets the cluster's span ring and every node's to `capacity`.
fn set_rings(c: &Cluster, capacity: usize) {
    c.telemetry().trace_buffer().set_capacity(capacity);
    for n in 0..c.node_count() {
        c.node(n)
            .unwrap()
            .telemetry()
            .trace_buffer()
            .set_capacity(capacity);
    }
}

/// A shadow of where each request has been, built from the one fact the
/// façade relies on: a request's id is the same at every node it visits,
/// and it visits its tenant's node at submit and at every move.
#[derive(Default)]
struct IdModel {
    /// Cluster request → every node it has been queued on, once each.
    hops: HashMap<u64, Vec<usize>>,
    /// Per cluster tenant, its queued requests in submit order.
    queued: HashMap<ClusterTenantId, Vec<ClusterRequestId>>,
}

impl IdModel {
    fn visit(&mut self, node: usize, rid: ClusterRequestId) {
        let hops = self.hops.entry(rid.value()).or_default();
        if !hops.contains(&node) {
            hops.push(node);
        }
    }

    fn submit(&mut self, c: &mut Cluster, t: ClusterTenantId, bits: u64) -> ClusterRequestId {
        let rid = submit3(c, t, bits);
        self.visit(c.tenant_node(t).unwrap(), rid);
        self.queued.entry(t).or_default().push(rid);
        rid
    }

    /// A migration carries the tenant's requests to its new node.
    fn moved(&mut self, c: &Cluster, t: ClusterTenantId) {
        let dst = c.tenant_node(t).unwrap();
        for rid in self.queued.get(&t).cloned().unwrap_or_default() {
            self.visit(dst, rid);
        }
    }

    fn drained(&mut self) {
        self.queued.clear();
    }

    /// A restarted node's fresh ring holds nothing of what it served.
    fn restarted(&mut self, node: usize) {
        for hops in self.hops.values_mut() {
            hops.retain(|&n| n != node);
        }
    }

    /// The timeline read straight from the rings: the cluster ring's
    /// spans for `rid` plus the rings of the nodes it visited.
    fn expected(&self, c: &Cluster, rid: ClusterRequestId) -> Vec<SpanEvent> {
        let mut events = c.telemetry().trace_buffer().trace(rid.value());
        for &n in self.hops.get(&rid.value()).into_iter().flatten() {
            for mut ev in c
                .node(n)
                .unwrap()
                .telemetry()
                .trace_buffer()
                .trace(rid.value())
            {
                ev.node = n as u32;
                events.push(ev);
            }
        }
        sort_timeline(&mut events);
        events
    }
}

/// With every ring at 16 spans, `trace` returns exactly what the rings
/// hold of the nodes a request visited: 240 requests with a mid-stream
/// migration, then a node drain and restart whose fresh ring must not
/// show the requests its old service served.
#[test]
fn trace_follows_bounded_rings_through_migration_and_restart() {
    const RING: usize = 16;
    let mut c = Cluster::new(vec![node(2), node(2), node(1)]).unwrap();
    set_rings(&c, RING);
    let parity = generators::parity_tree(3).unwrap();
    let tenants: Vec<ClusterTenantId> = (0..5)
        .map(|i| c.admit(&format!("t{i}"), &parity).unwrap())
        .collect();
    let homes: Vec<usize> = tenants.iter().map(|&t| c.tenant_node(t).unwrap()).collect();
    assert_eq!(homes, vec![0, 0, 1, 1, 2]);
    let mut model = IdModel::default();
    let mut all = Vec::new();

    // 20 rounds of 3 requests to each of tenants 0..4; round 10 moves
    // tenant 0 to node 1 with its requests still queued
    for round in 0..20u64 {
        c.advance(1);
        for &t in &tenants[..4] {
            for j in 0..3 {
                all.push(model.submit(&mut c, t, round + j));
            }
        }
        if round == 10 {
            c.migrate_tenant(tenants[0], 1).unwrap();
            model.moved(&c, tenants[0]);
        }
        assert_eq!(c.drain().unwrap().len(), 12);
        model.drained();
    }

    // node 2 queues the only requests it ever serves, then drains them
    // away to another node before answering
    c.advance(1);
    let old: Vec<ClusterRequestId> = (0..3)
        .map(|j| model.submit(&mut c, tenants[4], j))
        .collect();
    all.extend(&old);
    assert_eq!(c.drain_node(2).unwrap(), vec![tenants[4]]);
    model.moved(&c, tenants[4]);
    assert_eq!(c.drain().unwrap().len(), 3);
    model.drained();

    // the restarted node's fresh service serves new requests, whose
    // spans old traces must not pick up
    c.restart_node(2).unwrap();
    model.restarted(2);
    set_rings(&c, RING);
    c.migrate_tenant(tenants[4], 2).unwrap();
    c.advance(1);
    let new: Vec<ClusterRequestId> = (0..3)
        .map(|j| model.submit(&mut c, tenants[4], j))
        .collect();
    all.extend(&new);
    assert_eq!(c.drain().unwrap().len(), 3);

    assert!(all.len() > 200);
    let mut empty = 0;
    for &rid in &all {
        let got = c.trace(rid);
        assert_eq!(got, model.expected(&c, rid), "trace of {rid}");
        empty += usize::from(got.is_empty());
    }
    assert!(c.trace(all[0]).is_empty(), "the oldest request is evicted");
    assert!(empty > 200, "only {empty} traces were evicted");
    for rid in &old {
        assert!(
            c.trace(*rid)
                .iter()
                .all(|e| e.node != 2 || e.kind == SpanKind::Admitted),
            "{rid} picked up spans of the restarted node"
        );
    }
    let last = c.trace(*new.last().unwrap());
    let kinds: Vec<SpanKind> = last.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            SpanKind::Admitted,
            SpanKind::Queued,
            SpanKind::Planned,
            SpanKind::Evaluated,
            SpanKind::Applied,
            SpanKind::Demuxed,
        ]
    );
    assert!(last.iter().all(|e| e.node == 2));
}

/// The mid-drain regression pin: a health snapshot taken while requests
/// are in flight — including *mid-migration*, when a tenant's queue has
/// just been re-homed — counts every queued request on exactly one node.
/// The total is conserved from submit through migration and reaches
/// zero after the drain.
#[test]
fn health_snapshot_never_double_counts_inflight_requests() {
    let mut c = Cluster::new(vec![node(2), node(2)]).unwrap();
    let parity = generators::parity_tree(3).unwrap();
    let movers: Vec<ClusterTenantId> = (0..2)
        .map(|i| c.admit(&format!("t{i}"), &parity).unwrap())
        .collect();
    for (i, &t) in movers.iter().enumerate() {
        for j in 0..3 {
            submit3(&mut c, t, (i + j) as u64);
        }
    }
    let before = c.health_snapshot();
    assert_eq!(before.total_queued(), 6);
    assert_eq!(before.total_tenants(), 2);

    // move a loaded tenant across nodes: its queue travels with it, and
    // the snapshot total must not count those requests on both nodes
    let src = c.tenant_node(movers[0]).unwrap();
    let dst = 1 - src;
    let src_queued_before = c.health_snapshot().node(src).unwrap().queued;
    c.migrate_tenant(movers[0], dst).unwrap();
    let mid = c.health_snapshot();
    assert_eq!(
        mid.total_queued(),
        6,
        "migration double-counted or dropped in-flight requests:\n{}",
        mid.render()
    );
    assert!(
        mid.node(src).unwrap().queued < src_queued_before,
        "the moved tenant's requests left the source's gauge"
    );

    let answered = c.drain().unwrap();
    assert_eq!(answered.len(), 6);
    let after = c.health_snapshot();
    assert_eq!(after.total_queued(), 0, "drained fleet publishes empty");
    assert_eq!(after.total_tenants(), 2);
}

/// Fault tallies surface through the snapshot (the same numbers the
/// rebalancer classifies from), and a node restart zeroes the published
/// gauge along with the node.
#[test]
fn snapshot_fault_tally_follows_faults_and_restart() {
    let mut c = Cluster::new(vec![node(2), node(2)]).unwrap();
    c.enable_rebalancer(RebalancerPolicy {
        check_period: 1,
        hot_pending: 1000,
        fault_threshold: 100, // never trips: we only watch the gauge
    });
    let parity = generators::parity_tree(3).unwrap();
    let t = c.admit("flaky", &parity).unwrap();
    let home = c.tenant_node(t).unwrap();

    submit3(&mut c, t, 1);
    c.inject_plane_fault(t).unwrap();
    c.drain().unwrap_or_default();
    c.advance(1);
    c.pump().unwrap(); // collects faults into the published gauge
    let snap = c.health_snapshot();
    assert!(
        snap.node(home).unwrap().fault_tally >= 1,
        "fault not published:\n{}",
        snap.render()
    );

    c.repair_plane(t).unwrap();
    c.drain().unwrap();
    c.take_faults();
    c.drain_node(home).unwrap();
    c.restart_node(home).unwrap();
    assert_eq!(
        c.health_snapshot().node(home).unwrap().fault_tally,
        0,
        "restart re-registers the fault gauge zeroed"
    );
}
