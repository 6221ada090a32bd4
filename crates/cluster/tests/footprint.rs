//! The cluster holds no per-request state: a request's id is the one its
//! submit returned at every node, so answers need no translation table.

use mcfpga_cluster::{Cluster, ClusterResponse, ClusterTenantId};
use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricParams;
use mcfpga_service::ShardedService;
use mcfpga_telemetry::QUEUE_DEPTH_METRIC;

const REQUESTS: usize = 100_000;

/// Takes each response's submitting tenant out of `issued` (indexed by
/// request id), asserting it matches; returns how many were answered.
fn answer(issued: &mut [Option<ClusterTenantId>], responses: &[ClusterResponse]) -> usize {
    for r in responses {
        let tenant = issued
            .get_mut(r.request.value() as usize)
            .and_then(Option::take);
        assert_eq!(
            tenant,
            Some(r.tenant),
            "{} answered once, as issued",
            r.request
        );
    }
    responses.len()
}

/// 100k requests through a [3,3,2] cluster with every span ring off:
/// partial flushes leave requests in flight, full drains answer them
/// all, and a migration every few rounds carries queued requests across
/// nodes. Every answer carries the id its submit returned, for the
/// tenant that submitted it, exactly once; after the final drain every
/// node's queue-depth gauge reads 0.
#[test]
fn answers_carry_their_submit_ids_exactly_once() {
    let nodes = [3, 3, 2]
        .iter()
        .map(|&s| ShardedService::new(s, FabricParams::default(), TechParams::default()).unwrap())
        .collect();
    let mut c = Cluster::new(nodes).unwrap();
    c.telemetry().trace_buffer().set_capacity(0);
    for n in 0..c.node_count() {
        c.node(n)
            .unwrap()
            .telemetry()
            .trace_buffer()
            .set_capacity(0);
    }
    let parity = generators::parity_tree(3).unwrap();
    let tenants: Vec<ClusterTenantId> = (0..16)
        .map(|i| c.admit(&format!("t{i}"), &parity).unwrap())
        .collect();

    let mut issued: Vec<Option<ClusterTenantId>> = Vec::new();
    let (mut submitted, mut answered, mut peak) = (0usize, 0usize, 0usize);
    let mut round = 0usize;
    while submitted < REQUESTS {
        for (i, &t) in tenants.iter().enumerate() {
            for j in 0..(round * 7 + i * 3) % 41 {
                let bits = (round + j) as u64;
                let id = c
                    .submit(
                        t,
                        &[
                            ("x0", bits & 1 == 1),
                            ("x1", bits >> 1 & 1 == 1),
                            ("x2", bits >> 2 & 1 == 1),
                        ],
                    )
                    .unwrap();
                assert_eq!(id.value() as usize, issued.len(), "ids are dense");
                issued.push(Some(t));
                submitted += 1;
            }
        }
        if round % 5 == 2 {
            let t = tenants[round % tenants.len()];
            let dst = (c.tenant_node(t).unwrap() + 1) % c.node_count();
            c.migrate_tenant(t, dst).unwrap();
        }
        let responses = if round.is_multiple_of(3) {
            c.drain().unwrap()
        } else {
            let half: Vec<ClusterTenantId> =
                tenants.iter().copied().skip(round % 2).step_by(2).collect();
            c.flush_tenants(&half).unwrap()
        };
        answered += answer(&mut issued, &responses);
        assert_eq!(c.pending_requests(), submitted - answered, "round {round}");
        peak = peak.max(submitted - answered);
        round += 1;
    }
    answered += answer(&mut issued, &c.drain().unwrap());
    assert_eq!(answered, submitted, "every request answered");
    assert!(peak > 0, "partial flushes left requests in flight");
    for n in 0..c.node_count() {
        let registry = c.node(n).unwrap().telemetry().registry();
        assert_eq!(
            registry.gauge_value(QUEUE_DEPTH_METRIC),
            Some(0),
            "node {n}"
        );
    }
}
