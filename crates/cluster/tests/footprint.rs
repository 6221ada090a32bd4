//! Bounded translation state: the cluster's id tables grow with the
//! requests in flight, never with the requests ever submitted.

use mcfpga_cluster::{Cluster, ClusterTenantId, CLUSTER_ID_RUNS_METRIC};
use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricParams;
use mcfpga_service::ShardedService;

const REQUESTS: usize = 100_000;

fn id_runs(c: &Cluster) -> usize {
    c.telemetry()
        .registry()
        .gauge_value(CLUSTER_ID_RUNS_METRIC)
        .expect("gauge registered") as usize
}

/// 100k requests through a [3,3,2] cluster with every span ring off:
/// partial flushes leave requests in flight, full drains answer them
/// all, and a migration every few rounds carries queued requests across
/// nodes. After every flush the `cluster_id_runs` gauge is at most the
/// number of requests in flight, and zero exactly when none are.
#[test]
fn id_runs_stay_at_inflight_size() {
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

    let (mut submitted, mut answered, mut peak) = (0usize, 0usize, 0usize);
    let mut round = 0usize;
    while submitted < REQUESTS {
        for (i, &t) in tenants.iter().enumerate() {
            for j in 0..(round * 7 + i * 3) % 41 {
                let bits = (round + j) as u64;
                c.submit(
                    t,
                    &[
                        ("x0", bits & 1 == 1),
                        ("x1", bits >> 1 & 1 == 1),
                        ("x2", bits >> 2 & 1 == 1),
                    ],
                )
                .unwrap();
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
        answered += responses.len();
        let inflight = submitted - answered;
        let runs = id_runs(&c);
        assert!(
            runs <= inflight,
            "round {round}: {runs} id runs for {inflight} requests in flight"
        );
        assert_eq!(runs == 0, inflight == 0, "round {round}");
        peak = peak.max(runs);
        round += 1;
    }
    let tail = c.drain().unwrap().len();
    assert_eq!(answered + tail, submitted, "every request answered once");
    assert_eq!(id_runs(&c), 0);
    assert!(peak > 0, "the bound was exercised");
}
