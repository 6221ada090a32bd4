//! One tenant id across the cluster: a node registers each tenant under
//! the id the cluster minted for it, wherever the tenant moves, so the
//! cluster hands a node's responses out as they are.

use mcfpga_cluster::{Cluster, ClusterTenantId};
use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricParams;
use mcfpga_service::{RequestIdSource, Response, ShardedService, TenantIdSource};

const TENANTS: usize = 6;
/// The tenant both tests move one node on, twice.
const MOVER: usize = 4;

fn nodes() -> Vec<ShardedService> {
    [3, 3, 2]
        .iter()
        .map(|&s| ShardedService::new(s, FabricParams::default(), TechParams::default()).unwrap())
        .collect()
}

fn parity_inputs(bits: u64) -> [(&'static str, bool); 3] {
    [
        ("x0", bits & 1 == 1),
        ("x1", bits >> 1 & 1 == 1),
        ("x2", bits >> 2 & 1 == 1),
    ]
}

/// After two migrations the tenant resolves under the cluster's id at its
/// destination node and nowhere else, and every resident tenant of every
/// node is registered there under its cluster id.
#[test]
fn a_migrated_tenant_keeps_its_id_at_every_node() {
    let parity = generators::parity_tree(3).unwrap();
    let mut c = Cluster::new(nodes()).unwrap();
    let tenants: Vec<ClusterTenantId> = (0..TENANTS)
        .map(|i| c.admit(&format!("t{i}"), &parity).unwrap())
        .collect();
    let t = tenants[MOVER];
    assert_eq!(t.to_string(), format!("tenant#{MOVER}"));
    for _ in 0..2 {
        let dst = (c.tenant_node(t).unwrap() + 1) % c.node_count();
        c.migrate_tenant(t, dst).unwrap();
    }
    assert_eq!(c.usage(t).unwrap().migrations, 2);
    let dst = c.tenant_node(t).unwrap();
    for n in 0..c.node_count() {
        let registry = c.node(n).unwrap().registry();
        if n == dst {
            assert_eq!(registry.tenant(t).unwrap().name, format!("t{MOVER}"));
        } else {
            assert!(registry.tenant(t).is_err(), "node {n} let it go");
        }
        for id in c.tenants_on(n).unwrap() {
            assert_eq!(
                registry.tenant(id).unwrap().name,
                format!("t{}", id.index())
            );
        }
    }
    let resident: usize = (0..c.node_count())
        .map(|n| c.tenants_on(n).unwrap().len())
        .sum();
    assert_eq!(resident, TENANTS);
}

/// The same fleet driven by hand — pinned admissions from one tenant-id
/// source, submits from one request-id source, the mover handed over
/// twice into the slots the cluster chose — answers with exactly the
/// `Response`s `Cluster::drain` returns, in node order.
#[test]
fn drain_returns_the_nodes_responses_unchanged() {
    let parity = generators::parity_tree(3).unwrap();
    let mut c = Cluster::new(nodes()).unwrap();
    let mut fleet = nodes();
    let (mut tenants, mut ids) = (TenantIdSource::new(), RequestIdSource::new());

    let mut admitted = Vec::new();
    for i in 0..TENANTS {
        let name = format!("t{i}");
        let t = c.admit(&name, &parity).unwrap();
        let n = c.tenant_node(t).unwrap();
        let slot = c.node(n).unwrap().registry().tenant(t).unwrap().placement;
        let by_hand = fleet[n]
            .admit_placed(&mut tenants, &name, &parity, slot)
            .unwrap();
        assert_eq!(by_hand, t);
        admitted.push(t);
    }
    for (k, &t) in admitted.iter().enumerate() {
        for bits in 0..k as u64 + 2 {
            let id = c.submit(t, &parity_inputs(bits)).unwrap();
            let n = c.tenant_node(t).unwrap();
            let by_hand = fleet[n].submit_from(&mut ids, t, &parity_inputs(bits));
            assert_eq!(by_hand.unwrap(), id);
        }
    }

    // the mover's requests are still pending when it moves
    let t = admitted[MOVER];
    for _ in 0..2 {
        let src = c.tenant_node(t).unwrap();
        let dst = (src + 1) % c.node_count();
        c.migrate_tenant(t, dst).unwrap();
        let digest = fleet[src].registry().tenant(t).unwrap().digest;
        if !fleet[dst].cache().contains(digest) {
            let plane = fleet[src].export_plane(digest).unwrap();
            fleet[dst].import_plane(digest, plane).unwrap();
        }
        let slot = c.node(dst).unwrap().registry().tenant(t).unwrap().placement;
        let [from, to] = fleet.get_disjoint_mut([src, dst]).unwrap();
        from.hand_over(t, to, slot).unwrap();
    }

    let by_hand: Vec<Response> = fleet.iter_mut().flat_map(|n| n.drain().unwrap()).collect();
    let merged = c.drain().unwrap();
    assert_eq!(merged, by_hand);
    assert_eq!(merged.len(), (2..TENANTS + 2).sum::<usize>());
    assert!(merged.iter().any(|r| r.tenant == t));
}
