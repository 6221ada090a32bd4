//! Output views: a response's outputs are a view into the output table
//! its pass wrote, and the engine recycles those tables. These tests
//! pin what recycling must never show a caller:
//!
//! * a held response never changes, however many passes — narrower or
//!   wider than the one that produced it — run after it, through the
//!   service, the [3,3,2] cluster and the QoS front-end, at lane widths
//!   64 and 256 and executor widths 1 and 8;
//! * a slot's tables follow its plane: after a retire → re-admit or a
//!   migration onto a freed slot, responses carry the new occupant's
//!   output names, never the old one's.

use mcfpga_cluster::{Cluster, ClusterTenantId};
use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::{generators, LogicNetlist, Node};
use mcfpga_fabric::FabricParams;
use mcfpga_service::frontend::{FrontendDriver, FrontendEvent, StreamPolicy};
use mcfpga_service::{Outputs, ShardedService, TenantId};

/// Requests per tenant in each round: narrower and wider than earlier
/// rounds, and past 64 lanes so narrow services flush lane-full
/// mid-round.
const WIDTHS: [usize; 7] = [4, 1, 40, 9, 100, 2, 63];
/// Rounds per run; each ends in a drain or a partial flush whose
/// responses are all kept to the end.
const ROUNDS: usize = 8;

/// Named signal values, owned.
type Values = Vec<(String, bool)>;

fn service(shards: usize, lanes: usize, threads: usize) -> ShardedService {
    let mut svc = ShardedService::new(shards, FabricParams::default(), TechParams::default())
        .expect("service");
    svc.set_lane_width(lanes).expect("lane width");
    svc.set_threads(threads);
    svc
}

/// Multi-output, single-output and wider designs, so rows hold 1 to 3
/// outputs.
fn designs() -> Vec<LogicNetlist> {
    vec![
        generators::ripple_adder(2).expect("adder"),
        generators::parity_tree(3).expect("parity"),
        generators::popcount4().expect("popcount"),
    ]
}

fn input_names(nl: &LogicNetlist) -> Vec<String> {
    nl.input_ids()
        .into_iter()
        .map(|id| match nl.node(id) {
            Node::Input { name } => name.clone(),
            _ => unreachable!("input ids name inputs"),
        })
        .collect()
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A seeded input vector for `nl` and its reference outputs.
fn request(nl: &LogicNetlist, state: &mut u64) -> (Values, Values) {
    let bits = lcg(state);
    let inputs: Values = input_names(nl)
        .into_iter()
        .enumerate()
        .map(|(b, n)| (n, bits >> b & 1 == 1))
        .collect();
    let borrowed: Vec<(&str, bool)> = inputs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let expected = nl.eval(&borrowed).expect("reference eval");
    (inputs, expected)
}

fn owned(outputs: &Outputs) -> Values {
    outputs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
}

/// What the held-views test needs of the service and of the cluster.
trait Target {
    type Tenant: Copy;
    fn submit(&mut self, tenant: Self::Tenant, inputs: &[(&str, bool)]) -> u64;
    fn drain(&mut self) -> Vec<(u64, Outputs)>;
    fn flush(&mut self, tenants: &[Self::Tenant]) -> Vec<(u64, Outputs)>;
}

impl Target for ShardedService {
    type Tenant = TenantId;
    fn submit(&mut self, tenant: TenantId, inputs: &[(&str, bool)]) -> u64 {
        ShardedService::submit(self, tenant, inputs)
            .expect("submit")
            .value()
    }
    fn drain(&mut self) -> Vec<(u64, Outputs)> {
        let responses = ShardedService::drain(self).expect("drain");
        responses
            .into_iter()
            .map(|r| (r.request.value(), r.outputs))
            .collect()
    }
    fn flush(&mut self, tenants: &[TenantId]) -> Vec<(u64, Outputs)> {
        let responses = self.flush_tenants(tenants).expect("flush");
        responses
            .into_iter()
            .map(|r| (r.request.value(), r.outputs))
            .collect()
    }
}

impl Target for Cluster {
    type Tenant = ClusterTenantId;
    fn submit(&mut self, tenant: ClusterTenantId, inputs: &[(&str, bool)]) -> u64 {
        Cluster::submit(self, tenant, inputs)
            .expect("submit")
            .value()
    }
    fn drain(&mut self) -> Vec<(u64, Outputs)> {
        let responses = Cluster::drain(self).expect("drain");
        responses
            .into_iter()
            .map(|r| (r.request.value(), r.outputs))
            .collect()
    }
    fn flush(&mut self, tenants: &[ClusterTenantId]) -> Vec<(u64, Outputs)> {
        let responses = self.flush_tenants(tenants).expect("flush");
        responses
            .into_iter()
            .map(|r| (r.request.value(), r.outputs))
            .collect()
    }
}

/// Runs [`ROUNDS`] rounds of varying widths against `target`, odd rounds
/// flushing only the first half of the tenants, keeps every response,
/// and checks all of them against [`LogicNetlist::eval`] at the end.
fn hold_every_response<T: Target>(target: &mut T, tenants: &[(T::Tenant, &LogicNetlist)]) {
    let mut expected = std::collections::HashMap::new();
    let mut kept: Vec<(u64, Outputs)> = Vec::new();
    let mut state = 0x5EED_u64;
    for round in 0..ROUNDS {
        for (i, &(tenant, nl)) in tenants.iter().enumerate() {
            for _ in 0..WIDTHS[(round + i) % WIDTHS.len()] {
                let (inputs, want) = request(nl, &mut state);
                let borrowed: Vec<(&str, bool)> =
                    inputs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                expected.insert(target.submit(tenant, &borrowed), want);
            }
        }
        if round % 2 == 1 {
            let half: Vec<T::Tenant> = tenants[..tenants.len() / 2]
                .iter()
                .map(|&(t, _)| t)
                .collect();
            kept.extend(target.flush(&half));
        } else {
            kept.extend(target.drain());
        }
    }
    kept.extend(target.drain());
    assert_eq!(kept.len(), expected.len(), "every request answered once");
    for (id, outputs) in &kept {
        assert_eq!(&owned(outputs), &expected[id], "held response {id} changed");
    }
}

#[test]
fn held_views_never_change() {
    let designs = designs();
    for lanes in [64, 256] {
        for threads in [1, 8] {
            let mut svc = service(2, lanes, threads);
            let tenants: Vec<(TenantId, &LogicNetlist)> = (0..6)
                .map(|i| {
                    let nl = &designs[i % designs.len()];
                    (svc.admit(&format!("s{i}"), nl).expect("admit"), nl)
                })
                .collect();
            hold_every_response(&mut svc, &tenants);

            let nodes = [3, 3, 2]
                .iter()
                .map(|&shards| service(shards, lanes, 1))
                .collect();
            let mut cluster = Cluster::new(nodes).expect("cluster");
            cluster.set_threads(threads);
            let tenants: Vec<(ClusterTenantId, &LogicNetlist)> = (0..10)
                .map(|i| {
                    let nl = &designs[i % designs.len()];
                    (cluster.admit(&format!("c{i}"), nl).expect("admit"), nl)
                })
                .collect();
            hold_every_response(&mut cluster, &tenants);

            hold_every_completion(lanes, threads, &designs);
        }
    }
}

/// The front-end half of [`held_views_never_change`]: latency-sensitive
/// streams flush narrow partial passes every pump, throughput streams
/// wait for wider ones, and every completion is kept to the end.
fn hold_every_completion(lanes: usize, threads: usize, designs: &[LogicNetlist]) {
    let mut fe = FrontendDriver::new(service(2, lanes, threads));
    let mut tenants = Vec::new();
    for i in 0..6 {
        let nl = &designs[i % designs.len()];
        let t = fe.admit(&format!("f{i}"), nl).expect("admit");
        let policy = if i % 2 == 0 {
            StreamPolicy::latency_sensitive(512, 64)
        } else {
            StreamPolicy::throughput(512)
        };
        fe.open_stream(t, policy).expect("stream");
        tenants.push((t, nl));
    }
    let mut expected = std::collections::HashMap::new();
    let mut kept = Vec::new();
    let mut keep = |events: Vec<FrontendEvent>| {
        for event in events {
            if let FrontendEvent::Completed {
                ticket, outputs, ..
            } = event
            {
                kept.push((ticket, outputs));
            }
        }
    };
    let mut state = 0xF00D_u64;
    for round in 0..ROUNDS {
        for (i, &(tenant, nl)) in tenants.iter().enumerate() {
            for _ in 0..WIDTHS[(round + i) % WIDTHS.len()] {
                let (inputs, want) = request(nl, &mut state);
                let borrowed: Vec<(&str, bool)> =
                    inputs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                let ticket = fe.offer(tenant, &borrowed, None).expect("offer");
                expected.insert(ticket, want);
            }
        }
        keep(fe.pump().expect("pump"));
        fe.advance(1);
    }
    keep(fe.flush_all().expect("flush_all"));
    assert_eq!(kept.len(), expected.len(), "every offer completed");
    for (ticket, outputs) in &kept {
        assert_eq!(
            &owned(outputs),
            &expected[ticket],
            "held completion {ticket} changed"
        );
    }
}

/// Serves one pass of `n` requests to `tenant` and checks it against
/// `nl`, returning the responses.
fn serve(svc: &mut ShardedService, tenant: TenantId, nl: &LogicNetlist, n: usize) -> Vec<Outputs> {
    let mut state = 0xC0FFEE_u64 ^ n as u64;
    let mut want = Vec::new();
    for _ in 0..n {
        let (inputs, expected) = request(nl, &mut state);
        let borrowed: Vec<(&str, bool)> = inputs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        svc.submit(tenant, &borrowed).expect("submit");
        want.push(expected);
    }
    let got: Vec<Outputs> = svc
        .drain()
        .expect("drain")
        .into_iter()
        .map(|r| r.outputs)
        .collect();
    let got_owned: Vec<Values> = got.iter().map(owned).collect();
    assert_eq!(got_owned, want, "served outputs follow {:?}", nl.outputs());
    got
}

#[test]
fn output_names_follow_the_plane() {
    // same output count, different names: a stale row would fit exactly
    let parity = generators::parity_tree(3).expect("parity");
    let eq = generators::equality_comparator(2).expect("comparator");

    // retire → re-admit on the same slot, with one table still held and
    // one free in the slot's pool when the old tenant leaves
    let mut svc = service(1, 64, 1);
    let old = svc.admit("old", &parity).expect("admit");
    let slot = svc.registry().tenant(old).expect("old").placement;
    serve(&mut svc, old, &parity, 8);
    let held = serve(&mut svc, old, &parity, 8);
    let _ = serve(&mut svc, old, &parity, 8);
    svc.retire_tenant(old).expect("retire");
    let new = svc.admit("new", &eq).expect("admit");
    assert_eq!(svc.registry().tenant(new).expect("new").placement, slot);
    serve(&mut svc, new, &eq, 4);
    serve(&mut svc, new, &eq, 8);
    assert!(
        held.iter().all(|o| &*o[0].0 == "parity"),
        "held views keep theirs"
    );

    // migrate onto a slot another tenant's passes just freed
    let mut svc = service(2, 64, 1);
    let old = svc.admit("old", &parity).expect("admit");
    let mover = svc.admit("mover", &eq).expect("admit");
    let freed = svc.registry().tenant(old).expect("old").placement;
    assert_ne!(
        svc.registry().tenant(mover).expect("mover").placement.shard,
        freed.shard,
        "round-robin spreads the two tenants"
    );
    serve(&mut svc, old, &parity, 8);
    let _held = serve(&mut svc, old, &parity, 8);
    let _ = serve(&mut svc, old, &parity, 8);
    svc.retire_tenant(old).expect("retire");
    let landed = svc.migrate_tenant(mover, freed.shard).expect("migrate");
    assert_eq!(landed, freed, "the mover takes the freed slot");
    serve(&mut svc, mover, &eq, 4);
    serve(&mut svc, mover, &eq, 8);
}
