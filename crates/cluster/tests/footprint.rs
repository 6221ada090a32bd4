//! The cluster's footprint does not grow with its history.
//!
//! It holds no per-request state: a request's id is the one its submit
//! returned at every node, so answers need no translation table. Nor
//! does a tenant's move leave anything behind: it keeps its id at every
//! node, so a tenant moving back and forth between two nodes reuses its
//! registry entry on each and adds no live byte anywhere.
//!
//! A counting global allocator keeps the net live bytes of the current
//! thread (allocated minus freed, in a const-initialised thread-local,
//! so the tally itself never allocates and the test harness's other
//! threads do not leak in); the clusters here run at executor width 1,
//! so all their work happens on the test's thread.

use mcfpga_cluster::{Cluster, ClusterResponse, ClusterTenantId};
use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricParams;
use mcfpga_service::ShardedService;
use mcfpga_telemetry::QUEUE_DEPTH_METRIC;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, tallying net live bytes per thread.
struct Counting;

fn track(delta: i64) {
    // `try_with`: a thread being torn down may still allocate
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every call forwards unchanged to `System`; tallying touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout contract
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout contract
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(layout.size() as i64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            track(new_size as i64 - layout.size() as i64);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// A cluster of one node per entry of `shards`, at executor width 1,
/// with every span ring off.
fn quiet_cluster(shards: &[usize]) -> Cluster {
    let nodes = shards
        .iter()
        .map(|&s| ShardedService::new(s, FabricParams::default(), TechParams::default()).unwrap())
        .collect();
    let mut c = Cluster::new(nodes).unwrap();
    c.set_threads(1);
    c.telemetry().trace_buffer().set_capacity(0);
    for n in 0..c.node_count() {
        c.node(n)
            .unwrap()
            .telemetry()
            .trace_buffer()
            .set_capacity(0);
    }
    c
}

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
    let mut c = quiet_cluster(&[3, 3, 2]);
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

/// A tenant moved back and forth between two nodes 2,000 times, after a
/// 64-hop warm-up, adds no live byte: each node registers it under the
/// cluster's id, so a return reuses its entry, and nothing else the move
/// touches keeps a record of it.
#[test]
fn ping_pong_migrations_add_no_live_bytes() {
    let mut c = quiet_cluster(&[1, 1]);
    let parity = generators::parity_tree(3).unwrap();
    let t = c.admit("a tenant moving back and forth", &parity).unwrap();
    let hop = |c: &mut Cluster| {
        let dst = 1 - c.tenant_node(t).unwrap();
        c.migrate_tenant(t, dst).unwrap();
    };
    for _ in 0..64 {
        hop(&mut c);
    }
    let before = live_bytes();
    for _ in 0..2_000 {
        hop(&mut c);
    }
    assert_eq!(live_bytes() - before, 0, "live bytes added by 2,000 hops");
    assert_eq!(c.usage(t).unwrap().migrations, 2_064);
}
