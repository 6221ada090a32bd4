//! A steady-state sparse pump allocates nothing but the events it returns.
//!
//! A counting global allocator tallies every allocation made on the
//! current thread (a const-initialised thread-local, so the tally itself
//! never allocates and the test harness's other threads do not leak in).
//! After a warm-up that grows every buffer to its working size — and
//! fills the span ring — a 2-shard front end at executor width 1 runs
//! 1 000 sparse pumps: a few lanes per pass, latency-sensitive streams
//! flushed at their deadlines and throughput streams flushed when full.
//! The flush inside a pump (plan, eval, apply, response matching) must
//! allocate nothing; the pump's one allowed allocation is the exactly
//! sized `Vec` of events it hands back, and a pump that returns no events
//! allocates nothing at all.
//!
//! A tenant whose plane binds more than 64 inputs — past the reach of the
//! dirty mask, so it never reuses a cached sweep — still evaluates in its
//! slot's own arena and input buffer: its steady-state `flush_tenants`
//! allocates no more than a 2-input tenant's.

use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::{generators, LogicNetlist, Node};
use mcfpga_fabric::FabricParams;
use mcfpga_service::frontend::{FrontendDriver, FrontendEvent, StreamPolicy};
use mcfpga_service::{ShardedService, TenantId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down may still allocate
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout contract
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout contract
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn input_names(nl: &LogicNetlist) -> Vec<String> {
    nl.input_ids()
        .into_iter()
        .map(|id| match nl.node(id) {
            Node::Input { name } => name.clone(),
            _ => unreachable!("input ids are inputs"),
        })
        .collect()
}

/// A 2-shard front end at executor width 1: two latency-sensitive and two
/// throughput streams, each with its tenant's input names.
fn frontend() -> (FrontendDriver, Vec<(TenantId, Vec<String>)>) {
    let mut svc = ShardedService::new(
        2,
        FabricParams {
            width: 5,
            height: 5,
            channel_width: 3,
            ..FabricParams::default()
        },
        TechParams::default(),
    )
    .expect("service");
    svc.set_threads(1);
    let mut fe = FrontendDriver::new(svc);
    let designs = [
        ("wire", generators::wire_lanes(1).unwrap()),
        ("parity3", generators::parity_tree(3).unwrap()),
        ("cmp2", generators::equality_comparator(2).unwrap()),
        ("pop4", generators::popcount4().unwrap()),
    ];
    let mut streams = Vec::new();
    for (i, (name, nl)) in designs.iter().enumerate() {
        let tenant = fe.admit(name, nl).expect("admit");
        let policy = if i < 2 {
            StreamPolicy::latency_sensitive(4, 6)
        } else {
            StreamPolicy::throughput(4)
        };
        fe.open_stream(tenant, policy).expect("stream");
        streams.push((tenant, input_names(nl)));
    }
    (fe, streams)
}

/// One cycle of sparse traffic: about one offer every other cycle, on a
/// stream and with inputs drawn from a fixed LCG.
fn offer(fe: &mut FrontendDriver, streams: &[(TenantId, Vec<String>)], rng: &mut u64) {
    *rng = rng
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    let draw = *rng >> 33;
    if draw & 1 == 0 {
        return;
    }
    let (tenant, names) = &streams[(draw >> 1) as usize % streams.len()];
    let inputs: Vec<(&str, bool)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), draw >> (4 + i) & 1 == 1))
        .collect();
    // a full stream refuses with backpressure: fine, the next offer retries
    let _ = fe.offer(*tenant, &inputs, None);
}

#[test]
fn steady_state_sparse_pumps_allocate_only_their_events() {
    let (mut fe, streams) = frontend();
    let mut rng = 7919u64;
    for _ in 0..4_000 {
        offer(&mut fe, &streams, &mut rng);
        drop(fe.pump().expect("warm-up pump"));
        fe.advance(1);
    }
    let drains_before = fe
        .telemetry()
        .registry()
        .counter_value("service_drains_total")
        .expect("registered");
    let (mut with_events, mut allocated) = (0u64, 0u64);
    for cycle in 0..1_000 {
        offer(&mut fe, &streams, &mut rng);
        let before = allocations();
        let events = fe.pump().expect("pump");
        let n = allocations() - before;
        assert!(
            n <= 1,
            "cycle {cycle}: a pump allocated {n} times ({} events)",
            events.len()
        );
        assert!(
            n == 0 || !events.is_empty(),
            "cycle {cycle}: a pump without events allocated"
        );
        if !events.is_empty() {
            assert!(events
                .iter()
                .all(|e| matches!(e, FrontendEvent::Completed { .. })));
            with_events += 1;
        }
        allocated += n;
        drop(events);
        fe.advance(1);
    }
    let flushes = fe
        .telemetry()
        .registry()
        .counter_value("service_drains_total")
        .unwrap()
        - drains_before;
    // every flush answers requests, so it is a pump with events: the
    // flush path's own allocations would push `allocated` past them
    assert!(
        flushes >= 200,
        "only {flushes} flushes: not a flushing workload"
    );
    assert_eq!(with_events, flushes, "every flush returns its completions");
    assert_eq!(
        allocated, with_events,
        "the flush path allocated: {allocated} allocations over {flushes} flushing pumps"
    );
}

/// `inputs` inputs `x0`, `x1`, … of which one LUT reads the first two:
/// every input is bound to an IO port, so the plane binds all of them.
fn one_lut(inputs: usize) -> (LogicNetlist, Vec<String>) {
    let mut nl = LogicNetlist::new();
    let ids: Vec<_> = (0..inputs)
        .map(|i| nl.add_input(&format!("x{i}")))
        .collect();
    let y = nl.add_lut("y", &ids[..2], 0b0110).unwrap();
    nl.add_output("y", y).unwrap();
    let names = input_names(&nl);
    (nl, names)
}

#[test]
fn a_wide_tenants_flush_allocates_no_more_than_a_narrow_ones() {
    let params = FabricParams {
        width: 6,
        height: 6,
        io_in: 2,
        ..FabricParams::default()
    };
    let mut svc = ShardedService::new(1, params, TechParams::default()).expect("service");
    svc.set_threads(1);
    let (wide_nl, wide_names) = one_lut(70);
    let (narrow_nl, narrow_names) = one_lut(2);
    let wide = svc.admit("wide", &wide_nl).expect("admit wide");
    let narrow = svc.admit("narrow", &narrow_nl).expect("admit narrow");
    // one request, then a flush of its tenant: the flush's allocations
    let flush = |svc: &mut ShardedService, tenant: TenantId, names: &[String], round: u64| {
        let inputs: Vec<(&str, bool)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), (round >> (i % 8)) & 1 == 1))
            .collect();
        svc.submit(tenant, &inputs).expect("submit");
        let before = allocations();
        let responses = svc.flush_tenants(&[tenant]).expect("flush");
        let n = allocations() - before;
        assert_eq!(responses.len(), 1);
        n
    };
    // warm-up: every buffer at its working size, the span ring full
    for round in 0..1_000 {
        flush(&mut svc, wide, &wide_names, round);
        flush(&mut svc, narrow, &narrow_names, round);
    }
    for round in 1_000..1_100 {
        let w = flush(&mut svc, wide, &wide_names, round);
        let n = flush(&mut svc, narrow, &narrow_names, round);
        assert!(
            w <= n,
            "round {round}: the 70-input tenant's flush allocated {w} times, \
             the 2-input tenant's {n}"
        );
    }
    let kernel_passes = svc
        .telemetry()
        .registry()
        .counter_value("fabric_kernel_evals")
        .expect("registered");
    assert_eq!(kernel_passes, 2 * 1_100, "both planes run the kernel");
}
