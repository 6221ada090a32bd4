//! Which refusal a front-end request meets, and at which pump.
//!
//! A front-end request is admitted without the service looking at its
//! payload; the service's refusal surfaces later, as a
//! [`FrontendEvent::Failed`] from the pump that hands it over. When more
//! than one refusal applies, the service's order decides: an unknown
//! tenant first, then a backlogged slot (the request stays queued and is
//! retried), then an input the request leaves undriven. These tests pin
//! that order and the pump it fails at, plus what happens to requests
//! already in the service when their tenant is retired underneath the
//! front end, and an exact event log for traffic that mixes front-end
//! offers with direct service submissions and `discard_pending`.

use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricParams;
use mcfpga_service::frontend::{FrontendDriver, FrontendEvent, QosClass, StreamPolicy};
use mcfpga_service::{ServiceError, ShardedService};

fn frontend(lanes: usize) -> FrontendDriver {
    let svc = ShardedService::new(
        1,
        FabricParams {
            width: 5,
            height: 5,
            channel_width: 3,
            ..FabricParams::default()
        },
        TechParams::default(),
    )
    .expect("service");
    let mut fe = FrontendDriver::new(svc);
    fe.set_lane_width(lanes).expect("queues are empty");
    fe
}

/// A latency-sensitive stream without a deadline budget: its head
/// request is due on every pump.
fn eager(capacity: usize) -> StreamPolicy {
    StreamPolicy {
        class: QosClass::LatencySensitive,
        capacity,
        deadline_budget: None,
        rate: None,
    }
}

fn failures(events: &[FrontendEvent]) -> Vec<(u64, ServiceError)> {
    events
        .iter()
        .filter_map(|e| match e {
            FrontendEvent::Failed { ticket, error, .. } => Some((ticket.value(), error.clone())),
            _ => None,
        })
        .collect()
}

fn completed(events: &[FrontendEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            FrontendEvent::Completed { ticket, .. } => Some(ticket.value()),
            _ => None,
        })
        .collect()
}

/// A request that misses an input but sits behind a full, faulted slot
/// is backlogged, not failed: it stays queued while the slot is full and
/// fails with `MissingInput` only at the pump that can enqueue it.
#[test]
fn backlogged_slot_outranks_a_missing_input() {
    let mut fe = frontend(2);
    let t = fe
        .admit("parity", &generators::parity_tree(2).unwrap())
        .unwrap();
    fe.open_stream(t, eager(8)).unwrap();
    fe.service_mut().inject_plane_fault(t).unwrap();
    for _ in 0..2 {
        fe.offer(t, &[("x0", true), ("x1", false)], None).unwrap();
    }
    // both hand over and fill the 2-lane slot; its pass faults
    assert!(completed(&fe.pump().unwrap()).is_empty());
    assert_eq!(fe.inflight_requests(), 2);
    fe.advance(1);
    let bad = fe.offer(t, &[("x0", true)], None).unwrap();
    let events = fe.pump().unwrap();
    assert!(failures(&events).is_empty(), "backlogged: {events:?}");
    assert_eq!(
        fe.queued_requests(),
        1,
        "the slot is full, so it stays queued"
    );
    fe.service_mut().repair_plane(t).unwrap();
    fe.advance(1);
    // the slot is still full when this pump hands over, so the bad
    // request waits once more; the two good ones complete
    let events = fe.pump().unwrap();
    assert_eq!(completed(&events), vec![0, 1]);
    assert!(failures(&events).is_empty());
    assert_eq!(fe.queued_requests(), 1);
    fe.advance(1);
    let events = fe.pump().unwrap();
    assert_eq!(
        failures(&events),
        vec![(
            bad.value(),
            ServiceError::MissingInput {
                name: "x1".to_string()
            }
        )]
    );
    assert_eq!(fe.queued_requests(), 0);
    assert_eq!(fe.inflight_requests(), 0);
    let usage = fe.frontend_usage(t).unwrap();
    assert_eq!((usage.completed, usage.failed), (2, 1));
}

/// A queued request whose tenant is retired fails with `UnknownTenant`,
/// whether or not it also misses an input.
#[test]
fn unknown_tenant_outranks_a_missing_input() {
    let mut fe = frontend(4);
    let t = fe
        .admit("parity", &generators::parity_tree(2).unwrap())
        .unwrap();
    fe.open_stream(t, eager(8)).unwrap();
    let partial = fe.offer(t, &[("x1", true)], None).unwrap();
    let whole = fe.offer(t, &[("x0", true), ("x1", true)], None).unwrap();
    fe.service_mut().retire_tenant(t).unwrap();
    let events = fe.pump().unwrap();
    let unknown = ServiceError::UnknownTenant(t.index());
    assert_eq!(
        failures(&events),
        vec![(partial.value(), unknown.clone()), (whole.value(), unknown)]
    );
    let usage = fe.frontend_usage(t).unwrap();
    assert_eq!(usage.resolved(), usage.admitted);
    assert_eq!(fe.queued_requests() + fe.inflight_requests(), 0);
}

/// Requests already in the service when their tenant is retired (what a
/// cross-node move does to the source after the destination restores)
/// resolve as `Failed { UnknownTenant }`, and every other stream keeps
/// flowing in that same pump.
#[test]
fn retired_tenant_in_flight_requests_fail_instead_of_wedging_the_front_end() {
    let mut fe = frontend(4);
    let a = fe.admit("a", &generators::wire_lanes(1).unwrap()).unwrap();
    let b = fe.admit("b", &generators::wire_lanes(1).unwrap()).unwrap();
    fe.open_stream(a, eager(8)).unwrap();
    fe.open_stream(b, eager(8)).unwrap();
    let stuck = fe.offer(a, &[("in0", true)], None).unwrap();
    fe.service_mut().inject_plane_fault(a).unwrap();
    assert!(completed(&fe.pump().unwrap()).is_empty());
    assert_eq!(fe.inflight_requests(), 1);
    fe.service_mut().retire_tenant(a).unwrap();
    fe.advance(1);
    let served = fe.offer(b, &[("in0", true)], None).unwrap();
    let events = fe.pump().expect("a retired tenant must not wedge the pump");
    assert_eq!(
        failures(&events),
        vec![(stuck.value(), ServiceError::UnknownTenant(a.index()))]
    );
    assert_eq!(completed(&events), vec![served.value()]);
    assert_eq!(fe.inflight_requests(), 0);
    let usage = fe.frontend_usage(a).unwrap();
    assert_eq!((usage.admitted, usage.failed), (1, 1));
    assert_eq!(usage.resolved(), usage.admitted);
    // the retired stream stays quiet afterwards
    fe.advance(1);
    assert!(fe.pump().unwrap().is_empty());
}

/// Front-end offers mixed with direct service submissions (pass-through
/// responses) and `discard_pending` (requests the front end handed over
/// that will never be answered): the event log and the in-flight count
/// after every pump, pinned exactly.
#[test]
fn mixed_direct_traffic_and_discards_keep_their_event_log() {
    let mut fe = frontend(4);
    let a = fe.admit("a", &generators::wire_lanes(1).unwrap()).unwrap();
    let b = fe.admit("b", &generators::wire_lanes(1).unwrap()).unwrap();
    fe.open_stream(a, eager(8)).unwrap();
    fe.open_stream(b, StreamPolicy::throughput(4)).unwrap();
    let mut log = Vec::new();
    let mut record = |fe: &mut FrontendDriver, events: Vec<FrontendEvent>| {
        for e in events {
            log.push(match e {
                FrontendEvent::Completed {
                    ticket,
                    request,
                    tenant,
                    outputs,
                    latency,
                    flushed,
                } => format!(
                    "done {ticket} {request} {tenant} {} lat={latency} at={flushed}",
                    outputs[0].1
                ),
                FrontendEvent::Expired { ticket, .. } => format!("expired {ticket}"),
                FrontendEvent::Failed { ticket, error, .. } => format!("failed {ticket} {error}"),
                FrontendEvent::PassThrough { response } => {
                    format!("pass {} {}", response.request, response.outputs[0].1)
                }
            });
        }
        log.push(format!(
            "-- now={} queued={} inflight={}",
            fe.now(),
            fe.queued_requests(),
            fe.inflight_requests()
        ));
    };
    fe.offer(a, &[("in0", true)], None).unwrap();
    fe.offer(a, &[("in0", false)], None).unwrap();
    fe.service_mut().submit(a, &[("in0", true)]).unwrap();
    fe.offer(b, &[("in0", true)], None).unwrap();
    let events = fe.pump().unwrap();
    record(&mut fe, events);
    fe.advance(1);
    fe.service_mut().inject_plane_fault(a).unwrap();
    fe.offer(a, &[("in0", true)], None).unwrap();
    let events = fe.pump().unwrap();
    record(&mut fe, events);
    fe.advance(1);
    fe.service_mut().submit(a, &[("in0", false)]).unwrap();
    assert_eq!(fe.service_mut().discard_pending(a).unwrap(), 2);
    fe.service_mut().repair_plane(a).unwrap();
    fe.offer(a, &[("in0", false)], None).unwrap();
    fe.service_mut().submit(b, &[("in0", false)]).unwrap();
    fe.offer(a, &[("in0", true)], None).unwrap();
    let events = fe.pump().unwrap();
    record(&mut fe, events);
    fe.advance(1);
    for v in [true, false, true] {
        fe.offer(b, &[("in0", v)], None).unwrap();
    }
    fe.offer(a, &[("in0", false)], None).unwrap();
    let events = fe.pump().unwrap();
    record(&mut fe, events);
    fe.advance(2);
    fe.service_mut().submit(a, &[("in0", true)]).unwrap();
    fe.offer(b, &[("in0", true)], None).unwrap();
    let events = fe.flush_all().unwrap();
    record(&mut fe, events);
    let _ = fe.take_faults();
    // tkt#3 (req#3) was discarded in the service: it never completes and
    // stays counted in flight, as a discarded hand-over always has
    let expected = [
        "pass req#0 true",
        "done tkt#0 req#1 tenant#0 true lat=0 at=0",
        "done tkt#1 req#2 tenant#0 false lat=0 at=0",
        "-- now=0 queued=1 inflight=0",
        "-- now=1 queued=1 inflight=1",
        "done tkt#4 req#6 tenant#0 false lat=0 at=2",
        "done tkt#5 req#7 tenant#0 true lat=0 at=2",
        "-- now=2 queued=1 inflight=1",
        "pass req#5 false",
        "done tkt#2 req#9 tenant#1 true lat=3 at=3",
        "done tkt#6 req#10 tenant#1 true lat=0 at=3",
        "done tkt#7 req#11 tenant#1 false lat=0 at=3",
        "done tkt#8 req#12 tenant#1 true lat=0 at=3",
        "done tkt#9 req#8 tenant#0 false lat=0 at=3",
        "-- now=3 queued=0 inflight=1",
        "pass req#13 true",
        "done tkt#10 req#14 tenant#1 true lat=0 at=5",
        "-- now=5 queued=0 inflight=1",
    ];
    assert_eq!(log, expected);
}
