//! Deadline-boundary and configuration edge cases of the QoS front-end,
//! isolated from the main behavioral suite (`frontend_qos.rs`) so each
//! boundary is pinned by exactly one small test:
//!
//! * `deadline == now` is *alive*: it flushes immediately, never expires;
//! * `deadline < now` at the offer is dead on arrival: typed rejection;
//! * a pump over empty streams is a pure no-op;
//! * `set_lane_width` is refused while front-end queues are non-empty —
//!   from both the front-end's own guard and the service's;
//! * the front end's clock is the service telemetry's cycle cell, reset
//!   to 0 by `FrontendDriver::new`.

use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricParams;
use mcfpga_service::frontend::{
    FrontendDriver, FrontendError, FrontendEvent, RejectReason, StreamPolicy,
};
use mcfpga_service::{ShardedService, TenantId};

fn frontend(lanes: usize) -> (FrontendDriver, TenantId) {
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
    let t = fe
        .admit("wire", &generators::wire_lanes(1).unwrap())
        .expect("admit");
    (fe, t)
}

#[test]
fn deadline_equal_to_now_flushes_immediately() {
    let (mut fe, t) = frontend(8);
    fe.open_stream(t, StreamPolicy::latency_sensitive(8, 100))
        .unwrap();
    fe.advance(42);
    // an explicit deadline of exactly `now`: the request has zero slack,
    // so the very next pump must flush it — on its deadline, not past it
    let ticket = fe.offer(t, &[("in0", true)], Some(42)).expect("admitted");
    let events = fe.pump().expect("pump");
    match &events[..] {
        [FrontendEvent::Completed {
            ticket: tk,
            latency,
            flushed,
            outputs,
            ..
        }] => {
            assert_eq!(*tk, ticket);
            assert_eq!(*latency, 0, "zero-slack requests serve with zero latency");
            assert_eq!(*flushed, 42, "flushed exactly on the deadline cycle");
            assert!(outputs[0].1);
        }
        other => panic!("expected one immediate completion, got {other:?}"),
    }
    assert_eq!(fe.frontend_usage(t).unwrap().expired, 0);
}

#[test]
fn deadline_equal_to_now_is_not_expired_by_the_same_pump() {
    // the boundary from the expiry side: expiry is strictly `< now`, so
    // a deadline-of-now request on a *throughput* stream (which never
    // early-flushes) survives the pump still queued
    let (mut fe, t) = frontend(8);
    fe.open_stream(t, StreamPolicy::throughput(8)).unwrap();
    fe.advance(7);
    fe.offer(t, &[("in0", true)], Some(7)).expect("admitted");
    assert!(fe.pump().unwrap().is_empty(), "alive and below batch width");
    assert_eq!(fe.queued_requests(), 1);
    // one cycle later it is overdue and expires with the typed event
    fe.advance(1);
    let events = fe.pump().unwrap();
    assert!(
        matches!(
            events[..],
            [FrontendEvent::Expired {
                deadline: 7,
                now: 8,
                ..
            }]
        ),
        "got {events:?}"
    );
}

#[test]
fn deadline_in_the_past_rejects_with_typed_error() {
    let (mut fe, t) = frontend(8);
    fe.open_stream(t, StreamPolicy::latency_sensitive(8, 100))
        .unwrap();
    fe.advance(10);
    let err = fe.offer(t, &[("in0", true)], Some(9)).unwrap_err();
    assert_eq!(
        err,
        FrontendError::Rejected {
            tenant: t,
            reason: RejectReason::DeadlinePassed {
                deadline: 9,
                now: 10
            },
        }
    );
    // rejection left no trace in the queue, and the counter is typed too
    assert_eq!(fe.queued_requests(), 0);
    let u = fe.frontend_usage(t).unwrap();
    assert_eq!(u.rejected_deadline, 1);
    assert_eq!(u.admitted, 0);
    // a default-budget offer at the same instant is fine (budget ≥ 0
    // always lands at or after now)
    fe.offer(t, &[("in0", true)], None)
        .expect("budget deadline is alive");
}

#[test]
fn empty_queue_pump_is_a_no_op() {
    let (mut fe, t) = frontend(8);
    fe.open_stream(t, StreamPolicy::latency_sensitive(8, 5))
        .unwrap();
    let before_passes = fe.service().usage(t).unwrap().passes;
    let before_billing = fe.service().billing_report();
    let before_fe_billing = fe.frontend_billing_report();
    for _ in 0..10 {
        assert!(
            fe.pump().expect("pump").is_empty(),
            "no events from nothing"
        );
        fe.advance(1);
    }
    // no service pass ran, no billing moved, no clock-driven side effects
    assert_eq!(fe.service().usage(t).unwrap().passes, before_passes);
    assert_eq!(fe.service().billing_report(), before_billing);
    assert_eq!(fe.frontend_billing_report(), before_fe_billing);
    assert_eq!(fe.service().pending_requests(), 0);
}

#[test]
fn set_lane_width_refused_while_frontend_queues_nonempty() {
    let (mut fe, t) = frontend(8);
    fe.open_stream(t, StreamPolicy::throughput(4)).unwrap();
    fe.offer(t, &[("in0", true)], None).unwrap();
    fe.offer(t, &[("in0", false)], None).unwrap();
    let err = fe.set_lane_width(64).unwrap_err();
    assert_eq!(err, FrontendError::QueuesNotEmpty { queued: 2 });
    assert_eq!(fe.service().lane_width(), 8, "refusal changed nothing");
    // draining the queues (here: expiring is not possible — no
    // deadlines — so flush) re-enables the knob
    let events = fe.flush_all().unwrap();
    assert_eq!(events.len(), 2);
    fe.set_lane_width(64).expect("empty front-end queues");
    assert_eq!(fe.service().lane_width(), 64);
}

#[test]
fn set_lane_width_also_guarded_by_the_service_queue() {
    // requests already *flushed into the service* (a faulted slot keeps
    // them there) block the width change at the service layer even when
    // the front-end's own queues are empty
    let (mut fe, t) = frontend(8);
    fe.open_stream(t, StreamPolicy::latency_sensitive(8, 100))
        .unwrap();
    fe.offer(t, &[("in0", true)], None).unwrap();
    fe.service_mut().inject_plane_fault(t).unwrap();
    fe.pump().unwrap(); // flushes into the service; the pass faults
    assert_eq!(fe.queued_requests(), 0, "front-end queue is empty");
    assert_eq!(fe.inflight_requests(), 1, "…but the service still holds it");
    assert!(
        matches!(fe.set_lane_width(64), Err(FrontendError::Service(_))),
        "the service's own guard refuses"
    );
    // repair, serve, and the knob works again
    fe.service_mut().repair_plane(t).unwrap();
    fe.take_faults();
    let events = fe.pump().unwrap();
    assert_eq!(events.len(), 1);
    fe.set_lane_width(64).expect("all queues empty now");
}

#[test]
fn zero_deadline_budget_means_flush_every_pump() {
    // budget 0: every request's deadline is its arrival cycle — the
    // degenerate latency-sensitive stream that never batches
    let (mut fe, t) = frontend(8);
    fe.open_stream(t, StreamPolicy::latency_sensitive(8, 0))
        .unwrap();
    for i in 0..3 {
        fe.offer(t, &[("in0", i % 2 == 0)], None).unwrap();
        let events = fe.pump().unwrap();
        assert_eq!(events.len(), 1, "each request flushes on its own pump");
        assert!(matches!(
            events[0],
            FrontendEvent::Completed { latency: 0, .. }
        ));
        fe.advance(5);
    }
    assert_eq!(
        fe.service().usage(t).unwrap().passes,
        3,
        "zero batching: one pass per request"
    );
}

#[test]
fn the_clock_is_the_service_telemetry_cycle() {
    let svc = ShardedService::new(1, FabricParams::default(), TechParams::default()).unwrap();
    svc.telemetry().set_cycle(9);
    let mut fe = FrontendDriver::new(svc);
    assert_eq!((fe.now(), fe.telemetry().cycle()), (0, 0));
    fe.advance(5);
    assert_eq!((fe.now(), fe.telemetry().cycle()), (5, 5));
    // there is no second copy to fall out of step
    fe.service().telemetry().set_cycle(12);
    assert_eq!(fe.now(), 12);
    fe.advance(1);
    assert_eq!((fe.now(), fe.telemetry().cycle()), (13, 13));
}
