//! Property test of the QoS front-end's conservation contract, extending
//! the queue-conservation pattern of `stress_replay.rs` to admission
//! control: on random seeded traffic,
//!
//! 1. every **admitted** request resolves **exactly once** — completed
//!    XOR expired XOR failed — and every refused offer resolves zero
//!    times (backpressure/rejection enqueue nothing);
//! 2. the responses of the surviving (completed) requests are
//!    **bit-for-bit identical** to a QoS-free reference run that submits
//!    exactly those requests straight into a plain `ShardedService` —
//!    queueing, early partial flushes, rate limiting, and expiry may
//!    decide *which* requests get served and *when*, but never change
//!    *what* a served request computes.

use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::{generators, LogicNetlist};
use mcfpga_fabric::FabricParams;
use mcfpga_service::frontend::{FrontendDriver, FrontendEvent, RateLimit, StreamPolicy, Ticket};
use mcfpga_service::{Outputs, ShardedService};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// A completed ticket with its demuxed outputs, in completion order.
type CompletedOutputs = Vec<(Ticket, Outputs)>;
/// Combinational designs only: lanes are independent, so a request's
/// outputs depend on nothing but its own inputs — the precondition for
/// comparing against a reference run that serves a *subset* in
/// different batches. (Stateful `reg:*` tenants are exercised by the
/// chaos replay, not here.)
fn designs() -> Vec<(&'static str, LogicNetlist)> {
    vec![
        ("wire", generators::wire_lanes(1).unwrap()),
        ("parity3", generators::parity_tree(3).unwrap()),
        ("cmp2", generators::equality_comparator(2).unwrap()),
        ("pop4", generators::popcount4().unwrap()),
    ]
}

/// Input names of a netlist, declaration order.
fn input_names(nl: &LogicNetlist) -> Vec<String> {
    nl.input_ids()
        .into_iter()
        .map(|id| match nl.node(id) {
            mcfpga_fabric::netlist_ir::Node::Input { name } => name.clone(),
            _ => unreachable!("input ids are inputs"),
        })
        .collect()
}

fn service(shards: usize, lanes: usize) -> ShardedService {
    let mut svc = ShardedService::new(
        shards,
        FabricParams {
            width: 5,
            height: 5,
            channel_width: 3,
            ..FabricParams::default()
        },
        TechParams::default(),
    )
    .expect("service");
    svc.set_lane_width(lanes).expect("no pending requests");
    svc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn admitted_requests_resolve_exactly_once_and_match_reference(
        seed in any::<u64>(),
        lanes in prop::sample::select(vec![2usize, 4, 8, 16]),
        steps in 60u64..220,
        offer_density in 1u32..4,
        pump_every in 1u64..4,
        chaos in any::<bool>(),
    ) {
        let designs = designs();
        let mut fe = FrontendDriver::new(service(2, lanes));
        let tenants: Vec<_> = designs
            .iter()
            .map(|(name, nl)| fe.admit(name, nl).unwrap())
            .collect();
        let names: Vec<Vec<String>> = designs.iter().map(|(_, nl)| input_names(nl)).collect();
        // a deliberately adversarial policy mix: tight and loose
        // deadlines, tiny and roomy queues, one rate-limited stream
        let policies = [
            StreamPolicy::latency_sensitive(3, 4),
            StreamPolicy::throughput(6),
            StreamPolicy::latency_sensitive(8, 12)
                .with_rate(RateLimit::per_cycles(1, 3, 2)),
            StreamPolicy::throughput(2),
        ];
        for (i, &t) in tenants.iter().enumerate() {
            fe.open_stream(t, policies[i % policies.len()]).unwrap();
        }

        let mut rng = StdRng::seed_from_u64(seed);
        // per-ticket ground truth: which tenant, which input payload
        let mut payloads: HashMap<Ticket, (usize, Vec<(String, bool)>)> = HashMap::new();
        // per-ticket resolution count — the conservation ledger
        let mut resolved: HashMap<Ticket, u32> = HashMap::new();
        let mut completed_outputs: CompletedOutputs = Vec::new();
        let mut refusals = 0usize;
        let mut faulted: Option<usize> = None;

        let absorb = |events: Vec<FrontendEvent>,
                          resolved: &mut HashMap<Ticket, u32>,
                          completed: &mut CompletedOutputs| {
            for e in events {
                match e {
                    FrontendEvent::Completed { ticket, outputs, .. } => {
                        *resolved.entry(ticket).or_insert(0) += 1;
                        completed.push((ticket, outputs));
                    }
                    FrontendEvent::Expired { ticket, deadline, now, .. } => {
                        *resolved.entry(ticket).or_insert(0) += 1;
                        prop_assert!(deadline < now, "expiry is strictly overdue");
                    }
                    FrontendEvent::Failed { ticket, .. } => {
                        *resolved.entry(ticket).or_insert(0) += 1;
                    }
                    FrontendEvent::PassThrough { .. } => {
                        prop_assert!(false, "no direct submissions in this test");
                    }
                }
            }
            Ok(())
        };

        for step in 0..steps {
            for _ in 0..offer_density {
                let which = rng.random_range(0..tenants.len());
                let scalar: Vec<(String, bool)> = names[which]
                    .iter()
                    .map(|n| (n.clone(), rng.random_bool()))
                    .collect();
                let refs: Vec<(&str, bool)> =
                    scalar.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                // a third of offers carry an explicit (sometimes very
                // tight) deadline instead of the policy default
                let deadline = if rng.random_range(0..3u32) == 0 {
                    Some(fe.now() + rng.random_range(0..6u64))
                } else {
                    None
                };
                match fe.offer(tenants[which], &refs, deadline) {
                    Ok(ticket) => {
                        payloads.insert(ticket, (which, scalar));
                    }
                    Err(_) => refusals += 1,
                }
            }
            // chaos: poison one tenant's plane for a window mid-run so
            // the retry path is part of the conserved behavior
            if chaos {
                if step == steps / 3 && faulted.is_none() {
                    let which = rng.random_range(0..tenants.len());
                    fe.service_mut().inject_plane_fault(tenants[which]).unwrap();
                    faulted = Some(which);
                }
                if step == (2 * steps) / 3 {
                    if let Some(which) = faulted.take() {
                        fe.service_mut().repair_plane(tenants[which]).unwrap();
                    }
                }
            }
            if step % pump_every == 0 {
                let events = fe.pump().unwrap();
                fe.take_faults();
                absorb(events, &mut resolved, &mut completed_outputs)?;
            }
            fe.advance(1);
        }
        if let Some(which) = faulted.take() {
            fe.service_mut().repair_plane(tenants[which]).unwrap();
        }
        let events = fe.flush_all().unwrap();
        fe.take_faults();
        absorb(events, &mut resolved, &mut completed_outputs)?;

        // -- conservation: admitted XOR'd into exactly one resolution --
        prop_assert_eq!(fe.queued_requests(), 0, "flush_all left work queued");
        prop_assert_eq!(fe.inflight_requests(), 0, "flush_all left work in flight");
        for (ticket, count) in &resolved {
            prop_assert_eq!(
                *count, 1u32,
                "ticket {} resolved {} times", ticket, count
            );
            prop_assert!(
                payloads.contains_key(ticket),
                "resolved a ticket that was never admitted: {}", ticket
            );
        }
        prop_assert_eq!(
            resolved.len(),
            payloads.len(),
            "every admitted ticket must resolve (admitted {}, resolved {})",
            payloads.len(),
            resolved.len()
        );
        // the per-stream counters tell the same story in aggregate
        let mut usage_admitted = 0;
        let mut usage_resolved = 0;
        let mut usage_rejected = 0;
        for &t in &tenants {
            let u = fe.frontend_usage(t).unwrap();
            usage_admitted += u.admitted;
            usage_resolved += u.resolved();
            usage_rejected += u.rejected();
        }
        prop_assert_eq!(usage_admitted, payloads.len());
        prop_assert_eq!(usage_resolved, payloads.len());
        prop_assert_eq!(usage_rejected, refusals);

        // -- bit-identity against a QoS-free reference run --
        // replay exactly the surviving requests, in completion order, on
        // a plain service with no front-end, then compare every output
        let mut reference = service(2, lanes);
        let ref_tenants: Vec<_> = designs
            .iter()
            .map(|(name, nl)| reference.admit(name, nl).unwrap())
            .collect();
        let mut id_to_ticket = HashMap::new();
        for (ticket, _) in &completed_outputs {
            let (which, scalar) = &payloads[ticket];
            let refs: Vec<(&str, bool)> =
                scalar.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let id = reference.submit(ref_tenants[*which], &refs).unwrap();
            id_to_ticket.insert(id, *ticket);
            // drain in submission chunks so huge cases can't overflow a
            // tiny reference queue partition
            if id_to_ticket.len() % 2 == 0 {
                for resp in reference.drain().unwrap() {
                    let ticket = id_to_ticket[&resp.request];
                    let qos = completed_outputs
                        .iter()
                        .find(|(t, _)| *t == ticket)
                        .map(|(_, o)| o.clone())
                        .unwrap();
                    prop_assert_eq!(
                        &qos, &resp.outputs,
                        "QoS-served outputs differ from the reference for {}", ticket
                    );
                }
            }
        }
        for resp in reference.drain().unwrap() {
            let ticket = id_to_ticket[&resp.request];
            let qos = completed_outputs
                .iter()
                .find(|(t, _)| *t == ticket)
                .map(|(_, o)| o.clone())
                .unwrap();
            prop_assert_eq!(
                &qos, &resp.outputs,
                "QoS-served outputs differ from the reference for {}", ticket
            );
        }
        // the traffic actually exercised the machinery
        prop_assert!(!payloads.is_empty(), "no request was ever admitted");
    }
}
