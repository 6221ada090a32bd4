//! End-to-end tests of the multi-tenant batched execution service:
//! correctness against the netlist reference evaluator, lane-full
//! auto-flush, plane-cache behaviour, capacity limits and per-tenant
//! energy attribution.

use mcfpga_device::TechParams;
use mcfpga_fabric::compiled::LANES;
use mcfpga_fabric::netlist_ir::{generators, LogicNetlist};
use mcfpga_fabric::FabricParams;
use mcfpga_service::{OptimizeMode, PlacementPolicy, ServiceError, ShardedService, TenantId};

fn service(shards: usize) -> ShardedService {
    ShardedService::new(
        shards,
        FabricParams {
            width: 5,
            height: 5,
            channel_width: 3,
            ..FabricParams::default()
        },
        TechParams::default(),
    )
    .expect("service")
}

/// Input names of a netlist, in declaration order.
fn input_names(nl: &LogicNetlist) -> Vec<String> {
    nl.input_ids()
        .into_iter()
        .map(|id| match nl.node(id) {
            mcfpga_fabric::netlist_ir::Node::Input { name } => name.clone(),
            _ => unreachable!(),
        })
        .collect()
}

#[test]
fn batched_responses_match_reference_eval() {
    let mut svc = service(2);
    let designs = [
        ("parity", generators::parity_tree(4).unwrap()),
        ("compare", generators::equality_comparator(3).unwrap()),
        ("popcount", generators::popcount4().unwrap()),
    ];
    let tenants: Vec<_> = designs
        .iter()
        .map(|(name, nl)| svc.admit(name, nl).unwrap())
        .collect();

    // 17 requests per tenant (odd count: no tenant fills a full batch)
    let mut expected = Vec::new();
    for ((_, nl), &tenant) in designs.iter().zip(&tenants) {
        let names = input_names(nl);
        for k in 0..17u64 {
            let scalar: Vec<(String, bool)> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), (k >> (i % 6)) & 1 == 1))
                .collect();
            let refs: Vec<(&str, bool)> = scalar.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let mut want = nl.eval(&refs).unwrap();
            want.sort();
            let id = svc.submit(tenant, &refs).unwrap();
            expected.push((id, tenant, want));
        }
    }
    assert_eq!(svc.pending_requests(), 3 * 17);

    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 3 * 17);
    assert_eq!(svc.pending_requests(), 0);
    for (id, tenant, want) in expected {
        let resp = responses.iter().find(|r| r.request == id).unwrap();
        assert_eq!(resp.tenant, tenant);
        let mut got: Vec<(String, bool)> = resp
            .outputs
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect();
        got.sort();
        assert_eq!(got, want, "request {id}");
    }

    // each tenant's 17 requests rode exactly one bit-parallel pass
    for &t in &tenants {
        let u = svc.usage(t).unwrap();
        assert_eq!(u.requests, 17);
        assert_eq!(u.passes, 1);
    }
}

#[test]
fn lane_full_slot_flushes_without_drain() {
    let mut svc = service(1);
    // narrow the datapath to one chunk word so the auto-flush threshold
    // is reachable with 64 submits
    svc.set_lane_width(LANES).unwrap();
    let nl = generators::parity_tree(3).unwrap();
    let tenant = svc.admit("parity", &nl).unwrap();
    for k in 0..LANES as u64 {
        svc.submit(
            tenant,
            &[("x0", k & 1 == 1), ("x1", k & 2 == 2), ("x2", k & 4 == 4)],
        )
        .unwrap();
    }
    // the 64th submit triggered the pass; nothing is parked any more
    assert_eq!(svc.pending_requests(), 0);
    assert_eq!(svc.usage(tenant).unwrap().passes, 1);
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), LANES);
    for (lane, resp) in responses.iter().enumerate() {
        let k = lane as u64;
        let want = ((k & 7).count_ones() % 2) == 1;
        assert_eq!(resp.outputs[0].1, want, "lane {lane}");
    }
    // a perfectly full pass: 64 vectors per pass on the bill
    assert_eq!(svc.bill(tenant).unwrap().vectors_per_pass, 64.0);
}

#[test]
fn identical_readmission_hits_the_plane_cache() {
    let mut svc = service(2);
    let nl = generators::parity_tree(4).unwrap();
    // tenant 0 → shard 0 ctx 0; tenant 1 → shard 1 ctx 0: same slot index,
    // same deterministic routing seed, identical netlist ⇒ identical digest
    let a = svc.admit("a", &nl).unwrap();
    assert_eq!((svc.cache().hits(), svc.cache().misses()), (0, 1));
    let b = svc.admit("b", &nl).unwrap();
    assert_eq!(
        (svc.cache().hits(), svc.cache().misses()),
        (1, 1),
        "re-admitting an identical configuration must not recompile"
    );
    assert_eq!(
        svc.registry().tenant(a).unwrap().digest,
        svc.registry().tenant(b).unwrap().digest
    );
    // a different design on the next slot compiles fresh
    svc.admit("c", &generators::popcount4().unwrap()).unwrap();
    assert_eq!(svc.cache().misses(), 2);

    // both cached-plane tenants still answer correctly and independently
    svc.submit(
        a,
        &[("x0", true), ("x1", false), ("x2", false), ("x3", false)],
    )
    .unwrap();
    svc.submit(
        b,
        &[("x0", true), ("x1", true), ("x2", false), ("x3", false)],
    )
    .unwrap();
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 2);
    assert!(responses.iter().any(|r| r.tenant == a && r.outputs[0].1));
    assert!(responses.iter().any(|r| r.tenant == b && !r.outputs[0].1));
}

#[test]
fn capacity_exhausted_is_reported() {
    let mut svc = service(1); // 1 shard × 4 contexts
    let nl = generators::wire_lanes(1).unwrap();
    for i in 0..4 {
        svc.admit(&format!("t{i}"), &nl).unwrap();
    }
    assert!(matches!(
        svc.admit("overflow", &nl),
        Err(ServiceError::CapacityExhausted {
            shards: 1,
            contexts: 4
        })
    ));
}

#[test]
fn unknown_tenant_is_rejected() {
    let mut svc = service(1);
    let id = svc.admit("a", &generators::wire_lanes(1).unwrap()).unwrap();
    let mut other = service(1);
    other
        .admit("x", &generators::wire_lanes(1).unwrap())
        .unwrap();
    other
        .admit("y", &generators::wire_lanes(1).unwrap())
        .unwrap();
    let foreign = other
        .admit("z", &generators::wire_lanes(1).unwrap())
        .unwrap();
    // `foreign` indexes tenant 2, which `svc` never issued
    assert!(matches!(
        svc.submit(foreign, &[]),
        Err(ServiceError::UnknownTenant(2))
    ));
    assert!(svc.usage(id).is_ok());
}

#[test]
fn request_missing_a_bound_input_is_rejected_at_submit() {
    let mut svc = service(1);
    let nl = generators::parity_tree(3).unwrap();
    let t = svc.admit("parity", &nl).unwrap();
    // a sibling request drives all inputs; without submit-time validation
    // the short request below would silently evaluate with x2 = 0
    svc.submit(t, &[("x0", false), ("x1", false), ("x2", true)])
        .unwrap();
    let err = svc.submit(t, &[("x0", true), ("x1", false)]).unwrap_err();
    assert!(matches!(err, ServiceError::MissingInput { ref name } if name == "x2"));
    assert_eq!(svc.pending_requests(), 1, "rejected request never queued");
    assert_eq!(svc.usage(t).unwrap().requests, 1);
    // extra names the plane does not bind are harmless
    svc.submit(
        t,
        &[("x0", true), ("x1", false), ("x2", false), ("zz", true)],
    )
    .unwrap();
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 2);
    assert!(responses[0].outputs[0].1, "parity(0,0,1) = 1");
    assert!(responses[1].outputs[0].1, "parity(1,0,0) = 1");
    assert!(svc.take_faults().is_empty());
}

#[test]
fn duplicate_bound_input_names_still_submit() {
    // two primary inputs sharing one name produce two identically-named
    // bind entries; coverage must require the *distinct* name once, not
    // reject every request for the tenant
    let mut nl = LogicNetlist::new();
    let a = nl.add_input("x");
    let b = nl.add_input("x");
    let o = nl.add_lut("or", &[a, b], 0b1110).unwrap();
    nl.add_output("y", o).unwrap();
    let mut svc = service(1);
    let t = svc.admit("dup", &nl).unwrap();
    svc.submit(t, &[("x", true)]).unwrap();
    svc.submit(t, &[("x", false)]).unwrap();
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 2);
    assert!(responses[0].outputs[0].1, "x|x with x=1");
    assert!(!responses[1].outputs[0].1, "x|x with x=0");
}

#[test]
fn discard_pending_removes_requests_from_the_bill() {
    let mut svc = service(1);
    let nl = generators::wire_lanes(1).unwrap();
    let t = svc.admit("wire", &nl).unwrap();
    svc.submit(t, &[("in0", true)]).unwrap();
    svc.submit(t, &[("in0", false)]).unwrap();
    assert_eq!(svc.discard_pending(t).unwrap(), 2);
    assert_eq!(svc.usage(t).unwrap().requests, 0, "discarded != served");
    // two served requests in one pass: vectors_per_pass stays physical
    svc.submit(t, &[("in0", true)]).unwrap();
    svc.submit(t, &[("in0", true)]).unwrap();
    assert_eq!(svc.drain().unwrap().len(), 2);
    assert_eq!(svc.bill(t).unwrap().vectors_per_pass, 2.0);
}

/// Energy-aware placement lands the second tenant on a same-polarity
/// context (0 and 2: 2 toggles per switch) where round-robin packs
/// contexts 0 and 1 (polarity flip: 4 toggles) — so the *same workload*
/// spends measurably fewer broadcast toggles, before any sweep
/// reordering (both services run naive sweeps here to isolate placement).
#[test]
fn energy_aware_placement_beats_round_robin_on_sweep_toggles() {
    let run = |policy: PlacementPolicy| {
        let mut svc = ShardedService::with_policies(
            1,
            FabricParams {
                width: 5,
                height: 5,
                channel_width: 3,
                ..FabricParams::default()
            },
            TechParams::default(),
            OptimizeMode::Naive,
            policy,
        )
        .unwrap();
        let nl = generators::wire_lanes(1).unwrap();
        let a = svc.admit("a", &nl).unwrap();
        let b = svc.admit("b", &nl).unwrap();
        // sparse ping-pong: every drain sweeps both tenants' contexts
        for i in 0..8 {
            svc.submit(a, &[("in0", i % 2 == 0)]).unwrap();
            svc.submit(b, &[("in0", i % 2 == 1)]).unwrap();
            let responses = svc.drain().unwrap();
            assert_eq!(responses.len(), 2);
        }
        svc.usage(a).unwrap().css_toggles + svc.usage(b).unwrap().css_toggles
    };
    let round_robin = run(PlacementPolicy::RoundRobin);
    let energy_aware = run(PlacementPolicy::EnergyAware);
    assert!(
        energy_aware < round_robin,
        "energy-aware placement must cut sweep toggles \
         ({energy_aware} vs {round_robin})"
    );
}

/// Energy-aware placement's affinity tie-break prefers the context index
/// an identical netlist landed on before: deterministic per-slot routing
/// then reproduces the same `context_digest`, so the second admission is
/// a plane-cache hit even though it sits on a different shard.
#[test]
fn energy_aware_placement_reuses_planes_across_shards() {
    let mut svc = ShardedService::with_policies(
        2,
        FabricParams {
            width: 5,
            height: 5,
            channel_width: 3,
            ..FabricParams::default()
        },
        TechParams::default(),
        OptimizeMode::Optimized,
        PlacementPolicy::EnergyAware,
    )
    .unwrap();
    let nl = generators::parity_tree(4).unwrap();
    let a = svc.admit("a", &nl).unwrap();
    let b = svc.admit("b", &nl).unwrap();
    let (pa, pb) = (
        svc.registry().tenant(a).unwrap().placement,
        svc.registry().tenant(b).unwrap().placement,
    );
    assert_ne!(pa.shard, pb.shard, "marginal cost spreads across shards");
    assert_eq!(pa.ctx, pb.ctx, "affinity reuses the context index");
    assert_eq!(
        (svc.cache().hits(), svc.cache().misses()),
        (1, 1),
        "identical netlist on the affinity slot must not recompile"
    );
    // both tenants answer correctly from the shared plane
    let inputs = [("x0", true), ("x1", false), ("x2", false), ("x3", false)];
    svc.submit(a, &inputs).unwrap();
    svc.submit(b, &inputs).unwrap();
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 2);
    assert!(responses.iter().all(|r| r.outputs[0].1), "parity(1,0,0,0)");
}

/// Switching `OptimizeMode` mid-flight is safe (any sweep order is
/// output-equivalent), and under `Naive` the baseline accounting equals
/// the actual charge.
#[test]
fn optimize_mode_toggles_at_runtime() {
    let mut svc = service(1);
    assert_eq!(svc.optimize_mode(), OptimizeMode::Optimized);
    svc.set_optimize_mode(OptimizeMode::Naive);
    let nl = generators::wire_lanes(1).unwrap();
    let tenants: Vec<_> = (0..3)
        .map(|i| svc.admit(&format!("t{i}"), &nl).unwrap())
        .collect();
    for &t in &tenants {
        svc.submit(t, &[("in0", true)]).unwrap();
    }
    assert_eq!(svc.drain().unwrap().len(), 3);
    for &t in &tenants {
        let u = svc.usage(t).unwrap();
        assert_eq!(
            u.css_toggles, u.css_toggles_baseline,
            "naive mode is its own baseline"
        );
        assert_eq!(svc.bill(t).unwrap().css_energy_saved_j, 0.0);
    }
    // back to optimized: the sweep saves toggles against the baseline
    svc.set_optimize_mode(OptimizeMode::Optimized);
    for _ in 0..4 {
        for &t in &tenants {
            svc.submit(t, &[("in0", false)]).unwrap();
        }
        svc.drain().unwrap();
    }
    let toggles: usize = tenants
        .iter()
        .map(|&t| svc.usage(t).unwrap().css_toggles)
        .sum();
    let baseline: usize = tenants
        .iter()
        .map(|&t| svc.usage(t).unwrap().css_toggles_baseline)
        .sum();
    assert!(toggles < baseline, "optimized sweeps must show savings");
    let saved: f64 = tenants
        .iter()
        .map(|&t| svc.bill(t).unwrap().css_energy_saved_j)
        .sum();
    assert!(saved > 0.0);
}

#[test]
fn css_energy_is_attributed_to_the_switched_in_tenant() {
    let mut svc = service(1);
    let nl = generators::wire_lanes(1).unwrap();
    let t0 = svc.admit("busy", &nl).unwrap(); // ctx 0
    let t1 = svc.admit("other", &nl).unwrap(); // ctx 1
    let t2 = svc.admit("idle", &nl).unwrap(); // ctx 2

    // ping-pong between t0 and t1; t2 never submits
    for _ in 0..3 {
        svc.submit(t0, &[("in0", true)]).unwrap();
        svc.submit(t1, &[("in0", false)]).unwrap();
        svc.drain().unwrap();
    }
    let u0 = svc.usage(t0).unwrap();
    let u1 = svc.usage(t1).unwrap();
    let u2 = svc.usage(t2).unwrap();
    assert_eq!((u0.passes, u1.passes, u2.passes), (3, 3, 0));
    // every sweep switches 1→0 then 0→1 (first sweep starts on 0: free)
    assert!(u1.css_toggles > 0, "t1 pays for being switched in");
    assert!(
        u1.css_toggles >= u0.css_toggles,
        "t0 starts as the resident"
    );
    assert_eq!(u2.css_toggles, 0, "idle tenant is never switched in");
    assert_eq!(svc.bill(t2).unwrap().dynamic_energy_j, 0.0);
    let report = svc.billing_report();
    for name in ["busy", "other", "idle"] {
        assert!(report.contains(name), "billing table lists {name}");
    }
}

/// The chunked datapath's headline: 256 single-vector requests to one
/// tenant ride **one** fabric pass at the default width, and the demuxed
/// answers are bit-for-bit what four independent 64-lane passes produce.
#[test]
fn a_256_request_burst_is_one_pass_and_matches_four_narrow_passes() {
    let nl = generators::parity_tree(3).unwrap();
    let vector = |k: u64| [("x0", k & 1 == 1), ("x1", k & 2 == 2), ("x2", k & 4 == 4)];

    let mut wide = service(1);
    assert_eq!(wide.lane_width(), 256, "chunked width is the default");
    let wt = wide.admit("parity", &nl).unwrap();
    for k in 0..256u64 {
        wide.submit(wt, &vector(k)).unwrap();
    }
    // lane 256 filled the slot: the chunked pass already ran
    assert_eq!(wide.pending_requests(), 0);
    assert_eq!(wide.usage(wt).unwrap().passes, 1);
    let wide_out: Vec<Vec<(String, bool)>> = wide
        .drain()
        .unwrap()
        .into_iter()
        .map(|r| r.outputs.iter().map(|(n, v)| (n.to_string(), *v)).collect())
        .collect();
    assert_eq!(wide_out.len(), 256);

    let mut narrow = service(1);
    narrow.set_lane_width(LANES).unwrap();
    let nt = narrow.admit("parity", &nl).unwrap();
    for k in 0..256u64 {
        narrow.submit(nt, &vector(k)).unwrap();
    }
    assert_eq!(narrow.usage(nt).unwrap().passes, 4, "four 64-lane flushes");
    let narrow_out: Vec<Vec<(String, bool)>> = narrow
        .drain()
        .unwrap()
        .into_iter()
        .map(|r| r.outputs.iter().map(|(n, v)| (n.to_string(), *v)).collect())
        .collect();
    assert_eq!(wide_out, narrow_out, "chunked pass diverged from 4×64");
    assert_eq!(
        wide.bill(wt).unwrap().vectors_per_pass,
        256.0,
        "a perfectly full chunked pass"
    );
}

/// Dirty-cone incremental sweeps: resubmitting identical vectors to a
/// kernel-eligible plane skips the whole cone (the cached per-slot state
/// already holds the answer) while a changed vector re-runs it — and the
/// responses are identical either way. The skip shows up in the
/// deterministic `fabric_ops_skipped` counter.
#[test]
fn identical_resubmission_skips_the_dirty_cone() {
    let mut svc = service(1);
    let nl = generators::parity_tree(4).unwrap();
    let t = svc.admit("parity", &nl).unwrap();
    let inputs = [("x0", true), ("x1", false), ("x2", true), ("x3", false)];
    let registry = svc.telemetry().registry().clone();
    let counter = move |name: &str| registry.counter_value(name).unwrap_or(0);

    svc.submit(t, &inputs).unwrap();
    let first = svc.drain().unwrap();
    assert_eq!(counter("fabric_ops_skipped"), 0, "first sweep runs cold");
    let total_after_first = counter("fabric_ops_total");
    assert!(total_after_first > 0, "kernel sweep reports its op count");
    assert_eq!(counter("fabric_kernel_evals"), 1);

    // same vector again: the plan-phase diff finds zero dirty lanes and
    // the whole op program is skipped
    svc.submit(t, &inputs).unwrap();
    let second = svc.drain().unwrap();
    let skipped = counter("fabric_ops_skipped");
    assert_eq!(
        skipped, total_after_first,
        "an unchanged sweep skips every op"
    );
    assert_eq!(
        counter("fabric_ops_total"),
        2 * total_after_first,
        "ops_total counts planned ops whether or not they ran"
    );
    assert_eq!(first[0].outputs, second[0].outputs, "skip is invisible");

    // flip one input: ops in x0's cone re-run, ops outside it (the
    // routing and LUTs fed only by x1..x3) stay skipped, and the answer
    // flips with the input
    svc.submit(
        t,
        &[("x0", false), ("x1", false), ("x2", true), ("x3", false)],
    )
    .unwrap();
    let third = svc.drain().unwrap();
    let skipped_partial = counter("fabric_ops_skipped") - skipped;
    assert!(
        skipped_partial > 0 && skipped_partial < total_after_first,
        "a one-input change skips some ops but re-runs x0's cone \
         ({skipped_partial} of {total_after_first} skipped)"
    );
    assert_ne!(first[0].outputs[0].1, third[0].outputs[0].1);
    assert_eq!(counter("fabric_kernel_evals"), 3);
}

/// Runs an unchanged one-request batch on a parity tenant twice (the
/// second pass reuses the first's sweep), then `reset`, then once more:
/// that pass must answer the same and sweep in full.
fn assert_next_pass_sweeps_afresh(reset: impl FnOnce(&mut ShardedService, TenantId)) {
    let mut svc = service(1);
    let nl = generators::parity_tree(4).unwrap();
    let t = svc.admit("parity", &nl).unwrap();
    let inputs = [("x0", true), ("x1", false), ("x2", true), ("x3", false)];
    let registry = svc.telemetry().registry().clone();
    let skipped = move || registry.counter_value("fabric_ops_skipped").unwrap_or(0);
    let pass = |svc: &mut ShardedService| {
        svc.submit(t, &inputs).unwrap();
        let out = svc.drain().unwrap();
        assert_eq!(out.len(), 1);
        out[0].outputs.to_vec()
    };
    let first = pass(&mut svc);
    pass(&mut svc);
    let reused = skipped();
    assert!(reused > 0, "an unchanged batch reuses the sweep");
    reset(&mut svc, t);
    assert_eq!(pass(&mut svc), first);
    assert_eq!(skipped(), reused, "the next pass sweeps in full");
    assert!(svc.take_faults().is_empty());
}

/// `repair_plane` reinstalls the very plane the slot ran before
/// `inject_plane_fault`, and the slot's evaluation state starts afresh.
#[test]
fn a_repaired_plane_sweeps_afresh() {
    assert_next_pass_sweeps_afresh(|svc, t| {
        svc.inject_plane_fault(t).unwrap();
        svc.repair_plane(t).unwrap();
    });
}

/// `set_lane_width` rebuilds every batch, and each slot's evaluation
/// state starts afresh, even at the same occupied word count.
#[test]
fn a_lane_width_change_sweeps_afresh() {
    assert_next_pass_sweeps_afresh(|svc, _| svc.set_lane_width(LANES).unwrap());
}

/// Lane occupancy that shrinks and grows under stream state: a `reg:*`
/// tenant runs passes of 200 → 3 → 130 → 1 → 256 lanes (twice) at lane
/// widths 64 and 256. Each pass evaluates only its occupied words, so a
/// lane past them restarts from zero state while an empty lane inside them
/// carries its state on; every answer must match a lane-by-lane
/// `LogicNetlist::eval` of exactly that, and every register chunk must be
/// zero past the words its pass occupied — including one copied straight
/// from a register the previous, wider pass filled.
#[test]
fn stream_state_follows_occupancy_that_shrinks_and_grows() {
    // y = x ⊕ acc, w = z ∧ prev, v = lag;
    // reg:acc ← y, reg:prev ← x, reg:lag ← acc (the last two pure copies)
    let mut nl = LogicNetlist::new();
    let x = nl.add_input("x");
    let z = nl.add_input("z");
    let acc = nl.add_input("reg:acc");
    let prev = nl.add_input("reg:prev");
    let lag = nl.add_input("reg:lag");
    let y = nl.add_lut("y", &[x, acc], 0b0110).unwrap();
    let w = nl.add_lut("w", &[z, prev], 0b1000).unwrap();
    nl.add_output("y", y).unwrap();
    nl.add_output("w", w).unwrap();
    nl.add_output("v", lag).unwrap();
    nl.add_output("reg:acc", y).unwrap();
    nl.add_output("reg:prev", x).unwrap();
    nl.add_output("reg:lag", acc).unwrap();
    const REGS: [&str; 3] = ["reg:acc", "reg:prev", "reg:lag"];
    const OUTS: [&str; 3] = ["y", "w", "v"];
    let bit = |pass: usize, lane: usize, salt: usize| {
        (pass * 0x9E37 + lane * 0x85EB + salt * 0xC2B2).count_ones() % 2 == 1
    };
    for width in [LANES, 256] {
        let mut svc = ShardedService::new(1, FabricParams::default(), TechParams::default())
            .expect("service");
        svc.set_lane_width(width).unwrap();
        let t = svc.admit("acc", &nl).unwrap();
        // per lane, the registers as the register file should hold them
        let mut state = [[false; REGS.len()]; 256];
        for (burst, lanes) in [200usize, 3, 130, 1, 256, 200, 3, 130, 1, 256]
            .into_iter()
            .enumerate()
        {
            let mut expected = Vec::new();
            let mut last_words = 0;
            // the service cuts a burst into passes of at most `width`
            let mut first = 0;
            while first < lanes {
                let n = (lanes - first).min(width);
                let words = n.div_ceil(64);
                for (lane, regs) in state.iter_mut().enumerate() {
                    if lane >= words * 64 {
                        *regs = [false; REGS.len()];
                        continue;
                    }
                    // an empty lane inside the occupied words reads zeros
                    let (xv, zv) = if lane < n {
                        (bit(burst, first + lane, 1), bit(burst, first + lane, 2))
                    } else {
                        (false, false)
                    };
                    let mut inputs = vec![("x", xv), ("z", zv)];
                    inputs.extend(REGS.into_iter().zip(*regs));
                    let out = nl.eval(&inputs).unwrap();
                    let get = |name: &str| out.iter().find(|(o, _)| o == name).unwrap().1;
                    if lane < n {
                        expected.push(OUTS.map(get));
                    }
                    *regs = REGS.map(get);
                }
                last_words = words;
                first += n;
            }
            for lane in 0..lanes {
                let inputs = [("x", bit(burst, lane, 1)), ("z", bit(burst, lane, 2))];
                svc.submit(t, &inputs).unwrap();
            }
            let got: Vec<[bool; 3]> = svc
                .drain()
                .unwrap()
                .iter()
                .map(|r| OUTS.map(|name| r.outputs.iter().find(|(o, _)| &**o == name).unwrap().1))
                .collect();
            assert_eq!(
                got, expected,
                "width {width}, burst {burst} ({lanes} lanes)"
            );
            let file = svc.register_file(t).unwrap();
            for (r, name) in REGS.iter().enumerate() {
                let chunk = file.get_chunk(name).expect("written by the pass");
                for (lane, regs) in state.iter().enumerate() {
                    let held = chunk[lane / 64] >> (lane % 64) & 1 == 1;
                    assert_eq!(
                        held, regs[r],
                        "width {width}, burst {burst}, {name} lane {lane}"
                    );
                }
                assert!(
                    chunk[last_words..].iter().all(|&word| word == 0),
                    "width {width}, burst {burst}: {name} carries bits past word {last_words}"
                );
            }
        }
        assert!(svc.take_faults().is_empty());
        let kernel = svc
            .telemetry()
            .registry()
            .counter_value("fabric_kernel_evals");
        assert_eq!(
            kernel,
            Some(svc.usage(t).unwrap().passes as u64),
            "every pass ran the kernel"
        );
    }
}

#[test]
fn lane_width_rejects_bad_values_and_pending_work() {
    let mut svc = service(1);
    assert!(matches!(
        svc.set_lane_width(0),
        Err(ServiceError::BadConfig(_))
    ));
    assert!(matches!(
        svc.set_lane_width(257),
        Err(ServiceError::BadConfig(_))
    ));
    let nl = generators::wire_lanes(1).unwrap();
    let t = svc.admit("w", &nl).unwrap();
    svc.submit(t, &[("in0", true)]).unwrap();
    // a queued request pins the width: resizing would orphan its lane
    assert!(matches!(
        svc.set_lane_width(LANES),
        Err(ServiceError::BadConfig(_))
    ));
    svc.drain().unwrap();
    svc.set_lane_width(LANES).unwrap();
    assert_eq!(svc.lane_width(), LANES);
    // the resized slot still answers
    svc.submit(t, &[("in0", true)]).unwrap();
    let out = svc.drain().unwrap();
    assert_eq!(out.len(), 1);
    assert!(out[0].outputs[0].1);
}

/// The queue-depth and live-tenant gauges are maintained incrementally
/// (submit moves the depth by one; the registry keeps a live count), so
/// after every operation of a seeded admit / submit / auto-flush / drain /
/// flush / discard / fault / migrate / restore+retire sequence they must
/// still equal `pending_requests()` and the live tenants counted afresh.
#[test]
fn gauges_track_queue_depth_and_live_tenants_through_seeded_churn() {
    use mcfpga_telemetry::{ACTIVE_TENANTS_METRIC, QUEUE_DEPTH_METRIC};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let designs = [
        generators::parity_tree(3).unwrap(),
        generators::equality_comparator(2).unwrap(),
        generators::popcount4().unwrap(),
    ];
    for seed in [1u64, 7, 31] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut svc = service(3);
        // a narrow datapath so submits regularly trigger lane-full flushes
        svc.set_lane_width(4).unwrap();
        let mut live: Vec<(mcfpga_service::TenantId, usize)> = Vec::new();
        let mut admitted = 0;
        for op in 0..400 {
            let pick = (!live.is_empty()).then(|| rng.random_range(0..live.len()));
            match (rng.random_range(0..10u32), pick) {
                (0, _) | (_, None) => {
                    let d = rng.random_range(0..designs.len());
                    if let Ok(t) = svc.admit(&format!("t{admitted}"), &designs[d]) {
                        live.push((t, d));
                        admitted += 1;
                    }
                }
                (1..=3, Some(i)) => {
                    let (tenant, d) = live[i];
                    let mut names = input_names(&designs[d]);
                    if rng.random_range(0..8u32) == 0 {
                        names.pop(); // an under-driven request is refused
                    }
                    let request: Vec<(&str, bool)> = names
                        .iter()
                        .map(|n| (n.as_str(), rng.random_range(0..2u32) == 1))
                        .collect();
                    let _ = svc.submit(tenant, &request);
                }
                (4, _) => {
                    let _ = svc.drain();
                }
                (5, Some(i)) => {
                    let _ = svc.flush_tenants(&[live[i].0]);
                }
                (6, Some(i)) => {
                    svc.discard_pending(live[i].0).unwrap();
                }
                (7, Some(i)) => {
                    // a faulted slot keeps its requests queued until repaired
                    if rng.random_range(0..2u32) == 0 {
                        svc.inject_plane_fault(live[i].0).unwrap();
                    } else {
                        svc.repair_plane(live[i].0).unwrap();
                    }
                }
                (8, Some(i)) => {
                    let _ = svc.migrate_tenant(live[i].0, rng.random_range(0..3usize));
                }
                (_, Some(i)) => {
                    // the cross-node migration pattern, inside one service
                    let (old, d) = live[i];
                    let ckpt = svc.checkpoint_tenant(old).unwrap();
                    if let Ok((fresh, _)) = svc.restore_tenant(&ckpt, rng.random_range(0..3usize)) {
                        svc.retire_tenant(old).unwrap();
                        live[i] = (fresh, d);
                    }
                }
            }
            let registry = svc.telemetry().registry();
            assert_eq!(
                registry.gauge_value(QUEUE_DEPTH_METRIC),
                Some(svc.pending_requests() as i64),
                "seed {seed} op {op}: queue depth"
            );
            assert_eq!(svc.registry().len(), live.len(), "seed {seed} op {op}");
            assert_eq!(svc.registry().iter().count(), live.len());
            assert_eq!(
                registry.gauge_value(ACTIVE_TENANTS_METRIC),
                Some(live.len() as i64),
                "seed {seed} op {op}: live tenants"
            );
        }
    }
}
