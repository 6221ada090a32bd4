//! `frontend_sparse`: open loop on the virtual clock. Seeded
//! `AdversarialSkew` arrivals from `bench::loadgen` feed a
//! `FrontendDriver` over a 2-shard service: 4 latency-sensitive streams
//! with deadlines and 4 throughput streams, the last of them hot and
//! rate-limited. One step is one virtual cycle: that cycle's offers, one
//! `pump`, one `advance`. Executor width 1; the service keeps the default
//! 4096-span ring, as a deployment gets it (capacity 0 in `ring_off`
//! epochs of a traced run).
//!
//! Arrivals land on their scheduled cycle whatever the service does, so
//! the virtual clock never runs late. The hot stream's token bucket
//! refills at exactly its arrival rate: it is consulted on every hot offer
//! and never refuses one. With one pump per cycle a latency-sensitive
//! request is flushed at its deadline at the latest, so none expires; the
//! run checks both.

use super::{harvest, harvest_usage, Workload};
use crate::designs::{fabric_params, Design, POOL};
use crate::spans::{bump, Call, Counters, Mode, Tracer};
use mcfpga_bench::loadgen::{LoadGen, TrafficMix};
use mcfpga_device::TechParams;
use mcfpga_service::frontend::{FrontendDriver, FrontendError, FrontendEvent, RateLimit};
use mcfpga_service::{ShardedService, StreamPolicy, TenantId};
use std::collections::HashMap;

const SHARDS: usize = 2;
const STREAMS: usize = 8;
/// Streams `0..LS_STREAMS` are latency-sensitive, the rest throughput.
const LS_STREAMS: usize = 4;
const HOT: usize = STREAMS - 1;
const MIX: TrafficMix = TrafficMix::AdversarialSkew {
    hot: HOT,
    hot_per_cycle: 1,
    num: 1,
    den: 4,
};

fn policy(stream: usize) -> StreamPolicy {
    match stream {
        s if s < LS_STREAMS => StreamPolicy::latency_sensitive(4, 24),
        HOT => StreamPolicy::throughput(8).with_rate(RateLimit::per_cycles(1, 1, 2)),
        _ => StreamPolicy::throughput(4),
    }
}

/// An admitted request awaiting its event.
struct Pending {
    stream: usize,
    idx: usize,
    arrived: u64,
    deadline: Option<u64>,
}

pub struct FrontendSparse {
    designs: &'static [Design],
    fe: FrontendDriver,
    /// Per stream: tenant, design, deadline budget.
    streams: Vec<(TenantId, usize, Option<u64>)>,
    generator: LoadGen,
    /// This step's arrivals: `(stream, pool index)`.
    arrivals: Vec<(usize, usize)>,
    /// Tickets minted by this step's offers.
    admitted: Vec<(u64, usize, usize)>,
    events: Vec<FrontendEvent>,
    pending: HashMap<u64, Pending>,
    /// Completion-latency histograms, indexed by cycles.
    ls_latency: Vec<u64>,
    tp_latency: Vec<u64>,
    offered: usize,
    refused: usize,
    unserved: usize,
    completed: usize,
}

fn observe(histogram: &mut Vec<u64>, cycles: u64) {
    let i = cycles as usize;
    if histogram.len() <= i {
        histogram.resize(i + 1, 0);
    }
    histogram[i] += 1;
}

impl FrontendSparse {
    fn prepare_arrivals(&mut self) {
        self.arrivals.clear();
        for a in self.generator.tick() {
            self.arrivals
                .push((a.stream, (a.entropy % POOL as u64) as usize));
        }
    }

    /// Checks resolved requests against their admission record and the
    /// reference outputs; `now` is the cycle of the pump that produced
    /// `events`.
    fn absorb(&mut self, events: Vec<FrontendEvent>, now: u64) -> Result<usize, String> {
        let mut served = 0;
        for event in events {
            match event {
                FrontendEvent::Completed {
                    ticket,
                    tenant,
                    outputs,
                    latency,
                    flushed,
                    ..
                } => {
                    let p = self
                        .pending
                        .remove(&ticket.value())
                        .ok_or_else(|| format!("completion for unknown {ticket}"))?;
                    let (owner, d, _) = self.streams[p.stream];
                    if tenant != owner || !self.designs[d].check(p.idx, &outputs) {
                        return Err(format!(
                            "{ticket} ({}) disagrees with LogicNetlist::eval",
                            self.designs[d].name
                        ));
                    }
                    if latency != now - p.arrived {
                        return Err(format!(
                            "{ticket}: latency {latency} but arrived at {} and completed at {now}",
                            p.arrived
                        ));
                    }
                    match p.deadline {
                        Some(deadline) if flushed > deadline => {
                            return Err(format!(
                                "{ticket} served past its deadline: flushed at {flushed}, due {deadline}"
                            ));
                        }
                        Some(_) => observe(&mut self.ls_latency, latency),
                        None => observe(&mut self.tp_latency, latency),
                    }
                    served += 1;
                }
                FrontendEvent::Expired { ticket, .. } | FrontendEvent::Failed { ticket, .. } => {
                    self.pending.remove(&ticket.value());
                    self.unserved += 1;
                }
                FrontendEvent::PassThrough { response } => {
                    return Err(format!("unexpected pass-through {}", response.request));
                }
            }
        }
        self.completed += served;
        Ok(served)
    }
}

impl Workload for FrontendSparse {
    const EPOCH_STEPS: u32 = 100_000;
    const BLOCK_STEPS: u32 = 5_000;
    const TRACE_MODES: &'static [Mode] = &[Mode::Traced, Mode::Plain, Mode::RingOff];
    const TRACE_SAMPLE: u32 = 32;
    const EXECUTOR_WIDTH: usize = 1;

    fn setup(designs: &'static [Design], seed: u64, mode: Mode) -> Result<Self, String> {
        let mut svc = ShardedService::new(SHARDS, fabric_params(), TechParams::default())
            .map_err(|e| format!("service: {e}"))?;
        svc.set_threads(Self::EXECUTOR_WIDTH);
        if mode == Mode::RingOff {
            svc.telemetry().trace_buffer().set_capacity(0);
        }
        let mut fe = FrontendDriver::new(svc);
        let mut streams = Vec::with_capacity(STREAMS);
        for s in 0..STREAMS {
            let d = s % designs.len();
            let name = format!("{}-{s}", designs[d].name);
            let tenant = fe
                .admit(&name, &designs[d].netlist)
                .map_err(|e| format!("admit {name}: {e}"))?;
            let policy = policy(s);
            fe.open_stream(tenant, policy)
                .map_err(|e| format!("open stream {name}: {e}"))?;
            streams.push((tenant, d, policy.deadline_budget));
        }
        let mut w = FrontendSparse {
            designs,
            fe,
            streams,
            generator: LoadGen::new(seed, MIX, STREAMS),
            arrivals: Vec::new(),
            admitted: Vec::new(),
            events: Vec::new(),
            pending: HashMap::new(),
            ls_latency: Vec::new(),
            tp_latency: Vec::new(),
            offered: 0,
            refused: 0,
            unserved: 0,
            completed: 0,
        };
        w.prepare_arrivals();
        Ok(w)
    }

    fn step(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let start = tracer.start();
        for &(stream, idx) in &self.arrivals {
            let (tenant, d, _) = self.streams[stream];
            match self.fe.offer(tenant, self.designs[d].vector(idx), None) {
                Ok(ticket) => self.admitted.push((ticket.value(), stream, idx)),
                Err(FrontendError::Backpressure { .. } | FrontendError::Rejected { .. }) => {
                    self.refused += 1;
                }
                Err(e) => return Err(format!("offer: {e}")),
            }
        }
        tracer.end(Call::FrontendOffer, self.arrivals.len(), start);
        let start = tracer.start();
        self.events = self.fe.pump().map_err(|e| format!("pump: {e}"))?;
        tracer.end(Call::FrontendPump, 1, start);
        self.fe.advance(1);
        Ok(())
    }

    fn settle(&mut self, _tracer: &mut Tracer) -> Result<usize, String> {
        let now = self.fe.now() - 1;
        self.offered += self.arrivals.len();
        for (ticket, stream, idx) in self.admitted.drain(..) {
            let deadline = self.streams[stream].2.map(|budget| now + budget);
            self.pending.insert(
                ticket,
                Pending {
                    stream,
                    idx,
                    arrived: now,
                    deadline,
                },
            );
        }
        let events = std::mem::take(&mut self.events);
        let served = self.absorb(events, now)?;
        self.prepare_arrivals();
        Ok(served)
    }

    fn finish(&mut self) -> Result<(), String> {
        let now = self.fe.now();
        let events = self.fe.flush_all().map_err(|e| format!("flush_all: {e}"))?;
        self.absorb(events, now)?;
        if self.fe.queued_requests() + self.fe.inflight_requests() + self.pending.len() > 0 {
            return Err("requests left unresolved after flush_all".into());
        }
        // admission arithmetic: every offer is admitted or refused, every
        // admission resolves exactly once, and the front-end's own
        // counters agree with what the benchmark saw
        let mut offered = 0;
        let mut refused = 0;
        let mut completed = 0;
        let mut unserved = 0;
        for &(tenant, _, _) in &self.streams {
            let u = self
                .fe
                .frontend_usage(tenant)
                .map_err(|e| format!("usage: {e}"))?;
            if u.offered != u.admitted + u.rejected() || u.admitted != u.resolved() {
                return Err(format!(
                    "stream {tenant}: admission counters do not add up: {u:?}"
                ));
            }
            offered += u.offered;
            refused += u.rejected();
            completed += u.completed;
            unserved += u.expired + u.failed;
        }
        let seen = (self.offered, self.refused, self.completed, self.unserved);
        if (offered, refused, completed, unserved) != seen {
            return Err(format!(
                "front-end counted (offered, refused, completed, unserved) = {:?}, benchmark saw {seen:?}",
                (offered, refused, completed, unserved)
            ));
        }
        Ok(())
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        harvest(self.fe.telemetry().registry(), &mut c);
        for &(tenant, _, _) in &self.streams {
            if let Ok(usage) = self.fe.service().usage(tenant) {
                harvest_usage(&usage, &mut c);
            }
        }
        bump(&mut c, "requests", self.completed as f64);
        bump(&mut c, "attempted", self.offered as f64);
        bump(&mut c, "failed", (self.refused + self.unserved) as f64);
        for (class, histogram) in [("ls", &self.ls_latency), ("tp", &self.tp_latency)] {
            let samples: u64 = histogram.iter().sum();
            bump(&mut c, &format!("{class}_samples"), samples as f64);
            for p in [50u64, 99] {
                // nearest rank
                let rank = (p * samples).div_ceil(100).max(1);
                let mut seen = 0;
                let cycles = histogram.iter().position(|&n| {
                    seen += n;
                    seen >= rank
                });
                let v = cycles.unwrap_or(0) as f64;
                bump(&mut c, &format!("{class}_p{p}_cycles"), v);
            }
        }
        c
    }
}
