//! Turns a run's epoch logs into the end-to-end metrics (untraced run) or
//! the per-layer table (traced run, computed from the span file).

use crate::spans::{Call, Counters, EpochLog, Mode};
use crate::workloads::REPLAY_EXEMPT;
use mcfpga_fabric::compiled::MAX_LANES;
use std::collections::HashMap;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time of the simulator on the machine running it.
    Host,
    /// Virtual cycles and CSS toggles of the modelled MC-FPGA, or a
    /// deterministic count: identical on every run of a seed.
    Simulated,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, clock: Clock, value: f64) -> Metric {
    Metric {
        name,
        unit,
        clock,
        value,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The process's peak resident set, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Buckets per unit of natural log in [`Profile`]'s step histogram:
/// neighbouring bucket bounds differ by 0.01%.
const BUCKETS_PER_LN: f64 = 10_000.0;
/// Histogram range: steps up to e^25 ns (72 s).
const BUCKETS: usize = 250_000;

/// The scaled duration of every timed step of the plain epochs of a run
/// (see [`calibrate`](crate::calibrate)), as a fine log histogram whose
/// size does not grow with the run.
pub struct Profile {
    counts: Vec<u32>,
    steps: u64,
    replays: usize,
}

impl Profile {
    pub fn new() -> Self {
        Profile {
            counts: vec![0; BUCKETS],
            steps: 0,
            replays: 0,
        }
    }

    /// Folds in one replay's step durations (ns), measured while the host
    /// ran at `scale` times the nominal speed.
    pub fn absorb(&mut self, steps: &[u64], scale: f64) {
        for &ns in steps {
            let bucket = ((ns as f64 * scale).max(1.0).ln() * BUCKETS_PER_LN) as usize;
            self.counts[bucket.min(BUCKETS - 1)] += 1;
        }
        self.steps += steps.len() as u64;
        self.replays += 1;
    }

    /// Nearest-rank percentile, in µs, at the midpoint of its bucket.
    fn percentile_us(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.steps as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return ((bucket as f64 + 0.5) / BUCKETS_PER_LN).exp() / 1e3;
            }
        }
        0.0
    }
}

/// Step time of an epoch, scaled to the nominal host.
fn scaled_ns(e: &EpochLog) -> f64 {
    e.totals.ns as f64 * crate::calibrate::scale(e.kernel_ns)
}

/// Checks that every epoch — each a replay of the same seed — produced the
/// same deterministic counters. The span ring's drop count is compared
/// only between epochs with the same ring setting.
pub fn check_replays(epochs: &[EpochLog]) -> Result<(), String> {
    let det = |e: &EpochLog| -> Counters {
        let mut c = e.counters.get("end").cloned().unwrap_or_default();
        c.retain(|k, _| !REPLAY_EXEMPT.contains(&k.as_str()));
        if e.mode == Mode::RingOff {
            c.remove("trace_dropped");
        }
        c
    };
    let Some(first) = epochs.first() else {
        return Ok(());
    };
    let reference = det(first);
    for (i, e) in epochs.iter().enumerate().skip(1) {
        let mine = det(e);
        for (name, v) in &mine {
            if let Some(r) = reference.get(name) {
                if r != v {
                    return Err(format!(
                        "epoch {i} replayed the seed but counted {name} = {v}, epoch 0 counted {r}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Summary figures of an untraced run.
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    /// Printed beside the metrics: simulated figures that are not defined
    /// on every workload, and sample counts.
    pub notes: Vec<(String, String)>,
}

pub fn end_to_end(epochs: &[EpochLog], profile: &Profile) -> EndToEnd {
    let rate = |e: &EpochLog, ns: f64| ratio(e.totals.requests as f64, ns / 1e9);
    let mut rates: Vec<f64> = epochs.iter().map(|e| rate(e, scaled_ns(e))).collect();
    let mut raw_rates: Vec<f64> = epochs.iter().map(|e| rate(e, e.totals.ns as f64)).collect();
    let mut setups: Vec<f64> = epochs
        .iter()
        .map(|e| e.setup_ns as f64 * crate::calibrate::scale(e.setup_kernel_ns) / 1e9)
        .collect();
    let mut raw_setups: Vec<f64> = epochs.iter().map(|e| e.setup_ns as f64 / 1e9).collect();
    let mut kernels: Vec<f64> = epochs.iter().map(|e| e.kernel_ns as f64 / 1e3).collect();
    let first = &epochs[0];
    let det = |name: &str| first.counter("end", name);
    let toggles = det("css_toggles") + det("migration_css_toggles");
    let p99_rank = (0.99 * profile.steps as f64).ceil() as u64;
    let metrics = vec![
        metric("req_per_s", "1/s", Clock::Host, median(&mut rates)),
        metric(
            "step_us_p50",
            "us",
            Clock::Host,
            profile.percentile_us(50.0),
        ),
        metric(
            "step_us_p99",
            "us",
            Clock::Host,
            profile.percentile_us(99.0),
        ),
        metric(
            "css_toggles_per_kreq",
            "toggles/kreq",
            Clock::Simulated,
            1000.0 * ratio(toggles, det("requests")),
        ),
        metric("setup_s", "s", Clock::Host, median(&mut setups)),
        metric("peak_rss_mib", "MiB", Clock::Host, peak_rss_mib()),
    ];
    let mut notes = vec![
        (
            "measured".into(),
            format!(
                "{} replays, {} steps; step_us_p99 has {} steps beyond it",
                profile.replays,
                profile.steps,
                profile.steps - p99_rank
            ),
        ),
        (
            "unscaled [host]".into(),
            format!(
                "req_per_s {}, setup_s {}; calibration kernel median {} us (nominal {} us)",
                median(&mut raw_rates),
                median(&mut raw_setups),
                median(&mut kernels),
                crate::calibrate::NOMINAL_NS / 1e3
            ),
        ),
        (
            "fail_pct [simulated, %]".into(),
            format!("{}", 100.0 * ratio(det("failed"), det("attempted"))),
        ),
    ];
    if det("ls_samples") + det("tp_samples") > 0.0 {
        for class in ["ls", "tp"] {
            notes.push((
                format!("{class}_p50_cycles / {class}_p99_cycles [simulated, cycles]"),
                format!(
                    "{} / {} over {} completions",
                    det(&format!("{class}_p50_cycles")),
                    det(&format!("{class}_p99_cycles")),
                    det(&format!("{class}_samples"))
                ),
            ));
        }
    }
    EndToEnd { metrics, notes }
}

/// Per-call totals over the epochs of one mode.
#[derive(Default, Clone, Copy)]
struct CallTotals {
    ns: f64,
    count: f64,
    spans: f64,
}

struct Traced<'a> {
    epochs: &'a [EpochLog],
}

impl Traced<'_> {
    fn of(&self, mode: Mode) -> impl Iterator<Item = &EpochLog> {
        self.epochs.iter().filter(move |e| e.mode == mode)
    }

    fn call(&self, mode: Mode, call: Call) -> CallTotals {
        let mut t = CallTotals::default();
        for s in self
            .of(mode)
            .flat_map(|e| e.spans.iter())
            .filter(|s| s.call == call)
        {
            t.ns += s.dur_ns() as f64;
            t.count += f64::from(s.count);
            t.spans += 1.0;
        }
        t
    }

    /// Timed steps, step time and completed requests of every step.
    fn totals(&self, mode: Mode) -> (f64, f64, f64) {
        self.of(mode).fold((0.0, 0.0, 0.0), |(n, ns, r), e| {
            let t = e.totals;
            (n + t.steps as f64, ns + t.ns as f64, r + t.requests as f64)
        })
    }

    /// Host nanoseconds of step time per completed request, scaled to the
    /// nominal host so that epochs run at different host speeds compare.
    fn ns_per_req(&self, mode: Mode) -> f64 {
        let (_, _, requests) = self.totals(mode);
        ratio(self.of(mode).map(scaled_ns).sum(), requests)
    }

    fn delta(&self, mode: Mode, name: &str) -> f64 {
        self.of(mode).map(|e| e.delta(name)).sum()
    }

    /// A deterministic counter over the first traced epoch.
    fn det(&self, name: &str) -> f64 {
        self.of(Mode::Traced)
            .next()
            .map_or(0.0, |e| e.counter("end", name))
    }

    /// Σ layer spans inside their step ÷ Σ step time, over the sampled
    /// steps of traced epochs.
    fn coverage(&self) -> f64 {
        let (mut covered, mut total) = (0u64, 0u64);
        for e in self.of(Mode::Traced) {
            let steps: HashMap<u32, (u64, u64)> = e
                .spans
                .iter()
                .filter(|s| s.call == Call::Step)
                .map(|s| (s.step, (s.start_ns, s.end_ns)))
                .collect();
            total += steps.values().map(|(a, b)| b - a).sum::<u64>();
            for s in e.spans.iter().filter(|s| s.call != Call::Step) {
                if let Some(&(a, b)) = steps.get(&s.step) {
                    if s.start_ns >= a && s.end_ns <= b {
                        covered += s.dur_ns();
                    }
                }
            }
        }
        ratio(covered as f64, total as f64)
    }
}

/// The per-layer table and the ledger that splits a traced step's time
/// across layers.
pub struct PerLayer {
    pub metrics: Vec<Metric>,
    /// `(row, µs per step)`; the rows sum to the covered share of a step.
    pub ledger: Vec<(&'static str, f64)>,
    pub step_us: f64,
    pub coverage: f64,
}

pub fn per_layer(epochs: &[EpochLog]) -> PerLayer {
    let t = Traced { epochs };
    let tr = Mode::Traced;
    let mean_ns = |c: CallTotals| ratio(c.ns, c.count);
    let offer = t.call(tr, Call::FrontendOffer);
    let pump = t.call(tr, Call::FrontendPump);
    let submit = t.call(tr, Call::ClusterSubmit);
    let drain = t.call(tr, Call::ClusterDrain);
    let migrate = t.call(tr, Call::ClusterMigrate);
    let restart = t.call(tr, Call::ClusterRestart);
    let shadow_submit = t.call(tr, Call::ServiceSubmit);
    let shadow_drain = t.call(tr, Call::ServiceDrain);
    // per-call means are taken over the sampled steps; counters cover
    // every step and are scaled down to the sampled share where the two
    // combine
    let sampled = t.call(tr, Call::Step);
    let (all_steps, _, _) = t.totals(tr);
    // the service's published phase histograms (whole µs per drain) cover
    // every step: scale them to the sampled steps the spans cover
    let scale = ratio(sampled.spans, all_steps);
    let phase_us = |phase: &str| t.delta(tr, &format!("service_{phase}_us.sum"));
    let phase_per_drain = |phase: &str| {
        ratio(
            phase_us(phase),
            t.delta(tr, &format!("service_{phase}_us.count")),
        )
    };
    let published_ns = scale * 1e3 * (phase_us("plan") + phase_us("eval") + phase_us("apply"));
    let cluster_self = if shadow_submit.count > 0.0 {
        ratio(
            submit.ns + drain.ns - shadow_submit.ns - shadow_drain.ns,
            submit.count,
        )
    } else {
        0.0
    };
    let ring_ns = if t.of(Mode::RingOff).next().is_some() {
        t.ns_per_req(tr) - t.ns_per_req(Mode::RingOff)
    } else {
        0.0
    };
    let tasks = t.delta(tr, "executor_tasks_total");
    let det = |name: &str| t.det(name);
    let coverage = t.coverage();
    let (s, h) = (Clock::Simulated, Clock::Host);
    let metrics = vec![
        metric("frontend.offer_ns", "ns", h, mean_ns(offer)),
        metric(
            "frontend.pump_us",
            "us",
            h,
            ratio(pump.ns, pump.spans) / 1e3,
        ),
        metric(
            "frontend.pump_self_us",
            "us",
            h,
            if pump.spans > 0.0 {
                (pump.ns - published_ns) / pump.spans / 1e3
            } else {
                0.0
            },
        ),
        metric("cluster.submit_ns", "ns", h, mean_ns(submit)),
        metric(
            "cluster.drain_us",
            "us",
            h,
            ratio(drain.ns, drain.spans) / 1e3,
        ),
        metric("cluster.self_ns_per_req", "ns", h, cluster_self),
        metric("cluster.migrate_us", "us", h, mean_ns(migrate) / 1e3),
        metric("cluster.restart_us", "us", h, mean_ns(restart) / 1e3),
        metric("service.submit_ns", "ns", h, mean_ns(shadow_submit)),
        metric(
            "service.drain_us",
            "us",
            h,
            ratio(shadow_drain.ns, shadow_drain.spans) / 1e3,
        ),
        metric(
            "service.plan_us_per_drain",
            "us",
            h,
            phase_per_drain("plan"),
        ),
        metric(
            "service.eval_us_per_drain",
            "us",
            h,
            phase_per_drain("eval"),
        ),
        metric(
            "service.apply_us_per_drain",
            "us",
            h,
            phase_per_drain("apply"),
        ),
        metric(
            "service.drains_per_kreq",
            "count",
            s,
            1000.0 * ratio(det("service_drains_total"), det("requests")),
        ),
        metric(
            "service.lanes_per_pass",
            "count",
            s,
            ratio(
                det("service_batch_lanes.sum"),
                det("service_batch_lanes.count"),
            ),
        ),
        metric(
            "service.css_saved_pct",
            "%",
            s,
            100.0
                * ratio(
                    det("css_toggles_baseline") - det("css_toggles"),
                    det("css_toggles_baseline"),
                ),
        ),
        metric(
            "executor.tasks_per_drain",
            "count",
            h,
            ratio(tasks, t.delta(tr, "service_drains_total")),
        ),
        metric(
            "executor.steal_pct",
            "%",
            h,
            100.0 * ratio(t.delta(tr, "executor_tasks_stolen"), tasks),
        ),
        metric(
            "fabric.lane_occupancy_pct",
            "%",
            s,
            100.0
                * ratio(
                    det("service_responses_total"),
                    det("service_steps_applied") * MAX_LANES as f64,
                ),
        ),
        metric(
            "fabric.dirty_skip_pct",
            "%",
            s,
            100.0 * ratio(det("fabric_ops_skipped"), det("fabric_ops_total")),
        ),
        metric(
            "fabric.kernel_pass_pct",
            "%",
            s,
            100.0 * ratio(det("fabric_kernel_evals"), det("service_steps_applied")),
        ),
        metric(
            "fabric.ops_per_req",
            "count",
            s,
            ratio(
                det("fabric_ops_total") - det("fabric_ops_skipped"),
                det("service_responses_total"),
            ),
        ),
        metric("telemetry.ring_ns_per_req", "ns", h, ring_ns),
        metric(
            "telemetry.spans_dropped_per_kreq",
            "count",
            s,
            1000.0 * ratio(det("trace_dropped"), det("requests")),
        ),
        metric(
            "migrate.bytes_per_migration",
            "bytes",
            s,
            ratio(det("migration_bytes"), det("migrations")),
        ),
        metric(
            "bench.trace_overhead_pct",
            "%",
            h,
            100.0 * (1.0 - ratio(t.ns_per_req(Mode::Plain), t.ns_per_req(tr))),
        ),
        metric("bench.ledger_coverage_pct", "%", h, 100.0 * coverage),
        metric("ls_p50_cycles", "cycles", s, det("ls_p50_cycles")),
        metric("ls_p99_cycles", "cycles", s, det("ls_p99_cycles")),
        metric("tp_p50_cycles", "cycles", s, det("tp_p50_cycles")),
        metric("tp_p99_cycles", "cycles", s, det("tp_p99_cycles")),
        metric(
            "fail_pct",
            "%",
            s,
            100.0 * ratio(det("failed"), det("attempted")),
        ),
    ];
    let per_step = |ns: f64| ratio(ns, sampled.spans) / 1e3;
    let mut ledger = Vec::new();
    let mut row = |name: &'static str, ns: f64| {
        if ns != 0.0 {
            ledger.push((name, per_step(ns)));
        }
    };
    row("frontend.offer", offer.ns);
    row("cluster.submit", submit.ns);
    row("cluster.migrate", migrate.ns);
    row("cluster.restart", restart.ns);
    row("service.plan (published)", scale * 1e3 * phase_us("plan"));
    row("service.eval (published)", scale * 1e3 * phase_us("eval"));
    row("service.apply (published)", scale * 1e3 * phase_us("apply"));
    row(
        "frontend.pump self",
        pump.ns - if pump.ns > 0.0 { published_ns } else { 0.0 },
    );
    row(
        "cluster.drain self",
        drain.ns - if drain.ns > 0.0 { published_ns } else { 0.0 },
    );
    PerLayer {
        metrics,
        ledger,
        step_us: per_step(sampled.ns),
        coverage,
    }
}
