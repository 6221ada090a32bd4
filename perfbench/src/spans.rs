//! Outside-in spans: the benchmark times every call it makes into a
//! layer's public functions, keeps the spans in memory, and writes them
//! out with the run's counter snapshots when the run ends. The per-layer
//! table is computed from that file ([`read_log`]).
//!
//! Steps are head-sampled by a hash of their index, so a workload with
//! many short steps keeps a bounded, representative log: a sampled step
//! keeps its own span and every layer span inside it. Every step still
//! counts in its epoch's totals.
//!
//! File format, one record per line, comma-separated:
//!
//! ```text
//! provenance,<key>,<value>
//! epoch,<epoch>,<mode>,<setup_ns>,<setup_kernel_ns>,<kernel_ns>,<steps>,<step_ns>,<requests>
//! span,<epoch>,<step>,<layer.call>,<count>,<start_ns>,<end_ns>
//! counter,<epoch>,<scope>,<name>,<value>
//! ```
//!
//! `steps`, `step_ns` and `requests` total every timed step of the epoch;
//! `kernel_ns` and `setup_kernel_ns` are the calibration kernel's times
//! beside the steps and after the set-up (see `calibrate`).
//! A span's `count` is how many calls it covers (a burst of submits to
//! one tenant is one span) or, for `bench.step`, the requests the step
//! completed. Times are nanoseconds since the run started. A span's
//! parent is the `bench.step` span with the same epoch and step.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// A timed call into one layer's public API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    Step,
    FrontendOffer,
    FrontendPump,
    ClusterSubmit,
    ClusterDrain,
    ClusterMigrate,
    ClusterRestart,
    ServiceSubmit,
    ServiceDrain,
}

impl Call {
    const ALL: [Call; 9] = [
        Call::Step,
        Call::FrontendOffer,
        Call::FrontendPump,
        Call::ClusterSubmit,
        Call::ClusterDrain,
        Call::ClusterMigrate,
        Call::ClusterRestart,
        Call::ServiceSubmit,
        Call::ServiceDrain,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Call::Step => "bench.step",
            Call::FrontendOffer => "frontend.offer",
            Call::FrontendPump => "frontend.pump",
            Call::ClusterSubmit => "cluster.submit",
            Call::ClusterDrain => "cluster.drain",
            Call::ClusterMigrate => "cluster.migrate",
            Call::ClusterRestart => "cluster.restart",
            Call::ServiceSubmit => "service.submit",
            Call::ServiceDrain => "service.drain",
        }
    }

    fn parse(label: &str) -> Option<Call> {
        Call::ALL.into_iter().find(|c| c.label() == label)
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub call: Call,
    pub step: u32,
    pub count: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Is step `step` one of the `1 / every` a traced run keeps?
pub fn sampled(step: u32, every: u32) -> bool {
    every <= 1
        || crate::designs::SplitMix::new(u64::from(step))
            .next_u64()
            .is_multiple_of(u64::from(every))
}

/// Records layer-call spans in sampled steps while enabled; outside them
/// it reads no clock at all.
pub struct Tracer {
    on: bool,
    sample_every: u32,
    keep: bool,
    origin: Instant,
    step: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, sample_every: u32, origin: Instant) -> Self {
        Tracer {
            on,
            sample_every,
            keep: on,
            origin,
            step: 0,
            spans: Vec::new(),
        }
    }

    /// Enters step `step`; returns whether its spans are kept.
    pub fn set_step(&mut self, step: u32) -> bool {
        self.step = step;
        self.keep = self.on && sampled(step, self.sample_every);
        self.keep
    }

    /// Opens a span: the clock reading to pass to [`end`](Self::end).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.keep.then(Instant::now)
    }

    /// Closes a span opened by [`start`](Self::start) over `count` calls.
    #[inline]
    pub fn end(&mut self, call: Call, count: usize, start: Option<Instant>) {
        if let Some(start) = start {
            let end = Instant::now();
            self.push(call, count, start, end);
        }
    }

    /// Records a span whatever the tracer's state (the runner's step
    /// spans of sampled steps).
    pub fn push(&mut self, call: Call, count: usize, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            call,
            step: self.step,
            count: u32::try_from(count).expect("span counts fit in u32"),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn clear(&mut self) {
        self.spans.clear();
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Named counter values, summed over the places they were read from.
pub type Counters = BTreeMap<String, f64>;

pub fn bump(counters: &mut Counters, name: &str, v: f64) {
    *counters.entry(name.to_string()).or_insert(0.0) += v;
}

/// How an epoch of a run was driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No layer spans: exactly what the untraced run does.
    Plain,
    /// Layer spans on.
    Traced,
    /// Layer spans on, and the system's own span ring at capacity 0.
    RingOff,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::RingOff => "ring_off",
        }
    }

    fn parse(label: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Traced, Mode::RingOff]
            .into_iter()
            .find(|m| m.label() == label)
    }
}

/// Step time and completed requests, summed over an epoch's timed steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTotals {
    pub steps: u64,
    pub ns: u64,
    pub requests: u64,
}

/// Everything one epoch (one set-up followed by measured steps) recorded.
pub struct EpochLog {
    pub mode: Mode,
    pub setup_ns: u64,
    /// Calibration kernel time right after the set-up.
    pub setup_kernel_ns: u64,
    /// Median calibration kernel time over the epoch's blocks.
    pub kernel_ns: u64,
    pub totals: StepTotals,
    pub spans: Vec<Span>,
    /// Counter snapshots by scope: `start` (after the warm-up step) and
    /// `end` (after the last step).
    pub counters: BTreeMap<String, Counters>,
}

impl EpochLog {
    /// Counter `name` at `scope` (0 when never published).
    pub fn counter(&self, scope: &str, name: &str) -> f64 {
        self.counters
            .get(scope)
            .and_then(|c| c.get(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// `end − start` of counter `name`: its growth over the measured steps.
    pub fn delta(&self, name: &str) -> f64 {
        self.counter("end", name) - self.counter("start", name)
    }
}

pub fn write_log(
    path: &Path,
    provenance: &[(&str, String)],
    epochs: &[EpochLog],
) -> std::io::Result<()> {
    let mut out = String::new();
    for (k, v) in provenance {
        let _ = writeln!(out, "provenance,{k},{v}");
    }
    for (e, epoch) in epochs.iter().enumerate() {
        let t = epoch.totals;
        let _ = writeln!(
            out,
            "epoch,{e},{},{},{},{},{},{},{}",
            epoch.mode.label(),
            epoch.setup_ns,
            epoch.setup_kernel_ns,
            epoch.kernel_ns,
            t.steps,
            t.ns,
            t.requests
        );
        for s in &epoch.spans {
            let _ = writeln!(
                out,
                "span,{e},{},{},{},{},{}",
                s.step,
                s.call.label(),
                s.count,
                s.start_ns,
                s.end_ns
            );
        }
        for (scope, counters) in &epoch.counters {
            for (name, v) in counters {
                let _ = writeln!(out, "counter,{e},{scope},{name},{v}");
            }
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())?;
    file.flush()
}

pub fn read_log(path: &Path) -> Result<Vec<EpochLog>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut epochs: Vec<EpochLog> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let bad = || format!("{}:{}: malformed record", path.display(), i + 1);
        let f: Vec<&str> = line.split(',').collect();
        let num = |k: usize| f.get(k).and_then(|v| v.parse::<u64>().ok()).ok_or_else(bad);
        match f[0] {
            "provenance" => {}
            "epoch" => {
                if num(1)? as usize != epochs.len() {
                    return Err(bad());
                }
                epochs.push(EpochLog {
                    mode: f.get(2).and_then(|m| Mode::parse(m)).ok_or_else(bad)?,
                    setup_ns: num(3)?,
                    setup_kernel_ns: num(4)?,
                    kernel_ns: num(5)?,
                    totals: StepTotals {
                        steps: num(6)?,
                        ns: num(7)?,
                        requests: num(8)?,
                    },
                    spans: Vec::new(),
                    counters: BTreeMap::new(),
                });
            }
            "span" => {
                let epoch = epochs.get_mut(num(1)? as usize).ok_or_else(bad)?;
                epoch.spans.push(Span {
                    step: num(2)? as u32,
                    call: f.get(3).and_then(|c| Call::parse(c)).ok_or_else(bad)?,
                    count: num(4)? as u32,
                    start_ns: num(5)?,
                    end_ns: num(6)?,
                });
            }
            "counter" => {
                let epoch = epochs.get_mut(num(1)? as usize).ok_or_else(bad)?;
                let (scope, name) = (f.get(2).ok_or_else(bad)?, f.get(3).ok_or_else(bad)?);
                let v: f64 = f.get(4).and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                epoch
                    .counters
                    .entry((*scope).to_string())
                    .or_default()
                    .insert((*name).to_string(), v);
            }
            _ => return Err(bad()),
        }
    }
    Ok(epochs)
}
