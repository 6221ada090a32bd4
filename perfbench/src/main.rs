//! End-to-end benchmark of the mcfpga serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cluster_batch|frontend_sparse|cluster_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a sequence of epochs, repeated until `--seconds` have passed
//! (at least three epochs and 1000 timed steps). Each epoch sets the
//! workload up from the seed (routing, compilation, admission), runs one
//! untimed warm-up step, then a fixed number of timed steps, so every
//! epoch replays the same work. Every step's outputs are checked outside
//! the timed window. Host times are scaled by a calibration kernel (see
//! `calibrate`). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` times every call into each layer's public API,
//! writes the spans to `perfbench/out/<workload>.spans.csv`, and prints
//! the per-layer table computed from that file. The last line of output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod calibrate;
mod designs;
mod report;
mod spans;
mod workloads;

use calibrate::Calibrator;
use report::{Clock, Metric, Profile};
use spans::{Call, EpochLog, Mode, StepTotals, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::cluster_batch::ClusterBatch;
use workloads::cluster_churn::ClusterChurn;
use workloads::frontend_sparse::FrontendSparse;
use workloads::Workload;

/// Fewest epochs in a run: each contributes one set-up time sample.
const MIN_EPOCHS: usize = 3;
/// Fewest timed steps in a run, so that `step_us_p99` has at least ten
/// steps beyond it.
const MIN_STEPS: usize = 1000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let take = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// Runs `W` for the whole run: epochs of set-up, warm-up and timed steps,
/// repeated until `--seconds` have passed since process start. A traced
/// run rotates through the workload's trace modes, one per epoch.
fn run<W: Workload>(
    designs: &'static [designs::Design],
    args: &Args,
    origin: Instant,
) -> Result<(Vec<EpochLog>, Profile), String> {
    let modes: &[Mode] = if args.trace {
        W::TRACE_MODES
    } else {
        &[Mode::Plain]
    };
    let min_epochs = MIN_EPOCHS.max(modes.len());
    let budget = Duration::from_secs_f64(args.seconds);
    let mut logs: Vec<EpochLog> = Vec::new();
    let mut timed_steps = 0;
    let mut profile = Profile::new();
    let mut calibrator = Calibrator::new(W::EXECUTOR_WIDTH);
    // one buffer for every epoch's step times: the benchmark's own memory
    // stays the same however many epochs the run makes
    let mut steps = Vec::with_capacity(W::EPOCH_STEPS as usize);
    while logs.len() < min_epochs || timed_steps < MIN_STEPS || origin.elapsed() < budget {
        let mode = modes[logs.len() % modes.len()];
        // the first set-up counts from process start
        let setup_start = if logs.is_empty() {
            origin
        } else {
            Instant::now()
        };
        let mut w = W::setup(designs, args.seed, mode)?;
        let mut tracer = Tracer::new(mode != Mode::Plain, W::TRACE_SAMPLE, origin);
        w.step(&mut tracer)?;
        w.settle(&mut tracer)?;
        tracer.clear();
        let setup_ns = setup_start.elapsed().as_nanos() as u64;
        let setup_kernel_ns = calibrator.median(3);
        let mut kernel_samples = Vec::new();
        let mut counters = BTreeMap::new();
        counters.insert("start".to_string(), w.counters());
        steps.clear();
        let mut totals = StepTotals::default();
        for step in 1..=W::EPOCH_STEPS {
            if (step - 1) % W::BLOCK_STEPS == 0 {
                kernel_samples.push(calibrator.sample());
            }
            let keep = tracer.set_step(step);
            let t0 = Instant::now();
            w.step(&mut tracer)?;
            let t1 = Instant::now();
            let completed = w.settle(&mut tracer)?;
            if keep {
                tracer.push(Call::Step, completed, t0, t1);
            }
            let ns = t1.duration_since(t0).as_nanos() as u64;
            steps.push(ns);
            totals.steps += 1;
            totals.ns += ns;
            totals.requests += completed as u64;
        }
        counters.insert("end".to_string(), w.counters());
        w.finish()?;
        timed_steps += W::EPOCH_STEPS as usize;
        kernel_samples.sort_unstable();
        let kernel_ns = kernel_samples[kernel_samples.len() / 2];
        if mode == Mode::Plain {
            profile.absorb(&steps, calibrate::scale(kernel_ns));
        }
        logs.push(EpochLog {
            mode,
            setup_ns,
            setup_kernel_ns,
            kernel_ns,
            totals,
            spans: tracer.into_spans(),
            counters,
        });
    }
    Ok((logs, profile))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
        };
        println!(
            "  {:<34} {:>16.4} {:<13} [{clock}]",
            m.name, m.value, m.unit
        );
    }
}

fn print_result(correct: bool, attempted: f64, failed: f64, metrics: &str) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        attempted as u64, failed as u64
    );
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <cluster_batch|frontend_sparse|cluster_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let designs: &'static [designs::Design] =
        Box::leak(designs::designs(args.seed).into_boxed_slice());
    let (result, width) = match args.workload.as_str() {
        "cluster_batch" => (
            run::<ClusterBatch>(designs, &args, origin),
            ClusterBatch::EXECUTOR_WIDTH,
        ),
        "frontend_sparse" => (
            run::<FrontendSparse>(designs, &args, origin),
            FrontendSparse::EXECUTOR_WIDTH,
        ),
        "cluster_churn" => (
            run::<ClusterChurn>(designs, &args, origin),
            ClusterChurn::EXECUTOR_WIDTH,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let provenance = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("executor_width", width.to_string()),
        ("commit", env!("PERFBENCH_COMMIT").to_string()),
        ("source_digest", env!("PERFBENCH_SOURCE").to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
    ];
    let stamp: Vec<String> = provenance.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("provenance: {}", stamp.join(" "));
    let fail = |e: String, attempted: f64, failed: f64| -> ! {
        println!("CHECK FAILED: {e}");
        print_result(false, attempted, failed, "{}");
        std::process::exit(1);
    };
    let (epochs, profile) = match result.and_then(|r| report::check_replays(&r.0).map(|()| r)) {
        Ok(r) => r,
        Err(e) => fail(e, 0.0, 0.0),
    };
    let attempted: f64 = epochs.iter().map(|e| e.counter("end", "attempted")).sum();
    let failed: f64 = epochs.iter().map(|e| e.counter("end", "failed")).sum();
    if !args.trace {
        let e2e = report::end_to_end(&epochs, &profile);
        println!("end-to-end metrics, {} (untraced run):", args.workload);
        print_metrics(&e2e.metrics);
        for (k, v) in &e2e.notes {
            println!("  {k}: {v}");
        }
        print_result(true, attempted, failed, &json_metrics(&e2e.metrics));
        return;
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.csv", args.workload));
    if let Err(e) = spans::write_log(&path, &provenance, &epochs) {
        fail(
            format!("writing {}: {e}", path.display()),
            attempted,
            failed,
        );
    }
    let from_file = match spans::read_log(&path) {
        Ok(epochs) => epochs,
        Err(e) => fail(e, attempted, failed),
    };
    let table = report::per_layer(&from_file);
    println!(
        "per-layer metrics, {} (traced run, from {}):",
        args.workload,
        path.display()
    );
    print_metrics(&table.metrics);
    println!(
        "  note: service_{{plan,eval,apply}}_us are the service's published histograms: \
         whole-µs resolution, truncated per drain; 0 marks a layer this workload bypasses"
    );
    println!(
        "ledger: {:.3} µs per traced step, rows in µs per step",
        table.step_us
    );
    let mut sum = 0.0;
    for (name, us) in &table.ledger {
        sum += us;
        println!("  {name:<30} {us:>12.3}");
    }
    println!(
        "  {:<30} {sum:>12.3}  ({:.1}% of the step)",
        "sum of rows",
        100.0 * table.coverage
    );
    if !(0.9..=1.1).contains(&table.coverage) {
        fail(
            format!(
                "per-layer rows cover {:.1}% of the measured step time, outside ±10%",
                100.0 * table.coverage
            ),
            attempted,
            failed,
        );
    }
    print_result(true, attempted, failed, &json_metrics(&table.metrics));
}
