//! The three workloads and what they share: the driving interface the
//! runner times, the [3,3,2]-shard cluster, and counter harvesting from
//! published telemetry.

pub mod cluster_batch;
pub mod cluster_churn;
pub mod frontend_sparse;

use crate::designs::{fabric_params, Design};
use crate::spans::{bump, Counters, Mode, Tracer};
use mcfpga_cluster::{Cluster, ClusterResponse, ClusterTenantId};
use mcfpga_cost::attribution::TenantUsage;
use mcfpga_device::TechParams;
use mcfpga_service::ShardedService;
use mcfpga_telemetry::Registry;

/// One workload as the runner drives it. A run is a sequence of epochs;
/// each epoch sets the workload up from the seed, runs one untimed
/// warm-up step, then a fixed number of timed steps. Every epoch thus
/// replays the same work, and the simulated metrics of one epoch are the
/// simulated metrics of the run.
pub trait Workload: Sized {
    /// Timed steps per epoch (after the warm-up step).
    const EPOCH_STEPS: u32;
    /// Steps per calibration sample: a block takes a few tens of
    /// milliseconds.
    const BLOCK_STEPS: u32;
    /// Epoch modes a traced run rotates through.
    const TRACE_MODES: &'static [Mode];
    /// Executor width of every service the workload builds.
    const EXECUTOR_WIDTH: usize;
    /// A traced run keeps the layer spans of one step in this many.
    const TRACE_SAMPLE: u32;

    fn setup(designs: &'static [Design], seed: u64, mode: Mode) -> Result<Self, String>;
    /// The timed part of one step.
    fn step(&mut self, tracer: &mut Tracer) -> Result<(), String>;
    /// Untimed: checks the step's outputs, prepares the next step's inputs,
    /// and returns the requests the step completed.
    fn settle(&mut self, tracer: &mut Tracer) -> Result<usize, String>;
    /// Untimed: end-of-epoch checks.
    fn finish(&mut self) -> Result<(), String>;
    /// Counters read from published telemetry and tenant usage, plus the
    /// workload's own simulated-clock figures.
    fn counters(&self) -> Counters;
}

/// Node sizes, in shards, of the cluster workloads.
pub const NODE_SHARDS: [usize; 3] = [3, 3, 2];

/// Registry counters every workload harvests.
const COUNTERS: [&str; 11] = [
    "service_requests_submitted",
    "service_responses_total",
    "service_steps_applied",
    "service_drains_total",
    "service_css_toggles",
    "fabric_ops_total",
    "fabric_ops_skipped",
    "fabric_kernel_evals",
    "trace_dropped",
    "executor_tasks_total",
    "executor_tasks_stolen",
];

/// Registry histograms, harvested as `<name>.count` and `<name>.sum`.
const HISTOGRAMS: [&str; 4] = [
    "service_batch_lanes",
    "service_plan_us",
    "service_eval_us",
    "service_apply_us",
];

/// Counter names excluded from the replay-identity check. The executor
/// and phase-timing figures depend on host timing and scheduling. The
/// fabric op counts depend on how each admission was routed, and routing
/// seeds its search from a `HashMap` walk (`Router::route` in
/// `crates/fabric/src/route.rs`), whose order differs between service
/// instances: the routed configuration, and with it the op count, can
/// change between replays of one seed while every output stays the same.
pub const REPLAY_EXEMPT: [&str; 10] = [
    "fabric_ops_total",
    "fabric_ops_skipped",
    "executor_tasks_total",
    "executor_tasks_stolen",
    "service_plan_us.count",
    "service_plan_us.sum",
    "service_eval_us.count",
    "service_eval_us.sum",
    "service_apply_us.count",
    "service_apply_us.sum",
];

pub fn harvest(registry: &Registry, into: &mut Counters) {
    for name in COUNTERS {
        bump(into, name, registry.counter_value(name).unwrap_or(0) as f64);
    }
    for name in HISTOGRAMS {
        let (count, sum) = registry.histogram_stats(name).unwrap_or((0, 0));
        bump(into, &format!("{name}.count"), count as f64);
        bump(into, &format!("{name}.sum"), sum as f64);
    }
}

pub fn harvest_usage(usage: &TenantUsage, into: &mut Counters) {
    bump(into, "css_toggles", usage.css_toggles as f64);
    bump(
        into,
        "css_toggles_baseline",
        usage.css_toggles_baseline as f64,
    );
    bump(
        into,
        "migration_css_toggles",
        usage.migration_css_toggles as f64,
    );
    bump(into, "migrations", usage.migrations as f64);
    bump(into, "migration_bytes", usage.migration_bytes as f64);
}

/// A [3,3,2]-shard cluster of 8×8 fabrics with every span ring off and
/// every node's executor at `threads`.
pub fn build_cluster(threads: usize) -> Result<Cluster, String> {
    let nodes = NODE_SHARDS
        .iter()
        .map(|&shards| ShardedService::new(shards, fabric_params(), TechParams::default()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("node: {e}"))?;
    let mut cluster = Cluster::new(nodes).map_err(|e| format!("cluster: {e}"))?;
    cluster.set_threads(threads);
    cluster.telemetry().trace_buffer().set_capacity(0);
    for node in 0..cluster.node_count() {
        rings_off(&cluster, node)?;
    }
    Ok(cluster)
}

/// Sets one node's span ring to capacity 0 (a restarted node comes back
/// with the default ring, so this is re-applied after every restart).
pub fn rings_off(cluster: &Cluster, node: usize) -> Result<(), String> {
    cluster
        .node(node)
        .map_err(|e| format!("node {node}: {e}"))?
        .telemetry()
        .trace_buffer()
        .set_capacity(0);
    Ok(())
}

/// Admits `count` tenants, designs rotating in admission order.
pub fn admit_tenants(
    cluster: &mut Cluster,
    designs: &[Design],
    count: usize,
) -> Result<Vec<(ClusterTenantId, usize)>, String> {
    (0..count)
        .map(|i| {
            let d = i % designs.len();
            let name = format!("{}-{i}", designs[d].name);
            cluster
                .admit(&name, &designs[d].netlist)
                .map(|t| (t, d))
                .map_err(|e| format!("admit {name}: {e}"))
        })
        .collect()
}

/// Pool index of lane `lane` of tenant `tenant` at step `step`, for a
/// workload submitting `per_tenant` requests per tenant per step.
pub fn pool_index(step: usize, tenant: usize, lane: usize, per_tenant: usize) -> usize {
    step * per_tenant + lane + tenant * 977
}

/// Checks one step's cluster responses: exactly the `tenants.len() ×
/// per_tenant` requests submitted since cluster id `base`, each answered
/// once, by its own tenant, with the reference outputs.
pub fn check_cluster_step(
    responses: &[ClusterResponse],
    base: u64,
    step: usize,
    per_tenant: usize,
    tenants: &[(ClusterTenantId, usize)],
    designs: &[Design],
) -> Result<(), String> {
    let n = tenants.len() * per_tenant;
    if responses.len() != n {
        return Err(format!(
            "step {step}: {} responses for {n} requests",
            responses.len()
        ));
    }
    let mut seen = vec![false; n];
    for r in responses {
        let offset = r.request.value().wrapping_sub(base) as usize;
        if offset >= n || std::mem::replace(&mut seen[offset], true) {
            return Err(format!("step {step}: unexpected or repeated {}", r.request));
        }
        let (ti, lane) = (offset / per_tenant, offset % per_tenant);
        let (tenant, d) = tenants[ti];
        if r.tenant != tenant {
            return Err(format!(
                "step {step}: {} answered by {}",
                r.request, r.tenant
            ));
        }
        if !designs[d].check(pool_index(step, ti, lane, per_tenant), &r.outputs) {
            return Err(format!(
                "step {step}: {} ({}) disagrees with LogicNetlist::eval",
                r.request, designs[d].name
            ));
        }
    }
    Ok(())
}
