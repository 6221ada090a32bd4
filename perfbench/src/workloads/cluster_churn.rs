//! `cluster_churn`: the control plane beside the data plane. The
//! [3,3,2]-shard cluster holds 16 tenants on 32 slots. Each step submits
//! a burst of 16 requests per tenant, makes 2 seeded live migrations that
//! carry those pending requests, and every [`RESTART_EVERY`] steps puts
//! one node (in rotation) through `drain_node` + `restart_node`; then one
//! drain. Executor width 1, every span ring off.
//!
//! Migration destinations are drawn only among healthy nodes with a free
//! slot, so no control operation fails by construction.

use super::{
    admit_tenants, build_cluster, check_cluster_step, harvest, harvest_usage, pool_index,
    rings_off, Workload,
};
use crate::designs::{Design, SplitMix};
use crate::spans::{bump, Call, Counters, Mode, Tracer};
use mcfpga_cluster::{Cluster, ClusterResponse, ClusterTenantId, NodeHealth};

const TENANTS: usize = 16;
/// Requests per tenant per step.
pub const BURST: usize = 16;
const MIGRATIONS_PER_STEP: usize = 2;
/// Steps between node restarts.
pub const RESTART_EVERY: usize = 16;

pub struct ClusterChurn {
    designs: &'static [Design],
    cluster: Cluster,
    tenants: Vec<(ClusterTenantId, usize)>,
    rng: SplitMix,
    /// The next step's migrations, `(tenant, destination node)`.
    plan: Vec<(ClusterTenantId, usize)>,
    step: usize,
    base: u64,
    responses: Vec<ClusterResponse>,
    /// Counters of node incarnations already replaced by a restart.
    retired: Counters,
    completed: usize,
    control_ops: usize,
}

impl ClusterChurn {
    /// Draws the next step's migrations: distinct tenants, each to a
    /// healthy node other than its own with a slot still free after the
    /// moves drawn before it.
    fn plan_migrations(&mut self) -> Result<(), String> {
        let nodes = self.cluster.node_count();
        let mut free = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let healthy =
                self.cluster.node_health(node).map_err(|e| e.to_string())? == NodeHealth::Healthy;
            let slots = self
                .cluster
                .node(node)
                .map_err(|e| e.to_string())?
                .registry()
                .free_slots()
                .len();
            free.push(if healthy { slots } else { 0 });
        }
        self.plan.clear();
        while self.plan.len() < MIGRATIONS_PER_STEP {
            let (tenant, _) = self.tenants[self.rng.below(TENANTS)];
            if self.plan.iter().any(|&(t, _)| t == tenant) {
                continue;
            }
            let src = self
                .cluster
                .tenant_node(tenant)
                .map_err(|e| e.to_string())?;
            let candidates: Vec<usize> = (0..nodes).filter(|&n| n != src && free[n] > 0).collect();
            if candidates.is_empty() {
                return Err(format!("no free destination for {tenant}"));
            }
            let dst = candidates[self.rng.below(candidates.len())];
            free[dst] -= 1;
            free[src] += 1;
            self.plan.push((tenant, dst));
        }
        Ok(())
    }
}

impl Workload for ClusterChurn {
    const EPOCH_STEPS: u32 = 2_048;
    const BLOCK_STEPS: u32 = 64;
    const TRACE_MODES: &'static [Mode] = &[Mode::Traced, Mode::Plain];
    const TRACE_SAMPLE: u32 = 4;
    const EXECUTOR_WIDTH: usize = 1;

    fn setup(designs: &'static [Design], seed: u64, _mode: Mode) -> Result<Self, String> {
        let mut cluster = build_cluster(Self::EXECUTOR_WIDTH)?;
        let tenants = admit_tenants(&mut cluster, designs, TENANTS)?;
        let mut churn = ClusterChurn {
            designs,
            cluster,
            tenants,
            rng: SplitMix::new(seed ^ 0xC4D2_11B0_0000_0000),
            plan: Vec::new(),
            step: 0,
            base: 0,
            responses: Vec::new(),
            retired: Counters::new(),
            completed: 0,
            control_ops: 0,
        };
        churn.plan_migrations()?;
        Ok(churn)
    }

    fn step(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        for (ti, &(tenant, d)) in self.tenants.iter().enumerate() {
            let design = &self.designs[d];
            let start = tracer.start();
            for lane in 0..BURST {
                let inputs = design.vector(pool_index(self.step, ti, lane, BURST));
                self.cluster
                    .submit(tenant, inputs)
                    .map_err(|e| format!("cluster submit: {e}"))?;
            }
            tracer.end(Call::ClusterSubmit, BURST, start);
        }
        for &(tenant, dst) in &self.plan {
            let start = tracer.start();
            self.cluster
                .migrate_tenant(tenant, dst)
                .map_err(|e| format!("migrate {tenant} to node {dst}: {e}"))?;
            tracer.end(Call::ClusterMigrate, 1, start);
        }
        if self.step % RESTART_EVERY == RESTART_EVERY - 1 {
            let node = (self.step / RESTART_EVERY) % self.cluster.node_count();
            let start = tracer.start();
            self.cluster
                .drain_node(node)
                .map_err(|e| format!("drain node {node}: {e}"))?;
            tracer.end(Call::ClusterRestart, 0, start);
            // the restart replaces the node's registry: keep what it counted
            let svc = self.cluster.node(node).map_err(|e| e.to_string())?;
            harvest(svc.telemetry().registry(), &mut self.retired);
            let start = tracer.start();
            self.cluster
                .restart_node(node)
                .map_err(|e| format!("restart node {node}: {e}"))?;
            tracer.end(Call::ClusterRestart, 1, start);
            rings_off(&self.cluster, node)?;
        }
        let start = tracer.start();
        self.responses = self
            .cluster
            .drain()
            .map_err(|e| format!("cluster drain: {e}"))?;
        tracer.end(Call::ClusterDrain, 1, start);
        Ok(())
    }

    fn settle(&mut self, _tracer: &mut Tracer) -> Result<usize, String> {
        check_cluster_step(
            &self.responses,
            self.base,
            self.step,
            BURST,
            &self.tenants,
            self.designs,
        )?;
        self.control_ops += self.plan.len();
        if self.step % RESTART_EVERY == RESTART_EVERY - 1 {
            self.control_ops += 2;
        }
        let n = self.responses.len();
        self.base += n as u64;
        self.completed += n;
        self.step += 1;
        self.plan_migrations()?;
        Ok(n)
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.cluster.pending_requests() {
            0 => Ok(()),
            n => Err(format!("{n} requests left pending after the last drain")),
        }
    }

    fn counters(&self) -> Counters {
        let mut c = self.retired.clone();
        for node in 0..self.cluster.node_count() {
            if let Ok(svc) = self.cluster.node(node) {
                harvest(svc.telemetry().registry(), &mut c);
            }
        }
        for &(tenant, _) in &self.tenants {
            if let Ok(usage) = self.cluster.usage(tenant) {
                harvest_usage(&usage, &mut c);
            }
        }
        bump(&mut c, "requests", self.completed as f64);
        bump(
            &mut c,
            "attempted",
            (self.completed + self.control_ops) as f64,
        );
        bump(&mut c, "failed", 0.0);
        c
    }
}
