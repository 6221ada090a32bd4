//! `cluster_batch`: closed loop over a [3,3,2]-shard cluster with all 32
//! slots tenanted. Each step submits 255 requests per tenant, then one
//! `Cluster::drain`. Executor width 2, every span ring off.
//!
//! In traced epochs a shadow 1×[8] `ShardedService` holding the same
//! tenants replays every step after it; its responses must equal the
//! cluster's, and its cost is what `cluster.self_ns_per_req` subtracts.

use super::{
    admit_tenants, build_cluster, check_cluster_step, harvest, harvest_usage, pool_index, Workload,
};
use crate::designs::{fabric_params, Design};
use crate::spans::{bump, Call, Counters, Mode, Tracer};
use mcfpga_cluster::{Cluster, ClusterResponse, ClusterTenantId};
use mcfpga_device::TechParams;
use mcfpga_service::{ShardedService, TenantId};

/// Requests per tenant per step: one short of a full 256-lane pass, so
/// no lane-full auto-flush fires and the drain carries all the work.
pub const PER_TENANT: usize = 255;
const TENANTS: usize = 32;

struct Shadow {
    svc: ShardedService,
    tenants: Vec<TenantId>,
}

pub struct ClusterBatch {
    designs: &'static [Design],
    cluster: Cluster,
    tenants: Vec<(ClusterTenantId, usize)>,
    shadow: Option<Shadow>,
    /// Index of the step being run (0 is the warm-up step).
    step: usize,
    /// First cluster request id of the current step.
    base: u64,
    responses: Vec<ClusterResponse>,
    completed: usize,
}

impl Workload for ClusterBatch {
    const EPOCH_STEPS: u32 = 150;
    const BLOCK_STEPS: u32 = 5;
    const TRACE_MODES: &'static [Mode] = &[Mode::Traced, Mode::Plain];
    const TRACE_SAMPLE: u32 = 1;
    const EXECUTOR_WIDTH: usize = 2;

    fn setup(designs: &'static [Design], _seed: u64, mode: Mode) -> Result<Self, String> {
        let mut cluster = build_cluster(Self::EXECUTOR_WIDTH)?;
        let tenants = admit_tenants(&mut cluster, designs, TENANTS)?;
        let shadow = if mode == Mode::Plain {
            None
        } else {
            let shards = cluster.total_shards();
            let mut svc = ShardedService::new(shards, fabric_params(), TechParams::default())
                .map_err(|e| format!("shadow: {e}"))?;
            svc.set_threads(Self::EXECUTOR_WIDTH);
            svc.telemetry().trace_buffer().set_capacity(0);
            let tenants = (0..TENANTS)
                .map(|i| {
                    let d = &designs[i % designs.len()];
                    svc.admit(&format!("{}-{i}", d.name), &d.netlist)
                        .map_err(|e| format!("shadow admit: {e}"))
                })
                .collect::<Result<_, _>>()?;
            Some(Shadow { svc, tenants })
        };
        Ok(ClusterBatch {
            designs,
            cluster,
            tenants,
            shadow,
            step: 0,
            base: 0,
            responses: Vec::new(),
            completed: 0,
        })
    }

    fn step(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        for (ti, &(tenant, d)) in self.tenants.iter().enumerate() {
            let design = &self.designs[d];
            let start = tracer.start();
            for lane in 0..PER_TENANT {
                let inputs = design.vector(pool_index(self.step, ti, lane, PER_TENANT));
                self.cluster
                    .submit(tenant, inputs)
                    .map_err(|e| format!("cluster submit: {e}"))?;
            }
            tracer.end(Call::ClusterSubmit, PER_TENANT, start);
        }
        let start = tracer.start();
        self.responses = self
            .cluster
            .drain()
            .map_err(|e| format!("cluster drain: {e}"))?;
        tracer.end(Call::ClusterDrain, 1, start);
        Ok(())
    }

    fn settle(&mut self, tracer: &mut Tracer) -> Result<usize, String> {
        let step = self.step;
        check_cluster_step(
            &self.responses,
            self.base,
            step,
            PER_TENANT,
            &self.tenants,
            self.designs,
        )?;
        if let Some(shadow) = &mut self.shadow {
            for (ti, (&tenant, &(_, d))) in shadow.tenants.iter().zip(&self.tenants).enumerate() {
                let design = &self.designs[d];
                let start = tracer.start();
                for lane in 0..PER_TENANT {
                    let inputs = design.vector(pool_index(step, ti, lane, PER_TENANT));
                    shadow
                        .svc
                        .submit(tenant, inputs)
                        .map_err(|e| format!("shadow submit: {e}"))?;
                }
                tracer.end(Call::ServiceSubmit, PER_TENANT, start);
            }
            let start = tracer.start();
            let replay = shadow
                .svc
                .drain()
                .map_err(|e| format!("shadow drain: {e}"))?;
            tracer.end(Call::ServiceDrain, 1, start);
            let same = replay.len() == self.responses.len()
                && replay.iter().zip(&self.responses).all(|(s, c)| {
                    s.request.value() == c.request.value()
                        && s.tenant.index() == c.tenant.index()
                        && s.outputs == c.outputs
                });
            if !same {
                return Err(format!(
                    "step {step}: the 1×[8] shadow service answered differently from the cluster"
                ));
            }
        }
        let n = self.responses.len();
        self.base += n as u64;
        self.completed += n;
        self.step += 1;
        Ok(n)
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.cluster.pending_requests() {
            0 => Ok(()),
            n => Err(format!("{n} requests left pending after the last drain")),
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
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
        bump(&mut c, "attempted", self.completed as f64);
        bump(&mut c, "failed", 0.0);
        c
    }
}
