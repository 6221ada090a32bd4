//! # mcfpga-service — multi-tenant batched execution over the compiled fabric
//!
//! The paper's point is that **one fabric serves many logical circuits**,
//! switching between them in a single cycle. The compiled engine
//! (`mcfpga_fabric::compiled`) makes each context cheap to evaluate — up
//! to 256 input vectors per chunked bit-parallel pass — and this crate
//! exploits that to serve *concurrent workloads*: many tenants, each
//! resident in one context slot, their single-vector requests coalesced
//! into wide multi-lane passes.
//!
//! Four layers:
//!
//! * [`registry::TenantRegistry`] — admits per-tenant programmed
//!   configurations, mapping each tenant to a `(shard, context)` slot in
//!   round-robin order. A [`registry::PlaneCache`] keyed by the fabric's
//!   [`context_digest`](mcfpga_fabric::Fabric::context_digest) means
//!   re-admitting an identical bitstream never recompiles, and compiled
//!   planes are `Arc`-shared — installing one in an engine slot clones a
//!   pointer, never a plane.
//! * [`engine::ShardEngine`] — one shard's complete execution state: its
//!   own [`ContextSequencer`](mcfpga_fabric::ContextSequencer) and **one
//!   record per context slot** holding the occupant (tenant id, usage,
//!   stream registers, and the [`LaneBatch`] coalescing its single-vector
//!   requests with their request ids), the installed compiled plane with
//!   its prebound plan, and the slot's caches. A slot flushes the moment
//!   every configured lane fills (256 by default; see
//!   [`ShardedService::set_lane_width`]) or on an explicit
//!   [`ShardedService::drain`], with each tenant's responses demuxed back
//!   out of the lane chunks; request ids stay service-global through the
//!   coordinator's single [`batch::RequestIdSource`]. Engines share no
//!   execution state, so sweeps of different shards run concurrently.
//! * [`service::ShardedService`] — the thin coordinator: registry, plane
//!   cache, policies, and the [`executor::ParallelExecutor`] whose
//!   **persistent fork-join pool** (the calling thread plus parked helper
//!   threads, claiming from one shared cursor) evaluates the per-context
//!   steps that [`drain`](ShardedService::drain) plans. Every step carries
//!   its `(shard, sweep-position)` merge key and results are applied in
//!   that key order, making output bit-for-bit identical at any thread
//!   count (`MCFPGA_THREADS`, or [`ShardedService::set_threads`]) and any
//!   lane width. Sweeps are reordered for
//!   minimum broadcast toggles under [`OptimizeMode::Optimized`] (the
//!   default; see [`mcfpga_css::optimize`]) and CSS broadcast energy is
//!   attributed per tenant via [`mcfpga_cost::attribution`] at plan time,
//!   including what the reordering saved versus the naive order.
//!   Admission slots are chosen by a [`PlacementPolicy`]: round-robin, or
//!   energy-aware marginal-sweep-cost placement with plane-cache
//!   affinity.
//! * [`frontend::FrontendDriver`] — the QoS streaming front-end: bounded
//!   per-tenant request streams with priority/deadline classes
//!   ([`QosClass`]), typed backpressure and admission rejections,
//!   token-bucket rate limits, and a virtual-clock pump that picks flush
//!   timing from observed arrival rates — flushing latency-sensitive
//!   partial batches early through
//!   [`flush_tenants`](ShardedService::flush_tenants) while throughput
//!   streams wait for lane-full.
//!
//! Tenants are **mobile**: `checkpoint_tenant` snapshots one at a
//! context-switch boundary into a [`TenantCheckpoint`] (versioned wire
//! format, see [`mcfpga_migrate`]), `restore_tenant` resumes it elsewhere
//! bit-for-bit under fresh request ids (`restore_tenant_into` in an exact
//! slot), `migrate_tenant` moves it live preserving request ids,
//! `hand_over` does the same into another service's exact slot under the
//! tenant's own id,
//! and `evacuate_shard` clears a faulted/hot shard wholesale — with the
//! overhead billed per tenant. Outputs a tenant names `reg:*` are stream
//! registers: captured after each pass and re-driven (lane-aligned) on
//! its next pass, so sequential designs work and their state migrates.
//!
//! [`LaneBatch`]: mcfpga_fabric::compiled::LaneBatch
//!
//! ```
//! use mcfpga_device::TechParams;
//! use mcfpga_fabric::netlist_ir::generators;
//! use mcfpga_fabric::FabricParams;
//! use mcfpga_service::ShardedService;
//!
//! let mut svc = ShardedService::new(1, FabricParams::default(), TechParams::default())?;
//! let parity = svc.admit("parity", &generators::parity_tree(3)?)?;
//!
//! // Two independent single-vector requests share one fabric pass.
//! svc.submit(parity, &[("x0", true), ("x1", true), ("x2", false)])?;
//! svc.submit(parity, &[("x0", true), ("x1", false), ("x2", false)])?;
//! let responses = svc.drain()?;
//! assert_eq!(responses.len(), 2);
//! assert!(!responses[0].outputs[0].1); // parity(1,1,0) = 0
//! assert!(responses[1].outputs[0].1); // parity(1,0,0) = 1
//! assert_eq!(svc.usage(parity)?.passes, 1, "both requests rode one pass");
//! # Ok::<(), mcfpga_service::ServiceError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod engine;
pub mod executor;
pub mod frontend;
pub mod placement;
pub mod registry;
pub mod service;

pub use batch::{Outputs, RequestId, RequestIdSource, Response};
pub use engine::ShardEngine;
pub use executor::{
    ExecutorConfig, ParallelExecutor, ThreadSource, SPAWN_EVENTS_METRIC, TASKS_EXECUTED_METRIC,
    TASKS_TOTAL_METRIC, THREADS_ENV, WORKERS_SPAWNED_METRIC,
};
pub use frontend::{
    FrontendDriver, FrontendError, FrontendEvent, QosClass, RateLimit, RejectReason, StreamPolicy,
    Ticket,
};
pub use placement::{best_slot, netlist_fingerprint, PlacementPolicy};
pub use registry::{CachedPlane, Placement, PlaneCache, TenantId, TenantIdSource, TenantRegistry};
pub use service::{ShardedService, SlotFault};

// the sweep-ordering knob lives in `mcfpga_css::optimize`; re-exported here
// because it is half of the service's policy surface
pub use mcfpga_css::OptimizeMode;
// the checkpoint model lives in `mcfpga_migrate`; re-exported because
// checkpoint/restore/migrate/evacuate are service operations
pub use mcfpga_migrate::{MigrateError, PendingBatch, TenantCheckpoint, FORMAT_VERSION};

use mcfpga_css::CssError;
use mcfpga_fabric::FabricError;

/// Errors from the multi-tenant execution service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Every `(shard, context)` slot already hosts a tenant.
    CapacityExhausted {
        /// Number of shards in the service.
        shards: usize,
        /// Context slots per shard.
        contexts: usize,
    },
    /// Service configured with zero shards or a context-less fabric.
    BadConfig(String),
    /// Referenced a tenant id the registry never issued.
    UnknownTenant(usize),
    /// A request or execution touched a slot with no programmed plane.
    SlotNotProgrammed {
        /// Shard index.
        shard: usize,
        /// Context slot.
        ctx: usize,
    },
    /// A submitted request did not drive one of its tenant's input
    /// columns (the non-register inputs its plane binds); `name` is the
    /// first such column, in column order. Checked per request at submit
    /// time: a batched pass reads every column for every lane, so an
    /// unchecked omission would silently read as 0.
    MissingInput {
        /// The undriven input signal.
        name: String,
    },
    /// A submit hit a slot whose lanes are already full because an
    /// earlier flush failed and left its batch queued. Recover with a
    /// corrected [`ShardedService::drain`] or
    /// [`ShardedService::discard_pending`].
    SlotBacklogged {
        /// Shard index.
        shard: usize,
        /// Context slot.
        ctx: usize,
    },
    /// An evaluated pass no longer matches its slot at apply time: the
    /// pass ran without the slot's current bound plan, or the slot's
    /// queued batch is gone. The coordinator sequences every slot change
    /// between planning and applying, so this marks an internal bug; the
    /// slot's requests, if any, stay queued.
    StaleStep {
        /// Shard index.
        shard: usize,
        /// Context slot.
        ctx: usize,
    },
    /// Referenced a shard index the service does not have.
    NoSuchShard {
        /// The requested shard.
        shard: usize,
        /// Number of shards in the service.
        shards: usize,
    },
    /// A checkpoint/restore/migration operation failed (version mismatch,
    /// missing plane, no destination slot, …).
    Migrate(MigrateError),
    /// Underlying fabric error (routing, compilation, evaluation).
    Fabric(FabricError),
    /// Underlying CSS error (schedule construction, generator).
    Css(CssError),
}

impl From<FabricError> for ServiceError {
    fn from(e: FabricError) -> Self {
        ServiceError::Fabric(e)
    }
}

impl From<CssError> for ServiceError {
    fn from(e: CssError) -> Self {
        ServiceError::Css(e)
    }
}

impl From<MigrateError> for ServiceError {
    fn from(e: MigrateError) -> Self {
        ServiceError::Migrate(e)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::CapacityExhausted { shards, contexts } => {
                write!(f, "all {shards}×{contexts} tenant slots are occupied")
            }
            ServiceError::BadConfig(s) => write!(f, "bad service config: {s}"),
            ServiceError::UnknownTenant(id) => write!(f, "unknown tenant id {id}"),
            ServiceError::SlotNotProgrammed { shard, ctx } => {
                write!(f, "slot (shard {shard}, ctx {ctx}) has no programmed plane")
            }
            ServiceError::MissingInput { name } => {
                write!(f, "request does not drive bound input '{name}'")
            }
            ServiceError::SlotBacklogged { shard, ctx } => {
                write!(
                    f,
                    "slot (shard {shard}, ctx {ctx}) holds a full unflushed batch; \
                     drain or discard_pending first"
                )
            }
            ServiceError::StaleStep { shard, ctx } => {
                write!(
                    f,
                    "slot (shard {shard}, ctx {ctx}) changed between planning and applying its pass"
                )
            }
            ServiceError::NoSuchShard { shard, shards } => {
                write!(f, "shard {shard} out of range (service has {shards})")
            }
            ServiceError::Migrate(e) => write!(f, "migration: {e}"),
            ServiceError::Fabric(e) => write!(f, "fabric: {e}"),
            ServiceError::Css(e) => write!(f, "css: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}
