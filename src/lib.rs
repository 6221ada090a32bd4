//! # mcfpga — a multi-context FPGA architecture workbench
//!
//! A from-scratch reproduction of *"Architecture of a Multi-Context FPGA
//! Using a Hybrid Multiple-Valued/Binary Context Switching Signal"*
//! (Nakatani, Hariyama, Kameyama — IPDPS Reconfigurable Architectures
//! Workshop, 2006), grown into a workbench a downstream user can build on:
//!
//! * [`mvl`] — multiple-valued logic: rail levels, threshold literals,
//!   window decomposition (Figs. 3–4);
//! * [`device`] — behavioural FGMOS / SRAM / pass-gate models with
//!   program-verify, endurance and retention;
//! * [`netlist`] — structural netlists + a switch-level simulator;
//! * [`css`] — binary, multiple-valued and hybrid MV/B context-switching
//!   signal generators (Figs. 7–8), plus the sweep-order optimizer that
//!   minimizes broadcast toggles against a transition-cost matrix;
//! * [`core`] — the three MC-switch architectures (Figs. 2, 5–6, 9–10) and
//!   their equivalence/redundancy/timing analyses;
//! * [`switchblock`] — crossbar switch blocks and the column-sharing
//!   theorem (Fig. 11, Table 2);
//! * [`fabric`] — an island-style multi-context FPGA with placement,
//!   routing, temporal partitioning, bitstreams and functional simulation
//!   (Fig. 1);
//! * [`cost`] — transistor/area/power models and report rendering
//!   (Tables 1–2 and the scaling sweeps);
//! * [`service`] — a multi-tenant batched execution runtime: tenants admit
//!   designs into context slots across fabric shards (round-robin or
//!   energy-aware placement), and their single-vector requests coalesce
//!   into 64-lane bit-parallel passes swept in toggle-optimized order;
//! * [`migrate`] — checkpoint/restore and live tenant migration: a
//!   versioned checkpoint wire format capturing a tenant at a
//!   context-switch boundary, powering `migrate_tenant` / `evacuate_shard`
//!   on the service;
//! * [`cluster`] — multi-node federation: a router placing tenants across
//!   N sharded services by load/energy score, a deterministic
//!   node-then-shard-then-lane merge of responses/faults/billing, and a
//!   virtual-clock rebalancer that drains, restarts and live-migrates
//!   around hot or faulted nodes;
//! * [`telemetry`] — deterministic observability: a metric registry with
//!   deterministic / wall-clock classes, a bounded ring of request
//!   lifecycle spans with cross-node trace reconstruction, and the
//!   cluster health snapshots the rebalancer consumes.
//!
//! See `docs/ARCHITECTURE.md` for the crate map and data flow, and
//! `docs/GLOSSARY.md` for the paper's vocabulary as used in the code.
//!
//! ## Quickstart
//!
//! ```
//! use mcfpga::prelude::*;
//!
//! // The paper's Fig. 3 function: conduct in contexts 1 and 3 only.
//! let f = CtxSet::from_ctxs(4, [1, 3]).unwrap();
//!
//! // The proposed switch: two FGMOSs, exclusively ON.
//! let mut sw = HybridMcSwitch::new(4).unwrap();
//! sw.configure(&f).unwrap();
//! assert!(!sw.is_on(0).unwrap());
//! assert!(sw.is_on(1).unwrap());
//! assert_eq!(sw.transistor_count(), 2); // Table 1's headline
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mcfpga_cluster as cluster;
pub use mcfpga_core as core;
pub use mcfpga_cost as cost;
pub use mcfpga_css as css;
pub use mcfpga_device as device;
pub use mcfpga_fabric as fabric;
pub use mcfpga_migrate as migrate;
pub use mcfpga_mvl as mvl;
pub use mcfpga_netlist as netlist;
pub use mcfpga_service as service;
pub use mcfpga_switchblock as switchblock;
pub use mcfpga_telemetry as telemetry;

/// The most commonly used items in one import.
pub mod prelude {
    pub use mcfpga_cluster::{Cluster, NodeHealth, RebalancerPolicy};
    pub use mcfpga_core::{
        AnySwitch, ArchKind, HybridMcSwitch, McSwitch, MvFgfpMcSwitch, SramMcSwitch,
    };
    pub use mcfpga_css::{
        optimize_sweep, BinaryCss, CostMatrix, HybridCssGen, MvCss, OptimizeMode, Schedule,
    };
    pub use mcfpga_device::{Fgmos, FgmosMode, Programmer, TechParams};
    pub use mcfpga_fabric::{Fabric, FabricParams, LogicNetlist, MultiContextLut, TileCoord};
    pub use mcfpga_migrate::{MigrateError, TenantCheckpoint, FORMAT_VERSION};
    pub use mcfpga_mvl::{decompose_windows, CtxSet, Level, Radix, WindowLiteral};
    pub use mcfpga_netlist::{Netlist, SwitchSim};
    pub use mcfpga_service::{
        FrontendDriver, ParallelExecutor, PlacementPolicy, QosClass, ShardedService, StreamPolicy,
        TenantId,
    };
    pub use mcfpga_switchblock::{remap_to_designated_rows, RouteSet, SwitchBlock};
    pub use mcfpga_telemetry::{
        ClusterHealthSnapshot, MetricClass, Registry, SpanEvent, SpanKind, Telemetry,
    };
}
