//! # mcfpga-fabric — an island-style multi-context FPGA
//!
//! The MC-FPGA of the paper's Fig. 1: an array of cells, each holding a
//! programmable logic block (a multi-context K-LUT) and a programmable
//! switch block (a crossbar of multi-context switches), with channel wires
//! between neighbouring cells. The fabric exists so the paper's switches can
//! be exercised by *real workloads*: place a logic netlist, route it per
//! context, stream the bitstream in, and simulate execution while the CSS
//! broadcasts context switches.
//!
//! Pipeline:
//!
//! 1. [`netlist_ir`] — a technology-mapped logic netlist (LUT DAG).
//! 2. [`temporal`] — Trimberger-style temporal partitioning: slice the DAG
//!    into `C` stages, one per context, with inter-stage values held in a
//!    context register file.
//! 3. [`place`] — simulated-annealing placement of each stage's LUTs.
//! 4. [`route`] — per-context maze routing through the crossbar SBs.
//! 5. [`bitstream`] — serialisable configuration for all planes, written
//!    and read through [`wire`], the length-guarded byte codec the tenant
//!    checkpoint format (`mcfpga-migrate`) shares.
//! 6. [`compiled`] — **compile → levelize → bit-parallel**: the production
//!    simulation engine. [`compiled::CompiledFabric::compile`] flattens
//!    every routing resource into a dense `u32` arena, turns each context's
//!    routed configuration into a topologically levelized op list and a
//!    straight-line kernel of the LUTs its inputs reach (the ops of a
//!    genuine combinational cycle never resolve), and evaluates up to
//!    **256 input vectors per pass** in 4-word lane chunks. Its one
//!    execution core is [`CompiledFabric::bind`] +
//!    [`CompiledFabric::eval_bound_into`], which re-runs only the LUTs
//!    whose inputs changed since the sweep its state holds;
//!    [`CompiledFabric::eval_bound_reference`] is the interpreter it is
//!    verified against.
//! 7. [`sim`] — the one-vector API ([`sim::evaluate_sorted`], over the
//!    compiled engine's name-keyed adapter) and the reference fixpoint
//!    sweep ([`sim::evaluate_fixpoint`]) the engine is verified against;
//!    [`context`] sequences contexts through compiled planes and accounts
//!    switching energy.
//! 8. [`power`] — fabric-level area/static-power roll-up per architecture;
//!    [`stats`] reports occupancy and compiled-plane shape.
//!
//! The fabric's switch blocks allow **fanout** (one row driving several
//! columns); the strict partial-permutation discipline of Fig. 11 is kept in
//! `mcfpga-switchblock`, where the designated-row sharing theorem needs it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod array;
pub mod bitstream;
pub mod compiled;
pub mod context;
pub mod lut;
pub mod netlist_ir;
pub mod place;
pub mod power;
pub mod route;
pub mod sim;
pub mod stats;
pub mod temporal;
pub mod wire;

pub use array::{Fabric, FabricParams, TileCoord};
pub use compiled::{BoundPlan, CompiledFabric, EvalStats, REG_PREFIX};
pub use context::{run_schedule, ContextSequencer};
pub use lut::MultiContextLut;
pub use netlist_ir::{LogicNetlist, NodeId};
pub use route::RoutedDesign;
pub use temporal::{RegisterFile, TemporalPartition};

/// Errors from fabric construction, mapping and simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// Grid/channel parameters out of range.
    BadParams(String),
    /// Context id out of range.
    ContextOutOfRange {
        /// Offending context.
        ctx: usize,
        /// Fabric context count.
        contexts: usize,
    },
    /// Referenced a tile outside the grid.
    BadTile {
        /// X coordinate.
        x: usize,
        /// Y coordinate.
        y: usize,
    },
    /// Netlist IR malformed (dangling reference, cycle, arity).
    BadNetlist(String),
    /// Placement failed (more LUTs than tiles, etc.).
    PlacementFailed(String),
    /// Routing failed for a net.
    RoutingFailed {
        /// Human-readable net description.
        net: String,
        /// Context being routed.
        ctx: usize,
    },
    /// Simulation could not resolve all values (combinational loop or
    /// undriven input).
    Unresolved(String),
    /// Evaluated a context the [`CompiledFabric`] was not compiled for
    /// (it was built with [`CompiledFabric::compile_context`]).
    ContextNotCompiled {
        /// Context requested for evaluation.
        ctx: usize,
        /// The single context that was compiled.
        compiled: usize,
    },
    /// Bitstream parse error.
    BadBitstream(String),
    /// Underlying switch error.
    Core(mcfpga_core::CoreError),
}

impl From<wire::WireError> for FabricError {
    fn from(e: wire::WireError) -> Self {
        FabricError::BadBitstream(e.to_string())
    }
}

impl From<mcfpga_core::CoreError> for FabricError {
    fn from(e: mcfpga_core::CoreError) -> Self {
        FabricError::Core(e)
    }
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::BadParams(s) => write!(f, "bad fabric params: {s}"),
            FabricError::ContextOutOfRange { ctx, contexts } => {
                write!(f, "context {ctx} out of range ({contexts})")
            }
            FabricError::BadTile { x, y } => write!(f, "tile ({x},{y}) outside grid"),
            FabricError::BadNetlist(s) => write!(f, "bad netlist: {s}"),
            FabricError::PlacementFailed(s) => write!(f, "placement failed: {s}"),
            FabricError::RoutingFailed { net, ctx } => {
                write!(f, "routing failed for {net} in ctx {ctx}")
            }
            FabricError::Unresolved(s) => write!(f, "simulation unresolved: {s}"),
            FabricError::ContextNotCompiled { ctx, compiled } => {
                write!(f, "context {ctx} not compiled (only context {compiled} is)")
            }
            FabricError::BadBitstream(s) => write!(f, "bad bitstream: {s}"),
            FabricError::Core(e) => write!(f, "switch: {e}"),
        }
    }
}

impl std::error::Error for FabricError {}
