//! # mcfpga-css — context-switching signal generation
//!
//! A multi-context FPGA broadcasts a **context switching signal** (CSS) to
//! every multi-context switch. This crate implements the three CSS families
//! the paper compares:
//!
//! * [`binary::BinaryCss`] — the conventional binary context word
//!   `S_{k-1} … S_1 S_0` (drives the SRAM-based MC-switch of Fig. 2).
//! * [`mv::MvCss`] — the pure multiple-valued CSS of ref \[3\]: the context id
//!   within a 4-context block is broadcast as one of four rail levels, and
//!   block-select bits stay binary (they drive the Fig. 6 doubling MUX).
//! * [`hybrid::HybridCssGen`] — **the paper's contribution**: the hybrid
//!   MV/binary CSS of Figs. 7–8. Per 4-context block, four five-valued
//!   broadcast lines carry `S0·Vs`, `S0·¬Vs`, `¬S0·Vs`, `¬S0·¬Vs`, where
//!   `Vs = (ctx mod 4) + 1`, `¬Vs = 5 − Vs`, and `·` is binary gating
//!   (output = MV value when the gate is 1, level 0 otherwise). Higher
//!   context bits are *merged into the gating* ("More context selection bits
//!   such as S2 are merged into the hybrid MV/B-CSS without any overhead"),
//!   so an 8-context fabric broadcasts 8 lines and the per-switch hardware
//!   stays two FGMOSs per 4-context block with **no MUX**.
//!
//! Supporting modules: [`schedule`] (context sequences), [`optimize`]
//! (sweep reordering against a pairwise transition-cost matrix — switching
//! energy minimization), [`waveform`] (sampled traces + ASCII/CSV rendering
//! for the Fig. 7 reproduction) and [`generator`] (transistor-count model
//! of the Fig. 8 generator and its amortisation across switches).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binary;
pub mod gen_netlist;
pub mod generator;
pub mod hybrid;
pub mod mv;
pub mod optimize;
pub mod schedule;
pub mod waveform;

pub use binary::BinaryCss;
pub use gen_netlist::GeneratorNetlist;
pub use generator::GeneratorCost;
pub use hybrid::{HybridCssGen, LineId};
pub use mv::MvCss;
pub use optimize::{
    optimize_sweep, optimize_sweep_into, sweep_cost, CostMatrix, OptimizeMode, OptimizedSweep,
    SweepScratch,
};
pub use schedule::Schedule;
pub use waveform::Waveform;

/// Errors from CSS generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CssError {
    /// Context out of range for the generator.
    ContextOutOfRange {
        /// Offending context.
        ctx: usize,
        /// Generator's context count.
        contexts: usize,
    },
    /// Context count unsupported (hybrid and MV need a multiple of 4, ≥ 4;
    /// binary needs a power of two ≥ 2).
    BadContextCount(usize),
    /// Referenced a broadcast line that does not exist.
    BadLine {
        /// Block index requested.
        block: usize,
        /// Generator's block count.
        blocks: usize,
    },
    /// A schedule and a transition-cost matrix cover different context
    /// domains (see [`optimize::optimize_sweep`]).
    DomainMismatch {
        /// The schedule's context domain.
        schedule: usize,
        /// The matrix's context domain.
        matrix: usize,
    },
}

impl std::fmt::Display for CssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CssError::ContextOutOfRange { ctx, contexts } => {
                write!(f, "context {ctx} out of range ({contexts} contexts)")
            }
            CssError::BadContextCount(c) => write!(f, "unsupported context count {c}"),
            CssError::BadLine { block, blocks } => {
                write!(f, "line block {block} out of range ({blocks} blocks)")
            }
            CssError::DomainMismatch { schedule, matrix } => {
                write!(
                    f,
                    "schedule covers {schedule} contexts but the cost matrix covers {matrix}"
                )
            }
        }
    }
}

impl std::error::Error for CssError {}
