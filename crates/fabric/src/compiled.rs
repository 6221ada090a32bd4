//! Compile-once / evaluate-many fabric engine.
//!
//! The reference simulator ([`crate::sim::evaluate_fixpoint`]) re-discovers
//! the routed structure of a context on every call: it sweeps every tile,
//! hashes `(TileCoord, Dir, usize)` keys, and repeats until a fixpoint —
//! fine for one vector, hopeless for workload-scale simulation. This module
//! does the discovery **once**:
//!
//! 1. **Flatten** — every routing resource (channel wire, LUT output,
//!    IO port) gets a dense `u32` id in one arena ([`ResourceLayout`]), so
//!    evaluation indexes flat arrays instead of hash maps.
//! 2. **Levelize** — each context's configured switch-block routes and LUT
//!    pins become a list of [`Op`]s, topologically sorted at compile time.
//!    The ops on or past a genuine combinational cycle follow the sorted
//!    part: like in the reference simulator, they never resolve.
//! 3. **Elide the routing** — a switch-block hop is a configured
//!    connection, not a gate: every plane's straight-line kernel keeps
//!    the ops the bound inputs reach, resolves every routed copy at
//!    compile time and executes only its LUTs, over a value array with
//!    one slot per bound input and per LUT rather than one per fabric
//!    resource.
//! 4. **Bit-parallelize** — values are [`LaneChunk`]s of [`LANE_WORDS`]
//!    contiguous `u64` lane words: one evaluation pass pushes up to
//!    **[`MAX_LANES`] input vectors** through the fabric, with LUTs
//!    evaluated by lane-wise mux reduction of their truth tables. Sparse
//!    batches evaluate only the occupied words
//!    ([`LaneBatch::words`]), so a ≤64-lane pass costs what the old
//!    single-word engine did.
//!
//! The execution core is [`CompiledFabric::bind`] +
//! [`CompiledFabric::eval_bound_into`]: a context's IO names resolve once
//! into a [`BoundPlan`], and every pass after that runs the plane's kernel
//! over arrays, re-running only the LUTs whose inputs changed since the
//! sweep its [`CompiledState`] holds.
//! [`CompiledFabric::eval_bound_reference`] runs the reference interpreter
//! in the same bound order as the test oracle, and
//! [`CompiledFabric::eval_batch_into`] is the one name-keyed adapter over
//! it ([`crate::context::run_schedule`], staged temporal execution,
//! [`crate::sim::evaluate_sorted`]), leaving every resource's value
//! readable in its [`CompiledState`]. Independent single-vector
//! requests are coalesced into one pass with [`LaneBatch`], which keeps
//! one lane chunk per fixed input column
//! ([`BoundPlan::input_columns`]).
//!
//! ```
//! use mcfpga_fabric::compiled::{pack_lanes, CompiledFabric};
//! use mcfpga_fabric::netlist_ir::generators;
//! use mcfpga_fabric::route::implement_netlist;
//! use mcfpga_fabric::{Fabric, FabricParams};
//!
//! // Route a 3-input parity tree into context 0 and compile it once.
//! let mut fabric = Fabric::new(FabricParams::default())?;
//! implement_netlist(&mut fabric, &generators::parity_tree(3)?, 0, 7)?;
//! let compiled = CompiledFabric::compile(&fabric)?;
//!
//! // Evaluate all 8 input vectors in a single bit-parallel pass:
//! // lane `v` of input `xi` carries bit `i` of vector `v`.
//! let inputs: Vec<(String, u64)> = (0..3)
//!     .map(|i| (format!("x{i}"), pack_lanes(|v| v < 8 && (v >> i) & 1 == 1)))
//!     .collect();
//! let refs: Vec<(&str, u64)> = inputs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
//! let outs = compiled.eval_batch_into(0, &refs, &mut compiled.new_state())?;
//! for v in 0..8u32 {
//!     assert_eq!((outs[0].1 >> v) & 1 == 1, v.count_ones() % 2 == 1);
//! }
//! # Ok::<(), mcfpga_fabric::FabricError>(())
//! ```

use crate::array::{Dir, Fabric, FabricParams, Sink, Source, TileCoord};
use crate::lut::MultiContextLut;
use crate::FabricError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lanes per `u64` word — the legacy single-word batch width, kept as the
/// default [`LaneBatch::new`] width so single-word callers are unaffected.
pub const LANES: usize = 64;

/// Prefix of signal names that are *stream registers*: values carried
/// across context-switch boundaries ([`crate::temporal`]) and between a
/// service tenant's passes, rather than returned as primary outputs. The
/// one naming convention shared by the temporal partitioner, the compiled
/// engine's [`BoundPlan`] and the service's register harvesting.
pub const REG_PREFIX: &str = "reg:";

/// Dirty mask treating every bound input as changed: a full kernel sweep.
const DIRTY_ALL: u64 = u64::MAX;

/// The id the next compiled [`PlaneKernel`] takes.
static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(0);

/// `u64` words per [`LaneChunk`].
pub const LANE_WORDS: usize = 4;

/// `WORD_MASKS[w]`: all ones in the first `w` words of a chunk, zero
/// past them.
const WORD_MASKS: [LaneChunk; LANE_WORDS + 1] = {
    let mut masks = [[0u64; LANE_WORDS]; LANE_WORDS + 1];
    let mut w = 0;
    while w <= LANE_WORDS {
        let mut i = 0;
        while i < w {
            masks[w][i] = u64::MAX;
            i += 1;
        }
        w += 1;
    }
    masks
};

/// Widest supported batch: [`LANE_WORDS`] × 64 lanes per evaluation pass.
pub const MAX_LANES: usize = LANE_WORDS * 64;

/// The chunked lane value of one signal: [`LANE_WORDS`] contiguous `u64`
/// words, lane `l` living at bit `l % 64` of word `l / 64`. Word 0 alone is
/// the legacy 64-lane representation, which is why every single-word API
/// reads/writes `chunk[0]` and zeroes the rest.
pub type LaneChunk = [u64; LANE_WORDS];

/// Reads lane `l` of a chunk — the canonical inverse of [`pack_chunk`].
#[must_use]
pub fn chunk_bit(chunk: &LaneChunk, lane: usize) -> bool {
    (chunk[lane / 64] >> (lane % 64)) & 1 == 1
}

/// Packs per-lane booleans into a chunk: lane `l` of the result is
/// `bit(l)`, for all [`MAX_LANES`] lanes.
#[must_use]
pub fn pack_chunk(mut bit: impl FnMut(usize) -> bool) -> LaneChunk {
    let mut chunk = [0u64; LANE_WORDS];
    for l in 0..MAX_LANES {
        chunk[l / 64] |= u64::from(bit(l)) << (l % 64);
    }
    chunk
}

/// Widens a legacy single lane word to a chunk (word 0 = `word`).
#[must_use]
pub fn chunk_of_word(word: u64) -> LaneChunk {
    let mut chunk = [0u64; LANE_WORDS];
    chunk[0] = word;
    chunk
}

/// Packs per-lane booleans into one lane word: bit `l` of the result is
/// `bit(l)`. This is the canonical lane packing of the engine — the inverse
/// of reading `(word >> l) & 1` — shared by tests, examples and benches so
/// lane semantics live in exactly one place.
#[must_use]
pub fn pack_lanes(mut bit: impl FnMut(usize) -> bool) -> u64 {
    (0..LANES).fold(0u64, |acc, l| acc | (u64::from(bit(l)) << l))
}

/// Dense id of one routing resource in the arena.
pub type ResourceId = u32;

/// Coalesces independent single-vector requests into the lane chunks one
/// evaluation pass consumes.
///
/// A batch has fixed **columns**: the input names its owner binds, fixed
/// when the batch is made (a service tenant's columns are its plane's
/// distinct non-register inputs, [`BoundPlan::input_columns`]). Each
/// pushed request occupies one lane; lane `l` of column `c`'s
/// [`LaneChunk`] holds request `l`'s value for that name. A request must
/// drive every column, and names that are not columns are ignored. After
/// the pass, lane `l` of each output chunk ([`chunk_bit`]) is request
/// `l`'s answer. The capacity is the batch's **width**: [`LANES`] (one
/// word) for [`LaneBatch::new`], up to [`MAX_LANES`] via
/// [`LaneBatch::with_width`]. A request arrives either by name
/// ([`LaneBatch::push`]) or as an input row already resolved against the
/// columns ([`resolve_row`], [`LaneBatch::push_row`]).
///
/// ```
/// use mcfpga_fabric::compiled::{LaneBatch, PushRefusal};
/// use std::sync::Arc;
///
/// let mut batch = LaneBatch::new(Arc::from([Arc::from("x"), Arc::from("y")]));
/// let lane_a = batch.push(&[("x", true), ("y", false)]).unwrap();
/// let lane_b = batch.push(&[("y", true), ("x", false), ("extra", true)]).unwrap();
/// assert_eq!((lane_a, lane_b), (0, 1));
/// assert_eq!(batch.push(&[("x", true)]), Err(PushRefusal::MissingInput(1)));
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.chunks()[0][0] & 0b11, 0b01); // x: lane 0 true, lane 1 false
/// ```
#[derive(Debug, Clone)]
pub struct LaneBatch {
    width: usize,
    lanes: usize,
    columns: Arc<[Arc<str>]>,
    /// One chunk per column, column order.
    chunks: Vec<LaneChunk>,
}

/// Why [`LaneBatch::push`] (or [`LaneBatch::push_row`]) refused a
/// request. The batch is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRefusal {
    /// All of the batch's [`LaneBatch::width`] lanes are occupied.
    Full,
    /// The request did not drive the column at this index — the first
    /// such column, in column order ([`LaneBatch::columns`]).
    MissingInput(usize),
}

impl LaneBatch {
    /// An empty batch over `columns` at the legacy single-word width
    /// ([`LANES`]).
    #[must_use]
    pub fn new(columns: Arc<[Arc<str>]>) -> Self {
        LaneBatch::with_width(LANES, columns).expect("LANES is a valid width")
    }

    /// An empty batch over `columns` holding up to `width` lanes,
    /// `1..=MAX_LANES`.
    pub fn with_width(width: usize, columns: Arc<[Arc<str>]>) -> Result<Self, FabricError> {
        if width == 0 || width > MAX_LANES {
            return Err(FabricError::BadParams(format!(
                "batch width {width} outside 1..={MAX_LANES}"
            )));
        }
        Ok(LaneBatch {
            width,
            lanes: 0,
            chunks: vec![[0u64; LANE_WORDS]; columns.len()],
            columns,
        })
    }

    /// Rebuilds a batch over `columns` from serialized parts: the target
    /// width, the occupied-lane count and `(name, chunk)` pairs in any
    /// order — the inverse of reading [`len`](Self::len),
    /// [`columns`](Self::columns) and [`chunks`](Self::chunks). Names
    /// resolve to columns by name, so a restored batch evaluates
    /// bit-for-bit like the original whatever order its names came in.
    /// Names that are not columns are dropped. Refused: a column named
    /// twice, a column missing while lanes are occupied, and lane bits
    /// set above the occupied lanes.
    pub fn from_parts(
        width: usize,
        lanes: usize,
        columns: Arc<[Arc<str>]>,
        inputs: &[(String, LaneChunk)],
    ) -> Result<Self, FabricError> {
        let mut batch = LaneBatch::with_width(width, columns)?;
        if lanes > width {
            return Err(FabricError::BadParams(format!(
                "{lanes} lanes exceed the {width}-lane batch width"
            )));
        }
        let mut filled = vec![false; batch.columns.len()];
        for (i, (name, chunk)) in inputs.iter().enumerate() {
            // bits above the occupied lanes must be clear: push ORs new
            // values in assuming them zero, so a stray high bit would leak
            // into a later request's lane as a silently wrong input
            for (w, word) in chunk.iter().enumerate() {
                let occupied_here = lanes.saturating_sub(w * 64).min(64);
                let unoccupied = if occupied_here == 64 {
                    0
                } else {
                    !0u64 << occupied_here
                };
                if word & unoccupied != 0 {
                    return Err(FabricError::BadParams(format!(
                        "input '{name}' has lane bits set beyond the {lanes} occupied lanes"
                    )));
                }
            }
            // names usually arrive in column order: probe position `i` first
            let col = match batch.columns.get(i) {
                Some(col) if **col == **name => Some(i),
                _ => batch.columns.iter().position(|col| **col == **name),
            };
            if let Some(c) = col {
                if std::mem::replace(&mut filled[c], true) {
                    return Err(FabricError::BadParams(format!(
                        "input '{name}' appears twice"
                    )));
                }
                batch.chunks[c] = *chunk;
            }
        }
        match filled.iter().position(|f| !f) {
            Some(c) if lanes > 0 => {
                return Err(FabricError::BadParams(format!(
                    "input '{}' missing from a batch with {lanes} occupied lanes",
                    batch.columns[c]
                )))
            }
            _ => {}
        }
        batch.lanes = lanes;
        Ok(batch)
    }

    /// Lane capacity of this batch.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of `u64` words an evaluation pass must process to cover the
    /// occupied lanes — the sparse-traffic optimization: a ≤64-lane batch
    /// evaluates one word no matter how wide the batch is (the
    /// straight-line kernel computes only these words of every LUT).
    #[must_use]
    pub fn words(&self) -> usize {
        self.lanes.div_ceil(64).max(1)
    }

    /// Number of occupied lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes
    }

    /// Is the batch empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes == 0
    }

    /// Are all [`width`](Self::width) lanes occupied?
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.lanes == self.width
    }

    /// The input names every request must drive, in column order.
    #[must_use]
    pub fn columns(&self) -> &Arc<[Arc<str>]> {
        &self.columns
    }

    /// One lane chunk per column, column order.
    #[must_use]
    pub fn chunks(&self) -> &[LaneChunk] {
        &self.chunks
    }

    /// Adds one single-vector request, returning the lane it occupies.
    /// Each column takes the OR of the request's values under its name;
    /// other names are ignored. Refused, with the batch unchanged, when
    /// the batch is full or the request leaves a column undriven.
    ///
    /// A request whose names are the columns in column order — what a
    /// submitter that reuses one name list sends — is committed in the
    /// same loop that compares its names. Any other request is checked
    /// for coverage first, then committed by name search.
    pub fn push(&mut self, request: &[(&str, bool)]) -> Result<usize, PushRefusal> {
        if self.is_full() {
            return Err(PushRefusal::Full);
        }
        let lane = self.lanes;
        let (word, shift) = (lane / 64, lane % 64);
        let mut matched = 0;
        for ((name, value), (col, chunk)) in request
            .iter()
            .zip(self.columns.iter().zip(&mut self.chunks))
        {
            if **col != **name {
                break;
            }
            chunk[word] |= u64::from(*value) << shift;
            matched += 1;
        }
        if matched == self.columns.len() && matched == request.len() {
            self.lanes += 1;
            return Ok(lane);
        }
        // undo the partial commit: the lane's bits were clear before
        for chunk in &mut self.chunks[..matched] {
            chunk[word] &= !(1u64 << shift);
        }
        self.push_by_name(request)
    }

    /// [`push`](Self::push) for a request whose names do not line up with
    /// the columns: [`resolve_row`], then [`push_row`](Self::push_row).
    /// Kept out of line so the positional path stays small.
    #[inline(never)]
    fn push_by_name(&mut self, request: &[(&str, bool)]) -> Result<usize, PushRefusal> {
        let words = row_words(self.columns.len());
        let mut inline = [0u64; LANE_WORDS];
        let mut spilled = Vec::new();
        let row = if words <= LANE_WORDS {
            &mut inline[..words]
        } else {
            spilled.resize(words, 0);
            &mut spilled[..]
        };
        resolve_row(&self.columns, request, row).map_err(PushRefusal::MissingInput)?;
        self.push_row(row)
    }

    /// Adds one request given as an **input row** — bit `c % 64` of word
    /// `c / 64` is column `c`'s value, as [`resolve_row`] writes it —
    /// returning the lane it occupies. A row always drives every column,
    /// so the only refusal is [`PushRefusal::Full`]. Costs one OR per set
    /// bit, with no name comparisons.
    ///
    /// # Panics
    ///
    /// If `row` is not [`row_words`]`(columns().len())` words long (a
    /// short row would silently read its missing columns as 0), or sets a
    /// bit at or past `columns().len()`.
    pub fn push_row(&mut self, row: &[u64]) -> Result<usize, PushRefusal> {
        assert_eq!(
            row.len(),
            row_words(self.columns.len()),
            "an input row must span the batch's columns"
        );
        if self.is_full() {
            return Err(PushRefusal::Full);
        }
        let lane = self.lanes;
        let (word, bit) = (lane / 64, 1u64 << (lane % 64));
        for (w, &bits) in row.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                self.chunks[w * 64 + bits.trailing_zeros() as usize][word] |= bit;
                bits &= bits - 1;
            }
        }
        self.lanes += 1;
        Ok(lane)
    }

    /// Empties the batch for reuse, keeping its columns.
    pub fn clear(&mut self) {
        self.lanes = 0;
        self.chunks.fill([0u64; LANE_WORDS]);
    }
}

/// Words in one input row over `columns` columns: `⌈columns / 64⌉`.
#[must_use]
pub fn row_words(columns: usize) -> usize {
    columns.div_ceil(64)
}

/// Resolves one named request into an **input row** over `columns`: bit
/// `c % 64` of word `c / 64` becomes column `c`'s value — the OR of the
/// request's values under that name, exactly what [`LaneBatch::push`]
/// would put in the request's lane. Names that are not columns are
/// ignored. `row` is [`row_words`]`(columns.len())` words long and is
/// overwritten; bits past the last column are left clear.
///
/// A request whose names are the columns in order is written in the same
/// loop that compares them; any other is checked for coverage first, then
/// written by name search. Fails with the first column (in column order)
/// the request leaves undriven — the column
/// [`PushRefusal::MissingInput`] names — and the row's contents are then
/// unspecified.
///
/// Resolve once, push many: a row feeds [`LaneBatch::push_row`] with no
/// name comparisons, so a caller that holds a request before it can be
/// batched pays for its names up front, when it is accepted.
///
/// # Panics
///
/// If `row` is shorter than [`row_words`]`(columns.len())`.
///
/// ```
/// use mcfpga_fabric::compiled::{resolve_row, LaneBatch};
/// use std::sync::Arc;
///
/// let columns: Arc<[Arc<str>]> = Arc::from([Arc::from("x"), Arc::from("y")]);
/// let mut row = [0u64];
/// resolve_row(&columns, &[("y", true), ("x", false), ("extra", true)], &mut row).unwrap();
/// assert_eq!(row[0], 0b10);
/// assert_eq!(resolve_row(&columns, &[("x", true)], &mut row), Err(1));
/// let mut batch = LaneBatch::new(columns);
/// assert_eq!(batch.push_row(&[0b10]), Ok(0));
/// assert_eq!(batch.chunks()[1][0], 1); // y: lane 0 true
/// ```
pub fn resolve_row(
    columns: &[Arc<str>],
    request: &[(&str, bool)],
    row: &mut [u64],
) -> Result<(), usize> {
    row.fill(0);
    let mut matched = 0;
    for ((name, value), col) in request.iter().zip(columns) {
        if **col != **name {
            break;
        }
        row[matched / 64] |= u64::from(*value) << (matched % 64);
        matched += 1;
    }
    if matched == columns.len() && matched == request.len() {
        return Ok(());
    }
    resolve_by_name(columns, request, row)
}

/// [`resolve_row`] for a request whose names do not line up with the
/// columns. Kept out of line so the positional path stays small.
#[inline(never)]
fn resolve_by_name(
    columns: &[Arc<str>],
    request: &[(&str, bool)],
    row: &mut [u64],
) -> Result<(), usize> {
    let undriven = |col: &Arc<str>| !request.iter().any(|(n, _)| *n == &**col);
    if let Some(c) = columns.iter().position(undriven) {
        return Err(c);
    }
    // no need to clear what the positional loop wrote: it set only bits
    // of columns whose own entry is true, which this loop sets again
    for (name, value) in request {
        if *value {
            if let Some(c) = columns.iter().position(|col| **col == **name) {
                row[c / 64] |= 1u64 << (c % 64);
            }
        }
    }
    Ok(())
}

/// Maps `(tile, resource)` coordinates onto the dense arena.
///
/// Per tile the arena holds, in order: `4 × channel_width` outgoing wires
/// (all four directions are allocated even on edges — dead slots cost one
/// unused array cell each and keep the addressing branch-free), the LUT
/// output, `io_in` input ports and `io_out` output ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLayout {
    width: usize,
    height: usize,
    channel_width: usize,
    io_in: usize,
    io_out: usize,
    per_tile: usize,
}

fn dir_index(dir: Dir) -> usize {
    match dir {
        Dir::North => 0,
        Dir::East => 1,
        Dir::South => 2,
        Dir::West => 3,
    }
}

impl ResourceLayout {
    fn new(p: &FabricParams) -> Self {
        ResourceLayout {
            width: p.width,
            height: p.height,
            channel_width: p.channel_width,
            io_in: p.io_in,
            io_out: p.io_out,
            per_tile: 4 * p.channel_width + 1 + p.io_in + p.io_out,
        }
    }

    fn tile_base(&self, t: TileCoord) -> usize {
        (t.y * self.width + t.x) * self.per_tile
    }

    /// Id of the outgoing wire `(t, dir, w)`.
    #[must_use]
    pub fn wire(&self, t: TileCoord, dir: Dir, w: usize) -> ResourceId {
        (self.tile_base(t) + dir_index(dir) * self.channel_width + w) as ResourceId
    }

    /// Id of the LUT output of `t`.
    #[must_use]
    pub fn lut_out(&self, t: TileCoord) -> ResourceId {
        (self.tile_base(t) + 4 * self.channel_width) as ResourceId
    }

    /// Id of external input port `p` of `t`.
    #[must_use]
    pub fn io_in(&self, t: TileCoord, p: usize) -> ResourceId {
        (self.tile_base(t) + 4 * self.channel_width + 1 + p) as ResourceId
    }

    /// Id of external output port `p` of `t`.
    #[must_use]
    pub fn io_out(&self, t: TileCoord, p: usize) -> ResourceId {
        (self.tile_base(t) + 4 * self.channel_width + 1 + self.io_in + p) as ResourceId
    }

    /// Total arena size.
    #[must_use]
    pub fn total(&self) -> usize {
        self.width * self.height * self.per_tile
    }
}

/// One evaluation step of a compiled plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Drive `dst` from `src` (a configured switch-block cross-point
    /// feeding a channel wire or IO output).
    Copy {
        /// Source resource.
        src: ResourceId,
        /// Destination resource.
        dst: ResourceId,
    },
    /// Evaluate one tile's LUT plane into its output resource.
    Lut {
        /// Per-pin source resources; `None` = pin unconfigured (reads 0).
        pins: [Option<ResourceId>; MultiContextLut::MAX_K],
        /// Number of LUT inputs (`k` of the fabric).
        k: u8,
        /// Truth table of this context's plane.
        table: u64,
        /// The LUT-output resource.
        dst: ResourceId,
    },
}

impl Op {
    fn dst(&self) -> ResourceId {
        match *self {
            Op::Copy { dst, .. } | Op::Lut { dst, .. } => dst,
        }
    }

    fn for_each_src(&self, mut f: impl FnMut(ResourceId)) {
        match self {
            Op::Copy { src, .. } => f(*src),
            Op::Lut { pins, k, .. } => {
                for pin in pins.iter().take(*k as usize).flatten() {
                    f(*pin);
                }
            }
        }
    }
}

/// One context's compiled configuration plane.
#[derive(Debug, Clone)]
pub struct CompiledPlane {
    /// Ops in topological order; on a cyclic plane the ops on or past a
    /// cycle follow, in tile order.
    ops: Vec<Op>,
    /// True when the configured routing contains a combinational cycle,
    /// whose ops (and every op past them) never resolve.
    cyclic: bool,
    /// Depth of the levelized DAG (longest op chain; 0 for empty and for
    /// cyclic planes).
    levels: usize,
    /// `(io_in resource, signal name)` for this context's bound inputs.
    inputs: Vec<(ResourceId, String)>,
    /// `(io_out resource, signal name)` for this context's bound outputs.
    outputs: Vec<(ResourceId, String)>,
    /// Branch-free straight-line program of the serving path.
    kernel: PlaneKernel,
}

impl CompiledPlane {
    /// Compiled ops, in evaluation order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Does the configured routing contain a combinational cycle?
    #[must_use]
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// Longest producer→consumer chain after levelization.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Input bindings `(resource, name)`.
    #[must_use]
    pub fn input_binds(&self) -> &[(ResourceId, String)] {
        &self.inputs
    }

    /// Output bindings `(resource, name)`.
    #[must_use]
    pub fn output_binds(&self) -> &[(ResourceId, String)] {
        &self.outputs
    }

    /// A plane with no ops and no binds: the uncompiled contexts of a
    /// single-context compilation.
    fn empty() -> Self {
        CompiledPlane {
            ops: Vec::new(),
            cyclic: false,
            levels: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            kernel: CompiledFabric::build_kernel(&[], &[], &[], 0),
        }
    }
}

/// One LUT of a [`PlaneKernel`]'s straight-line program. Unlike
/// [`Op::Lut`], every pin is the plane slot its routed source resolves to
/// — an unconfigured pin reads slot 0, which is always zero — so
/// execution needs no `Option` dispatch and no `known`-bitmap branching.
#[derive(Debug, Clone)]
struct KernelLut {
    pins: [u32; MultiContextLut::MAX_K],
    k: u8,
    table: u64,
}

/// The compiled straight-line program of one plane: the LUTs reachable
/// from the bound inputs (exactly the ones the branchy interpreter ever
/// resolves, cyclic planes included), in topological order, over a dense
/// **value array** of plane slots — slot 0 the always-zero pin, then one
/// slot per bound input in bind order, then one per LUT in program order.
///
/// A routed copy needs no op: its destination carries its source's
/// value, so every wire and output port resolves at compile time to the
/// slot it aliases. To keep [`EvalStats`] counting the compiled plane,
/// each slot carries a **weight**: the copies elided into an alias of it,
/// plus one for a LUT.
#[derive(Debug, Clone)]
struct PlaneKernel {
    /// Process-wide identity of this program, taken at compile time; a
    /// clone keeps it, as it runs the same program over the same slots.
    id: u64,
    /// LUT `j` writes slot `lut_base + j`.
    luts: Vec<KernelLut>,
    /// `cones[j]`: bit `b` set ⇔ LUT `j`'s value depends on bound input
    /// `b`. All-ones when the plane binds more than 64 inputs (cone
    /// tracking disabled, every sweep is a full sweep).
    cones: Vec<u64>,
    /// The first LUT slot: 1 + the bound input count.
    lut_base: usize,
    /// Ops each slot stands for, per slot.
    weights: Vec<u32>,
    /// The slot of each bound output, in bind order (slot 0 for an
    /// unreachable one).
    outputs: Vec<u32>,
    /// The first bound output, in bind order, that no bound input
    /// reaches: every pass of the plane fails on it.
    unresolved: Option<usize>,
    /// Sum of `weights`: the reachable ops of the compiled plane.
    ops_total: u64,
}

impl PlaneKernel {
    /// Length of the value array.
    fn slots(&self) -> usize {
        self.lut_base + self.luts.len()
    }
}

/// A context's IO names resolved to dense resource ids once, at tenant
/// admission, so steady-state sweeps index arrays instead of scanning
/// name lists and clone `Arc<str>`s instead of `String`s.
///
/// Entries keep the plane's bind order — output order is exactly the
/// response order of the name-keyed evaluation APIs. The `bool` marks
/// stream registers ([`REG_PREFIX`]).
#[derive(Debug, Clone)]
pub struct BoundPlan {
    ctx: usize,
    inputs: Vec<(ResourceId, Arc<str>, bool)>,
    outputs: Vec<(ResourceId, Arc<str>, bool)>,
}

impl BoundPlan {
    /// The context this plan binds.
    #[must_use]
    pub fn ctx(&self) -> usize {
        self.ctx
    }

    /// Bound inputs `(resource, interned name, is stream register)`, in
    /// plane bind order.
    #[must_use]
    pub fn inputs(&self) -> &[(ResourceId, Arc<str>, bool)] {
        &self.inputs
    }

    /// Bound outputs `(resource, interned name, is stream register)`, in
    /// plane bind order.
    #[must_use]
    pub fn outputs(&self) -> &[(ResourceId, Arc<str>, bool)] {
        &self.outputs
    }

    /// The plan's **input columns**: its distinct non-register input
    /// names, in bind order — what a request must drive. Stream registers
    /// are fed by their owner between passes, never by requests.
    #[must_use]
    pub fn input_columns(&self) -> Arc<[Arc<str>]> {
        let mut columns: Vec<Arc<str>> = Vec::new();
        for (_, name, is_reg) in &self.inputs {
            if !is_reg && !columns.contains(name) {
                columns.push(Arc::clone(name));
            }
        }
        columns.into()
    }
}

/// Deterministic accounting of one [`CompiledFabric::eval_bound_into`]
/// pass: pure counts of compiled ops, so totals are bit-identical at any
/// thread count and lane width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Ops of the compiled plane the pass stands for: the ops reachable
    /// from the bound inputs (its LUTs plus the routed copies resolved
    /// at compile time). A reference-interpreter pass counts every op of
    /// the plane.
    pub ops_total: u64,
    /// Ops skipped because no bound input in their cone changed.
    pub ops_skipped: u64,
}

/// Caller-owned evaluation scratch, reusable across passes.
///
/// A kernel pass ([`CompiledFabric::eval_bound_into`]) keeps only its
/// plane's **value array** — one [`LaneChunk`] per bound input and per
/// LUT — with the raw input chunks it swept and a stamp of the kernel
/// and word count it ran: the dirty-cone path reuses that sweep when the
/// next pass runs the same kernel at the same width. An interpreter pass
/// ([`CompiledFabric::eval_bound_reference`],
/// [`CompiledFabric::eval_batch_into`]) fills a **resource arena** with
/// every routing resource's value, allocated on its first use; a kernel
/// pass drops it again.
///
/// The single-word accessors ([`wire`](Self::wire),
/// [`lut_out`](Self::lut_out), [`io_out`](Self::io_out)) read word 0 —
/// the legacy 64-lane view — of the last interpreter sweep: lane `l` is
/// the resource's value in input vector `l`. They return `None` for a
/// resource that sweep left unresolved, and for every resource when the
/// last pass was a kernel pass or there was none. Known-ness is
/// per-resource, not per-lane: whether a resource resolves depends only
/// on the configuration and which inputs are driven, never on input
/// values.
#[derive(Debug, Clone, Default)]
pub struct CompiledState {
    /// The kernel's value array; emptied by an interpreter pass.
    slots: Vec<LaneChunk>,
    /// The raw input chunks of the sweep `slots` holds, unmasked, as the
    /// caller passed them.
    inputs: Vec<LaneChunk>,
    /// `(kernel id, words)` of the completed sweep `slots` holds; `None`
    /// when it holds none (fresh, after an interpreter pass or a failed
    /// pass).
    swept: Option<(u64, usize)>,
    /// The interpreter's resource arena, if its sweep is the last one.
    arena: Option<Arena>,
}

/// Every routing resource's value and known flag after an interpreter
/// sweep, indexed by [`ResourceId`].
#[derive(Debug, Clone)]
struct Arena {
    layout: ResourceLayout,
    values: Vec<LaneChunk>,
    known: Vec<bool>,
}

impl Arena {
    fn read_chunk(&self, id: ResourceId) -> Option<LaneChunk> {
        let id = id as usize;
        self.known.get(id)?.then(|| self.values[id])
    }
}

impl CompiledState {
    /// The interpreter's arena for `layout`, every resource marked
    /// unknown, allocated on first use. Drops the kernel's sweep.
    /// Stale values behind a cleared `known` flag are unobservable (every
    /// read is gated on it), so only the flag array needs zeroing.
    fn fresh_arena(&mut self, layout: ResourceLayout) -> &mut Arena {
        self.slots.clear();
        self.inputs.clear();
        self.swept = None;
        if self.arena.as_ref().is_some_and(|a| a.layout != layout) {
            self.arena = None;
        }
        let arena = self.arena.get_or_insert_with(|| Arena {
            layout,
            values: vec![[0u64; LANE_WORDS]; layout.total()],
            known: vec![false; layout.total()],
        });
        arena.known.fill(false);
        arena
    }

    /// Word 0 of the resource `id` picks out of the last interpreter
    /// sweep, if it resolved.
    fn read(&self, id: impl FnOnce(&ResourceLayout) -> ResourceId) -> Option<u64> {
        let arena = self.arena.as_ref()?;
        arena.read_chunk(id(&arena.layout)).map(|c| c[0])
    }

    /// Word-0 lanes on output wire `(tile, dir, w)`, if resolved.
    #[must_use]
    pub fn wire(&self, tile: TileCoord, dir: Dir, w: usize) -> Option<u64> {
        self.read(|l| l.wire(tile, dir, w))
    }

    /// Word-0 LUT output lanes of `tile`, if resolved.
    #[must_use]
    pub fn lut_out(&self, tile: TileCoord) -> Option<u64> {
        self.read(|l| l.lut_out(tile))
    }

    /// Word-0 external output port lanes, if resolved.
    #[must_use]
    pub fn io_out(&self, tile: TileCoord, port: usize) -> Option<u64> {
        self.read(|l| l.io_out(tile, port))
    }

    /// Bytes of lane values and flags this state holds: the kernel's
    /// value array and raw input chunks, plus the interpreter's arena, if
    /// allocated.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        let chunk = std::mem::size_of::<LaneChunk>();
        let arena = self
            .arena
            .as_ref()
            .map_or(0, |a| a.values.len() * chunk + a.known.len());
        (self.slots.len() + self.inputs.len()) * chunk + arena
    }
}

/// Lane-wise LUT evaluation: mux-reduce the truth table over the pin lanes.
///
/// `acc` starts as the 2^k truth-table rows broadcast to all lanes; each
/// pin folds the table in half, selecting between the pin=0 and pin=1
/// halves per lane. `2^k − 1` select steps evaluate all 64 lanes at once.
#[inline]
fn lut_lanes(table: u64, pins: &[u64]) -> u64 {
    let mut acc = [0u64; 1 << MultiContextLut::MAX_K];
    let rows = 1usize << pins.len();
    for (r, slot) in acc.iter_mut().enumerate().take(rows) {
        *slot = if (table >> r) & 1 == 1 { !0u64 } else { 0 };
    }
    let mut len = rows;
    for &p in pins {
        len /= 2;
        for j in 0..len {
            acc[j] = (acc[2 * j] & !p) | (acc[2 * j + 1] & p);
        }
    }
    acc[0]
}

/// [`lut_lanes`] monomorphized to an exact row count (`ROWS = 2^k`): the
/// accumulator is exactly sized (no 64-entry scratch to initialize for a
/// 2-pin mux) and the fold loops fully unroll. The straight-line kernel
/// dispatches to this per LUT word ([`lut_chunk`]); `debug_assert` keeps
/// the pin count honest.
#[inline]
fn mux_reduce<const ROWS: usize>(table: u64, pins: &[u64]) -> u64 {
    debug_assert_eq!(ROWS, 1usize << pins.len());
    let mut acc = [0u64; ROWS];
    for (r, slot) in acc.iter_mut().enumerate() {
        *slot = if (table >> r) & 1 == 1 { !0u64 } else { 0 };
    }
    let mut len = ROWS;
    for &p in pins {
        len /= 2;
        for j in 0..len {
            acc[j] = (acc[2 * j] & !p) | (acc[2 * j + 1] & p);
        }
    }
    acc[0]
}

/// [`lut_words`], out of line.
#[inline(never)]
fn lut_chunk<const W: usize>(
    table: u64,
    pins: &[u32; MultiContextLut::MAX_K],
    k: u8,
    values: &[LaneChunk],
) -> LaneChunk {
    lut_words::<W>(table, pins, k, values)
}

/// One kernel LUT over the first `W` words of its first `k` pin chunks
/// (slots of the value array `values`), as a chunk that is zero past word `W`:
/// per word, [`mux_reduce`] monomorphized to the pin count.
#[inline(always)]
fn lut_words<const W: usize>(
    table: u64,
    pins: &[u32; MultiContextLut::MAX_K],
    k: u8,
    values: &[LaneChunk],
) -> LaneChunk {
    let k = k as usize;
    let mut out = [0u64; LANE_WORDS];
    for (w, slot) in out.iter_mut().enumerate().take(W) {
        let mut lanes = [0u64; MultiContextLut::MAX_K];
        for (lane, pin) in lanes.iter_mut().zip(pins).take(k) {
            *lane = values[*pin as usize][w];
        }
        *slot = match k {
            1 => mux_reduce::<2>(table, &lanes[..1]),
            2 => mux_reduce::<4>(table, &lanes[..2]),
            3 => mux_reduce::<8>(table, &lanes[..3]),
            4 => mux_reduce::<16>(table, &lanes[..4]),
            5 => mux_reduce::<32>(table, &lanes[..5]),
            _ => mux_reduce::<64>(table, &lanes[..6]),
        };
    }
    out
}

/// A fabric flattened, levelized and ready for bit-parallel evaluation.
#[derive(Debug, Clone)]
pub struct CompiledFabric {
    params: FabricParams,
    layout: ResourceLayout,
    planes: Vec<CompiledPlane>,
    /// `Some(ctx)` when only one context was compiled
    /// ([`Self::compile_context`]); other contexts then refuse to evaluate
    /// instead of silently returning empty results.
    only_ctx: Option<usize>,
}

impl CompiledFabric {
    /// Compiles every context plane of `fabric`.
    pub fn compile(fabric: &Fabric) -> Result<Self, FabricError> {
        let params = *fabric.params();
        let layout = ResourceLayout::new(&params);
        let mut planes = Vec::with_capacity(params.contexts);
        for ctx in 0..params.contexts {
            planes.push(Self::compile_plane(fabric, &layout, ctx)?);
        }
        Ok(CompiledFabric {
            params,
            layout,
            planes,
            only_ctx: None,
        })
    }

    /// Compiles only the plane of `ctx`, leaving the other contexts empty.
    ///
    /// Single-context callers (like [`crate::sim::evaluate_sorted`]) skip
    /// the O(contexts) compile cost of the unused planes.
    /// Accessing any context other than `ctx` on the result errors with
    /// [`FabricError::ContextNotCompiled`].
    pub fn compile_context(fabric: &Fabric, ctx: usize) -> Result<Self, FabricError> {
        let params = *fabric.params();
        if ctx >= params.contexts {
            return Err(FabricError::ContextOutOfRange {
                ctx,
                contexts: params.contexts,
            });
        }
        let layout = ResourceLayout::new(&params);
        let mut planes = vec![CompiledPlane::empty(); params.contexts];
        planes[ctx] = Self::compile_plane(fabric, &layout, ctx)?;
        Ok(CompiledFabric {
            params,
            layout,
            planes,
            only_ctx: Some(ctx),
        })
    }

    fn resolve_source(
        fabric: &Fabric,
        layout: &ResourceLayout,
        t: TileCoord,
        src: Source,
    ) -> Option<ResourceId> {
        match src {
            Source::WireFrom { dir, w } => {
                // the neighbour's wire pointing back toward `t`
                let n = fabric.neighbor(t, dir)?;
                Some(layout.wire(n, dir.opposite(), w))
            }
            Source::LutOut => Some(layout.lut_out(t)),
            Source::IoIn(p) => Some(layout.io_in(t, p)),
        }
    }

    fn compile_plane(
        fabric: &Fabric,
        layout: &ResourceLayout,
        ctx: usize,
    ) -> Result<CompiledPlane, FabricError> {
        let params = fabric.params();
        let mut ops: Vec<Op> = Vec::new();
        for t in fabric.tiles() {
            let tc = fabric.tile(t)?;
            let sources = fabric.sources(t);
            let mut pins = [None; MultiContextLut::MAX_K];
            let mut any_pin = false;
            for (sink_idx, sink) in fabric.sinks(t).into_iter().enumerate() {
                let Some(src_idx) = tc.sb[ctx][sink_idx] else {
                    continue;
                };
                let src = Self::resolve_source(fabric, layout, t, sources[src_idx as usize])
                    .ok_or(FabricError::BadTile { x: t.x, y: t.y })?;
                match sink {
                    Sink::WireTo { dir, w } => ops.push(Op::Copy {
                        src,
                        dst: layout.wire(t, dir, w),
                    }),
                    Sink::IoOut(port) => ops.push(Op::Copy {
                        src,
                        dst: layout.io_out(t, port),
                    }),
                    Sink::LutIn(pin) => {
                        pins[pin] = Some(src);
                        any_pin = true;
                    }
                }
            }
            if any_pin {
                ops.push(Op::Lut {
                    pins,
                    k: params.lut_k as u8,
                    table: tc.lut.table(ctx)?,
                    dst: layout.lut_out(t),
                });
            }
        }

        let (ops, cyclic, levels) = Self::levelize(ops, layout.total());

        let inputs: Vec<(ResourceId, String)> = fabric
            .input_binds()
            .iter()
            .filter(|(_, _, c, _)| *c == ctx)
            .map(|(t, p, _, name)| (layout.io_in(*t, *p), name.clone()))
            .collect();
        let outputs: Vec<(ResourceId, String)> = fabric
            .output_binds()
            .iter()
            .filter(|(_, _, c, _)| *c == ctx)
            .map(|(t, p, _, name)| (layout.io_out(*t, *p), name.clone()))
            .collect();

        let kernel = Self::build_kernel(&ops, &inputs, &outputs, layout.total());
        Ok(CompiledPlane {
            ops,
            cyclic,
            levels,
            inputs,
            outputs,
            kernel,
        })
    }

    /// Compiles the straight-line kernel of a levelized op list
    /// ([`Self::levelize`]) over `resources` routing resources: a single
    /// forward pass keeps exactly the ops the interpreter's unknown
    /// propagation ever runs (those whose configured sources are all
    /// reachable from the bound inputs — never an op on or past a cycle,
    /// as one of its sources is produced later in the list or not at
    /// all), resolves every kept copy into an alias of its source's slot,
    /// numbers the kept LUTs' slots and accumulates each LUT's input-cone
    /// mask. The first unreachable bound output is recorded: a pass of
    /// the plane fails on it with the interpreter's exact error.
    fn build_kernel(
        ops: &[Op],
        inputs: &[(ResourceId, String)],
        outputs: &[(ResourceId, String)],
        resources: usize,
    ) -> PlaneKernel {
        let lut_base = 1 + inputs.len();
        // slot[r] = the plane slot whose value resource r carries, if r
        // is reachable; bound inputs own slots 1.. (binds are unique per
        // port, so no two share a resource)
        let mut slot: Vec<Option<u32>> = vec![None; resources];
        for (i, (id, _)) in inputs.iter().enumerate() {
            slot[*id as usize] = Some(1 + i as u32);
        }
        let wide = inputs.len() > 64;
        let mut weights = vec![0u32; lut_base];
        let mut luts = Vec::new();
        let mut cones: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Copy { src, dst } => {
                    let Some(s) = slot[*src as usize] else {
                        continue;
                    };
                    slot[*dst as usize] = Some(s);
                    weights[s as usize] += 1;
                }
                Op::Lut {
                    pins,
                    k,
                    table,
                    dst,
                } => {
                    // unconfigured pins read the always-zero slot 0 and
                    // impose no reachability requirement (run_op parity)
                    let mut cone = 0u64;
                    let mut resolved = [0u32; MultiContextLut::MAX_K];
                    let mut runnable = true;
                    for (i, pin) in pins.iter().take(*k as usize).enumerate() {
                        let Some(src) = pin else {
                            continue;
                        };
                        let Some(s) = slot[*src as usize] else {
                            runnable = false;
                            break;
                        };
                        let s = s as usize;
                        cone |= match s.checked_sub(lut_base) {
                            Some(j) => cones[j],
                            None if wide => DIRTY_ALL,
                            None => 1u64 << (s - 1),
                        };
                        resolved[i] = s as u32;
                    }
                    if !runnable {
                        continue;
                    }
                    slot[*dst as usize] = Some(weights.len() as u32);
                    weights.push(1);
                    cones.push(cone);
                    luts.push(KernelLut {
                        pins: resolved,
                        k: *k,
                        table: *table,
                    });
                }
            }
        }
        let mut unresolved = None;
        let outputs = outputs
            .iter()
            .enumerate()
            .map(|(i, (id, _))| {
                slot[*id as usize].unwrap_or_else(|| {
                    unresolved.get_or_insert(i);
                    0
                })
            })
            .collect();
        PlaneKernel {
            id: NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed),
            luts,
            cones,
            lut_base,
            ops_total: weights.iter().map(|&w| u64::from(w)).sum(),
            weights,
            outputs,
            unresolved,
        }
    }

    /// Kahn topological sort of `ops` by data dependency. Returns the
    /// sorted ops, whether the routing holds a combinational cycle, and
    /// the DAG depth (0 when cyclic). The ops on or past a cycle, which
    /// Kahn's order never reaches, follow the sorted ones in tile order.
    /// Every resource has at most one producer op (each sink stores
    /// one source per context), so the dependency graph is exactly
    /// producer→consumer between ops.
    fn levelize(ops: Vec<Op>, total_resources: usize) -> (Vec<Op>, bool, usize) {
        let mut producer: Vec<Option<usize>> = vec![None; total_resources];
        for (i, op) in ops.iter().enumerate() {
            producer[op.dst() as usize] = Some(i);
        }
        let mut indegree = vec![0usize; ops.len()];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
        for (i, op) in ops.iter().enumerate() {
            op.for_each_src(|src| {
                if let Some(p) = producer[src as usize] {
                    consumers[p].push(i);
                    indegree[i] += 1;
                }
            });
        }
        let mut queue: Vec<usize> = (0..ops.len()).filter(|&i| indegree[i] == 0).collect();
        let mut level = vec![0usize; ops.len()];
        let mut order = Vec::with_capacity(ops.len());
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            order.push(i);
            for &c in &consumers[i] {
                indegree[c] -= 1;
                level[c] = level[c].max(level[i] + 1);
                if indegree[c] == 0 {
                    queue.push(c);
                }
            }
        }
        let cyclic = order.len() < ops.len();
        let depth = if cyclic {
            // an op left with inputs pending sits on or past a cycle
            order.extend((0..ops.len()).filter(|&i| indegree[i] > 0));
            0
        } else {
            order.iter().map(|&i| level[i] + 1).max().unwrap_or(0)
        };
        let sorted = order.iter().map(|&i| ops[i].clone()).collect();
        (sorted, cyclic, depth)
    }

    /// Fabric parameters the compilation captured.
    #[must_use]
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// The single context a partial compilation
    /// ([`Self::compile_context`]) captured, or `None` for a full
    /// [`Self::compile`].
    #[must_use]
    pub fn compiled_context(&self) -> Option<usize> {
        self.only_ctx
    }

    /// The resource arena layout.
    #[must_use]
    pub fn layout(&self) -> &ResourceLayout {
        &self.layout
    }

    /// The compiled plane of `ctx`.
    pub fn plane(&self, ctx: usize) -> Result<&CompiledPlane, FabricError> {
        if let Some(compiled) = self.only_ctx {
            if ctx != compiled {
                return Err(FabricError::ContextNotCompiled { ctx, compiled });
            }
        }
        self.planes.get(ctx).ok_or(FabricError::ContextOutOfRange {
            ctx,
            contexts: self.params.contexts,
        })
    }

    /// An empty evaluation state, reusable across passes of any plane: a
    /// kernel pass sizes its value array on first use, an interpreter
    /// pass allocates its resource arena on first use.
    #[must_use]
    pub fn new_state(&self) -> CompiledState {
        CompiledState::default()
    }

    /// Evaluates context `ctx` on up to [`LANES`] input vectors keyed by
    /// signal name — the one name-keyed adapter over
    /// [`Self::eval_bound_reference`]: bind, resolve the names into bound
    /// order, run one single-word interpreter sweep.
    ///
    /// Bit `l` of each input's `u64` is that signal's value in vector `l`;
    /// outputs use the same lane packing, in the plane's bind order.
    /// Unknown-propagation semantics are identical to
    /// [`crate::sim::evaluate_fixpoint`]: every bound input of the context
    /// must be supplied, and every bound output must resolve. `st` is
    /// caller-owned scratch; afterwards it holds the whole sweep, every
    /// resolved resource readable through its accessors.
    pub fn eval_batch_into(
        &self,
        ctx: usize,
        inputs: &[(&str, u64)],
        st: &mut CompiledState,
    ) -> Result<Vec<(String, u64)>, FabricError> {
        let bound = self.bind(ctx)?;
        let chunks = bound
            .inputs
            .iter()
            .map(|(_, name, _)| {
                inputs
                    .iter()
                    .find(|(n, _)| *n == &**name)
                    .map(|(_, v)| chunk_of_word(*v))
                    .ok_or_else(|| FabricError::Unresolved(format!("input '{name}' not driven")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut outs = Vec::with_capacity(bound.outputs.len());
        self.eval_bound_reference(&bound, &chunks, 1, st, &mut outs)?;
        Ok(bound
            .outputs
            .iter()
            .zip(outs)
            .map(|((_, name, _), chunk)| (name.to_string(), chunk[0]))
            .collect())
    }

    /// Resolves context `ctx`'s IO names to a reusable [`BoundPlan`] —
    /// the admission-time half of the execution core. Errors exactly like
    /// [`Self::plane`] for uncompiled contexts.
    pub fn bind(&self, ctx: usize) -> Result<BoundPlan, FabricError> {
        let plane = self.plane(ctx)?;
        let intern = |(id, name): &(ResourceId, String)| {
            (*id, Arc::from(name.as_str()), name.starts_with(REG_PREFIX))
        };
        Ok(BoundPlan {
            ctx,
            inputs: plane.inputs.iter().map(intern).collect(),
            outputs: plane.outputs.iter().map(intern).collect(),
        })
    }

    /// Evaluates a prebound plan on up to [`MAX_LANES`] input vectors:
    /// `chunks` parallel to [`BoundPlan::inputs`], outputs pushed into
    /// `outs` parallel to [`BoundPlan::outputs`] — no name resolution, no
    /// `String` clones. Lane `l` of each [`LaneChunk`] is that signal's
    /// value in vector `l`.
    ///
    /// `words` is the number of 64-lane words actually occupied
    /// ([`LaneBatch::words`], clamped to `1..=LANE_WORDS`): words past it
    /// come back zero, even when an input chunk carries stray bits there.
    ///
    /// The pass runs the plane's straight-line kernel. When `st` holds a
    /// completed sweep of this same kernel at the same `words` and the
    /// plane binds at most 64 inputs, only the LUTs whose input cone
    /// holds an input whose raw chunk changed since that sweep run; the
    /// others keep their values — observationally equivalent to a full
    /// sweep. Any other state (fresh, another plane's, another width's,
    /// an interpreter pass's or a failed pass's) is swept in full. A
    /// plane with a bound output no bound input reaches — such as one
    /// past a combinational cycle, whose ops never resolve — fails with
    /// the interpreter's exact error.
    pub fn eval_bound_into(
        &self,
        bound: &BoundPlan,
        chunks: &[LaneChunk],
        words: usize,
        st: &mut CompiledState,
        outs: &mut Vec<LaneChunk>,
    ) -> Result<EvalStats, FabricError> {
        // a failed pass leaves no sweep to reuse
        let swept = st.swept.take();
        let plane = self.bound_plane(bound, chunks)?;
        let kernel = &plane.kernel;
        if let Some(i) = kernel.unresolved {
            let name = &plane.outputs[i].1;
            return Err(FabricError::Unresolved(format!(
                "output '{name}' unresolved"
            )));
        }
        let words = words.clamp(1, LANE_WORDS);
        let stamp = (kernel.id, words);
        st.arena = None;
        outs.clear();
        let CompiledState { slots, inputs, .. } = st;
        let run = if swept == Some(stamp) && chunks.len() <= 64 {
            // the dirty mask addresses every input of such a plane
            let mut dirty = 0u64;
            for (i, (held, chunk)) in inputs.iter_mut().zip(chunks).enumerate() {
                if held != chunk {
                    *held = *chunk;
                    slots[1 + i] = masked(chunk, words);
                    dirty |= 1 << i;
                }
            }
            if dirty == 0 {
                0
            } else {
                Self::kernel_run(kernel, words, dirty, slots)
            }
        } else {
            // nothing is ever written to slot 0, so it reads zero
            // whatever the array held before
            slots.resize(kernel.slots(), [0u64; LANE_WORDS]);
            inputs.clear();
            inputs.extend_from_slice(chunks);
            for (slot, chunk) in slots[1..].iter_mut().zip(chunks) {
                *slot = masked(chunk, words);
            }
            Self::kernel_run(kernel, words, DIRTY_ALL, slots)
        };
        outs.extend(kernel.outputs.iter().map(|&s| slots[s as usize]));
        st.swept = Some(stamp);
        Ok(EvalStats {
            ops_total: kernel.ops_total,
            ops_skipped: kernel.ops_total - run,
        })
    }

    /// [`Self::eval_bound_into`] through the branchy reference
    /// interpreter, unconditionally, with the same bound-order inputs and
    /// outputs and always a full sweep over every routing resource. It is
    /// the equivalence oracle for the kernel path (property tests, the
    /// `eval_kernel` bench) and the executable statement of the semantics
    /// the kernel must reproduce.
    pub fn eval_bound_reference(
        &self,
        bound: &BoundPlan,
        chunks: &[LaneChunk],
        words: usize,
        st: &mut CompiledState,
        outs: &mut Vec<LaneChunk>,
    ) -> Result<EvalStats, FabricError> {
        let plane = self.bound_plane(bound, chunks)?;
        let words = words.clamp(1, LANE_WORDS);
        let arena = st.fresh_arena(self.layout);
        outs.clear();
        for ((id, _, _), chunk) in bound.inputs.iter().zip(chunks) {
            arena.values[*id as usize] = masked(chunk, words);
            arena.known[*id as usize] = true;
        }
        Self::run_interpreter(plane, words, arena);
        for (id, name, _) in &bound.outputs {
            let v = arena
                .read_chunk(*id)
                .ok_or_else(|| FabricError::Unresolved(format!("output '{name}' unresolved")))?;
            outs.push(v);
        }
        Ok(EvalStats {
            ops_total: plane.ops.len() as u64,
            ops_skipped: 0,
        })
    }

    /// The plane a [`BoundPlan`] evaluates, after checking that `chunks`
    /// is parallel to its inputs.
    fn bound_plane(
        &self,
        bound: &BoundPlan,
        chunks: &[LaneChunk],
    ) -> Result<&CompiledPlane, FabricError> {
        let plane = self.plane(bound.ctx)?;
        if chunks.len() != bound.inputs.len() {
            return Err(FabricError::BadParams(format!(
                "{} input chunks for {} bound inputs",
                chunks.len(),
                bound.inputs.len()
            )));
        }
        Ok(plane)
    }

    /// One full interpreter sweep over a seeded arena: the monotone
    /// fixpoint loop for cyclic planes (each productive pass resolves ≥1
    /// resource, so `ops.len() + 1` passes suffice), a single in-order
    /// pass otherwise.
    fn run_interpreter(plane: &CompiledPlane, words: usize, arena: &mut Arena) {
        if plane.cyclic {
            for _ in 0..=plane.ops.len() {
                let mut changed = false;
                for op in &plane.ops {
                    changed |= Self::run_op(op, words, arena);
                }
                if !changed {
                    break;
                }
            }
        } else {
            for op in &plane.ops {
                Self::run_op(op, words, arena);
            }
        }
    }

    /// Runs a kernel sweep at `words` occupied lane words over a seeded
    /// value array: every LUT when `dirty` is [`DIRTY_ALL`], else only the
    /// LUTs whose input cone intersects `dirty`, reusing every other
    /// LUT's value from the previous sweep held in `slots`. Returns the
    /// number of compiled ops the sweep stands for: the weights of the
    /// LUTs it ran and of the dirty inputs.
    ///
    /// The word count is dispatched once per sweep, not once per LUT: each
    /// arm is a copy of [`Self::kernel_run_words`] monomorphised to its
    /// width, so the full-width sweep keeps its fixed-trip, unrolled
    /// inner loops and a one-word sweep computes a quarter of the LUT
    /// words.
    fn kernel_run(kernel: &PlaneKernel, words: usize, dirty: u64, slots: &mut [LaneChunk]) -> u64 {
        debug_assert!((1..=LANE_WORDS).contains(&words), "words {words} unclamped");
        match words {
            1 => Self::kernel_run_words::<1>(kernel, dirty, slots),
            2 => Self::kernel_run_words::<2>(kernel, dirty, slots),
            3 => Self::kernel_run_words::<3>(kernel, dirty, slots),
            _ => Self::kernel_run_words::<LANE_WORDS>(kernel, dirty, slots),
        }
    }

    /// [`Self::kernel_run`] at a compile-time word count `W`. The LUTs
    /// run in topological order, so every pin's slot is fully written
    /// before it is read and no `known` checks are needed.
    ///
    /// Every slot is zero past word `W` by construction: an input is
    /// seeded masked, and a LUT computes `W` words into a zero-initialised
    /// chunk ([`lut_words`]) whatever its slot held before. So no LUT pays
    /// a separate zeroing pass over the high words.
    fn kernel_run_words<const W: usize>(
        kernel: &PlaneKernel,
        dirty: u64,
        slots: &mut [LaneChunk],
    ) -> u64 {
        let base = kernel.lut_base;
        if dirty == DIRTY_ALL {
            for (j, lut) in kernel.luts.iter().enumerate() {
                slots[base + j] = Self::lut_slot::<W>(lut, slots);
            }
            return kernel.ops_total;
        }
        // a dirty input's elided copies count as run; the plane binds at
        // most 64 inputs here, or the sweep would be a full one
        let mut run: u64 = kernel.weights[1..base]
            .iter()
            .enumerate()
            .filter(|(i, _)| dirty >> i & 1 == 1)
            .map(|(_, &w)| u64::from(w))
            .sum();
        for (j, (lut, cone)) in kernel.luts.iter().zip(&kernel.cones).enumerate() {
            if cone & dirty != 0 {
                slots[base + j] = Self::lut_slot::<W>(lut, slots);
                run += u64::from(kernel.weights[base + j]);
            }
        }
        run
    }

    /// One kernel LUT over the first `W` words of its pins' slots,
    /// branch-free on `known` and `Option`-free on pins.
    #[inline(always)]
    fn lut_slot<const W: usize>(lut: &KernelLut, slots: &[LaneChunk]) -> LaneChunk {
        // a one-word LUT is small enough to inline; wider ones stay out
        // of line, keeping the sweep loop small
        if W == 1 {
            lut_words::<W>(lut.table, &lut.pins, lut.k, slots)
        } else {
            lut_chunk::<W>(lut.table, &lut.pins, lut.k, slots)
        }
    }

    /// Runs one op on the first `words` lane words; returns true when
    /// `dst` transitioned unknown→known.
    #[inline]
    fn run_op(op: &Op, words: usize, arena: &mut Arena) -> bool {
        let Arena { values, known, .. } = arena;
        match op {
            Op::Copy { src, dst } => {
                if known[*dst as usize] || !known[*src as usize] {
                    return false;
                }
                values[*dst as usize] = values[*src as usize];
                known[*dst as usize] = true;
                true
            }
            Op::Lut {
                pins,
                k,
                table,
                dst,
            } => {
                if known[*dst as usize] {
                    return false;
                }
                let mut pin_ids = [None; MultiContextLut::MAX_K];
                for (i, pin) in pins.iter().take(*k as usize).enumerate() {
                    if let Some(src) = pin {
                        if !known[*src as usize] {
                            return false;
                        }
                        pin_ids[i] = Some(*src as usize);
                    }
                }
                let mut out = [0u64; LANE_WORDS];
                for (w, slot) in out.iter_mut().enumerate().take(words) {
                    let mut lanes = [0u64; MultiContextLut::MAX_K];
                    for (i, id) in pin_ids.iter().take(*k as usize).enumerate() {
                        if let Some(id) = id {
                            lanes[i] = values[*id][w];
                        }
                    }
                    *slot = lut_lanes(*table, &lanes[..*k as usize]);
                }
                values[*dst as usize] = out;
                known[*dst as usize] = true;
                true
            }
        }
    }
}

/// `chunk` with the lanes past the occupied `words` zeroed — the
/// invariant that every value is zero beyond `words`, so outputs (and
/// harvested stream registers) never carry stale or stray high-word bits.
/// Masked, not zeroed word by word, so the chunk goes out in full-width
/// stores.
#[inline]
fn masked(chunk: &LaneChunk, words: usize) -> LaneChunk {
    let mask = WORD_MASKS[words];
    std::array::from_fn(|w| chunk[w] & mask[w])
}

// The multi-tenant service fans per-shard sweeps out across worker
// threads: compiled planes are shared `Arc<CompiledFabric>`s and lane
// batches/scratch move with their engines. A future `Rc`, raw pointer or
// interior-mutability regression in any of these must fail the build, not
// wait for a review to notice.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledFabric>();
    assert_send_sync::<CompiledPlane>();
    assert_send_sync::<CompiledState>();
    assert_send_sync::<LaneBatch>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FabricParams;
    use crate::netlist_ir::{generators, LogicNetlist};
    use crate::route::implement_netlist;
    use crate::sim::evaluate_fixpoint;

    /// One name-keyed single-word pass on fresh scratch, outputs sorted.
    fn eval_sorted(
        compiled: &CompiledFabric,
        ctx: usize,
        inputs: &[(&str, u64)],
    ) -> Result<Vec<(String, u64)>, FabricError> {
        let mut outs = compiled.eval_batch_into(ctx, inputs, &mut compiled.new_state())?;
        outs.sort();
        Ok(outs)
    }

    #[test]
    fn lut_lanes_matches_scalar_eval() {
        for table in [0b0110u64, 0b1000, 0b1110, 0xDEAD] {
            for v in 0..16u64 {
                let pins = [
                    if v & 1 == 1 { !0u64 } else { 0 },
                    if v & 2 == 2 { !0u64 } else { 0 },
                    if v & 4 == 4 { !0u64 } else { 0 },
                    if v & 8 == 8 { !0u64 } else { 0 },
                ];
                let want = if (table >> v) & 1 == 1 { !0u64 } else { 0 };
                assert_eq!(lut_lanes(table, &pins), want, "table={table:#x} v={v}");
            }
        }
    }

    #[test]
    fn lut_lanes_mixes_lanes_independently() {
        // lane l carries input vector l: pins[i] bit l = bit i of l
        let pins: Vec<u64> = (0..4)
            .map(|i| pack_lanes(|lane| lane < 16 && (lane >> i) & 1 == 1))
            .collect();
        let table = 0x8F31u64;
        let out = lut_lanes(table, &pins);
        for lane in 0..16 {
            assert_eq!((out >> lane) & 1, (table >> lane) & 1, "lane {lane}");
        }
    }

    #[test]
    fn parity_tree_batch_matches_reference() {
        let nl = generators::parity_tree(4).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 1, 5).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        assert!(!compiled.plane(1).unwrap().is_cyclic());
        assert!(compiled.plane(1).unwrap().levels() > 1);

        // all 16 input vectors in one 64-lane batch, lanes 16.. replicate 0
        let ins: Vec<(String, u64)> = (0..4)
            .map(|i| (format!("x{i}"), pack_lanes(|v| v < 16 && (v >> i) & 1 == 1)))
            .collect();
        let ins_ref: Vec<(&str, u64)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let outs = eval_sorted(&compiled, 1, &ins_ref).unwrap();
        assert_eq!(outs.len(), 1);
        for v in 0..16u64 {
            let scalar_ins: Vec<(String, bool)> = (0..4)
                .map(|i| (format!("x{i}"), (v >> i) & 1 == 1))
                .collect();
            let scalar_ref: Vec<(&str, bool)> =
                scalar_ins.iter().map(|(n, b)| (n.as_str(), *b)).collect();
            let (golden, _) = evaluate_fixpoint(&f, 1, &scalar_ref).unwrap();
            assert_eq!((outs[0].1 >> v) & 1 == 1, golden[0].1, "vector {v}");
        }
    }

    #[test]
    fn missing_input_reports_unresolved() {
        let nl = generators::wire_lanes(1).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 1).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        assert!(matches!(
            compiled.eval_batch_into(0, &[], &mut compiled.new_state()),
            Err(FabricError::Unresolved(_))
        ));
    }

    #[test]
    fn cyclic_config_falls_back_and_agrees_with_reference() {
        // hand-build a routing loop: two tiles driving each other's wires,
        // plus an independent straight-through lane feeding an output
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        let a = TileCoord { x: 0, y: 0 };
        let b = TileCoord { x: 1, y: 0 };
        // cycle: a's east wire <- b's west wire <- a's east wire
        f.set_route(
            a,
            0,
            Sink::WireTo {
                dir: Dir::East,
                w: 0,
            },
            Some(Source::WireFrom {
                dir: Dir::East,
                w: 0,
            }),
        )
        .unwrap();
        f.set_route(
            b,
            0,
            Sink::WireTo {
                dir: Dir::West,
                w: 0,
            },
            Some(Source::WireFrom {
                dir: Dir::West,
                w: 0,
            }),
        )
        .unwrap();
        // independent resolvable path: io_in(a,0) -> io_out(a,0)
        f.set_route(a, 0, Sink::IoOut(0), Some(Source::IoIn(0)))
            .unwrap();
        f.bind_input(a, 0, 0, "x").unwrap();
        f.bind_output(a, 0, 0, "y").unwrap();

        let compiled = CompiledFabric::compile(&f).unwrap();
        assert!(compiled.plane(0).unwrap().is_cyclic());
        let outs = eval_sorted(&compiled, 0, &[("x", 0b10u64)]).unwrap();
        assert_eq!(outs, vec![("y".to_string(), 0b10u64)]);
        // the looped wires stay unknown, exactly like the reference
        let mut st = compiled.new_state();
        compiled.eval_batch_into(0, &[("x", 1)], &mut st).unwrap();
        assert_eq!(st.wire(a, Dir::East, 0), None);
        let (gold, gst) = evaluate_fixpoint(&f, 0, &[("x", true)]).unwrap();
        assert_eq!(gold, vec![("y".to_string(), true)]);
        assert_eq!(gst.wire(a, Dir::East, 0), None);
        // the kernel serves the cyclic plane, and agrees
        let bound = compiled.bind(0).unwrap();
        let mut outs = Vec::new();
        compiled
            .eval_bound_into(&bound, &[chunk_of_word(0b10)], 1, &mut st, &mut outs)
            .unwrap();
        assert_eq!(outs, vec![chunk_of_word(0b10)]);
    }

    #[test]
    fn contexts_compile_independently() {
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        let p = generators::parity_tree(3).unwrap();
        let w = generators::wire_lanes(1).unwrap();
        implement_netlist(&mut f, &p, 0, 2).unwrap();
        implement_netlist(&mut f, &w, 1, 3).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        assert!(!compiled.plane(0).unwrap().ops().is_empty());
        assert!(!compiled.plane(1).unwrap().ops().is_empty());
        assert!(compiled.plane(2).unwrap().ops().is_empty());
        let out1 = eval_sorted(&compiled, 1, &[("in0", !0u64)]).unwrap();
        assert_eq!(out1, vec![("out0".to_string(), !0u64)]);
    }

    #[test]
    fn partial_compile_refuses_other_contexts() {
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        let p = generators::parity_tree(3).unwrap();
        let w = generators::wire_lanes(1).unwrap();
        implement_netlist(&mut f, &p, 0, 2).unwrap();
        implement_netlist(&mut f, &w, 1, 3).unwrap();
        let partial = CompiledFabric::compile_context(&f, 0).unwrap();
        let ins: Vec<(&str, u64)> = vec![("x0", !0), ("x1", 0), ("x2", !0)];
        let mut st = partial.new_state();
        assert!(partial.eval_batch_into(0, &ins, &mut st).is_ok());
        // ctx 1 has a real design, but this compilation never saw it —
        // error out rather than hand back empty outputs
        assert_eq!(
            partial
                .eval_batch_into(1, &[("in0", 1)], &mut st)
                .unwrap_err(),
            FabricError::ContextNotCompiled {
                ctx: 1,
                compiled: 0
            }
        );
    }

    /// Batch columns from names.
    fn cols(names: &[&str]) -> Arc<[Arc<str>]> {
        names.iter().map(|n| Arc::from(*n)).collect()
    }

    #[test]
    fn lane_batch_coalesces_and_demuxes() {
        let mut batch = LaneBatch::new(cols(&["a", "b"]));
        assert!(batch.is_empty());
        for i in 0..LANES {
            let lane = batch.push(&[("a", i % 2 == 0), ("b", i % 3 == 0)]).unwrap();
            assert_eq!(lane, i);
        }
        assert!(batch.is_full());
        assert_eq!(
            batch.push(&[("a", true), ("b", true)]),
            Err(PushRefusal::Full),
            "65th request refused"
        );
        let [a, b] = batch.chunks() else {
            panic!("two columns")
        };
        assert_eq!(*a, chunk_of_word(pack_lanes(|l| l % 2 == 0)));
        assert_eq!(*b, chunk_of_word(pack_lanes(|l| l % 3 == 0)));
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.columns().len(), 2, "clear keeps the columns");
        assert!(batch.chunks().iter().all(|w| *w == [0u64; LANE_WORDS]));
    }

    #[test]
    fn wide_batch_fills_past_64_lanes() {
        let mut batch = LaneBatch::with_width(MAX_LANES, cols(&["a"])).unwrap();
        assert_eq!(batch.width(), MAX_LANES);
        assert_eq!(batch.words(), 1, "empty batch still evaluates one word");
        for i in 0..MAX_LANES {
            let lane = batch.push(&[("a", i % 2 == 0)]).unwrap();
            assert_eq!(lane, i);
        }
        assert!(batch.is_full());
        assert_eq!(batch.words(), LANE_WORDS);
        assert_eq!(
            batch.push(&[("a", true)]),
            Err(PushRefusal::Full),
            "257th request refused"
        );
        let a = batch.chunks()[0];
        assert_eq!(a, pack_chunk(|l| l % 2 == 0));
        // lane 100 lives in word 1 bit 36
        assert!(chunk_bit(&a, 100));
        assert!(!chunk_bit(&a, 101));
        // widths outside 1..=MAX_LANES refuse
        assert!(LaneBatch::with_width(0, cols(&[])).is_err());
        assert!(LaneBatch::with_width(MAX_LANES + 1, cols(&[])).is_err());
        // 65 occupied lanes need two words
        let mut b = LaneBatch::with_width(MAX_LANES, cols(&["x"])).unwrap();
        for _ in 0..65 {
            b.push(&[("x", true)]).unwrap();
        }
        assert_eq!(b.words(), 2);
    }

    #[test]
    fn push_refuses_the_first_undriven_column() {
        let mut b = LaneBatch::new(cols(&["a", "b"]));
        // every column in any order; names that are not columns are ignored
        assert_eq!(b.push(&[("b", true), ("a", false), ("zz", true)]), Ok(0));
        // missing "b": refused, lane contents unchanged
        assert_eq!(b.push(&[("a", true)]), Err(PushRefusal::MissingInput(1)));
        // both missing: the first in column order is named
        assert_eq!(b.push(&[("zz", true)]), Err(PushRefusal::MissingInput(0)));
        // a partial positional match is undone before the refusal
        assert_eq!(
            b.push(&[("a", true), ("zz", true)]),
            Err(PushRefusal::MissingInput(1))
        );
        assert_eq!(b.len(), 1);
        assert_eq!(b.chunks(), [chunk_of_word(0), chunk_of_word(1)]);
        // a repeated name ORs its values into its column
        assert_eq!(b.push(&[("a", false), ("b", false), ("a", true)]), Ok(1));
        assert_eq!(b.chunks(), [chunk_of_word(0b10), chunk_of_word(0b01)]);
        // a column-less batch takes any request
        assert_eq!(LaneBatch::new(cols(&[])).push(&[("q", true)]), Ok(0));
        // a full batch refuses regardless
        while !b.is_full() {
            b.push(&[("a", true), ("b", true)]).unwrap();
        }
        assert_eq!(b.push(&[("a", true), ("b", true)]), Err(PushRefusal::Full));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `push` packs what a by-name reference packs: every column's
        /// chunk is the OR of the values each lane's request gave under
        /// that name; a refusal names the first undriven column and leaves
        /// the batch unchanged; bits above the occupied lanes stay clear.
        /// Columns are shuffled; requests carry extras, duplicates and
        /// omissions, until the batch is full.
        #[test]
        fn push_matches_a_by_name_reference(
            seed in proptest::prelude::any::<u64>(),
            ncols in 0usize..8,
            width in 1usize..=MAX_LANES,
        ) {
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut names: Vec<String> = (0..ncols).map(|i| format!("n{i}")).collect();
            for i in (1..names.len()).rev() {
                names.swap(i, rng.random_range(0..i + 1));
            }
            let columns: Arc<[Arc<str>]> = names.iter().map(|n| Arc::from(n.as_str())).collect();
            let mut batch = LaneBatch::with_width(width, columns).unwrap();
            let mut reference = vec![[0u64; LANE_WORDS]; ncols];
            let extras = ["e0", "e1", "reg:e"];
            for _ in 0..width + 2 {
                let mut request: Vec<&str> = names.iter().map(String::as_str).collect();
                for _ in 0..rng.random_range(0..3u32) {
                    match rng.random_range(0..4u32) {
                        0 => {
                            for i in (1..request.len()).rev() {
                                request.swap(i, rng.random_range(0..i + 1));
                            }
                        }
                        1 if !request.is_empty() => {
                            let dup = request[rng.random_range(0..request.len())];
                            request.insert(rng.random_range(0..request.len() + 1), dup);
                        }
                        // omissions are rarer, so most requests land
                        2 if !request.is_empty() && rng.random_range(0..3u32) == 0 => {
                            request.remove(rng.random_range(0..request.len()));
                        }
                        _ => {
                            let extra = extras[rng.random_range(0..extras.len())];
                            request.insert(rng.random_range(0..request.len() + 1), extra);
                        }
                    }
                }
                let request: Vec<(&str, bool)> = request
                    .into_iter()
                    .map(|n| (n, rng.random_range(0..2u32) == 1))
                    .collect();
                let lane = batch.len();
                let expected = if batch.is_full() {
                    Err(PushRefusal::Full)
                } else if let Some(c) = names
                    .iter()
                    .position(|col| !request.iter().any(|(n, _)| n == col))
                {
                    Err(PushRefusal::MissingInput(c))
                } else {
                    for (col, chunk) in names.iter().zip(&mut reference) {
                        if request.iter().any(|(n, v)| n == col && *v) {
                            chunk[lane / 64] |= 1 << (lane % 64);
                        }
                    }
                    Ok(lane)
                };
                proptest::prop_assert_eq!(batch.push(&request), expected, "request {:?}", request);
                proptest::prop_assert_eq!(batch.len(), lane + usize::from(expected.is_ok()));
                proptest::prop_assert_eq!(batch.chunks(), &reference[..]);
                for chunk in batch.chunks() {
                    for l in batch.len()..MAX_LANES {
                        proptest::prop_assert!(!chunk_bit(chunk, l), "bit above lane {}", l);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "an input row must span the batch's columns")]
    fn push_row_refuses_a_row_that_misses_columns() {
        let names: Vec<String> = (0..65).map(|i| format!("n{i}")).collect();
        let columns: Arc<[Arc<str>]> = names.iter().map(|n| Arc::from(n.as_str())).collect();
        // one word covers 64 of the 65 columns: column 64 would read 0
        let _ = LaneBatch::new(columns).push_row(&[!0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `resolve_row` + `push_row` build what `push` builds: the same
        /// chunks, the same refusal column, and no bits above the occupied
        /// lanes. Columns are shuffled and run past one and two row words;
        /// requests carry extras (`reg:*` too), duplicates and omissions,
        /// until the batch is full.
        #[test]
        fn row_push_matches_name_push(
            seed in proptest::prelude::any::<u64>(),
            ncols in 0usize..160,
            width in 1usize..=MAX_LANES,
        ) {
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut names: Vec<String> = (0..ncols).map(|i| format!("n{i}")).collect();
            for i in (1..names.len()).rev() {
                names.swap(i, rng.random_range(0..i + 1));
            }
            let columns: Arc<[Arc<str>]> = names.iter().map(|n| Arc::from(n.as_str())).collect();
            let mut by_name = LaneBatch::with_width(width, Arc::clone(&columns)).unwrap();
            let mut by_row = LaneBatch::with_width(width, Arc::clone(&columns)).unwrap();
            let mut row = vec![0u64; row_words(ncols)];
            let extras = ["e0", "reg:e", "n999"];
            for _ in 0..width + 2 {
                let mut request: Vec<&str> = names.iter().map(String::as_str).collect();
                for _ in 0..rng.random_range(0..3u32) {
                    match rng.random_range(0..4u32) {
                        0 => {
                            for i in (1..request.len()).rev() {
                                request.swap(i, rng.random_range(0..i + 1));
                            }
                        }
                        1 if !request.is_empty() => {
                            let dup = request[rng.random_range(0..request.len())];
                            request.insert(rng.random_range(0..request.len() + 1), dup);
                        }
                        2 if !request.is_empty() && rng.random_range(0..3u32) == 0 => {
                            request.remove(rng.random_range(0..request.len()));
                        }
                        _ => {
                            let extra = extras[rng.random_range(0..extras.len())];
                            request.insert(rng.random_range(0..request.len() + 1), extra);
                        }
                    }
                }
                let request: Vec<(&str, bool)> = request
                    .into_iter()
                    .map(|n| (n, rng.random_range(0..2u32) == 1))
                    .collect();
                let resolved = resolve_row(&columns, &request, &mut row);
                let pushed = match resolved {
                    Ok(()) => {
                        for (w, word) in row.iter().enumerate() {
                            let live = ncols.saturating_sub(w * 64).min(64);
                            let dead = if live == 64 { 0 } else { !0u64 << live };
                            proptest::prop_assert_eq!(word & dead, 0, "bit past the last column");
                        }
                        by_row.push_row(&row)
                    }
                    Err(c) if by_row.is_full() => {
                        proptest::prop_assert!(c < ncols);
                        Err(PushRefusal::Full)
                    }
                    Err(c) => Err(PushRefusal::MissingInput(c)),
                };
                proptest::prop_assert_eq!(by_name.push(&request), pushed, "request {:?}", request);
                proptest::prop_assert_eq!(by_row.len(), by_name.len());
                proptest::prop_assert_eq!(by_row.chunks(), by_name.chunks());
                for chunk in by_row.chunks() {
                    for l in by_row.len()..MAX_LANES {
                        proptest::prop_assert!(!chunk_bit(chunk, l), "bit above lane {}", l);
                    }
                }
            }
        }
    }

    #[test]
    fn lane_batch_drives_compiled_eval() {
        let nl = generators::parity_tree(3).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        let bound = compiled.bind(0).unwrap();
        let mut batch = LaneBatch::new(bound.input_columns());
        let requests = [
            (true, false, true),
            (false, false, false),
            (true, true, true),
        ];
        for (x0, x1, x2) in requests {
            batch.push(&[("x0", x0), ("x1", x1), ("x2", x2)]).unwrap();
        }
        // parity binds x0..x2 once each, no registers: columns are the
        // bound inputs themselves
        assert_eq!(batch.columns(), &cols(&["x0", "x1", "x2"]));
        let mut outs = Vec::new();
        compiled
            .eval_bound_into(
                &bound,
                batch.chunks(),
                batch.words(),
                &mut compiled.new_state(),
                &mut outs,
            )
            .unwrap();
        for (lane, (x0, x1, x2)) in requests.into_iter().enumerate() {
            assert_eq!(chunk_bit(&outs[0], lane), x0 ^ x1 ^ x2, "lane {lane}");
        }
    }

    #[test]
    fn chunked_eval_matches_independent_word_passes() {
        // one 256-lane chunked pass must be bit-for-bit identical to four
        // independent 64-lane single-word passes, one per word
        let nl = generators::parity_tree(3).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        let bound = compiled.bind(0).unwrap();
        let chunks: Vec<LaneChunk> = (0..bound.inputs().len())
            .map(|i| pack_chunk(|l| (l * 0x9E37 + i * 31) % (i + 2) == 0))
            .collect();
        let mut st = compiled.new_state();
        let mut wide = Vec::new();
        compiled
            .eval_bound_into(&bound, &chunks, LANE_WORDS, &mut st, &mut wide)
            .unwrap();
        for w in 0..LANE_WORDS {
            let words: Vec<(&str, u64)> = bound
                .inputs()
                .iter()
                .zip(&chunks)
                .map(|((_, n, _), c)| (n.as_ref(), c[w]))
                .collect();
            let narrow = compiled.eval_batch_into(0, &words, &mut st).unwrap();
            for (((_, wn, _), wc), (nn, nv)) in bound.outputs().iter().zip(&wide).zip(&narrow) {
                assert_eq!(wn.as_ref(), nn);
                assert_eq!(wc[w], *nv, "word {w}");
            }
        }
        // words < LANE_WORDS zeroes the unoccupied words, even when the
        // input chunk carries stray bits there
        let mut sparse = Vec::new();
        compiled
            .eval_bound_into(&bound, &chunks, 1, &mut st, &mut sparse)
            .unwrap();
        for (c, full) in sparse.iter().zip(&wide) {
            assert_eq!(c[0], full[0]);
            assert_eq!(c[1..], [0u64; LANE_WORDS - 1]);
        }
    }

    #[test]
    fn narrow_sweeps_after_a_wide_one_leave_no_high_words() {
        // a one-word sweep on a value array a four-word sweep filled must
        // leave every output and every LUT slot zero past word 0 — the
        // kernel's invariant now that no zeroing pass backs it up
        let nl = generators::parity_tree(4).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 11).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        let bound = compiled.bind(0).unwrap();
        let plane = compiled.plane(0).unwrap();
        let kernel = &plane.kernel;
        // the routed plane copies, but the kernel keeps only its LUTs and
        // still counts every op
        let plane_luts = plane
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::Lut { .. }))
            .count();
        assert!(plane.ops().len() > plane_luts, "the plane routes copies");
        assert_eq!(kernel.luts.len(), plane_luts, "no copy remains");
        assert_eq!(kernel.ops_total, plane.ops().len() as u64);
        // dense in every word, so the wide sweep leaves high bits behind
        let mut chunks: Vec<LaneChunk> = (0..bound.inputs().len())
            .map(|i| pack_chunk(|l| (l * 0x9E37 + i * 31) % (i + 3) < 2))
            .collect();
        let reference = |chunks: &[LaneChunk]| {
            let mut outs = Vec::new();
            compiled
                .eval_bound_reference(&bound, chunks, 1, &mut compiled.new_state(), &mut outs)
                .unwrap();
            outs
        };
        let lut_slots = kernel.lut_base..kernel.slots();
        let clean_past_word0 = |st: &CompiledState, outs: &[LaneChunk]| {
            for c in outs {
                assert_eq!(c[1..], [0u64; LANE_WORDS - 1], "output");
            }
            for (j, v) in st.slots[lut_slots.clone()].iter().enumerate() {
                assert_eq!(v[1..], [0u64; LANE_WORDS - 1], "LUT {j}");
            }
        };
        let mut outs = Vec::new();
        // wide, then the same inputs at one word: the width is part of
        // the sweep the state holds, so the narrow pass sweeps in full
        let mut st = compiled.new_state();
        compiled
            .eval_bound_into(&bound, &chunks, LANE_WORDS, &mut st, &mut outs)
            .unwrap();
        assert!(
            st.slots[lut_slots.clone()].iter().all(|v| v[1..] != [0; 3]),
            "the wide sweep must fill the high words this test watches"
        );
        let stats = compiled
            .eval_bound_into(&bound, &chunks, 1, &mut st, &mut outs)
            .unwrap();
        assert_eq!(stats.ops_skipped, 0, "a width change sweeps in full");
        assert_eq!(outs, reference(&chunks));
        clean_past_word0(&st, &outs);
        // then a dirty-cone pass at one word
        chunks[1][0] ^= 0xF0F0;
        chunks[1][2] ^= u64::MAX; // stray bits past the occupied word
        let stats = compiled
            .eval_bound_into(&bound, &chunks, 1, &mut st, &mut outs)
            .unwrap();
        assert!(stats.ops_skipped > 0, "the cone of input 1 is not every op");
        assert_eq!(outs, reference(&chunks));
        clean_past_word0(&st, &outs);
    }

    /// A state that swept plane A, then a pass of plane B whose value
    /// array has the same length: B must sweep in full and answer as its
    /// interpreter does, not read A's values.
    #[test]
    fn another_planes_state_of_the_same_size_sweeps_in_full() {
        let params = FabricParams::default();
        let parity = generators::parity_tree(3).unwrap();
        // parity's topology with AND tables: same inputs, output and LUT
        // count, another function
        let mut and3 = LogicNetlist::new();
        let x: Vec<_> = (0..3).map(|i| and3.add_input(&format!("x{i}"))).collect();
        let a = and3.add_lut("a", &[x[0], x[1]], 0b1000).unwrap();
        let b = and3.add_lut("b", &[a, x[2]], 0b1000).unwrap();
        and3.add_output("parity", b).unwrap();
        let compile = |nl: &LogicNetlist| {
            let mut f = Fabric::new(params).unwrap();
            implement_netlist(&mut f, nl, 0, 7).unwrap();
            let compiled = CompiledFabric::compile_context(&f, 0).unwrap();
            let bound = compiled.bind(0).unwrap();
            (compiled, bound)
        };
        let (pa, ba) = compile(&parity);
        let (pb, bb) = compile(&and3);
        let slots = |c: &CompiledFabric| c.plane(0).unwrap().kernel.slots();
        assert_eq!(slots(&pa), slots(&pb), "the value arrays fit each other");
        assert_eq!(ba.inputs().len(), bb.inputs().len());
        let chunks: Vec<LaneChunk> = (0..ba.inputs().len())
            .map(|i| pack_chunk(|l| (l >> i) & 1 == 1))
            .collect();
        let mut st = pa.new_state();
        let mut outs = Vec::new();
        pa.eval_bound_into(&ba, &chunks, LANE_WORDS, &mut st, &mut outs)
            .unwrap();
        let parity_outs = outs.clone();
        let stats = pb
            .eval_bound_into(&bb, &chunks, LANE_WORDS, &mut st, &mut outs)
            .unwrap();
        assert_eq!(stats.ops_skipped, 0, "another plane's sweep is not reused");
        let mut want = Vec::new();
        pb.eval_bound_reference(&bb, &chunks, LANE_WORDS, &mut pb.new_state(), &mut want)
            .unwrap();
        assert_eq!(outs, want);
        assert_ne!(outs, parity_outs, "the two planes answer differently");
    }

    /// A bound output no bound input reaches fails a kernel pass with the
    /// interpreter's exact error: the poisoned plane of the service's
    /// fault injection (an empty fabric binding one output), and a cyclic
    /// plane whose output lies past its cycle. A failed pass leaves no
    /// sweep behind: the next pass of the plane the state swept before
    /// sweeps in full.
    #[test]
    fn an_unreachable_output_fails_with_the_interpreters_error() {
        let params = FabricParams::default();
        let mut poisoned = Fabric::new(params).unwrap();
        poisoned
            .bind_output(TileCoord { x: 0, y: 0 }, 0, 0, "poisoned")
            .unwrap();
        // a wire loop between two tiles, and an output fed from it, next
        // to a resolvable input-to-output lane
        let mut looped = Fabric::new(params).unwrap();
        let a = TileCoord { x: 0, y: 0 };
        let b = TileCoord { x: 1, y: 0 };
        let east = Sink::WireTo {
            dir: Dir::East,
            w: 0,
        };
        let west = Sink::WireTo {
            dir: Dir::West,
            w: 0,
        };
        looped
            .set_route(
                a,
                0,
                east,
                Some(Source::WireFrom {
                    dir: Dir::East,
                    w: 0,
                }),
            )
            .unwrap();
        looped
            .set_route(
                b,
                0,
                west,
                Some(Source::WireFrom {
                    dir: Dir::West,
                    w: 0,
                }),
            )
            .unwrap();
        looped
            .set_route(a, 0, Sink::IoOut(0), Some(Source::IoIn(0)))
            .unwrap();
        looped
            .set_route(
                b,
                0,
                Sink::IoOut(0),
                Some(Source::WireFrom {
                    dir: Dir::West,
                    w: 0,
                }),
            )
            .unwrap();
        looped.bind_input(a, 0, 0, "x").unwrap();
        looped.bind_output(a, 0, 0, "y").unwrap();
        looped.bind_output(b, 0, 0, "z").unwrap();
        let mut good = Fabric::new(params).unwrap();
        implement_netlist(&mut good, &generators::parity_tree(3).unwrap(), 0, 5).unwrap();
        let good = CompiledFabric::compile(&good).unwrap();
        let good_bound = good.bind(0).unwrap();
        let good_chunks = vec![chunk_of_word(0b0110); good_bound.inputs().len()];
        for (fabric, name) in [(&poisoned, "poisoned"), (&looped, "z")] {
            let compiled = CompiledFabric::compile_context(fabric, 0).unwrap();
            let bound = compiled.bind(0).unwrap();
            let chunks = vec![chunk_of_word(0b10); bound.inputs().len()];
            let mut want = Vec::new();
            let reference = compiled
                .eval_bound_reference(&bound, &chunks, 1, &mut compiled.new_state(), &mut want)
                .unwrap_err();
            let mut st = compiled.new_state();
            let mut outs = Vec::new();
            good.eval_bound_into(&good_bound, &good_chunks, 1, &mut st, &mut outs)
                .unwrap();
            let got = compiled
                .eval_bound_into(&bound, &chunks, 1, &mut st, &mut outs)
                .unwrap_err();
            assert_eq!(got.to_string(), reference.to_string());
            assert!(
                matches!(&got, FabricError::Unresolved(m) if *m == format!("output '{name}' unresolved")),
                "{got:?}"
            );
            let stats = good
                .eval_bound_into(&good_bound, &good_chunks, 1, &mut st, &mut outs)
                .unwrap();
            assert_eq!(stats.ops_skipped, 0, "a failed pass leaves no sweep");
        }
    }

    #[test]
    fn accessors_read_only_an_interpreter_sweep() {
        let nl = generators::parity_tree(3).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        let routed = implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        let bound = compiled.bind(0).unwrap();
        let lut_tile = *routed.placement.values().next().unwrap();
        let (out_tile, out_port, _, _) = f.output_binds()[0].clone();
        let mut filled = compiled.new_state();
        compiled
            .eval_batch_into(0, &[("x0", 1), ("x1", 0), ("x2", 0)], &mut filled)
            .unwrap();
        let wire = f
            .tiles()
            .flat_map(|t| Dir::ALL.into_iter().map(move |d| (t, d)))
            .find(|&(t, d)| filled.wire(t, d, 0).is_some())
            .expect("a routed wire");
        let far = TileCoord { x: 99, y: 99 };
        let read = |st: &CompiledState| {
            [
                st.wire(wire.0, wire.1, 0),
                st.lut_out(lut_tile),
                st.io_out(out_tile, out_port),
                st.wire(far, Dir::North, 0),
                st.lut_out(far),
                st.io_out(far, 0),
            ]
        };
        // a fresh state holds no sweep: nothing reads, nothing panics
        let mut st = compiled.new_state();
        assert_eq!(read(&st), [None; 6]);
        assert_eq!(st.state_bytes(), 0);
        // a kernel pass fills only the plane's value array and keeps its
        // raw inputs
        let chunks = vec![chunk_of_word(0b0110); bound.inputs().len()];
        let mut outs = Vec::new();
        compiled
            .eval_bound_into(&bound, &chunks, 1, &mut st, &mut outs)
            .unwrap();
        assert_eq!(read(&st), [None; 6]);
        let kernel_bytes = st.state_bytes();
        let slots = compiled.plane(0).unwrap().kernel.slots() + chunks.len();
        assert_eq!(kernel_bytes, slots * std::mem::size_of::<LaneChunk>());
        // an interpreter pass fills the arena, and every resource reads
        compiled
            .eval_bound_reference(&bound, &chunks, 1, &mut st, &mut outs)
            .unwrap();
        let [w, l, o, ..] = read(&st);
        assert!(w.is_some() && l.is_some());
        assert_eq!(o, Some(outs[0][0]));
        assert_eq!(read(&st)[3..], [None; 3], "off-grid reads stay None");
        assert!(st.state_bytes() > 10 * kernel_bytes);
        // a kernel pass after it drops the arena again, and sweeps in full
        let stats = compiled
            .eval_bound_into(&bound, &chunks, 1, &mut st, &mut outs)
            .unwrap();
        assert_eq!(stats.ops_skipped, 0);
        assert_eq!(read(&st), [None; 6]);
        assert_eq!(st.state_bytes(), kernel_bytes);
    }

    #[test]
    fn context_digest_tracks_configuration() {
        let nl = generators::parity_tree(3).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let d0 = f.context_digest(0).unwrap();
        // deterministic and per-context
        assert_eq!(d0, f.context_digest(0).unwrap());
        assert_ne!(d0, f.context_digest(1).unwrap());
        // identical flow into an identical fabric reproduces the digest
        let mut g = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut g, &nl, 0, 5).unwrap();
        assert_eq!(d0, g.context_digest(0).unwrap());
        // any configuration change moves it
        let mut h = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut h, &nl, 0, 6).unwrap();
        let moved = h.context_digest(0).unwrap();
        let empty = Fabric::new(FabricParams::default())
            .unwrap()
            .context_digest(0)
            .unwrap();
        assert_ne!(d0, empty);
        // seeds 5 and 6 place differently on the default 4×4 grid
        assert_ne!(d0, moved);
        assert!(f.context_digest(99).is_err());
    }

    #[test]
    fn context_digest_covers_the_architecture() {
        // CompiledFabric captures params().arch, so two configurations that
        // differ only in switch architecture must not share a digest
        use mcfpga_core::ArchKind;
        let sram = Fabric::new(FabricParams {
            arch: ArchKind::Sram,
            ..FabricParams::default()
        })
        .unwrap();
        let hybrid = Fabric::new(FabricParams::default()).unwrap();
        assert_ne!(
            sram.context_digest(0).unwrap(),
            hybrid.context_digest(0).unwrap()
        );
    }

    #[test]
    fn context_digest_separates_input_and_output_binds() {
        // same tile config, same concatenated bind records — but "b" is an
        // input in one fabric and an output in the other; the digests must
        // differ (domain tags + lengths prevent the collision)
        let t = TileCoord { x: 0, y: 0 };
        let mut a = Fabric::new(FabricParams::default()).unwrap();
        a.bind_input(t, 0, 0, "a").unwrap();
        a.bind_input(t, 1, 0, "b").unwrap();
        let mut b = Fabric::new(FabricParams::default()).unwrap();
        b.bind_input(t, 0, 0, "a").unwrap();
        b.bind_output(t, 1, 0, "b").unwrap();
        assert_ne!(a.context_digest(0).unwrap(), b.context_digest(0).unwrap());
    }

    #[test]
    fn layout_ids_are_disjoint_and_dense() {
        let p = FabricParams::default();
        let layout = ResourceLayout::new(&p);
        let mut seen = vec![false; layout.total()];
        let mut mark = |id: ResourceId| {
            assert!(!seen[id as usize], "duplicate id {id}");
            seen[id as usize] = true;
        };
        for y in 0..p.height {
            for x in 0..p.width {
                let t = TileCoord { x, y };
                for dir in Dir::ALL {
                    for w in 0..p.channel_width {
                        mark(layout.wire(t, dir, w));
                    }
                }
                mark(layout.lut_out(t));
                for i in 0..p.io_in {
                    mark(layout.io_in(t, i));
                }
                for o in 0..p.io_out {
                    mark(layout.io_out(t, o));
                }
            }
        }
        assert!(seen.into_iter().all(|b| b), "arena has holes");
    }

    #[test]
    fn lane_batch_parts_round_trip() {
        let ab = cols(&["a", "b"]);
        let mut batch = LaneBatch::new(Arc::clone(&ab));
        batch.push(&[("a", true), ("b", false)]).unwrap();
        batch.push(&[("a", false), ("b", true)]).unwrap();
        let lanes = batch.len();
        let mut inputs: Vec<(String, LaneChunk)> = ab
            .iter()
            .zip(batch.chunks())
            .map(|(n, v)| (n.to_string(), *v))
            .collect();
        let rebuilt = LaneBatch::from_parts(LANES, lanes, Arc::clone(&ab), &inputs).unwrap();
        assert_eq!(rebuilt.len(), batch.len());
        assert_eq!(rebuilt.width(), LANES);
        assert_eq!(rebuilt.chunks(), batch.chunks());
        // names resolve by name: any order, and non-columns are dropped
        inputs.reverse();
        inputs.push(("zz".to_string(), chunk_of_word(0b11)));
        let reordered = LaneBatch::from_parts(LANES, lanes, Arc::clone(&ab), &inputs).unwrap();
        assert_eq!(reordered.chunks(), batch.chunks());
        // a repeated name, or a column missing while lanes are occupied,
        // is refused; a lane-less batch needs no names
        let mut twice = inputs.clone();
        twice.push(inputs[0].clone());
        assert!(LaneBatch::from_parts(LANES, lanes, Arc::clone(&ab), &twice).is_err());
        // a repeated name that is not a column is dropped like any other
        twice.truncate(inputs.len());
        twice.push(("zz".to_string(), chunk_of_word(0)));
        assert!(LaneBatch::from_parts(LANES, lanes, Arc::clone(&ab), &twice).is_ok());
        assert!(LaneBatch::from_parts(LANES, lanes, Arc::clone(&ab), &inputs[1..]).is_err());
        assert!(LaneBatch::from_parts(LANES, 0, Arc::clone(&ab), &[]).is_ok());
        assert!(LaneBatch::from_parts(LANES, LANES + 1, cols(&[]), &[]).is_err());
        assert!(LaneBatch::from_parts(MAX_LANES, LANES + 1, cols(&[]), &[]).is_ok());
        // stray bits beyond the occupied lanes would leak into the next
        // pushed request's lane — refused, in any word
        let a = cols(&["a"]);
        let one = |chunk: LaneChunk| [("a".to_string(), chunk)];
        assert!(
            LaneBatch::from_parts(LANES, 2, Arc::clone(&a), &one(chunk_of_word(0b100))).is_err()
        );
        assert!(
            LaneBatch::from_parts(MAX_LANES, 66, Arc::clone(&a), &one([0, 0b100, 0, 0])).is_err()
        );
        assert!(
            LaneBatch::from_parts(LANES, LANES, Arc::clone(&a), &one(chunk_of_word(u64::MAX)))
                .is_ok()
        );
        assert!(LaneBatch::from_parts(
            MAX_LANES,
            MAX_LANES,
            Arc::clone(&a),
            &one([u64::MAX; LANE_WORDS])
        )
        .is_ok());
        // occupied lanes within a wider word budget keep their bits
        let wide = LaneBatch::from_parts(MAX_LANES, 66, a, &one([!0u64, 0b11, 0, 0])).unwrap();
        assert_eq!(wide.words(), 2);
    }
}
