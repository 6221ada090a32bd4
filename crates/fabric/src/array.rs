//! The island-style fabric: tiles, channel wires, switch-block geometry and
//! configuration storage (Fig. 1's array of cells).
//!
//! Each tile holds one cell: a multi-context K-LUT (the programmable logic
//! block) and a crossbar switch block connecting
//!
//! * **sources** (crossbar rows): wires arriving from the four neighbours,
//!   the tile's LUT output, and `io_in` external input ports;
//! * **sinks** (crossbar columns): wires departing to the four neighbours,
//!   the LUT's input pins, and `io_out` external output ports.
//!
//! Every sink stores, per context, which source drives it — that is the
//! routing configuration plane. Counting those cross-points under the three
//! MC-switch architectures reproduces the fabric-level area story.

use crate::lut::MultiContextLut;
use crate::FabricError;
use mcfpga_core::{ArchKind, HybridMcSwitch, MvFgfpMcSwitch, SramMcSwitch};

/// Compass directions of channel wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Toward `y − 1`.
    North,
    /// Toward `x + 1`.
    East,
    /// Toward `y + 1`.
    South,
    /// Toward `x − 1`.
    West,
}

impl Dir {
    /// All directions in a fixed order.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// The opposite direction.
    #[must_use]
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }

    /// Coordinate delta.
    #[must_use]
    pub fn delta(self) -> (isize, isize) {
        match self {
            Dir::North => (0, -1),
            Dir::East => (1, 0),
            Dir::South => (0, 1),
            Dir::West => (-1, 0),
        }
    }
}

/// A tile coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Column.
    pub x: usize,
    /// Row.
    pub y: usize,
}

impl std::fmt::Display for TileCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A crossbar row (source) of one tile's switch block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Wire arriving from the neighbour in `dir`.
    WireFrom {
        /// Direction the neighbour lies in.
        dir: Dir,
        /// Wire index within the channel.
        w: usize,
    },
    /// The tile's own LUT output.
    LutOut,
    /// External input port `idx` of this tile.
    IoIn(usize),
}

/// A crossbar column (sink) of one tile's switch block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sink {
    /// Wire departing toward the neighbour in `dir`.
    WireTo {
        /// Direction of the receiving neighbour.
        dir: Dir,
        /// Wire index within the channel.
        w: usize,
    },
    /// LUT input pin.
    LutIn(usize),
    /// External output port `idx` of this tile.
    IoOut(usize),
}

/// Fabric geometry and architecture parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricParams {
    /// Grid width (tiles).
    pub width: usize,
    /// Grid height (tiles).
    pub height: usize,
    /// Wires per direction per tile.
    pub channel_width: usize,
    /// LUT inputs.
    pub lut_k: usize,
    /// Configuration contexts.
    pub contexts: usize,
    /// External input ports per tile.
    pub io_in: usize,
    /// External output ports per tile.
    pub io_out: usize,
    /// Switch architecture of every cross-point.
    pub arch: ArchKind,
}

impl FabricParams {
    /// Checks that these parameters describe a buildable fabric, without
    /// building one: a non-empty grid of at most 64×64 tiles, 1–16 wires
    /// per channel, 1–64 contexts and a LUT arity in `1..=6`, refused in
    /// that order with [`FabricError::BadParams`]. [`Fabric::new`] runs
    /// exactly these checks, so a caller that builds its fabric later can
    /// refuse bad parameters up front with the same error.
    pub fn validate(&self) -> Result<(), FabricError> {
        if self.width == 0
            || self.height == 0
            || self.width * self.height > 64 * 64
            || self.channel_width == 0
            || self.channel_width > 16
        {
            return Err(FabricError::BadParams(format!("{self:?}")));
        }
        if self.contexts == 0 || self.contexts > 64 {
            return Err(FabricError::BadParams("contexts".into()));
        }
        MultiContextLut::check_k(self.lut_k)
    }
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            width: 4,
            height: 4,
            channel_width: 2,
            lut_k: 4,
            contexts: 4,
            io_in: 2,
            io_out: 2,
            arch: ArchKind::Hybrid,
        }
    }
}

/// Per-tile configuration: the LUT planes plus, per context, the source
/// driving each sink.
#[derive(Debug, Clone, PartialEq)]
pub struct TileConfig {
    /// The tile's LUT (one truth-table plane per context).
    pub lut: MultiContextLut,
    /// `sb[ctx][sink_idx] = Some(source_idx)`.
    pub sb: Vec<Vec<Option<u16>>>,
}

/// The multi-context FPGA.
#[derive(Debug, Clone)]
pub struct Fabric {
    params: FabricParams,
    tiles: Vec<TileConfig>,
    /// `(tile, port, ctx) → signal name` bindings for external inputs.
    input_binds: Vec<(TileCoord, usize, usize, String)>,
    /// `(tile, port, ctx) → signal name` bindings for external outputs.
    output_binds: Vec<(TileCoord, usize, usize, String)>,
}

impl Fabric {
    /// Builds an unconfigured fabric.
    /// Refuses `params` exactly as [`FabricParams::validate`] does.
    pub fn new(params: FabricParams) -> Result<Self, FabricError> {
        params.validate()?;
        let mut tiles = Vec::with_capacity(params.width * params.height);
        for i in 0..params.width * params.height {
            let t = TileCoord {
                x: i % params.width,
                y: i / params.width,
            };
            let sinks = Self::sinks_static(&params, t).len();
            tiles.push(TileConfig {
                lut: MultiContextLut::new(params.lut_k, params.contexts)?,
                sb: vec![vec![None; sinks]; params.contexts],
            });
        }
        Ok(Fabric {
            params,
            tiles,
            input_binds: Vec::new(),
            output_binds: Vec::new(),
        })
    }

    /// Fabric parameters.
    #[must_use]
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// All tile coordinates, row-major.
    pub fn tiles(&self) -> impl Iterator<Item = TileCoord> + '_ {
        let w = self.params.width;
        (0..w * self.params.height).map(move |i| TileCoord { x: i % w, y: i / w })
    }

    /// The neighbour of `t` in `dir`, if on the grid.
    #[must_use]
    pub fn neighbor(&self, t: TileCoord, dir: Dir) -> Option<TileCoord> {
        let (dx, dy) = dir.delta();
        let x = t.x.checked_add_signed(dx)?;
        let y = t.y.checked_add_signed(dy)?;
        (x < self.params.width && y < self.params.height).then_some(TileCoord { x, y })
    }

    fn tile_index(&self, t: TileCoord) -> Result<usize, FabricError> {
        if t.x < self.params.width && t.y < self.params.height {
            Ok(t.y * self.params.width + t.x)
        } else {
            Err(FabricError::BadTile { x: t.x, y: t.y })
        }
    }

    /// Tile configuration (read).
    pub fn tile(&self, t: TileCoord) -> Result<&TileConfig, FabricError> {
        let i = self.tile_index(t)?;
        Ok(&self.tiles[i])
    }

    /// Tile configuration (write).
    pub fn tile_mut(&mut self, t: TileCoord) -> Result<&mut TileConfig, FabricError> {
        let i = self.tile_index(t)?;
        Ok(&mut self.tiles[i])
    }

    fn has_neighbor(params: &FabricParams, t: TileCoord, dir: Dir) -> bool {
        let (dx, dy) = dir.delta();
        match (t.x.checked_add_signed(dx), t.y.checked_add_signed(dy)) {
            (Some(x), Some(y)) => x < params.width && y < params.height,
            _ => false,
        }
    }

    fn sources_static(params: &FabricParams, t: TileCoord) -> Vec<Source> {
        let mut v = Vec::new();
        for dir in Dir::ALL {
            if Self::has_neighbor(params, t, dir) {
                for w in 0..params.channel_width {
                    v.push(Source::WireFrom { dir, w });
                }
            }
        }
        v.push(Source::LutOut);
        for i in 0..params.io_in {
            v.push(Source::IoIn(i));
        }
        v
    }

    fn sinks_static(params: &FabricParams, t: TileCoord) -> Vec<Sink> {
        let mut v = Vec::new();
        for dir in Dir::ALL {
            if Self::has_neighbor(params, t, dir) {
                for w in 0..params.channel_width {
                    v.push(Sink::WireTo { dir, w });
                }
            }
        }
        for pin in 0..params.lut_k {
            v.push(Sink::LutIn(pin));
        }
        for i in 0..params.io_out {
            v.push(Sink::IoOut(i));
        }
        v
    }

    /// The crossbar rows of `t`'s switch block, in index order.
    #[must_use]
    pub fn sources(&self, t: TileCoord) -> Vec<Source> {
        Self::sources_static(&self.params, t)
    }

    /// The crossbar columns of `t`'s switch block, in index order.
    #[must_use]
    pub fn sinks(&self, t: TileCoord) -> Vec<Sink> {
        Self::sinks_static(&self.params, t)
    }

    /// `t`'s wire rows (equally, wire columns) toward the first `n`
    /// directions of [`Dir::ALL`]: wires come first, `channel_width` per
    /// existing neighbour, in that order.
    fn wires_before(params: &FabricParams, t: TileCoord, n: usize) -> usize {
        let dirs = Dir::ALL[..n]
            .iter()
            .filter(|d| Self::has_neighbor(params, t, **d))
            .count();
        dirs * params.channel_width
    }

    /// Index of wire `w` toward `dir` among `t`'s wire rows (or columns).
    fn wire_index(params: &FabricParams, t: TileCoord, dir: Dir, w: usize) -> Option<usize> {
        (w < params.channel_width && Self::has_neighbor(params, t, dir))
            .then(|| Self::wires_before(params, t, dir as usize) + w)
    }

    /// Index of a source within `t`'s row list ([`sources`](Self::sources)),
    /// computed without building the list.
    #[must_use]
    pub fn source_index(&self, t: TileCoord, s: Source) -> Option<usize> {
        let p = &self.params;
        match s {
            Source::WireFrom { dir, w } => Self::wire_index(p, t, dir, w),
            Source::LutOut => Some(Self::wires_before(p, t, 4)),
            Source::IoIn(i) => (i < p.io_in).then(|| Self::wires_before(p, t, 4) + 1 + i),
        }
    }

    /// Index of a sink within `t`'s column list ([`sinks`](Self::sinks)),
    /// computed without building the list.
    #[must_use]
    pub fn sink_index(&self, t: TileCoord, s: Sink) -> Option<usize> {
        let p = &self.params;
        match s {
            Sink::WireTo { dir, w } => Self::wire_index(p, t, dir, w),
            Sink::LutIn(pin) => (pin < p.lut_k).then(|| Self::wires_before(p, t, 4) + pin),
            Sink::IoOut(i) => (i < p.io_out).then(|| Self::wires_before(p, t, 4) + p.lut_k + i),
        }
    }

    /// Sets (or clears) the driver of a sink in one context.
    pub fn set_route(
        &mut self,
        t: TileCoord,
        ctx: usize,
        sink: Sink,
        source: Option<Source>,
    ) -> Result<(), FabricError> {
        let contexts = self.params.contexts;
        if ctx >= contexts {
            return Err(FabricError::ContextOutOfRange { ctx, contexts });
        }
        let sink_idx = self
            .sink_index(t, sink)
            .ok_or(FabricError::BadTile { x: t.x, y: t.y })?;
        let source_idx = match source {
            Some(s) => Some(
                self.source_index(t, s)
                    .ok_or(FabricError::BadTile { x: t.x, y: t.y })? as u16,
            ),
            None => None,
        };
        let i = self.tile_index(t)?;
        self.tiles[i].sb[ctx][sink_idx] = source_idx;
        Ok(())
    }

    /// The source driving `sink` at `t` in `ctx`, if any.
    pub fn route_of(
        &self,
        t: TileCoord,
        ctx: usize,
        sink: Sink,
    ) -> Result<Option<Source>, FabricError> {
        let sink_idx = self
            .sink_index(t, sink)
            .ok_or(FabricError::BadTile { x: t.x, y: t.y })?;
        let i = self.tile_index(t)?;
        Ok(self.tiles[i].sb[ctx][sink_idx].map(|si| self.sources(t)[si as usize]))
    }

    /// Refuses a binding of `kind` port `port` (of `ports`) on tile `t`
    /// in context `ctx` unless all three exist on this fabric.
    fn check_bind(
        &self,
        t: TileCoord,
        port: usize,
        ports: usize,
        ctx: usize,
        kind: &str,
    ) -> Result<(), FabricError> {
        self.tile_index(t)?;
        if port >= ports {
            return Err(FabricError::BadParams(format!("{kind} port {port}")));
        }
        let contexts = self.params.contexts;
        if ctx >= contexts {
            return Err(FabricError::BadParams(format!(
                "{kind} port {port} bound in context {ctx} of {contexts}"
            )));
        }
        Ok(())
    }

    /// Binds an external input port to a named signal in one context.
    pub fn bind_input(
        &mut self,
        t: TileCoord,
        port: usize,
        ctx: usize,
        name: &str,
    ) -> Result<(), FabricError> {
        self.check_bind(t, port, self.params.io_in, ctx, "io_in")?;
        self.input_binds
            .retain(|(t2, p, c, _)| !(*t2 == t && *p == port && *c == ctx));
        self.input_binds.push((t, port, ctx, name.to_string()));
        Ok(())
    }

    /// Binds an external output port to a named signal in one context.
    pub fn bind_output(
        &mut self,
        t: TileCoord,
        port: usize,
        ctx: usize,
        name: &str,
    ) -> Result<(), FabricError> {
        self.check_bind(t, port, self.params.io_out, ctx, "io_out")?;
        self.output_binds
            .retain(|(t2, p, c, _)| !(*t2 == t && *p == port && *c == ctx));
        self.output_binds.push((t, port, ctx, name.to_string()));
        Ok(())
    }

    /// Input bindings `(tile, port, ctx, name)`.
    #[must_use]
    pub fn input_binds(&self) -> &[(TileCoord, usize, usize, String)] {
        &self.input_binds
    }

    /// Output bindings `(tile, port, ctx, name)`.
    #[must_use]
    pub fn output_binds(&self) -> &[(TileCoord, usize, usize, String)] {
        &self.output_binds
    }

    /// Clears all routing, LUT planes and bindings for one context.
    pub fn clear_context(&mut self, ctx: usize) -> Result<(), FabricError> {
        let contexts = self.params.contexts;
        if ctx >= contexts {
            return Err(FabricError::ContextOutOfRange { ctx, contexts });
        }
        for tc in &mut self.tiles {
            tc.lut.program(ctx, 0)?;
            for slot in &mut tc.sb[ctx] {
                *slot = None;
            }
        }
        self.input_binds.retain(|(_, _, c, _)| *c != ctx);
        self.output_binds.retain(|(_, _, c, _)| *c != ctx);
        Ok(())
    }

    /// Total cross-points (MC-switches) in the fabric.
    #[must_use]
    pub fn crosspoint_count(&self) -> usize {
        self.tiles()
            .map(|t| self.sources(t).len() * self.sinks(t).len())
            .sum()
    }

    /// Routing-switch transistors of the whole fabric under the configured
    /// architecture (column-shared select networks included for hybrid).
    #[must_use]
    pub fn routing_transistor_count(&self) -> usize {
        let c = self.params.contexts;
        let per_switch = match self.params.arch {
            ArchKind::Sram => SramMcSwitch::transistor_count_for(c),
            ArchKind::MvFgfp => MvFgfpMcSwitch::transistor_count_for(c),
            ArchKind::Hybrid => HybridMcSwitch::transistor_count_for(c),
        };
        let mut total = 0;
        for t in self.tiles() {
            let rows = self.sources(t).len();
            let cols = self.sinks(t).len();
            total += rows * cols * per_switch;
            if self.params.arch == ArchKind::Hybrid {
                total += cols * HybridMcSwitch::select_transistors_for(c);
            }
        }
        total
    }

    /// LUT configuration bits of the whole fabric (per-context planes).
    #[must_use]
    pub fn lut_config_bits(&self) -> usize {
        self.tiles.len() * self.params.contexts * (1 << self.params.lut_k)
    }

    /// Content digest of one context's configuration plane: geometry, the
    /// context id, every tile's LUT table and switch-block row for `ctx`,
    /// and the context's IO bindings (FNV-1a, 64-bit).
    ///
    /// Two fabrics with equal digests for a context produce identical
    /// compiled planes ([`crate::compiled::CompiledFabric::compile_context`]
    /// reads exactly the hashed state), so the digest is a sound cache key
    /// for compiled-plane reuse: re-admitting an identical bitstream into a
    /// same-shaped fabric never needs a recompile.
    pub fn context_digest(&self, ctx: usize) -> Result<u64, FabricError> {
        if ctx >= self.params.contexts {
            return Err(FabricError::ContextOutOfRange {
                ctx,
                contexts: self.params.contexts,
            });
        }
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut put = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        put(&[self.params.arch.code()]);
        for v in [
            self.params.width,
            self.params.height,
            self.params.channel_width,
            self.params.lut_k,
            self.params.contexts,
            self.params.io_in,
            self.params.io_out,
            ctx,
        ] {
            put(&(v as u64).to_le_bytes());
        }
        for tc in &self.tiles {
            put(&tc.lut.table(ctx)?.to_le_bytes());
            for slot in &tc.sb[ctx] {
                match slot {
                    Some(s) => put(&(u32::from(*s) + 1).to_le_bytes()),
                    None => put(&0u32.to_le_bytes()),
                }
            }
        }
        // each bind list is prefixed with a distinct tag and its length so
        // moving a bind between the input and output lists (or across the
        // list boundary) can never produce a colliding digest
        let mut put_binds = |tag: u8, binds: &[(TileCoord, usize, usize, String)]| {
            put(&[tag]);
            let count = binds.iter().filter(|(_, _, c, _)| *c == ctx).count();
            put(&(count as u64).to_le_bytes());
            for (t, port, c, name) in binds {
                if *c != ctx {
                    continue;
                }
                put(&(t.x as u64).to_le_bytes());
                put(&(t.y as u64).to_le_bytes());
                put(&(*port as u64).to_le_bytes());
                put(&(name.len() as u64).to_le_bytes());
                put(name.as_bytes());
            }
        };
        put_binds(0x49, &self.input_binds); // 'I'
        put_binds(0x4F, &self.output_binds); // 'O'
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fabric {
        Fabric::new(FabricParams {
            width: 3,
            height: 2,
            channel_width: 2,
            lut_k: 4,
            contexts: 4,
            io_in: 2,
            io_out: 2,
            arch: ArchKind::Hybrid,
        })
        .unwrap()
    }

    #[test]
    fn geometry_and_neighbors() {
        let f = small();
        assert_eq!(f.tiles().count(), 6);
        let t = TileCoord { x: 0, y: 0 };
        assert_eq!(f.neighbor(t, Dir::West), None);
        assert_eq!(f.neighbor(t, Dir::North), None);
        assert_eq!(f.neighbor(t, Dir::East), Some(TileCoord { x: 1, y: 0 }));
        assert_eq!(f.neighbor(t, Dir::South), Some(TileCoord { x: 0, y: 1 }));
    }

    #[test]
    fn corner_tiles_have_fewer_wires() {
        let f = small();
        let corner = TileCoord { x: 0, y: 0 };
        let mid = TileCoord { x: 1, y: 0 };
        // corner: E+S = 2 dirs × 2 wires + lut + 2 io = 7 sources
        assert_eq!(f.sources(corner).len(), 7);
        // mid top row: E+S+W = 3 dirs × 2 + 1 + 2 = 9
        assert_eq!(f.sources(mid).len(), 9);
        // sinks: corner = 4 wires + 4 lutin + 2 ioout = 10
        assert_eq!(f.sinks(corner).len(), 10);
    }

    #[test]
    fn arithmetic_indices_are_list_positions() {
        // (width, height, channel_width, lut_k, io_in, io_out)
        for (width, height, channel_width, lut_k, io_in, io_out) in [
            (1, 1, 1, 1, 1, 1),
            (3, 2, 2, 4, 2, 2),
            (8, 8, 6, 4, 2, 2),
            (5, 3, 3, 6, 3, 1),
            (1, 4, 16, 2, 0, 0),
        ] {
            let f = Fabric::new(FabricParams {
                width,
                height,
                channel_width,
                lut_k,
                io_in,
                io_out,
                ..FabricParams::default()
            })
            .unwrap();
            // every tile, plus coordinates just off and far off the grid
            let off = [
                TileCoord { x: width, y: 0 },
                TileCoord { x: 0, y: height },
                TileCoord {
                    x: width + 3,
                    y: height + 3,
                },
            ];
            for t in f.tiles().chain(off) {
                let (sinks, sources) = (f.sinks(t), f.sources(t));
                let mut all_sinks = vec![];
                let mut all_sources = vec![Source::LutOut];
                for dir in Dir::ALL {
                    for w in 0..=channel_width {
                        all_sinks.push(Sink::WireTo { dir, w });
                        all_sources.push(Source::WireFrom { dir, w });
                    }
                }
                all_sinks.extend((0..=lut_k).map(Sink::LutIn));
                all_sinks.extend((0..=io_out).map(Sink::IoOut));
                all_sources.extend((0..=io_in).map(Source::IoIn));
                for s in all_sinks {
                    let at = sinks.iter().position(|x| *x == s);
                    assert_eq!(f.sink_index(t, s), at, "{t} {s:?}");
                }
                for s in all_sources {
                    let at = sources.iter().position(|x| *x == s);
                    assert_eq!(f.source_index(t, s), at, "{t} {s:?}");
                }
            }
        }
    }

    #[test]
    fn route_set_get_roundtrip() {
        let mut f = small();
        let t = TileCoord { x: 1, y: 0 };
        let sink = Sink::LutIn(2);
        let src = Source::WireFrom {
            dir: Dir::West,
            w: 1,
        };
        f.set_route(t, 3, sink, Some(src)).unwrap();
        assert_eq!(f.route_of(t, 3, sink).unwrap(), Some(src));
        assert_eq!(f.route_of(t, 2, sink).unwrap(), None);
        f.set_route(t, 3, sink, None).unwrap();
        assert_eq!(f.route_of(t, 3, sink).unwrap(), None);
    }

    #[test]
    fn io_bindings() {
        let mut f = small();
        let t = TileCoord { x: 0, y: 1 };
        f.bind_input(t, 0, 1, "a").unwrap();
        f.bind_input(t, 0, 1, "b").unwrap(); // rebind replaces
        assert_eq!(f.input_binds().len(), 1);
        assert_eq!(f.input_binds()[0].3, "b");
        assert!(f.bind_input(t, 5, 0, "x").is_err());
        f.bind_output(t, 1, 0, "y").unwrap();
        assert_eq!(f.output_binds().len(), 1);
    }

    #[test]
    fn bindings_refuse_a_context_the_fabric_lacks() {
        let mut f = small();
        let t = TileCoord { x: 0, y: 1 };
        for ctx in [4, 99] {
            assert!(matches!(
                f.bind_input(t, 0, ctx, "a"),
                Err(FabricError::BadParams(_))
            ));
            assert!(matches!(
                f.bind_output(t, 0, ctx, "y"),
                Err(FabricError::BadParams(_))
            ));
        }
        assert!(f.input_binds().is_empty() && f.output_binds().is_empty());
        f.bind_input(t, 0, 3, "a").unwrap();
        f.bind_output(t, 0, 3, "y").unwrap();
    }

    #[test]
    fn clear_context_only_touches_one_plane() {
        let mut f = small();
        let t = TileCoord { x: 0, y: 0 };
        f.set_route(t, 0, Sink::LutIn(0), Some(Source::LutOut))
            .unwrap();
        f.set_route(t, 1, Sink::LutIn(0), Some(Source::LutOut))
            .unwrap();
        f.clear_context(0).unwrap();
        assert_eq!(f.route_of(t, 0, Sink::LutIn(0)).unwrap(), None);
        assert_eq!(
            f.route_of(t, 1, Sink::LutIn(0)).unwrap(),
            Some(Source::LutOut)
        );
    }

    #[test]
    fn transistor_rollup_orders() {
        let mk = |arch| {
            Fabric::new(FabricParams {
                arch,
                ..FabricParams::default()
            })
            .unwrap()
            .routing_transistor_count()
        };
        let sram = mk(ArchKind::Sram);
        let mv = mk(ArchKind::MvFgfp);
        let hy = mk(ArchKind::Hybrid);
        assert!(hy < mv && mv < sram);
        // fabric-level ratio close to the per-switch 2/31 with select overhead
        let ratio = hy as f64 / sram as f64;
        assert!(ratio < 0.12, "ratio {ratio}");
    }

    #[test]
    fn crosspoint_count_is_consistent() {
        let f = small();
        let manual: usize = f
            .tiles()
            .map(|t| f.sources(t).len() * f.sinks(t).len())
            .sum();
        assert_eq!(f.crosspoint_count(), manual);
        assert_eq!(f.lut_config_bits(), 6 * 4 * 16);
    }
}
