//! Maze routing through the multi-context switch blocks, and the full
//! netlist→fabric mapping flow for one context.

use crate::array::{Dir, Fabric, FabricParams, Sink, Source, TileCoord};
use crate::netlist_ir::{LogicNetlist, Node, NodeId};
use crate::place::anneal;
use crate::FabricError;
use std::collections::HashMap;

/// A routing-resource node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RRNode {
    /// Output wire of `tile` toward `dir`, index `w` (terminates at the
    /// neighbour).
    Wire {
        /// Producing tile.
        tile: TileCoord,
        /// Direction of travel.
        dir: Dir,
        /// Channel index.
        w: usize,
    },
    /// LUT input pin.
    LutIn {
        /// Tile.
        tile: TileCoord,
        /// Pin.
        pin: usize,
    },
    /// LUT output.
    LutOut {
        /// Tile.
        tile: TileCoord,
    },
    /// External input port.
    IoIn {
        /// Tile.
        tile: TileCoord,
        /// Port.
        port: usize,
    },
    /// External output port.
    IoOut {
        /// Tile.
        tile: TileCoord,
        /// Port.
        port: usize,
    },
}

/// The geometry a [`Router`]'s tables are sized for, and the dense index
/// of every sink-capable resource: `tile * stride + slot`, where `slot`
/// is `dir * channel_width + w` for a wire (all four directions, edge or
/// not), then the LUT input pins, then the output ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Grid {
    width: usize,
    height: usize,
    channel_width: usize,
    lut_k: usize,
    io_in: usize,
    io_out: usize,
}

impl Grid {
    fn of(p: &FabricParams) -> Self {
        Grid {
            width: p.width,
            height: p.height,
            channel_width: p.channel_width,
            lut_k: p.lut_k,
            io_in: p.io_in,
            io_out: p.io_out,
        }
    }

    fn stride(&self) -> usize {
        4 * self.channel_width + self.lut_k + self.io_out
    }

    fn tiles(&self) -> usize {
        self.width * self.height
    }

    fn tile(&self, t: TileCoord) -> Option<usize> {
        (t.x < self.width && t.y < self.height).then(|| t.y * self.width + t.x)
    }

    fn coord(&self, tile: usize) -> TileCoord {
        TileCoord {
            x: tile % self.width,
            y: tile / self.width,
        }
    }

    /// The tile next to `tile` toward `dir`, if on the grid.
    fn step(&self, tile: usize, dir: Dir) -> Option<usize> {
        let t = self.coord(tile);
        let (dx, dy) = dir.delta();
        let x = t.x.checked_add_signed(dx)?;
        let y = t.y.checked_add_signed(dy)?;
        self.tile(TileCoord { x, y })
    }

    /// Dense index of a sink-capable node; `None` for sources and for
    /// nodes this geometry lacks.
    fn index(&self, n: &RRNode) -> Option<usize> {
        let (tile, slot) = match *n {
            RRNode::Wire { tile, dir, w } if w < self.channel_width => {
                (tile, dir as usize * self.channel_width + w)
            }
            RRNode::LutIn { tile, pin } if pin < self.lut_k => (tile, 4 * self.channel_width + pin),
            RRNode::IoOut { tile, port } if port < self.io_out => {
                (tile, 4 * self.channel_width + self.lut_k + port)
            }
            _ => return None,
        };
        Some(self.tile(tile)? * self.stride() + slot)
    }

    /// The node at dense index `i`, as the sink it is at its own tile.
    fn sink(&self, i: usize) -> (TileCoord, Sink, RRNode) {
        let (tile, slot) = (self.coord(i / self.stride()), i % self.stride());
        let wires = 4 * self.channel_width;
        if slot < wires {
            let (dir, w) = (
                Dir::ALL[slot / self.channel_width],
                slot % self.channel_width,
            );
            (tile, Sink::WireTo { dir, w }, RRNode::Wire { tile, dir, w })
        } else if slot < wires + self.lut_k {
            let pin = slot - wires;
            (tile, Sink::LutIn(pin), RRNode::LutIn { tile, pin })
        } else {
            let port = slot - wires - self.lut_k;
            (tile, Sink::IoOut(port), RRNode::IoOut { tile, port })
        }
    }

    /// Where the search expands from `source`, and the crossbar row it
    /// drives there. Refuses a source off this grid or past its
    /// channel or port count; a pin (a sink) expands nowhere.
    fn source(&self, source: &RRNode) -> Result<Option<(usize, Source)>, FabricError> {
        let bad = |t: TileCoord| FabricError::BadTile { x: t.x, y: t.y };
        Ok(match *source {
            RRNode::Wire { tile, dir, w } => {
                let from = self.tile(tile).filter(|_| w < self.channel_width);
                let from = from.ok_or_else(|| bad(tile))?;
                self.step(from, dir).map(|site| {
                    let row = Source::WireFrom {
                        dir: dir.opposite(),
                        w,
                    };
                    (site, row)
                })
            }
            RRNode::LutOut { tile } => {
                Some((self.tile(tile).ok_or_else(|| bad(tile))?, Source::LutOut))
            }
            RRNode::IoIn { tile, port } => {
                let site = self.tile(tile).filter(|_| port < self.io_in);
                Some((site.ok_or_else(|| bad(tile))?, Source::IoIn(port)))
            }
            RRNode::LutIn { tile, .. } | RRNode::IoOut { tile, .. } => {
                self.tile(tile).ok_or_else(|| bad(tile))?;
                None
            }
        })
    }
}

/// `pred` of a start node: the search did not reach it.
const START: u32 = u32::MAX;
/// `next` past the edge of the grid.
const NO_TILE: u32 = u32::MAX;
/// `pred` of a node reached straight from the route's source.
const FROM_SOURCE: u32 = u32::MAX - 1;

/// Per-context router: owns sink occupancy so nets cannot collide.
///
/// Every sink-capable resource has a dense index (a wire, LUT pin or
/// output port's slot within its tile's block of the arrays); the
/// tables are sized from the first fabric the router routes in, and a
/// fabric of another geometry is refused. The breadth-first search runs
/// over reusable predecessor and visited arrays, stamped per search, so
/// a search allocates nothing once its queue has grown.
#[derive(Debug, Default)]
pub struct Router {
    grid: Option<Grid>,
    /// `next[tile * 4 + dir]`: the neighbouring tile, or `NO_TILE`.
    next: Vec<u32>,
    /// sink-capable resource → owning net.
    owner: Vec<Option<usize>>,
    /// net → the wires it owns, in the order it claimed them. The search
    /// seeds from this list, never from a walk of `owner`, so the same
    /// routing calls configure the same switches in every router.
    wires: HashMap<usize, Vec<u32>>,
    /// `mark[i] == stamp`: `i` was seeded or reached in this search, and
    /// `pred[i]` is where from.
    mark: Vec<u32>,
    pred: Vec<u32>,
    stamp: u32,
    queue: Vec<u32>,
}

impl Router {
    /// Fresh router (empty context plane).
    #[must_use]
    pub fn new() -> Self {
        Router::default()
    }

    /// Owner of a resource, if claimed.
    #[must_use]
    pub fn owner(&self, n: &RRNode) -> Option<usize> {
        self.owner[self.grid.as_ref()?.index(n)?]
    }

    /// Sizes the tables for `fabric`'s geometry on first use.
    fn fit(&mut self, fabric: &Fabric) -> Result<Grid, FabricError> {
        let grid = Grid::of(fabric.params());
        match self.grid {
            Some(g) if g == grid => {}
            Some(g) => {
                return Err(FabricError::BadParams(format!(
                    "router sized for {g:?} routes in {grid:?}"
                )))
            }
            None => {
                let n = grid.tiles() * grid.stride();
                self.grid = Some(grid);
                self.next = (0..grid.tiles() * 4)
                    .map(|i| {
                        grid.step(i / 4, Dir::ALL[i % 4])
                            .map_or(NO_TILE, |t| t as u32)
                    })
                    .collect();
                self.owner = vec![None; n];
                self.mark = vec![0; n];
                self.pred = vec![START; n];
            }
        }
        Ok(grid)
    }

    /// Routes `net` from `source` to `target`, writing switch configuration
    /// into `fabric` for context `ctx`. Returns the number of new hops.
    ///
    /// Wires already owned by the same net are free branch points (fanout
    /// from one crossbar row to many columns). The search is breadth
    /// first from the source, then the net's wires in claim order, and
    /// expands each site's sinks in [`Fabric::sinks`] order, stopping at
    /// the first hit. A source off the fabric (or past its channel or
    /// port count) is refused with [`FabricError::BadTile`].
    pub fn route(
        &mut self,
        fabric: &mut Fabric,
        ctx: usize,
        net: usize,
        source: RRNode,
        target: RRNode,
    ) -> Result<usize, FabricError> {
        let grid = self.fit(fabric)?;
        let start = grid.source(&source)?;
        let goal = grid.index(&target);
        let Some(via) = self.search(&grid, net, &source, start, goal) else {
            return Err(FabricError::RoutingFailed {
                net: format!("net {net} to {target:?}"),
                ctx,
            });
        };
        let goal = goal.expect("the search only reaches indexed nodes") as u32;
        // walk back to a start node, writing configuration for hops not
        // yet owned
        let mut hops = 0;
        let (mut cur, mut prev) = (goal, via);
        loop {
            let i = cur as usize;
            if self.owner[i] != Some(net) {
                let (site, sink, node) = grid.sink(i);
                let row = if prev == FROM_SOURCE {
                    start.expect("the source expanded").1
                } else {
                    let (_, from, _) = grid.sink(prev as usize);
                    let Sink::WireTo { dir, w } = from else {
                        unreachable!("only wires continue the search")
                    };
                    Source::WireFrom {
                        dir: dir.opposite(),
                        w,
                    }
                };
                fabric.set_route(site, ctx, sink, Some(row))?;
                self.owner[i] = Some(net);
                if matches!(node, RRNode::Wire { .. }) {
                    self.wires.entry(net).or_default().push(cur);
                }
                hops += 1;
            }
            if prev == FROM_SOURCE || self.pred[prev as usize] == START {
                break;
            }
            (cur, prev) = (prev, self.pred[prev as usize]);
        }
        Ok(hops)
    }

    /// Breadth-first search for `goal`; returns the node it was reached
    /// from (an index, or `FROM_SOURCE`).
    fn search(
        &mut self,
        grid: &Grid,
        net: usize,
        source: &RRNode,
        start: Option<(usize, Source)>,
        goal: Option<usize>,
    ) -> Option<u32> {
        if self.stamp == u32::MAX {
            self.mark.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let goal = goal?;
        // start set: the source, then every wire this net already owns
        if let Some(i) = grid.index(source) {
            self.mark[i] = stamp;
            self.pred[i] = START;
        }
        self.queue.clear();
        for &w in self.wires.get(&net).into_iter().flatten() {
            self.mark[w as usize] = stamp;
            self.pred[w as usize] = START;
            self.queue.push(w);
        }
        if let Some((site, _)) = start {
            if self.expand(grid, net, site, FROM_SOURCE, goal) {
                return Some(FROM_SOURCE);
            }
        }
        let mut head = 0;
        while let Some(&cur) = self.queue.get(head) {
            head += 1;
            let (tile, slot) = (cur as usize / grid.stride(), cur as usize % grid.stride());
            let site = self.next[tile * 4 + slot / grid.channel_width];
            debug_assert_ne!(site, NO_TILE, "queued wires lead to a tile");
            if self.expand(grid, net, site as usize, cur, goal) {
                return Some(cur);
            }
        }
        None
    }

    /// Visits the sinks of `site` in [`Fabric::sinks`] order, reached
    /// from `from`: true if one is `goal`, else queues the free wires.
    fn expand(&mut self, grid: &Grid, net: usize, site: usize, from: u32, goal: usize) -> bool {
        let base = site * grid.stride();
        let cw = grid.channel_width;
        let stamp = self.stamp;
        for dir in 0..4 {
            if self.next[site * 4 + dir] == NO_TILE {
                continue;
            }
            for w in 0..cw {
                let i = base + dir * cw + w;
                if self.mark[i] == stamp || self.owner[i].is_some_and(|o| o != net) {
                    continue;
                }
                if i == goal {
                    return true;
                }
                self.mark[i] = stamp;
                self.pred[i] = from;
                self.queue.push(i as u32);
            }
        }
        // pin sinks are terminal: only the goal itself matters
        goal >= base + 4 * cw
            && goal < base + grid.stride()
            && self.mark[goal] != stamp
            && self.owner[goal].is_none_or(|o| o == net)
    }
}

/// Expands a truth table over `f` fanins to a K-input LUT table (upper pins
/// don't-care).
#[must_use]
pub fn expand_table(table: u64, fanins: usize, k: usize) -> u64 {
    let rows = 1usize << k;
    let mask = (1usize << fanins) - 1;
    let mut out = 0u64;
    for row in 0..rows {
        if (table >> (row & mask)) & 1 == 1 {
            out |= 1 << row;
        }
    }
    out
}

/// Where each primary input/output of a mapped design landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortMap {
    /// Signal name.
    pub name: String,
    /// Tile hosting the port.
    pub tile: TileCoord,
    /// Port index on the tile.
    pub port: usize,
}

/// Summary of one context's mapping.
#[derive(Debug, Clone)]
pub struct RoutedDesign {
    /// Context the design occupies.
    pub ctx: usize,
    /// LUT placement.
    pub placement: HashMap<NodeId, TileCoord>,
    /// Primary input ports.
    pub inputs: Vec<PortMap>,
    /// Primary output ports.
    pub outputs: Vec<PortMap>,
    /// Total routed hops (wirelength proxy).
    pub wirelength: usize,
}

/// Full flow: place `netlist`, route every net, program LUT planes and bind
/// IO — all within context `ctx` of `fabric`.
pub fn implement_netlist(
    fabric: &mut Fabric,
    netlist: &LogicNetlist,
    ctx: usize,
    seed: u64,
) -> Result<RoutedDesign, FabricError> {
    let params = *fabric.params();
    if ctx >= params.contexts {
        return Err(FabricError::ContextOutOfRange {
            ctx,
            contexts: params.contexts,
        });
    }
    let luts = netlist.lut_ids();
    let sites = anneal(netlist, &luts, &params, seed)?;
    // node → its LUT's tile, or its input port
    let mut lut_tile = vec![None; netlist.nodes().len()];
    for (id, t) in luts.iter().zip(&sites) {
        lut_tile[id.0] = Some(*t);
    }
    let placed = |id: NodeId| lut_tile[id.0].expect("every LUT is placed");

    // ---- assign primary inputs to IoIn ports, round-robin over tiles ----
    let tiles: Vec<TileCoord> = fabric.tiles().collect();
    let tile_index = |t: TileCoord| t.y * params.width + t.x;
    let mut in_ports_used = vec![0usize; tiles.len()];
    let mut input_sites = vec![None; netlist.nodes().len()];
    let mut inputs = Vec::new();
    let mut tile_cursor = 0usize;
    for id in netlist.input_ids() {
        let Node::Input { name } = netlist.node(id) else {
            unreachable!()
        };
        // find next tile with a free input port
        let mut assigned = None;
        for _ in 0..tiles.len() {
            let t = tiles[tile_cursor % tiles.len()];
            tile_cursor += 1;
            let used = &mut in_ports_used[tile_index(t)];
            if *used < params.io_in {
                assigned = Some((t, *used));
                *used += 1;
                break;
            }
        }
        let (t, port) = assigned.ok_or_else(|| {
            FabricError::PlacementFailed(format!("no free input port for {name}"))
        })?;
        fabric.bind_input(t, port, ctx, name)?;
        input_sites[id.0] = Some((t, port));
        inputs.push(PortMap {
            name: name.clone(),
            tile: t,
            port,
        });
    }
    let input_site = |id: NodeId| input_sites[id.0].expect("every input is bound");

    // ---- program LUT planes ----
    for (id, &t) in luts.iter().zip(&sites) {
        let Node::Lut { fanin, table, .. } = netlist.node(*id) else {
            unreachable!()
        };
        let expanded = expand_table(*table, fanin.len(), params.lut_k);
        fabric.tile_mut(t)?.lut.program(ctx, expanded)?;
    }

    // ---- route nets: every LUT fanin pin, then primary outputs ----
    let mut router = Router::new();
    let mut wirelength = 0usize;
    let source_of = |id: NodeId| -> RRNode {
        match netlist.node(id) {
            Node::Input { .. } => {
                let (t, port) = input_site(id);
                RRNode::IoIn { tile: t, port }
            }
            Node::Lut { .. } => RRNode::LutOut { tile: placed(id) },
        }
    };
    for (id, &t) in luts.iter().zip(&sites) {
        let Node::Lut { fanin, .. } = netlist.node(*id) else {
            unreachable!()
        };
        for (pin, f) in fanin.iter().enumerate() {
            wirelength += router.route(
                fabric,
                ctx,
                f.0,
                source_of(*f),
                RRNode::LutIn { tile: t, pin },
            )?;
        }
    }

    // ---- primary outputs: claim an IoOut near the driver ----
    let mut out_ports_used = vec![0usize; tiles.len()];
    let mut outputs = Vec::new();
    for (name, driver) in netlist.outputs() {
        let prefer = match netlist.node(*driver) {
            Node::Lut { .. } => placed(*driver),
            Node::Input { .. } => input_site(*driver).0,
        };
        // scan tiles by manhattan distance from the driver for a free port
        let mut order: Vec<TileCoord> = tiles.clone();
        order.sort_by_key(|t| t.x.abs_diff(prefer.x) + t.y.abs_diff(prefer.y));
        let mut routed = false;
        for t in order {
            let used = &mut out_ports_used[tile_index(t)];
            if *used >= params.io_out {
                continue;
            }
            let target = RRNode::IoOut {
                tile: t,
                port: *used,
            };
            match router.route(fabric, ctx, driver.0, source_of(*driver), target) {
                Ok(h) => {
                    fabric.bind_output(t, *used, ctx, name)?;
                    outputs.push(PortMap {
                        name: name.clone(),
                        tile: t,
                        port: *used,
                    });
                    *used += 1;
                    wirelength += h;
                    routed = true;
                    break;
                }
                Err(FabricError::RoutingFailed { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        if !routed {
            return Err(FabricError::RoutingFailed {
                net: format!("output {name}"),
                ctx,
            });
        }
    }

    Ok(RoutedDesign {
        ctx,
        placement: luts.into_iter().zip(sites).collect(),
        inputs,
        outputs,
        wirelength,
    })
}

/// [`implement_netlist`] with placement-seed retries: maze routing on a
/// congested grid can fail for an unlucky placement; re-seeding the
/// annealer usually resolves it. Clears the context and retries up to
/// `attempts` times before giving up with the last routing error.
pub fn implement_netlist_robust(
    fabric: &mut Fabric,
    netlist: &LogicNetlist,
    ctx: usize,
    seed: u64,
    attempts: usize,
) -> Result<RoutedDesign, FabricError> {
    let mut last = None;
    for k in 0..attempts.max(1) {
        match implement_netlist(fabric, netlist, ctx, seed.wrapping_add(k as u64 * 0x9E37)) {
            Ok(d) => return Ok(d),
            Err(e @ (FabricError::RoutingFailed { .. } | FabricError::PlacementFailed(_))) => {
                fabric.clear_context(ctx)?;
                last = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FabricParams;
    use crate::netlist_ir::generators;

    fn fabric(w: usize, h: usize) -> Fabric {
        Fabric::new(FabricParams {
            width: w,
            height: h,
            channel_width: 2,
            ..FabricParams::default()
        })
        .unwrap()
    }

    #[test]
    fn expand_table_examples() {
        // xor over 2 fanins into a 4-LUT: repeats every 4 rows
        let e = expand_table(0b0110, 2, 4);
        for row in 0..16usize {
            assert_eq!((e >> row) & 1, ((0b0110 >> (row & 3)) & 1) as u64);
        }
    }

    #[test]
    fn route_single_hop() {
        let mut f = fabric(2, 1);
        let mut r = Router::new();
        let a = TileCoord { x: 0, y: 0 };
        let b = TileCoord { x: 1, y: 0 };
        let hops = r
            .route(
                &mut f,
                0,
                7,
                RRNode::LutOut { tile: a },
                RRNode::LutIn { tile: b, pin: 0 },
            )
            .unwrap();
        // lutout(a) -> wire(a,E) -> lutin(b): 2 configured sinks
        assert_eq!(hops, 2);
        // config written: wire East of a driven by LutOut
        assert_eq!(
            f.route_of(
                a,
                0,
                Sink::WireTo {
                    dir: Dir::East,
                    w: 0
                }
            )
            .unwrap(),
            Some(Source::LutOut)
        );
    }

    #[test]
    fn fanout_reuses_wires() {
        let mut f = fabric(3, 1);
        let mut r = Router::new();
        let a = TileCoord { x: 0, y: 0 };
        let b = TileCoord { x: 1, y: 0 };
        let c = TileCoord { x: 2, y: 0 };
        let src = RRNode::LutOut { tile: a };
        let h1 = r
            .route(&mut f, 0, 1, src, RRNode::LutIn { tile: c, pin: 0 })
            .unwrap();
        // branch to b: reuse the a→b wire, just one extra sink hop
        let h2 = r
            .route(&mut f, 0, 1, src, RRNode::LutIn { tile: b, pin: 1 })
            .unwrap();
        assert!(h2 < h1, "branch ({h2}) cheaper than trunk ({h1})");
        assert_eq!(h2, 1);
    }

    fn t(x: usize, y: usize) -> TileCoord {
        TileCoord { x, y }
    }

    fn wire(tile: TileCoord, dir: Dir, w: usize) -> RRNode {
        RRNode::Wire { tile, dir, w }
    }

    #[test]
    fn a_fanout_branches_from_owned_wires_and_claims_only_new_hops() {
        let mut f = fabric(3, 3);
        let mut r = Router::new();
        let src = RRNode::LutOut { tile: t(0, 0) };
        // trunk: (0,0) → (1,0) → (2,0)
        let trunk = r
            .route(
                &mut f,
                0,
                4,
                src,
                RRNode::LutIn {
                    tile: t(2, 0),
                    pin: 0,
                },
            )
            .unwrap();
        assert_eq!(trunk, 3, "two wires and the pin");
        let east = |x| wire(t(x, 0), Dir::East, 0);
        assert_eq!((r.owner(&east(0)), r.owner(&east(1))), (Some(4), Some(4)));
        let before: Vec<_> = f
            .tiles()
            .map(|x| f.tile(x).unwrap().sb[0].clone())
            .collect();
        // branch off the trunk wire arriving at (1,0), down to (1,1)
        let branch = r
            .route(
                &mut f,
                0,
                4,
                src,
                RRNode::LutIn {
                    tile: t(1, 1),
                    pin: 2,
                },
            )
            .unwrap();
        assert_eq!(branch, 2, "one new wire and the pin");
        let down = wire(t(1, 0), Dir::South, 0);
        assert_eq!(r.owner(&down), Some(4));
        assert_eq!(
            f.route_of(
                t(1, 0),
                0,
                Sink::WireTo {
                    dir: Dir::South,
                    w: 0
                }
            )
            .unwrap(),
            Some(Source::WireFrom {
                dir: Dir::West,
                w: 0
            }),
            "the branch leaves from the owned trunk wire"
        );
        // exactly two sinks changed, both new: the trunk is untouched
        let changed: usize = f
            .tiles()
            .zip(&before)
            .map(|(x, old)| {
                let new = &f.tile(x).unwrap().sb[0];
                new.iter().zip(old).filter(|(a, b)| a != b).count()
            })
            .sum();
        assert_eq!(changed, 2);
        // routing the same branch again claims nothing
        let again = r
            .route(
                &mut f,
                0,
                4,
                src,
                RRNode::LutIn {
                    tile: t(1, 1),
                    pin: 2,
                },
            )
            .unwrap();
        assert_eq!(again, 0);
    }

    #[test]
    fn the_walk_back_stops_at_the_source_even_where_an_earlier_search_reached_it() {
        let mut f = fabric(3, 1);
        let mut r = Router::new();
        // net 1's search reaches the second east wire into (2,0) without
        // claiming it: its first east wire gets there first
        r.route(
            &mut f,
            0,
            1,
            RRNode::LutOut { tile: t(0, 0) },
            RRNode::LutIn {
                tile: t(2, 0),
                pin: 0,
            },
        )
        .unwrap();
        let spare = wire(t(1, 0), Dir::East, 1);
        assert_eq!(r.owner(&spare), None);
        // net 2 starts on that wire: one hop, and the source stays free
        let hops = r
            .route(
                &mut f,
                0,
                2,
                spare,
                RRNode::LutIn {
                    tile: t(2, 0),
                    pin: 1,
                },
            )
            .unwrap();
        assert_eq!(hops, 1);
        assert_eq!(r.owner(&spare), None);
        assert_eq!(
            f.route_of(
                t(1, 0),
                0,
                Sink::WireTo {
                    dir: Dir::East,
                    w: 1
                }
            )
            .unwrap(),
            None
        );
        assert_eq!(
            f.route_of(t(2, 0), 0, Sink::LutIn(1)).unwrap(),
            Some(Source::WireFrom {
                dir: Dir::West,
                w: 1
            })
        );
    }

    #[test]
    fn the_walk_back_stops_at_an_owned_wire() {
        let mut f = fabric(3, 1);
        let mut r = Router::new();
        let a = t(0, 0);
        r.route(
            &mut f,
            0,
            1,
            RRNode::LutOut { tile: a },
            RRNode::LutIn {
                tile: t(2, 0),
                pin: 0,
            },
        )
        .unwrap();
        let row = |f: &Fabric| {
            f.route_of(
                a,
                0,
                Sink::WireTo {
                    dir: Dir::East,
                    w: 0,
                },
            )
        };
        let trunk = row(&f).unwrap();
        // the same net from another source (an input port of a): its
        // owned wires are start nodes, so nothing before them is rewired
        let hops = r
            .route(
                &mut f,
                0,
                1,
                RRNode::IoIn { tile: a, port: 0 },
                RRNode::LutIn {
                    tile: t(2, 0),
                    pin: 3,
                },
            )
            .unwrap();
        assert_eq!(hops, 1);
        assert_eq!(row(&f).unwrap(), trunk, "the first hop keeps its driver");
        // a source that expands nowhere (a pin) still branches from them
        let hops = r
            .route(
                &mut f,
                0,
                1,
                RRNode::LutIn {
                    tile: t(2, 0),
                    pin: 0,
                },
                RRNode::LutIn {
                    tile: t(1, 0),
                    pin: 1,
                },
            )
            .unwrap();
        assert_eq!(hops, 1);
    }

    #[test]
    fn a_target_owned_by_another_net_fails() {
        let mut f = fabric(2, 1);
        let mut r = Router::new();
        let pin = RRNode::LutIn {
            tile: t(1, 0),
            pin: 0,
        };
        r.route(&mut f, 0, 1, RRNode::LutOut { tile: t(0, 0) }, pin)
            .unwrap();
        let driver = f.route_of(t(1, 0), 0, Sink::LutIn(0)).unwrap();
        let err = r.route(
            &mut f,
            0,
            2,
            RRNode::IoIn {
                tile: t(1, 0),
                port: 0,
            },
            pin,
        );
        assert!(matches!(
            err,
            Err(FabricError::RoutingFailed { ctx: 0, .. })
        ));
        assert_eq!(r.owner(&pin), Some(1));
        assert_eq!(f.route_of(t(1, 0), 0, Sink::LutIn(0)).unwrap(), driver);
    }

    #[test]
    fn owner_of_claimed_free_and_off_grid_nodes() {
        let mut f = fabric(2, 2);
        let mut r = Router::new();
        let east = wire(t(0, 0), Dir::East, 0);
        assert_eq!(r.owner(&east), None, "a fresh router owns nothing");
        r.route(
            &mut f,
            0,
            9,
            RRNode::LutOut { tile: t(0, 0) },
            RRNode::IoOut {
                tile: t(1, 0),
                port: 1,
            },
        )
        .unwrap();
        assert_eq!(r.owner(&east), Some(9));
        assert_eq!(
            r.owner(&RRNode::IoOut {
                tile: t(1, 0),
                port: 1
            }),
            Some(9)
        );
        assert_eq!(
            r.owner(&RRNode::IoOut {
                tile: t(1, 0),
                port: 0
            }),
            None
        );
        assert_eq!(r.owner(&wire(t(0, 0), Dir::South, 1)), None);
        // sources are never owned; nodes off the grid or past its
        // channel, pin or port count do not exist
        assert_eq!(r.owner(&RRNode::LutOut { tile: t(0, 0) }), None);
        assert_eq!(r.owner(&wire(t(2, 0), Dir::West, 0)), None);
        assert_eq!(r.owner(&wire(t(0, 0), Dir::East, 2)), None);
        assert_eq!(
            r.owner(&RRNode::LutIn {
                tile: t(0, 5),
                pin: 0
            }),
            None
        );
        assert_eq!(
            r.owner(&RRNode::LutIn {
                tile: t(1, 0),
                pin: 4
            }),
            None
        );
    }

    #[test]
    fn a_bad_source_or_another_geometry_is_refused() {
        let mut f = fabric(2, 2);
        let mut r = Router::new();
        let target = RRNode::LutIn {
            tile: t(1, 1),
            pin: 0,
        };
        for source in [
            RRNode::LutOut { tile: t(2, 0) },
            RRNode::IoIn {
                tile: t(0, 0),
                port: 2,
            },
            wire(t(0, 0), Dir::East, 2),
        ] {
            assert!(matches!(
                r.route(&mut f, 0, 1, source, target),
                Err(FabricError::BadTile { .. })
            ));
        }
        let mut other = fabric(3, 2);
        assert!(matches!(
            r.route(&mut other, 0, 1, RRNode::LutOut { tile: t(0, 0) }, target),
            Err(FabricError::BadParams(_))
        ));
        // nothing was claimed along the way
        r.route(&mut f, 0, 1, RRNode::LutOut { tile: t(0, 0) }, target)
            .unwrap();
    }

    #[test]
    fn occupancy_blocks_other_nets() {
        let mut f = Fabric::new(FabricParams {
            width: 2,
            height: 1,
            channel_width: 1,
            ..FabricParams::default()
        })
        .unwrap();
        let mut r = Router::new();
        let a = TileCoord { x: 0, y: 0 };
        let b = TileCoord { x: 1, y: 0 };
        r.route(
            &mut f,
            0,
            1,
            RRNode::LutOut { tile: a },
            RRNode::LutIn { tile: b, pin: 0 },
        )
        .unwrap();
        // second net from a's IoIn must fail east: only 1 wire and it's taken
        let err = r.route(
            &mut f,
            0,
            2,
            RRNode::IoIn { tile: a, port: 0 },
            RRNode::LutIn { tile: b, pin: 1 },
        );
        assert!(matches!(err, Err(FabricError::RoutingFailed { .. })));
    }

    #[test]
    fn implement_wire_lanes() {
        let nl = generators::wire_lanes(3).unwrap();
        let mut f = fabric(3, 3);
        let d = implement_netlist(&mut f, &nl, 0, 42).unwrap();
        assert_eq!(d.inputs.len(), 3);
        assert_eq!(d.outputs.len(), 3);
        assert!(d.wirelength > 0);
    }

    #[test]
    fn implement_parity_tree() {
        let nl = generators::parity_tree(4).unwrap();
        let mut f = fabric(3, 3);
        let d = implement_netlist(&mut f, &nl, 2, 7).unwrap();
        assert_eq!(d.ctx, 2);
        assert_eq!(d.placement.len(), 3, "three XOR luts");
    }

    #[test]
    fn robust_implement_retries_to_success() {
        // a tight grid where some placements fail to route: the robust
        // variant must find a working seed
        let nl = generators::ripple_adder(3).unwrap(); // 6 LUTs
        let mut f = Fabric::new(FabricParams {
            width: 3,
            height: 3,
            channel_width: 2,
            ..FabricParams::default()
        })
        .unwrap();
        let d = implement_netlist_robust(&mut f, &nl, 0, 0, 16).unwrap();
        assert_eq!(d.placement.len(), 6);
    }

    #[test]
    fn robust_implement_propagates_hard_errors() {
        let nl = generators::ripple_adder(8).unwrap(); // 16 LUTs > 4 tiles
        let mut f = fabric(2, 2);
        assert!(matches!(
            implement_netlist_robust(&mut f, &nl, 0, 0, 3),
            Err(FabricError::PlacementFailed(_))
        ));
    }
}
