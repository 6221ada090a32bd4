//! Maze routing through the multi-context switch blocks, and the full
//! netlist→fabric mapping flow for one context.

use crate::array::{Dir, Fabric, Sink, Source, TileCoord};
use crate::netlist_ir::{LogicNetlist, Node, NodeId};
use crate::place::place_luts;
use crate::FabricError;
use std::collections::{HashMap, VecDeque};

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

impl RRNode {
    /// The tile at which this node can act as a crossbar **source**.
    fn source_site(&self, fabric: &Fabric) -> Option<TileCoord> {
        match *self {
            RRNode::Wire { tile, dir, .. } => fabric.neighbor(tile, dir),
            RRNode::LutOut { tile } => Some(tile),
            RRNode::IoIn { tile, .. } => Some(tile),
            _ => None,
        }
    }

    /// The crossbar `Source` this node presents at its source site.
    fn as_source(&self, site: TileCoord) -> Source {
        match *self {
            RRNode::Wire { dir, w, .. } => Source::WireFrom {
                dir: dir.opposite(),
                w,
            },
            RRNode::LutOut { .. } => Source::LutOut,
            RRNode::IoIn { port, .. } => Source::IoIn(port),
            _ => unreachable!("sink nodes are not sources at {site}"),
        }
    }
}

/// Per-context router: owns sink occupancy so nets cannot collide.
#[derive(Debug, Default)]
pub struct Router {
    /// sink-capable resource → owning net.
    occupancy: HashMap<RRNode, usize>,
    /// net → the wires it owns, in the order it claimed them. The search
    /// seeds from this list, never from a walk of `occupancy`, so the
    /// same routing calls configure the same switches in every router.
    wires: HashMap<usize, Vec<RRNode>>,
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
        self.occupancy.get(n).copied()
    }

    /// Routes `net` from `source` to `target`, writing switch configuration
    /// into `fabric` for context `ctx`. Returns the number of new hops.
    ///
    /// Wires already owned by the same net are free branch points (fanout
    /// from one crossbar row to many columns).
    pub fn route(
        &mut self,
        fabric: &mut Fabric,
        ctx: usize,
        net: usize,
        source: RRNode,
        target: RRNode,
    ) -> Result<usize, FabricError> {
        let mut pred: HashMap<RRNode, RRNode> = HashMap::new();
        let mut queue: VecDeque<RRNode> = VecDeque::new();
        // start set: the source plus every wire this net already owns
        queue.push_back(source);
        queue.extend(self.wires.get(&net).into_iter().flatten().copied());
        let mut seen: HashMap<RRNode, ()> = queue.iter().map(|n| (*n, ())).collect();
        let mut found = false;
        while let Some(cur) = queue.pop_front() {
            let Some(site) = cur.source_site(fabric) else {
                continue;
            };
            for sink in fabric.sinks(site) {
                let cand = match sink {
                    Sink::WireTo { dir, w } => RRNode::Wire { tile: site, dir, w },
                    Sink::LutIn(pin) => RRNode::LutIn { tile: site, pin },
                    Sink::IoOut(port) => RRNode::IoOut { tile: site, port },
                };
                if seen.contains_key(&cand) {
                    continue;
                }
                match self.occupancy.get(&cand) {
                    Some(owner) if *owner != net => continue, // taken by another net
                    _ => {}
                }
                if cand == target {
                    pred.insert(cand, cur);
                    found = true;
                    queue.clear();
                    break;
                }
                // only wires continue the search; pin sinks are terminal
                if matches!(cand, RRNode::Wire { .. }) {
                    seen.insert(cand, ());
                    pred.insert(cand, cur);
                    queue.push_back(cand);
                }
            }
            if found {
                break;
            }
        }
        if !found {
            return Err(FabricError::RoutingFailed {
                net: format!("net {net} to {target:?}"),
                ctx,
            });
        }
        // walk back, writing configuration for hops not yet owned
        let mut hops = 0;
        let mut cur = target;
        while let Some(&prev) = pred.get(&cur) {
            if self.occupancy.get(&cur) != Some(&net) {
                let site = prev
                    .source_site(fabric)
                    .expect("prev expanded from a source site");
                let sink = match cur {
                    RRNode::Wire { dir, w, .. } => Sink::WireTo { dir, w },
                    RRNode::LutIn { pin, .. } => Sink::LutIn(pin),
                    RRNode::IoOut { port, .. } => Sink::IoOut(port),
                    _ => unreachable!("sources cannot be sinks"),
                };
                fabric.set_route(site, ctx, sink, Some(prev.as_source(site)))?;
                self.occupancy.insert(cur, net);
                if matches!(cur, RRNode::Wire { .. }) {
                    self.wires.entry(net).or_default().push(cur);
                }
                hops += 1;
            }
            if cur == source {
                break;
            }
            cur = prev;
        }
        Ok(hops)
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
    let placement = place_luts(netlist, &params, seed)?;

    // ---- assign primary inputs to IoIn ports, round-robin over tiles ----
    let tiles: Vec<TileCoord> = fabric.tiles().collect();
    let mut in_ports_free: HashMap<TileCoord, usize> = HashMap::new();
    let mut input_sites: HashMap<NodeId, (TileCoord, usize)> = HashMap::new();
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
            let used = in_ports_free.entry(t).or_insert(0);
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
        input_sites.insert(id, (t, port));
        inputs.push(PortMap {
            name: name.clone(),
            tile: t,
            port,
        });
    }

    // ---- program LUT planes ----
    for id in netlist.lut_ids() {
        let Node::Lut { fanin, table, .. } = netlist.node(id) else {
            unreachable!()
        };
        let t = placement[&id];
        let expanded = expand_table(*table, fanin.len(), params.lut_k);
        fabric.tile_mut(t)?.lut.program(ctx, expanded)?;
    }

    // ---- route nets: every LUT fanin pin, then primary outputs ----
    let mut router = Router::new();
    let mut wirelength = 0usize;
    let source_of = |id: NodeId| -> RRNode {
        match netlist.node(id) {
            Node::Input { .. } => {
                let (t, port) = input_sites[&id];
                RRNode::IoIn { tile: t, port }
            }
            Node::Lut { .. } => RRNode::LutOut {
                tile: placement[&id],
            },
        }
    };
    for id in netlist.lut_ids() {
        let Node::Lut { fanin, .. } = netlist.node(id) else {
            unreachable!()
        };
        let t = placement[&id];
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
    let mut out_ports_free: HashMap<TileCoord, usize> = HashMap::new();
    let mut outputs = Vec::new();
    for (name, driver) in netlist.outputs() {
        let prefer = match netlist.node(*driver) {
            Node::Lut { .. } => placement[driver],
            Node::Input { .. } => input_sites[driver].0,
        };
        // scan tiles by manhattan distance from the driver for a free port
        let mut order: Vec<TileCoord> = tiles.clone();
        order.sort_by_key(|t| t.x.abs_diff(prefer.x) + t.y.abs_diff(prefer.y));
        let mut routed = false;
        for t in order {
            let used = out_ports_free.entry(t).or_insert(0);
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
        placement,
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
