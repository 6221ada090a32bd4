//! Simulated-annealing placement of LUT nodes onto fabric tiles.
//!
//! Cost = total half-perimeter wirelength over nets (each LUT's fanin edges,
//! with primary inputs ignored since their sites are chosen later). One LUT
//! per tile per context.
//!
//! The annealer works on dense arrays: a LUT→tile vector, a tile→LUT
//! table and, per LUT, the edges that touch it. A move rescores only the
//! edges of the two LUTs it swaps; the delta is an exact integer, so it
//! accepts exactly the moves a full recount would, drawing the same
//! random numbers in the same order.

use crate::array::{FabricParams, TileCoord};
use crate::netlist_ir::{LogicNetlist, Node, NodeId};
use crate::FabricError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Places every LUT node of `netlist` on a distinct tile.
pub fn place_luts(
    netlist: &LogicNetlist,
    params: &FabricParams,
    seed: u64,
) -> Result<HashMap<NodeId, TileCoord>, FabricError> {
    let luts = netlist.lut_ids();
    let tiles = anneal(netlist, &luts, params, seed)?;
    Ok(luts.into_iter().zip(tiles).collect())
}

/// No LUT on this tile.
const FREE: u32 = u32::MAX;

/// The tile of each of `luts` (`netlist.lut_ids()`), in that order.
pub(crate) fn anneal(
    netlist: &LogicNetlist,
    luts: &[NodeId],
    params: &FabricParams,
    seed: u64,
) -> Result<Vec<TileCoord>, FabricError> {
    let capacity = params.width * params.height;
    if luts.len() > capacity {
        return Err(FabricError::PlacementFailed(format!(
            "{} LUTs > {capacity} tiles",
            luts.len()
        )));
    }
    let width = params.width;
    let coord = |tile: usize| TileCoord {
        x: tile % width,
        y: tile / width,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    // initial: random assignment over shuffled tiles
    let mut tiles: Vec<usize> = (0..capacity).collect();
    tiles.shuffle(&mut rng);
    // pos[lut] = tile, at[tile] = lut or FREE
    let mut pos: Vec<usize> = tiles[..luts.len()].to_vec();
    if luts.len() <= 1 {
        return Ok(pos.into_iter().map(coord).collect());
    }
    let mut at = vec![FREE; capacity];
    for (lut, &tile) in pos.iter().enumerate() {
        at[tile] = lut as u32;
    }

    // edges between placeable nodes, as LUT indices, and per LUT the
    // edges touching it
    let mut lut_of = vec![FREE; netlist.nodes().len()];
    for (i, id) in luts.iter().enumerate() {
        lut_of[id.0] = i as u32;
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (i, id) in luts.iter().enumerate() {
        if let Node::Lut { fanin, .. } = netlist.node(*id) {
            for f in fanin {
                if lut_of[f.0] != FREE {
                    edges.push((lut_of[f.0], i as u32));
                }
            }
        }
    }
    let mut touching: Vec<Vec<u32>> = vec![Vec::new(); luts.len()];
    for (e, &(a, b)) in edges.iter().enumerate() {
        touching[a as usize].push(e as u32);
        touching[b as usize].push(e as u32);
    }
    let xy: Vec<TileCoord> = (0..capacity).map(coord).collect();
    let length = |pos: &[usize], e: u32| -> i64 {
        let (a, b) = edges[e as usize];
        let (ta, tb) = (xy[pos[a as usize]], xy[pos[b as usize]]);
        (ta.x.abs_diff(tb.x) + ta.y.abs_diff(tb.y)) as i64
    };
    // the summed length of the edges touching `a` or `b`: an edge between
    // the two counts twice, but a swap leaves its length as it was
    let local = |pos: &[usize], a: usize, b: Option<usize>| -> i64 {
        let edges_of = |lut: usize| -> i64 { touching[lut].iter().map(|&e| length(pos, e)).sum() };
        edges_of(a) + b.map_or(0, edges_of)
    };

    let cost: i64 = (0..edges.len() as u32).map(|e| length(&pos, e)).sum();
    let mut temp = 2.0 * (cost.max(1) as f64) / edges.len().max(1) as f64;
    let moves_per_temp = 16 * luts.len();
    while temp > 0.01 {
        for _ in 0..moves_per_temp {
            // swap a LUT with another LUT's tile or a free tile
            let a = rng.random_range(0..luts.len());
            let target = tiles[rng.random_range(0..tiles.len())];
            let b = (at[target] != FREE).then(|| at[target] as usize);
            if b == Some(a) {
                continue;
            }
            let old_a = pos[a];
            let before = local(&pos, a, b);
            pos[a] = target;
            at[target] = a as u32;
            at[old_a] = FREE;
            if let Some(b) = b {
                pos[b] = old_a;
                at[old_a] = b as u32;
            }
            let delta = local(&pos, a, b) - before;
            let accept = delta <= 0 || rng.random_range(0.0..1.0) < (-(delta as f64) / temp).exp();
            if !accept {
                pos[a] = old_a;
                at[old_a] = a as u32;
                at[target] = FREE;
                if let Some(b) = b {
                    pos[b] = target;
                    at[target] = b as u32;
                }
            }
        }
        temp *= 0.8;
    }
    Ok(pos.into_iter().map(coord).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist_ir::generators;

    fn params(w: usize, h: usize) -> FabricParams {
        FabricParams {
            width: w,
            height: h,
            ..FabricParams::default()
        }
    }

    /// The annealer as a full recount: every move finds the LUT on the
    /// target tile by a scan and re-sums every edge. The dense annealer
    /// must make exactly its decisions.
    fn recount_anneal(nl: &LogicNetlist, p: &FabricParams, seed: u64) -> Vec<TileCoord> {
        let luts = nl.lut_ids();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tiles: Vec<TileCoord> = (0..p.width * p.height)
            .map(|i| TileCoord {
                x: i % p.width,
                y: i / p.width,
            })
            .collect();
        tiles.shuffle(&mut rng);
        let mut pos: Vec<TileCoord> = tiles[..luts.len()].to_vec();
        if luts.len() <= 1 {
            return pos;
        }
        let lut = |id: NodeId| luts.iter().position(|l| *l == id);
        let mut edges = vec![];
        for (i, id) in luts.iter().enumerate() {
            if let Node::Lut { fanin, .. } = nl.node(*id) {
                edges.extend(fanin.iter().filter_map(|f| lut(*f)).map(|f| (f, i)));
            }
        }
        let cost = |pos: &[TileCoord]| -> usize {
            edges
                .iter()
                .map(|&(a, b)| pos[a].x.abs_diff(pos[b].x) + pos[a].y.abs_diff(pos[b].y))
                .sum()
        };
        let mut cur = cost(&pos);
        let mut temp = 2.0 * (cur.max(1) as f64) / edges.len().max(1) as f64;
        while temp > 0.01 {
            for _ in 0..16 * luts.len() {
                let a = rng.random_range(0..luts.len());
                let target = tiles[rng.random_range(0..tiles.len())];
                let b = pos.iter().position(|t| *t == target);
                if b == Some(a) {
                    continue;
                }
                let old = pos.clone();
                pos[a] = target;
                if let Some(b) = b {
                    pos[b] = old[a];
                }
                let new = cost(&pos);
                let delta = new as f64 - cur as f64;
                if delta <= 0.0 || rng.random_range(0.0..1.0) < (-delta / temp).exp() {
                    cur = new;
                } else {
                    pos = old;
                }
            }
            temp *= 0.8;
        }
        pos
    }

    #[test]
    fn incremental_deltas_make_the_full_recounts_decisions() {
        let designs = [
            generators::ripple_adder(3).unwrap(),
            generators::ripple_adder(8).unwrap(),
            generators::parity_tree(8).unwrap(),
            generators::mux_tree(2).unwrap(),
            generators::equality_comparator(6).unwrap(),
            generators::wire_lanes(3).unwrap(),
        ];
        for nl in &designs {
            for (w, h) in [(4, 4), (3, 6), (8, 8)] {
                let p = params(w, h);
                if nl.lut_count() > w * h {
                    continue;
                }
                for seed in [0, 7, 0x5EED_0000] {
                    let got = place_luts(nl, &p, seed).unwrap();
                    let want = recount_anneal(nl, &p, seed);
                    for (id, t) in nl.lut_ids().into_iter().zip(want) {
                        assert_eq!(got[&id], t, "{w}x{h} seed {seed} node {}", id.0);
                    }
                }
            }
        }
    }

    #[test]
    fn placement_is_injective() {
        let nl = generators::ripple_adder(4).unwrap();
        let p = params(4, 4);
        let pos = place_luts(&nl, &p, 3).unwrap();
        assert_eq!(pos.len(), nl.lut_count());
        let mut seen: Vec<TileCoord> = pos.values().copied().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), pos.len(), "one LUT per tile");
    }

    #[test]
    fn too_many_luts_fails() {
        let nl = generators::ripple_adder(8).unwrap(); // 16 LUTs
        let p = params(2, 2);
        assert!(matches!(
            place_luts(&nl, &p, 0),
            Err(FabricError::PlacementFailed(_))
        ));
    }

    #[test]
    fn annealing_beats_random_on_chains() {
        // long carry chain: SA should pull connected LUTs together
        let nl = generators::ripple_adder(6).unwrap();
        let p = params(6, 6);
        let pos = place_luts(&nl, &p, 11).unwrap();
        // recompute cost
        let mut cost = 0usize;
        for id in nl.lut_ids() {
            if let crate::netlist_ir::Node::Lut { fanin, .. } = nl.node(id) {
                for f in fanin {
                    if matches!(nl.node(*f), crate::netlist_ir::Node::Lut { .. }) {
                        let (a, b) = (pos[f], pos[&id]);
                        cost += a.x.abs_diff(b.x) + a.y.abs_diff(b.y);
                    }
                }
            }
        }
        // 11 edges on a 6x6 grid: random placement averages ~4 per edge (44);
        // annealed should be far tighter.
        assert!(cost <= 30, "cost {cost}");
    }

    #[test]
    fn single_lut_trivial() {
        let nl = generators::wire_lanes(1).unwrap();
        let pos = place_luts(&nl, &params(2, 2), 5).unwrap();
        assert_eq!(pos.len(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let nl = generators::parity_tree(8).unwrap();
        let p = params(4, 4);
        assert_eq!(
            place_luts(&nl, &p, 9).unwrap(),
            place_luts(&nl, &p, 9).unwrap()
        );
    }
}
