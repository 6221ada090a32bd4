//! Functional simulation of a configured fabric.
//!
//! Two engines share identical unknown-propagation semantics:
//!
//! * [`evaluate_fixpoint`] — the **reference** monotone fixpoint sweep:
//!   wires, LUT outputs and IO ports start unknown; each sweep copies
//!   values across configured switch-block routes and evaluates LUTs whose
//!   context plane is active. Values only move from unknown to known, so
//!   the sweep terminates; anything still unknown that a primary output
//!   depends on is reported as unresolved (combinational loop or undriven
//!   input). Simple, obviously correct, and slow — it re-scans every tile
//!   per sweep per vector through `HashMap` keys.
//! * [`crate::compiled::CompiledFabric`] — the production engine: compile
//!   once into dense levelized ops, then evaluate up to 256 input vectors
//!   per bit-parallel pass.
//!
//! [`evaluate_sorted`] keeps a one-vector API as a thin wrapper over the
//! compiled engine's name-keyed adapter; the equivalence of both engines
//! is enforced bit-for-bit by `tests/prop_compiled.rs`.

use crate::array::{Dir, Fabric, Sink, Source, TileCoord};
use crate::compiled::CompiledFabric;
use crate::FabricError;
use std::collections::HashMap;

/// Values of every routing resource after a successful evaluation.
#[derive(Debug, Clone, Default)]
pub struct FabricState {
    wire: HashMap<(TileCoord, Dir, usize), bool>,
    lut_out: HashMap<TileCoord, bool>,
    io_out: HashMap<(TileCoord, usize), bool>,
}

impl FabricState {
    /// Value on output wire `(tile, dir, w)`, if resolved.
    #[must_use]
    pub fn wire(&self, tile: TileCoord, dir: Dir, w: usize) -> Option<bool> {
        self.wire.get(&(tile, dir, w)).copied()
    }

    /// LUT output of `tile`, if resolved.
    #[must_use]
    pub fn lut_out(&self, tile: TileCoord) -> Option<bool> {
        self.lut_out.get(&tile).copied()
    }

    /// External output port value, if resolved.
    #[must_use]
    pub fn io_out(&self, tile: TileCoord, port: usize) -> Option<bool> {
        self.io_out.get(&(tile, port)).copied()
    }
}

/// Reference implementation: monotone fixpoint sweep over the raw fabric.
///
/// Kept as the executable specification the compiled engine is tested
/// against, and as the baseline the benchmarks measure speedup over.
pub fn evaluate_fixpoint(
    fabric: &Fabric,
    ctx: usize,
    inputs: &[(&str, bool)],
) -> Result<(Vec<(String, bool)>, FabricState), FabricError> {
    let params = fabric.params();
    if ctx >= params.contexts {
        return Err(FabricError::ContextOutOfRange {
            ctx,
            contexts: params.contexts,
        });
    }
    // resolve input bindings to port values
    let mut io_in: HashMap<(TileCoord, usize), bool> = HashMap::new();
    for (tile, port, bctx, name) in fabric.input_binds() {
        if *bctx != ctx {
            continue;
        }
        let v = inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| FabricError::Unresolved(format!("input '{name}' not driven")))?;
        io_in.insert((*tile, *port), v);
    }

    let mut st = FabricState::default();
    let tiles: Vec<TileCoord> = fabric.tiles().collect();
    // sweep until fixpoint; bound by resource count
    let bound = tiles.len() * (4 * params.channel_width + params.lut_k + params.io_out) + 2;
    let mut changed = true;
    let mut sweeps = 0usize;
    while changed {
        changed = false;
        sweeps += 1;
        if sweeps > bound {
            return Err(FabricError::Unresolved("no fixpoint".into()));
        }
        for &t in &tiles {
            let tc = fabric.tile(t)?;
            // resolve a source's value if known
            let read = |src: Source, st: &FabricState| -> Option<bool> {
                match src {
                    Source::WireFrom { dir, w } => {
                        let n = fabric.neighbor(t, dir)?;
                        st.wire(n, dir.opposite(), w)
                    }
                    Source::LutOut => st.lut_out(t),
                    Source::IoIn(p) => io_in.get(&(t, p)).copied(),
                }
            };
            // route values through the tile's configured sinks
            for (sink_idx, sink) in fabric.sinks(t).into_iter().enumerate() {
                let Some(src_idx) = tc.sb[ctx][sink_idx] else {
                    continue;
                };
                let src = fabric.sources(t)[src_idx as usize];
                let Some(v) = read(src, &st) else { continue };
                match sink {
                    Sink::WireTo { dir, w } => {
                        if st.wire.insert((t, dir, w), v) != Some(v) {
                            changed = true;
                        }
                    }
                    Sink::IoOut(port) => {
                        if st.io_out.insert((t, port), v) != Some(v) {
                            changed = true;
                        }
                    }
                    Sink::LutIn(_) => { /* consumed below via lut eval */ }
                }
            }
            // evaluate the LUT when all configured pins are known
            let mut row = 0usize;
            let mut ready = true;
            let mut any_pin = false;
            for (sink_idx, sink) in fabric.sinks(t).into_iter().enumerate() {
                if let Sink::LutIn(pin) = sink {
                    if let Some(src_idx) = tc.sb[ctx][sink_idx] {
                        any_pin = true;
                        let src = fabric.sources(t)[src_idx as usize];
                        match read(src, &st) {
                            Some(true) => row |= 1 << pin,
                            Some(false) => {}
                            None => ready = false,
                        }
                    }
                }
            }
            if any_pin && ready {
                let v = tc.lut.eval(ctx, row)?;
                if st.lut_out.insert(t, v) != Some(v) {
                    changed = true;
                }
            }
        }
    }

    // collect named outputs
    let mut outs = Vec::new();
    for (tile, port, bctx, name) in fabric.output_binds() {
        if *bctx != ctx {
            continue;
        }
        let v = st
            .io_out(*tile, *port)
            .ok_or_else(|| FabricError::Unresolved(format!("output '{name}' unresolved")))?;
        outs.push((name.clone(), v));
    }
    Ok((outs, st))
}

/// Evaluates context `ctx` of `fabric` on one input vector and returns
/// the outputs sorted by name. This compiles the context and runs one
/// lane through [`CompiledFabric::eval_batch_into`] — correct but paying
/// compile cost per call. Callers evaluating many vectors or replaying
/// schedules should compile once with [`CompiledFabric::compile`].
pub fn evaluate_sorted(
    fabric: &Fabric,
    ctx: usize,
    inputs: &[(&str, bool)],
) -> Result<Vec<(String, bool)>, FabricError> {
    let compiled = CompiledFabric::compile_context(fabric, ctx)?;
    let lane_inputs: Vec<(&str, u64)> = inputs.iter().map(|(n, v)| (*n, u64::from(*v))).collect();
    let mut outs: Vec<(String, bool)> = compiled
        .eval_batch_into(ctx, &lane_inputs, &mut compiled.new_state())?
        .into_iter()
        .map(|(n, v)| (n, v & 1 == 1))
        .collect();
    outs.sort();
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FabricParams;
    use crate::netlist_ir::generators;
    use crate::route::implement_netlist;

    #[test]
    fn wire_lane_passes_values() {
        let nl = generators::wire_lanes(2).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 1).unwrap();
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            let out = evaluate_sorted(&f, 0, &[("in0", a), ("in1", b)]).unwrap();
            assert_eq!(out, vec![("out0".to_string(), a), ("out1".to_string(), b)]);
        }
    }

    #[test]
    fn parity_tree_on_fabric_matches_golden() {
        let nl = generators::parity_tree(4).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 1, 5).unwrap();
        for x in 0..16u32 {
            let ins: Vec<(String, bool)> = (0..4)
                .map(|i| (format!("x{i}"), (x >> i) & 1 == 1))
                .collect();
            let ins_ref: Vec<(&str, bool)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let golden = nl.eval(&ins_ref).unwrap()[0].1;
            let out = evaluate_sorted(&f, 1, &ins_ref).unwrap();
            assert_eq!(out[0].1, golden, "x={x}");
        }
    }

    #[test]
    fn adder_on_fabric_matches_golden() {
        let nl = generators::ripple_adder(2).unwrap();
        let mut f = Fabric::new(FabricParams {
            width: 4,
            height: 4,
            channel_width: 3,
            ..FabricParams::default()
        })
        .unwrap();
        implement_netlist(&mut f, &nl, 0, 9).unwrap();
        for a in 0..4u32 {
            for b in 0..4u32 {
                let ins = [
                    ("a0".to_string(), a & 1 == 1),
                    ("a1".to_string(), a & 2 == 2),
                    ("b0".to_string(), b & 1 == 1),
                    ("b1".to_string(), b & 2 == 2),
                    ("cin".to_string(), false),
                ];
                let ins_ref: Vec<(&str, bool)> =
                    ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                let golden = nl.eval(&ins_ref).unwrap();
                let mut fab = evaluate_sorted(&f, 0, &ins_ref).unwrap();
                let mut gold_sorted = golden.clone();
                gold_sorted.sort();
                fab.sort();
                assert_eq!(fab, gold_sorted, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn contexts_are_independent() {
        // parity in ctx 0, wire lanes in ctx 1 — same fabric
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        let p = generators::parity_tree(3).unwrap();
        let w = generators::wire_lanes(1).unwrap();
        implement_netlist(&mut f, &p, 0, 2).unwrap();
        implement_netlist(&mut f, &w, 1, 3).unwrap();
        let out0 = evaluate_sorted(&f, 0, &[("x0", true), ("x1", true), ("x2", false)]).unwrap();
        assert!(!out0[0].1, "parity of 2 ones");
        let out1 = evaluate_sorted(&f, 1, &[("in0", true)]).unwrap();
        assert_eq!(out1, vec![("out0".to_string(), true)]);
    }

    #[test]
    fn missing_input_reports_unresolved() {
        let nl = generators::wire_lanes(1).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 1).unwrap();
        assert!(matches!(
            evaluate_sorted(&f, 0, &[]),
            Err(FabricError::Unresolved(_))
        ));
    }

    #[test]
    fn wrapper_and_fixpoint_agree_including_state() {
        let nl = generators::ripple_adder(2).unwrap();
        let mut f = Fabric::new(FabricParams {
            width: 4,
            height: 4,
            channel_width: 3,
            ..FabricParams::default()
        })
        .unwrap();
        implement_netlist(&mut f, &nl, 2, 11).unwrap();
        let ins = [
            ("a0", true),
            ("a1", false),
            ("b0", true),
            ("b1", true),
            ("cin", false),
        ];
        // the compiled adapter's dense state, lane 0, against the sparse
        // fixpoint state: values and known-ness of every resource
        let compiled = CompiledFabric::compile_context(&f, 2).unwrap();
        let lanes: Vec<(&str, u64)> = ins.iter().map(|(n, v)| (*n, u64::from(*v))).collect();
        let mut s1 = compiled.new_state();
        compiled.eval_batch_into(2, &lanes, &mut s1).unwrap();
        let (mut o2, s2) = evaluate_fixpoint(&f, 2, &ins).unwrap();
        o2.sort();
        assert_eq!(evaluate_sorted(&f, 2, &ins).unwrap(), o2);
        let lane0 = |v: Option<u64>| v.map(|w| w & 1 == 1);
        for t in f.tiles() {
            assert_eq!(lane0(s1.lut_out(t)), s2.lut_out(t), "lut_out {t}");
            for dir in Dir::ALL {
                for w in 0..f.params().channel_width {
                    assert_eq!(
                        lane0(s1.wire(t, dir, w)),
                        s2.wire(t, dir, w),
                        "wire {t} {dir:?} {w}"
                    );
                }
            }
            for p in 0..f.params().io_out {
                assert_eq!(lane0(s1.io_out(t, p)), s2.io_out(t, p), "io_out {t} {p}");
            }
        }
    }
}
