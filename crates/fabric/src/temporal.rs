//! Temporal partitioning — time-multiplexed execution of a large circuit
//! across contexts (the Trimberger-style use case the paper's introduction
//! assumes, ref \[1\]).
//!
//! The LUT DAG is cut into `C` stages by logic level; stage `s` is mapped
//! into context `s`. Values crossing a cut are written to a **context
//! register file** (named `reg:<node>`) at the producing stage and read back
//! as stage inputs downstream. Primary inputs are pad-held and available in
//! every context.

use crate::array::Fabric;
use crate::compiled::{chunk_of_word, CompiledFabric, LaneChunk};
use crate::lut::tables;
use crate::netlist_ir::{LogicNetlist, Node, NodeId};
use crate::route::{implement_netlist, RoutedDesign};
use crate::FabricError;
use std::collections::HashMap;

/// The context register file: values crossing a context-switch boundary,
/// as named `reg:<node>` [`LaneChunk`]s (lane `l` of the chunk = lane `l`'s
/// value).
///
/// This is the *suspendable* state of a temporal execution — between two
/// stages every live intermediate value sits in the register file, which is
/// why a checkpoint taken at a context-switch boundary (and only there)
/// captures a design's entire execution state. Entries keep insertion
/// order, so serializations of the same execution are deterministic.
/// Single-word callers use [`get`](Self::get)/[`set`](Self::set), which
/// view word 0 of each chunk — the legacy 64-lane representation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegisterFile {
    entries: Vec<(String, LaneChunk)>,
}

impl RegisterFile {
    /// An empty register file.
    #[must_use]
    pub fn new() -> Self {
        RegisterFile::default()
    }

    /// Word 0 of `name`'s chunk, if written.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.get_chunk(name).map(|c| c[0])
    }

    /// The full lane chunk of `name`, if written.
    #[must_use]
    pub fn get_chunk(&self, name: &str) -> Option<LaneChunk> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Writes (or overwrites) one register from a single lane word (words
    /// 1.. are zeroed).
    pub fn set(&mut self, name: &str, lanes: u64) {
        self.set_chunk(name, chunk_of_word(lanes));
    }

    /// Writes (or overwrites) one register's full chunk.
    pub fn set_chunk(&mut self, name: &str, lanes: LaneChunk) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = lanes,
            None => self.entries.push((name.to_string(), lanes)),
        }
    }

    /// All registers, in first-write order.
    #[must_use]
    pub fn entries(&self) -> &[(String, LaneChunk)] {
        &self.entries
    }

    /// Number of registers written.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Has nothing been written?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every register.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl FromIterator<(String, u64)> for RegisterFile {
    fn from_iter<I: IntoIterator<Item = (String, u64)>>(iter: I) -> Self {
        RegisterFile {
            entries: iter
                .into_iter()
                .map(|(n, v)| (n, chunk_of_word(v)))
                .collect(),
        }
    }
}

impl FromIterator<(String, LaneChunk)> for RegisterFile {
    fn from_iter<I: IntoIterator<Item = (String, LaneChunk)>>(iter: I) -> Self {
        RegisterFile {
            entries: iter.into_iter().collect(),
        }
    }
}

/// A temporal partition of one netlist into stages.
#[derive(Debug, Clone)]
pub struct TemporalPartition {
    /// One sub-netlist per stage (may be empty at the tail).
    pub stages: Vec<LogicNetlist>,
    /// Stage of every original LUT node.
    pub stage_of: HashMap<NodeId, usize>,
    /// Original primary output names (order preserved).
    pub output_names: Vec<String>,
}

/// Partitions `netlist` into at most `contexts` stages by logic level.
pub fn partition(
    netlist: &LogicNetlist,
    contexts: usize,
) -> Result<TemporalPartition, FabricError> {
    if contexts == 0 {
        return Err(FabricError::BadParams("contexts=0".into()));
    }
    let levels = netlist.levels();
    let depth = netlist.depth().max(1);
    let stage_count = contexts.min(depth);
    // LUT level ℓ ∈ 1..=depth → stage floor((ℓ−1)·stage_count/depth)
    let mut stage_of: HashMap<NodeId, usize> = HashMap::new();
    for id in netlist.lut_ids() {
        let l = levels[id.0];
        stage_of.insert(id, (l.saturating_sub(1)) * stage_count / depth);
    }

    // which nodes need registering: LUT u consumed in a later stage,
    // or driving a primary output from a non-final stage
    let mut needs_reg: HashMap<NodeId, bool> = HashMap::new();
    for id in netlist.lut_ids() {
        if let Node::Lut { fanin, .. } = netlist.node(id) {
            for f in fanin {
                if let Node::Lut { .. } = netlist.node(*f) {
                    if stage_of[f] < stage_of[&id] {
                        needs_reg.insert(*f, true);
                    }
                }
            }
        }
    }

    let mut stages: Vec<LogicNetlist> = Vec::with_capacity(stage_count);
    let mut output_names = Vec::new();
    for (name, _) in netlist.outputs() {
        output_names.push(name.clone());
    }
    for s in 0..stage_count {
        let mut sub = LogicNetlist::new();
        // map original node → node in this stage's sub-netlist
        let mut local: HashMap<NodeId, NodeId> = HashMap::new();
        // resolve an original fanin node into this stage
        // (primary input → re-declared input; earlier-stage LUT → reg input;
        // same-stage LUT → local node, guaranteed by topological order)
        let resolve =
            |orig: NodeId, sub: &mut LogicNetlist, local: &mut HashMap<NodeId, NodeId>| {
                if let Some(l) = local.get(&orig) {
                    return *l;
                }
                let id = match netlist.node(orig) {
                    Node::Input { name } => sub.add_input(name),
                    Node::Lut { .. } => sub.add_input(&format!("reg:{}", orig.0)),
                };
                local.insert(orig, id);
                id
            };
        for id in netlist.lut_ids() {
            if stage_of[&id] != s {
                continue;
            }
            let Node::Lut { name, fanin, table } = netlist.node(id) else {
                unreachable!()
            };
            let mapped: Vec<NodeId> = fanin
                .iter()
                .map(|f| resolve(*f, &mut sub, &mut local))
                .collect();
            let new_id = sub.add_lut(name, &mapped, *table)?;
            local.insert(id, new_id);
            if needs_reg.get(&id).copied().unwrap_or(false) {
                sub.add_output(&format!("reg:{}", id.0), new_id)?;
            }
        }
        // primary outputs whose driver lives in this stage
        for (name, driver) in netlist.outputs() {
            match netlist.node(*driver) {
                Node::Lut { .. } if stage_of[driver] == s => {
                    sub.add_output(name, local[driver])?;
                }
                Node::Input { name: in_name } if s == 0 => {
                    // degenerate pass-through: buffer it in stage 0
                    let in_id = resolve(*driver, &mut sub, &mut local);
                    let b = sub.add_lut(&format!("buf_{in_name}"), &[in_id], tables::buf(1))?;
                    sub.add_output(name, b)?;
                }
                _ => {}
            }
        }
        stages.push(sub);
    }
    Ok(TemporalPartition {
        stages,
        stage_of,
        output_names,
    })
}

/// Maps every stage of a partition into its context of `fabric`.
pub fn implement(
    fabric: &mut Fabric,
    part: &TemporalPartition,
    seed: u64,
) -> Result<Vec<RoutedDesign>, FabricError> {
    let mut designs = Vec::new();
    for (s, sub) in part.stages.iter().enumerate() {
        if sub.lut_count() == 0 && sub.outputs().is_empty() {
            continue;
        }
        designs.push(implement_netlist(
            fabric,
            sub,
            s,
            seed.wrapping_add(s as u64),
        )?);
    }
    Ok(designs)
}

/// Executes one "user cycle": runs every stage in order, moving register
/// values through the context register file. Returns the primary outputs.
///
/// The fabric is compiled once and each stage runs through its compiled
/// plane; repeated cycles amortize better via [`execute_compiled`].
pub fn execute(
    fabric: &Fabric,
    part: &TemporalPartition,
    inputs: &[(&str, bool)],
) -> Result<Vec<(String, bool)>, FabricError> {
    let compiled = CompiledFabric::compile(fabric)?;
    let lanes: Vec<(String, u64)> = inputs
        .iter()
        .map(|(n, v)| ((*n).to_string(), u64::from(*v)))
        .collect();
    let lane_refs: Vec<(&str, u64)> = lanes.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let outs = execute_compiled(&compiled, part, &lane_refs)?;
    Ok(outs.into_iter().map(|(n, v)| (n, v & 1 == 1)).collect())
}

/// [`execute`] on an already-compiled fabric, 64 input vectors at a time:
/// bit `l` of each input's `u64` is its value in user cycle `l`, and the
/// returned outputs use the same lane packing.
pub fn execute_compiled(
    compiled: &CompiledFabric,
    part: &TemporalPartition,
    inputs: &[(&str, u64)],
) -> Result<Vec<(String, u64)>, FabricError> {
    let mut regs = RegisterFile::new();
    let mut primary: HashMap<String, u64> = HashMap::new();
    let mut scratch = compiled.new_state();
    for s in 0..part.stages.len() {
        for (name, v) in execute_stage(compiled, part, s, inputs, &mut regs, &mut scratch)? {
            primary.insert(name, v);
        }
    }
    Ok(part
        .output_names
        .iter()
        .map(|n| (n.clone(), primary.get(n).copied().unwrap_or_default()))
        .collect())
}

/// Executes exactly one stage of a user cycle: reads cross-boundary values
/// from `regs`, evaluates context `stage`, writes the values the stage
/// registers back into `regs`, and returns the stage's *primary* (non-
/// register) outputs.
///
/// This is the suspend/resume primitive behind [`execute_compiled`]: after
/// any stage — a context-switch boundary — the whole execution state is
/// `regs`, so a caller can stop, serialize the [`RegisterFile`], and later
/// resume the remaining stages (on this fabric or an identically-configured
/// one) with bit-for-bit identical results.
pub fn execute_stage(
    compiled: &CompiledFabric,
    part: &TemporalPartition,
    stage: usize,
    inputs: &[(&str, u64)],
    regs: &mut RegisterFile,
    scratch: &mut crate::compiled::CompiledState,
) -> Result<Vec<(String, u64)>, FabricError> {
    let sub = part
        .stages
        .get(stage)
        .ok_or_else(|| FabricError::BadParams(format!("stage {stage} out of range")))?;
    if sub.lut_count() == 0 && sub.outputs().is_empty() {
        return Ok(Vec::new());
    }
    // stage inputs: primary inputs + register reads (word 0 — temporal
    // execution batches at most 64 user cycles per call)
    let mut stage_inputs: Vec<(&str, u64)> = inputs.to_vec();
    for (name, v) in regs.entries() {
        stage_inputs.push((name.as_str(), v[0]));
    }
    let outs = compiled.eval_batch_into(stage, &stage_inputs, scratch)?;
    let mut primary = Vec::new();
    for (name, v) in outs {
        if name.starts_with("reg:") {
            regs.set(&name, v);
        } else {
            primary.push((name, v));
        }
    }
    Ok(primary)
}

// Register files travel with their tenants across the service's worker
// threads (and across migrations); keep them structurally thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RegisterFile>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FabricParams;
    use crate::netlist_ir::generators;

    #[test]
    fn partition_respects_level_order() {
        let nl = generators::ripple_adder(4).unwrap();
        let part = partition(&nl, 4).unwrap();
        assert_eq!(part.stages.len(), 4);
        for id in nl.lut_ids() {
            if let Node::Lut { fanin, .. } = nl.node(id) {
                for f in fanin {
                    if matches!(nl.node(*f), Node::Lut { .. }) {
                        assert!(part.stage_of[f] <= part.stage_of[&id]);
                    }
                }
            }
        }
    }

    #[test]
    fn partitioned_adder_executes_correctly() {
        let nl = generators::ripple_adder(3).unwrap();
        let part = partition(&nl, 4).unwrap();
        let mut fabric = Fabric::new(FabricParams {
            width: 4,
            height: 4,
            channel_width: 3,
            ..FabricParams::default()
        })
        .unwrap();
        implement(&mut fabric, &part, 17).unwrap();
        for a in 0..8u32 {
            for b in 0..8u32 {
                let ins = [
                    ("a0".to_string(), a & 1 == 1),
                    ("a1".to_string(), a & 2 == 2),
                    ("a2".to_string(), a & 4 == 4),
                    ("b0".to_string(), b & 1 == 1),
                    ("b1".to_string(), b & 2 == 2),
                    ("b2".to_string(), b & 4 == 4),
                    ("cin".to_string(), false),
                ];
                let ins_ref: Vec<(&str, bool)> =
                    ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                let out = execute(&fabric, &part, &ins_ref).unwrap();
                let mut got = 0u32;
                for (name, v) in &out {
                    if !v {
                        continue;
                    }
                    match name.as_str() {
                        "s0" => got |= 1,
                        "s1" => got |= 2,
                        "s2" => got |= 4,
                        "cout" => got |= 8,
                        _ => {}
                    }
                }
                assert_eq!(got, a + b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn single_context_partition_is_flat() {
        let nl = generators::parity_tree(4).unwrap();
        let part = partition(&nl, 1).unwrap();
        assert_eq!(part.stages.len(), 1);
        assert_eq!(part.stages[0].lut_count(), nl.lut_count());
    }

    #[test]
    fn registers_cross_stage_boundaries() {
        let nl = generators::parity_tree(8).unwrap(); // depth 3
        let part = partition(&nl, 3).unwrap();
        // some stage must write registers
        let reg_outs: usize = part
            .stages
            .iter()
            .map(|s| {
                s.outputs()
                    .iter()
                    .filter(|(n, _)| n.starts_with("reg:"))
                    .count()
            })
            .sum();
        assert!(reg_outs > 0);
    }

    /// Suspending after any stage boundary, moving the register file, and
    /// resuming the remaining stages reproduces the uninterrupted run
    /// bit-for-bit — the checkpoint-at-context-switch-boundary invariant.
    #[test]
    fn stage_execution_suspends_and_resumes_exactly() {
        let nl = generators::ripple_adder(3).unwrap();
        let part = partition(&nl, 4).unwrap();
        let mut fabric = Fabric::new(FabricParams {
            width: 4,
            height: 4,
            channel_width: 3,
            ..FabricParams::default()
        })
        .unwrap();
        implement(&mut fabric, &part, 17).unwrap();
        let compiled = CompiledFabric::compile(&fabric).unwrap();
        let inputs: Vec<(&str, u64)> = vec![
            ("a0", 0b1100),
            ("a1", 0b1010),
            ("a2", 0b0110),
            ("b0", 0b0101),
            ("b1", 0b0011),
            ("b2", 0b1001),
            ("cin", 0),
        ];
        let golden = execute_compiled(&compiled, &part, &inputs).unwrap();
        for boundary in 0..part.stages.len() {
            let mut regs = RegisterFile::new();
            let mut scratch = compiled.new_state();
            let mut primary: std::collections::HashMap<String, u64> =
                std::collections::HashMap::new();
            for s in 0..boundary {
                for (n, v) in
                    execute_stage(&compiled, &part, s, &inputs, &mut regs, &mut scratch).unwrap()
                {
                    primary.insert(n, v);
                }
            }
            // suspend: round-trip the register file through its entries —
            // exactly what a serialized checkpoint carries
            let mut resumed: RegisterFile =
                regs.entries().iter().cloned().collect::<RegisterFile>();
            assert_eq!(resumed, regs);
            let mut fresh = compiled.new_state();
            for s in boundary..part.stages.len() {
                for (n, v) in
                    execute_stage(&compiled, &part, s, &inputs, &mut resumed, &mut fresh).unwrap()
                {
                    primary.insert(n, v);
                }
            }
            for (name, want) in &golden {
                assert_eq!(
                    primary.get(name).copied().unwrap_or_default(),
                    *want,
                    "boundary {boundary} output {name}"
                );
            }
        }
    }

    #[test]
    fn register_file_set_get_overwrite() {
        let mut rf = RegisterFile::new();
        assert!(rf.is_empty());
        assert_eq!(rf.get("reg:1"), None);
        rf.set("reg:1", 5);
        rf.set("reg:2", 7);
        rf.set("reg:1", 9);
        assert_eq!(rf.len(), 2);
        assert_eq!(rf.get("reg:1"), Some(9));
        assert_eq!(rf.entries()[0].0, "reg:1", "insertion order kept");
        rf.clear();
        assert!(rf.is_empty());
    }

    #[test]
    fn degenerate_input_to_output() {
        let mut nl = LogicNetlist::new();
        let x = nl.add_input("x");
        nl.add_output("y", x).unwrap();
        let part = partition(&nl, 4).unwrap();
        let mut fabric = Fabric::new(FabricParams::default()).unwrap();
        implement(&mut fabric, &part, 3).unwrap();
        let out = execute(&fabric, &part, &[("x", true)]).unwrap();
        assert_eq!(out, vec![("y".to_string(), true)]);
    }
}
