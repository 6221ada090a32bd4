//! Tenant designs, the seeded input pools every workload draws its
//! requests from, and the output oracle.
//!
//! Each design carries [`POOL`] input vectors generated from the run's
//! seed and, for each, the outputs [`LogicNetlist::eval`] gives. Both are
//! built once, before any timed step, so checking a response costs a
//! lookup and the system under test only ever sees the generated inputs.

use mcfpga_fabric::netlist_ir::{generators, LogicNetlist, Node};
use mcfpga_fabric::FabricParams;
use std::sync::Arc;

/// Input vectors per design.
pub const POOL: usize = 4096;

/// The fabric every shard of every workload is built from: 8×8 tiles,
/// 4 contexts, channel width 6.
pub fn fabric_params() -> FabricParams {
    FabricParams {
        width: 8,
        height: 8,
        channel_width: 6,
        ..FabricParams::default()
    }
}

/// SplitMix64: a small, seedable, platform-independent generator for
/// input bits and workload choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One tenant design with its input pool and expected outputs.
pub struct Design {
    pub name: &'static str,
    pub netlist: LogicNetlist,
    outputs: Vec<&'static str>,
    vectors: Vec<Vec<(&'static str, bool)>>,
    /// Output bits of `vectors[i]`, bit `k` = output `k`.
    expected: Vec<u64>,
}

impl Design {
    fn new(name: &'static str, netlist: LogicNetlist, rng: &mut SplitMix) -> Self {
        // the names live as long as the process; leaking them once lets
        // every request borrow `&'static str` without copying
        let leak = |s: &str| -> &'static str { Box::leak(s.to_string().into_boxed_str()) };
        let inputs: Vec<&'static str> = netlist
            .input_ids()
            .into_iter()
            .map(|id| match netlist.node(id) {
                Node::Input { name } => leak(name),
                Node::Lut { .. } => unreachable!("input_ids yields inputs"),
            })
            .collect();
        let outputs: Vec<&'static str> = netlist.outputs().iter().map(|(n, _)| leak(n)).collect();
        assert!(
            inputs.len() <= 64 && outputs.len() <= 64,
            "{name} is too wide"
        );
        let mut vectors = Vec::with_capacity(POOL);
        let mut expected = Vec::with_capacity(POOL);
        for _ in 0..POOL {
            let bits = rng.next_u64();
            let vector: Vec<(&'static str, bool)> = inputs
                .iter()
                .enumerate()
                .map(|(k, n)| (*n, bits >> k & 1 == 1))
                .collect();
            let out = netlist
                .eval(&vector)
                .expect("generated vectors drive every input");
            expected.push(
                out.iter()
                    .enumerate()
                    .fold(0u64, |acc, (k, (_, v))| acc | u64::from(*v) << k),
            );
            vectors.push(vector);
        }
        Design {
            name,
            netlist,
            outputs,
            vectors,
            expected,
        }
    }

    /// Pool vector `i % POOL`.
    pub fn vector(&self, i: usize) -> &[(&'static str, bool)] {
        &self.vectors[i % POOL]
    }

    /// Does `outputs` equal the reference evaluation of vector `i`?
    pub fn check(&self, i: usize, outputs: &[(Arc<str>, bool)]) -> bool {
        let want = self.expected[i % POOL];
        outputs.len() == self.outputs.len()
            && outputs
                .iter()
                .zip(&self.outputs)
                .enumerate()
                .all(|(k, ((name, v), expect))| &**name == *expect && *v == (want >> k & 1 == 1))
    }
}

/// The four designs tenants rotate through, with pools drawn from `seed`.
pub fn designs(seed: u64) -> Vec<Design> {
    let mut rng = SplitMix::new(seed ^ 0xD351_6E5E_ED00_0000);
    let build = |r: Result<LogicNetlist, _>| r.expect("generator parameters are valid");
    vec![
        ("cmp16", build(generators::equality_comparator(16))),
        ("add8", build(generators::ripple_adder(8))),
        ("cmp12", build(generators::equality_comparator(12))),
        ("add6", build(generators::ripple_adder(6))),
    ]
    .into_iter()
    .map(|(name, nl)| Design::new(name, nl, &mut rng))
    .collect()
}
