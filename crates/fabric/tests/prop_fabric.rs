//! Property tests for the fabric: random LUT DAGs must survive the whole
//! place→route→simulate pipeline and agree with the golden model.

use mcfpga_core::ArchKind;
use mcfpga_fabric::netlist_ir::{LogicNetlist, NodeId};
use mcfpga_fabric::route::implement_netlist;
use mcfpga_fabric::sim::evaluate_sorted;
use mcfpga_fabric::temporal::{execute, implement, partition};
use mcfpga_fabric::{Fabric, FabricParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Builds a random DAG: `inputs` primary inputs, `luts` LUT nodes with 1–3
/// fanins drawn from earlier nodes, 2 primary outputs.
fn random_dag(seed: u64, inputs: usize, luts: usize) -> LogicNetlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = LogicNetlist::new();
    let mut pool: Vec<NodeId> = (0..inputs)
        .map(|i| nl.add_input(&format!("i{i}")))
        .collect();
    for j in 0..luts {
        let f = 1 + rng.random_range(0..3usize.min(pool.len()));
        let mut fanin = Vec::with_capacity(f);
        for _ in 0..f {
            fanin.push(pool[rng.random_range(0..pool.len())]);
        }
        fanin.dedup();
        let rows = 1u64 << fanin.len();
        let table = rng.random_range(0..(1u64 << rows.min(63)));
        let id = nl.add_lut(&format!("l{j}"), &fanin, table).unwrap();
        pool.push(id);
    }
    let o1 = pool[pool.len() - 1];
    let o2 = pool[pool.len() - 2];
    nl.add_output("o1", o1).unwrap();
    nl.add_output("o2", o2).unwrap();
    nl
}

fn fabric() -> Fabric {
    Fabric::new(FabricParams {
        width: 5,
        height: 5,
        channel_width: 4,
        ..FabricParams::default()
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random DAG mapped to one context computes exactly what the golden
    /// model computes, over random input vectors.
    #[test]
    fn fabric_matches_golden_on_random_dags(
        seed in 0u64..5000,
        vectors in prop::collection::vec(any::<u64>(), 4),
    ) {
        let nl = random_dag(seed, 4, 6);
        let mut f = fabric();
        // routing of a random DAG can legitimately fail on a small grid —
        // discard those cases rather than masking real mismatches
        let ok = implement_netlist(&mut f, &nl, 0, seed);
        prop_assume!(ok.is_ok());
        for v in vectors {
            let ins: Vec<(String, bool)> = (0..4)
                .map(|i| (format!("i{i}"), (v >> i) & 1 == 1))
                .collect();
            let ins_ref: Vec<(&str, bool)> = ins.iter().map(|(n, b)| (n.as_str(), *b)).collect();
            let mut golden = nl.eval(&ins_ref).unwrap();
            golden.sort();
            let got = evaluate_sorted(&f, 0, &ins_ref).unwrap();
            prop_assert_eq!(got, golden);
        }
    }

    /// Temporal partitioning preserves semantics for random DAGs.
    #[test]
    fn temporal_partition_matches_golden(
        seed in 0u64..2000,
        v in any::<u64>(),
    ) {
        let nl = random_dag(seed, 4, 8);
        let part = partition(&nl, 4).unwrap();
        let mut f = fabric();
        let ok = implement(&mut f, &part, seed);
        prop_assume!(ok.is_ok());
        let ins: Vec<(String, bool)> = (0..4)
            .map(|i| (format!("i{i}"), (v >> i) & 1 == 1))
            .collect();
        let ins_ref: Vec<(&str, bool)> = ins.iter().map(|(n, b)| (n.as_str(), *b)).collect();
        let mut golden = nl.eval(&ins_ref).unwrap();
        golden.sort();
        let mut got = execute(&f, &part, &ins_ref).unwrap();
        got.sort();
        prop_assert_eq!(got, golden);
    }

    /// Bitstream round-trips preserve random configurations bit-exactly.
    #[test]
    fn bitstream_roundtrip_random(seed in 0u64..2000) {
        use mcfpga_fabric::bitstream::{pack, unpack};
        let nl = random_dag(seed, 3, 5);
        let mut f = fabric();
        let ok = implement_netlist(&mut f, &nl, (seed % 4) as usize, seed);
        prop_assume!(ok.is_ok());
        let restored = unpack(&pack(&f).unwrap()).unwrap();
        // identical behaviour on a random vector
        let ins: Vec<(String, bool)> = (0..3)
            .map(|i| (format!("i{i}"), (seed >> i) & 1 == 1))
            .collect();
        let ins_ref: Vec<(&str, bool)> = ins.iter().map(|(n, b)| (n.as_str(), *b)).collect();
        let ctx = (seed % 4) as usize;
        prop_assert_eq!(
            evaluate_sorted(&f, ctx, &ins_ref).unwrap(),
            evaluate_sorted(&restored, ctx, &ins_ref).unwrap()
        );
    }

    /// Fabric transistor roll-up keeps the architecture ordering at any
    /// geometry.
    #[test]
    fn rollup_ordering(w in 2usize..8, h in 2usize..8, ch in 1usize..4) {
        let mk = |arch| Fabric::new(FabricParams {
            width: w,
            height: h,
            channel_width: ch,
            arch,
            ..FabricParams::default()
        }).unwrap().routing_transistor_count();
        let s = mk(ArchKind::Sram);
        let m = mk(ArchKind::MvFgfp);
        let hy = mk(ArchKind::Hybrid);
        prop_assert!(hy < m && m < s);
    }
}
