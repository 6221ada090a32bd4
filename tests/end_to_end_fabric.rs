//! Integration: complete fabric flows — netlist → temporal partition →
//! place → route → bitstream → simulate — checked against golden models.

use mcfpga::fabric::netlist_ir::generators;
use mcfpga::fabric::route::implement_netlist;
use mcfpga::fabric::sim::evaluate_sorted;
use mcfpga::fabric::temporal::{execute, implement, partition};
use mcfpga::fabric::{bitstream, power};
use mcfpga::prelude::*;

fn fabric(w: usize, h: usize, ch: usize) -> Fabric {
    Fabric::new(FabricParams {
        width: w,
        height: h,
        channel_width: ch,
        ..FabricParams::default()
    })
    .unwrap()
}

#[test]
fn parity8_single_context_exhaustive() {
    let nl = generators::parity_tree(8).unwrap();
    let mut f = fabric(4, 4, 3);
    implement_netlist(&mut f, &nl, 0, 11).unwrap();
    for x in 0..256u32 {
        let ins: Vec<(String, bool)> = (0..8)
            .map(|i| (format!("x{i}"), (x >> i) & 1 == 1))
            .collect();
        let ins_ref: Vec<(&str, bool)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let out = evaluate_sorted(&f, 0, &ins_ref).unwrap();
        assert_eq!(out[0].1, x.count_ones() % 2 == 1, "x={x}");
    }
}

#[test]
fn mux_tree_single_context_exhaustive() {
    let nl = generators::mux_tree(2).unwrap();
    let mut f = fabric(4, 4, 3);
    implement_netlist(&mut f, &nl, 3, 21).unwrap();
    for sel in 0..4usize {
        for data in 0..16usize {
            let mut ins: Vec<(String, bool)> = (0..4)
                .map(|i| (format!("d{i}"), (data >> i) & 1 == 1))
                .collect();
            ins.push(("sel0".into(), sel & 1 == 1));
            ins.push(("sel1".into(), sel & 2 == 2));
            let ins_ref: Vec<(&str, bool)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let out = evaluate_sorted(&f, 3, &ins_ref).unwrap();
            assert_eq!(out[0].1, (data >> sel) & 1 == 1, "sel={sel} data={data}");
        }
    }
}

#[test]
fn temporally_partitioned_adder4_exhaustive() {
    let nl = generators::ripple_adder(4).unwrap();
    let part = partition(&nl, 4).unwrap();
    let mut f = fabric(5, 5, 3);
    implement(&mut f, &part, 31).unwrap();
    for a in 0..16u32 {
        for b in 0..16u32 {
            let mut ins: Vec<(String, bool)> = Vec::new();
            for i in 0..4 {
                ins.push((format!("a{i}"), (a >> i) & 1 == 1));
                ins.push((format!("b{i}"), (b >> i) & 1 == 1));
            }
            ins.push(("cin".into(), false));
            let ins_ref: Vec<(&str, bool)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let out = execute(&f, &part, &ins_ref).unwrap();
            let mut got = 0u32;
            for (name, v) in &out {
                if !*v {
                    continue;
                }
                if let Some(i) = name.strip_prefix('s') {
                    got |= 1 << i.parse::<u32>().unwrap();
                } else if name == "cout" {
                    got |= 1 << 4;
                }
            }
            assert_eq!(got, a + b, "a={a} b={b}");
        }
    }
}

#[test]
fn two_workloads_share_one_fabric_across_contexts() {
    // parity in ctx 0, 2-bit adder spread over ctx 1..3 is too entangled;
    // instead: parity ctx 0, mux ctx 1, lanes ctx 2 — all independent.
    let mut f = fabric(5, 5, 3);
    let parity = generators::parity_tree(4).unwrap();
    let mux = generators::mux_tree(2).unwrap();
    let lanes = generators::wire_lanes(2).unwrap();
    implement_netlist(&mut f, &parity, 0, 1).unwrap();
    implement_netlist(&mut f, &mux, 1, 2).unwrap();
    implement_netlist(&mut f, &lanes, 2, 3).unwrap();

    let out = evaluate_sorted(
        &f,
        0,
        &[("x0", true), ("x1", false), ("x2", true), ("x3", true)],
    )
    .unwrap();
    assert!(out[0].1, "parity of three ones");

    let out = evaluate_sorted(
        &f,
        1,
        &[
            ("d0", false),
            ("d1", true),
            ("d2", false),
            ("d3", false),
            ("sel0", true),
            ("sel1", false),
        ],
    )
    .unwrap();
    assert!(out[0].1, "mux selects d1");

    let out = evaluate_sorted(&f, 2, &[("in0", true), ("in1", false)]).unwrap();
    assert_eq!(
        out,
        vec![("out0".to_string(), true), ("out1".to_string(), false)]
    );
}

#[test]
fn bitstream_roundtrip_preserves_all_contexts() {
    let mut f = fabric(4, 4, 3);
    let parity = generators::parity_tree(4).unwrap();
    let lanes = generators::wire_lanes(2).unwrap();
    implement_netlist(&mut f, &parity, 0, 4).unwrap();
    implement_netlist(&mut f, &lanes, 2, 5).unwrap();
    let restored = bitstream::unpack(&bitstream::pack(&f).unwrap()).unwrap();
    for x in 0..16u32 {
        let ins: Vec<(String, bool)> = (0..4)
            .map(|i| (format!("x{i}"), (x >> i) & 1 == 1))
            .collect();
        let ins_ref: Vec<(&str, bool)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        assert_eq!(
            evaluate_sorted(&f, 0, &ins_ref).unwrap(),
            evaluate_sorted(&restored, 0, &ins_ref).unwrap()
        );
    }
    let ins = [("in0", true), ("in1", true)];
    assert_eq!(
        evaluate_sorted(&f, 2, &ins).unwrap(),
        evaluate_sorted(&restored, 2, &ins).unwrap()
    );
}

#[test]
fn fabric_power_story_holds_at_scale() {
    let p = TechParams::default();
    let mk = |arch| {
        Fabric::new(FabricParams {
            width: 6,
            height: 6,
            arch,
            ..FabricParams::default()
        })
        .unwrap()
    };
    let sram = power::routing_power(&mk(ArchKind::Sram), &p);
    let hybrid = power::routing_power(&mk(ArchKind::Hybrid), &p);
    assert_eq!(sram.crosspoints, hybrid.crosspoints);
    assert!(hybrid.routing_transistors * 8 < sram.routing_transistors);
    assert_eq!(hybrid.volatile_bits, 0);
    assert!(sram.volatile_bits > 10_000);
}

use mcfpga::core::ArchKind;
