//! Integration: the architecture beyond the paper's 4-context examples —
//! an 8-context fabric, exercising the Fig. 10 scaling (two 4-context
//! blocks, no MUX) end to end.

use mcfpga::core::ArchKind;
use mcfpga::fabric::netlist_ir::generators;
use mcfpga::fabric::route::implement_netlist_robust;
use mcfpga::fabric::sim::evaluate_sorted;
use mcfpga::prelude::*;

fn fabric8(arch: ArchKind) -> Fabric {
    Fabric::new(FabricParams {
        width: 4,
        height: 4,
        channel_width: 3,
        contexts: 8,
        arch,
        ..FabricParams::default()
    })
    .unwrap()
}

#[test]
fn eight_tenants_one_fabric() {
    // eight distinct personalities resident at once
    let mut f = fabric8(ArchKind::Hybrid);
    for ctx in 0..8 {
        let nl = if ctx % 2 == 0 {
            generators::parity_tree(4).unwrap()
        } else {
            generators::wire_lanes(2).unwrap()
        };
        implement_netlist_robust(&mut f, &nl, ctx, 100 + ctx as u64, 8).unwrap();
    }
    // spot-check behaviour in each context
    for ctx in 0..8 {
        if ctx % 2 == 0 {
            let out = evaluate_sorted(
                &f,
                ctx,
                &[("x0", true), ("x1", true), ("x2", true), ("x3", false)],
            )
            .unwrap();
            assert!(out[0].1, "parity of 3 ones in ctx {ctx}");
        } else {
            let out = evaluate_sorted(&f, ctx, &[("in0", false), ("in1", true)]).unwrap();
            assert_eq!(
                out,
                vec![("out0".to_string(), false), ("out1".to_string(), true)],
                "lanes in ctx {ctx}"
            );
        }
    }
}

#[test]
fn eight_context_switch_scaling_holds_in_fabric_rollup() {
    // Fig. 10: hybrid 8-ctx switch = 4 FGMOS; SRAM 8-ctx = 63 transistors.
    let hy = fabric8(ArchKind::Hybrid).routing_transistor_count();
    let sram = fabric8(ArchKind::Sram).routing_transistor_count();
    let mv = fabric8(ArchKind::MvFgfp).routing_transistor_count();
    assert!(hy < mv && mv < sram);
    // the per-switch ratio 4/63 dominates the fabric ratio (select nets add a bit)
    let ratio = hy as f64 / sram as f64;
    assert!(ratio > 4.0 / 63.0 && ratio < 0.12, "ratio {ratio}");
}

#[test]
fn eight_context_bitstream_roundtrip() {
    use mcfpga::fabric::bitstream::{pack, unpack};
    let mut f = fabric8(ArchKind::Hybrid);
    let nl = generators::popcount4().unwrap();
    implement_netlist_robust(&mut f, &nl, 5, 77, 8).unwrap();
    let restored = unpack(&pack(&f).unwrap()).unwrap();
    for x in 0..16u32 {
        let ins: Vec<(String, bool)> = (0..4)
            .map(|i| (format!("x{i}"), (x >> i) & 1 == 1))
            .collect();
        let ins_ref: Vec<(&str, bool)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        assert_eq!(
            evaluate_sorted(&f, 5, &ins_ref).unwrap(),
            evaluate_sorted(&restored, 5, &ins_ref).unwrap(),
            "x={x}"
        );
    }
}

#[test]
fn deep_circuit_across_eight_contexts() {
    use mcfpga::fabric::temporal::{execute, implement, partition};
    // an 8-bit parity tree is only depth 3; use an 8-bit adder (depth 8) to
    // actually occupy 8 stages
    let nl = generators::ripple_adder(8).unwrap();
    let part = partition(&nl, 8).unwrap();
    assert_eq!(part.stages.len(), 8);
    let mut f = Fabric::new(FabricParams {
        width: 5,
        height: 5,
        channel_width: 3,
        contexts: 8,
        ..FabricParams::default()
    })
    .unwrap();
    implement(&mut f, &part, 11).unwrap();
    // sampled check against the golden model
    for (a, b) in [
        (0u32, 0u32),
        (1, 1),
        (37, 91),
        (255, 255),
        (128, 127),
        (200, 56),
    ] {
        let mut ins: Vec<(String, bool)> = Vec::new();
        for i in 0..8 {
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
                got |= 1 << 8;
            }
        }
        assert_eq!(got, a + b, "a={a} b={b}");
    }
}
