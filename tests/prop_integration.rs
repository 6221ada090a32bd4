//! Cross-crate property tests: random configurations, routes and schedules
//! must uphold the architecture's invariants end to end.

use mcfpga::core::equivalence::{build_all, check_config};
use mcfpga::core::{HybridMcSwitch, McSwitch, MvFgfpMcSwitch};
use mcfpga::prelude::*;
use mcfpga::switchblock::mapping::{
    column_row_usage, remap_preserves_column_connectivity, select_networks_needed,
};
use proptest::prelude::*;

fn arb_ctxset(contexts: usize) -> impl Strategy<Value = CtxSet> {
    let dom = if contexts == 64 {
        u64::MAX
    } else {
        (1u64 << contexts) - 1
    };
    prop::bits::u64::masked(dom).prop_map(move |m| CtxSet::from_mask(contexts, m).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn three_architectures_agree_on_random_8ctx_configs(s in arb_ctxset(8)) {
        let mut switches = build_all(8).unwrap();
        prop_assert!(check_config(&mut switches, &s).unwrap().is_empty());
    }

    #[test]
    fn hybrid_exclusive_on_for_random_16ctx_configs(s in arb_ctxset(16)) {
        let mut sw = HybridMcSwitch::new(16).unwrap();
        sw.configure(&s).unwrap();
        for ctx in 0..16 {
            let on = sw.on_fgmos_count(ctx).unwrap();
            prop_assert!(on <= 1);
            prop_assert_eq!(on == 1, s.get(ctx));
        }
    }

    #[test]
    fn mv_switch_branch_count_equals_run_count(s in arb_ctxset(4)) {
        let mut sw = MvFgfpMcSwitch::new(4).unwrap();
        sw.configure(&s).unwrap();
        prop_assert_eq!(sw.branches_used(), s.run_count());
    }

    #[test]
    fn remap_always_reaches_n_select_networks(
        seed in 0u64..1000,
        k in 2usize..16,
        contexts in 1usize..8,
    ) {
        let routes = RouteSet::random_permutations(k, contexts, seed).unwrap();
        let out = remap_to_designated_rows(&routes).unwrap();
        prop_assert!(remap_preserves_column_connectivity(&routes, &out));
        let (_, total) = select_networks_needed(&out.routes);
        prop_assert_eq!(total, k);
        for rows in column_row_usage(&out.routes) {
            prop_assert!(rows.len() <= 1);
        }
    }

    #[test]
    fn switch_block_silicon_matches_routes(
        seed in 0u64..500,
        fill in 0.1f64..1.0,
    ) {
        let routes = RouteSet::random_partial(6, 6, 4, fill, seed).unwrap();
        let mut sb = SwitchBlock::new(ArchKind::Hybrid, 6, 6, 4).unwrap();
        sb.configure(&routes).unwrap();
        sb.verify_against_routes().unwrap();
    }

    #[test]
    fn css_toggles_are_symmetric_and_zero_on_identity(
        a in 0usize..16,
        b in 0usize..16,
    ) {
        let gen = HybridCssGen::new(16).unwrap();
        prop_assert_eq!(gen.toggles_between(a, a).unwrap(), 0);
        prop_assert_eq!(
            gen.toggles_between(a, b).unwrap(),
            gen.toggles_between(b, a).unwrap()
        );
    }

    #[test]
    fn programming_random_literals_converges(
        seed in 0u64..500,
        t in 0u8..5,
        up in any::<bool>(),
    ) {
        let params = TechParams::default();
        let mut prog = Programmer::new(seed, params.clone());
        let mode = if up { FgmosMode::UpLiteral } else { FgmosMode::DownLiteral };
        let mut dev = Fgmos::new(mode);
        prog.program_literal(&mut dev, Level::new(t), Radix::FIVE).unwrap();
        for v in 0..5u8 {
            let want = if up { v >= t } else { v <= t };
            prop_assert_eq!(dev.conducts(Level::new(v), &params).unwrap(), want);
        }
    }

    #[test]
    fn bitstream_roundtrip_random_fabric_configs(seed in 0u64..100) {
        use mcfpga::fabric::netlist_ir::generators;
        use mcfpga::fabric::route::implement_netlist;
        use mcfpga::fabric::bitstream::{pack, unpack};
        let nl = generators::parity_tree(4).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, (seed % 4) as usize, seed).unwrap();
        let restored = unpack(&pack(&f).unwrap()).unwrap();
        prop_assert_eq!(f.crosspoint_count(), restored.crosspoint_count());
        // spot check behaviour
        let ins = [("x0", true), ("x1", false), ("x2", true), ("x3", false)];
        let ctx = (seed % 4) as usize;
        prop_assert_eq!(
            mcfpga::fabric::sim::evaluate_sorted(&f, ctx, &ins).unwrap(),
            mcfpga::fabric::sim::evaluate_sorted(&restored, ctx, &ins).unwrap()
        );
    }
}

use mcfpga::core::ArchKind;
