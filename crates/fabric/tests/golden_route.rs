//! Golden admissions: what placing and routing a design into one context
//! plane yields — its configuration digest, wirelength and a hash of the
//! LUT placement — pinned to constants.
//!
//! The annealer and the maze router are seeded and deterministic, and
//! everything downstream (plane-cache keys, checkpoint digests, the
//! compiled planes every response comes from) is a function of what they
//! decide. A faster placer or router must make exactly the same
//! decisions: any change to a move, an acceptance or a search order moves
//! one of these constants. Never re-pin them silently.

use mcfpga_fabric::netlist_ir::{generators, LogicNetlist};
use mcfpga_fabric::route::{implement_netlist, implement_netlist_robust, RoutedDesign};
use mcfpga_fabric::{Fabric, FabricError, FabricParams};

/// The service's per-slot seed base: a slot in context `ctx` is routed
/// with seed `SLOT_SEED + ctx`.
const SLOT_SEED: u64 = 0x5EED_0000;
/// The service's placement-seed retries.
const ATTEMPTS: usize = 16;
/// `implement_netlist_robust`'s stride between retry seeds.
const RETRY_STRIDE: u64 = 0x9E37;

/// The reference fabric: 8×8 tiles, channel width 6, 4 contexts.
fn reference() -> FabricParams {
    FabricParams {
        width: 8,
        height: 8,
        channel_width: 6,
        ..FabricParams::default()
    }
}

/// The four reference tenant designs.
fn designs() -> [(&'static str, LogicNetlist); 4] {
    [
        ("cmp16", generators::equality_comparator(16).unwrap()),
        ("add8", generators::ripple_adder(8).unwrap()),
        ("cmp12", generators::equality_comparator(12).unwrap()),
        ("add6", generators::ripple_adder(6).unwrap()),
    ]
}

/// FNV-1a over `(node, x, y)` of every placed LUT, in node order.
fn placement_hash(d: &RoutedDesign) -> u64 {
    let mut rows: Vec<(usize, usize, usize)> =
        d.placement.iter().map(|(n, t)| (n.0, t.x, t.y)).collect();
    rows.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (n, x, y) in rows {
        for v in [n, x, y] {
            for b in (v as u64).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// `(digest, wirelength, placement hash)` of one admission.
type Outcome = (u64, usize, u64);

/// Admits `netlist` into context `ctx` of `fabric` the way the service
/// does, returning what it yielded.
fn admit(fabric: &mut Fabric, netlist: &LogicNetlist, ctx: usize, seed: u64) -> Outcome {
    let d = implement_netlist_robust(fabric, netlist, ctx, seed, ATTEMPTS).unwrap();
    (
        fabric.context_digest(ctx).unwrap(),
        d.wirelength,
        placement_hash(&d),
    )
}

/// `(design, seed base, ctx, digest, wirelength, placement hash)`; the
/// admission seed is `seed base + ctx`, so the `SLOT_SEED` rows are the
/// service's own admissions.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, usize, u64, usize, u64); 48] = [
    ("cmp16", SLOT_SEED, 0, 0xeed935bbc7dc1d90, 240, 0x576d9ec75ffd8b9c),
    ("cmp16", SLOT_SEED, 1, 0xcda50379251cbcb5, 255, 0xcb0883efe307863c),
    ("cmp16", SLOT_SEED, 2, 0xe4158b620b0c22a6, 276, 0x53eac249ca16eddb),
    ("cmp16", SLOT_SEED, 3, 0x297b3b86a72d6596, 288, 0xc91b7e75f973b99f),
    ("cmp16", 7919, 0, 0x1a25d18a79646156, 243, 0xfa1f9b72102d13de),
    ("cmp16", 7919, 1, 0x2d1625e7b61fb5b7, 254, 0x8b5e05c7d5f8215a),
    ("cmp16", 7919, 2, 0x36508349b7f0c50d, 239, 0xd2daa39c1b3c5e38),
    ("cmp16", 7919, 3, 0xfd77bfd3ab93438f, 254, 0xb8b99c5c0a81231d),
    ("cmp16", 0xC0FFEE, 0, 0x49c32e196d8a33c3, 276, 0x33d0c2e12f914018),
    ("cmp16", 0xC0FFEE, 1, 0x9ebbc1fc92d6ed57, 252, 0xebcad812d2f06cff),
    ("cmp16", 0xC0FFEE, 2, 0x6df396e9b5d20893, 286, 0x287f65ee43da3a5f),
    ("cmp16", 0xC0FFEE, 3, 0x1f3d56c45fdc6d3b, 245, 0x953ec53d1868d7fd),
    ("add8", SLOT_SEED, 0, 0xb48782cff4a2f9ff, 170, 0x2b8a3f936ec9b674),
    ("add8", SLOT_SEED, 1, 0xecc2e13a9af7a34e, 180, 0x00fe422f763430f4),
    ("add8", SLOT_SEED, 2, 0x4d276a2627789ba4, 223, 0x0ffda2769e5617f1),
    ("add8", SLOT_SEED, 3, 0x7b2716e5c59c0008, 227, 0x74482ee5733ad575),
    ("add8", 7919, 0, 0xe9eeb3a67ce6d472, 176, 0x4183b174db2f26d4),
    ("add8", 7919, 1, 0xdaa8c174a9458306, 227, 0x212bc6e256594070),
    ("add8", 7919, 2, 0x8c136def6f8870a9, 203, 0x95d4dc073966c0f4),
    ("add8", 7919, 3, 0x0b6bdfb02817071b, 163, 0x42836b096e485294),
    ("add8", 0xC0FFEE, 0, 0xd057edf920a43314, 192, 0x0a3e56e53d1abbd7),
    ("add8", 0xC0FFEE, 1, 0xa4dae77388222cd1, 200, 0x7024776577ef5b71),
    ("add8", 0xC0FFEE, 2, 0x6b56c494630719d2, 233, 0xfe3c5b3463ec40f3),
    ("add8", 0xC0FFEE, 3, 0xf9b61de8603c52c4, 158, 0xeda861cb52358257),
    ("cmp12", SLOT_SEED, 0, 0x0e7c098a95127bb9, 180, 0x36230d43d2dc5a2a),
    ("cmp12", SLOT_SEED, 1, 0xd0547b312c601ea8, 181, 0xe3e42392dc2ef68a),
    ("cmp12", SLOT_SEED, 2, 0xdfad6e3e76c6e90f, 197, 0xdb573330a4456b6e),
    ("cmp12", SLOT_SEED, 3, 0xd7a944dcadb22296, 204, 0xfb44b4f56d7a492f),
    ("cmp12", 7919, 0, 0x8223ced5d03a76d5, 188, 0x0704d376d733d729),
    ("cmp12", 7919, 1, 0x8a24f1cf70db256e, 193, 0x34dca50c282c612b),
    ("cmp12", 7919, 2, 0x637373dc4f2f17fb, 207, 0xb43c5edc52fcc6ee),
    ("cmp12", 7919, 3, 0xdd8b95a9d0e1a09c, 207, 0x1c1ee9815f4d5568),
    ("cmp12", 0xC0FFEE, 0, 0x358e85f07c4ff8c8, 209, 0x9caf4bc0c1c30649),
    ("cmp12", 0xC0FFEE, 1, 0xd0d9d045f1ac7dc3, 205, 0x9ea543405fe26ecd),
    ("cmp12", 0xC0FFEE, 2, 0x039bcffd5f1edc28, 189, 0xdf6fc9e5913e9ecb),
    ("cmp12", 0xC0FFEE, 3, 0xf27ef9e6d5837ad8, 170, 0xfe14f496d02eed08),
    ("add6", SLOT_SEED, 0, 0x43fa2dea9db671d9, 126, 0x046d9c5169079313),
    ("add6", SLOT_SEED, 1, 0xfff7d38291a47999, 172, 0xee4e32992d7aef71),
    ("add6", SLOT_SEED, 2, 0x6bc93493dd18fbab, 158, 0xb538cf077289a8f6),
    ("add6", SLOT_SEED, 3, 0xa51708e0833af96f, 153, 0xee0968295ea6fbd0),
    ("add6", 7919, 0, 0x44e12165835562bc, 125, 0xe6cbf4512f246a57),
    ("add6", 7919, 1, 0x404ea40842a034f9, 188, 0xf68099c1a52669d1),
    ("add6", 7919, 2, 0x784bc0acfbb6f91b, 159, 0xb6e2a4bc7c4933f7),
    ("add6", 7919, 3, 0x652df1e745ca787f, 158, 0x32d32617219df997),
    ("add6", 0xC0FFEE, 0, 0x24ae9346ab7b8913, 119, 0x4ee320c9f96645b2),
    ("add6", 0xC0FFEE, 1, 0x02972f2568114e68, 133, 0x1f6e0e9ccb22fc92),
    ("add6", 0xC0FFEE, 2, 0x6bf22777642dc448, 155, 0x5bf9c0ac415a8b13),
    ("add6", 0xC0FFEE, 3, 0xf09e9b8f7729e7d7, 133, 0x072ca2ac1e576d96),
];

#[test]
fn reference_designs_place_and_route_to_their_pinned_configurations() {
    let designs = designs();
    let mut wrong = Vec::new();
    for (name, seed, ctx, digest, wirelength, placement) in GOLDEN {
        let (_, netlist) = designs.iter().find(|(n, _)| *n == name).unwrap();
        let mut fabric = Fabric::new(reference()).unwrap();
        let got = admit(&mut fabric, netlist, ctx, seed + ctx as u64);
        if got != (digest, wirelength, placement) {
            wrong.push(format!(
                "({name:?}, {seed:#x}, {ctx}, {:#018x}, {}, {:#018x})",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} admissions moved:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

#[test]
fn every_reference_row_is_pinned_once() {
    // 4 designs × 3 seed bases × every context of the reference fabric
    for (name, _) in designs() {
        for seed in [SLOT_SEED, 7919, 0xC0FFEE] {
            for ctx in 0..reference().contexts {
                let rows = GOLDEN
                    .iter()
                    .filter(|r| r.0 == name && r.1 == seed && r.2 == ctx)
                    .count();
                assert_eq!(rows, 1, "{name} seed {seed:#x} ctx {ctx}");
            }
        }
    }
}

/// A 3×3 fabric with one wire per channel: parity_tree(8) routes there
/// only after several re-placements.
fn congested() -> FabricParams {
    FabricParams {
        width: 3,
        height: 3,
        channel_width: 1,
        ..FabricParams::default()
    }
}

#[test]
fn a_congested_admission_retries_to_its_pinned_configuration() {
    let nl = generators::parity_tree(8).unwrap();
    let failed_attempts = (0..ATTEMPTS as u64)
        .take_while(|k| {
            let mut f = Fabric::new(congested()).unwrap();
            implement_netlist(&mut f, &nl, 1, 2 + k * RETRY_STRIDE).is_err()
        })
        .count();
    assert_eq!(failed_attempts, 9, "placement seeds that fail to route");
    // the robust flow clears the failed attempts' partial routing itself
    let mut f = Fabric::new(congested()).unwrap();
    assert_eq!(
        admit(&mut f, &nl, 1, 2),
        (0x4e7bd747a874b12d, 30, 0xc3d72e414ed4c088)
    );
}

#[test]
fn an_unroutable_admission_fails_on_the_same_net() {
    let nl = generators::ripple_adder(3).unwrap();
    let mut f = Fabric::new(congested()).unwrap();
    let err = implement_netlist_robust(&mut f, &nl, 0, 0, ATTEMPTS).unwrap_err();
    assert_eq!(
        err,
        FabricError::RoutingFailed {
            net: "net 1 to LutIn { tile: TileCoord { x: 0, y: 2 }, pin: 0 }".into(),
            ctx: 0,
        }
    );
}

#[test]
fn two_fabrics_route_one_admission_identically() {
    let (_, nl) = &designs()[0];
    let mut a = Fabric::new(reference()).unwrap();
    let mut b = Fabric::new(reference()).unwrap();
    // b's other planes are busy: a plane is routed on its own
    admit(&mut b, &designs()[1].1, 0, SLOT_SEED);
    admit(&mut b, &designs()[3].1, 3, SLOT_SEED + 3);
    let da = implement_netlist_robust(&mut a, nl, 2, SLOT_SEED + 2, ATTEMPTS).unwrap();
    let db = implement_netlist_robust(&mut b, nl, 2, SLOT_SEED + 2, ATTEMPTS).unwrap();
    assert_eq!(da.placement, db.placement);
    assert_eq!(da.inputs, db.inputs);
    assert_eq!(da.outputs, db.outputs);
    assert_eq!(da.wirelength, db.wirelength);
    assert_eq!(a.context_digest(2).unwrap(), b.context_digest(2).unwrap());
    assert_eq!(a.context_digest(2).unwrap(), 0xe4158b620b0c22a6);
    for t in a.tiles() {
        assert_eq!(a.tile(t).unwrap().sb[2], b.tile(t).unwrap().sb[2], "{t}");
    }
}
