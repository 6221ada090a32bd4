//! Golden-file pin of the bitstream format, version 1.
//!
//! The hex blob below is the canonical encoding of a fixed, hand-routed
//! fabric. If this test fails, the bitstream layout changed: bump the
//! format version in `bitstream.rs` and regenerate the blob on purpose —
//! never silently re-pin.

use mcfpga_core::ArchKind;
use mcfpga_fabric::array::{Dir, Sink, Source};
use mcfpga_fabric::bitstream::{pack, unpack};
use mcfpga_fabric::sim::evaluate_sorted;
use mcfpga_fabric::{Fabric, FabricError, FabricParams, TileCoord};

/// Canonical v1 encoding of [`golden_fabric`].
const GOLDEN_HEX: &str = "4d4346470001010200020002000100020101000000000000000500000000000000000005000300000004000000030005\
000000000000000000000000000000000000000000000000000000050000000000000000000200050000000000000000\
000000000000000000000000000000000000000500000000000000000000000500000004000000000000000000000000\
000000000000000000080005000000000000000000000005000000000004000200030000000300000000000000000161\
000100010000010001700000000100000100017100000003000000000000000001790001000000000000017a00010001\
000001000172";

fn packed(f: &Fabric) -> Vec<u8> {
    pack(f).expect("every field fits")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A 2×2, 2-context MV-FGFP fabric with inputs and outputs bound in both
/// contexts: context 0 inverts `a` onto `y` and forwards it east onto
/// `z`; context 1 ANDs `p` with `q`, which arrives over a channel wire,
/// onto `r`.
fn golden_fabric() -> Fabric {
    let mut f = Fabric::new(FabricParams {
        width: 2,
        height: 2,
        channel_width: 1,
        lut_k: 2,
        contexts: 2,
        io_in: 1,
        io_out: 1,
        arch: ArchKind::MvFgfp,
    })
    .unwrap();
    let t = |x, y| TileCoord { x, y };
    let east = Sink::WireTo {
        dir: Dir::East,
        w: 0,
    };
    let from_west = Source::WireFrom {
        dir: Dir::West,
        w: 0,
    };
    // context 0: y = !a at (0,0); z = !a one tile east
    f.set_route(t(0, 0), 0, Sink::LutIn(0), Some(Source::IoIn(0)))
        .unwrap();
    f.tile_mut(t(0, 0)).unwrap().lut.program(0, 0b0101).unwrap();
    f.set_route(t(0, 0), 0, Sink::IoOut(0), Some(Source::LutOut))
        .unwrap();
    f.set_route(t(0, 0), 0, east, Some(Source::LutOut)).unwrap();
    f.set_route(t(1, 0), 0, Sink::IoOut(0), Some(from_west))
        .unwrap();
    f.bind_input(t(0, 0), 0, 0, "a").unwrap();
    f.bind_output(t(0, 0), 0, 0, "y").unwrap();
    f.bind_output(t(1, 0), 0, 0, "z").unwrap();
    // context 1: r = p & q at (1,1), q routed in from (0,1)
    f.set_route(t(0, 1), 1, east, Some(Source::IoIn(0)))
        .unwrap();
    f.set_route(t(1, 1), 1, Sink::LutIn(0), Some(Source::IoIn(0)))
        .unwrap();
    f.set_route(t(1, 1), 1, Sink::LutIn(1), Some(from_west))
        .unwrap();
    f.tile_mut(t(1, 1)).unwrap().lut.program(1, 0b1000).unwrap();
    f.set_route(t(1, 1), 1, Sink::IoOut(0), Some(Source::LutOut))
        .unwrap();
    f.bind_input(t(1, 1), 0, 1, "p").unwrap();
    f.bind_input(t(0, 1), 0, 1, "q").unwrap();
    f.bind_output(t(1, 1), 0, 1, "r").unwrap();
    f
}

#[test]
fn golden_fabric_behaves_as_documented() {
    let f = golden_fabric();
    for a in [false, true] {
        let out = evaluate_sorted(&f, 0, &[("a", a)]).unwrap();
        assert_eq!(out, vec![("y".to_string(), !a), ("z".to_string(), !a)]);
    }
    for (p, q) in [(false, false), (true, false), (false, true), (true, true)] {
        let out = evaluate_sorted(&f, 1, &[("p", p), ("q", q)]).unwrap();
        assert_eq!(out, vec![("r".to_string(), p && q)]);
    }
}

#[test]
fn bitstream_bytes_match_golden() {
    let f = golden_fabric();
    let bytes = packed(&f);
    assert_eq!(
        hex(&bytes),
        GOLDEN_HEX,
        "bitstream layout changed: bump the format version and re-pin"
    );
    // the pinned bytes decode to the same configuration, byte for byte
    let back = unpack(&bytes).unwrap();
    assert_eq!(back.params(), f.params());
    assert_eq!(back.input_binds(), f.input_binds());
    assert_eq!(back.output_binds(), f.output_binds());
    assert_eq!(packed(&back), bytes);
    for ctx in 0..f.params().contexts {
        assert_eq!(back.context_digest(ctx), f.context_digest(ctx));
    }
}

#[test]
fn every_truncated_prefix_is_rejected() {
    let bytes = packed(&golden_fabric());
    for cut in 0..bytes.len() {
        assert!(
            matches!(unpack(&bytes[..cut]), Err(FabricError::BadBitstream(_))),
            "a {cut}-byte prefix of {} must be refused",
            bytes.len()
        );
    }
}

/// The plane-cache keys of the golden fabric: `Fabric::context_digest`
/// hashes the same architecture byte the bitstream header carries.
#[test]
fn context_digests_match_golden() {
    let f = golden_fabric();
    assert_eq!(f.context_digest(0).unwrap(), 0xdc95_1727_9093_a1b9);
    assert_eq!(f.context_digest(1).unwrap(), 0xdb96_c469_dfce_6401);
}
