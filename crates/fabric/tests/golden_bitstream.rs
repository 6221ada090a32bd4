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
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single allocation made on this thread since the last
    /// [`largest_allocation_during`] began.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest allocation (a
/// const-initialised thread-local, so recording never allocates).
struct Recording;

fn record(size: usize) {
    // `try_with`: a thread being torn down may still allocate
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call forwards unchanged to `System`; recording touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded with the caller's layout contract
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded with the caller's layout contract
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Recording = Recording;

/// Runs `f`, returning its result and the largest single allocation it
/// made on this thread.
fn largest_allocation_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// The most a refused header may make one decode allocate at once for
/// `len` input bytes: a small multiple of the input plus a fixed
/// allowance for error text — nothing sized by the geometry it claims.
fn header_bound(len: usize) -> usize {
    4 * len + 1024
}

/// The most any decode may allocate at once for `len` input bytes: the
/// built fabric's tile table, which the length check keeps under 8 bytes
/// per input byte, or the list of one tile's switch-block sinks (at most
/// 64 channel wires, 6 LUT pins and 255 output ports), whichever is
/// larger.
fn allocation_bound(len: usize) -> usize {
    8 * len + 16 * 1024
}

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

/// The header's geometry fields: `(byte offset, width in bytes)` of the
/// architecture code, LUT arity, width, height, channel width, context
/// count and the two IO counts.
const HEADER_FIELDS: [(usize, usize); 8] = [
    (6, 1),
    (7, 1),
    (8, 2),
    (10, 2),
    (12, 2),
    (14, 2),
    (16, 1),
    (17, 1),
];

/// Bytes of the header: magic, version, then [`HEADER_FIELDS`].
const HEADER_BYTES: usize = 18;

/// Checks one hostile mutant of the golden bitstream: it is refused, or
/// it decodes to a fabric that packs back to exactly its bytes. Decoding
/// never makes an allocation larger than [`allocation_bound`].
fn check_mutant(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (decoded, largest) = largest_allocation_during(|| unpack(bytes));
    prop_assert!(
        largest <= allocation_bound(bytes.len()),
        "decoding {} bytes allocated {largest} at once",
        bytes.len()
    );
    if let Ok(fabric) = decoded {
        prop_assert_eq!(
            pack(&fabric).ok(),
            Some(bytes.to_vec()),
            "a decoded mutant packs differently"
        );
    }
    Ok(())
}

/// The mutation harness's own premises: the header is [`HEADER_BYTES`]
/// long with its fields where [`HEADER_FIELDS`] says, and the unmutated
/// golden bitstream passes [`check_mutant`].
#[test]
fn golden_header_fields_are_as_mutated() {
    let bytes = packed(&golden_fabric());
    let p = *golden_fabric().params();
    let read = |(at, width): (usize, usize)| {
        bytes[at..at + width]
            .iter()
            .fold(0usize, |v, b| v << 8 | usize::from(*b))
    };
    let fields = HEADER_FIELDS.map(read);
    let want = [
        usize::from(p.arch.code()),
        p.lut_k,
        p.width,
        p.height,
        p.channel_width,
        p.contexts,
        p.io_in,
        p.io_out,
    ];
    assert_eq!(fields, want);
    let (last, width) = HEADER_FIELDS[HEADER_FIELDS.len() - 1];
    assert_eq!(last + width, HEADER_BYTES);
    check_mutant(&bytes).unwrap();
}

/// A bare header announcing the largest geometry `FabricParams::validate`
/// admits (64×64 tiles, 64 contexts) is refused from its length alone:
/// no fabric is built, so nothing near its size is allocated.
#[test]
fn a_header_only_maximum_geometry_is_refused_before_any_fabric_is_built() {
    let params = FabricParams {
        width: 64,
        height: 64,
        channel_width: 16,
        lut_k: 6,
        contexts: 64,
        ..*golden_fabric().params()
    };
    params.validate().unwrap();
    let mut header = packed(&golden_fabric());
    header.truncate(HEADER_BYTES);
    for (value, (at, width)) in [params.lut_k, 64, 64, 16, 64]
        .into_iter()
        .zip(&HEADER_FIELDS[1..6])
    {
        header[*at..at + width].copy_from_slice(&value.to_be_bytes()[8 - width..]);
    }
    let (decoded, largest) = largest_allocation_during(|| unpack(&header));
    assert!(
        matches!(decoded, Err(FabricError::BadBitstream(_))),
        "{decoded:?}"
    );
    assert!(
        largest <= header_bound(header.len()),
        "an {}-byte header allocated {largest} at once",
        header.len()
    );
}

/// A packed bind record naming a context the fabric lacks is refused:
/// the golden stream's ctx-1 bindings of input `p` and output `r`,
/// rewritten to context 2 (= `contexts`) or 65535, decode to `Err`.
#[test]
fn a_bind_in_a_context_past_the_header_is_refused() {
    let golden = packed(&golden_fabric());
    for name in [b'p', b'r'] {
        // a record ends `ctx: u16, len: u16 = 1, name`
        let len_at = golden
            .windows(3)
            .position(|w| w == [0, 1, name])
            .expect("bind record in the golden stream");
        let ctx_at = len_at - 2;
        assert_eq!(golden[ctx_at..len_at], [0, 1], "premise: bound in ctx 1");
        for ctx in [2u16, u16::MAX] {
            let mut bytes = golden.clone();
            bytes[ctx_at..len_at].copy_from_slice(&ctx.to_be_bytes());
            let decoded = unpack(&bytes);
            assert!(
                matches!(decoded, Err(FabricError::BadParams(_))),
                "`{}` bound in ctx {ctx}: {decoded:?}",
                char::from(name)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile bitstream bytes — random byte flips, appended bytes, and a
    /// header field set to its maximum — never panic and never allocate
    /// without bound: each mutant is refused or packs back to itself.
    #[test]
    fn hostile_bitstream_bytes_fail_typed_or_round_trip(
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        tail in prop::collection::vec(any::<u8>(), 0..12),
        field in 0usize..HEADER_FIELDS.len(),
    ) {
        let golden = packed(&golden_fabric());
        let mut flipped = golden.clone();
        for &(at, mask) in &flips {
            let at = at % flipped.len();
            flipped[at] ^= mask;
        }
        check_mutant(&flipped)?;
        let mut extended = golden.clone();
        extended.extend_from_slice(&tail);
        check_mutant(&extended)?;
        let mut maxed = golden;
        let (at, width) = HEADER_FIELDS[field];
        maxed[at..at + width].fill(0xFF);
        check_mutant(&maxed)?;
    }
}
