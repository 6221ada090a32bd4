//! Golden-file pin of checkpoint wire format v2.
//!
//! The hex blob below is the canonical encoding of a fixed checkpoint. If
//! this test fails, the wire format changed: bump
//! [`mcfpga_migrate::FORMAT_VERSION`], regenerate the blob, and keep the
//! old-version rejection test honest — never silently re-pin.

use mcfpga_cost::attribution::TenantUsage;
use mcfpga_device::TechParams;
use mcfpga_fabric::compiled::{LaneChunk, LANE_WORDS};
use mcfpga_fabric::{FabricParams, LogicNetlist, RegisterFile};
use mcfpga_migrate::{MigrateError, PendingBatch, TenantCheckpoint, FORMAT_VERSION};
use mcfpga_service::{Placement, ShardedService};
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

/// Canonical v2 encoding of [`golden_checkpoint`].
const GOLDEN_HEX: &str = "4d434b50000200000006676f6c64656e0123456789abcdef00000004000000040000000200000004000000040000000\
20000000202000000010000000300000002000000020000000278300000000000000001000000000000000000000000\
00000000000000000000000000000002783100000000000000020000000000000000000000000000000000000000000\
00000000000020000000000000028000000000000002900000001000000057265673a3700000000deadbeef00000000\
00000000000000000000000000000000000000550000000000000082000000000000000300000000000000050000000\
0000000080000000000000001000000000000000200000000000000030000000000000004";

/// A chunk whose word 0 is `w` — how v1's single-word values appear after
/// the v2 widening.
fn chunk(w: u64) -> LaneChunk {
    let mut c = [0u64; LANE_WORDS];
    c[0] = w;
    c
}

fn golden_checkpoint() -> TenantCheckpoint {
    TenantCheckpoint {
        name: "golden".into(),
        digest: 0x0123_4567_89AB_CDEF,
        params: FabricParams::default(),
        ctx: 1,
        css_position: 3,
        pending: PendingBatch {
            lanes: 2,
            inputs: vec![("x0".into(), chunk(0b01)), ("x1".into(), chunk(0b10))],
            requests: vec![40, 41],
        },
        // a nonzero upper word pins the full 4-word chunk encoding, not
        // just the word-0 compatibility slice
        regs: [("reg:7".to_string(), [0xDEAD_BEEF, 0, 0, 0x55] as LaneChunk)]
            .into_iter()
            .collect::<RegisterFile>(),
        usage: TenantUsage {
            requests: 130,
            passes: 3,
            css_toggles: 5,
            css_toggles_baseline: 8,
            migrations: 1,
            migration_bytes: 2,
            migration_downtime_cycles: 3,
            migration_css_toggles: 4,
        },
    }
}

fn golden_bytes() -> Vec<u8> {
    (0..GOLDEN_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_HEX[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn v2_encoding_is_pinned() {
    assert_eq!(
        golden_checkpoint().to_bytes(),
        golden_bytes(),
        "wire format drifted from the v2 golden blob — bump FORMAT_VERSION"
    );
}

#[test]
fn v2_golden_blob_decodes_to_the_fixture() {
    let decoded = TenantCheckpoint::from_bytes(&golden_bytes()).unwrap();
    assert_eq!(decoded, golden_checkpoint());
}

/// A checkpoint stamped with a *future* format version fails loudly with
/// the typed error, so an old build can never misread a new checkpoint.
#[test]
fn future_version_is_rejected_not_misread() {
    let mut blob = golden_bytes();
    for future in [FORMAT_VERSION + 1, FORMAT_VERSION + 7, u16::MAX] {
        blob[4..6].copy_from_slice(&future.to_be_bytes());
        assert_eq!(
            TenantCheckpoint::from_bytes(&blob),
            Err(MigrateError::VersionMismatch {
                found: future,
                supported: FORMAT_VERSION,
            }),
            "version {future}"
        );
    }
    // version 0 (pre-release garbage) equally refuses
    blob[4..6].copy_from_slice(&0u16.to_be_bytes());
    assert!(matches!(
        TenantCheckpoint::from_bytes(&blob),
        Err(MigrateError::VersionMismatch { found: 0, .. })
    ));
}

/// Every single-byte truncation of the golden blob is a typed failure —
/// never a panic, never a partial decode.
#[test]
fn every_truncation_fails_typed() {
    let blob = golden_bytes();
    for cut in 0..blob.len() {
        let err = TenantCheckpoint::from_bytes(&blob[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                MigrateError::Truncated { .. }
                    | MigrateError::BadMagic
                    | MigrateError::VersionMismatch { .. }
            ),
            "cut at {cut}: {err}"
        );
    }
}

/// The golden blob's length fields: `(byte offset, value)` of each `u32`
/// that sizes what follows it — the name, the pending lane count, the
/// input list and each input name, the request-id list, the register
/// list and the register name.
const LENGTH_FIELDS: [(usize, u32); 8] = [
    (6, 6),
    (61, 2),
    (65, 2),
    (69, 2),
    (107, 2),
    (145, 2),
    (165, 1),
    (169, 5),
];

/// A live 2-shard service holding, under the golden checkpoint's digest,
/// a plane whose input columns are the checkpoint's `x0` and `x1` — so
/// the golden blob, and every mutant that keeps its digest, reaches the
/// restore's later stages instead of stopping at a cold cache.
fn live_service() -> ShardedService {
    let mut nl = LogicNetlist::new();
    let x0 = nl.add_input("x0");
    let x1 = nl.add_input("x1");
    let xor = nl.add_lut("y", &[x0, x1], 0b0110).unwrap();
    nl.add_output("y", xor).unwrap();
    let params = FabricParams::default();
    let mut scratch = ShardedService::new(1, params, TechParams::default()).unwrap();
    let t = scratch.admit("golden", &nl).unwrap();
    let digest = scratch.registry().tenant(t).unwrap().digest;
    let mut svc = ShardedService::new(2, params, TechParams::default()).unwrap();
    svc.import_plane(
        golden_checkpoint().digest,
        scratch.export_plane(digest).unwrap(),
    )
    .unwrap();
    svc
}

/// Restores `ckpt` into the slot its own fields name (a shard the service
/// may lack, a context it may not have) twice: once to discard its
/// restored lanes, once to serve them; retires it after each. Returns
/// whether the restores were accepted; panicking is the failure.
fn restore_and_serve(svc: &mut ShardedService, ckpt: &TenantCheckpoint) -> bool {
    let slot = Placement {
        shard: ckpt.css_position % 3,
        ctx: ckpt.ctx,
    };
    for serve in [false, true] {
        let Ok((tenant, _)) = svc.restore_tenant_into(ckpt, slot) else {
            return false;
        };
        if serve {
            let _ = svc.drain();
            let _ = svc.take_faults();
        } else {
            svc.discard_pending(tenant).unwrap();
        }
        svc.retire_tenant(tenant).unwrap();
    }
    true
}

/// Checks one hostile mutant of the golden blob: it is refused, or it
/// decodes to a checkpoint that re-encodes to exactly its bytes and that
/// a live service restores or refuses without panicking. Decoding never
/// makes an allocation larger than a small multiple of the input.
fn check_mutant(svc: &mut ShardedService, blob: &[u8]) -> Result<(), TestCaseError> {
    let (decoded, largest) = largest_allocation_during(|| TenantCheckpoint::from_bytes(blob));
    prop_assert!(
        largest <= 4 * blob.len() + 1024,
        "decoding {} bytes allocated {largest} at once",
        blob.len()
    );
    if let Ok(ckpt) = decoded {
        prop_assert_eq!(
            ckpt.to_bytes(),
            blob.to_vec(),
            "a decoded mutant re-encodes differently"
        );
        restore_and_serve(svc, &ckpt);
    }
    Ok(())
}

/// The mutation harness's own premises: the length fields sit where
/// [`LENGTH_FIELDS`] says, and the unmutated golden checkpoint restores.
#[test]
fn golden_blob_length_fields_and_restore_are_as_mutated() {
    let blob = golden_bytes();
    for (at, value) in LENGTH_FIELDS {
        let field = u32::from_be_bytes(blob[at..at + 4].try_into().unwrap());
        assert_eq!(field, value, "length field at byte {at}");
    }
    assert!(restore_and_serve(&mut live_service(), &golden_checkpoint()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile checkpoint bytes — random byte flips, appended bytes, and
    /// length fields overwritten with huge values — never panic and never
    /// allocate without bound, in the decoder or in a live restore.
    #[test]
    fn hostile_checkpoint_bytes_fail_typed_or_round_trip(
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        tail in prop::collection::vec(any::<u8>(), 0..12),
        field in 0usize..LENGTH_FIELDS.len(),
        huge in any::<u32>(),
        overwrite in any::<bool>(),
    ) {
        let mut svc = live_service();
        let golden = golden_bytes();
        let mut flipped = golden.clone();
        for &(at, mask) in &flips {
            let at = at % flipped.len();
            flipped[at] ^= mask;
        }
        check_mutant(&mut svc, &flipped)?;
        let mut extended = golden.clone();
        extended.extend_from_slice(&tail);
        check_mutant(&mut svc, &extended)?;
        if overwrite {
            let mut lengthened = golden;
            let (at, _) = LENGTH_FIELDS[field];
            // at least 2^24: far past anything the blob can hold
            let value = huge | 0x0100_0000;
            lengthened[at..at + 4].copy_from_slice(&value.to_be_bytes());
            check_mutant(&mut svc, &lengthened)?;
        }
    }
}
