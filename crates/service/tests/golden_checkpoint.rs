//! Golden pins of checkpoints the service itself produces.
//!
//! `mcfpga-migrate`'s `golden_wire.rs` pins the codec on a hand-built
//! checkpoint; these pin what `checkpoint_tenant` captures from live
//! service state: the pending batch's input names, their order and lane
//! words, the register file and the usage counters. A failure here means
//! service-produced checkpoint bytes changed — never re-pin silently.

use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::{FabricParams, LogicNetlist};
use mcfpga_service::ShardedService;

fn service() -> ShardedService {
    ShardedService::new(2, FabricParams::default(), TechParams::default()).unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `y = x XOR reg:acc`, `reg:acc = y` — a one-bit stream accumulator.
fn accumulator() -> LogicNetlist {
    let mut nl = LogicNetlist::new();
    let x = nl.add_input("x");
    let acc = nl.add_input("reg:acc");
    let xor = nl.add_lut("t", &[x, acc], 0b0110).unwrap();
    nl.add_output("y", xor).unwrap();
    nl.add_output("reg:acc", xor).unwrap();
    nl
}

/// A parity-3 tenant with three requests queued: the pending batch
/// carries `x0..x2` in bind order with the three lanes' bits.
#[test]
fn parity_checkpoint_with_three_pending_requests_is_pinned() {
    let mut svc = service();
    let t = svc
        .admit("parity", &generators::parity_tree(3).unwrap())
        .unwrap();
    for v in [0b101u32, 0b010, 0b111] {
        let inputs: Vec<(String, bool)> = (0..3)
            .map(|i| (format!("x{i}"), (v >> i) & 1 == 1))
            .collect();
        let refs: Vec<(&str, bool)> = inputs.iter().map(|(n, b)| (n.as_str(), *b)).collect();
        svc.submit(t, &refs).unwrap();
    }
    let bytes = svc.checkpoint_tenant(t).unwrap().to_bytes();
    assert_eq!(hex(&bytes), PARITY_HEX);
}

/// The accumulator after one two-lane pass: nothing pending, and the
/// register file holds the pass's `reg:acc` lane words.
#[test]
fn accumulator_checkpoint_after_one_pass_is_pinned() {
    let mut svc = service();
    let t = svc.admit("acc", &accumulator()).unwrap();
    svc.submit(t, &[("x", true)]).unwrap();
    svc.submit(t, &[("x", false)]).unwrap();
    assert_eq!(svc.drain().unwrap().len(), 2);
    let bytes = svc.checkpoint_tenant(t).unwrap().to_bytes();
    assert_eq!(hex(&bytes), ACCUMULATOR_HEX);
}

/// `checkpoint_tenant` bytes of the parity-3 tenant with three queued requests.
const PARITY_HEX: &str =
    "4d434b500002000000067061726974797dfb37e1210aa7da00000004000000040000000200000004000000040000\
00020000000202000000000000000000000003000000030000000278300000000000000005000000000000000000\
00000000000000000000000000000000000002783100000000000000060000000000000000000000000000000000\
00000000000000000000027832000000000000000500000000000000000000000000000000000000000000000000\
00000300000000000000000000000000000001000000000000000200000000000000000000000300000000000000\
00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
000000";

/// `checkpoint_tenant` bytes of the accumulator after one pass.
const ACCUMULATOR_HEX: &str =
    "4d434b50000200000003616363fbef330fa66f850200000004000000040000000200000004000000040000000200\
00000202000000000000000000000000000000000000000000000001000000077265673a61636300000000000000\
01000000000000000000000000000000000000000000000000000000000000000200000000000000010000000000\
00000000000000000000000000000000000000000000000000000000000000000000000000000000000000";
