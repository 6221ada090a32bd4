//! Bitstream: serialising configuration planes.
//!
//! The wire format is deliberately simple: a header (magic, version,
//! geometry), then per tile the LUT planes and the switch-block assignment
//! table. Packing uses `bytes`; the self-describing header lets a loader
//! reject mismatched fabrics instead of silently misconfiguring contexts.

use crate::array::{Fabric, FabricParams};
use crate::FabricError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mcfpga_core::ArchKind;

const MAGIC: u32 = 0x4D43_4647; // "MCFG"
const VERSION: u16 = 1;
/// Bytes of one io binding with an empty name: x, y, port, ctx, name length.
const BIND_MIN_BYTES: usize = 2 + 2 + 1 + 2 + 2;

fn arch_code(a: ArchKind) -> u8 {
    match a {
        ArchKind::Sram => 0,
        ArchKind::MvFgfp => 1,
        ArchKind::Hybrid => 2,
    }
}

fn arch_from(c: u8) -> Result<ArchKind, FabricError> {
    Ok(match c {
        0 => ArchKind::Sram,
        1 => ArchKind::MvFgfp,
        2 => ArchKind::Hybrid,
        _ => return Err(FabricError::BadBitstream(format!("arch code {c}"))),
    })
}

/// Serialises the complete configuration of `fabric`.
#[must_use]
pub fn pack(fabric: &Fabric) -> Bytes {
    let p = fabric.params();
    let mut b = BytesMut::new();
    b.put_u32(MAGIC);
    b.put_u16(VERSION);
    b.put_u8(arch_code(p.arch));
    b.put_u8(p.lut_k as u8);
    b.put_u16(p.width as u16);
    b.put_u16(p.height as u16);
    b.put_u16(p.channel_width as u16);
    b.put_u16(p.contexts as u16);
    b.put_u8(p.io_in as u8);
    b.put_u8(p.io_out as u8);
    for t in fabric.tiles() {
        let tc = fabric.tile(t).expect("tile iterated");
        for ctx in 0..p.contexts {
            b.put_u64(tc.lut.table(ctx).expect("ctx in range"));
        }
        for ctx in 0..p.contexts {
            let row = &tc.sb[ctx];
            b.put_u16(row.len() as u16);
            for slot in row {
                match slot {
                    Some(s) => b.put_u16(*s + 1),
                    None => b.put_u16(0),
                }
            }
        }
    }
    // io bindings
    let put_binds =
        |b: &mut BytesMut, binds: &[(crate::array::TileCoord, usize, usize, String)]| {
            b.put_u32(binds.len() as u32);
            for (t, port, ctx, name) in binds {
                b.put_u16(t.x as u16);
                b.put_u16(t.y as u16);
                b.put_u8(*port as u8);
                b.put_u16(*ctx as u16);
                b.put_u16(name.len() as u16);
                b.put_slice(name.as_bytes());
            }
        };
    put_binds(&mut b, fabric.input_binds());
    put_binds(&mut b, fabric.output_binds());
    b.freeze()
}

/// Reconstructs a fabric (geometry + full configuration) from a bitstream.
pub fn unpack(mut data: Bytes) -> Result<Fabric, FabricError> {
    let need = |data: &Bytes, n: usize| -> Result<(), FabricError> {
        if data.remaining() < n {
            Err(FabricError::BadBitstream("truncated".into()))
        } else {
            Ok(())
        }
    };
    need(&data, 4 + 2 + 2 + 8 + 2)?;
    if data.get_u32() != MAGIC {
        return Err(FabricError::BadBitstream("bad magic".into()));
    }
    if data.get_u16() != VERSION {
        return Err(FabricError::BadBitstream("bad version".into()));
    }
    let arch = arch_from(data.get_u8())?;
    let lut_k = data.get_u8() as usize;
    let width = data.get_u16() as usize;
    let height = data.get_u16() as usize;
    let channel_width = data.get_u16() as usize;
    let contexts = data.get_u16() as usize;
    let io_in = data.get_u8() as usize;
    let io_out = data.get_u8() as usize;
    let params = FabricParams {
        width,
        height,
        channel_width,
        lut_k,
        contexts,
        io_in,
        io_out,
        arch,
    };
    let mut fabric = Fabric::new(params)?;
    let tiles: Vec<_> = fabric.tiles().collect();
    for t in tiles {
        for ctx in 0..contexts {
            need(&data, 8)?;
            let table = data.get_u64();
            fabric.tile_mut(t)?.lut.program(ctx, table)?;
        }
        for ctx in 0..contexts {
            need(&data, 2)?;
            let n = data.get_u16() as usize;
            let expect = fabric.sinks(t).len();
            if n != expect {
                return Err(FabricError::BadBitstream(format!(
                    "tile {t} ctx {ctx}: {n} sinks, expected {expect}"
                )));
            }
            for sink_idx in 0..n {
                need(&data, 2)?;
                let raw = data.get_u16();
                let tcfg = fabric.tile_mut(t)?;
                tcfg.sb[ctx][sink_idx] = raw.checked_sub(1);
            }
        }
    }
    type RawBind = (usize, usize, usize, usize, String);
    let read_binds = |data: &mut Bytes| -> Result<Vec<RawBind>, FabricError> {
        need(data, 4)?;
        let n = data.get_u32() as usize;
        // the count is untrusted: reserve no more binds than the bytes
        // left could hold
        let mut v = Vec::with_capacity(n.min(data.remaining() / BIND_MIN_BYTES));
        for _ in 0..n {
            need(data, BIND_MIN_BYTES)?;
            let x = data.get_u16() as usize;
            let y = data.get_u16() as usize;
            let port = data.get_u8() as usize;
            let ctx = data.get_u16() as usize;
            let len = data.get_u16() as usize;
            need(data, len)?;
            let raw = data.copy_to_bytes(len);
            let name = String::from_utf8(raw.to_vec())
                .map_err(|_| FabricError::BadBitstream("bad utf8 name".into()))?;
            v.push((x, y, port, ctx, name));
        }
        Ok(v)
    };
    for (x, y, port, ctx, name) in read_binds(&mut data)? {
        fabric.bind_input(crate::array::TileCoord { x, y }, port, ctx, &name)?;
    }
    for (x, y, port, ctx, name) in read_binds(&mut data)? {
        fabric.bind_output(crate::array::TileCoord { x, y }, port, ctx, &name)?;
    }
    Ok(fabric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist_ir::generators;
    use crate::route::implement_netlist;
    use crate::sim::evaluate_sorted;

    #[test]
    fn roundtrip_preserves_behaviour() {
        let nl = generators::parity_tree(4).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let bits = pack(&f);
        let g = unpack(bits).unwrap();
        for x in 0..16u32 {
            let ins: Vec<(String, bool)> = (0..4)
                .map(|i| (format!("x{i}"), (x >> i) & 1 == 1))
                .collect();
            let ins_ref: Vec<(&str, bool)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            assert_eq!(
                evaluate_sorted(&f, 0, &ins_ref).unwrap(),
                evaluate_sorted(&g, 0, &ins_ref).unwrap(),
                "x={x}"
            );
        }
    }

    #[test]
    fn truncated_rejected() {
        let f = Fabric::new(FabricParams::default()).unwrap();
        let bits = pack(&f);
        let cut = bits.slice(0..bits.len() / 2);
        assert!(matches!(unpack(cut), Err(FabricError::BadBitstream(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let f = Fabric::new(FabricParams::default()).unwrap();
        let mut raw = pack(&f).to_vec();
        raw[0] ^= 0xFF;
        assert!(matches!(
            unpack(Bytes::from(raw)),
            Err(FabricError::BadBitstream(_))
        ));
    }

    #[test]
    fn hostile_bind_count_rejected() {
        let nl = generators::parity_tree(4).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let mut raw = pack(&f).to_vec();
        // the output bindings close the stream: a count, then the binds
        let binds: usize = f
            .output_binds()
            .iter()
            .map(|(.., name)| BIND_MIN_BYTES + name.len())
            .sum();
        let at = raw.len() - binds - 4;
        assert_eq!(
            raw[at..at + 4],
            (f.output_binds().len() as u32).to_be_bytes()
        );
        raw[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            unpack(Bytes::from(raw)),
            Err(FabricError::BadBitstream(_))
        ));
    }

    #[test]
    fn header_geometry_roundtrip() {
        let p = FabricParams {
            width: 5,
            height: 3,
            channel_width: 4,
            lut_k: 3,
            contexts: 8,
            io_in: 1,
            io_out: 3,
            arch: ArchKind::MvFgfp,
        };
        let f = Fabric::new(p).unwrap();
        let g = unpack(pack(&f)).unwrap();
        assert_eq!(*g.params(), p);
    }
}
