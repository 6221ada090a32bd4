//! Bitstream: serialising configuration planes.
//!
//! The wire format is deliberately simple: a header (magic, version,
//! geometry), then per tile the LUT planes and the switch-block assignment
//! table, then the IO bindings. It is written and read through the
//! length-guarded [`crate::wire`] codec; the self-describing header lets a
//! loader reject mismatched fabrics instead of silently misconfiguring
//! contexts.

use crate::array::{Fabric, FabricParams, TileCoord};
use crate::wire::{Reader, Writer};
use crate::FabricError;
use mcfpga_core::ArchKind;

const MAGIC: u32 = 0x4D43_4647; // "MCFG"
const VERSION: u16 = 1;
/// Bytes of one io binding with an empty name: x, y, port, ctx, name length.
const BIND_MIN_BYTES: usize = 2 + 2 + 1 + 2 + 2;
/// Bytes of one tile's record for one context with no sinks: the LUT
/// table and the sink count.
const TILE_CONTEXT_MIN_BYTES: usize = 8 + 2;

/// `value` narrowed to its field's width, or an error naming the field —
/// a value that does not fit must never be written truncated.
fn field<T: TryFrom<usize>>(value: usize, what: &str) -> Result<T, FabricError> {
    T::try_from(value).map_err(|_| {
        FabricError::BadBitstream(format!("{what} {value} does not fit its bitstream field"))
    })
}

/// Serialises the complete configuration of `fabric`. Fails with
/// [`FabricError::BadBitstream`] when a geometry value, coordinate or
/// signal name is wider than its field, so everything `pack` emits,
/// [`unpack`] reads back unchanged.
pub fn pack(fabric: &Fabric) -> Result<Vec<u8>, FabricError> {
    let p = fabric.params();
    let mut w = Writer::new();
    w.u32(MAGIC);
    w.u16(VERSION);
    w.u8(p.arch.code());
    w.u8(field(p.lut_k, "lut_k")?);
    w.u16(field(p.width, "width")?);
    w.u16(field(p.height, "height")?);
    w.u16(field(p.channel_width, "channel_width")?);
    w.u16(field(p.contexts, "contexts")?);
    w.u8(field(p.io_in, "io_in")?);
    w.u8(field(p.io_out, "io_out")?);
    for t in fabric.tiles() {
        let tc = fabric.tile(t)?;
        for ctx in 0..p.contexts {
            w.u64(tc.lut.table(ctx)?);
        }
        for row in &tc.sb {
            w.u16(field(row.len(), "sink count")?);
            for slot in row {
                w.u16(field(
                    slot.map_or(0, |s| usize::from(s) + 1),
                    "source index",
                )?);
            }
        }
    }
    for binds in [fabric.input_binds(), fabric.output_binds()] {
        w.u32(field(binds.len(), "bind count")?);
        for (t, port, ctx, name) in binds {
            w.u16(field(t.x, "tile x")?);
            w.u16(field(t.y, "tile y")?);
            w.u8(field(*port, "port")?);
            w.u16(field(*ctx, "bind context")?);
            w.u16(field(name.len(), "signal name length")?);
            w.bytes(name.as_bytes());
        }
    }
    Ok(w.into_vec())
}

/// Reconstructs a fabric (geometry + full configuration) from a bitstream.
/// Truncated, trailing or undecodable bytes fail with
/// [`FabricError::BadBitstream`] — so does a header whose geometry the
/// bytes after it cannot hold, before any fabric is built, a LUT table
/// with bits set past its `2^k` entries, and a port bound twice in one
/// context; a geometry or binding the fabric itself rejects fails with
/// that error. No input makes it panic, and whatever it accepts, [`pack`]
/// writes back byte for byte.
pub fn unpack(data: &[u8]) -> Result<Fabric, FabricError> {
    let mut r = Reader::new(data);
    if r.u32()? != MAGIC {
        return Err(FabricError::BadBitstream("bad magic".into()));
    }
    if r.u16()? != VERSION {
        return Err(FabricError::BadBitstream("bad version".into()));
    }
    let code = r.u8()?;
    let arch = ArchKind::from_code(code)
        .ok_or_else(|| FabricError::BadBitstream(format!("arch code {code}")))?;
    let lut_k = r.u8()? as usize;
    let width = r.u16()? as usize;
    let height = r.u16()? as usize;
    let channel_width = r.u16()? as usize;
    let contexts = r.u16()? as usize;
    let io_in = r.u8()? as usize;
    let io_out = r.u8()? as usize;
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
    params.validate()?;
    // the header is untrusted: refuse a geometry whose tile records the
    // bytes left cannot hold before building (and allocating) the fabric
    if r.remaining() / TILE_CONTEXT_MIN_BYTES < width * height * contexts {
        return Err(FabricError::BadBitstream(format!(
            "{} bytes cannot hold the tile records of a {width}x{height}, \
             {contexts}-context fabric",
            r.remaining()
        )));
    }
    let mut fabric = Fabric::new(params)?;
    let tiles: Vec<_> = fabric.tiles().collect();
    for t in tiles {
        for ctx in 0..contexts {
            let table = r.u64()?;
            let lut = &mut fabric.tile_mut(t)?.lut;
            lut.program(ctx, table)?;
            // `program` keeps only the 2^k entries: a stray high bit
            // would be dropped silently, and re-packing would differ
            if lut.table(ctx)? != table {
                return Err(FabricError::BadBitstream(format!(
                    "tile {t} ctx {ctx}: LUT table {table:#x} sets bits past its {} entries",
                    1usize << lut_k
                )));
            }
        }
        let expect = fabric.sinks(t).len();
        for ctx in 0..contexts {
            let n = r.u16()? as usize;
            if n != expect {
                return Err(FabricError::BadBitstream(format!(
                    "tile {t} ctx {ctx}: {n} sinks, expected {expect}"
                )));
            }
            for sink_idx in 0..n {
                let raw = r.u16()?;
                fabric.tile_mut(t)?.sb[ctx][sink_idx] = raw.checked_sub(1);
            }
        }
    }
    for input in [true, false] {
        // the count is untrusted: `count` refuses more binds than the
        // bytes left could hold before anything is allocated
        let n = r.count(BIND_MIN_BYTES)?;
        for i in 0..n {
            let x = r.u16()? as usize;
            let y = r.u16()? as usize;
            let port = r.u8()? as usize;
            let ctx = r.u16()? as usize;
            let len = r.u16()? as usize;
            let name = r.utf8(len)?;
            let t = TileCoord { x, y };
            let bound = if input {
                fabric.bind_input(t, port, ctx, &name)?;
                fabric.input_binds().len()
            } else {
                fabric.bind_output(t, port, ctx, &name)?;
                fabric.output_binds().len()
            };
            // a second binding of one port replaces the first: `pack`
            // would write one, so the stream is not a packed fabric
            if bound != i + 1 {
                return Err(FabricError::BadBitstream(format!(
                    "tile {t} port {port} ctx {ctx} is bound twice"
                )));
            }
        }
    }
    r.finish()?;
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
        let bits = pack(&f).unwrap();
        let g = unpack(&bits).unwrap();
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
        let bits = pack(&f).unwrap();
        let cut = &bits[..bits.len() / 2];
        assert!(matches!(unpack(cut), Err(FabricError::BadBitstream(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let f = Fabric::new(FabricParams::default()).unwrap();
        let mut raw = pack(&f).unwrap();
        raw[0] ^= 0xFF;
        assert!(matches!(unpack(&raw), Err(FabricError::BadBitstream(_))));
    }

    #[test]
    fn hostile_bind_count_rejected() {
        let nl = generators::parity_tree(4).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let mut raw = pack(&f).unwrap();
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
        assert!(matches!(unpack(&raw), Err(FabricError::BadBitstream(_))));
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
        let g = unpack(&pack(&f).unwrap()).unwrap();
        assert_eq!(*g.params(), p);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let f = Fabric::new(FabricParams::default()).unwrap();
        let mut raw = pack(&f).unwrap();
        raw.push(0);
        assert!(matches!(unpack(&raw), Err(FabricError::BadBitstream(_))));
    }

    #[test]
    fn oversized_io_count_refuses_to_pack() {
        // io_in is a one-byte field: 300 must not pack as 300 % 256 = 44
        // and round-trip into a silently different geometry
        let f = Fabric::new(FabricParams {
            io_in: 300,
            ..FabricParams::default()
        })
        .unwrap();
        assert!(matches!(pack(&f), Err(FabricError::BadBitstream(_))));
    }

    #[test]
    fn oversized_signal_name_refuses_to_pack() {
        // name lengths are a two-byte field: a 70,000-byte name must not
        // pack into a stream that its own unpack rejects as truncated
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        let t = crate::array::TileCoord { x: 0, y: 0 };
        f.bind_input(t, 0, 0, &"n".repeat(70_000)).unwrap();
        assert!(matches!(pack(&f), Err(FabricError::BadBitstream(_))));
        // the widest name that fits still round-trips
        f.bind_input(t, 0, 0, &"n".repeat(usize::from(u16::MAX)))
            .unwrap();
        let g = unpack(&pack(&f).unwrap()).unwrap();
        assert_eq!(g.input_binds(), f.input_binds());
    }
}
