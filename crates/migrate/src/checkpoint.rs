//! The tenant checkpoint model and its versioned wire codec.

use crate::{MigrateError, FORMAT_VERSION};
use mcfpga_core::ArchKind;
use mcfpga_cost::attribution::TenantUsage;
use mcfpga_fabric::compiled::{LaneChunk, LANE_WORDS, MAX_LANES};
use mcfpga_fabric::wire::{Reader, Writer};
use mcfpga_fabric::{FabricParams, RegisterFile};

/// First bytes of every checkpoint buffer.
pub const MAGIC: [u8; 4] = *b"MCKP";

/// A tenant's submitted-but-unexecuted requests, exactly as they sit in
/// the slot's lane batch: the tenant's input columns with their lane
/// chunks (lane `l` = request `l`'s value) plus the original request ids,
/// lane order. Restoring resolves the names to the destination's columns
/// by name — any order; a missing column or a column named twice is
/// corrupt, and a name that is not a column is dropped — and re-queues
/// the chunks unchanged, so the batch evaluates bit-for-bit as it would
/// have at the source; the ids are an audit trail (a restore issues
/// *fresh* ids — see the service docs — so a stale checkpoint can never
/// resurrect requests that were answered or discarded after it was
/// taken).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PendingBatch {
    /// Occupied lanes (queued requests).
    pub lanes: usize,
    /// Input column names and their lane chunks, column order as
    /// captured.
    pub inputs: Vec<(String, LaneChunk)>,
    /// Source-side request ids, lane order (`lanes` entries).
    pub requests: Vec<u64>,
}

/// Everything needed to resume a tenant on another shard or service.
///
/// Taken at a context-switch boundary (between fabric passes), where the
/// tenant's whole execution state is explicit; see the
/// [crate docs](crate) for the field-by-field rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantCheckpoint {
    /// Human-readable tenant name.
    pub name: String,
    /// Configuration digest of the tenant's routed context plane — the
    /// plane-cache key the destination resolves instead of receiving a
    /// bitstream.
    pub digest: u64,
    /// Fabric geometry the plane was compiled for; restore refuses a
    /// differently-shaped service.
    pub params: FabricParams,
    /// Context slot the tenant occupied at checkpoint time (the restore
    /// affinity hint: equally cheap slots break toward the same index;
    /// the cached plane serves any index).
    pub ctx: usize,
    /// Where the source shard's CSS broadcast sat at the boundary.
    pub css_position: usize,
    /// Queued, unexecuted requests.
    pub pending: PendingBatch,
    /// Stream state carried across pass boundaries
    /// (`reg:*`-named lane words).
    pub regs: RegisterFile,
    /// Accumulated usage counters — billing follows the tenant.
    pub usage: TenantUsage,
}

impl TenantCheckpoint {
    /// Serializes through the versioned wire format. Deterministic: equal
    /// checkpoints produce equal bytes (every collection in the model is
    /// insertion-ordered, never hashed).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        w.u16(FORMAT_VERSION);
        w.string(&self.name);
        w.u64(self.digest);
        let p = &self.params;
        for dim in [
            p.width,
            p.height,
            p.channel_width,
            p.lut_k,
            p.contexts,
            p.io_in,
            p.io_out,
        ] {
            w.u32(dim as u32);
        }
        w.u8(p.arch.code());
        w.u32(self.ctx as u32);
        w.u32(self.css_position as u32);
        w.u32(self.pending.lanes as u32);
        w.u32(self.pending.inputs.len() as u32);
        for (name, chunk) in &self.pending.inputs {
            w.string(name);
            for word in chunk {
                w.u64(*word);
            }
        }
        w.u32(self.pending.requests.len() as u32);
        for id in &self.pending.requests {
            w.u64(*id);
        }
        w.u32(self.regs.len() as u32);
        for (name, chunk) in self.regs.entries() {
            w.string(name);
            for word in chunk {
                w.u64(*word);
            }
        }
        let u = &self.usage;
        for counter in [
            u.requests,
            u.passes,
            u.css_toggles,
            u.css_toggles_baseline,
            u.migrations,
            u.migration_bytes,
            u.migration_downtime_cycles,
            u.migration_css_toggles,
        ] {
            w.u64(counter as u64);
        }
        w.into_vec()
    }

    /// Wire size of this checkpoint — the "bytes moved" a migration bills.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let strings: usize = std::iter::once(self.name.len())
            .chain(self.pending.inputs.iter().map(|(n, _)| n.len()))
            .chain(self.regs.entries().iter().map(|(n, _)| n.len()))
            .map(|len| 4 + len)
            .sum();
        // magic + version + digest + 7 dims + arch + (ctx, css position,
        // lane count, 3 record counts) + the 8-counter usage block,
        // then the variable-length records (each input/register carries
        // LANE_WORDS lane words)
        let fixed = 4 + 2 + 8 + 7 * 4 + 1 + 6 * 4 + 8 * 8;
        fixed
            + strings
            + 8 * LANE_WORDS * (self.pending.inputs.len() + self.regs.len())
            + 8 * self.pending.requests.len()
    }

    /// Decodes a checkpoint, rejecting unknown versions, truncation,
    /// trailing bytes and structurally impossible payloads.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MigrateError> {
        let mut r = Reader::new(bytes);
        if r.bytes(4).map_err(|_| MigrateError::BadMagic)? != MAGIC {
            return Err(MigrateError::BadMagic);
        }
        let found = r.u16()?;
        if found != FORMAT_VERSION {
            return Err(MigrateError::VersionMismatch {
                found,
                supported: FORMAT_VERSION,
            });
        }
        let name = r.string()?;
        let digest = r.u64()?;
        let mut dims = [0usize; 7];
        for d in &mut dims {
            *d = r.u32()? as usize;
        }
        let code = r.u8()?;
        let arch = ArchKind::from_code(code)
            .ok_or_else(|| MigrateError::Corrupt(format!("unknown architecture code {code}")))?;
        let params = FabricParams {
            width: dims[0],
            height: dims[1],
            channel_width: dims[2],
            lut_k: dims[3],
            contexts: dims[4],
            io_in: dims[5],
            io_out: dims[6],
            arch,
        };
        let ctx = r.u32()? as usize;
        let css_position = r.u32()? as usize;
        if ctx >= params.contexts || css_position >= params.contexts {
            return Err(MigrateError::Corrupt(format!(
                "slot {ctx} / css position {css_position} outside {} contexts",
                params.contexts
            )));
        }
        let lanes = r.u32()? as usize;
        if lanes > MAX_LANES {
            return Err(MigrateError::Corrupt(format!(
                "{lanes} pending lanes exceed the {MAX_LANES}-lane batch width"
            )));
        }
        let n_inputs = r.count(4 + 8 * LANE_WORDS)?;
        // bits above the occupied lanes are unreachable from the encoder
        // (the queue keeps them zero) and would corrupt later-submitted
        // requests after a restore, so they are structural corruption —
        // checked word by word, since lanes span LANE_WORDS words
        let mut inputs = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            let name = r.string()?;
            let mut chunk = [0u64; LANE_WORDS];
            for (w, word) in chunk.iter_mut().enumerate() {
                *word = r.u64()?;
                let occupied_here = lanes.saturating_sub(w * 64).min(64);
                let unoccupied = if occupied_here == 64 {
                    0
                } else {
                    !0u64 << occupied_here
                };
                if *word & unoccupied != 0 {
                    return Err(MigrateError::Corrupt(format!(
                        "input '{name}' has lane bits set beyond the {lanes} pending lanes"
                    )));
                }
            }
            inputs.push((name, chunk));
        }
        let n_requests = r.count(8)?;
        if n_requests != lanes {
            return Err(MigrateError::Corrupt(format!(
                "{n_requests} request ids for {lanes} pending lanes"
            )));
        }
        let mut requests = Vec::with_capacity(n_requests);
        for _ in 0..n_requests {
            requests.push(r.u64()?);
        }
        let n_regs = r.count(4 + 8 * LANE_WORDS)?;
        let mut regs = RegisterFile::new();
        for _ in 0..n_regs {
            let name = r.string()?;
            let mut chunk = [0u64; LANE_WORDS];
            for word in &mut chunk {
                *word = r.u64()?;
            }
            regs.set_chunk(&name, chunk);
        }
        let mut counters = [0usize; 8];
        for c in &mut counters {
            *c = r.u64()? as usize;
        }
        r.finish()?;
        Ok(TenantCheckpoint {
            name,
            digest,
            params,
            ctx,
            css_position,
            pending: PendingBatch {
                lanes,
                inputs,
                requests,
            },
            regs,
            usage: TenantUsage {
                requests: counters[0],
                passes: counters[1],
                css_toggles: counters[2],
                css_toggles_baseline: counters[3],
                migrations: counters[4],
                migration_bytes: counters[5],
                migration_downtime_cycles: counters[6],
                migration_css_toggles: counters[7],
            },
        })
    }
}

// Checkpoints cross engine (and thread) boundaries by design.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TenantCheckpoint>();
    assert_send_sync::<PendingBatch>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TenantCheckpoint {
        TenantCheckpoint {
            name: "acc".into(),
            digest: 0x0123_4567_89AB_CDEF,
            params: FabricParams::default(),
            ctx: 2,
            css_position: 1,
            pending: PendingBatch {
                lanes: 2,
                inputs: vec![("x".into(), [0b01, 0, 0, 0]), ("y".into(), [0b10, 0, 0, 0])],
                requests: vec![17, 18],
            },
            regs: [("reg:3".to_string(), [0xFFu64, 0xA5, 0, 1])]
                .into_iter()
                .collect(),
            usage: TenantUsage {
                requests: 9,
                passes: 2,
                css_toggles: 4,
                css_toggles_baseline: 6,
                ..TenantUsage::default()
            },
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let ckpt = sample();
        let wire = ckpt.to_bytes();
        assert_eq!(wire.len(), ckpt.encoded_len());
        assert_eq!(TenantCheckpoint::from_bytes(&wire).unwrap(), ckpt);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
    }

    #[test]
    fn unknown_version_fails_loudly() {
        let mut wire = sample().to_bytes();
        wire[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_be_bytes());
        assert_eq!(
            TenantCheckpoint::from_bytes(&wire),
            Err(MigrateError::VersionMismatch {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION,
            })
        );
    }

    #[test]
    fn bad_magic_and_truncation_are_typed() {
        let wire = sample().to_bytes();
        let mut scribbled = wire.clone();
        scribbled[0] = b'X';
        assert_eq!(
            TenantCheckpoint::from_bytes(&scribbled),
            Err(MigrateError::BadMagic)
        );
        for cut in [0, 3, 5, wire.len() / 2, wire.len() - 1] {
            let err = TenantCheckpoint::from_bytes(&wire[..cut]).unwrap_err();
            assert!(
                matches!(err, MigrateError::Truncated { .. } | MigrateError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
        let mut padded = wire;
        padded.push(0);
        assert!(matches!(
            TenantCheckpoint::from_bytes(&padded),
            Err(MigrateError::Corrupt(_))
        ));
    }

    #[test]
    fn impossible_structures_are_corrupt() {
        // lane count beyond the batch width
        let mut ckpt = sample();
        ckpt.pending.lanes = MAX_LANES + 1;
        ckpt.pending.requests = vec![0; MAX_LANES + 1];
        assert!(matches!(
            TenantCheckpoint::from_bytes(&ckpt.to_bytes()),
            Err(MigrateError::Corrupt(_))
        ));
        // request-id count disagreeing with the lane count
        let mut ckpt = sample();
        ckpt.pending.requests.pop();
        assert!(matches!(
            TenantCheckpoint::from_bytes(&ckpt.to_bytes()),
            Err(MigrateError::Corrupt(_))
        ));
        // slot outside the declared context count
        let mut ckpt = sample();
        ckpt.ctx = ckpt.params.contexts;
        assert!(matches!(
            TenantCheckpoint::from_bytes(&ckpt.to_bytes()),
            Err(MigrateError::Corrupt(_))
        ));
        // lane bits beyond the declared lane count (the queue can never
        // produce them; restored they would leak into later requests)
        let mut ckpt = sample();
        ckpt.pending.inputs[0].1 = [0b101, 0, 0, 0]; // bit 2, but lanes == 2
        assert!(matches!(
            TenantCheckpoint::from_bytes(&ckpt.to_bytes()),
            Err(MigrateError::Corrupt(_))
        ));
        // same, but the stray bit in a high word (lane 65 of a 2-lane batch)
        let mut ckpt = sample();
        ckpt.pending.inputs[0].1 = [0b01, 0b10, 0, 0];
        assert!(matches!(
            TenantCheckpoint::from_bytes(&ckpt.to_bytes()),
            Err(MigrateError::Corrupt(_))
        ));
        // a full 256-lane batch may use every bit of every word
        let mut ckpt = sample();
        ckpt.pending.lanes = MAX_LANES;
        ckpt.pending.requests = (0..MAX_LANES as u64).collect();
        ckpt.pending.inputs[0].1 = [u64::MAX; LANE_WORDS];
        assert!(TenantCheckpoint::from_bytes(&ckpt.to_bytes()).is_ok());
        // 65 occupied lanes: word-1 bit 0 legal, bit 1 corrupt
        let mut ckpt = sample();
        ckpt.pending.lanes = 65;
        ckpt.pending.requests = (0..65).collect();
        ckpt.pending.inputs[0].1 = [u64::MAX, 0b1, 0, 0];
        ckpt.pending.inputs[1].1 = [0, 0, 0, 0];
        assert!(TenantCheckpoint::from_bytes(&ckpt.to_bytes()).is_ok());
        ckpt.pending.inputs[0].1 = [u64::MAX, 0b10, 0, 0];
        assert!(matches!(
            TenantCheckpoint::from_bytes(&ckpt.to_bytes()),
            Err(MigrateError::Corrupt(_))
        ));
    }
}
