//! # mcfpga-migrate — checkpoint/restore and live tenant migration
//!
//! The paper's fabric switches logic planes in nanoseconds, but a *service*
//! built on it (`mcfpga-service`) also has to move **tenants** — off a
//! faulted plane, off a hot shard, or onto another service instance
//! entirely. Following Wicaksana et al.'s context-switch method for
//! heterogeneous reconfigurable systems, the movable unit here is a
//! checkpoint taken at a **context-switch boundary**: between two fabric
//! passes every piece of a tenant's execution state is explicit —
//!
//! * the **configuration digest** of its routed context plane (the
//!   destination reuses the compiled plane through the service's plane
//!   cache instead of shipping bitstreams),
//! * the **temporal register file** ([`mcfpga_fabric::RegisterFile`]) —
//!   stream state carried across pass boundaries,
//! * the **pending lane batch** — submitted-but-unexecuted requests, as
//!   the exact lane words of the tenant's input columns they were queued
//!   with,
//! * the **CSS sweep position** the source shard's broadcast sat on,
//! * and the tenant's accumulated usage counters, so billing follows it.
//!
//! A restored tenant is bit-for-bit indistinguishable from one that never
//! moved: the compiled plane is context- and geometry-independent (the
//! destination's cached plane serves whatever slot it has free, bound at
//! the plane's own compiled context, on any host its design fits), the
//! lane words
//! re-enter the queue unchanged (resolved to the tenant's input columns
//! by name), and the register file resumes exactly
//! where the last pass left it. Only the *energy* differs, and that
//! difference is billed: `mcfpga_cost::attribution` carries bytes moved,
//! downtime cycles and the destination's broadcast-realignment toggles per
//! tenant.
//!
//! [`TenantCheckpoint`] serializes through a small versioned wire format
//! ([`FORMAT_VERSION`], golden-file pinned) built on the same
//! length-guarded codec as the configuration bitstream
//! ([`mcfpga_fabric::wire`]); deserializing a checkpoint written by an
//! unknown future format fails loudly with
//! [`MigrateError::VersionMismatch`] instead of corrupting state.
//!
//! The live operations themselves — `checkpoint_tenant`, `restore_tenant`,
//! `migrate_tenant`, `evacuate_shard` — live on
//! `mcfpga_service::ShardedService`, which depends on this crate for the
//! checkpoint model and error vocabulary.
//!
//! ```
//! use mcfpga_migrate::{PendingBatch, TenantCheckpoint, FORMAT_VERSION};
//!
//! let ckpt = TenantCheckpoint {
//!     name: "parity".into(),
//!     digest: 0xD1_6E57,
//!     params: mcfpga_fabric::FabricParams::default(),
//!     ctx: 1,
//!     css_position: 3,
//!     pending: PendingBatch::default(),
//!     regs: mcfpga_fabric::RegisterFile::new(),
//!     usage: mcfpga_cost::attribution::TenantUsage::default(),
//! };
//! let wire = ckpt.to_bytes();
//! let back = TenantCheckpoint::from_bytes(&wire)?;
//! assert_eq!(back, ckpt);
//! assert_eq!(ckpt.encoded_len(), wire.len());
//! # Ok::<(), mcfpga_migrate::MigrateError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;

pub use checkpoint::{PendingBatch, TenantCheckpoint};
use mcfpga_fabric::wire::WireError;

/// Version stamped into every serialized checkpoint. Bump on any layout
/// change; decoders reject other versions with
/// [`MigrateError::VersionMismatch`]. Version 2 widened every pending
/// input and stream register from one lane word to a 4-word
/// [`LaneChunk`](mcfpga_fabric::compiled::LaneChunk) (256 lanes).
pub const FORMAT_VERSION: u16 = 2;

/// Errors from checkpoint serialization and migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// The buffer does not begin with the checkpoint magic.
    BadMagic,
    /// The checkpoint was written by a different format version.
    VersionMismatch {
        /// Version found in the buffer.
        found: u16,
        /// The only version this decoder reads.
        supported: u16,
    },
    /// The buffer ended before the structure it declares.
    Truncated {
        /// Bytes the next field needs.
        needed: usize,
        /// Bytes left in the buffer.
        remaining: usize,
    },
    /// The buffer decodes to an impossible structure (bad UTF-8, lane
    /// count beyond the batch width, …).
    Corrupt(String),
    /// A checkpoint's fabric geometry does not match the restoring
    /// service's.
    GeometryMismatch {
        /// The restoring service's geometry.
        expected: String,
        /// The checkpoint's geometry.
        found: String,
    },
    /// The destination holds no compiled plane for the checkpoint's
    /// configuration digest (checkpoints ship digests, not bitstreams —
    /// the plane must already be cached, e.g. by a prior admission of the
    /// same netlist).
    PlaneUnavailable {
        /// The missing configuration digest.
        digest: u64,
    },
    /// The destination shard has no free context slot.
    NoFreeSlot {
        /// The requested destination shard.
        shard: usize,
    },
    /// A plane re-provisioning attempt routed and compiled the supplied
    /// source netlist, but no context produced the checkpoint's
    /// configuration digest — the netlist is not the design that was
    /// checkpointed.
    NetlistDigestMismatch {
        /// The digest the checkpoint demands.
        digest: u64,
    },
    /// An evacuation could not place every tenant elsewhere; nothing was
    /// moved.
    EvacuationBlocked {
        /// Tenants resident on the shard being evacuated.
        tenants: usize,
        /// Free slots available off that shard.
        free_elsewhere: usize,
    },
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            MigrateError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint format version {found} unsupported (this build reads {supported})"
            ),
            MigrateError::Truncated { needed, remaining } => write!(
                f,
                "checkpoint truncated: next field needs {needed} bytes, {remaining} remain"
            ),
            MigrateError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            MigrateError::GeometryMismatch { expected, found } => write!(
                f,
                "checkpoint geometry {found} does not match service geometry {expected}"
            ),
            MigrateError::PlaneUnavailable { digest } => write!(
                f,
                "no compiled plane cached for digest {digest:#018x} (checkpoints ship digests, \
                 not bitstreams)"
            ),
            MigrateError::NetlistDigestMismatch { digest } => write!(
                f,
                "supplied netlist does not reproduce checkpoint digest {digest:#018x} in any \
                 context — refusing to provision a different design"
            ),
            MigrateError::NoFreeSlot { shard } => {
                write!(f, "destination shard {shard} has no free context slot")
            }
            MigrateError::EvacuationBlocked {
                tenants,
                free_elsewhere,
            } => write!(
                f,
                "cannot evacuate: {tenants} tenants but only {free_elsewhere} free slots \
                 elsewhere; nothing was moved"
            ),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<WireError> for MigrateError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { needed, remaining } => {
                MigrateError::Truncated { needed, remaining }
            }
            WireError::Corrupt(what) => MigrateError::Corrupt(what),
        }
    }
}
