//! Request and response types: the service-global request ids, and the
//! responses demuxed out of a pass's lane chunks.
//!
//! Requests queue in the [`LaneBatch`] of their tenant's context slot,
//! which the shard's [`crate::engine::ShardEngine`] owns with the rest of
//! the slot, so engines flush concurrently without sharing queue state.
//! Request ids, however, are service-global (responses are ordered and
//! audited by id), so no slot mints them itself — the coordinator (or
//! the cluster above it) owns the [`RequestIdSource`] and lends it to
//! whichever engine is enqueuing.
//!
//! [`LaneBatch`]: mcfpga_fabric::compiled::LaneBatch

use crate::registry::TenantId;
use std::sync::Arc;

/// Opaque handle of one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The raw id, as recorded in checkpoint audit trails. There is no
    /// inverse: ids enter the system only through a [`RequestIdSource`],
    /// so a deserialized checkpoint can never mint an id that collides
    /// with (or resurrects) one already issued.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// A request-id counter. A standalone service owns one; a cluster owns
/// one for all its nodes and lends it to each submit
/// ([`ShardedService::submit_from`]), so a request keeps one id at the
/// cluster and at every node it visits. Engines borrow it at enqueue
/// time, which keeps ids unique and issued in submit order even though
/// each context slot queues its own lanes. Ids are only minted *after* a
/// push succeeds, so a refused request burns nothing.
///
/// [`ShardedService::submit_from`]: crate::ShardedService::submit_from
#[derive(Debug, Clone, Default)]
pub struct RequestIdSource {
    next: u64,
}

impl RequestIdSource {
    /// A source starting at id 0.
    #[must_use]
    pub fn new() -> Self {
        RequestIdSource::default()
    }

    /// Issues the next id.
    pub fn mint(&mut self) -> RequestId {
        let id = RequestId(self.next);
        self.next += 1;
        id
    }

    /// Has this source issued any id?
    pub(crate) fn minted(&self) -> bool {
        self.next > 0
    }
}

/// One completed request: the tenant's outputs for its input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request this answers.
    pub request: RequestId,
    /// The tenant that submitted it.
    pub tenant: TenantId,
    /// Named output values, demuxed from the request's lane: a view of
    /// the lane's row in the output table its pass wrote, so demuxing a
    /// full batch allocates nothing per response and touches no name's
    /// reference count.
    pub outputs: Outputs,
}

/// One pass's output table: lane-major rows of `(output name, value)`,
/// one row per visible output per lane, in the plane's output order.
pub(crate) type OutputRows = Vec<(Arc<str>, bool)>;

/// A response's named output values, in netlist output order: a
/// read-only view of one lane's row in a shared **output table**.
///
/// The engine writes each pass's visible outputs into one table per
/// context slot and hands every lane a view of its row. A table is
/// rewritten by a later pass only once no view of it is left (the
/// engine's `Arc::get_mut` guard), so a held view never changes. Derefs
/// to a slice, and compares and prints like one.
///
/// A view keeps its **whole** table alive — every lane's rows of the
/// pass, up to 256 lanes × visible outputs — even after the slot's pool
/// has evicted that table. Code that keeps a few responses for long
/// (a sample, the latest answer per tenant) should store
/// `outputs.to_vec()` instead, which holds only the lane's own rows.
#[derive(Clone)]
pub struct Outputs {
    table: Arc<OutputRows>,
    start: usize,
    end: usize,
}

impl Outputs {
    /// The view of `table[start..end]`.
    pub(crate) fn view(table: &Arc<OutputRows>, start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= table.len(), "view outside its table");
        Outputs {
            table: Arc::clone(table),
            start,
            end,
        }
    }
}

impl std::ops::Deref for Outputs {
    type Target = [(Arc<str>, bool)];

    fn deref(&self) -> &Self::Target {
        &self.table[self.start..self.end]
    }
}

impl From<Vec<(Arc<str>, bool)>> for Outputs {
    /// A view of a table holding exactly `rows`.
    fn from(rows: Vec<(Arc<str>, bool)>) -> Self {
        let end = rows.len();
        Outputs {
            table: Arc::new(rows),
            start: 0,
            end,
        }
    }
}

impl PartialEq for Outputs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Outputs {}

impl std::fmt::Debug for Outputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
