//! Request coalescing: many tenants' single-vector requests become few
//! full-lane fabric passes.
//!
//! Since the per-shard-engine decomposition, a [`BatchQueue`] is **one
//! shard's** partition of the service's pending work: one
//! [`LaneBatch`] per context slot, owned by that shard's
//! [`crate::engine::ShardEngine`] so engines can flush concurrently
//! without sharing queue state. Request ids, however, are service-global
//! (responses are ordered and audited by id), so the queue never mints
//! them itself — the coordinator owns the single [`RequestIdSource`] and
//! lends it to whichever engine is enqueuing. The queue only *holds*
//! work; execution (and therefore flushing policy) belongs to the engine.

use crate::registry::TenantId;
use mcfpga_fabric::compiled::{LaneBatch, PushRefusal, LANES};
use mcfpga_fabric::FabricError;
use std::sync::Arc;

/// Opaque handle of one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The raw id, as recorded in checkpoint audit trails. There is no
    /// inverse: ids enter the system only through the service's single
    /// [`RequestIdSource`], so a deserialized checkpoint can never mint an
    /// id that collides with (or resurrects) one this service issued.
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

/// The service-global request-id counter.
///
/// Exactly one exists per service, owned by the coordinator — engines
/// borrow it at enqueue/restore time, which is what keeps ids globally
/// unique and issued in submit order even though each engine owns its own
/// queue partition. Ids are only minted *after* a push succeeds, so a
/// refused request burns nothing.
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

/// Work pending on one context slot.
#[derive(Debug, Clone)]
struct PendingSlot {
    batch: LaneBatch,
    tickets: Vec<(RequestId, TenantId)>,
}

impl PendingSlot {
    /// Mints the id of the request just pushed into `lane` and records
    /// its ticket; returns the id and whether the batch is now full.
    fn ticket(
        &mut self,
        lane: usize,
        tenant: TenantId,
        ids: &mut RequestIdSource,
    ) -> (RequestId, bool) {
        debug_assert_eq!(lane, self.tickets.len());
        let id = ids.mint();
        self.tickets.push((id, tenant));
        (id, self.batch.is_full())
    }

    fn open(width: usize, columns: Arc<[Arc<str>]>) -> Result<Self, FabricError> {
        Ok(PendingSlot {
            batch: LaneBatch::with_width(width, columns)?,
            tickets: Vec::new(),
        })
    }
}

/// One shard's per-context accumulation of single-vector requests into
/// lane batches. Every slot batches up to [`width`](Self::width) lanes
/// over its occupant's input columns — a free slot has none.
#[derive(Debug, Clone)]
pub struct BatchQueue {
    slots: Vec<PendingSlot>,
    width: usize,
}

/// A slot's pending work, handed out by [`BatchQueue::vacate`].
#[derive(Debug, Clone)]
pub struct TakenBatch {
    /// The coalesced lane batch.
    pub batch: LaneBatch,
    /// Per-lane `(request, tenant)` tickets, in lane order.
    pub tickets: Vec<(RequestId, TenantId)>,
}

impl BatchQueue {
    /// An empty queue over one shard's `contexts` slots at the legacy
    /// width of [`LANES`] (64) lanes per slot.
    #[must_use]
    pub fn new(contexts: usize) -> Self {
        Self::with_width(contexts, LANES).expect("the 64-lane legacy width is always valid")
    }

    /// An empty queue whose every slot batches up to `width` lanes
    /// (`1..=MAX_LANES`; see
    /// [`mcfpga_fabric::compiled::MAX_LANES`]).
    pub fn with_width(contexts: usize, width: usize) -> Result<Self, FabricError> {
        let slots = (0..contexts)
            .map(|_| PendingSlot::open(width, Arc::default()))
            .collect::<Result<_, _>>()?;
        Ok(BatchQueue { slots, width })
    }

    /// Lanes per slot.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Rebuilds every slot at `width` lanes, keeping each slot's columns.
    /// Pending work would be dropped, so the caller drains first.
    pub fn set_width(&mut self, width: usize) -> Result<(), FabricError> {
        self.slots = self
            .slots
            .iter()
            .map(|s| PendingSlot::open(width, Arc::clone(s.batch.columns())))
            .collect::<Result<_, _>>()?;
        self.width = width;
        Ok(())
    }

    /// Opens the **free** slot `ctx` for a tenant whose requests drive
    /// `columns` (see [`LaneBatch`]).
    pub fn open(&mut self, ctx: usize, columns: Arc<[Arc<str>]>) {
        debug_assert!(
            self.slots[ctx].tickets.is_empty(),
            "open on a busy slot {ctx}"
        );
        self.slots[ctx] = PendingSlot::open(self.width, columns).expect("width validated");
    }

    /// The input columns of slot `ctx`.
    #[must_use]
    pub fn columns(&self, ctx: usize) -> &Arc<[Arc<str>]> {
        self.slots[ctx].batch.columns()
    }

    /// Enqueues one single-vector request on its tenant's slot, verifying
    /// it drives every one of the slot's columns. Mints the request id
    /// from the coordinator's `ids` source only on success, and returns it
    /// with whether the slot's [`width`](Self::width) lanes are now full
    /// (the caller should flush before the next enqueue).
    /// [`PushRefusal::Full`] means the slot already holds a full,
    /// unflushed batch (a previous flush failed and left its requests
    /// queued); [`PushRefusal::MissingInput`] leaves the slot unchanged.
    pub fn enqueue(
        &mut self,
        ctx: usize,
        tenant: TenantId,
        inputs: &[(&str, bool)],
        ids: &mut RequestIdSource,
    ) -> Result<(RequestId, bool), PushRefusal> {
        let slot = &mut self.slots[ctx];
        let lane = slot.batch.push(inputs)?;
        Ok(slot.ticket(lane, tenant, ids))
    }

    /// [`enqueue`](Self::enqueue) for a request already resolved into an
    /// input row over the slot's columns
    /// ([`mcfpga_fabric::compiled::resolve_row`]). A row drives every
    /// column, so the only refusal is [`PushRefusal::Full`].
    pub(crate) fn enqueue_row(
        &mut self,
        ctx: usize,
        tenant: TenantId,
        row: &[u64],
        ids: &mut RequestIdSource,
    ) -> Result<(RequestId, bool), PushRefusal> {
        let slot = &mut self.slots[ctx];
        let lane = slot.batch.push_row(row)?;
        Ok(slot.ticket(lane, tenant, ids))
    }

    /// Context slots that currently hold pending work, ascending.
    #[must_use]
    pub fn pending(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.batch.is_empty())
            .map(|(ctx, _)| ctx)
            .collect()
    }

    /// Total requests pending across this shard's slots.
    #[must_use]
    pub fn pending_total(&self) -> usize {
        self.slots.iter().map(|s| s.tickets.len()).sum()
    }

    /// Borrows a slot's pending lane batch without removing it, or `None`
    /// when empty. Lets the executor evaluate first and
    /// [`clear`](Self::clear) only on success, so a failed pass leaves the
    /// requests queued instead of dropping them.
    #[must_use]
    pub fn slot(&self, ctx: usize) -> Option<&LaneBatch> {
        let slot = &self.slots[ctx];
        (!slot.batch.is_empty()).then_some(&slot.batch)
    }

    /// A slot's per-lane `(request, tenant)` tickets, lane order — what a
    /// checkpoint records as its pending-request audit trail.
    #[must_use]
    pub fn tickets(&self, ctx: usize) -> &[(RequestId, TenantId)] {
        &self.slots[ctx].tickets
    }

    /// Moves a [`TakenBatch`] into an **empty** slot wholesale, tickets,
    /// columns and all — the live-migration path (which must preserve
    /// request ids so every in-flight request is still answered exactly
    /// once) and the restore path (whose tickets carry fresh ids).
    pub fn install(&mut self, ctx: usize, taken: TakenBatch) {
        let slot = &mut self.slots[ctx];
        assert!(
            slot.batch.is_empty() && slot.tickets.is_empty(),
            "install target (ctx {ctx}) already holds work"
        );
        slot.batch = taken.batch;
        slot.tickets = taken.tickets;
    }

    /// Drops a slot's pending work in place, keeping its columns and
    /// buffers, and returns how many requests were dropped.
    pub fn clear(&mut self, ctx: usize) -> usize {
        let slot = &mut self.slots[ctx];
        slot.batch.clear();
        let dropped = slot.tickets.len();
        slot.tickets.clear();
        dropped
    }

    /// Frees a slot whose tenant is leaving: returns its pending work, if
    /// any, and leaves the slot empty with no columns.
    pub fn vacate(&mut self, ctx: usize) -> Option<TakenBatch> {
        let freed = PendingSlot::open(self.width, Arc::default()).expect("width validated");
        let PendingSlot { batch, tickets } = std::mem::replace(&mut self.slots[ctx], freed);
        (!batch.is_empty()).then_some(TakenBatch { batch, tickets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_fabric::compiled::LANES;

    fn tenant(reg: &mut crate::TenantRegistry, name: &str) -> TenantId {
        let p = reg.reserve().unwrap();
        reg.commit(name, p, 0)
    }

    fn cols(names: &[&str]) -> Arc<[Arc<str>]> {
        names.iter().map(|n| Arc::from(*n)).collect()
    }

    #[test]
    fn fills_a_slot_lane_by_lane() {
        let mut reg = crate::TenantRegistry::new(1, 4).unwrap();
        let t = tenant(&mut reg, "a");
        let mut q = BatchQueue::new(4);
        q.open(0, cols(&["x"]));
        let mut ids = RequestIdSource::new();
        for i in 0..LANES {
            let (_, full) = q.enqueue(0, t, &[("x", i % 2 == 0)], &mut ids).unwrap();
            assert_eq!(full, i == LANES - 1, "lane {i}");
        }
        assert_eq!(q.pending_total(), LANES);
        assert_eq!(q.pending(), vec![0]);
        // a full, unflushed slot refuses further enqueues instead of panicking
        assert_eq!(
            q.enqueue(0, t, &[("x", true)], &mut ids),
            Err(PushRefusal::Full)
        );
        let taken = q.vacate(0).unwrap();
        assert_eq!(taken.tickets.len(), LANES);
        assert!(taken.batch.is_full());
        assert_eq!(q.pending_total(), 0);
        assert!(q.vacate(0).is_none());
    }

    #[test]
    fn slots_are_independent() {
        let mut reg = crate::TenantRegistry::new(2, 2).unwrap();
        let a = tenant(&mut reg, "a"); // shard 0, ctx 0
        let b = tenant(&mut reg, "b"); // shard 1, ctx 0
        let mut ids = RequestIdSource::new();
        // one queue per shard now; a shared id source keeps ids global
        let mut q0 = BatchQueue::new(2);
        let mut q1 = BatchQueue::new(2);
        q0.open(0, cols(&["x"]));
        q1.open(0, cols(&["y"]));
        q0.enqueue(0, a, &[("x", true)], &mut ids).unwrap();
        q1.enqueue(0, b, &[("y", false)], &mut ids).unwrap();
        q1.enqueue(0, b, &[("y", true)], &mut ids).unwrap();
        assert_eq!(q0.pending(), vec![0]);
        assert_eq!(q1.pending(), vec![0]);
        assert_eq!(q1.vacate(0).unwrap().tickets.len(), 2);
        assert_eq!(q0.pending_total() + q1.pending_total(), 1);
    }

    #[test]
    fn open_columns_gate_enqueue() {
        let mut reg = crate::TenantRegistry::new(1, 4).unwrap();
        let t = tenant(&mut reg, "a");
        let mut q = BatchQueue::new(4);
        let mut ids = RequestIdSource::new();
        q.open(0, cols(&["x", "y"]));
        assert_eq!(
            q.enqueue(0, t, &[("x", true)], &mut ids),
            Err(PushRefusal::MissingInput(1))
        );
        assert_eq!(&*q.columns(0)[1], "y");
        // any order, extras allowed
        q.enqueue(0, t, &[("y", true), ("x", false), ("zz", true)], &mut ids)
            .unwrap();
        assert_eq!(q.pending_total(), 1);
        assert_eq!(q.slot(0).unwrap().chunks(), [[0; 4], [1, 0, 0, 0]]);
    }

    #[test]
    fn clear_keeps_columns_and_vacate_drops_them() {
        let mut reg = crate::TenantRegistry::new(1, 4).unwrap();
        let t = tenant(&mut reg, "a");
        let mut q = BatchQueue::new(4);
        let mut ids = RequestIdSource::new();
        q.open(0, cols(&["a"]));
        q.enqueue(0, t, &[("a", true), ("extra", true)], &mut ids)
            .unwrap();
        assert_eq!(q.clear(0), 1);
        assert!(q.slot(0).is_none() && q.tickets(0).is_empty());
        // the columns survive, and coverage is still enforced
        assert_eq!(q.columns(0), &cols(&["a"]));
        assert_eq!(
            q.enqueue(0, t, &[("other", true)], &mut ids),
            Err(PushRefusal::MissingInput(0))
        );
        q.enqueue(0, t, &[("a", false)], &mut ids).unwrap();
        // a vacated slot forgets its tenant's columns
        assert_eq!(q.vacate(0).unwrap().batch.columns(), &cols(&["a"]));
        assert!(q.columns(0).is_empty());
    }

    #[test]
    fn wide_queue_fills_past_64_and_keeps_width_through_take_and_clear() {
        use mcfpga_fabric::compiled::MAX_LANES;
        let mut reg = crate::TenantRegistry::new(1, 2).unwrap();
        let t = tenant(&mut reg, "a");
        let mut q = BatchQueue::with_width(2, 128).unwrap();
        assert_eq!(q.width(), 128);
        q.open(0, cols(&["x"]));
        let mut ids = RequestIdSource::new();
        for i in 0..128 {
            let (_, full) = q.enqueue(0, t, &[("x", i % 2 == 0)], &mut ids).unwrap();
            assert_eq!(full, i == 127, "lane {i}");
        }
        assert_eq!(
            q.enqueue(0, t, &[("x", true)], &mut ids),
            Err(PushRefusal::Full)
        );
        // clear empties the 128-lane batch in place
        assert_eq!(q.clear(0), 128);
        for i in 0..65 {
            q.enqueue(0, t, &[("x", true)], &mut ids)
                .unwrap_or_else(|e| panic!("lane {i} after clear refused: {e:?}"));
        }
        // vacate and open also rebuild at the queue's width, not the default
        q.vacate(1);
        q.open(1, cols(&["y"]));
        for _ in 0..65 {
            q.enqueue(1, t, &[("y", false)], &mut ids).unwrap();
        }
        assert_eq!(q.pending_total(), 65 + 65);
        // a width change keeps every slot's columns
        q.clear(0);
        q.clear(1);
        q.set_width(64).unwrap();
        assert_eq!((q.width(), q.columns(1)), (64, &cols(&["y"])));
        // width bounds are validated
        assert!(BatchQueue::with_width(1, 0).is_err());
        assert!(BatchQueue::with_width(1, MAX_LANES + 1).is_err());
        assert!(q.set_width(0).is_err());
    }

    #[test]
    fn ids_stay_global_and_refusals_burn_nothing() {
        let mut reg = crate::TenantRegistry::new(1, 2).unwrap();
        let t = tenant(&mut reg, "a");
        let mut ids = RequestIdSource::new();
        let mut q = BatchQueue::new(2);
        let (r0, _) = q.enqueue(0, t, &[], &mut ids).unwrap();
        let (r1, _) = q.enqueue(1, t, &[], &mut ids).unwrap();
        assert!(r0 < r1);
        // a refused push must not consume an id
        q.clear(0);
        q.open(0, cols(&["x"]));
        assert!(q.enqueue(0, t, &[("nope", true)], &mut ids).is_err());
        let (r2, _) = q.enqueue(1, t, &[], &mut ids).unwrap();
        assert_eq!(r2.value(), r1.value() + 1, "refusal burned an id");
    }
}
