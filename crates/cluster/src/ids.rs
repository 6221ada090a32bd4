//! Translation between node-local and cluster ids, one table per node.
//!
//! A node's [`RequestIdSource`](mcfpga_service::RequestIdSource) mints
//! node-local request ids densely from 0, in increasing order; submit and
//! migration restore are its only callers. The cluster mints its own
//! request ids in submit order. So a node's translation is a sorted list
//! of **id runs** `(first node-local id, first cluster id, length)`: a
//! submit whose two ids both follow on from the node's last run extends
//! it, anything else starts a new run. Lookup is a binary search over the
//! runs; one bit per id records that the id was answered (or carried away
//! by a migration), which is the exactly-once check.
//!
//! **Retention.** A run is dropped once every id in it is done *and* the
//! node has since answered at least its span ring's capacity more ids.
//! Every answer records a `Demuxed` span in the node's ring, so by then
//! the ring holds no span of the dropped run, and [`Cluster::trace`]
//! loses nothing it could still have shown. With the ring off the table
//! holds only runs with an id still in flight. Runs are at most
//! [`RUN_IDS`] long, so one stuck request pins a bounded number of ids:
//! the table is O(in-flight + ring capacity) per node.
//!
//! [`Cluster::trace`]: crate::Cluster::trace

use crate::federation::{ClusterRequestId, ClusterResponse, ClusterTenantId};
use crate::ClusterError;
use mcfpga_service::{Response, ServiceError, TenantId};

/// Most ids one run covers.
const RUN_IDS: usize = 256;
const RUN_WORDS: usize = RUN_IDS / 64;

/// Consecutive node-local ids mapped to consecutive cluster ids.
#[derive(Debug, Clone)]
struct Run {
    local: u64,
    cluster: u64,
    len: u32,
    /// Ids of the run neither answered nor migrated away yet.
    open: u32,
    /// The node's answer count when `open` last reached 0.
    closed_at: u64,
    /// One bit per id: answered, or consumed by a migration.
    done: [u64; RUN_WORDS],
}

impl Run {
    fn end(&self) -> u64 {
        self.local + u64::from(self.len)
    }
}

/// One node's translation state: request-id runs plus the dense
/// node-local → cluster tenant table.
#[derive(Debug, Default)]
pub(crate) struct NodeIds {
    /// Sorted by `local`, non-overlapping.
    runs: Vec<Run>,
    /// Ids answered by this node so far.
    answers: u64,
    /// Indexed by [`TenantId::index`]; the registry mints those densely.
    tenants: Vec<Option<ClusterTenantId>>,
}

impl NodeIds {
    /// Records that node-local request `local` carries cluster id `id`.
    /// `local` must exceed every id recorded before.
    pub(crate) fn record(&mut self, local: u64, id: ClusterRequestId) {
        if let Some(last) = self.runs.last_mut() {
            debug_assert!(last.end() <= local, "node-local ids must increase");
            let n = u64::from(last.len);
            if last.end() == local && last.cluster + n == id.0 && (last.len as usize) < RUN_IDS {
                last.len += 1;
                last.open += 1;
                return;
            }
        }
        self.runs.push(Run {
            local,
            cluster: id.0,
            len: 1,
            open: 1,
            closed_at: 0,
            done: [0; RUN_WORDS],
        });
    }

    /// Marks `local` answered, returning its cluster id; `None` if the id
    /// is unknown or was already answered or migrated away.
    fn answer(&mut self, local: u64) -> Option<ClusterRequestId> {
        let id = self.mark(local, self.answers + 1)?;
        self.answers += 1;
        Some(id)
    }

    /// Marks `local` as carried away by a migration, returning its
    /// cluster id; `None` under the same conditions as an answer.
    pub(crate) fn consume(&mut self, local: u64) -> Option<ClusterRequestId> {
        self.mark(local, self.answers)
    }

    fn mark(&mut self, local: u64, answers: u64) -> Option<ClusterRequestId> {
        let i = self.runs.partition_point(|r| r.end() <= local);
        let run = self.runs.get_mut(i)?;
        let offset = local.checked_sub(run.local)?;
        let (word, bit) = ((offset / 64) as usize, 1u64 << (offset % 64));
        if run.done[word] & bit != 0 {
            return None;
        }
        run.done[word] |= bit;
        run.open -= 1;
        if run.open == 0 {
            run.closed_at = answers;
        }
        Some(ClusterRequestId(run.cluster + offset))
    }

    /// Translates one response of node `node` to cluster ids, failing if
    /// the node answers an id the cluster never submitted there or
    /// already saw answered.
    pub(crate) fn translate(
        &mut self,
        node: usize,
        r: Response,
    ) -> Result<ClusterResponse, ClusterError> {
        let request = self.answer(r.request.value()).ok_or_else(|| {
            ClusterError::Service(ServiceError::BadConfig(format!(
                "node {node} answered {} which the cluster never submitted",
                r.request
            )))
        })?;
        let tenant = self
            .tenant(r.tenant)
            .ok_or_else(|| ClusterError::UnknownTenant(r.tenant.index()))?;
        Ok(ClusterResponse {
            request,
            tenant,
            outputs: r.outputs,
        })
    }

    /// Drops every run whose ids are all done and which the node's span
    /// ring, at `ring_capacity`, can no longer hold a span of.
    pub(crate) fn prune(&mut self, ring_capacity: usize) {
        let answers = self.answers;
        self.runs
            .retain(|r| r.open > 0 || answers - r.closed_at < ring_capacity as u64);
    }

    /// Every node-local id under which cluster request `id` is recorded
    /// here, oldest first.
    pub(crate) fn incarnations(&self, id: ClusterRequestId) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().filter_map(move |r| {
            let offset = id.0.checked_sub(r.cluster)?;
            (offset < u64::from(r.len)).then(|| r.local + offset)
        })
    }

    /// Runs currently retained.
    pub(crate) fn runs(&self) -> usize {
        self.runs.len()
    }

    pub(crate) fn bind_tenant(&mut self, local: TenantId, tenant: ClusterTenantId) {
        let i = local.index();
        if self.tenants.len() <= i {
            self.tenants.resize(i + 1, None);
        }
        self.tenants[i] = Some(tenant);
    }

    pub(crate) fn unbind_tenant(&mut self, local: TenantId) {
        if let Some(slot) = self.tenants.get_mut(local.index()) {
            *slot = None;
        }
    }

    pub(crate) fn tenant(&self, local: TenantId) -> Option<ClusterTenantId> {
        self.tenants.get(local.index()).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(v: u64) -> ClusterRequestId {
        ClusterRequestId(v)
    }

    /// Node-local tenant ids `0..n`, as a node's registry mints them.
    fn tenant_ids(n: usize) -> Vec<TenantId> {
        let mut svc = mcfpga_service::ShardedService::new(
            n.div_ceil(4),
            mcfpga_fabric::FabricParams::default(),
            mcfpga_device::TechParams::default(),
        )
        .unwrap();
        let parity = mcfpga_fabric::netlist_ir::generators::parity_tree(3).unwrap();
        (0..n)
            .map(|i| svc.admit(&format!("t{i}"), &parity).unwrap())
            .collect()
    }

    #[test]
    fn consecutive_ids_share_one_run() {
        let mut ids = NodeIds::default();
        for i in 0..255 {
            ids.record(i, cid(1000 + i));
        }
        assert_eq!(ids.runs(), 1);
        // the local id follows on, the cluster id does not: a new run
        ids.record(255, cid(5000));
        assert_eq!(ids.runs(), 2);
        assert_eq!(ids.answer(7), Some(cid(1007)));
        assert_eq!(ids.answer(255), Some(cid(5000)));
    }

    #[test]
    fn runs_are_capped() {
        let mut ids = NodeIds::default();
        for i in 0..(RUN_IDS as u64 * 2 + 1) {
            ids.record(i, cid(i));
        }
        assert_eq!(ids.runs(), 3);
        assert_eq!(ids.answer(RUN_IDS as u64), Some(cid(RUN_IDS as u64)));
    }

    #[test]
    fn unknown_or_repeated_answer_is_an_error() {
        let mut ids = NodeIds::default();
        ids.record(3, cid(10));
        ids.record(4, cid(11));
        // below, between and beyond the recorded ids
        assert_eq!(ids.answer(0), None);
        assert_eq!(ids.answer(5), None);
        assert_eq!(ids.answer(u64::MAX), None);
        assert_eq!(ids.answer(4), Some(cid(11)));
        assert_eq!(ids.answer(4), None, "answered twice");

        let r = Response {
            request: mcfpga_service::RequestIdSource::new().mint(),
            tenant: tenant_ids(1)[0],
            outputs: Vec::new().into(),
        };
        let err = ids.translate(2, r).unwrap_err();
        assert!(
            err.to_string().contains("never submitted"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn consumed_id_does_not_resolve_on_its_source() {
        let mut src = NodeIds::default();
        let mut dst = NodeIds::default();
        for i in 0..4 {
            src.record(i, cid(i));
        }
        dst.record(9, cid(40));
        // a migration carries ids 1 and 2 to `dst` under fresh ids 10, 11
        for (old, fresh) in [(1, 10), (2, 11)] {
            let id = src.consume(old).unwrap();
            dst.record(fresh, id);
        }
        assert_eq!(src.answer(1), None, "consumed id answered on its source");
        assert_eq!(src.consume(2), None, "consumed twice");
        assert_eq!(dst.answer(11), Some(cid(2)));
        assert_eq!(dst.answer(10), Some(cid(1)));
        // both incarnations stay visible to tracing until pruned
        assert_eq!(src.incarnations(cid(1)).collect::<Vec<_>>(), vec![1]);
        assert_eq!(dst.incarnations(cid(1)).collect::<Vec<_>>(), vec![10]);
    }

    #[test]
    fn answered_runs_outlive_the_ring_then_go() {
        let mut ids = NodeIds::default();
        for i in 0..4 {
            ids.record(i, cid(i));
        }
        // a second run that stays in flight
        ids.record(4, cid(100));
        for i in 0..4 {
            ids.answer(i).unwrap();
        }
        ids.prune(0);
        assert_eq!(ids.runs(), 1, "ring off: only the in-flight run stays");

        let mut ids = NodeIds::default();
        for i in 0..4 {
            ids.record(i, cid(i));
        }
        for i in 0..4 {
            ids.answer(i).unwrap();
        }
        // with a 3-span ring the run stays until 3 more answers
        for (i, next) in (10..13).enumerate() {
            ids.prune(3);
            assert_eq!(ids.runs(), 1 + i, "pruned after {i} answers");
            ids.record(next, cid(next * 7));
            ids.answer(next).unwrap();
        }
        ids.prune(3);
        assert!(ids.incarnations(cid(0)).next().is_none());
        assert_eq!(ids.runs(), 3);
    }

    #[test]
    fn tenants_translate_densely() {
        let mut ids = NodeIds::default();
        let locals = tenant_ids(4);
        let t = locals[3];
        assert_eq!(ids.tenant(t), None);
        ids.bind_tenant(t, ClusterTenantId(7));
        assert_eq!(ids.tenant(t), Some(ClusterTenantId(7)));
        assert_eq!(ids.tenant(locals[1]), None);
        ids.unbind_tenant(t);
        assert_eq!(ids.tenant(t), None);
    }
}
