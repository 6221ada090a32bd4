//! The cluster façade: member nodes, the router, the deterministic
//! node-then-shard-then-lane merge, live migration, and the virtual-clock
//! rebalancer pump.

use crate::rebalancer::{RebalanceAction, RebalancerPolicy};
use crate::ClusterError;
use mcfpga_cost::attribution::{render_billing, TenantUsage};
use mcfpga_fabric::{FabricParams, LogicNetlist};
use mcfpga_service::{
    best_slot, Outputs, RequestId, RequestIdSource, Response, ServiceError, ShardedService,
    TenantId,
};
use mcfpga_telemetry::{
    sort_timeline, tenant_key, ClusterHealthSnapshot, Counter, Gauge, MetricClass,
    NodeHealthSample, SpanEvent, SpanKind, Telemetry, ACTIVE_TENANTS_METRIC, FAULT_TALLY_METRIC,
    QUEUE_DEPTH_METRIC,
};

/// Requests submitted through the cluster façade
/// ([`MetricClass::Deterministic`]).
pub const CLUSTER_REQUESTS_METRIC: &str = "cluster_requests_submitted";
/// Responses merged out of member nodes ([`MetricClass::Deterministic`]).
pub const CLUSTER_RESPONSES_METRIC: &str = "cluster_responses_merged";
/// Live tenant migrations completed ([`MetricClass::Deterministic`]).
pub const CLUSTER_MIGRATIONS_METRIC: &str = "cluster_migrations";
/// Faults merged into the cluster log ([`MetricClass::Deterministic`]).
pub const CLUSTER_FAULTS_METRIC: &str = "cluster_faults_total";
/// Interventions taken by the rebalancer pump
/// ([`MetricClass::Deterministic`]).
pub const CLUSTER_REBALANCE_ACTIONS_METRIC: &str = "cluster_rebalance_actions";

/// The cluster façade's own metric handles, registered on the cluster
/// [`Telemetry`] (distinct from each member node's registry).
#[derive(Debug, Clone)]
struct ClusterMetrics {
    requests: Counter,
    responses: Counter,
    migrations: Counter,
    faults: Counter,
    rebalance_actions: Counter,
}

impl ClusterMetrics {
    fn register(telemetry: &Telemetry) -> Self {
        let r = telemetry.registry();
        let det = MetricClass::Deterministic;
        ClusterMetrics {
            requests: r.counter(CLUSTER_REQUESTS_METRIC, det),
            responses: r.counter(CLUSTER_RESPONSES_METRIC, det),
            migrations: r.counter(CLUSTER_MIGRATIONS_METRIC, det),
            faults: r.counter(CLUSTER_FAULTS_METRIC, det),
            rebalance_actions: r.counter(CLUSTER_REBALANCE_ACTIONS_METRIC, det),
        }
    }
}

/// Cluster-global tenant handle, minted in admission order starting at 0.
///
/// Stable across live migration: the handle keeps working wherever the
/// tenant currently runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterTenantId(pub(crate) usize);

impl ClusterTenantId {
    /// The dense index of this tenant (cluster admission order).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ClusterTenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cten#{}", self.0)
    }
}

/// A request's id: minted from the cluster's one [`RequestIdSource`] in
/// submission order starting at 0, and the same at every node the
/// request visits — a live migration carries it along.
pub type ClusterRequestId = RequestId;

/// One answered request, with its node-local tenant id translated to
/// the cluster's — bit-identical for a given workload at any node count
/// and any executor width. The node's [`Outputs`] view moves across
/// unchanged: no output is copied and no reference count moves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterResponse {
    /// The cluster id the answered submission returned.
    pub request: ClusterRequestId,
    /// The tenant the request belonged to.
    pub tenant: ClusterTenantId,
    /// `(output name, value)` pairs, netlist output order: the view of
    /// the request's lane in its pass's output table.
    pub outputs: Outputs,
}

/// One slot-execution fault, translated to cluster coordinates.
///
/// `shard` is the **global** shard index (node-major: node 0's shards
/// first), so fault logs — like responses — compare bit-for-bit across
/// different node counts holding the same global shard space.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFault {
    /// The tenant whose slot faulted.
    pub tenant: ClusterTenantId,
    /// Global shard index of the faulted slot.
    pub shard: usize,
    /// Context slot within the shard.
    pub ctx: usize,
    /// The underlying execution error.
    pub error: ServiceError,
}

/// Lifecycle state of a member node, as seen by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeHealth {
    /// Admitting and serving.
    Healthy,
    /// Serving but shedding load: no new admissions, rebalancer migrates
    /// tenants away until queue depth recovers.
    Hot,
    /// Being emptied: no new admissions, existing tenants still serve
    /// while they are migrated off.
    Draining,
    /// Empty and out of rotation (a completed drain).
    Drained,
    /// Exceeded the fault threshold: refuses submissions, rebalancer
    /// evacuates its tenants; only [`Cluster::restart_node`] recovers it.
    Faulted,
}

impl NodeHealth {
    /// May the router place **new** tenants here?
    #[must_use]
    pub fn admits(self) -> bool {
        matches!(self, NodeHealth::Healthy)
    }

    /// May resident tenants still accept submissions?
    #[must_use]
    pub fn serves(self) -> bool {
        !matches!(self, NodeHealth::Faulted)
    }
}

impl std::fmt::Display for NodeHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NodeHealth::Healthy => "healthy",
            NodeHealth::Hot => "hot",
            NodeHealth::Draining => "draining",
            NodeHealth::Drained => "drained",
            NodeHealth::Faulted => "faulted",
        };
        f.write_str(s)
    }
}

/// One member node: the service plus the router's view of it.
struct Node {
    svc: ShardedService,
    health: NodeHealth,
    /// First global shard index owned by this node (node-major blocks).
    shard_base: usize,
    /// Cumulative slot faults since the last restart, *published* on the
    /// node's own telemetry registry under [`FAULT_TALLY_METRIC`] — the
    /// rebalancer reads it back through a [`ClusterHealthSnapshot`]
    /// rather than poking cluster-private state.
    fault_gauge: Gauge,
    /// The cluster tenant of each resident node-local tenant, indexed by
    /// [`TenantId::index`] (the node's registry mints those densely).
    tenants: Vec<Option<ClusterTenantId>>,
}

impl Node {
    /// Registers the node's published fault gauge on its service
    /// registry (fresh and zeroed — used at construction and restart).
    fn register_fault_gauge(svc: &ShardedService) -> Gauge {
        svc.telemetry()
            .registry()
            .gauge(FAULT_TALLY_METRIC, MetricClass::Deterministic)
    }

    fn bind_tenant(&mut self, local: TenantId, tenant: Option<ClusterTenantId>) {
        let i = local.index();
        if self.tenants.len() <= i {
            self.tenants.resize(i + 1, None);
        }
        self.tenants[i] = tenant;
    }

    fn tenant(&self, local: TenantId) -> Result<ClusterTenantId, ClusterError> {
        self.tenants
            .get(local.index())
            .copied()
            .flatten()
            .ok_or(ClusterError::UnknownTenant(local.index()))
    }
}

/// Everything the cluster must remember about an admitted tenant to
/// route, re-route and — when the source node is gone — re-provision it.
struct RouteEntry {
    name: String,
    /// The admission netlist, kept so a destination whose plane cache
    /// misses the digest can recompile instead of dead-ending.
    netlist: LogicNetlist,
    /// Geometry of the node the tenant was *admitted* on — the geometry
    /// its configuration digest was computed over.
    admit_params: FabricParams,
    node: usize,
    local: TenantId,
}

/// A federation of [`ShardedService`] nodes behind one deterministic
/// façade: router, merge, migration, rebalancing. See the
/// [crate docs](crate) for the model.
pub struct Cluster {
    nodes: Vec<Node>,
    routes: Vec<RouteEntry>,
    /// The only request-id source of the cluster's nodes.
    ids: RequestIdSource,
    /// Round-robin cursor over the global shard space.
    cursor: usize,
    last_check: u64,
    rebalancer: Option<RebalancerPolicy>,
    fault_log: Vec<ClusterFault>,
    /// The cluster's own telemetry: façade-level metrics plus the span
    /// ring holding `Admitted`/`MigrationHop`/`Fault` hops keyed by
    /// cluster request/tenant ids. Its cycle cell is the cluster's
    /// virtual clock, advanced by the caller; it drives the rebalancer.
    telemetry: Telemetry,
    metrics: ClusterMetrics,
}

impl Cluster {
    /// Federates `nodes` (at least one). Node order is load-bearing: it fixes
    /// the global shard space (node 0's shards first) and therefore the
    /// merge order of every response, fault and billing row. The virtual
    /// clock starts at 0, on every node too. Request ids come from the
    /// cluster's own source, so a node that already minted ids of its own
    /// ([`ShardedService::has_minted_ids`]) is refused with
    /// [`ClusterError::NodeMintedIds`]: it could not take part in a live
    /// migration ([`ShardedService::hand_over`]).
    pub fn new(nodes: Vec<ShardedService>) -> Result<Self, ClusterError> {
        if nodes.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        if let Some(node) = nodes.iter().position(ShardedService::has_minted_ids) {
            return Err(ClusterError::NodeMintedIds { node });
        }
        let mut base = 0;
        let nodes = nodes
            .into_iter()
            .map(|svc| {
                svc.telemetry().set_cycle(0);
                let node = Node {
                    health: NodeHealth::Healthy,
                    shard_base: base,
                    fault_gauge: Node::register_fault_gauge(&svc),
                    tenants: Vec::new(),
                    svc,
                };
                base += node.svc.shard_count();
                node
            })
            .collect();
        let telemetry = Telemetry::new();
        let metrics = ClusterMetrics::register(&telemetry);
        Ok(Cluster {
            nodes,
            routes: Vec::new(),
            ids: RequestIdSource::new(),
            cursor: 0,
            last_check: 0,
            rebalancer: None,
            fault_log: Vec::new(),
            telemetry,
            metrics,
        })
    }

    /// Number of member nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total shards across all nodes — the size of the global shard space.
    #[must_use]
    pub fn total_shards(&self) -> usize {
        self.nodes
            .last()
            .map_or(0, |n| n.shard_base + n.svc.shard_count())
    }

    /// Read-only view of one member node's service.
    pub fn node(&self, node: usize) -> Result<&ShardedService, ClusterError> {
        self.check_node(node)?;
        Ok(&self.nodes[node].svc)
    }

    /// Current health of one member node.
    pub fn node_health(&self, node: usize) -> Result<NodeHealth, ClusterError> {
        self.check_node(node)?;
        Ok(self.nodes[node].health)
    }

    /// Operator override of a node's health state (the rebalancer and
    /// [`drain_node`](Self::drain_node)/[`restart_node`](Self::restart_node)
    /// manage it autonomously otherwise).
    pub fn set_node_health(&mut self, node: usize, health: NodeHealth) -> Result<(), ClusterError> {
        self.check_node(node)?;
        self.nodes[node].health = health;
        Ok(())
    }

    /// Sets every node's executor width, which a node keeps through
    /// [`restart_node`](Self::restart_node). Output is bit-identical at
    /// any width; this only trades wall-clock for cores.
    pub fn set_threads(&mut self, threads: usize) {
        for node in &mut self.nodes {
            node.svc.set_threads(threads);
        }
    }

    /// Requests queued but unexecuted across all nodes.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.nodes.iter().map(|n| n.svc.pending_requests()).sum()
    }

    /// Cluster tenants currently resident on `node`, id order.
    pub fn tenants_on(&self, node: usize) -> Result<Vec<ClusterTenantId>, ClusterError> {
        self.check_node(node)?;
        Ok(self
            .routes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.node == node)
            .map(|(i, _)| ClusterTenantId(i))
            .collect())
    }

    /// The node a tenant currently runs on.
    pub fn tenant_node(&self, tenant: ClusterTenantId) -> Result<usize, ClusterError> {
        Ok(self.route(tenant)?.node)
    }

    // ------------------------------------------------------------------
    // Routing and admission
    // ------------------------------------------------------------------

    /// Admits `netlist` onto the cluster, returning a cluster-global
    /// tenant id. The router keeps one round-robin cursor over the
    /// **global shard space** (node-major), so a cluster is bit-identical
    /// to fewer, larger nodes; the chosen node admits at the slot its
    /// registry reserves on that shard
    /// ([`ShardedService::admit_placed`]), bit-for-bit what its own
    /// round-robin admission would have produced.
    pub fn admit(
        &mut self,
        name: &str,
        netlist: &LogicNetlist,
    ) -> Result<ClusterTenantId, ClusterError> {
        let (node_idx, shard) = self.place()?;
        let placement = self.nodes[node_idx].svc.registry().reserve_on(shard)?;
        let local = self.nodes[node_idx]
            .svc
            .admit_placed(name, netlist, placement)?;
        self.cursor = (self.nodes[node_idx].shard_base + placement.shard + 1) % self.total_shards();
        let id = ClusterTenantId(self.routes.len());
        self.routes.push(RouteEntry {
            name: name.to_string(),
            netlist: netlist.clone(),
            admit_params: *self.nodes[node_idx].svc.params(),
            node: node_idx,
            local,
        });
        self.nodes[node_idx].bind_tenant(local, Some(id));
        Ok(id)
    }

    /// Picks `(node, local shard)` for a new tenant: the first shard at
    /// or after the round-robin cursor, in the global shard space, with a
    /// free slot on a node whose health [`admits`](NodeHealth::admits)
    /// — exactly the probe a single `N·S`-shard service's registry makes.
    fn place(&self) -> Result<(usize, usize), ClusterError> {
        let total = self.total_shards();
        for probe in 0..total {
            let g = (self.cursor + probe) % total;
            let (node, shard) = self.node_of_global(g);
            if self.nodes[node].health.admits()
                && self.nodes[node].svc.registry().reserve_on(shard).is_ok()
            {
                return Ok((node, shard));
            }
        }
        Err(ClusterError::CapacityExhausted)
    }

    /// Maps a global shard index to `(node, node-local shard)`.
    fn node_of_global(&self, g: usize) -> (usize, usize) {
        debug_assert!(g < self.total_shards());
        for (i, node) in self.nodes.iter().enumerate() {
            if g < node.shard_base + node.svc.shard_count() {
                return (i, g - node.shard_base);
            }
        }
        unreachable!("global shard {g} beyond the shard space")
    }

    // ------------------------------------------------------------------
    // Submission, merge, faults, billing
    // ------------------------------------------------------------------

    /// Submits one input vector to `tenant`, wherever it currently runs,
    /// returning the request's id, minted from the cluster's source: the
    /// same id at every node the request visits. Refused with
    /// [`ClusterError::NodeUnavailable`] when the tenant's node is
    /// [`Faulted`](NodeHealth::Faulted).
    pub fn submit(
        &mut self,
        tenant: ClusterTenantId,
        inputs: &[(&str, bool)],
    ) -> Result<ClusterRequestId, ClusterError> {
        let (node, local) = {
            let route = self.route(tenant)?;
            (route.node, route.local)
        };
        if !self.nodes[node].health.serves() {
            return Err(ClusterError::NodeUnavailable {
                node,
                health: self.nodes[node].health,
            });
        }
        let id = self.nodes[node]
            .svc
            .submit_from(&mut self.ids, local, inputs)?;
        self.metrics.requests.inc();
        // the admission hop at the cluster level carries *where* the
        // request landed; `trace` gathers the node-local hops
        let now = self.now();
        self.telemetry.trace_buffer_mut().record(
            id.value(),
            SpanKind::Admitted,
            now,
            node as u32,
            id.value() as i64,
        );
        Ok(id)
    }

    /// Flushes every node and merges the answered requests in **node,
    /// then shard, then lane order** — each node's own output is already
    /// deterministic in (shard, sweep-position, lane), so iterating nodes
    /// in index order makes the merged stream bit-identical at any node
    /// count over the same global shard space.
    pub fn drain(&mut self) -> Result<Vec<ClusterResponse>, ClusterError> {
        let mut merged = Vec::new();
        for node in 0..self.nodes.len() {
            let responses = self.nodes[node].svc.drain()?;
            self.merge(node, responses, &mut merged)?;
        }
        Ok(merged)
    }

    /// Flushes only the listed tenants' slots (grouped per node, node
    /// order), merging like [`drain`](Self::drain).
    pub fn flush_tenants(
        &mut self,
        tenants: &[ClusterTenantId],
    ) -> Result<Vec<ClusterResponse>, ClusterError> {
        let mut per_node: Vec<Vec<TenantId>> = vec![Vec::new(); self.nodes.len()];
        for &t in tenants {
            let route = self.route(t)?;
            per_node[route.node].push(route.local);
        }
        let mut merged = Vec::new();
        for (node, locals) in per_node.into_iter().enumerate() {
            if locals.is_empty() {
                continue;
            }
            let responses = self.nodes[node].svc.flush_tenants(&locals)?;
            self.merge(node, responses, &mut merged)?;
        }
        Ok(merged)
    }

    /// Appends one node's responses to `merged` under their cluster
    /// tenant ids, refusing a tenant the cluster never bound there.
    fn merge(
        &mut self,
        node: usize,
        responses: Vec<Response>,
        merged: &mut Vec<ClusterResponse>,
    ) -> Result<(), ClusterError> {
        let count = responses.len() as u64;
        merged.reserve(responses.len());
        for r in responses {
            merged.push(ClusterResponse {
                request: r.request,
                tenant: self.nodes[node].tenant(r.tenant)?,
                outputs: r.outputs,
            });
        }
        self.metrics.responses.add(count);
        Ok(())
    }

    /// Removes and returns every fault recorded since the last call,
    /// merged in node order and translated to cluster coordinates
    /// (tenant id, **global** shard index) — bit-identical at any node
    /// count, like responses.
    pub fn take_faults(&mut self) -> Vec<ClusterFault> {
        self.collect_faults();
        std::mem::take(&mut self.fault_log)
    }

    /// Drains every node's fault buffer into the cluster log, tallying
    /// per-node counts for the rebalancer.
    fn collect_faults(&mut self) {
        let now = self.now();
        for node in 0..self.nodes.len() {
            let base = self.nodes[node].shard_base;
            for f in self.nodes[node].svc.take_faults() {
                self.nodes[node].fault_gauge.add(1);
                self.metrics.faults.inc();
                if let Ok(tenant) = self.nodes[node].tenant(f.tenant) {
                    self.telemetry.trace_buffer_mut().record(
                        tenant_key(tenant.index()),
                        SpanKind::Fault,
                        now,
                        node as u32,
                        (base + f.shard) as i64,
                    );
                    self.fault_log.push(ClusterFault {
                        tenant,
                        shard: base + f.shard,
                        ctx: f.ctx,
                        error: f.error,
                    });
                }
            }
        }
    }

    /// Accumulated usage counters for one tenant (they follow the tenant
    /// across migrations).
    pub fn usage(&self, tenant: ClusterTenantId) -> Result<TenantUsage, ClusterError> {
        let route = self.route(tenant)?;
        Ok(self.nodes[route.node].svc.usage(route.local)?)
    }

    /// The cluster billing table: one row per tenant in **cluster
    /// admission order**, rendered with node 0's technology parameters —
    /// so the table, like responses and faults, is bit-identical at any
    /// node count.
    #[must_use]
    pub fn billing_report(&self) -> String {
        let rows: Vec<(String, TenantUsage)> = self
            .routes
            .iter()
            .map(|r| {
                // a route always points at a live tenant; default only
                // guards the window inside a migration
                let usage = self.nodes[r.node].svc.usage(r.local).unwrap_or_default();
                (r.name.clone(), usage)
            })
            .collect();
        render_billing(&rows, self.nodes[0].svc.tech())
    }

    // ------------------------------------------------------------------
    // Chaos hooks (cluster-id passthroughs)
    // ------------------------------------------------------------------

    /// Corrupts the tenant's installed plane (testing hook; see
    /// [`ShardedService::inject_plane_fault`]).
    pub fn inject_plane_fault(&mut self, tenant: ClusterTenantId) -> Result<(), ClusterError> {
        let (node, local) = {
            let r = self.route(tenant)?;
            (r.node, r.local)
        };
        Ok(self.nodes[node].svc.inject_plane_fault(local)?)
    }

    /// Re-installs the tenant's true compiled plane from the owning
    /// node's cache (see [`ShardedService::repair_plane`]).
    pub fn repair_plane(&mut self, tenant: ClusterTenantId) -> Result<(), ClusterError> {
        let (node, local) = {
            let r = self.route(tenant)?;
            (r.node, r.local)
        };
        Ok(self.nodes[node].svc.repair_plane(local)?)
    }

    // ------------------------------------------------------------------
    // Migration and node lifecycle
    // ------------------------------------------------------------------

    /// Live-migrates `tenant` to `dst_node`: make the compiled plane
    /// available at the destination (cache hit, plane shipment from the
    /// source, or — when the source's cache is gone — recompilation from
    /// the admission netlist), then hand the tenant over into the
    /// destination's cheapest slot ([`ShardedService::hand_over`]):
    /// its pending requests keep their ids. A no-op when the tenant
    /// already runs on `dst_node`.
    ///
    /// Works across heterogeneous geometries: a tenant admitted on an
    /// 8×8 node restores onto a 10×10 node bit-for-bit (pad-and-remap).
    pub fn migrate_tenant(
        &mut self,
        tenant: ClusterTenantId,
        dst_node: usize,
    ) -> Result<(), ClusterError> {
        self.check_node(dst_node)?;
        let (src_node, src_local) = {
            let r = self.route(tenant)?;
            (r.node, r.local)
        };
        if src_node == dst_node {
            return Ok(());
        }
        let record = self.nodes[src_node].svc.registry().tenant(src_local)?;
        let (digest, ctx) = (record.digest, record.placement.ctx);

        // plane re-provisioning: ship it, or recompile it at the
        // destination from the admission netlist — never dead-end on a
        // cold cache
        if !self.nodes[dst_node].svc.cache().contains(digest) {
            match self.nodes[src_node].svc.export_plane(digest) {
                Some(plane) => self.nodes[dst_node].svc.import_plane(digest, plane)?,
                None => {
                    let r = &self.routes[tenant.0];
                    self.nodes[dst_node]
                        .svc
                        .provision_plane(digest, &r.netlist, r.admit_params)?;
                }
            }
        }

        // the node-wide winner is also the first minimum of its own shard,
        // so restoring into it is what `restore_tenant` on that shard would
        // pick — scored once, here
        let dst = &self.nodes[dst_node].svc;
        let slot = best_slot(dst.registry(), dst.cost_matrix(), Some(ctx), |_| true)?
            .ok_or(ClusterError::CapacityExhausted)?;
        let [src, dst] = self
            .nodes
            .get_disjoint_mut([src_node, dst_node])
            .expect("distinct nodes, both checked");
        let (new_local, kept) = src.svc.hand_over(src_local, &mut dst.svc, slot)?;
        src.bind_tenant(src_local, None);
        dst.bind_tenant(new_local, Some(tenant));

        // the hop every in-flight request takes when its tenant moves:
        // recorded on the *destination*, detail = source
        let now = self.now();
        let ring = self.telemetry.trace_buffer_mut();
        for id in kept
            .iter()
            .map(|id| id.value())
            .chain([tenant_key(tenant.index())])
        {
            ring.record(
                id,
                SpanKind::MigrationHop,
                now,
                dst_node as u32,
                src_node as i64,
            );
        }
        self.metrics.migrations.inc();
        let route = &mut self.routes[tenant.0];
        route.node = dst_node;
        route.local = new_local;
        Ok(())
    }

    /// Empties `node`: marks it [`Draining`](NodeHealth::Draining),
    /// migrates every resident tenant to the least-loaded healthy node
    /// (re-picked per tenant as capacity shifts), then marks it
    /// [`Drained`](NodeHealth::Drained). Returns the moved tenants in id
    /// order. In-flight requests ride along and are still answered
    /// exactly once.
    pub fn drain_node(&mut self, node: usize) -> Result<Vec<ClusterTenantId>, ClusterError> {
        self.check_node(node)?;
        self.nodes[node].health = NodeHealth::Draining;
        let movers = self.tenants_on(node)?;
        for &tenant in &movers {
            let dst = self.pick_destination(node)?;
            self.migrate_tenant(tenant, dst)?;
        }
        self.nodes[node].health = NodeHealth::Drained;
        Ok(movers)
    }

    /// The least-loaded admitting node with free capacity, excluding
    /// `exclude`; ties fall to the lowest node index.
    fn pick_destination(&self, exclude: usize) -> Result<usize, ClusterError> {
        let mut best: Option<(usize, usize)> = None;
        for (i, node) in self.nodes.iter().enumerate() {
            if i == exclude || !node.health.admits() {
                continue;
            }
            if node.svc.registry().free_slots().is_empty() {
                continue;
            }
            let load = node.svc.registry().len();
            if best.is_none_or(|(bl, _)| load < bl) {
                best = Some((load, i));
            }
        }
        best.map(|(_, i)| i).ok_or(ClusterError::CapacityExhausted)
    }

    /// Replaces an **empty** node's service with a freshly constructed
    /// one, resets its fault tally and marks it
    /// [`Healthy`](NodeHealth::Healthy) — the recovery path for a
    /// [`Faulted`](NodeHealth::Faulted) node after
    /// [`drain_node`](Self::drain_node), and the building block of a
    /// rolling restart. Refused with [`ClusterError::NodeBusy`] while
    /// tenants are still resident.
    ///
    /// Only the node's *state* starts fresh (registry, plane cache,
    /// telemetry, fault tally). Its configuration survives the restart —
    /// see [`ShardedService::fresh_like`]: shard count, geometry,
    /// technology, lane width, sweep-ordering and placement policies,
    /// span-ring capacity, and executor width. The fresh service's clock
    /// is set to the cluster's.
    pub fn restart_node(&mut self, node: usize) -> Result<(), ClusterError> {
        self.check_node(node)?;
        let resident = self.tenants_on(node)?.len();
        if resident > 0 {
            return Err(ClusterError::NodeBusy {
                node,
                tenants: resident,
            });
        }
        let now = self.now();
        let n = &mut self.nodes[node];
        n.svc = n.svc.fresh_like()?;
        n.svc.telemetry().set_cycle(now);
        n.health = NodeHealth::Healthy;
        // the fresh service brings a fresh registry: re-register the
        // published fault gauge there, zeroed
        n.fault_gauge = Node::register_fault_gauge(&n.svc);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Virtual clock + rebalancer pump
    // ------------------------------------------------------------------

    /// The cluster's virtual clock (cycles): its telemetry's cycle cell.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.telemetry.cycle()
    }

    /// Advances the virtual clock — the same externally-driven clock
    /// pattern as [`FrontendDriver`](mcfpga_service::FrontendDriver).
    /// The clock is pushed down into the cluster's own telemetry and
    /// every node's, so spans recorded anywhere in the fleet share one
    /// timeline.
    pub fn advance(&mut self, cycles: u64) {
        let now = self.now().saturating_add(cycles);
        self.telemetry.set_cycle(now);
        for node in &self.nodes {
            node.svc.telemetry().set_cycle(now);
        }
    }

    /// Arms the rebalancer daemon; [`pump`](Self::pump) does nothing
    /// until a policy is set.
    pub fn enable_rebalancer(&mut self, policy: RebalancerPolicy) {
        self.rebalancer = Some(policy);
    }

    /// A point-in-time capture of every node's published health gauges
    /// — queue depth, fault tally, resident tenants — stamped with the
    /// cluster's virtual clock. Built **purely from telemetry**: the
    /// same numbers a metrics scrape of each node would see, so the
    /// rebalancer's Hot/Faulted decisions are a pure function of
    /// published telemetry. Each in-flight request is counted by exactly
    /// one node at any instant (queue gauges are re-published at every
    /// queue mutation, including mid-migration re-queues), so
    /// [`total_queued`](ClusterHealthSnapshot::total_queued) never
    /// double-counts work in flight.
    #[must_use]
    pub fn health_snapshot(&self) -> ClusterHealthSnapshot {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let r = n.svc.telemetry().registry();
                NodeHealthSample {
                    node: i,
                    queued: r.gauge_value(QUEUE_DEPTH_METRIC).unwrap_or(0).max(0) as u64,
                    fault_tally: n.fault_gauge.value().max(0) as u64,
                    tenants: r.gauge_value(ACTIVE_TENANTS_METRIC).unwrap_or(0).max(0) as u64,
                }
            })
            .collect();
        ClusterHealthSnapshot {
            cycle: self.now(),
            nodes,
        }
    }

    /// One rebalancer tick. No-op until `check_period` cycles have
    /// elapsed since the last check; then it drains fault buffers, takes
    /// a [`health_snapshot`](Self::health_snapshot), re-marks node
    /// health from the snapshot alone (fault tally ⇒
    /// [`Faulted`](NodeHealth::Faulted), queue depth ⇒
    /// [`Hot`](NodeHealth::Hot)), migrates tenants off faulted/draining
    /// nodes entirely and hot nodes by halves, and reports what it did.
    /// Call it from the same loop that [`advance`](Self::advance)s the
    /// clock.
    pub fn pump(&mut self) -> Result<Vec<RebalanceAction>, ClusterError> {
        let Some(policy) = self.rebalancer else {
            return Ok(Vec::new());
        };
        if self.now().saturating_sub(self.last_check) < policy.check_period {
            return Ok(Vec::new());
        }
        self.last_check = self.now();
        self.collect_faults();
        let mut actions = Vec::new();

        // mark from the published snapshot: fault tallies dominate
        // queue depth
        let snapshot = self.health_snapshot();
        for i in 0..self.nodes.len() {
            let sample = snapshot.nodes[i];
            let node = &mut self.nodes[i];
            match node.health {
                NodeHealth::Healthy | NodeHealth::Hot => {
                    if sample.fault_tally as usize >= policy.fault_threshold {
                        node.health = NodeHealth::Faulted;
                        actions.push(RebalanceAction::MarkedFaulted { node: i });
                    } else if node.health == NodeHealth::Healthy
                        && sample.queued as usize >= policy.hot_pending
                    {
                        node.health = NodeHealth::Hot;
                        actions.push(RebalanceAction::MarkedHot { node: i });
                    }
                }
                _ => {}
            }
        }

        // shed: faulted and draining nodes empty out, hot nodes move half
        for i in 0..self.nodes.len() {
            let health = self.nodes[i].health;
            let resident = self.tenants_on(i)?;
            let movers: &[ClusterTenantId] = match health {
                NodeHealth::Faulted | NodeHealth::Draining => &resident,
                NodeHealth::Hot => &resident[..resident.len().div_ceil(2)],
                _ => continue,
            };
            for &tenant in movers {
                let Ok(dst) = self.pick_destination(i) else {
                    // nowhere to put the rest: stop shedding this node
                    break;
                };
                self.migrate_tenant(tenant, dst)?;
                actions.push(RebalanceAction::Migrated {
                    tenant,
                    from: i,
                    to: dst,
                });
            }
            // pending work travelled with the migrated tenants; re-read
            // the published gauges to see whether the node recovered
            let sample = self.health_snapshot().nodes[i];
            match self.nodes[i].health {
                NodeHealth::Hot if (sample.queued as usize) < policy.hot_pending => {
                    self.nodes[i].health = NodeHealth::Healthy;
                    actions.push(RebalanceAction::Recovered { node: i });
                }
                NodeHealth::Draining if sample.tenants == 0 => {
                    self.nodes[i].health = NodeHealth::Drained;
                }
                _ => {}
            }
        }
        self.metrics.rebalance_actions.add(actions.len() as u64);
        Ok(actions)
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// The cluster façade's own telemetry: `cluster_*` metrics plus the
    /// span ring of cluster-level hops. Each member node keeps its own
    /// full registry, reachable via [`node`](Self::node) and
    /// [`ShardedService::telemetry`].
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Reconstructs `request`'s complete cross-node timeline: the
    /// cluster-level `Admitted` and `MigrationHop` spans plus every
    /// node's spans for the same id ([`ShardedService::trace`]), each
    /// stamped with its node, in virtual-clock order
    /// ([`sort_timeline`]). The result is exactly what the rings still
    /// hold; a restarted node's ring starts empty.
    #[must_use]
    pub fn trace(&self, request: ClusterRequestId) -> Vec<SpanEvent> {
        let mut events = self.telemetry.trace(request.value());
        for (i, node) in self.nodes.iter().enumerate() {
            events.extend(node.svc.trace(request).into_iter().map(|mut ev| {
                ev.node = i as u32;
                ev
            }));
        }
        sort_timeline(&mut events);
        events
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn check_node(&self, node: usize) -> Result<(), ClusterError> {
        if node >= self.nodes.len() {
            return Err(ClusterError::NoSuchNode {
                node,
                nodes: self.nodes.len(),
            });
        }
        Ok(())
    }

    fn route(&self, tenant: ClusterTenantId) -> Result<&RouteEntry, ClusterError> {
        self.routes
            .get(tenant.0)
            .ok_or(ClusterError::UnknownTenant(tenant.0))
    }
}

// the cluster owns plain services plus maps of Send + Sync types
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Cluster>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_translate_densely() {
        let params = FabricParams::default();
        let mut svc = ShardedService::new(1, params, mcfpga_device::TechParams::default()).unwrap();
        let parity = mcfpga_fabric::netlist_ir::generators::parity_tree(3).unwrap();
        let locals: Vec<TenantId> = (0..4)
            .map(|i| svc.admit(&format!("t{i}"), &parity).unwrap())
            .collect();
        let mut node = Node {
            fault_gauge: Node::register_fault_gauge(&svc),
            svc,
            health: NodeHealth::Healthy,
            shard_base: 0,
            tenants: Vec::new(),
        };
        let t = locals[3];
        assert_eq!(node.tenant(t), Err(ClusterError::UnknownTenant(3)));
        node.bind_tenant(t, Some(ClusterTenantId(7)));
        assert_eq!(node.tenant(t), Ok(ClusterTenantId(7)));
        assert!(node.tenant(locals[1]).is_err());
        node.bind_tenant(t, None);
        assert!(node.tenant(t).is_err());
    }
}
