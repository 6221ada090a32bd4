//! # mcfpga-cluster — multi-node federation of sharded fabric services
//!
//! One [`ShardedService`](mcfpga_service::ShardedService) already
//! multiplexes many tenants onto one multi-context fabric. This crate
//! federates **N such nodes** behind a single façade, the [`Cluster`]:
//!
//! * **Routing.** Admissions go through the cluster's router, which
//!   keeps one round-robin cursor over the **global shard space** — node
//!   0's shards first, then node 1's, and so on (node-major) — and probes
//!   it exactly the way a single `N·S`-shard service's registry would,
//!   skipping nodes whose health refuses new tenants. A migration picks
//!   its slot on the destination node with the scoring a single node's
//!   energy-aware admission uses
//!   ([`best_slot`](mcfpga_service::best_slot)).
//! * **Deterministic merge.** The cluster mints its own tenant ids
//!   (admission order), owns the only request-id source of its nodes and
//!   lends it to each submit, so a request's id (submission order) is the
//!   same at the cluster and at every node it visits. It merges node
//!   outputs — responses, fault records, billing rows — in **node,
//!   then shard, then lane order**. A workload replayed against one node
//!   or against three nodes holding the same global shards produces
//!   bit-identical [`ClusterResponse`]s, [`ClusterFault`]s and billing
//!   tables, at any executor width (each node is itself bit-identical at
//!   any `MCFPGA_THREADS`).
//! * **Rebalancing.** An optional [`RebalancerPolicy`] drives a daemon
//!   off the same virtual clock pattern as the QoS front-end
//!   ([`advance`](Cluster::advance) / [`pump`](Cluster::pump)): it
//!   reads each node's **published telemetry gauges** through a
//!   [`ClusterHealthSnapshot`] ([`Cluster::health_snapshot`]), marks
//!   nodes [`Hot`](NodeHealth::Hot) or [`Faulted`](NodeHealth::Faulted)
//!   as a pure function of that snapshot, and live-migrates tenants to
//!   healthy nodes — plane transfer, then a hand-over that keeps every
//!   in-flight request id.
//! * **Observability.** The façade keeps its own
//!   [`Telemetry`](mcfpga_telemetry::Telemetry): deterministic
//!   `cluster_*` counters, plus cluster-level `Admitted`,
//!   `MigrationHop` and `Fault` spans keyed by [`ClusterRequestId`] /
//!   [`ClusterTenantId`]. [`Cluster::trace`] gathers those and every
//!   node's spans under the same id, yielding the complete cross-node
//!   admitted→…→demuxed timeline in virtual-clock order. The cluster
//!   keeps no per-request state.
//!
//! Tenant moves never lose planes: checkpoints carry a configuration
//! *digest*, and if the destination's cache misses it the cluster first
//! ships the compiled plane from the source
//! ([`export_plane`](mcfpga_service::ShardedService::export_plane) /
//! [`import_plane`](mcfpga_service::ShardedService::import_plane)), and
//! when the source is gone (restarted node) it **recompiles at the
//! destination** from the admission netlist kept in the route table
//! ([`provision_plane`](mcfpga_service::ShardedService::provision_plane)).
//! Nodes may be heterogeneous: a tenant admitted on an 8×8 node restores
//! onto a 10×10 node bit-for-bit via pad-and-remap
//! ([`rebase_onto`](mcfpga_fabric::CompiledFabric::rebase_onto)).
//!
//! ```
//! use mcfpga_cluster::Cluster;
//! use mcfpga_device::TechParams;
//! use mcfpga_fabric::netlist_ir::generators;
//! use mcfpga_fabric::FabricParams;
//! use mcfpga_service::ShardedService;
//!
//! let node = |shards| ShardedService::new(shards, FabricParams::default(), TechParams::default());
//! let mut cluster = Cluster::new(vec![node(2)?, node(2)?])?;
//!
//! let parity = cluster.admit("parity", &generators::parity_tree(3)?)?;
//! cluster.submit(parity, &[("x0", true), ("x1", true), ("x2", false)])?;
//! let responses = cluster.drain()?;
//! assert_eq!(responses.len(), 1);
//! assert!(!responses[0].outputs[0].1); // parity(1,1,0) = 0
//!
//! // live-migrate the tenant to the other node: same answers afterwards
//! let home = cluster.tenant_node(parity)?;
//! cluster.migrate_tenant(parity, 1 - home)?;
//! cluster.submit(parity, &[("x0", true), ("x1", false), ("x2", false)])?;
//! assert!(cluster.drain()?[0].outputs[0].1); // parity(1,0,0) = 1
//! # Ok::<(), mcfpga_cluster::ClusterError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod federation;
mod rebalancer;

pub use federation::{
    Cluster, ClusterFault, ClusterRequestId, ClusterResponse, ClusterTenantId, NodeHealth,
    CLUSTER_FAULTS_METRIC, CLUSTER_MIGRATIONS_METRIC, CLUSTER_REBALANCE_ACTIONS_METRIC,
    CLUSTER_REQUESTS_METRIC, CLUSTER_RESPONSES_METRIC,
};
pub use rebalancer::{RebalanceAction, RebalancerPolicy};

// the fleet-health view the rebalancer consumes lives in
// `mcfpga_telemetry`; re-exported because `Cluster::health_snapshot`
// is its producer
pub use mcfpga_telemetry::{ClusterHealthSnapshot, NodeHealthSample};

use mcfpga_service::ServiceError;

/// Errors from cluster-level routing, migration and node management.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A cluster needs at least one node.
    NoNodes,
    /// Referenced a node index the cluster does not have.
    NoSuchNode {
        /// The requested node.
        node: usize,
        /// Number of nodes in the cluster.
        nodes: usize,
    },
    /// Referenced a cluster tenant id that was never issued.
    UnknownTenant(usize),
    /// The tenant's node refuses traffic in its current health state.
    NodeUnavailable {
        /// The refusing node.
        node: usize,
        /// Its health at refusal time.
        health: NodeHealth,
    },
    /// No healthy node has a free context slot left.
    CapacityExhausted,
    /// A node offered to [`Cluster::new`] already minted request ids from
    /// its own source ([`ShardedService::has_minted_ids`]): the cluster's
    /// ids could collide with them, and no tenant could migrate to or
    /// from it.
    ///
    /// [`ShardedService::has_minted_ids`]: mcfpga_service::ShardedService::has_minted_ids
    NodeMintedIds {
        /// The refused node's position in the list.
        node: usize,
    },
    /// A node operation (restart) requires the node to be empty first.
    NodeBusy {
        /// The busy node.
        node: usize,
        /// Tenants still resident on it.
        tenants: usize,
    },
    /// Error surfaced by a member node's service layer.
    Service(ServiceError),
}

impl From<ServiceError> for ClusterError {
    fn from(e: ServiceError) -> Self {
        ClusterError::Service(e)
    }
}

impl From<mcfpga_fabric::FabricError> for ClusterError {
    fn from(e: mcfpga_fabric::FabricError) -> Self {
        ClusterError::Service(ServiceError::Fabric(e))
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoNodes => write!(f, "a cluster needs at least one node"),
            ClusterError::NoSuchNode { node, nodes } => {
                write!(f, "node {node} out of range (cluster has {nodes})")
            }
            ClusterError::UnknownTenant(id) => write!(f, "unknown cluster tenant id {id}"),
            ClusterError::NodeUnavailable { node, health } => {
                write!(f, "node {node} is {health} and refuses traffic")
            }
            ClusterError::CapacityExhausted => {
                write!(f, "no healthy node has a free context slot")
            }
            ClusterError::NodeBusy { node, tenants } => {
                write!(
                    f,
                    "node {node} still hosts {tenants} tenant(s); drain it first"
                )
            }
            ClusterError::NodeMintedIds { node } => write!(
                f,
                "node {node} already minted request ids of its own; a cluster mints them all"
            ),
            ClusterError::Service(e) => write!(f, "node service: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}
