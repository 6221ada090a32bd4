//! Tenant admission: slot assignment and the compiled-plane cache.
//!
//! The registry is deliberately *pure bookkeeping* — it never touches a
//! fabric. [`crate::service::ShardedService`] asks it to
//! [`reserve`](TenantRegistry::reserve) a slot, performs the routing and
//! compilation against the chosen shard, and only then
//! [`commit`](TenantRegistry::commit)s the tenant, so a failed admission
//! never burns a slot.

use crate::ServiceError;
use mcfpga_fabric::compiled::BoundPlan;
use mcfpga_fabric::{CompiledFabric, FabricError};
use std::collections::HashMap;
use std::sync::Arc;

/// Opaque handle of an admitted tenant, minted by a [`TenantIdSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(usize);

impl TenantId {
    /// The dense index of this tenant (its source's admission order,
    /// starting at 0).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// A tenant-id counter. A standalone service owns one; a cluster owns
/// one for all its nodes and lends it to each admission
/// ([`ShardedService::admit_placed`]), so a tenant keeps one id at the
/// cluster and at every node it moves to. Ids are only minted once an
/// admission has routed and compiled, so a refused admission burns
/// nothing.
///
/// [`ShardedService::admit_placed`]: crate::ShardedService::admit_placed
#[derive(Debug, Clone, Default)]
pub struct TenantIdSource {
    next: usize,
}

impl TenantIdSource {
    /// A source starting at id 0.
    #[must_use]
    pub fn new() -> Self {
        TenantIdSource::default()
    }

    /// Issues the next id.
    pub fn mint(&mut self) -> TenantId {
        let id = TenantId(self.next);
        self.next += 1;
        id
    }

    /// Has this source issued any id?
    pub(crate) fn minted(&self) -> bool {
        self.next > 0
    }
}

/// Where a tenant lives: one context slot on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Shard index.
    pub shard: usize,
    /// Context slot within the shard.
    pub ctx: usize,
}

/// One admitted tenant's record.
#[derive(Debug, Clone)]
pub struct TenantRecord {
    /// Human-readable tenant name.
    pub name: String,
    /// The slot the tenant occupies.
    pub placement: Placement,
    /// Configuration digest of the tenant's routed context plane — its
    /// key in the plane cache, wherever the tenant moves.
    pub digest: u64,
}

/// Maps tenants to `(shard, context)` slots, round-robin across shards.
///
/// Successive admissions land on successive shards (tenant 0 → shard 0,
/// tenant 1 → shard 1, …), each taking the lowest free context slot of its
/// shard, so load spreads across shards before contexts fill up. When the
/// preferred shard is full the next shard with a free slot is used.
#[derive(Debug)]
pub struct TenantRegistry {
    shards: usize,
    contexts: usize,
    /// Live records indexed by [`TenantId::index`]; a retired tenant's
    /// entry is empty until the tenant returns.
    records: Vec<Option<TenantRecord>>,
    slots: Vec<Vec<Option<TenantId>>>,
    cursor: usize,
    /// Live records, so [`len`](Self::len) is O(1).
    live: usize,
}

impl TenantRegistry {
    /// A registry for `shards` shards of `contexts` context slots each.
    pub fn new(shards: usize, contexts: usize) -> Result<Self, ServiceError> {
        if shards == 0 || contexts == 0 {
            return Err(ServiceError::BadConfig(format!(
                "{shards} shards × {contexts} contexts"
            )));
        }
        Ok(TenantRegistry {
            shards,
            contexts,
            records: Vec::new(),
            slots: vec![vec![None; contexts]; shards],
            cursor: 0,
            live: 0,
        })
    }

    /// The slot the *next* admission will occupy, without claiming it.
    pub fn reserve(&self) -> Result<Placement, ServiceError> {
        for probe in 0..self.shards {
            let shard = (self.cursor + probe) % self.shards;
            if let Some(ctx) = self.slots[shard].iter().position(Option::is_none) {
                return Ok(Placement { shard, ctx });
            }
        }
        Err(ServiceError::CapacityExhausted {
            shards: self.shards,
            contexts: self.contexts,
        })
    }

    /// Claims the reserved slot for tenant `id`, admitted or restored,
    /// whose compiled plane is cached under `digest`. Refused with
    /// [`ServiceError::BadConfig`], changing nothing, when `id` is
    /// already live here.
    pub fn commit(
        &mut self,
        id: TenantId,
        name: &str,
        placement: Placement,
        digest: u64,
    ) -> Result<(), ServiceError> {
        if self.tenant(id).is_ok() {
            return Err(ServiceError::BadConfig(format!(
                "{id} is already registered"
            )));
        }
        if self.records.len() <= id.0 {
            self.records.resize_with(id.0 + 1, || None);
        }
        self.records[id.0] = Some(TenantRecord {
            name: name.to_string(),
            placement,
            digest,
        });
        self.slots[placement.shard][placement.ctx] = Some(id);
        self.cursor = (placement.shard + 1) % self.shards;
        self.live += 1;
        Ok(())
    }

    /// The lowest free context slot of `shard`, without claiming it —
    /// the cluster router's placement primitive (it spreads admissions
    /// across shards of *different nodes* itself, then pins the shard).
    pub fn reserve_on(&self, shard: usize) -> Result<Placement, ServiceError> {
        if shard >= self.shards {
            return Err(ServiceError::NoSuchShard {
                shard,
                shards: self.shards,
            });
        }
        self.slots[shard]
            .iter()
            .position(Option::is_none)
            .map(|ctx| Placement { shard, ctx })
            .ok_or(ServiceError::CapacityExhausted {
                shards: self.shards,
                contexts: self.contexts,
            })
    }

    /// Removes a tenant from the slot grid — the end of a cross-node
    /// migration (the tenant lives on elsewhere under the same id). Its
    /// context slot frees and its record is dropped; the id reads as
    /// unknown here until the tenant is committed here again.
    pub fn retire(&mut self, id: TenantId) -> Result<Placement, ServiceError> {
        let placement = self.tenant(id)?.placement;
        self.slots[placement.shard][placement.ctx] = None;
        self.records[id.0] = None;
        self.live -= 1;
        Ok(placement)
    }

    /// Moves an admitted tenant to a free slot (live migration). The old
    /// slot frees and the record's placement updates; the digest stays,
    /// so the tenant's compiled plane is still found in the cache.
    pub fn relocate(&mut self, id: TenantId, to: Placement) -> Result<(), ServiceError> {
        let from = self.tenant(id)?.placement;
        if to.shard >= self.shards || to.ctx >= self.contexts {
            return Err(ServiceError::BadConfig(format!(
                "relocation target (shard {}, ctx {}) outside the {}×{} slot grid",
                to.shard, to.ctx, self.shards, self.contexts
            )));
        }
        if self.occupant(to.shard, to.ctx).is_some() {
            return Err(ServiceError::BadConfig(format!(
                "relocation target (shard {}, ctx {}) is occupied",
                to.shard, to.ctx
            )));
        }
        self.slots[from.shard][from.ctx] = None;
        self.slots[to.shard][to.ctx] = Some(id);
        if let Some(record) = &mut self.records[id.0] {
            record.placement = to;
        }
        Ok(())
    }

    /// The record of a live tenant. Retired tenants read as unknown:
    /// their slots are freed and their engine state is gone, so letting a
    /// stale id resolve would hand out another tenant's slot.
    pub fn tenant(&self, id: TenantId) -> Result<&TenantRecord, ServiceError> {
        self.records
            .get(id.0)
            .and_then(Option::as_ref)
            .ok_or(ServiceError::UnknownTenant(id.0))
    }

    /// The tenant occupying a slot, if any.
    #[must_use]
    pub fn occupant(&self, shard: usize, ctx: usize) -> Option<TenantId> {
        *self.slots.get(shard)?.get(ctx)?
    }

    /// Every currently free slot, shard-major then context-ascending —
    /// the candidate set an energy-aware placement policy scores.
    #[must_use]
    pub fn free_slots(&self) -> Vec<Placement> {
        self.slots
            .iter()
            .enumerate()
            .flat_map(|(shard, ctxs)| {
                ctxs.iter()
                    .enumerate()
                    .filter(|(_, slot)| slot.is_none())
                    .map(move |(ctx, _)| Placement { shard, ctx })
            })
            .collect()
    }

    /// Context slots of `shard` that currently host a tenant, ascending —
    /// the set an energy-aware placement sweeps when every tenant is busy.
    #[must_use]
    pub fn occupied_contexts(&self, shard: usize) -> Vec<usize> {
        self.slots.get(shard).map_or_else(Vec::new, |ctxs| {
            ctxs.iter()
                .enumerate()
                .filter(|(_, slot)| slot.is_some())
                .map(|(ctx, _)| ctx)
                .collect()
        })
    }

    /// Number of live tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the registry empty (no live tenants)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot capacity (`shards × contexts`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards * self.contexts
    }

    /// All live tenants in id order (their source's admission order).
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, &TenantRecord)> {
        self.records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((TenantId(i), r.as_ref()?)))
    }
}

/// One cached compiled plane, bound once: the plane, its prebound IO
/// plan and that plan's input columns. A compiled plane is
/// context-independent (its ops address arena resources and carry baked
/// truth tables), so every slot that installs the plane — on any shard,
/// at any context index — shares all three `Arc`s: the plan binds the
/// plane's own [`CompiledFabric::compiled_context`], and the slot's
/// context index only decides where the CSS broadcast steps.
#[derive(Debug, Clone)]
pub struct CachedPlane {
    pub(crate) plane: Arc<CompiledFabric>,
    pub(crate) bound: Arc<BoundPlan>,
    /// The bound plan's [`BoundPlan::input_columns`].
    pub(crate) columns: Arc<[Arc<str>]>,
}

impl CachedPlane {
    /// Binds `plane` at its own compiled context — the one bind a digest
    /// ever pays. Refuses a plane that is not a single-context
    /// compilation: it has no context of its own for a slot to evaluate.
    pub(crate) fn new(plane: Arc<CompiledFabric>) -> Result<Self, FabricError> {
        let ctx = plane.compiled_context().ok_or_else(|| {
            FabricError::BadParams("a slot's plane must be a single-context compilation".into())
        })?;
        let bound = Arc::new(plane.bind(ctx)?);
        let columns = bound.input_columns();
        Ok(CachedPlane {
            plane,
            bound,
            columns,
        })
    }

    /// The compiled plane.
    #[must_use]
    pub fn plane(&self) -> &Arc<CompiledFabric> {
        &self.plane
    }
}

/// Digest-keyed cache of compiled context planes.
///
/// The key is [`mcfpga_fabric::Fabric::context_digest`], which covers
/// exactly the state [`CompiledFabric::compile_context`] reads (geometry,
/// the context's LUT tables, switch-block rows and IO bindings) — so a hit
/// is always safe to reuse, across shards, context indices and
/// re-admissions of the same bitstream. Each entry is bound once, when it
/// enters the cache ([`CachedPlane`]).
#[derive(Debug, Default)]
pub struct PlaneCache {
    planes: HashMap<u64, CachedPlane>,
    hits: usize,
    misses: usize,
}

impl PlaneCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        PlaneCache::default()
    }

    /// Returns the cached plane for `digest`, or compiles, binds and
    /// caches it.
    pub fn get_or_compile(
        &mut self,
        digest: u64,
        compile: impl FnOnce() -> Result<CompiledFabric, FabricError>,
    ) -> Result<CachedPlane, ServiceError> {
        if let Some(entry) = self.planes.get(&digest) {
            self.hits += 1;
            return Ok(entry.clone());
        }
        let entry = CachedPlane::new(Arc::new(compile()?))?;
        self.misses += 1;
        self.planes.insert(digest, entry.clone());
        Ok(entry)
    }

    /// The cached plane for `digest`, if present, without compiling —
    /// the restore path's lookup (a migration ships digests, not
    /// bitstreams, so a miss here is [`ServiceError::Migrate`] with
    /// `PlaneUnavailable`, never a recompile). Counts as a hit.
    pub fn get(&mut self, digest: u64) -> Option<CachedPlane> {
        let entry = self.planes.get(&digest).cloned();
        if entry.is_some() {
            self.hits += 1;
        }
        entry
    }

    /// The cached plane for `digest` without touching the hit/miss
    /// counters — the cluster's plane-*export* lookup (shipping a plane
    /// to a peer node is not a local cache event).
    #[must_use]
    pub fn peek(&self, digest: u64) -> Option<Arc<CompiledFabric>> {
        self.planes.get(&digest).map(|e| Arc::clone(&e.plane))
    }

    /// The whole cache entry for `digest`, counters untouched.
    #[cfg(test)]
    pub(crate) fn entry(&self, digest: u64) -> Option<&CachedPlane> {
        self.planes.get(&digest)
    }

    /// Is a plane cached under `digest`?
    #[must_use]
    pub fn contains(&self, digest: u64) -> bool {
        self.planes.contains_key(&digest)
    }

    /// Binds and caches `plane` under `digest` — the plane-*import* half
    /// of cross-node shipping (the exporter vouches for the digest; it was
    /// computed by [`mcfpga_fabric::Fabric::context_digest`] at the
    /// plane's original admission). Overwrites any previous entry, which
    /// is safe because equal digests mean equal configurations. Refuses,
    /// caching nothing, a plane that is not a single-context compilation.
    pub fn insert(&mut self, digest: u64, plane: Arc<CompiledFabric>) -> Result<(), ServiceError> {
        self.planes.insert(digest, CachedPlane::new(plane)?);
        Ok(())
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Cache misses (= compilations performed).
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of distinct planes cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// Is the cache empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_across_shards_first() {
        let mut reg = TenantRegistry::new(2, 2).unwrap();
        let mut placements = Vec::new();
        for i in 0..4 {
            let p = reg.reserve().unwrap();
            reg.commit(TenantId(i), &format!("t{i}"), p, i as u64)
                .unwrap();
            placements.push((p.shard, p.ctx));
        }
        assert_eq!(placements, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert!(matches!(
            reg.reserve(),
            Err(ServiceError::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn reserve_without_commit_burns_nothing() {
        let reg = TenantRegistry::new(2, 4).unwrap();
        assert_eq!(reg.reserve().unwrap(), reg.reserve().unwrap());
        assert!(reg.is_empty());
    }

    #[test]
    fn occupant_and_lookup() {
        let mut reg = TenantRegistry::new(1, 4).unwrap();
        let p = reg.reserve().unwrap();
        let id = TenantId(0);
        reg.commit(id, "alpha", p, 42).unwrap();
        assert_eq!(reg.occupant(0, 0), Some(id));
        assert_eq!(reg.occupant(0, 1), None);
        assert_eq!(reg.tenant(id).unwrap().name, "alpha");
        assert_eq!(reg.tenant(id).unwrap().digest, 42);
        assert!(matches!(
            reg.tenant(TenantId(9)),
            Err(ServiceError::UnknownTenant(9))
        ));
    }

    #[test]
    fn relocate_moves_slot_and_keeps_digest() {
        let mut reg = TenantRegistry::new(2, 2).unwrap();
        let p = reg.reserve().unwrap();
        let id = TenantId(0);
        reg.commit(id, "mover", p, 7).unwrap();
        let to = Placement { shard: 1, ctx: 1 };
        reg.relocate(id, to).unwrap();
        assert_eq!(reg.occupant(0, 0), None, "old slot freed");
        assert_eq!(reg.occupant(1, 1), Some(id));
        let rec = reg.tenant(id).unwrap();
        assert_eq!(rec.placement, to);
        assert_eq!(rec.digest, 7, "digest travels with the record");
        // occupied and out-of-range targets refuse
        let other = TenantId(1);
        reg.commit(other, "other", Placement { shard: 0, ctx: 0 }, 9)
            .unwrap();
        assert!(reg.relocate(other, to).is_err());
        assert!(reg.relocate(other, Placement { shard: 5, ctx: 0 }).is_err());
        assert_eq!(reg.tenant(other).unwrap().placement.shard, 0, "unchanged");
    }

    #[test]
    fn retire_frees_slot_and_hides_record() {
        let mut reg = TenantRegistry::new(2, 2).unwrap();
        let p = reg.reserve().unwrap();
        let id = TenantId(0);
        reg.commit(id, "leaver", p, 1).unwrap();
        let q = reg.reserve().unwrap();
        let stay = TenantId(1);
        reg.commit(stay, "stayer", q, 2).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.retire(id).unwrap(), p);
        assert_eq!(reg.occupant(p.shard, p.ctx), None, "slot freed");
        assert!(matches!(
            reg.tenant(id),
            Err(ServiceError::UnknownTenant(_))
        ));
        assert!(reg.retire(id).is_err(), "double retire refused");
        assert_eq!(reg.len(), 1);
        let live: Vec<_> = reg.iter().map(|(t, _)| t).collect();
        assert_eq!(live, vec![stay]);
        // the freed slot is reusable by another tenant
        let r = reg.reserve_on(p.shard).unwrap();
        assert_eq!(r, p);
        reg.commit(TenantId(2), "reuse", r, 3).unwrap();
        assert_eq!(reg.occupant(p.shard, p.ctx), Some(TenantId(2)));
    }

    /// Records are indexed by id: ids minted elsewhere (a cluster's) may
    /// arrive sparse and out of order, iteration stays in id order, a
    /// live id cannot be committed twice, and a tenant that leaves and
    /// comes back takes its own entry again — so a tenant moving back and
    /// forth grows nothing.
    #[test]
    fn records_are_indexed_by_the_tenants_own_id() {
        let mut reg = TenantRegistry::new(2, 2).unwrap();
        let (far, near) = (TenantId(7), TenantId(3));
        reg.commit(far, "far", Placement { shard: 0, ctx: 0 }, 7)
            .unwrap();
        reg.commit(near, "near", Placement { shard: 1, ctx: 0 }, 3)
            .unwrap();
        let ids: Vec<_> = reg.iter().map(|(t, r)| (t, r.digest)).collect();
        assert_eq!(ids, vec![(near, 3), (far, 7)]);
        let again = reg.commit(far, "again", Placement { shard: 0, ctx: 1 }, 9);
        assert!(matches!(again, Err(ServiceError::BadConfig(_))));
        assert_eq!(reg.occupant(0, 1), None, "a refused commit claims nothing");
        assert_eq!(reg.len(), 2);

        let entries = reg.records.len();
        for round in 0..4 {
            let p = reg.retire(far).unwrap();
            assert!(reg.tenant(far).is_err());
            reg.commit(far, "far", p, 7).unwrap();
            assert_eq!(reg.tenant(far).unwrap().placement, p, "round {round}");
        }
        assert_eq!(
            reg.records.len(),
            entries,
            "a returning tenant reuses its entry"
        );
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn reserve_on_pins_the_shard() {
        let mut reg = TenantRegistry::new(2, 2).unwrap();
        assert_eq!(reg.reserve_on(1).unwrap(), Placement { shard: 1, ctx: 0 });
        let p = reg.reserve_on(1).unwrap();
        reg.commit(TenantId(0), "a", p, 0).unwrap();
        assert_eq!(reg.reserve_on(1).unwrap(), Placement { shard: 1, ctx: 1 });
        reg.commit(TenantId(1), "b", reg.reserve_on(1).unwrap(), 1)
            .unwrap();
        assert!(matches!(
            reg.reserve_on(1),
            Err(ServiceError::CapacityExhausted { .. })
        ));
        assert!(matches!(
            reg.reserve_on(7),
            Err(ServiceError::NoSuchShard {
                shard: 7,
                shards: 2
            })
        ));
    }

    #[test]
    fn zero_sized_registry_rejected() {
        assert!(TenantRegistry::new(0, 4).is_err());
        assert!(TenantRegistry::new(4, 0).is_err());
    }

    #[test]
    fn tenant_ids_mint_densely_from_zero() {
        let mut ids = TenantIdSource::new();
        assert!(!ids.minted());
        let minted: Vec<_> = (0..3).map(|_| ids.mint().index()).collect();
        assert_eq!(minted, vec![0, 1, 2]);
        assert!(ids.minted());
    }
}
