//! Energy-aware tenant → `(shard, context)` slot placement.
//!
//! Round-robin admission spreads tenants across shards but is blind to
//! *which context slot* it hands out — and on the hybrid CSS the slot
//! choice decides what every future sweep costs: two tenants parked on
//! contexts 0 and 1 force a polarity flip (4 line toggles) on every
//! switch between them, while contexts 0 and 2 switch for 2.
//!
//! [`PlacementPolicy::EnergyAware`] scores each free slot by the
//! **marginal sweep cost** it adds to its shard: the optimized cost of
//! sweeping the shard's occupied contexts plus the candidate, minus the
//! optimized cost without it (both from the sequencer's home context 0,
//! using the same [`CostMatrix`] the executor charges by). Ties break
//! toward plane-cache affinity — a context index where the same netlist
//! was admitted before routes to an identical digest, so the compiled
//! plane is reused instead of recompiled — then toward emptier shards,
//! then the lowest slot.

use crate::registry::{Placement, TenantRegistry};
use crate::ServiceError;
use mcfpga_css::optimize::{sweep_cost, CostMatrix};
use mcfpga_fabric::netlist_ir::Node;
use mcfpga_fabric::LogicNetlist;

/// How [`crate::ShardedService`] assigns admitted tenants to slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Round-robin across shards, lowest free context slot per shard —
    /// the original admission order. Predictable, energy-blind.
    #[default]
    RoundRobin,
    /// Choose the free slot with the smallest marginal sweep cost for its
    /// shard (see the [module docs](self)); prefer plane-cache affinity on
    /// ties. Never changes *whether* a tenant is admitted, only *where*.
    EnergyAware,
}

/// Picks the free slot minimizing marginal sweep cost under `matrix`.
///
/// `affinity_ctx` is the context index the same netlist landed on at a
/// previous admission (deterministic per-slot routing makes its digest —
/// and therefore its compiled plane — reusable there); it only breaks ties
/// between equally cheap slots, never overrides the energy ranking.
pub(crate) fn choose_energy_aware(
    registry: &TenantRegistry,
    matrix: &CostMatrix,
    affinity_ctx: Option<usize>,
) -> Result<Placement, ServiceError> {
    match best_slot(registry, matrix, affinity_ctx, |_| true)? {
        Some(slot) => Ok(slot),
        // no free slots: reserve() surfaces the canonical CapacityExhausted
        None => registry.reserve(),
    }
}

/// The energy-aware slot chooser, generalized over an eligibility filter:
/// admission considers every free slot, a directed migration only the
/// destination shard's, an evacuation every shard *except* the source,
/// and the cluster a migration's destination node. Scores each eligible
/// free slot by the marginal optimized sweep cost it adds to its shard
/// (from the shard's home context 0); ties break toward `affinity_ctx` —
/// admission: the slot index where the same netlist's digest is already
/// cached; migration: the tenant's own context index — then toward
/// emptier shards, then the lowest slot. `None` when no eligible slot is
/// free.
pub fn best_slot(
    registry: &TenantRegistry,
    matrix: &CostMatrix,
    affinity_ctx: Option<usize>,
    eligible: impl Fn(Placement) -> bool,
) -> Result<Option<Placement>, ServiceError> {
    // the winning slot and its key: (marginal cost, affinity miss, load)
    let mut best: Option<((usize, bool, usize), Placement)> = None;
    // the shard being scored, its occupied contexts and their sweep
    // cost: computed once per shard, not once per free slot
    let mut shard: Option<(usize, Vec<usize>, usize)> = None;
    for slot in registry.free_slots() {
        if !eligible(slot) {
            continue;
        }
        let (_, with, before) = match shard {
            Some(ref mut s) if s.0 == slot.shard => s,
            _ => {
                let occupied = registry.occupied_contexts(slot.shard);
                let before = sweep_cost(matrix, Some(0), &occupied)?;
                shard.insert((slot.shard, occupied, before))
            }
        };
        let load = with.len();
        with.push(slot.ctx);
        let marginal = sweep_cost(matrix, Some(0), with)?.saturating_sub(*before);
        with.pop();
        let key = (marginal, affinity_ctx != Some(slot.ctx), load);
        // lexicographic: marginal cost, then affinity hit, then shard load,
        // then shard-major slot order (free_slots() is already sorted)
        if best.is_none_or(|(b, _)| key < b) {
            best = Some((key, slot));
        }
    }
    Ok(best.map(|(_, slot)| slot))
}

/// Structural fingerprint of a netlist (FNV-1a over nodes and outputs).
///
/// Two netlists with equal fingerprints route identically into the same
/// context slot (admission routing is seeded per slot), producing equal
/// [`mcfpga_fabric::Fabric::context_digest`]s — which is what makes the
/// fingerprint a sound plane-cache *affinity* hint. It is only a hint:
/// the digest itself, computed after routing, remains the cache key.
#[must_use]
pub fn netlist_fingerprint(nl: &LogicNetlist) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut put = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for node in nl.nodes() {
        match node {
            Node::Input { name } => {
                put(&[0]);
                put(name.as_bytes());
            }
            Node::Lut { name, fanin, table } => {
                put(&[1]);
                put(name.as_bytes());
                for f in fanin {
                    put(&f.0.to_le_bytes());
                }
                put(&table.to_le_bytes());
            }
        }
    }
    for (name, node) in nl.outputs() {
        put(&[2]);
        put(name.as_bytes());
        put(&node.0.to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantIdSource;
    use mcfpga_fabric::netlist_ir::generators;

    fn registry_with(shards: usize, contexts: usize, taken: &[(usize, usize)]) -> TenantRegistry {
        let mut reg = TenantRegistry::new(shards, contexts).unwrap();
        let mut ids = TenantIdSource::new();
        for &(shard, ctx) in taken {
            reg.commit(
                ids.mint(),
                &format!("t{shard}_{ctx}"),
                Placement { shard, ctx },
                0,
            )
            .unwrap();
        }
        reg
    }

    #[test]
    fn prefers_same_polarity_contexts() {
        // one tenant on ctx 0: the next should land on ctx 2 (2 toggles),
        // not ctx 1 (polarity flip, 4 toggles)
        let reg = registry_with(1, 4, &[(0, 0)]);
        let m = CostMatrix::hybrid(4).unwrap();
        let slot = choose_energy_aware(&reg, &m, None).unwrap();
        assert_eq!((slot.shard, slot.ctx), (0, 2));
    }

    #[test]
    fn empty_shards_win_before_costlier_slots() {
        // shard 0 holds ctx 0; shard 1 is empty — any slot there adds zero
        // marginal cost, so the empty shard wins
        let reg = registry_with(2, 4, &[(0, 0)]);
        let m = CostMatrix::hybrid(4).unwrap();
        let slot = choose_energy_aware(&reg, &m, None).unwrap();
        assert_eq!(slot.shard, 1);
    }

    #[test]
    fn affinity_breaks_ties_only() {
        let m = CostMatrix::hybrid(8).unwrap();
        // contexts 0 and 2 occupied: every remaining slot adds the same
        // marginal cost (4 toggles) — a genuine tie the affinity hint may
        // decide (ctx 6 would reuse a compiled plane)
        let reg = registry_with(1, 8, &[(0, 0), (0, 2)]);
        let slot = choose_energy_aware(&reg, &m, Some(6)).unwrap();
        assert_eq!(slot.ctx, 6);
        // without a hint the tie falls to the lowest slot
        let slot = choose_energy_aware(&reg, &m, None).unwrap();
        assert_eq!(slot.ctx, 1);
        // but affinity never overrides the energy ranking: with only ctx 0
        // occupied, ctx 1 costs 4 marginal while ctx 2 costs 2 — the hint
        // pointing at ctx 1 loses
        let reg = registry_with(1, 8, &[(0, 0)]);
        let slot = choose_energy_aware(&reg, &m, Some(1)).unwrap();
        assert_eq!(slot.ctx, 2);
    }

    #[test]
    fn best_slot_respects_eligibility_filter() {
        let reg = registry_with(2, 4, &[(0, 0)]);
        let m = CostMatrix::hybrid(4).unwrap();
        // evacuation-style filter: shard 0 excluded → must land on shard 1
        let slot = best_slot(&reg, &m, None, |p| p.shard != 0)
            .unwrap()
            .unwrap();
        assert_eq!(slot.shard, 1);
        // a filter admitting nothing yields None, not an error
        assert_eq!(best_slot(&reg, &m, None, |_| false).unwrap(), None);
        // and so does a genuinely full registry
        let full = registry_with(1, 4, &[(0, 0), (0, 1), (0, 2), (0, 3)]);
        assert_eq!(best_slot(&full, &m, None, |_| true).unwrap(), None);
    }

    #[test]
    fn full_registry_reports_capacity() {
        let reg = registry_with(1, 4, &[(0, 0), (0, 1), (0, 2), (0, 3)]);
        let m = CostMatrix::hybrid(4).unwrap();
        assert!(matches!(
            choose_energy_aware(&reg, &m, None),
            Err(ServiceError::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn fingerprints_separate_structures() {
        let a = generators::parity_tree(3).unwrap();
        let b = generators::parity_tree(3).unwrap();
        let c = generators::parity_tree(4).unwrap();
        let d = generators::wire_lanes(1).unwrap();
        assert_eq!(netlist_fingerprint(&a), netlist_fingerprint(&b));
        assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&c));
        assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&d));
    }
}
