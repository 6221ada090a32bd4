//! Per-tenant cost attribution for shared-fabric execution.
//!
//! A multi-tenant batch service runs many tenants' requests through one
//! fabric; this module turns each tenant's raw usage counters (passes,
//! vectors, CSS broadcast toggles) into a bill with physical units, so the
//! shared fabric's energy is attributed to the tenant whose context switch
//! caused it rather than smeared across everyone.
//!
//! Alongside the toggles actually charged, each tenant carries the
//! *baseline* toggles the naive ascending sweep order would have charged
//! for the same switches — the counterfactual the schedule optimizer
//! (`mcfpga_css::optimize`) is billed against. The difference surfaces on
//! the bill as `css_energy_saved_j`, so a tenant can see what the
//! optimizer's reordering was worth to them specifically.
//!
//! ```
//! use mcfpga_cost::attribution::{bill, TenantUsage};
//! use mcfpga_device::TechParams;
//!
//! let usage = TenantUsage {
//!     requests: 130,
//!     passes: 3,
//!     css_toggles: 5,
//!     css_toggles_baseline: 8, // the naive order would have cost 8
//!     ..TenantUsage::default()
//! };
//! let b = bill(&usage, &TechParams::default());
//! assert!(b.dynamic_energy_j > 0.0);
//! assert!(b.css_energy_saved_j > 0.0, "the optimizer saved 3 toggles");
//! assert!((b.vectors_per_pass - 130.0 / 3.0).abs() < 1e-12);
//! ```

use mcfpga_device::TechParams;

/// Raw usage counters accumulated for one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Single-vector requests the tenant submitted.
    pub requests: usize,
    /// Bit-parallel fabric passes executed on the tenant's context.
    pub passes: usize,
    /// CSS broadcast-wire toggles spent switching *into* the tenant's
    /// context (the switch is charged to the tenant being switched to).
    pub css_toggles: usize,
    /// Toggles the *naive* (ascending) sweep order would have spent
    /// switching into the tenant's context — the counterfactual baseline
    /// the schedule optimizer is measured against. Equals
    /// [`css_toggles`](Self::css_toggles) when optimization is off. A
    /// single tenant's baseline may be *below* its actual charge (the
    /// optimizer minimizes the whole sweep, not each hop), but summed over
    /// a sweep's tenants the baseline is never less than the charge.
    pub css_toggles_baseline: usize,
    /// Times the tenant was checkpointed and moved to another slot (live
    /// migration, evacuation, or restore from a serialized checkpoint).
    pub migrations: usize,
    /// Checkpoint wire-format bytes moved on the tenant's behalf — the
    /// network/DMA traffic a migration costs, summed over migrations.
    pub migration_bytes: usize,
    /// User cycles the tenant's requests sat unserviceable during
    /// migrations: one context-switch boundary per move, plus one cycle of
    /// added latency per pending request carried across.
    pub migration_downtime_cycles: usize,
    /// Extra CSS broadcast toggles migrations cost — the modeled
    /// realignment of the *destination* shard's sweep when the tenant's
    /// context joins it (the marginal sweep cost of the new slot).
    pub migration_css_toggles: usize,
}

impl TenantUsage {
    /// Accumulates another usage record into this one.
    pub fn absorb(&mut self, other: &TenantUsage) {
        self.requests += other.requests;
        self.passes += other.passes;
        self.css_toggles += other.css_toggles;
        self.css_toggles_baseline += other.css_toggles_baseline;
        self.migrations += other.migrations;
        self.migration_bytes += other.migration_bytes;
        self.migration_downtime_cycles += other.migration_downtime_cycles;
        self.migration_css_toggles += other.migration_css_toggles;
    }
}

/// An insertion-ordered accumulator of per-key [`TenantUsage`] deltas —
/// the mergeable unit a *parallel* executor needs.
///
/// Each shard engine charges the usage of one sweep into its own ledger
/// (keys are tenant handles; the ledger is generic so this crate stays
/// ignorant of the service's id type), and the coordinator merges the
/// per-shard ledgers back in a fixed shard order. Because entries keep
/// insertion order and [`merge`](Self::merge) appends other's keys after
/// this ledger's, the merged entry order is a pure function of the merge
/// order — never of thread scheduling — which is what makes parallel
/// billing bit-for-bit identical to sequential billing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageLedger<K> {
    entries: Vec<(K, TenantUsage)>,
}

impl<K> Default for UsageLedger<K> {
    fn default() -> Self {
        UsageLedger {
            entries: Vec::new(),
        }
    }
}

impl<K: PartialEq + Copy> UsageLedger<K> {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        UsageLedger::default()
    }

    /// The accumulator for `key`, created zeroed on first charge. Lookup is
    /// a linear scan: a sweep touches at most one tenant per context, so
    /// ledgers stay a handful of entries long.
    pub fn charge(&mut self, key: K) -> &mut TenantUsage {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            return &mut self.entries[i].1;
        }
        self.entries.push((key, TenantUsage::default()));
        &mut self.entries.last_mut().expect("just pushed").1
    }

    /// Absorbs every entry of `other` into this ledger, summing counters
    /// for shared keys and appending new keys in `other`'s order.
    pub fn merge(&mut self, other: &UsageLedger<K>) {
        for (key, usage) in &other.entries {
            self.charge(*key).absorb(usage);
        }
    }

    /// The `(key, usage)` entries, insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(K, TenantUsage)] {
        &self.entries
    }

    /// Number of charged keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Has nothing been charged?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One tenant's usage translated into physical units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantBill {
    /// Dynamic CSS broadcast energy attributed to the tenant (joules).
    pub dynamic_energy_j: f64,
    /// Broadcast energy the sweep optimizer saved this tenant versus the
    /// naive ascending order (joules). Negative when the optimizer routed
    /// *more* toggles through this tenant's switch-in (it minimizes the
    /// sweep total, not each tenant); a service-wide sum is never negative.
    pub css_energy_saved_j: f64,
    /// Mean request vectors served per fabric pass — the batching
    /// efficiency (64 is a perfectly full u64-lane pass, 1 is unbatched).
    pub vectors_per_pass: f64,
    /// Broadcast energy the tenant's migrations cost on top of normal
    /// serving (joules) — the destination-sweep realignment toggles of
    /// [`TenantUsage::migration_css_toggles`], priced like any other
    /// broadcast toggle.
    pub migration_energy_j: f64,
}

/// Bills `usage` under the technology parameters `p`.
#[must_use]
pub fn bill(usage: &TenantUsage, p: &TechParams) -> TenantBill {
    TenantBill {
        dynamic_energy_j: usage.css_toggles as f64 * p.css_toggle_energy_j,
        css_energy_saved_j: (usage.css_toggles_baseline as f64 - usage.css_toggles as f64)
            * p.css_toggle_energy_j,
        vectors_per_pass: if usage.passes == 0 {
            0.0
        } else {
            usage.requests as f64 / usage.passes as f64
        },
        migration_energy_j: usage.migration_css_toggles as f64 * p.css_toggle_energy_j,
    }
}

/// Renders a per-tenant billing table (markdown) from `(name, usage)` rows.
#[must_use]
pub fn render_billing(rows: &[(String, TenantUsage)], p: &TechParams) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, u)| {
            let b = bill(u, p);
            vec![
                name.clone(),
                u.requests.to_string(),
                u.passes.to_string(),
                format!("{:.1}", b.vectors_per_pass),
                u.css_toggles.to_string(),
                format!("{:.3e}", b.dynamic_energy_j),
                format!("{:.3e}", b.css_energy_saved_j),
                u.migrations.to_string(),
                u.migration_bytes.to_string(),
                format!("{:.3e}", b.migration_energy_j),
            ]
        })
        .collect();
    crate::report::render_markdown_table(
        &[
            "tenant",
            "requests",
            "passes",
            "vec/pass",
            "css toggles",
            "energy (J)",
            "saved (J)",
            "migr",
            "moved (B)",
            "migr (J)",
        ],
        &body,
    )
}

/// Raw QoS front-end admission counters for one tenant's request stream.
///
/// Deliberately a **separate** struct from [`TenantUsage`]: that one is
/// serialized inside the versioned migration checkpoint wire format
/// (golden-file pinned), so front-end accounting — which never migrates;
/// streams live on the coordinator — gets its own ledger rather than a
/// wire-format bump. Every counter is an *outcome* count, so for any
/// stream `offered == admitted + rejected_backpressure + rejected_rate +
/// rejected_deadline` and every admitted request eventually lands in
/// exactly one of `completed`, `expired`, or `failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendUsage {
    /// Requests offered to the stream (admitted or not).
    pub offered: usize,
    /// Requests admitted into the bounded stream queue.
    pub admitted: usize,
    /// Offers refused because the bounded queue was full.
    pub rejected_backpressure: usize,
    /// Offers rejected by the token-bucket rate limit.
    pub rejected_rate: usize,
    /// Offers rejected as dead on arrival (deadline already passed).
    pub rejected_deadline: usize,
    /// Admitted requests served to completion.
    pub completed: usize,
    /// Admitted requests whose deadline passed while still queued in the
    /// front-end — removed unserved with a typed event.
    pub expired: usize,
    /// Admitted requests the service refused at submit time.
    pub failed: usize,
    /// Whole rate-limit tokens spent on admissions.
    pub rate_tokens_spent: usize,
}

impl FrontendUsage {
    /// Accumulates another stream's counters into this one.
    pub fn absorb(&mut self, other: &FrontendUsage) {
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.rejected_backpressure += other.rejected_backpressure;
        self.rejected_rate += other.rejected_rate;
        self.rejected_deadline += other.rejected_deadline;
        self.completed += other.completed;
        self.expired += other.expired;
        self.failed += other.failed;
        self.rate_tokens_spent += other.rate_tokens_spent;
    }

    /// Total offers rejected for any reason (backpressure, rate limit,
    /// dead-on-arrival deadline).
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.rejected_backpressure + self.rejected_rate + self.rejected_deadline
    }

    /// Admitted requests already resolved (completed, expired, or
    /// failed); the remainder are still queued or in flight.
    #[must_use]
    pub fn resolved(&self) -> usize {
        self.completed + self.expired + self.failed
    }
}

/// One stream's admission counters summarized into service-quality rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendBill {
    /// Fraction of offers admitted (1.0 for an uncontended stream).
    pub admission_rate: f64,
    /// Fraction of *admitted* requests served to completion — the
    /// stream's goodput ratio (expiries and failures subtract from it).
    pub goodput: f64,
}

/// Summarizes `usage` into admission/goodput rates.
#[must_use]
pub fn bill_frontend(usage: &FrontendUsage) -> FrontendBill {
    FrontendBill {
        admission_rate: if usage.offered == 0 {
            1.0
        } else {
            usage.admitted as f64 / usage.offered as f64
        },
        goodput: if usage.resolved() == 0 {
            1.0
        } else {
            usage.completed as f64 / usage.resolved() as f64
        },
    }
}

/// Renders a per-stream admission/QoS billing table (markdown) from
/// `(name, usage)` rows.
#[must_use]
pub fn render_frontend_billing(rows: &[(String, FrontendUsage)]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, u)| {
            let b = bill_frontend(u);
            vec![
                name.clone(),
                u.offered.to_string(),
                u.admitted.to_string(),
                u.rejected_backpressure.to_string(),
                u.rejected_rate.to_string(),
                u.rejected_deadline.to_string(),
                u.completed.to_string(),
                u.expired.to_string(),
                u.failed.to_string(),
                format!("{:.3}", b.admission_rate),
                format!("{:.3}", b.goodput),
            ]
        })
        .collect();
    crate::report::render_markdown_table(
        &[
            "stream", "offered", "admitted", "bp", "rate-rej", "ddl-rej", "done", "expired",
            "failed", "adm rate", "goodput",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn billing_is_linear_in_toggles() {
        let p = TechParams::default();
        let a = bill(
            &TenantUsage {
                requests: 64,
                passes: 1,
                css_toggles: 2,
                css_toggles_baseline: 2,
                ..TenantUsage::default()
            },
            &p,
        );
        let b = bill(
            &TenantUsage {
                requests: 64,
                passes: 1,
                css_toggles: 4,
                css_toggles_baseline: 4,
                ..TenantUsage::default()
            },
            &p,
        );
        assert!((b.dynamic_energy_j - 2.0 * a.dynamic_energy_j).abs() < 1e-24);
        assert_eq!(a.vectors_per_pass, 64.0);
    }

    #[test]
    fn idle_tenant_bills_zero() {
        let b = bill(&TenantUsage::default(), &TechParams::default());
        assert_eq!(b.dynamic_energy_j, 0.0);
        assert_eq!(b.css_energy_saved_j, 0.0);
        assert_eq!(b.vectors_per_pass, 0.0);
    }

    #[test]
    fn saved_energy_is_signed() {
        let p = TechParams::default();
        let saved = bill(
            &TenantUsage {
                requests: 1,
                passes: 1,
                css_toggles: 2,
                css_toggles_baseline: 4,
                ..TenantUsage::default()
            },
            &p,
        );
        assert!(saved.css_energy_saved_j > 0.0);
        // a tenant the optimizer charged *more* than the naive order sees
        // a negative saving — honest per-tenant accounting
        let charged = bill(
            &TenantUsage {
                requests: 1,
                passes: 1,
                css_toggles: 4,
                css_toggles_baseline: 2,
                ..TenantUsage::default()
            },
            &p,
        );
        assert!(charged.css_energy_saved_j < 0.0);
        assert_eq!(saved.css_energy_saved_j, -charged.css_energy_saved_j);
    }

    #[test]
    fn absorb_accumulates() {
        let mut u = TenantUsage {
            requests: 1,
            passes: 1,
            css_toggles: 1,
            css_toggles_baseline: 2,
            ..TenantUsage::default()
        };
        u.absorb(&TenantUsage {
            requests: 63,
            passes: 0,
            css_toggles: 3,
            css_toggles_baseline: 5,
            ..TenantUsage::default()
        });
        assert_eq!(u.requests, 64);
        assert_eq!(u.passes, 1);
        assert_eq!(u.css_toggles, 4);
        assert_eq!(u.css_toggles_baseline, 7);
    }

    #[test]
    fn ledger_charges_and_merges_in_insertion_order() {
        let mut a: UsageLedger<u32> = UsageLedger::new();
        a.charge(7).requests += 1;
        a.charge(3).css_toggles += 2;
        a.charge(7).passes += 1; // existing key accumulates, no new entry
        assert_eq!(a.len(), 2);
        assert_eq!(a.entries()[0].0, 7, "first-charged key stays first");
        assert_eq!(a.entries()[1].0, 3);

        let mut b: UsageLedger<u32> = UsageLedger::new();
        b.charge(3).css_toggles += 5;
        b.charge(9).requests += 4;
        a.merge(&b);
        assert_eq!(
            a.entries().iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![7, 3, 9],
            "merge sums shared keys and appends new ones in other's order"
        );
        assert_eq!(a.entries()[1].1.css_toggles, 7);
        assert_eq!(a.entries()[2].1.requests, 4);
        assert!(!a.is_empty());
        assert!(UsageLedger::<u32>::new().is_empty());
    }

    /// Merging per-shard ledgers in a fixed order equals charging the same
    /// events into one ledger sequentially — the parallel executor's
    /// billing-determinism invariant, in miniature.
    #[test]
    fn ledger_merge_equals_sequential_accumulation() {
        let events: [(u32, usize); 5] = [(1, 2), (2, 3), (1, 1), (3, 4), (2, 2)];
        let mut sequential: UsageLedger<u32> = UsageLedger::new();
        for (k, t) in events {
            sequential.charge(k).css_toggles += t;
        }
        // shard 0 saw events 0..2, shard 1 the rest
        let mut shard0: UsageLedger<u32> = UsageLedger::new();
        let mut shard1: UsageLedger<u32> = UsageLedger::new();
        for (k, t) in &events[..2] {
            shard0.charge(*k).css_toggles += t;
        }
        for (k, t) in &events[2..] {
            shard1.charge(*k).css_toggles += t;
        }
        let mut merged: UsageLedger<u32> = UsageLedger::new();
        merged.merge(&shard0);
        merged.merge(&shard1);
        assert_eq!(merged, sequential);
    }

    #[test]
    fn migration_overhead_bills_separately() {
        let p = TechParams::default();
        let u = TenantUsage {
            requests: 64,
            passes: 1,
            css_toggles: 2,
            css_toggles_baseline: 2,
            migrations: 2,
            migration_bytes: 300,
            migration_downtime_cycles: 9,
            migration_css_toggles: 4,
        };
        let b = bill(&u, &p);
        assert_eq!(b.migration_energy_j, 4.0 * p.css_toggle_energy_j);
        // migration toggles are extra, not folded into serving energy
        assert_eq!(b.dynamic_energy_j, 2.0 * p.css_toggle_energy_j);
        let table = render_billing(&[("mover".to_string(), u)], &p);
        assert!(table.contains("migr"));
        assert!(table.contains("300"));
    }

    #[test]
    fn frontend_usage_invariants_and_rates() {
        let mut u = FrontendUsage {
            offered: 10,
            admitted: 7,
            rejected_backpressure: 1,
            rejected_rate: 1,
            rejected_deadline: 1,
            completed: 5,
            expired: 1,
            failed: 1,
            rate_tokens_spent: 7,
        };
        assert_eq!(u.offered, u.admitted + u.rejected());
        assert_eq!(u.resolved(), 7);
        let b = bill_frontend(&u);
        assert!((b.admission_rate - 0.7).abs() < 1e-12);
        assert!((b.goodput - 5.0 / 7.0).abs() < 1e-12);
        u.absorb(&u.clone());
        assert_eq!(u.offered, 20);
        assert_eq!(u.completed, 10);
        // empty stream reads as perfectly served, not as 0/0
        let idle = bill_frontend(&FrontendUsage::default());
        assert_eq!(idle.admission_rate, 1.0);
        assert_eq!(idle.goodput, 1.0);
    }

    #[test]
    fn frontend_billing_table_renders_all_streams() {
        let rows = vec![
            (
                "video (latency-sensitive)".to_string(),
                FrontendUsage {
                    offered: 4,
                    admitted: 3,
                    rejected_backpressure: 1,
                    completed: 3,
                    ..FrontendUsage::default()
                },
            ),
            ("batch (throughput)".to_string(), FrontendUsage::default()),
        ];
        let table = render_frontend_billing(&rows);
        assert!(table.contains("video"));
        assert!(table.contains("batch"));
        assert!(table.contains("adm rate"));
        assert!(table.contains("goodput"));
    }

    #[test]
    fn billing_table_renders_all_tenants() {
        let rows = vec![
            (
                "parity".to_string(),
                TenantUsage {
                    requests: 128,
                    passes: 2,
                    css_toggles: 3,
                    css_toggles_baseline: 7,
                    ..TenantUsage::default()
                },
            ),
            ("idle".to_string(), TenantUsage::default()),
        ];
        let table = render_billing(&rows, &TechParams::default());
        assert!(table.contains("parity"));
        assert!(table.contains("idle"));
        assert!(table.contains("64.0"));
    }
}
