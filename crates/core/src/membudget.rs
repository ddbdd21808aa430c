//! Tracked memory budgets: make resident bytes a first-class, bounded,
//! observable resource.
//!
//! The streaming design's whole premise is that you never materialize
//! what you don't need — but a long-lived daemon still holds *some*
//! bytes resident: queued request bodies, in-flight response buffers,
//! compiled-query caches, resident corpus indexes. Left uncounted, one
//! adversarial query (a descendant wildcard over a big corpus) can
//! balloon resident memory without bound and take the process down for
//! every tenant. This module gives those bytes a ledger.
//!
//! * [`MemBudget`] is the ledger: a global byte budget plus an optional
//!   per-tenant cap, with lock-free gauges (current usage, high-water
//!   mark) and typed denial counters for the metrics scrape.
//! * [`MemPermit`] is an RAII reservation: acquiring it charges the
//!   ledger, dropping it releases the charge. Permits can
//!   [`grow`](MemPermit::grow) and [`shrink`](MemPermit::shrink) as the
//!   buffer they track does.
//! * [`MemDenied`] is the typed refusal a caller turns into graceful
//!   degradation — evict something, switch to a streaming delivery mode,
//!   or shed the request — instead of an OOM kill.
//!
//! A budget of zero bytes means *unlimited*: reservations always succeed
//! but usage and high-water gauges still track, so the observability is
//! free even when the enforcement is off. Accounting is deliberately
//! approximate (callers charge the buffer sizes they know about, not
//! allocator internals); the invariant the ledger *does* guarantee is
//! that the sum of live permits never exceeds the budget, which bounds
//! the process's tracked resident set by construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A typed reservation refusal: the ledger would exceed its global
/// budget or the requesting tenant's cap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemDenied {
    /// The tenant whose cap was hit, or `None` when the *global* budget
    /// was the binding constraint.
    pub tenant: Option<String>,
    /// Bytes the caller asked for.
    pub needed: usize,
    /// The limit that refused them (global budget or tenant cap).
    pub limit: usize,
    /// Bytes already reserved under that limit at refusal time.
    pub used: usize,
}

impl std::fmt::Display for MemDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.tenant {
            Some(t) => write!(
                f,
                "memory budget exceeded for tenant {t}: {} + {} > {} bytes",
                self.used, self.needed, self.limit
            ),
            None => write!(
                f,
                "global memory budget exceeded: {} + {} > {} bytes",
                self.used, self.needed, self.limit
            ),
        }
    }
}

impl std::error::Error for MemDenied {}

struct Inner {
    used: usize,
    tenants: HashMap<String, usize>,
}

crate::metric_struct! {
    /// A global tracked-memory ledger with per-tenant shares. Cheap to share
    /// (`Arc`); all mutation goes through [`try_reserve`](MemBudget::try_reserve)
    /// and permit drops. Its `pairs()` are the scrape's `mem_*` gauges.
    pub struct MemBudget {
        /// Global budget in bytes; 0 = unlimited (track, never refuse).
        total: usize => "mem_budget_bytes",
        /// Per-tenant cap in bytes; 0 = no per-tenant cap.
        tenant_cap: usize => "mem_tenant_cap_bytes",
        inner: Mutex<Inner>,
        /// Mirrors `inner.used` for lock-free scrapes.
        used_gauge: AtomicU64 => "mem_used_bytes",
        /// High-water mark of `inner.used` over the ledger's lifetime.
        peak_gauge: AtomicU64 => "mem_peak_bytes",
        /// Reservations refused by the global budget.
        pub denied_global: AtomicU64 => "mem_denied_global",
        /// Reservations refused by a tenant cap.
        pub denied_tenant: AtomicU64 => "mem_denied_tenant",
        /// Entries evicted (caches, resident indexes) to relieve pressure.
        /// Bumped by whoever runs the eviction, not by the ledger itself.
        pub evictions: AtomicU64 => "mem_evictions",
        /// Responses switched from materialized to chunked-streaming delivery
        /// under pressure. Bumped by the server.
        pub forced_streams: AtomicU64 => "mem_forced_streams",
        /// Corpora evaluated by streaming records from disk because their
        /// bytes could not be reserved resident. Bumped by the server.
        pub stream_fallbacks: AtomicU64 => "mem_corpus_stream_fallbacks",
    }
}

impl std::fmt::Debug for MemBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemBudget")
            .field("total", &self.total)
            .field("tenant_cap", &self.tenant_cap)
            .field("used", &self.used())
            .field("peak", &self.peak())
            .finish()
    }
}

impl MemBudget {
    /// A ledger with a global budget of `total` bytes (0 = unlimited)
    /// and no per-tenant cap.
    pub fn new(total: usize) -> Arc<MemBudget> {
        MemBudget::with_tenant_cap(total, 0)
    }

    /// An unlimited ledger: reservations always succeed, gauges still
    /// track.
    pub fn unlimited() -> Arc<MemBudget> {
        MemBudget::new(0)
    }

    /// A ledger with a global budget and a per-tenant cap (either may be
    /// 0 = off). A nonzero tenant cap larger than a nonzero budget is
    /// clamped to the budget.
    pub fn with_tenant_cap(total: usize, tenant_cap: usize) -> Arc<MemBudget> {
        let tenant_cap = if total > 0 && tenant_cap > 0 {
            tenant_cap.min(total)
        } else {
            tenant_cap
        };
        Arc::new(MemBudget {
            total,
            tenant_cap,
            inner: Mutex::new(Inner {
                used: 0,
                tenants: HashMap::new(),
            }),
            used_gauge: AtomicU64::new(0),
            peak_gauge: AtomicU64::new(0),
            denied_global: AtomicU64::new(0),
            denied_tenant: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            forced_streams: AtomicU64::new(0),
            stream_fallbacks: AtomicU64::new(0),
        })
    }

    /// The configured global budget (0 = unlimited).
    pub fn total(&self) -> usize {
        self.total
    }

    /// The configured per-tenant cap (0 = off).
    pub fn tenant_cap(&self) -> usize {
        self.tenant_cap
    }

    /// Bytes currently reserved (lock-free gauge).
    pub fn used(&self) -> usize {
        self.used_gauge.load(Ordering::Relaxed) as usize
    }

    /// High-water mark of reserved bytes over the ledger's lifetime.
    pub fn peak(&self) -> usize {
        self.peak_gauge.load(Ordering::Relaxed) as usize
    }

    /// Tries to reserve `bytes` for `tenant` (`None` charges the global
    /// ledger only — server-internal residents like caches use this).
    /// A successful reservation is released when the returned permit
    /// drops.
    ///
    /// # Errors
    ///
    /// [`MemDenied`] naming the binding limit; nothing is charged.
    pub fn try_reserve(
        self: &Arc<Self>,
        tenant: Option<&str>,
        bytes: usize,
    ) -> Result<MemPermit, MemDenied> {
        let mut inner = self.inner.lock().unwrap();
        if self.total > 0 && inner.used.saturating_add(bytes) > self.total {
            let denied = MemDenied {
                tenant: None,
                needed: bytes,
                limit: self.total,
                used: inner.used,
            };
            drop(inner);
            self.denied_global.fetch_add(1, Ordering::Relaxed);
            return Err(denied);
        }
        if let (Some(t), true) = (tenant, self.tenant_cap > 0) {
            let t_used = inner.tenants.get(t).copied().unwrap_or(0);
            if t_used.saturating_add(bytes) > self.tenant_cap {
                let denied = MemDenied {
                    tenant: Some(t.to_string()),
                    needed: bytes,
                    limit: self.tenant_cap,
                    used: t_used,
                };
                drop(inner);
                self.denied_tenant.fetch_add(1, Ordering::Relaxed);
                return Err(denied);
            }
        }
        inner.used += bytes;
        if let Some(t) = tenant {
            *inner.tenants.entry(t.to_string()).or_insert(0) += bytes;
        }
        let used = inner.used as u64;
        drop(inner);
        self.used_gauge.store(used, Ordering::Relaxed);
        self.peak_gauge.fetch_max(used, Ordering::Relaxed);
        Ok(MemPermit {
            budget: Arc::clone(self),
            tenant: tenant.map(str::to_string),
            bytes,
        })
    }

    /// Internal release path shared by permit drop and shrink.
    fn release(&self, tenant: Option<&str>, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.used = inner.used.saturating_sub(bytes);
        if let Some(t) = tenant {
            if let Some(n) = inner.tenants.get_mut(t) {
                *n = n.saturating_sub(bytes);
                if *n == 0 {
                    inner.tenants.remove(t);
                }
            }
        }
        let used = inner.used as u64;
        drop(inner);
        self.used_gauge.store(used, Ordering::Relaxed);
    }
}

/// An RAII reservation against a [`MemBudget`]. Dropping the permit
/// releases its bytes. Tracks one logical buffer; resize the permit as
/// the buffer resizes.
pub struct MemPermit {
    budget: Arc<MemBudget>,
    tenant: Option<String>,
    bytes: usize,
}

impl std::fmt::Debug for MemPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemPermit")
            .field("tenant", &self.tenant)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl MemPermit {
    /// Bytes currently reserved by this permit.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Reserves `extra` more bytes under the same tenant.
    ///
    /// # Errors
    ///
    /// [`MemDenied`]; the permit keeps its current reservation.
    pub fn grow(&mut self, extra: usize) -> Result<(), MemDenied> {
        let more = self
            .budget
            .try_reserve(self.tenant.as_deref(), extra)?
            .into_raw();
        self.bytes += more;
        Ok(())
    }

    /// Releases `by` bytes (clamped to the current reservation).
    pub fn shrink(&mut self, by: usize) {
        let by = by.min(self.bytes);
        self.budget.release(self.tenant.as_deref(), by);
        self.bytes -= by;
    }

    /// Disarms the permit, returning its byte count without releasing —
    /// the caller takes over the accounting (used by [`grow`]).
    ///
    /// [`grow`]: MemPermit::grow
    fn into_raw(mut self) -> usize {
        std::mem::replace(&mut self.bytes, 0)
    }
}

impl Drop for MemPermit {
    fn drop(&mut self) {
        self.budget.release(self.tenant.as_deref(), self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_and_gauges() {
        let b = MemBudget::new(1000);
        let p = b.try_reserve(Some("t"), 600).unwrap();
        assert_eq!(b.used(), 600);
        assert_eq!(b.peak(), 600);
        let q = b.try_reserve(Some("u"), 400).unwrap();
        assert_eq!(b.used(), 1000);
        drop(p);
        assert_eq!(b.used(), 400);
        assert_eq!(b.peak(), 1000, "peak is a high-water mark");
        drop(q);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn global_budget_refuses_with_typed_denial() {
        let b = MemBudget::new(100);
        let _p = b.try_reserve(None, 80).unwrap();
        let err = b.try_reserve(None, 30).unwrap_err();
        assert_eq!(err.tenant, None);
        assert_eq!((err.needed, err.limit, err.used), (30, 100, 80));
        assert_eq!(b.denied_global.load(Ordering::Relaxed), 1);
        // Nothing was charged by the refusal.
        assert_eq!(b.used(), 80);
    }

    #[test]
    fn tenant_cap_partitions_the_budget() {
        let b = MemBudget::with_tenant_cap(1000, 300);
        let _a = b.try_reserve(Some("alice"), 300).unwrap();
        let err = b.try_reserve(Some("alice"), 1).unwrap_err();
        assert_eq!(err.tenant.as_deref(), Some("alice"));
        assert_eq!(b.denied_tenant.load(Ordering::Relaxed), 1);
        // Another tenant still has room; untenanted charges ignore caps.
        let _c = b.try_reserve(Some("bob"), 300).unwrap();
        let _d = b.try_reserve(None, 400).unwrap();
        assert_eq!(b.used(), 1000);
    }

    #[test]
    fn unlimited_budget_tracks_but_never_refuses() {
        let b = MemBudget::unlimited();
        let p = b.try_reserve(Some("t"), usize::MAX / 4).unwrap();
        assert!(b.try_reserve(Some("t"), usize::MAX / 4).is_ok());
        assert!(b.peak() >= usize::MAX / 4);
        drop(p);
    }

    #[test]
    fn permits_grow_and_shrink() {
        let b = MemBudget::new(100);
        let mut p = b.try_reserve(Some("t"), 40).unwrap();
        p.grow(50).unwrap();
        assert_eq!(p.bytes(), 90);
        assert_eq!(b.used(), 90);
        let err = p.grow(20).unwrap_err();
        assert_eq!(err.needed, 20);
        assert_eq!(p.bytes(), 90, "failed grow leaves the permit intact");
        p.shrink(70);
        assert_eq!((p.bytes(), b.used()), (20, 20));
        // Shrink past the reservation clamps.
        p.shrink(1000);
        assert_eq!((p.bytes(), b.used()), (0, 0));
        drop(p);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn tenant_cap_is_clamped_to_budget() {
        let b = MemBudget::with_tenant_cap(100, 5000);
        assert_eq!(b.tenant_cap(), 100);
        // With an unlimited budget the cap stands alone.
        let b = MemBudget::with_tenant_cap(0, 5000);
        assert_eq!(b.tenant_cap(), 5000);
        assert!(b.try_reserve(Some("t"), 6000).is_err());
        assert!(b.try_reserve(None, 6000).is_ok());
    }

    #[test]
    fn concurrent_reservations_never_exceed_budget() {
        let b = MemBudget::new(10_000);
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut peak_ok = true;
                    for _ in 0..500 {
                        if let Ok(p) = b.try_reserve(Some(&format!("t{i}")), 700) {
                            peak_ok &= b.used() <= 10_000;
                            drop(p);
                        }
                    }
                    peak_ok
                })
            })
            .collect();
        for t in threads {
            assert!(t.join().unwrap(), "tracked usage exceeded the budget");
        }
        assert_eq!(b.used(), 0);
        assert!(b.peak() <= 10_000);
    }
}
