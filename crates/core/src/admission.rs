//! Overload protection primitives (ROADMAP item: per-tenant overload
//! protection).
//!
//! Two pieces, both driven by the platform's atomic virtual clock:
//!
//! * [`TokenBucket`] — the per-tenant admission rate and request quota
//!   limiter. Refill is computed lazily from elapsed virtual time, so
//!   arbitrary clock jumps (tests, replayed traces) behave exactly like
//!   many small ones, and the level can never exceed the burst.
//! * [`FanoutScheduler`] — a platform-wide worker-permit pool, sized
//!   by the platform to the host's fan-out cap
//!   ([`MAX_FANOUT_WORKERS`](crate::runtime::MAX_FANOUT_WORKERS)
//!   bounded by its cores). A query with fetches its L2 could not
//!   answer asks it how many threads the fan-out may occupy — the
//!   querying thread counts as the first, so a grant of one spawns
//!   nothing; grants are weighted fair shares with a deficit-style
//!   carry, so a burst tenant running many queries at once cannot
//!   monopolize the pool. Two [`Lane`]s keep background work (warmup,
//!   builds, maintenance) from ever queuing ahead of interactive
//!   queries.
//!
//! Worker grants only bound *real* resource use; virtual-time
//! accounting (`max` under parallel fan-out) is untouched, so results
//! and virtual latencies stay deterministic no matter how permits land.

use parking_lot::Mutex;
use std::collections::HashMap;

/// A token-bucket rate limiter on the virtual clock.
///
/// `rate` tokens per `window_ms` virtual ms, in integer units so refill
/// is exact under any split of the same elapsed time: each virtual ms
/// credits `rate` units and a token costs `window_ms` (1 000 for a
/// per-second rate, 60 000 per minute). Refill saturates at `burst`
/// tokens and is monotone: time never removes tokens, and a backwards
/// (or equal) clock observation is a no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    rate: u32,
    burst: u32,
    window_ms: u64,
    level: u64,
    last_ms: u64,
}

impl TokenBucket {
    /// A bucket of `rate` tokens per `window_ms` that starts full.
    /// `rate == u32::MAX` means unlimited: every acquire succeeds and
    /// the level pins at burst.
    pub fn new(rate: u32, burst: u32, window_ms: u64, now_ms: u64) -> TokenBucket {
        TokenBucket {
            rate,
            burst,
            window_ms,
            level: burst as u64 * window_ms,
            last_ms: now_ms,
        }
    }

    /// True when the bucket never refuses.
    pub(crate) fn is_unlimited(&self) -> bool {
        self.rate == u32::MAX
    }

    /// Credit elapsed virtual time. Saturates at `burst` tokens;
    /// ignores clock observations at or before the last one.
    pub fn refill(&mut self, now_ms: u64) {
        if now_ms <= self.last_ms {
            return;
        }
        let elapsed = now_ms - self.last_ms;
        self.last_ms = now_ms;
        let cap = self.burst as u64 * self.window_ms;
        let gained = elapsed.saturating_mul(self.rate as u64);
        self.level = self.level.saturating_add(gained).min(cap);
    }

    /// Refill to `now_ms`, then take one token. Returns whether the
    /// token was available (unlimited buckets always say yes).
    pub fn try_acquire(&mut self, now_ms: u64) -> bool {
        self.refill(now_ms);
        if self.is_unlimited() {
            return true;
        }
        if self.level >= self.window_ms {
            self.level -= self.window_ms;
            true
        } else {
            false
        }
    }

    /// Current level in `1 / window_ms` tokens (as of the last
    /// observation; call [`TokenBucket::refill`] first for "now").
    pub fn level(&self) -> u64 {
        self.level
    }
}

/// Scheduling lanes for the shared worker pool. Interactive grants are
/// computed as if background work did not exist (user traffic never
/// queues behind merges or warmup); background grants only see what
/// interactive traffic left over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lane {
    /// Customer queries (the serving path).
    #[default]
    Interactive,
    /// Warmup, index builds, maintenance.
    Background,
}

#[derive(Debug, Default)]
struct TenantShare {
    weight: u32,
    /// Grants currently outstanding (queries mid-fan-out).
    active: usize,
    /// Deficit carry in permits: entitlement this tenant wanted but
    /// did not receive, repaid by larger grants later.
    deficit: u64,
    /// Lifetime permits granted (fairness accounting for tests).
    granted: u64,
}

#[derive(Debug, Default)]
struct PoolState {
    interactive_out: usize,
    background_out: usize,
    tenants: HashMap<u64, TenantShare>,
}

/// The platform-wide fan-out worker pool: a permit allocator shared by
/// every concurrently executing query.
///
/// `acquire` is non-blocking and always grants at least one worker
/// (every admitted query makes progress); fairness comes from sizing
/// the grant to the tenant's weighted share of the pool, carrying any
/// shortfall as a deficit that inflates the tenant's next grant.
#[derive(Debug)]
pub struct FanoutScheduler {
    cap: usize,
    state: Mutex<PoolState>,
}

/// An outstanding worker allocation; permits return to the pool on
/// drop.
#[derive(Debug)]
pub(crate) struct WorkerGrant<'a> {
    pool: &'a FanoutScheduler,
    tenant: u64,
    lane: Lane,
    workers: usize,
}

impl WorkerGrant<'_> {
    /// How many threads the fan-out may occupy, the caller's included.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }
}

impl Drop for WorkerGrant<'_> {
    fn drop(&mut self) {
        self.pool.release(self.tenant, self.lane, self.workers);
    }
}

impl FanoutScheduler {
    /// A pool of `cap` worker permits.
    pub fn new(cap: usize) -> FanoutScheduler {
        FanoutScheduler {
            cap: cap.max(1),
            state: Mutex::new(PoolState::default()),
        }
    }

    /// Ask for up to `want` workers for `tenant` (any stable key; the
    /// platform uses the owning tenant id) at scheduling `weight`.
    ///
    /// The grant is `min(want, weighted fair share + deficit carry,
    /// lane availability)`, floored at one worker. Deficit carry means
    /// a tenant shorted while the pool was busy is made whole over the
    /// next grants, so long-run granted shares track weights even
    /// under contention.
    pub(crate) fn acquire(
        &self,
        tenant: u64,
        weight: u32,
        want: usize,
        lane: Lane,
    ) -> WorkerGrant<'_> {
        let want = want.clamp(1, self.cap);
        let weight = weight.max(1) as u64;
        let mut st = self.state.lock();
        {
            let share = st.tenants.entry(tenant).or_default();
            share.weight = weight as u32;
            share.active += 1;
        }
        let active_weight: u64 = st
            .tenants
            .values()
            .filter(|t| t.active > 0)
            .map(|t| t.weight as u64)
            .sum();
        let fair = ((self.cap as u64 * weight) / active_weight.max(1)).max(1);
        let available = match lane {
            Lane::Interactive => self.cap.saturating_sub(st.interactive_out),
            Lane::Background => self
                .cap
                .saturating_sub(st.interactive_out + st.background_out),
        };
        let share = st.tenants.get_mut(&tenant).expect("registered above");
        let entitled = (fair + share.deficit).min(self.cap as u64) as usize;
        let grant = want.min(entitled).min(available.max(1)).max(1);
        // Carry only entitlement the tenant actually wanted; cap the
        // carry so an idle-then-bursty tenant cannot bank the pool.
        share.deficit = (entitled.min(want) as u64)
            .saturating_sub(grant as u64)
            .min(self.cap as u64 * 4);
        share.granted += grant as u64;
        match lane {
            Lane::Interactive => st.interactive_out += grant,
            Lane::Background => st.background_out += grant,
        }
        drop(st);
        WorkerGrant {
            pool: self,
            tenant,
            lane,
            workers: grant,
        }
    }

    fn release(&self, tenant: u64, lane: Lane, workers: usize) {
        let mut st = self.state.lock();
        match lane {
            Lane::Interactive => st.interactive_out = st.interactive_out.saturating_sub(workers),
            Lane::Background => st.background_out = st.background_out.saturating_sub(workers),
        }
        if let Some(share) = st.tenants.get_mut(&tenant) {
            share.active = share.active.saturating_sub(1);
        }
    }

    /// Lifetime permits granted to `tenant` (fairness readout).
    #[cfg(test)]
    pub(crate) fn granted(&self, tenant: u64) -> u64 {
        self.state
            .lock()
            .tenants
            .get(&tenant)
            .map_or(0, |t| t.granted)
    }

    /// Permits currently out per lane: `(interactive, background)`.
    #[cfg(test)]
    pub(crate) fn outstanding(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.interactive_out, st.background_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_starts_full_and_drains() {
        let mut b = TokenBucket::new(10, 3, 1_000, 0);
        assert!(b.try_acquire(0));
        assert!(b.try_acquire(0));
        assert!(b.try_acquire(0));
        assert!(!b.try_acquire(0), "burst of 3 exhausted");
        assert!(b.try_acquire(100));
        assert!(!b.try_acquire(100));
    }

    #[test]
    fn bucket_refill_saturates_at_burst() {
        let mut b = TokenBucket::new(1000, 5, 1_000, 0);
        b.refill(1_000_000);
        assert_eq!(b.level(), 5 * 1_000);
    }

    #[test]
    fn bucket_ignores_backwards_clock() {
        let mut b = TokenBucket::new(10, 10, 1_000, 500);
        while b.try_acquire(500) {}
        b.refill(100); // stale observation
        assert_eq!(b.level(), 0);
        assert!(b.try_acquire(600), "forward time refills");
    }

    #[test]
    fn unlimited_bucket_never_refuses() {
        let mut b = TokenBucket::new(u32::MAX, 1, 1_000, 0);
        for _ in 0..10_000 {
            assert!(b.try_acquire(0));
        }
    }

    #[test]
    fn solo_tenant_gets_the_whole_pool() {
        let pool = FanoutScheduler::new(16);
        let g = pool.acquire(1, 1, 16, Lane::Interactive);
        assert_eq!(g.workers(), 16);
        drop(g);
        assert_eq!(pool.outstanding(), (0, 0));
    }

    #[test]
    fn concurrent_tenants_split_by_weight() {
        let pool = FanoutScheduler::new(16);
        // Tenant 1 (weight 3) holds a grant while tenant 2 (weight 1)
        // arrives: shares split 12/4.
        let g1 = pool.acquire(1, 3, 16, Lane::Interactive);
        assert_eq!(g1.workers(), 16, "alone at acquire time");
        let g2 = pool.acquire(2, 1, 16, Lane::Interactive);
        // 16 * 1/4 = 4 entitled, but only the floor of one permit is
        // guaranteed when the pool is drained; the shortfall carries.
        assert!(g2.workers() >= 1);
        drop(g1);
        drop(g2);
        let g2b = pool.acquire(2, 1, 16, Lane::Interactive);
        assert!(
            g2b.workers() > 1,
            "deficit carry inflates the next grant: {}",
            g2b.workers()
        );
    }

    #[test]
    fn background_lane_only_sees_leftovers() {
        let pool = FanoutScheduler::new(8);
        let fg = pool.acquire(1, 1, 6, Lane::Interactive);
        assert_eq!(fg.workers(), 6);
        let bg = pool.acquire(99, 1, 8, Lane::Background);
        assert!(
            bg.workers() <= 2,
            "background must not displace interactive: {}",
            bg.workers()
        );
        drop(bg);
        // Interactive ignores background outstanding entirely.
        let bg2 = pool.acquire(99, 1, 2, Lane::Background);
        let fg2 = pool.acquire(2, 1, 2, Lane::Interactive);
        assert_eq!(fg2.workers(), 2);
        drop(fg2);
        drop(bg2);
        drop(fg);
    }
}
