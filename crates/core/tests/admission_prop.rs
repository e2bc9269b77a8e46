//! Property tests for the overload-protection primitives.
//!
//! Two laws the hosting layer leans on:
//!
//! 1. A token bucket's level can never exceed its burst capacity, no
//!    matter how acquires and arbitrary virtual-clock jumps interleave.
//! 2. Refill is monotone and split-invariant: observing the clock at
//!    `t` then `t + d` banks exactly as many tokens as observing
//!    `t + d` directly, and stale (backwards) observations change
//!    nothing.
//!
//! Both laws run at the two windows the platform prices a token at:
//! 1 000 virtual ms (admission, per second) and 60 000 (the request
//! quota, per minute). A third property pins the request quota against
//! the sliding window it replaced: no request the window would admit
//! is refused.

use proptest::prelude::*;
use std::collections::VecDeque;
use symphony_core::admission::TokenBucket;

const MINUTE_MS: u64 = 60_000;

fn windows() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1_000u64), Just(MINUTE_MS)]
}

/// The request quota's former limiter, kept as an oracle: a request is
/// admitted while fewer than `limit` were admitted in the last virtual
/// minute, both ends included.
struct SlidingWindow {
    limit: u32,
    admitted: VecDeque<u64>,
}

impl SlidingWindow {
    fn try_admit(&mut self, now: u64) -> bool {
        let start = now.saturating_sub(MINUTE_MS);
        while self.admitted.front().is_some_and(|&t| t < start) {
            self.admitted.pop_front();
        }
        let admit = self.admitted.len() < self.limit as usize;
        if admit {
            self.admitted.push_back(now);
        }
        admit
    }
}

#[derive(Debug, Clone)]
enum BucketOp {
    /// Try to take one token at the current virtual time.
    Acquire,
    /// Jump the clock forward.
    Advance(u64),
    /// Observe the clock without taking (the hosting layer's refill on
    /// stat reads).
    Refill,
    /// Hand the bucket a stale timestamp (a racing thread that loaded
    /// the clock before a concurrent advance).
    StaleRefill(u64),
}

fn bucket_ops() -> impl Strategy<Value = Vec<BucketOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(BucketOp::Acquire),
            (1u64..5_000).prop_map(BucketOp::Advance),
            Just(BucketOp::Refill),
            (0u64..2_000).prop_map(BucketOp::StaleRefill),
        ],
        1..120,
    )
}

proptest! {
    /// Law 1: the level is bounded by burst × window units at every
    /// step of any op interleaving, including huge clock jumps.
    #[test]
    fn bucket_level_never_exceeds_burst(
        rate in 1u32..2_000,
        burst in 1u32..50,
        window in windows(),
        ops in bucket_ops(),
    ) {
        let mut bucket = TokenBucket::new(rate, burst, window, 0);
        let mut now = 0u64;
        let cap = burst as u64 * window;
        prop_assert!(bucket.level() <= cap);
        for op in ops {
            match op {
                BucketOp::Acquire => { bucket.try_acquire(now); }
                BucketOp::Advance(d) => { now += d; bucket.refill(now); }
                BucketOp::Refill => bucket.refill(now),
                BucketOp::StaleRefill(back) => bucket.refill(now.saturating_sub(back)),
            }
            prop_assert!(
                bucket.level() <= cap,
                "level {} exceeds burst cap {}",
                bucket.level(),
                cap,
            );
        }
    }

    /// Law 2: refill is split-invariant — crediting an elapsed window
    /// in arbitrarily many pieces banks exactly the same units as
    /// crediting it at once — and interleaved stale observations are
    /// no-ops.
    #[test]
    fn refill_is_monotone_and_split_invariant(
        rate in 1u32..2_000,
        burst in 1u32..50,
        window in windows(),
        drains in 0u32..20,
        splits in prop::collection::vec(1u64..500, 1..30),
    ) {
        let mut split_bucket = TokenBucket::new(rate, burst, window, 0);
        let mut whole_bucket = TokenBucket::new(rate, burst, window, 0);
        for _ in 0..drains {
            split_bucket.try_acquire(0);
            whole_bucket.try_acquire(0);
        }
        let mut now = 0u64;
        let mut last_level = split_bucket.level();
        for d in &splits {
            now += d;
            split_bucket.refill(now);
            prop_assert!(
                split_bucket.level() >= last_level,
                "refill went backwards: {} -> {}",
                last_level,
                split_bucket.level(),
            );
            last_level = split_bucket.level();
            // A stale observation between splits must change nothing.
            split_bucket.refill(now / 2);
            prop_assert_eq!(split_bucket.level(), last_level);
        }
        whole_bucket.refill(now);
        prop_assert_eq!(split_bucket.level(), whole_bucket.level());
    }

    /// The request quota admits everything its sliding-window
    /// predecessor admitted: while the window has refused nothing, the
    /// bucket (burst `limit`, `limit` tokens per minute) has refused
    /// nothing either. Arrivals mix bursts (gaps under 100 ms) with
    /// pauses up to half a minute.
    #[test]
    fn quota_bucket_admits_whatever_the_window_admits(
        limit in 1u32..40,
        gaps in prop::collection::vec(
            prop_oneof![0u64..100, 0u64..30_000],
            1..200,
        ),
    ) {
        let mut window = SlidingWindow { limit, admitted: VecDeque::new() };
        let mut bucket = TokenBucket::new(limit, limit, MINUTE_MS, 0);
        let mut now = 0u64;
        for (i, gap) in gaps.iter().enumerate() {
            now += gap;
            if !window.try_admit(now) {
                break;
            }
            prop_assert!(
                bucket.try_acquire(now),
                "request {} at {} ms: the window admits it, the bucket refuses",
                i,
                now,
            );
        }
    }
}
