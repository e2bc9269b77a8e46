//! Per-endpoint circuit breakers on the virtual clock.
//!
//! A down endpoint must fail *fast*: without a breaker, an outage
//! burns `timeout × attempts` virtual ms on every one of a fan-out's
//! N fetches; with one, the first few failures trip the circuit and
//! every subsequent fetch is rejected in ~0 virtual ms until a
//! cool-down passes. The classic three-state machine:
//!
//! ```text
//!        failures ≥ threshold                cool_down elapses
//! Closed ────────────────────▶ Open ────────────────────▶ HalfOpen
//!   ▲                            ▲                            │
//!   │  probe successes ≥ quota   │        probe fails         │
//!   └────────────────────────────┴────────────────────────────┘
//! ```
//!
//! Half-open admits every call: each one is a probe, and the first
//! failure reopens the circuit.
//!
//! All transitions are keyed on the *virtual* clock — no wall time —
//! so breaker behaviour is exactly reproducible in the chaos suite.
//! The registry is one endpoint map behind one mutex: a platform
//! calls a handful of endpoints, and each lookup holds the lock for
//! a hash probe and a state update.

use parking_lot::Mutex;
use std::collections::HashMap;

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// Virtual ms an opened circuit rejects calls before admitting
    /// half-open probes.
    pub open_ms: u64,
    /// Probe successes required to close a half-open circuit.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_ms: 30_000,
            half_open_successes: 2,
        }
    }
}

impl BreakerConfig {
    /// A registry that never trips (the naive-client baseline in the
    /// E-resilience experiment).
    pub fn disabled() -> Self {
        BreakerConfig {
            failure_threshold: u32::MAX,
            ..BreakerConfig::default()
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls are rejected fast.
    Open,
    /// Every call is admitted as a probe of recovery; the first
    /// failure reopens the circuit, and `half_open_successes` successes
    /// close it.
    HalfOpen,
}

/// Admission decision for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Proceed with the call.
    Allow,
    /// Reject without calling: the circuit is open.
    FastFail {
        /// Virtual ms until probes will be admitted.
        retry_after_ms: u64,
    },
}

/// One endpoint's circuit: consecutive failures while closed, the
/// virtual ms it opened at, probe successes while half-open.
#[derive(Debug, Clone, Copy)]
enum Core {
    Closed { failures: u32 },
    Open { since_ms: u64 },
    HalfOpen { successes: u32 },
}

/// Per-endpoint breaker registry.
pub struct BreakerRegistry {
    config: BreakerConfig,
    endpoints: Mutex<HashMap<String, Core>>,
}

impl std::fmt::Debug for BreakerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BreakerRegistry")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// The circuit of `endpoint`, closed the first time it is seen (the
/// only time its key is allocated).
fn core_of<'a>(endpoints: &'a mut HashMap<String, Core>, endpoint: &str) -> &'a mut Core {
    if !endpoints.contains_key(endpoint) {
        endpoints.insert(endpoint.to_string(), Core::Closed { failures: 0 });
    }
    endpoints.get_mut(endpoint).expect("inserted above")
}

impl BreakerRegistry {
    /// Empty registry with the given tuning.
    pub fn new(config: BreakerConfig) -> BreakerRegistry {
        BreakerRegistry {
            config,
            endpoints: Mutex::new(HashMap::new()),
        }
    }

    /// Should a call to `endpoint` proceed at virtual time `now_ms`?
    /// An open circuit whose cool-down has elapsed moves to half-open;
    /// a half-open circuit admits every call as a probe.
    pub(crate) fn admit(&self, endpoint: &str, now_ms: u64) -> Admission {
        let mut endpoints = self.endpoints.lock();
        let core = core_of(&mut endpoints, endpoint);
        match *core {
            Core::Closed { .. } | Core::HalfOpen { .. } => Admission::Allow,
            Core::Open { since_ms } => {
                let reopens_at = since_ms + self.config.open_ms;
                if now_ms >= reopens_at {
                    *core = Core::HalfOpen { successes: 0 };
                    Admission::Allow
                } else {
                    Admission::FastFail {
                        retry_after_ms: reopens_at - now_ms,
                    }
                }
            }
        }
    }

    /// Record the result of an admitted call finishing at `now_ms`.
    pub fn record(&self, endpoint: &str, now_ms: u64, success: bool) {
        let mut endpoints = self.endpoints.lock();
        let core = core_of(&mut endpoints, endpoint);
        *core = match (*core, success) {
            (Core::Closed { .. }, true) => Core::Closed { failures: 0 },
            (Core::Closed { failures }, false) => match failures + 1 {
                f if f >= self.config.failure_threshold => Core::Open { since_ms: now_ms },
                failures => Core::Closed { failures },
            },
            (Core::HalfOpen { successes }, true) => match successes + 1 {
                s if s >= self.config.half_open_successes => Core::Closed { failures: 0 },
                successes => Core::HalfOpen { successes },
            },
            (Core::HalfOpen { .. }, false) => Core::Open { since_ms: now_ms },
            // Results may arrive for a circuit that tripped open while
            // the call was in flight; they don't move an open circuit.
            (open @ Core::Open { .. }, _) => open,
        };
    }

    /// Observe the state of `endpoint` at `now_ms` without mutating it
    /// (an open circuit past its cool-down reports [`BreakerState::HalfOpen`]).
    pub fn state(&self, endpoint: &str, now_ms: u64) -> BreakerState {
        match self.endpoints.lock().get(endpoint) {
            None | Some(Core::Closed { .. }) => BreakerState::Closed,
            Some(Core::HalfOpen { .. }) => BreakerState::HalfOpen,
            Some(Core::Open { since_ms }) => {
                if now_ms >= since_ms + self.config.open_ms {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
        }
    }

    /// Forget all endpoint state (admin reset).
    pub fn reset(&self) {
        self.endpoints.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> BreakerRegistry {
        BreakerRegistry::new(BreakerConfig {
            failure_threshold: 3,
            open_ms: 1_000,
            half_open_successes: 2,
        })
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let r = registry();
        r.record("svc", 10, false);
        r.record("svc", 20, false);
        assert_eq!(r.state("svc", 20), BreakerState::Closed);
        r.record("svc", 30, false);
        assert_eq!(r.state("svc", 30), BreakerState::Open);
        assert_eq!(
            r.admit("svc", 40),
            Admission::FastFail {
                retry_after_ms: 990
            }
        );
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let r = registry();
        r.record("svc", 0, false);
        r.record("svc", 1, false);
        r.record("svc", 2, true);
        r.record("svc", 3, false);
        r.record("svc", 4, false);
        assert_eq!(r.state("svc", 4), BreakerState::Closed);
    }

    #[test]
    fn full_cycle_closed_open_halfopen_closed() {
        let r = registry();
        for t in 0..3 {
            r.record("svc", t, false);
        }
        assert_eq!(r.state("svc", 2), BreakerState::Open);
        // Cool-down not elapsed: rejected.
        assert!(matches!(r.admit("svc", 500), Admission::FastFail { .. }));
        // Cool-down elapsed: probe admitted, state is half-open.
        assert_eq!(r.admit("svc", 1_002), Admission::Allow);
        assert_eq!(r.state("svc", 1_002), BreakerState::HalfOpen);
        // One probe success is not enough (quota 2)...
        r.record("svc", 1_010, true);
        assert_eq!(r.state("svc", 1_010), BreakerState::HalfOpen);
        // ...the second closes it.
        r.record("svc", 1_020, true);
        assert_eq!(r.state("svc", 1_020), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_every_call() {
        let r = registry();
        for t in 0..3 {
            r.record("svc", t, false);
        }
        // No probe cap: back-to-back calls past the cool-down are all
        // admitted, and the circuit stays half-open until results land.
        assert_eq!(r.admit("svc", 1_002), Admission::Allow);
        assert_eq!(r.admit("svc", 1_003), Admission::Allow);
        assert_eq!(r.state("svc", 1_003), BreakerState::HalfOpen);
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let r = registry();
        for t in 0..3 {
            r.record("svc", t, false);
        }
        assert_eq!(r.admit("svc", 1_500), Admission::Allow); // probe
        r.record("svc", 1_510, false);
        assert_eq!(r.state("svc", 1_510), BreakerState::Open);
        assert_eq!(
            r.admit("svc", 1_600),
            Admission::FastFail {
                retry_after_ms: 910
            }
        );
    }

    #[test]
    fn endpoints_are_independent() {
        let r = registry();
        for t in 0..3 {
            r.record("down", t, false);
        }
        assert_eq!(r.state("down", 3), BreakerState::Open);
        assert_eq!(r.state("up", 3), BreakerState::Closed);
        assert_eq!(r.admit("up", 3), Admission::Allow);
    }

    #[test]
    fn disabled_config_never_trips() {
        let r = BreakerRegistry::new(BreakerConfig::disabled());
        for t in 0..10_000u64 {
            r.record("svc", t, false);
        }
        assert_eq!(r.state("svc", 10_000), BreakerState::Closed);
    }

    #[test]
    fn reset_forgets_state() {
        let r = registry();
        for t in 0..3 {
            r.record("svc", t, false);
        }
        r.reset();
        assert_eq!(r.state("svc", 3), BreakerState::Closed);
    }
}
