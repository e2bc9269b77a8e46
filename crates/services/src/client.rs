//! Service client with timeout, retry, backoff, and hedging policy.
//!
//! The platform runtime never calls the transport directly; it goes
//! through a client so per-source timeout/retry behaviour is uniform
//! and the virtual time spent (including failed attempts, backoff
//! waits, and hedged duplicates) is accounted.
//!
//! There is one call path, [`ServiceClient::call_resilient`], on the
//! virtual clock: deterministic draws keyed on `(now, attempt)`,
//! exponential backoff with jitter, optional hedged requests, a
//! deadline budget, and an optional circuit breaker consulted before
//! the wire is touched.

use crate::breaker::{Admission, BreakerRegistry};
use crate::hash::splitmix64;
use crate::message::{ServiceRequest, ServiceResponse};
use crate::transport::{ServiceError, SimulatedTransport};

/// Retry/timeout/backoff/hedging policy.
#[derive(Debug, Clone, Copy)]
pub struct CallPolicy {
    /// Per-attempt timeout in virtual ms.
    pub timeout_ms: u32,
    /// Retries after the first attempt (0 = single attempt).
    pub retries: u32,
    /// Base backoff before the first retry, doubled per further retry
    /// (0 = retry immediately). The wait is charged into
    /// `total_latency_ms` — backoff is time the end user spends
    /// waiting, not a free pause.
    pub backoff_base_ms: u32,
    /// Cap on a single backoff wait.
    pub backoff_cap_ms: u32,
    /// Launch a hedged duplicate if an attempt has not completed
    /// after this many virtual ms; the attempt then costs the *min*
    /// of the two completions (parallel semantics). `None` disables
    /// hedging.
    pub hedge_after_ms: Option<u32>,
}

impl Default for CallPolicy {
    fn default() -> Self {
        CallPolicy {
            timeout_ms: 500,
            retries: 1,
            backoff_base_ms: 0,
            backoff_cap_ms: 2_000,
            hedge_after_ms: None,
        }
    }
}

impl CallPolicy {
    /// Deterministic jittered backoff before retry attempt `attempt`
    /// (2 = first retry), seeded by the virtual time so different
    /// queries spread out instead of retrying in lockstep.
    fn backoff_before_ms(&self, attempt: u32, now_ms: u64) -> u32 {
        if self.backoff_base_ms == 0 || attempt < 2 {
            return 0;
        }
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u32 << (attempt - 2).min(16))
            .min(self.backoff_cap_ms);
        // Full jitter in [exp/2, exp].
        let half = exp / 2;
        let jitter = splitmix64(now_ms ^ (attempt as u64) << 32) % (half as u64 + 1);
        half + jitter as u32
    }
}

/// Everything the resilient call path needs from its caller: the
/// virtual clock, the remaining deadline budget, a cap on retries
/// (the per-query retry budget), and the shared breaker registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilienceContext<'a> {
    /// Virtual time at which the call starts.
    pub now_ms: u64,
    /// Budget in virtual ms for the whole call, all attempts and
    /// backoffs included (`None` = unlimited).
    pub budget_ms: Option<u32>,
    /// Cap on retries, from the per-query retry budget (`None` =
    /// policy decides alone).
    pub max_retries: Option<u32>,
    /// Circuit-breaker registry consulted before calling and fed with
    /// per-attempt results.
    pub breakers: Option<&'a BreakerRegistry>,
}

impl<'a> ResilienceContext<'a> {
    /// Context at a virtual time with no budget, retry cap, or breaker.
    pub fn at(now_ms: u64) -> Self {
        ResilienceContext {
            now_ms,
            ..Default::default()
        }
    }
}

/// Result of a (possibly retried) call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOutcome {
    /// Final response.
    pub response: ServiceResponse,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Total virtual time across attempts, failed ones included.
    pub total_latency_ms: u32,
}

/// A thin, policy-carrying client over a transport.
#[derive(Debug, Clone, Copy)]
pub struct ServiceClient<'a> {
    transport: &'a SimulatedTransport,
    policy: CallPolicy,
}

impl<'a> ServiceClient<'a> {
    /// Client with an explicit policy.
    pub fn with_policy(transport: &'a SimulatedTransport, policy: CallPolicy) -> Self {
        ServiceClient { transport, policy }
    }

    /// Call `endpoint` on the virtual clock with the full resilience
    /// stack: circuit breaker, deadline budget, per-attempt timeout,
    /// jittered exponential backoff, and hedged requests.
    ///
    /// Every virtual millisecond the caller ends up waiting — failed
    /// attempts, backoff pauses, the winning side of a hedge — is
    /// charged into the returned total, and never more than the
    /// context's budget.
    pub fn call_resilient(
        &self,
        endpoint: &str,
        request: &ServiceRequest,
        ctx: &ResilienceContext<'_>,
    ) -> Result<ClientOutcome, (ServiceError, u32)> {
        if let Some(breakers) = ctx.breakers {
            if let Admission::FastFail { retry_after_ms } = breakers.admit(endpoint, ctx.now_ms) {
                return Err((ServiceError::CircuitOpen { retry_after_ms }, 0));
            }
        }
        let budget = ctx.budget_ms.unwrap_or(u32::MAX);
        let retries = self.policy.retries.min(ctx.max_retries.unwrap_or(u32::MAX));
        let mut total = 0u32;
        let mut last_err = ServiceError::DeadlineCut { budget_ms: budget };
        for attempt in 1..=retries + 1 {
            // Backoff (charged) before every retry.
            let wait = self
                .policy
                .backoff_before_ms(attempt, ctx.now_ms + total as u64);
            total = total.saturating_add(wait).min(budget);
            let remaining = budget - total;
            let effective_timeout = self.policy.timeout_ms.min(remaining);
            if effective_timeout == 0 {
                last_err = ServiceError::DeadlineCut { budget_ms: budget };
                break;
            }
            let start = ctx.now_ms + total as u64;
            match self.attempt_at(endpoint, request, start, attempt, effective_timeout) {
                AttemptResult::Success { response, cost_ms } => {
                    if let Some(breakers) = ctx.breakers {
                        breakers.record(endpoint, start + cost_ms as u64, true);
                    }
                    return Ok(ClientOutcome {
                        response,
                        attempts: attempt,
                        total_latency_ms: total + cost_ms,
                    });
                }
                AttemptResult::Retryable { err, cost_ms } => {
                    if let Some(breakers) = ctx.breakers {
                        breakers.record(endpoint, start + cost_ms as u64, false);
                    }
                    total += cost_ms;
                    last_err = err;
                }
                AttemptResult::Fatal {
                    err,
                    record_breaker,
                } => {
                    if record_breaker {
                        if let Some(breakers) = ctx.breakers {
                            breakers.record(endpoint, start, false);
                        }
                    }
                    return Err((err, total));
                }
            }
        }
        Err((last_err, total))
    }

    /// One (possibly hedged) attempt starting at virtual time `start`.
    fn attempt_at(
        &self,
        endpoint: &str,
        request: &ServiceRequest,
        start: u64,
        attempt: u32,
        timeout_ms: u32,
    ) -> AttemptResult {
        // Retries and hedges draw independent latencies: tag the
        // primary side of attempt n as 2(n-1), its hedge as 2(n-1)+1.
        let tag = (attempt - 1) * 2;
        let first = match self.transport.call_at(endpoint, request, start, tag) {
            Err(err @ ServiceError::UnknownEndpoint(_)) => {
                return AttemptResult::Fatal {
                    err,
                    record_breaker: false,
                }
            }
            Err(err @ ServiceError::Fault(_)) => {
                return AttemptResult::Fatal {
                    err,
                    record_breaker: true,
                }
            }
            Ok(out) => (out.latency_ms, Some(out.response)),
            Err(ServiceError::TransportFailure { elapsed_ms }) => (elapsed_ms, None),
            // The transport never raises the remaining variants.
            Err(err) => {
                return AttemptResult::Fatal {
                    err,
                    record_breaker: false,
                }
            }
        };
        let first_time = first.0;
        let first_ok = first.1.is_some();
        let mut candidates = vec![first];
        if let Some(hedge_ms) = self.policy.hedge_after_ms {
            let first_done = first_ok && first_time <= hedge_ms;
            if hedge_ms < timeout_ms && !first_done {
                match self
                    .transport
                    .call_at(endpoint, request, start + hedge_ms as u64, tag + 1)
                {
                    Ok(out) => candidates
                        .push((hedge_ms.saturating_add(out.latency_ms), Some(out.response))),
                    Err(ServiceError::TransportFailure { elapsed_ms }) => {
                        candidates.push((hedge_ms.saturating_add(elapsed_ms), None))
                    }
                    // A fault from the hedge is a completion of the
                    // duplicate, not of the attempt; ignore it and let
                    // the primary side decide.
                    Err(_) => {}
                }
            }
        }
        // Earliest success inside the timeout wins (parallel
        // semantics: the caller hangs up on the loser).
        let winner = candidates
            .iter()
            .enumerate()
            .filter(|(_, (t, r))| r.is_some() && *t <= timeout_ms)
            .min_by_key(|(_, (t, _))| *t)
            .map(|(i, _)| i);
        if let Some(i) = winner {
            let (t, response) = candidates.swap_remove(i);
            return AttemptResult::Success {
                response: response.expect("filtered on is_some"),
                cost_ms: t,
            };
        }
        // No success in time. If every side failed within the timeout
        // the caller knows at the latest failure; otherwise it waits
        // out the timeout.
        let latest = candidates.iter().map(|(t, _)| *t).max().unwrap_or(0);
        if candidates.iter().all(|(_, r)| r.is_none()) && latest <= timeout_ms {
            AttemptResult::Retryable {
                err: ServiceError::TransportFailure { elapsed_ms: latest },
                cost_ms: latest,
            }
        } else {
            AttemptResult::Retryable {
                err: ServiceError::Timeout { timeout_ms },
                cost_ms: timeout_ms,
            }
        }
    }
}

enum AttemptResult {
    Success {
        response: ServiceResponse,
        cost_ms: u32,
    },
    Retryable {
        err: ServiceError,
        cost_ms: u32,
    },
    Fatal {
        err: ServiceError,
        record_breaker: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ServiceResponse;
    use crate::service::{OperationDesc, Protocol, Service, ServiceDescription, ServiceFault};
    use crate::transport::LatencyModel;

    struct Fixed;
    impl Service for Fixed {
        fn describe(&self) -> ServiceDescription {
            ServiceDescription {
                name: "Fixed".into(),
                protocol: Protocol::Rest,
                operations: vec![OperationDesc {
                    name: "/v".into(),
                    params: vec![],
                    returns: vec!["v".into()],
                }],
            }
        }
        fn handle(&self, req: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
            if req.param("fail").is_some() {
                return Err(ServiceFault {
                    code: 500,
                    message: "boom".into(),
                });
            }
            Ok(ServiceResponse::single(&[("v", "1")]))
        }
    }

    fn transport(latency: LatencyModel) -> SimulatedTransport {
        let mut t = SimulatedTransport::new(3);
        t.register("svc", Box::new(Fixed), latency);
        t
    }

    /// `GET /v` with `params` at virtual time `now_ms`, with no budget,
    /// retry cap or breaker.
    fn get_at(
        c: &ServiceClient<'_>,
        endpoint: &str,
        params: &[(&str, &str)],
        now_ms: u64,
    ) -> Result<ClientOutcome, (ServiceError, u32)> {
        c.call_resilient(
            endpoint,
            &ServiceRequest::get("/v", params),
            &ResilienceContext::at(now_ms),
        )
    }

    #[test]
    fn successful_call_single_attempt() {
        let t = transport(LatencyModel::fast());
        let c = ServiceClient::with_policy(&t, CallPolicy::default());
        let out = get_at(&c, "svc", &[], 0).unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.response.first_field("v"), Some("1"));
        assert!(out.total_latency_ms <= 10);
    }

    #[test]
    fn retries_recover_from_transport_failures() {
        let t = transport(LatencyModel {
            base_ms: 10,
            jitter_ms: 0,
            failure_rate: 0.5,
        });
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                timeout_ms: 100,
                retries: 5,
                ..CallPolicy::default()
            },
        );
        let mut recovered_with_retry = false;
        for i in 0..50 {
            if let Ok(out) = get_at(&c, "svc", &[], i * 1_000) {
                if out.attempts > 1 {
                    // Failed attempts must be charged.
                    assert!(out.total_latency_ms >= out.attempts * 10);
                    recovered_with_retry = true;
                }
            }
        }
        assert!(recovered_with_retry);
    }

    #[test]
    fn timeout_when_latency_exceeds_budget() {
        let t = transport(LatencyModel {
            base_ms: 300,
            jitter_ms: 0,
            failure_rate: 0.0,
        });
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                timeout_ms: 100,
                retries: 1,
                ..CallPolicy::default()
            },
        );
        let (err, burned) = get_at(&c, "svc", &[], 0).unwrap_err();
        assert_eq!(err, ServiceError::Timeout { timeout_ms: 100 });
        // Two attempts, each hung up at 100ms.
        assert_eq!(burned, 200);
    }

    #[test]
    fn faults_are_not_retried() {
        let t = transport(LatencyModel::fast());
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                timeout_ms: 100,
                retries: 5,
                ..CallPolicy::default()
            },
        );
        let (err, burned) = get_at(&c, "svc", &[("fail", "1")], 0).unwrap_err();
        assert!(matches!(err, ServiceError::Fault(f) if f.code == 500));
        assert_eq!(burned, 0);
    }

    #[test]
    fn unknown_endpoint_not_retried() {
        let t = transport(LatencyModel::fast());
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                retries: 5,
                ..CallPolicy::default()
            },
        );
        let breakers = BreakerRegistry::new(BreakerConfig {
            failure_threshold: 1,
            open_ms: 1_000,
            half_open_successes: 1,
        });
        let ctx = ResilienceContext {
            breakers: Some(&breakers),
            ..ResilienceContext::at(0)
        };
        let (err, burned) = c
            .call_resilient("nope", &ServiceRequest::get("/v", &[]), &ctx)
            .unwrap_err();
        assert!(matches!(err, ServiceError::UnknownEndpoint(_)));
        assert_eq!(burned, 0);
        // A misconfigured endpoint is the caller's error, not the
        // endpoint's failure: the breaker does not count it.
        assert_eq!(breakers.state("nope", 0), BreakerState::Closed);
    }

    // --- resilient path ---

    use crate::breaker::{BreakerConfig, BreakerRegistry, BreakerState};
    use crate::fault::FaultPlan;

    fn exact(base_ms: u32, failure_rate: f64) -> LatencyModel {
        LatencyModel {
            base_ms,
            jitter_ms: 0,
            failure_rate,
        }
    }

    #[test]
    fn resilient_success_costs_the_drawn_latency() {
        let t = transport(exact(10, 0.0));
        let c = ServiceClient::with_policy(&t, CallPolicy::default());
        let out = c
            .call_resilient(
                "svc",
                &ServiceRequest::get("/v", &[]),
                &ResilienceContext::at(0),
            )
            .unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.total_latency_ms, 10);
        assert_eq!(out.response.first_field("v"), Some("1"));
    }

    #[test]
    fn backoff_waits_are_charged_between_retries() {
        let t = transport(exact(10, 1.0));
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                timeout_ms: 50,
                retries: 2,
                backoff_base_ms: 100,
                backoff_cap_ms: 1_000,
                hedge_after_ms: None,
            },
        );
        let (err, burned) = c
            .call_resilient(
                "svc",
                &ServiceRequest::get("/v", &[]),
                &ResilienceContext::at(0),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::TransportFailure { .. }));
        // 3 failed attempts at 10ms each, plus jittered waits in
        // [50,100] and [100,200] before the retries.
        assert!((180..=330).contains(&burned), "burned = {burned}");
    }

    #[test]
    fn hedge_does_not_inflate_a_winning_primary() {
        let t = transport(exact(200, 0.0));
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                timeout_ms: 500,
                retries: 0,
                hedge_after_ms: Some(50),
                ..CallPolicy::default()
            },
        );
        let out = c
            .call_resilient(
                "svc",
                &ServiceRequest::get("/v", &[]),
                &ResilienceContext::at(0),
            )
            .unwrap();
        // Primary completes at 200, hedge would complete at 250: min wins.
        assert_eq!(out.total_latency_ms, 200);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn hedge_wins_when_the_primary_is_spiked() {
        let mut t = SimulatedTransport::new(3);
        t.register("svc", Box::new(Fixed), exact(200, 0.0));
        // Spike covers only the primary's launch instant; the hedge
        // launched at t=50 draws from the calm model.
        t.set_fault_plan(FaultPlan::new().latency_spike("svc", 0, 50, 400));
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                timeout_ms: 500,
                retries: 0,
                hedge_after_ms: Some(50),
                ..CallPolicy::default()
            },
        );
        let out = c
            .call_resilient(
                "svc",
                &ServiceRequest::get("/v", &[]),
                &ResilienceContext::at(0),
            )
            .unwrap();
        // Primary at 600 would blow the timeout; hedge finishes at 50+200.
        assert_eq!(out.total_latency_ms, 250);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn breaker_fast_fails_after_tripping() {
        let t = transport(exact(10, 1.0));
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                timeout_ms: 100,
                retries: 0,
                ..CallPolicy::default()
            },
        );
        let breakers = BreakerRegistry::new(BreakerConfig {
            failure_threshold: 1,
            open_ms: 1_000,
            half_open_successes: 1,
        });
        let ctx = ResilienceContext {
            now_ms: 0,
            breakers: Some(&breakers),
            ..Default::default()
        };
        let (err, burned) = c
            .call_resilient("svc", &ServiceRequest::get("/v", &[]), &ctx)
            .unwrap_err();
        assert!(matches!(err, ServiceError::TransportFailure { .. }));
        assert_eq!(burned, 10);
        // The failure tripped the breaker: the next call is rejected
        // without touching the wire, burning ~0 virtual ms.
        let ctx2 = ResilienceContext {
            now_ms: 20,
            breakers: Some(&breakers),
            ..Default::default()
        };
        let (err2, burned2) = c
            .call_resilient("svc", &ServiceRequest::get("/v", &[]), &ctx2)
            .unwrap_err();
        assert_eq!(
            err2,
            ServiceError::CircuitOpen {
                retry_after_ms: 990
            }
        );
        assert_eq!(burned2, 0);
    }

    #[test]
    fn budget_caps_attempt_timeouts_and_cuts_retries() {
        let t = transport(exact(200, 0.0));
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                timeout_ms: 100,
                retries: 1,
                ..CallPolicy::default()
            },
        );
        let ctx = ResilienceContext {
            now_ms: 0,
            budget_ms: Some(30),
            ..Default::default()
        };
        let (err, burned) = c
            .call_resilient("svc", &ServiceRequest::get("/v", &[]), &ctx)
            .unwrap_err();
        // The single affordable attempt times out at the 30ms budget;
        // the retry is cut because nothing remains.
        assert_eq!(err, ServiceError::DeadlineCut { budget_ms: 30 });
        assert_eq!(burned, 30);
    }

    #[test]
    fn zero_budget_is_cut_before_the_wire() {
        let t = transport(exact(10, 0.0));
        let c = ServiceClient::with_policy(&t, CallPolicy::default());
        let ctx = ResilienceContext {
            now_ms: 0,
            budget_ms: Some(0),
            ..Default::default()
        };
        let (err, burned) = c
            .call_resilient("svc", &ServiceRequest::get("/v", &[]), &ctx)
            .unwrap_err();
        assert_eq!(err, ServiceError::DeadlineCut { budget_ms: 0 });
        assert_eq!(burned, 0);
    }

    #[test]
    fn retry_budget_caps_policy_retries() {
        let t = transport(exact(10, 1.0));
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                timeout_ms: 100,
                retries: 5,
                ..CallPolicy::default()
            },
        );
        let ctx = ResilienceContext {
            now_ms: 0,
            max_retries: Some(0),
            ..Default::default()
        };
        let (_, burned) = c
            .call_resilient("svc", &ServiceRequest::get("/v", &[]), &ctx)
            .unwrap_err();
        // One attempt only, despite the policy allowing six.
        assert_eq!(burned, 10);
    }

    #[test]
    fn resilient_unknown_endpoint_is_fatal_and_free() {
        let t = transport(LatencyModel::fast());
        let c = ServiceClient::with_policy(&t, CallPolicy::default());
        let (err, burned) = c
            .call_resilient(
                "nope",
                &ServiceRequest::get("/v", &[]),
                &ResilienceContext::at(0),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::UnknownEndpoint(_)));
        assert_eq!(burned, 0);
    }

    #[test]
    fn outage_burns_the_timeout_per_attempt_without_a_breaker() {
        let mut t = SimulatedTransport::new(3);
        t.register("svc", Box::new(Fixed), exact(10, 0.0));
        t.set_fault_plan(FaultPlan::new().outage("svc", 0, 10_000));
        let c = ServiceClient::with_policy(
            &t,
            CallPolicy {
                timeout_ms: 150,
                retries: 1,
                ..CallPolicy::default()
            },
        );
        let (err, burned) = c
            .call_resilient(
                "svc",
                &ServiceRequest::get("/v", &[]),
                &ResilienceContext::at(0),
            )
            .unwrap_err();
        assert_eq!(err, ServiceError::Timeout { timeout_ms: 150 });
        assert_eq!(burned, 300);
    }
}
