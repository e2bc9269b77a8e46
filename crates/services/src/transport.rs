//! Simulated transport: the registry of endpoints plus a seeded
//! latency/failure model on a *virtual clock*.
//!
//! Nothing sleeps. A call returns the response together with the
//! virtual milliseconds it "took"; the platform runtime accounts those
//! into its execution traces (Fig. 2 timings) and its parallel fan-out
//! math (`total = max(...)` instead of `sum(...)`). Determinism comes
//! from hashing a per-transport seed with each call's inputs.

use crate::fault::FaultPlan;
use crate::hash::{fnv1a, splitmix64, FNV_OFFSET};
use crate::message::{ServiceRequest, ServiceResponse};
use crate::service::{Service, ServiceFault};
use std::collections::BTreeMap;

/// Latency/failure behaviour of one endpoint.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Minimum latency in virtual ms.
    pub base_ms: u32,
    /// Uniform jitter added on top.
    pub jitter_ms: u32,
    /// Probability of a transport-level failure.
    pub failure_rate: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            base_ms: 40,
            jitter_ms: 60,
            failure_rate: 0.0,
        }
    }
}

impl LatencyModel {
    /// A fast, reliable local service.
    pub fn fast() -> Self {
        LatencyModel {
            base_ms: 5,
            jitter_ms: 5,
            failure_rate: 0.0,
        }
    }
}

/// Errors crossing the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No service registered at the endpoint.
    UnknownEndpoint(String),
    /// The simulated network dropped the call after `elapsed_ms`.
    TransportFailure {
        /// Virtual time burned by the failed attempt.
        elapsed_ms: u32,
    },
    /// The call exceeded the caller's timeout.
    Timeout {
        /// The timeout that was hit.
        timeout_ms: u32,
    },
    /// The service itself returned a fault.
    Fault(ServiceFault),
    /// The endpoint's circuit breaker is open: rejected without a
    /// network attempt (~0 virtual ms burned).
    CircuitOpen {
        /// Virtual ms until half-open probes will be admitted.
        retry_after_ms: u64,
    },
    /// The caller's deadline budget was exhausted before (or while)
    /// attempting the call.
    DeadlineCut {
        /// The budget that was exhausted.
        budget_ms: u32,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownEndpoint(e) => write!(f, "unknown endpoint: {e}"),
            ServiceError::TransportFailure { elapsed_ms } => {
                write!(f, "transport failure after {elapsed_ms}ms")
            }
            ServiceError::Timeout { timeout_ms } => write!(f, "timed out at {timeout_ms}ms"),
            ServiceError::Fault(fault) => write!(f, "{fault}"),
            ServiceError::CircuitOpen { retry_after_ms } => {
                write!(f, "circuit open: fast-fail, retry in {retry_after_ms}ms")
            }
            ServiceError::DeadlineCut { budget_ms } => {
                write!(f, "deadline cut: budget of {budget_ms}ms exhausted")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Successful call outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CallOutcome {
    /// The response.
    pub response: ServiceResponse,
    /// Virtual latency of this call.
    pub latency_ms: u32,
}

struct Endpoint {
    service: Box<dyn Service>,
    latency: LatencyModel,
    /// Operations priced differently from the endpoint as a whole
    /// (see [`SimulatedTransport::register_operation`]).
    operations: Vec<(String, LatencyModel)>,
}

impl Endpoint {
    /// The latency model `request` is priced under: its operation's
    /// own, when one was registered, else the endpoint's.
    fn latency_for(&self, request: &ServiceRequest) -> &LatencyModel {
        let operation = request.operation();
        self.operations
            .iter()
            .find(|(name, _)| name == operation)
            .map_or(&self.latency, |(_, model)| model)
    }
}

/// The endpoint registry + simulated network.
pub struct SimulatedTransport {
    endpoints: BTreeMap<String, Endpoint>,
    seed: u64,
    faults: FaultPlan,
}

impl std::fmt::Debug for SimulatedTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatedTransport")
            .field("endpoints", &self.endpoints.keys().collect::<Vec<_>>())
            .field("seed", &self.seed)
            .field("faults", &self.faults.windows().len())
            .finish()
    }
}

impl SimulatedTransport {
    /// Empty transport whose latency and failure draws hash `seed`.
    pub fn new(seed: u64) -> SimulatedTransport {
        SimulatedTransport {
            endpoints: BTreeMap::new(),
            seed,
            faults: FaultPlan::new(),
        }
    }

    /// Install a fault-injection plan (replacing any previous one).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Register a service at `endpoint` with a latency model.
    pub fn register(&mut self, endpoint: &str, service: Box<dyn Service>, latency: LatencyModel) {
        self.endpoints.insert(
            endpoint.to_string(),
            Endpoint {
                service,
                latency,
                operations: Vec::new(),
            },
        );
    }

    /// Price one operation of a registered endpoint under its own
    /// latency model: calls whose [`ServiceRequest::operation`] is
    /// `operation` draw base latency, jitter and failure rate from
    /// `model` instead of the endpoint's. Everything else stays per
    /// endpoint — the jitter hash, fault windows (outages, spikes and
    /// bursts compose on top of `model` exactly as they do on the
    /// endpoint's) and breaker keys. Registering the same operation
    /// again replaces its model.
    ///
    /// # Panics
    /// When nothing is registered at `endpoint`.
    pub fn register_operation(&mut self, endpoint: &str, operation: &str, model: LatencyModel) {
        let ep = self
            .endpoints
            .get_mut(endpoint)
            .expect("an operation is priced on a registered endpoint");
        ep.operations.retain(|(name, _)| name != operation);
        ep.operations.push((operation.to_string(), model));
    }

    /// Make one call at virtual time `now_ms`, attempt number
    /// `attempt` (0 = first try; retries and hedges use distinct
    /// tags so they draw independent latencies).
    ///
    /// Latency and failure derive from a pure hash of `(seed, endpoint,
    /// request, now_ms, attempt)`, not from a shared RNG stream whose
    /// draws would depend on the global order of calls. Concurrent
    /// fan-out workers get identical outcomes regardless of thread
    /// scheduling — the property the chaos suite's exact assertions
    /// rest on. The installed [`FaultPlan`] composes on top: outages
    /// hang the call (the caller's timeout converts that into a
    /// charged timeout), spikes and ramps add latency, bursts raise
    /// the failure probability.
    pub(crate) fn call_at(
        &self,
        endpoint: &str,
        request: &ServiceRequest,
        now_ms: u64,
        attempt: u32,
    ) -> Result<CallOutcome, ServiceError> {
        let ep = self
            .endpoints
            .get(endpoint)
            .ok_or_else(|| ServiceError::UnknownEndpoint(endpoint.to_string()))?;
        let active = self.faults.active(endpoint, now_ms);
        if active.outage {
            // The connection hangs forever; the client charges its
            // timeout. `u32::MAX` marks "never completed".
            return Err(ServiceError::TransportFailure {
                elapsed_ms: u32::MAX,
            });
        }
        let mut h = splitmix64(self.seed ^ 0x53_59_4D_50_48_4F_4E_59); // "SYMPHONY"
        for b in endpoint.bytes() {
            h = splitmix64(h ^ b as u64);
        }
        h = splitmix64(h ^ request_fingerprint(request));
        h = splitmix64(h ^ now_ms);
        h = splitmix64(h ^ attempt as u64);
        let model = ep.latency_for(request);
        let jitter = if model.jitter_ms > 0 {
            (h % (model.jitter_ms as u64 + 1)) as u32
        } else {
            0
        };
        let latency_ms = model
            .base_ms
            .saturating_add(jitter)
            .saturating_add(active.add_ms);
        let failure_rate = model.failure_rate.max(active.failure_rate).min(1.0);
        let failed = failure_rate > 0.0 && {
            let draw = splitmix64(h) as f64 / u64::MAX as f64;
            draw < failure_rate
        };
        if failed {
            return Err(ServiceError::TransportFailure {
                elapsed_ms: latency_ms,
            });
        }
        let response = ep.service.handle(request).map_err(ServiceError::Fault)?;
        Ok(CallOutcome {
            response,
            latency_ms,
        })
    }
}

fn request_fingerprint(request: &ServiceRequest) -> u64 {
    let mut h = FNV_OFFSET;
    // Each string ends with a 0xFF byte, so ("ab", "c") and ("a", "bc")
    // differ.
    let mut eat = |s: &str| h = fnv1a(fnv1a(h, s.as_bytes()), &[0xFF]);
    match request {
        ServiceRequest::Rest(r) => {
            eat(&r.path);
            for (k, v) in &r.params {
                eat(k);
                eat(v);
            }
        }
        ServiceRequest::Soap(s) => {
            eat(&s.operation);
            for (k, v) in &s.args {
                eat(k);
                eat(v);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{OperationDesc, Protocol, ServiceDescription};

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
        fn handle(&self, _request: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
            Ok(ServiceResponse::single(&[("v", "1")]))
        }
    }

    fn transport(failure_rate: f64) -> SimulatedTransport {
        let mut t = SimulatedTransport::new(9);
        t.register(
            "svc",
            Box::new(Fixed),
            LatencyModel {
                base_ms: 10,
                jitter_ms: 20,
                failure_rate,
            },
        );
        t
    }

    #[test]
    fn call_returns_latency_in_model_range() {
        let t = transport(0.0);
        let req = ServiceRequest::get("/v", &[]);
        for attempt in 0..50 {
            let out = t.call_at("svc", &req, 0, attempt).unwrap();
            assert!((10..=30).contains(&out.latency_ms), "{}", out.latency_ms);
        }
    }

    #[test]
    fn unknown_endpoint() {
        let t = transport(0.0);
        assert_eq!(
            t.call_at("nope", &ServiceRequest::get("/v", &[]), 0, 0)
                .unwrap_err(),
            ServiceError::UnknownEndpoint("nope".into())
        );
    }

    #[test]
    fn failures_happen_at_configured_rate() {
        let t = transport(0.5);
        let req = ServiceRequest::get("/v", &[]);
        let failures = (0..200)
            .filter(|&attempt| t.call_at("svc", &req, 0, attempt).is_err())
            .count();
        assert!((60..=140).contains(&failures), "failures = {failures}");
    }

    #[test]
    fn deterministic_per_seed() {
        let seq = |seed| {
            let mut t = SimulatedTransport::new(seed);
            t.register("svc", Box::new(Fixed), LatencyModel::default());
            let req = ServiceRequest::get("/v", &[]);
            (0..10)
                .map(|i| {
                    t.call_at("svc", &req, i * 10, 0)
                        .map_or(0, |o| o.latency_ms)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(5), seq(5));
        assert_ne!(seq(5), seq(6));
    }

    #[test]
    fn describe_endpoint() {
        let t = transport(0.0);
        assert_eq!(t.endpoints["svc"].service.describe().name, "Fixed");
        assert!(!t.endpoints.contains_key("nope"));
        assert!(t.endpoints.keys().eq(["svc"]));
    }

    #[test]
    fn error_display() {
        assert!(ServiceError::Timeout { timeout_ms: 100 }
            .to_string()
            .contains("100"));
        assert!(ServiceError::TransportFailure { elapsed_ms: 7 }
            .to_string()
            .contains("7"));
        assert!(ServiceError::CircuitOpen {
            retry_after_ms: 250
        }
        .to_string()
        .contains("circuit open"));
        assert!(ServiceError::DeadlineCut { budget_ms: 40 }
            .to_string()
            .contains("deadline cut"));
    }

    #[test]
    fn call_at_is_a_pure_function_of_its_inputs() {
        let t = transport(0.0);
        let req = ServiceRequest::get("/v", &[]);
        let a = t.call_at("svc", &req, 100, 0).unwrap().latency_ms;
        // Same inputs, same draw — order and repetition don't matter.
        for _ in 0..5 {
            assert_eq!(t.call_at("svc", &req, 100, 0).unwrap().latency_ms, a);
        }
        assert!((10..=30).contains(&a));
        // Different time, attempt, or request can change the draw.
        let over_time: Vec<u32> = (0..50)
            .map(|i| t.call_at("svc", &req, i * 13, 0).unwrap().latency_ms)
            .collect();
        assert!(
            over_time.iter().any(|&l| l != a),
            "draws never varied over time"
        );
        assert!(over_time.iter().all(|l| (10..=30).contains(l)));
    }

    #[test]
    fn call_at_failure_rate_is_respected_across_time() {
        let t = transport(0.5);
        let req = ServiceRequest::get("/v", &[]);
        let failures = (0..200)
            .filter(|&i| t.call_at("svc", &req, i * 7, 0).is_err())
            .count();
        assert!((60..=140).contains(&failures), "failures = {failures}");
    }

    #[test]
    fn outage_window_hangs_calls_only_inside_it() {
        let mut t = transport(0.0);
        t.set_fault_plan(FaultPlan::new().outage("svc", 1_000, 2_000));
        let req = ServiceRequest::get("/v", &[]);
        assert!(t.call_at("svc", &req, 999, 0).is_ok());
        assert_eq!(
            t.call_at("svc", &req, 1_000, 0).unwrap_err(),
            ServiceError::TransportFailure {
                elapsed_ms: u32::MAX
            }
        );
        assert!(t.call_at("svc", &req, 2_000, 0).is_ok());
    }

    #[test]
    fn latency_spike_adds_on_top_of_the_model() {
        let mut t = transport(0.0);
        t.set_fault_plan(FaultPlan::new().latency_spike("svc", 500, 600, 300));
        let req = ServiceRequest::get("/v", &[]);
        let calm = t.call_at("svc", &req, 400, 0).unwrap().latency_ms;
        let spiked = t.call_at("svc", &req, 550, 0).unwrap().latency_ms;
        assert!((10..=30).contains(&calm));
        assert!((310..=330).contains(&spiked), "spiked = {spiked}");
    }

    #[test]
    fn operation_model_overrides_base_latency_only() {
        let mut t = transport(0.0);
        let cheap = LatencyModel {
            base_ms: 2,
            jitter_ms: 0,
            failure_rate: 0.0,
        };
        t.register_operation("svc", "/cheap", cheap.clone());
        t.set_fault_plan(
            FaultPlan::new()
                .outage("svc", 1_000, 2_000)
                .latency_spike("svc", 3_000, 4_000, 300)
                .fault_burst("svc", 5_000, 6_000, 1.0),
        );
        let cheap_req = ServiceRequest::get("/cheap", &[]);
        let other_req = ServiceRequest::get("/v", &[]);
        // The operation is priced by its own model; every other
        // operation keeps the endpoint's.
        assert_eq!(t.call_at("svc", &cheap_req, 0, 0).unwrap().latency_ms, 2);
        assert!((10..=30).contains(&t.call_at("svc", &other_req, 0, 0).unwrap().latency_ms));
        // Fault windows are per endpoint and still apply to it.
        assert_eq!(
            t.call_at("svc", &cheap_req, 1_500, 0).unwrap_err(),
            ServiceError::TransportFailure {
                elapsed_ms: u32::MAX
            }
        );
        assert_eq!(
            t.call_at("svc", &cheap_req, 3_500, 0).unwrap().latency_ms,
            302
        );
        assert_eq!(
            t.call_at("svc", &cheap_req, 5_500, 0).unwrap_err(),
            ServiceError::TransportFailure { elapsed_ms: 2 }
        );
        // Registering the operation again replaces its model.
        t.register_operation(
            "svc",
            "/cheap",
            LatencyModel {
                base_ms: 7,
                ..cheap
            },
        );
        assert_eq!(t.call_at("svc", &cheap_req, 0, 0).unwrap().latency_ms, 7);
    }

    #[test]
    fn fault_burst_raises_failure_rate_inside_window() {
        let mut t = transport(0.0);
        t.set_fault_plan(FaultPlan::new().fault_burst("svc", 0, 1_000, 1.0));
        let req = ServiceRequest::get("/v", &[]);
        assert!(t.call_at("svc", &req, 500, 0).is_err());
        assert!(t.call_at("svc", &req, 1_500, 0).is_ok());
    }
}
