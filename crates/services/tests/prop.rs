//! Property tests for the service substrate: virtual-time accounting
//! invariants under arbitrary latency/failure/policy combinations.

use proptest::prelude::*;
use symphony_services::{
    CallPolicy, LatencyModel, OperationDesc, PricingService, Protocol, ResilienceContext, Service,
    ServiceClient, ServiceError, ServiceFault, ServiceRequest, ServiceResponse, SimulatedTransport,
};

struct Echo;
impl Service for Echo {
    fn describe(&self) -> symphony_services::ServiceDescription {
        symphony_services::ServiceDescription {
            name: "Echo".into(),
            protocol: Protocol::Rest,
            operations: vec![OperationDesc {
                name: "/echo".into(),
                params: vec!["q".into()],
                returns: vec!["echo".into()],
            }],
        }
    }
    fn handle(&self, request: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
        Ok(ServiceResponse::single(&[(
            "echo",
            request.param("q").unwrap_or(""),
        )]))
    }
}

proptest! {
    /// Success latency is bounded by `attempts * timeout` and at least
    /// the base latency; the response is always intact.
    #[test]
    fn latency_accounting_bounds(
        base in 1u32..200,
        jitter in 0u32..100,
        failure in 0.0f64..0.9,
        timeout in 50u32..400,
        retries in 0u32..4,
        seed in 0u64..1000,
        now in 0u64..100_000,
    ) {
        let mut t = SimulatedTransport::new(seed);
        t.register(
            "svc",
            Box::new(Echo),
            LatencyModel { base_ms: base, jitter_ms: jitter, failure_rate: failure },
        );
        let client = ServiceClient::with_policy(
            &t,
            CallPolicy { timeout_ms: timeout, retries, ..CallPolicy::default() },
        );
        let attempts_allowed = retries + 1;
        let request = ServiceRequest::get("/echo", &[("q", "hello")]);
        match client.call_resilient("svc", &request, &ResilienceContext::at(now)) {
            Ok(out) => {
                prop_assert_eq!(out.response.first_field("echo"), Some("hello"));
                prop_assert!(out.attempts >= 1 && out.attempts <= attempts_allowed);
                prop_assert!(out.total_latency_ms >= base.min(timeout));
                prop_assert!(
                    out.total_latency_ms <= attempts_allowed * timeout.max(base + jitter),
                    "latency {} over bound",
                    out.total_latency_ms
                );
            }
            Err((err, burned)) => {
                // Failures only ever burn up to attempts * timeout.
                prop_assert!(burned <= attempts_allowed * timeout);
                let retryable = matches!(
                    err,
                    ServiceError::TransportFailure { .. } | ServiceError::Timeout { .. }
                );
                prop_assert!(retryable, "unexpected error kind");
            }
        }
    }

    /// With zero failure rate and a generous timeout, the first
    /// attempt always succeeds and latency is within the model range.
    #[test]
    fn reliable_service_one_attempt(
        base in 1u32..100,
        jitter in 0u32..50,
        seed in 0u64..100,
        now in 0u64..100_000,
    ) {
        let mut t = SimulatedTransport::new(seed);
        t.register(
            "svc",
            Box::new(Echo),
            LatencyModel { base_ms: base, jitter_ms: jitter, failure_rate: 0.0 },
        );
        let client = ServiceClient::with_policy(
            &t,
            CallPolicy { timeout_ms: base + jitter + 1, retries: 3, ..CallPolicy::default() },
        );
        let out = client
            .call_resilient(
                "svc",
                &ServiceRequest::get("/echo", &[("q", "x")]),
                &ResilienceContext::at(now),
            )
            .expect("reliable service");
        prop_assert_eq!(out.attempts, 1);
        prop_assert!((base..=base + jitter).contains(&out.total_latency_ms));
    }

    /// Transport determinism: the same seed yields the same latency for
    /// each call regardless of when the transport was built or in which
    /// order the calls are made.
    #[test]
    fn transport_deterministic(seed in 0u64..5000, now in 0u64..100_000) {
        let run = |order: &[u64]| {
            let mut t = SimulatedTransport::new(seed);
            t.register("p", Box::new(PricingService), LatencyModel::default());
            let c = ServiceClient::with_policy(&t, CallPolicy::default());
            let mut out = order
                .iter()
                .map(|&i| {
                    let item = format!("g{i}");
                    let request = ServiceRequest::get("/price", &[("item", item.as_str())]);
                    let outcome = c
                        .call_resilient("p", &request, &ResilienceContext::at(now + i))
                        .map(|o| o.total_latency_ms)
                        .map_err(|(e, _)| e.to_string());
                    (i, outcome)
                })
                .collect::<Vec<_>>();
            out.sort();
            out
        };
        prop_assert_eq!(run(&[0, 1, 2, 3, 4, 5]), run(&[5, 4, 3, 2, 1, 0]));
    }
}
