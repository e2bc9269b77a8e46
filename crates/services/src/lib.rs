//! # symphony-services
//!
//! SOAP/REST web-service simulation substrate (paper §II-A: *"Symphony
//! also supports dynamic data accessed through SOAP and REST-based web
//! services"*). Services run behind a seeded virtual-clock transport —
//! latency, jitter, failures, and timeouts are all simulated
//! deterministically and *accounted in virtual milliseconds*, never
//! slept.
//!
//! * `message` — protocol-tagged requests, record-set responses.
//! * `service` — the [`Service`] trait and self-descriptions.
//! * `transport` — endpoint registry + latency/failure model.
//! * `client` — timeout/retry/backoff/hedging policy wrapper, with
//!   one call path on the virtual clock.
//! * `breaker` — per-endpoint circuit breakers on the virtual clock.
//! * `fault` — deterministic fault injection scheduled in virtual time.
//! * `builtin` — the pricing / in-stock / blurb services the paper's
//!   GamerQueen scenario plugs in.
//!
//! ## Quick example
//!
//! ```
//! use symphony_services::{
//!     CallPolicy, LatencyModel, PricingService, ResilienceContext, ServiceClient,
//!     ServiceRequest, SimulatedTransport,
//! };
//!
//! let mut transport = SimulatedTransport::new(42);
//! transport.register("pricing", Box::new(PricingService), LatencyModel::fast());
//! let client = ServiceClient::with_policy(&transport, CallPolicy::default());
//! let request = ServiceRequest::get("/price", &[("item", "Galactic Raiders")]);
//! let out = client
//!     .call_resilient("pricing", &request, &ResilienceContext::at(0))
//!     .unwrap();
//! assert_eq!(out.response.first_field("currency"), Some("USD"));
//! ```

#![warn(missing_docs)]

mod breaker;
mod builtin;
mod client;
mod fault;
pub mod hash;
mod message;
pub mod rpc;
mod service;
mod transport;

pub use breaker::{BreakerConfig, BreakerRegistry, BreakerState};
pub use builtin::{InventoryService, PricingService};
pub use client::{CallPolicy, ResilienceContext, ServiceClient};
pub use fault::FaultPlan;
pub use message::{ServiceRecord, ServiceRequest, ServiceResponse};
pub use service::{OperationDesc, Protocol, Service, ServiceDescription, ServiceFault};
pub use transport::{LatencyModel, ServiceError, SimulatedTransport};
