//! # symphony-cluster
//!
//! Multi-node serving for the Symphony reproduction: N independent
//! [`Platform`](symphony_core::Platform) shards behind a [`Router`].
//!
//! The paper runs Symphony on shared search infrastructure; this
//! crate reproduces the serving topology that implies:
//!
//! * **Document-partitioned web search.** Every shard indexes a slice
//!   of the synthetic web ([`SearchEngine::build_cluster`]
//!   (symphony_web::SearchEngine::build_cluster)); queries scatter to
//!   all shards and gather under a rank-safe top-k merge that reuses
//!   each shard's MaxScore threshold as a merge bound; the pools
//!   travel lean and only the winners are hydrated, by a second
//!   `/fetch` leg to the shards that supplied them. Merged results
//!   are **bit-identical** to a single-index search.
//! * **Tenant-partitioned hosting.** A tenant's tables, apps, and
//!   logs live whole on a rendezvous-hashed home shard, with explicit
//!   rebalancing ([`Router::move_tenant`]).
//! * **Resilient inter-node RPC.** Shard calls travel the simulated
//!   transport from `symphony-services`, composing with circuit
//!   breakers, retries, and fault plans; a dead shard fails over to
//!   its replica, and a fully silent shard degrades the query to a
//!   partial result instead of an error.

#![warn(missing_docs)]

mod legs;
pub mod router;
pub mod scatter;
pub mod wire;

pub use router::{rendezvous_shard, Router};
pub use scatter::{shard_rpc_ms, ClusterWeb, GATHER_MS};
pub use wire::{decode_fields, decode_pool, encode_fields, encode_pool, ShardSearchService};
