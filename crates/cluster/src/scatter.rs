//! Scatter-gather over the shard fleet, in two phases.
//!
//! [`ClusterWeb`] owns the inter-node plumbing: a simulated transport
//! with one primary and one replica endpoint per shard, a breaker
//! registry watching each endpoint, and the resilient call policy the
//! legs run under. A web-vertical query is served query-then-fetch:
//!
//! 1. **Query phase.** `/search` goes to every shard; each answers
//!    with its *lean* candidate pool — `(page, raw, score, url)` per
//!    entry, nothing a sort order does not read — and
//!    [`SearchEngine::merge_pools`] picks the `k` winners rank-safely.
//! 2. **Fetch phase.** The winners are grouped by the shard whose pool
//!    supplied them, and `/fetch` asks each such shard for the title,
//!    snippet, domain and media fields of its own winners only. A page
//!    of ten hydrates ten entries, not the 4 × 35 the shards
//!    considered.
//!
//! The assembled page is bit-identical to a single-index search
//! whenever every shard answers both phases.
//!
//! Failure semantics ride the existing service machinery rather than
//! new code paths, and are the same in both phases (one call helper
//! serves both): a dead primary burns its retries, the breaker trips
//! and starts fast-failing it for free, and the leg falls over to the
//! replica endpoint. A shard whose primary *and* replica both fail —
//! the query leg, or the fetch leg after it had answered the query —
//! counts as unanswered: its candidates, or its winners, are absent
//! from the page, and the query degrades to a partial result whose
//! error names the silent shards. It does not fail.
//!
//! Virtual time follows the platform's parallel fan-out convention:
//! the legs of a phase run concurrently on the virtual clock and the
//! phases run one after the other, so the scatter costs the *max* over
//! the query chains, plus the max over the fetch chains (which start
//! when the slowest query chain ends), plus a constant gather step.
//!
//! On the wall clock the legs of a phase overlap too: each phase hands
//! its legs to the leg pool (`legs.rs`), which runs them on the
//! calling thread and whichever helpers are idle, and returns their
//! answers in shard order. A leg is a `'static` job — it holds the
//! shared fleet state and its own request — so no borrow crosses a
//! thread. Everything after the legs (owners, the merge, the winner
//! grouping, the silent list, the bill) is assembled in shard order
//! from those answers, exactly as when the legs ran in sequence. The
//! outcome cannot depend on which thread ran which leg, or when: each
//! leg's start instant (`now_ms`, or the fetch instant) is fixed
//! before dispatch, `call_resilient` draws latency from a pure hash of
//! `(seed, endpoint, request, instant, attempt)`, and breakers are
//! keyed per endpoint, while no two legs of a phase share one.

use std::sync::Arc;

use symphony_core::{ScatterOutcome, ScatterSearch};
use symphony_services::rpc::{replica_endpoint, shard_endpoint};
use symphony_services::{
    BreakerConfig, BreakerRegistry, BreakerState, CallPolicy, FaultPlan, LatencyModel,
    ResilienceContext, Service, ServiceClient, ServiceRequest, ServiceResponse, SimulatedTransport,
};
use symphony_web::{PageFields, SearchConfig, SearchEngine, Vertical};

use crate::legs;
use crate::wire::{decode_fields, decode_pool, fetch_request, search_request, ShardSearchService};

/// Virtual cost of the gather step (pool merge at the router), on top
/// of the slowest leg of each phase.
pub const GATHER_MS: u32 = 2;

/// Virtual latency of one shard-node search RPC, scaled to the number
/// of web documents the node's index holds. Calibrated so a node
/// holding the full default bench corpus (~200 pages) costs
/// [`symphony_core::WEB_MS`] — a 1-shard cluster's query phase prices
/// like the single-node engine, and an `n`-shard split divides the
/// document-dependent part by `n`. A fetch touches no index and is
/// priced as the hop alone, `shard_rpc_ms(0)`.
pub fn shard_rpc_ms(web_docs: usize) -> u32 {
    5 + (web_docs * 3 / 20) as u32
}

/// The shard fleet behind a router: N document-partitioned search
/// nodes (each with a replica), reachable only through the simulated
/// transport.
pub struct ClusterWeb {
    fleet: Arc<Fleet>,
}

/// Everything a leg touches, shared so a leg is a `'static` job on the
/// leg pool.
struct Fleet {
    shards: Vec<Arc<SearchEngine>>,
    /// Each shard's endpoint names in call order: primary, replica.
    endpoints: Vec<[String; 2]>,
    transport: SimulatedTransport,
    breakers: BreakerRegistry,
    policy: CallPolicy,
}

impl std::fmt::Debug for ClusterWeb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterWeb")
            .field("shards", &self.fleet.shards.len())
            .finish_non_exhaustive()
    }
}

impl ClusterWeb {
    /// Bring up the fleet over pre-built shard engines (see
    /// [`SearchEngine::build_cluster`]): registers a primary and a
    /// replica node per shard, both serving the same slice.
    pub fn new(shards: Vec<Arc<SearchEngine>>, seed: u64) -> ClusterWeb {
        Self::with_nodes(shards, seed, |_, engine| {
            Box::new(ShardSearchService::new(engine.clone()))
        })
    }

    /// [`ClusterWeb::new`] with the node behind each endpoint built by
    /// `node(shard, engine)` — the seam the work guard below and
    /// `tests/legs.rs` count calls through.
    pub(crate) fn with_nodes(
        shards: Vec<Arc<SearchEngine>>,
        seed: u64,
        node: impl Fn(usize, &Arc<SearchEngine>) -> Box<dyn Service>,
    ) -> ClusterWeb {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        let mut transport = SimulatedTransport::new(seed);
        let mut slowest_base = 0u32;
        let mut endpoints = Vec::with_capacity(shards.len());
        for (i, engine) in shards.iter().enumerate() {
            let model = |base_ms| LatencyModel {
                base_ms,
                jitter_ms: 0,
                failure_rate: 0.0,
            };
            let search_ms = shard_rpc_ms(engine.doc_count(Vertical::Web));
            slowest_base = slowest_base.max(search_ms);
            let names = [shard_endpoint(i), replica_endpoint(i)];
            for name in &names {
                transport.register(name, node(i, engine), model(search_ms));
                transport.register_operation(name, "/fetch", model(shard_rpc_ms(0)));
            }
            endpoints.push(names);
        }
        let fleet = Fleet {
            shards,
            endpoints,
            transport,
            breakers: BreakerRegistry::new(BreakerConfig::default()),
            // Timeout scales with the fleet's slowest node: an outage
            // charges the client its full timeout per attempt, so an
            // oversized timeout would turn every unnoticed dead node
            // into a virtual-minutes stall before the breaker trips.
            policy: CallPolicy {
                timeout_ms: (slowest_base * 4).max(50),
                retries: 1,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
                hedge_after_ms: None,
            },
        };
        ClusterWeb {
            fleet: Arc::new(fleet),
        }
    }

    /// Schedule chaos windows (node outages, latency spikes) on the
    /// fleet's transport. Endpoint names come from
    /// [`shard_endpoint`] / [`replica_endpoint`].
    ///
    /// # Panics
    /// After the fleet has served a scatter (a leg may still hold it).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> ClusterWeb {
        Arc::get_mut(&mut self.fleet)
            .expect("a fault plan is set before the fleet serves")
            .transport
            .set_fault_plan(plan);
        self
    }

    /// Number of shards in the fleet.
    pub fn num_shards(&self) -> usize {
        self.fleet.shards.len()
    }

    /// The shard engines, in shard order.
    pub fn shard_engines(&self) -> &[Arc<SearchEngine>] {
        &self.fleet.shards
    }

    /// Breaker state of one endpoint at `now_ms` (tests, dashboards).
    pub fn breaker_state(&self, endpoint: &str, now_ms: u64) -> BreakerState {
        self.fleet.breakers.state(endpoint, now_ms)
    }
}

impl Fleet {
    /// Run one leg — of either phase — against `shard`, starting at
    /// `now_ms`: primary first, replica on failure (a tripped breaker
    /// fast-fails the primary for free, so steady-state failover costs
    /// only the replica call). Returns the decoded answer (if one
    /// arrived) and the virtual cost of the whole chain.
    fn call<T>(
        &self,
        shard: usize,
        request: &ServiceRequest,
        now_ms: u64,
        decode: impl Fn(&ServiceResponse) -> Option<T>,
    ) -> (Option<T>, u32) {
        let client = ServiceClient::with_policy(&self.transport, self.policy);
        let mut spent = 0u32;
        for endpoint in &self.endpoints[shard] {
            let ctx = ResilienceContext {
                now_ms: now_ms + spent as u64,
                budget_ms: None,
                max_retries: None,
                breakers: Some(&self.breakers),
            };
            match client.call_resilient(endpoint, request, &ctx) {
                Ok(out) => {
                    spent = spent.saturating_add(out.total_latency_ms);
                    // A garbled frame reads as a failed node, not as a
                    // truncated answer: fall through to the replica.
                    if let Some(answer) = decode(&out.response) {
                        return (Some(answer), spent);
                    }
                }
                Err((_, burned)) => spent = spent.saturating_add(burned),
            }
        }
        (None, spent)
    }
}

impl ScatterSearch for ClusterWeb {
    fn scatter(
        &self,
        vertical: Vertical,
        query: &str,
        config: &SearchConfig,
        k: usize,
        now_ms: u64,
    ) -> ScatterOutcome {
        let n = self.fleet.shards.len();
        let mut silent: Vec<usize> = Vec::new();

        // Query phase: every shard's lean pool, and which shard each
        // candidate page came from.
        let fleet = Arc::clone(&self.fleet);
        let request = search_request(vertical, query, config, k);
        let answers = legs::run(n, move |shard| {
            fleet.call(shard, &request, now_ms, decode_pool)
        });
        let mut pools = Vec::with_capacity(n);
        let mut owners: Vec<(usize, usize)> = Vec::new();
        let mut query_ms = 0u32;
        for (shard, (pool, spent)) in answers.into_iter().enumerate() {
            query_ms = query_ms.max(spent);
            match pool {
                Some(pool) => {
                    owners.extend(pool.entries.iter().map(|e| (e.page, shard)));
                    pools.push(pool);
                }
                None => silent.push(shard),
            }
        }
        let winners = SearchEngine::merge_pools(pools, k);

        // Fetch phase: each supplying shard hydrates its own winners.
        // `picks[shard]` holds positions on the final page.
        let mut picks: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (pos, winner) in winners.iter().enumerate() {
            let (_, shard) = owners
                .iter()
                .find(|(page, _)| *page == winner.page)
                .expect("every winner came out of a shard's pool");
            picks[*shard].push(pos);
        }
        let fetch_at = now_ms + query_ms as u64;
        let asks: Vec<(usize, usize, ServiceRequest)> = picks
            .iter()
            .enumerate()
            .filter(|(_, positions)| !positions.is_empty())
            .map(|(shard, positions)| {
                let pages: Vec<usize> = positions.iter().map(|&pos| winners[pos].page).collect();
                let request = fetch_request(vertical, query, config, &pages);
                (shard, pages.len(), request)
            })
            .collect();
        let fleet = Arc::clone(&self.fleet);
        let answers = legs::run(asks.len(), move |leg| {
            let (shard, want, request) = &asks[leg];
            let answer = fleet.call(*shard, request, fetch_at, |response| {
                decode_fields(response).filter(|got| got.len() == *want)
            });
            (*shard, answer)
        });
        let mut fields: Vec<Option<PageFields>> = vec![None; winners.len()];
        let mut fetch_ms = 0u32;
        for (shard, (answer, spent)) in answers {
            fetch_ms = fetch_ms.max(spent);
            match answer {
                Some(got) => {
                    for (&pos, f) in picks[shard].iter().zip(got) {
                        fields[pos] = Some(f);
                    }
                }
                // Answered the query, failed the fetch: unanswered.
                None => silent.push(shard),
            }
        }

        silent.sort_unstable();
        let shards_total = n as u32;
        let shards_answered = shards_total - silent.len() as u32;
        let error = if silent.is_empty() {
            None
        } else {
            let ids: Vec<String> = silent.iter().map(usize::to_string).collect();
            Some(format!(
                "partial web results: shard(s) {} unanswered",
                ids.join(",")
            ))
        };
        ScatterOutcome {
            // Winner order is page order; a winner whose shard failed
            // the fetch has no fields and is absent.
            results: winners
                .into_iter()
                .zip(fields)
                .filter_map(|(w, f)| Some(f?.into_result(w.url, w.score)))
                .collect(),
            virtual_ms: query_ms.saturating_add(fetch_ms).saturating_add(GATHER_MS),
            shards_answered,
            shards_total,
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use symphony_services::{ServiceDescription, ServiceFault};
    use symphony_web::{Corpus, CorpusConfig, Topic};

    /// `(shard, operation, pages asked)` of every request a node saw.
    type CallLog = Arc<Mutex<Vec<(usize, String, usize)>>>;

    /// A shard node that logs what it is asked before answering.
    struct Counting {
        shard: usize,
        inner: ShardSearchService,
        log: CallLog,
    }

    impl Service for Counting {
        fn describe(&self) -> ServiceDescription {
            self.inner.describe()
        }

        fn handle(&self, request: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
            let pages = request
                .param("pages")
                .map_or(0, |p| p.split(crate::wire::LIST_SEP).count());
            self.log.lock().expect("no node panicked").push((
                self.shard,
                request.operation().to_string(),
                pages,
            ));
            self.inner.handle(request)
        }
    }

    /// Work guard, counts only: the real scatter loop sends one
    /// `/search` to every shard, then asks for exactly the pages the
    /// result shows — `min(k, hits)` in total, in at most one `/fetch`
    /// per shard, none at all when nothing was found.
    #[test]
    fn fetch_asks_each_supplying_shard_once_for_its_winners_only() {
        let corpus = Corpus::generate(
            &CorpusConfig {
                sites_per_topic: 3,
                pages_per_site: 6,
                ..CorpusConfig::default()
            }
            .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]),
        );
        let single = SearchEngine::new(corpus.clone());
        let fleet: Vec<Arc<SearchEngine>> = SearchEngine::build_cluster(&corpus, 4, 1)
            .into_iter()
            .map(Arc::new)
            .collect();
        let log = CallLog::default();
        let cluster = ClusterWeb::with_nodes(fleet, 7, |shard, engine| {
            Box::new(Counting {
                shard,
                inner: ShardSearchService::new(engine.clone()),
                log: log.clone(),
            })
        });
        let config = SearchConfig::default();
        let mut sizes = Vec::new();
        for (query, k) in [
            ("game review", 10),
            ("game review", 3),
            ("\"Farm Story\"", 10),
            ("+space farm", 10),
            ("zyxwvut", 10),
        ] {
            let shown = single.search(Vertical::Web, query, &config, k).len();
            let out = cluster.scatter(Vertical::Web, query, &config, k, 0);
            assert_eq!(out.results.len(), shown);
            let calls = std::mem::take(&mut *log.lock().expect("no node panicked"));
            // Legs run concurrently: arrival order is not shard order.
            let mut searched: Vec<usize> = calls
                .iter()
                .filter(|(_, op, _)| op == "/search")
                .map(|(shard, ..)| *shard)
                .collect();
            searched.sort_unstable();
            assert_eq!(searched, [0, 1, 2, 3], "{query:?}: one query leg per shard");
            let fetches: Vec<&(usize, String, usize)> =
                calls.iter().filter(|(_, op, _)| op == "/fetch").collect();
            assert_eq!(
                calls.len(),
                4 + fetches.len(),
                "{query:?}: nothing else is sent"
            );
            let asked: usize = fetches.iter().map(|(.., pages)| pages).sum();
            assert_eq!(asked, shown, "{query:?} k {k}: pages asked");
            let mut fetched: Vec<usize> = fetches.iter().map(|(shard, ..)| *shard).collect();
            fetched.sort_unstable();
            fetched.dedup();
            assert_eq!(
                fetched.len(),
                fetches.len(),
                "{query:?}: one fetch leg per shard"
            );
            sizes.push(shown);
        }
        // The list covers a full page, a short one and an empty one.
        assert!(sizes.contains(&10) && sizes.contains(&0));
        assert!(sizes.iter().any(|&n| n > 0 && n < 10), "{sizes:?}");
    }
}
