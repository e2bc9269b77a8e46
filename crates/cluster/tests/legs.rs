//! The leg pool, driven through the real scatter: the legs of a phase
//! overlap on the wall clock, they run on a fixed set of threads rather
//! than a thread per scatter, and a leg's panic reaches the caller
//! without costing the pool its helper. Driven directly: a helper
//! enlisted but not yet started when its batch ends is not lost to the
//! next batch.
//!
//! A process of its own (`harness = false`: the checks run one after
//! another in `main`) so that no other test holds the pool's helpers
//! while a check needs them. It compiles the crate's pool, scatter and
//! wire sources in directly, for the crate-private node seam
//! (`ClusterWeb::with_nodes`) the checks record threads through.

#[allow(dead_code, unused_imports)]
#[path = "../src/legs.rs"]
mod legs;
#[allow(dead_code, unused_imports)]
#[path = "../src/scatter.rs"]
mod scatter;
#[allow(dead_code, unused_imports)]
#[path = "../src/wire.rs"]
mod wire;

use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::Duration;

use scatter::ClusterWeb;
use symphony_core::ScatterSearch;
use symphony_services::{
    Service, ServiceDescription, ServiceFault, ServiceRequest, ServiceResponse,
};
use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical};
use wire::ShardSearchService;

const QUERY: &str = "game review";
const PANIC_PAYLOAD: &str = "node fault";

/// What every node of the fleet reports to, and the switches a check
/// flips between scatters.
#[derive(Default)]
struct Probe {
    state: Mutex<Seen>,
    started: Condvar,
}

#[derive(Default)]
struct Seen {
    /// Threads that served a leg since the last reset.
    threads: HashSet<ThreadId>,
    /// `/search` legs started since the last reset.
    searches: usize,
    /// Each `/search` waits until a second one has started.
    rendezvous: bool,
    /// The next `/search` panics, unless it runs on `spared`.
    panic_once: bool,
    spared: Option<ThreadId>,
}

impl Probe {
    fn seen(&self) -> MutexGuard<'_, Seen> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Forget the threads and legs seen; set the switches.
    fn reset(&self, switches: Seen) {
        *self.seen() = switches;
    }
}

/// A shard node that reports to the probe before answering.
struct Node {
    inner: ShardSearchService,
    probe: Arc<Probe>,
}

impl Service for Node {
    fn describe(&self) -> ServiceDescription {
        self.inner.describe()
    }

    fn handle(&self, request: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
        let mut seen = self.probe.seen();
        seen.threads.insert(thread::current().id());
        if request.operation() == "/search" {
            seen.searches += 1;
            self.probe.started.notify_all();
            if seen.panic_once && seen.spared != Some(thread::current().id()) {
                seen.panic_once = false;
                drop(seen);
                panic::panic_any(PANIC_PAYLOAD);
            }
            if seen.rendezvous {
                let (seen, wait) = self
                    .probe
                    .started
                    .wait_timeout_while(seen, Duration::from_secs(10), |s| s.searches < 2)
                    .unwrap_or_else(|e| e.into_inner());
                drop(seen);
                assert!(!wait.timed_out(), "no second leg started within 10 s");
            }
        }
        self.inner.handle(request)
    }
}

struct World {
    single: SearchEngine,
    cluster: ClusterWeb,
    probe: Arc<Probe>,
}

fn world() -> World {
    let corpus = Corpus::generate(
        &CorpusConfig {
            sites_per_topic: 3,
            pages_per_site: 6,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]),
    );
    let fleet: Vec<Arc<SearchEngine>> = SearchEngine::build_cluster(&corpus, 4, 1)
        .into_iter()
        .map(Arc::new)
        .collect();
    let probe = Arc::new(Probe::default());
    let cluster = ClusterWeb::with_nodes(fleet, 7, |_, engine| {
        Box::new(Node {
            inner: ShardSearchService::new(engine.clone()),
            probe: probe.clone(),
        })
    });
    World {
        single: SearchEngine::new(corpus),
        cluster,
        probe,
    }
}

impl World {
    /// One scatter of [`QUERY`], checked to be served in full; returns
    /// how many threads ran its legs.
    fn scatter_in_full(&self, rendezvous: bool) -> usize {
        self.probe.reset(Seen {
            rendezvous,
            ..Seen::default()
        });
        let config = SearchConfig::default();
        let out = self.cluster.scatter(Vertical::Web, QUERY, &config, 10, 0);
        assert_eq!(out.error, None);
        assert_eq!(
            out.results,
            self.single.search(Vertical::Web, QUERY, &config, 10)
        );
        self.probe.seen().threads.len()
    }
}

/// (a) Every `/search` waits for a second leg of its scatter: with the
/// legs run in sequence, the first would wait out its timeout.
fn legs_overlap(w: &World) {
    for _ in 0..20 {
        assert!(w.scatter_in_full(true) >= 2, "legs ran on one thread");
    }
}

/// (b) No thread per scatter: the threads that ever ran a leg are the
/// caller plus the pool's helpers.
fn threads_are_reused(w: &World, cores: usize) {
    let mut threads = HashSet::new();
    for _ in 0..200 {
        w.scatter_in_full(false);
        threads.extend(w.probe.seen().threads.iter().copied());
    }
    assert!(
        threads.len() <= cores,
        "{} threads ran legs on {cores} cores",
        threads.len()
    );
}

/// (c) A node's panic — on a helper, where there is one — reaches the
/// caller with its payload, and the next scatter is served in full, on
/// more than one thread.
fn a_leg_panic_reaches_the_caller(w: &World, concurrent: bool) {
    w.probe.reset(Seen {
        rendezvous: concurrent,
        panic_once: true,
        spared: concurrent.then(|| thread::current().id()),
        ..Seen::default()
    });
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        w.cluster
            .scatter(Vertical::Web, QUERY, &SearchConfig::default(), 10, 0)
    }));
    panic::set_hook(hook);
    let payload = caught.expect_err("the node's panic is re-raised on the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&PANIC_PAYLOAD));
    let threads = w.scatter_in_full(concurrent);
    assert!(!concurrent || threads >= 2, "the helper did not survive");
}

/// A two-leg batch whose legs each wait until both have started.
fn two_legs_meet() -> Vec<ThreadId> {
    let met = Arc::new((Mutex::new(0usize), Condvar::new()));
    legs::run(2, move |_| {
        let (started, cv) = &*met;
        let mut started = started.lock().unwrap_or_else(|e| e.into_inner());
        *started += 1;
        cv.notify_all();
        let (started, wait) = cv
            .wait_timeout_while(started, Duration::from_secs(10), |n| *n < 2)
            .unwrap_or_else(|e| e.into_inner());
        drop(started);
        assert!(!wait.timed_out(), "no second leg started within 10 s");
        thread::current().id()
    })
}

/// (d) With every helper parked behind a gate, a two-leg batch enlists
/// one whose job cannot start: the caller runs both legs and returns
/// with every helper back on the idle count. Once the gate opens, the
/// next two-leg batch runs on two threads.
fn an_unstarted_helper_is_not_lost(helpers: usize) {
    let pool = legs::pool();
    assert_eq!(pool.idle.load(Ordering::Relaxed), helpers);
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    {
        let mut jobs = legs::lock(&pool.jobs);
        for _ in 0..helpers {
            let gate = Arc::clone(&gate);
            jobs.push_back(Box::new(move || {
                let (open, opened) = &*gate;
                let open = open.lock().unwrap_or_else(|e| e.into_inner());
                drop(opened.wait_while(open, |open| !*open));
            }));
        }
    }
    pool.ready.notify_all();
    let caller = thread::current().id();
    assert_eq!(legs::run(2, |_| thread::current().id()), [caller; 2]);
    assert_eq!(
        pool.idle.load(Ordering::Relaxed),
        helpers,
        "the unstarted helper was not put back"
    );
    *gate.0.lock().unwrap_or_else(|e| e.into_inner()) = true;
    gate.1.notify_all();
    let ran = two_legs_meet();
    assert_ne!(ran[0], ran[1], "the next batch ran on one thread");
}

fn main() {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let concurrent = cores >= 2;
    let w = world();
    let mut passed = 0;
    let mut check = |name: &str, skip: bool, f: &dyn Fn()| {
        if skip {
            println!("test {name} ... skipped ({cores} core)");
        } else {
            f();
            println!("test {name} ... ok");
            passed += 1;
        }
    };
    // First: it reads the idle count of a pool no batch has touched.
    check("an_unstarted_helper_is_not_lost", !concurrent, &|| {
        an_unstarted_helper_is_not_lost(cores - 1)
    });
    check("legs_overlap", !concurrent, &|| legs_overlap(&w));
    check("threads_are_reused", false, &|| {
        threads_are_reused(&w, cores)
    });
    check("a_leg_panic_reaches_the_caller", false, &|| {
        a_leg_panic_reaches_the_caller(&w, concurrent)
    });
    println!("test result: ok. {passed} passed; 0 failed");
}
