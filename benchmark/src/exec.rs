//! Running operations against a world: serving a page view, applying a
//! crawl batch, the oracle-checked verification pass, the client
//! threads and the timed run.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use symphony_core::{Impression, QueryResponse};
use symphony_store::{HybridPlan, HybridQuery};
use symphony_text::{Doc, DocId, FieldId, Index, IndexConfig, MaintenanceReport};
use symphony_web::{Page, SearchEngine, Vertical};

use crate::gen::{Cycle, IngestStream, Op, OpStream, View};
use crate::stats::{fnv1a, Sample, FNV_OFFSET};
use crate::worlds::{build, Scale, Workload, World, HYBRID_CUTOFFS};

/// Virtual milliseconds between two maintenance ticks of the crawler.
const TICK_MS: u64 = 10;

/// Pick the impression a click draw lands on: probability proportional
/// to `1 / (rank + 1)` over the rendered order.
pub fn pick_impression(impressions: &[Impression], draw: f64) -> Option<&Impression> {
    let total: f64 = (1..=impressions.len()).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    for (rank, imp) in impressions.iter().enumerate() {
        acc += 1.0 / (rank + 1) as f64 / total;
        if draw < acc {
            return Some(imp);
        }
    }
    impressions.last()
}

/// Serve one page view: the query, then its clicks. An error is a
/// failed operation: the query or a click returned `Err`, or the page
/// came back shed or degraded.
pub fn serve_view(world: &World, view: &View) -> Result<Arc<QueryResponse>, String> {
    let app = world.apps[view.app].id;
    let response = world
        .host
        .query(app, &view.query)
        .map_err(|e| format!("query {:?}: {e}", view.query))?;
    if response.trace.shed {
        return Err(format!("query {:?} was shed", view.query));
    }
    if response.trace.degraded {
        return Err(format!("query {:?} came back degraded", view.query));
    }
    for &draw in &view.click_draws {
        if let Some(imp) = pick_impression(&response.impressions, draw) {
            world
                .host
                .click(app, &view.query, imp)
                .map_err(|e| format!("click after {:?}: {e}", view.query))?;
        }
    }
    Ok(response)
}

/// What a crawl batch did.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteReport {
    /// Pages ingested plus URLs removed.
    pub pages: u64,
    /// Whether the maintenance tick sealed the memtable.
    pub sealed: bool,
    /// Segments merged by the tick.
    pub merged: usize,
    /// Tombstoned documents purged by the tick.
    pub purged: usize,
}

/// A harness-owned text index over the web vertical's pages, built and
/// updated like the engine's own: title and body fields, the same
/// documents in the same order. The engine does not expose its
/// indexes, so the `textindex.*` probes run here.
pub struct MirrorIndex {
    /// The index.
    pub index: Index,
    by_url: HashMap<String, DocId>,
}

/// Field ids of [`MirrorIndex`], in registration order.
const TITLE: FieldId = FieldId(0);
const BODY: FieldId = FieldId(1);

fn page_doc(page: &Page) -> Doc {
    Doc::new()
        .field(TITLE, &*page.title)
        .field(BODY, &*page.body)
}

impl MirrorIndex {
    /// Index every web-vertical page of `engine`'s corpus. Returns the
    /// index and the seconds the build took.
    pub fn build(engine: &SearchEngine) -> (MirrorIndex, f64) {
        let corpus = engine.corpus();
        let web: Vec<&Page> = corpus
            .pages
            .iter()
            .filter(|p| Vertical::of_kind(&p.kind) == Vertical::Web)
            .collect();
        let docs: Vec<Doc> = web.iter().map(|p| page_doc(p)).collect();
        let start = Instant::now();
        let mut index = Index::new(IndexConfig::default());
        index.register_field("title", 2.0);
        index.register_field("body", 1.0);
        let ids = index.build_parallel(docs, symphony_text::default_build_threads());
        index.optimize();
        let secs = start.elapsed().as_secs_f64();
        let by_url = web
            .iter()
            .zip(&ids)
            .map(|(p, id)| (p.url.clone(), *id))
            .collect();
        (MirrorIndex { index, by_url }, secs)
    }

    /// Apply the crawl batch `engine` just received (see
    /// [`apply_writes`]) to the mirror, maintenance tick included.
    pub fn apply(&mut self, cycle: &Cycle, now_ms: u64) {
        for page in &cycle.pages {
            let doc = page_doc(page);
            let id = match self.by_url.get(&page.url) {
                Some(&old) => self.index.update(old, doc).expect("mirror maps live docs"),
                None => self.index.add(doc),
            };
            self.by_url.insert(page.url.clone(), id);
        }
        for url in &cycle.removes {
            if let Some(id) = self.by_url.remove(url) {
                self.index.delete(id);
            }
        }
        self.index.maintain(now_ms);
    }
}

/// Apply one crawl batch to `engine`: ingest, remove, then one
/// maintenance tick at `*now_ms + TICK_MS`. `on_step` sees the name
/// of each step and runs it (so a traced run can put a span around
/// it).
pub fn apply_writes(
    engine: &mut SearchEngine,
    cycle: &Cycle,
    now_ms: &mut u64,
    mut on_step: impl FnMut(&'static str, &mut dyn FnMut()),
) -> WriteReport {
    on_step("websearch.ingest", &mut || {
        for page in &cycle.pages {
            engine.ingest_page(page.clone());
        }
    });
    on_step("websearch.remove", &mut || {
        for url in &cycle.removes {
            engine.remove_page(url);
        }
    });
    *now_ms += TICK_MS;
    let mut report = MaintenanceReport::default();
    on_step("websearch.maintain", &mut || {
        report = engine.maintain(*now_ms);
    });
    WriteReport {
        pages: (cycle.pages.len() + cycle.removes.len()) as u64,
        sealed: report.sealed,
        merged: report.merged_segments,
        purged: report.purged_docs,
    }
}

/// Outcome of the verification pass.
#[derive(Debug, Clone, Default)]
pub struct Verified {
    /// Operations attempted (views, plus pages written).
    pub attempted: u64,
    /// Operations that failed or whose oracle disagreed.
    pub failed: u64,
    /// FNV-1a over every response's HTML, in stream order.
    pub checksum: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Oracle comparisons made.
    pub oracle_checks: u64,
}

impl Verified {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// Operations the verification pass draws from each client's stream:
/// one lap (so every operation a replaying workload times has been
/// checked once), or 40 crawl cycles on `live_ingest`.
pub fn verify_ops(workload: Workload, scale: Scale) -> usize {
    match (workload, scale) {
        (Workload::LiveIngest, Scale::Full) => 40,
        (Workload::LiveIngest, Scale::Smoke) => 8,
        _ => workload.lap_ops(scale),
    }
}

fn urls(impressions: &[Impression]) -> Vec<&str> {
    impressions
        .iter()
        .filter_map(|i| i.url.as_deref())
        .collect()
}

/// The single-threaded pass that runs before any timing, over
/// [`verify_ops`] operations of every client. It checks every
/// response against the workload's oracle, computes the output
/// checksum, and leaves the caches warm.
///
/// * `storefront`: an L1 hit returns the HTML of the miss that filled
///   it; the two clients' streams are interleaved on one thread.
/// * `web_cold`: serving a query twice gives the same page, and the
///   customised app never leaves its restricted sites.
/// * `sharded_web`: every page equals the one a single node over the
///   same corpus serves (`reference`, built here when absent).
/// * `hybrid_sweep`: on a 1-in-50 sample the planner's hits are
///   bit-identical to the forced scan's.
/// * `live_ingest`: a removed URL never comes back, and a page's
///   unique token finds it — at once, and again after the next seal.
pub fn verify(
    world: &mut World,
    streams: &mut [Box<dyn OpStream>],
    reference: Option<&World>,
    now_ms: &mut u64,
) -> Verified {
    let mut v = Verified {
        checksum: FNV_OFFSET,
        ..Verified::default()
    };
    let n = verify_ops(world.workload, world.scale) * streams.len();
    let built;
    let reference = match (world.workload, reference) {
        (Workload::ShardedWeb, None) => {
            built = build(Workload::WebCold, world.scale, world.seed);
            Some(&built)
        }
        (_, r) => r,
    };
    let mut filled: HashMap<(usize, String), u64> = HashMap::new();
    let mut removed: HashSet<String> = HashSet::new();
    let mut awaiting_seal: Option<String> = None;

    for i in 0..n {
        let op = streams[i % streams.len()].next_op();
        match op {
            Op::View(view) => {
                v.attempted += 1;
                let response = match serve_view(world, &view) {
                    Ok(r) => r,
                    Err(e) => {
                        v.fail(e);
                        continue;
                    }
                };
                v.checksum = fnv1a(v.checksum, response.html.as_bytes());
                if let Err(e) = check_view(world, reference, &view, &response, i, &mut filled) {
                    v.fail(e);
                }
                v.oracle_checks += 1;
            }
            Op::Cycle(cycle) => {
                let platform = world.host.single_mut().expect("ingest runs on one node");
                let engine = platform.engine_mut().expect("the platform owns its engine");
                let report = apply_writes(engine, &cycle, now_ms, |_, f| f());
                v.attempted += report.pages;
                removed.extend(cycle.removes.iter().cloned());
                for p in &cycle.pages {
                    removed.remove(&p.url);
                }
                for view in &cycle.reads {
                    v.attempted += 1;
                    match serve_view(world, view) {
                        Ok(r) => {
                            v.checksum = fnv1a(v.checksum, r.html.as_bytes());
                            if let Some(u) = urls(&r.impressions)
                                .into_iter()
                                .find(|u| removed.contains(*u))
                            {
                                v.fail(format!("removed URL {u} was served"));
                            }
                        }
                        Err(e) => v.fail(e),
                    }
                }
                // Token oracles, through the plain web app.
                let finds = |world: &World, token: &str, url: &str| -> Result<bool, String> {
                    let view = View {
                        app: 0,
                        query: token.to_string(),
                        click_draws: Vec::new(),
                    };
                    serve_view(world, &view).map(|r| urls(&r.impressions).contains(&url))
                };
                let check = |v: &mut Verified, url: &str, want: bool, when: &str| {
                    let n = IngestStream::page_number(url).expect("own URL");
                    v.oracle_checks += 1;
                    match finds(world, &IngestStream::token(n), url) {
                        Ok(found) if found == want => {}
                        Ok(found) => v.fail(format!("{url} {when}: found = {found}")),
                        Err(e) => v.fail(e),
                    }
                };
                if let Some(last) = cycle.pages.last() {
                    check(&mut v, &last.url, true, "right after ingest");
                }
                if let Some(gone) = cycle
                    .removes
                    .iter()
                    .find(|u| IngestStream::page_number(u).is_some())
                {
                    check(&mut v, gone, false, "after removal");
                }
                if report.sealed {
                    if let Some(url) = awaiting_seal.take() {
                        if !removed.contains(&url) {
                            check(&mut v, &url, true, "after the seal");
                        }
                    }
                }
                if awaiting_seal.is_none() {
                    awaiting_seal = cycle.pages.first().map(|p| p.url.clone());
                }
            }
        }
    }
    v
}

fn check_view(
    world: &World,
    reference: Option<&World>,
    view: &View,
    response: &QueryResponse,
    i: usize,
    filled: &mut HashMap<(usize, String), u64>,
) -> Result<(), String> {
    let digest = fnv1a(FNV_OFFSET, response.html.as_bytes());
    match world.workload {
        Workload::Storefront => {
            let key = (view.app, symphony_core::normalize_query(&view.query));
            if response.trace.cache_hit {
                match filled.get(&key) {
                    Some(&d) if d == digest => Ok(()),
                    Some(_) => Err(format!("L1 hit for {:?} differs from its miss", view.query)),
                    None => Err(format!(
                        "L1 hit for {:?} without a filling miss",
                        view.query
                    )),
                }
            } else {
                filled.insert(key, digest);
                Ok(())
            }
        }
        Workload::WebCold => {
            let app = &world.apps[view.app];
            if let Some(cfg) = app.config.source("web") {
                if let symphony_core::DataSourceDef::WebVertical { config, .. } = &cfg.def {
                    if !config.site_restrict.is_empty() {
                        for u in urls(&response.impressions) {
                            let host = u.trim_start_matches("http://").split('/').next();
                            let ok = host.is_some_and(|h| {
                                config
                                    .site_restrict
                                    .iter()
                                    .any(|d| symphony_web::engine::domain_matches(h, d))
                            });
                            if !ok {
                                return Err(format!("{u} is outside the restricted sites"));
                            }
                        }
                    }
                }
            }
            if i.is_multiple_of(10) {
                let again = serve_view(world, view)?;
                if again.html != response.html {
                    return Err(format!("{:?} served two different pages", view.query));
                }
            }
            Ok(())
        }
        Workload::ShardedWeb => {
            let reference = reference.expect("sharded verification has a reference world");
            let single = serve_view(reference, view)?;
            if single.impressions != response.impressions || single.html != response.html {
                return Err(format!(
                    "{:?}: the fleet and a single node disagree",
                    view.query
                ));
            }
            Ok(())
        }
        Workload::HybridSweep => {
            if !i.is_multiple_of(50) || view.app == 0 {
                return Ok(());
            }
            let app = &world.apps[view.app];
            let table = world
                .host
                .platform(app.home)
                .store()
                .space_by_id(app.config.owner)
                .and_then(|s| s.table("catalog").ok())
                .ok_or("catalog table missing")?;
            let cutoff = HYBRID_CUTOFFS[view.app - 1];
            let hq = HybridQuery::new(
                symphony_text::Query::parse(&view.query),
                crate::gen::price_below(cutoff),
                10,
            );
            let bits = |r: symphony_store::HybridResult| -> Vec<(u32, u32)> {
                r.hits
                    .iter()
                    .map(|h| (h.record.0, h.score.to_bits()))
                    .collect()
            };
            let chosen = bits(table.hybrid_query(&hq).map_err(|e| e.to_string())?);
            let scan = bits(
                table
                    .hybrid_query_planned(&hq, Some(HybridPlan::Scan))
                    .map_err(|e| e.to_string())?,
            );
            if chosen != scan {
                return Err(format!(
                    "{:?} under {cutoff}: plan and scan differ",
                    view.query
                ));
            }
            let titles: Vec<String> = chosen
                .iter()
                .filter_map(|(rec, _)| table.table().get(symphony_store::RecordId(*rec)))
                .map(|r| r.get(crate::gen::COL_TITLE).display_string())
                .collect();
            let served: Vec<&str> = response
                .impressions
                .iter()
                .map(|i| i.title.as_str())
                .collect();
            if titles != served {
                return Err(format!("{:?}: page and table hits differ", view.query));
            }
            Ok(())
        }
        Workload::LiveIngest => Ok(()),
    }
}

/// The client threads of a run. They are started before set-up and
/// live until the process ends, as a server's workers do, and every
/// timed run is served on them.
///
/// That is for the allocator's sake. glibc gives each thread an arena
/// and hands a finished thread's arena to the next thread started. A
/// client started just before its timed run inherits an arena the
/// index build grew and emptied, serves out of that for a few seconds
/// and, once it is used up, settles into a state where every
/// allocation costs several times more: a `storefront` L1 hit, which
/// is mostly the ~50 log records it allocates, went from 17 µs to
/// 65 µs somewhere between the 5th and the 25th second of a run, at a
/// different point every time. An arena that has only ever served
/// pages does not do that.
pub struct ClientPool {
    workers: Vec<(Sender<Job>, JoinHandle<()>)>,
}

type Job = Box<dyn FnOnce() + Send>;

impl ClientPool {
    /// Start `clients` threads and wait until each has claimed its
    /// arena.
    pub fn start(clients: usize) -> ClientPool {
        let ready = Arc::new(Barrier::new(clients + 1));
        let workers = (0..clients)
            .map(|_| {
                let (tx, rx) = channel::<Job>();
                let ready = ready.clone();
                let handle = std::thread::spawn(move || {
                    drop(std::hint::black_box(Box::new(0u8)));
                    ready.wait();
                    for job in rx {
                        job();
                    }
                });
                (tx, handle)
            })
            .collect();
        ready.wait();
        ClientPool { workers }
    }

    /// Run one job per client thread, in parallel, and return what
    /// they return, in order. A job and all it captured are dropped
    /// before its result is handed back.
    ///
    /// # Panics
    /// Panics when there are more jobs than threads, or a job panics.
    pub fn run<T: Send + 'static>(&self, jobs: Vec<Box<dyn FnOnce() -> T + Send>>) -> Vec<T> {
        assert!(jobs.len() <= self.workers.len(), "one thread per job");
        let results: Vec<_> = jobs
            .into_iter()
            .zip(&self.workers)
            .map(|(job, (tx, _))| {
                let (done, result) = channel();
                tx.send(Box::new(move || {
                    let out = job();
                    let _ = done.send(out);
                }))
                .expect("client threads outlive the pool's users");
                result
            })
            .collect();
        results
            .into_iter()
            .map(|r| r.recv().expect("client thread panicked"))
            .collect()
    }
}

impl Drop for ClientPool {
    fn drop(&mut self) {
        for (tx, handle) in self.workers.drain(..) {
            drop(tx);
            let _ = handle.join();
        }
    }
}

/// What a timed run saw.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Every client's samples, in the order they completed.
    pub clients: Vec<Vec<Sample>>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Maintenance reports of the write path, summed.
    pub seals: u64,
    /// Segments merged.
    pub merges: u64,
    /// Documents purged.
    pub purged: u64,
    /// Longest single maintenance tick, in ms.
    pub maintain_max_ms: f64,
}

impl Timed {
    /// Append a later stretch of the same run.
    pub fn absorb(&mut self, later: Timed) {
        self.clients.resize(later.clients.len(), Vec::new());
        for (mine, theirs) in self.clients.iter_mut().zip(later.clients) {
            mine.extend(theirs);
        }
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.failures.extend(later.failures);
        self.failures.truncate(5);
        self.seals += later.seals;
        self.merges += later.merges;
        self.purged += later.purged;
        self.maintain_max_ms = self.maintain_max_ms.max(later.maintain_max_ms);
    }

    /// Latency of every page view of the run, µs.
    pub fn view_latencies_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.clients
            .iter()
            .flatten()
            .filter(|s| !s.write)
            .map(|s| s.us)
    }
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl ClientLog {
    fn note(&mut self, result: Result<Arc<QueryResponse>, String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Measure for `seconds`, untraced: every client runs its stream in a
/// closed loop (next operation only after the previous reply) on its
/// thread of `pool`, and each view is logged with its position in the
/// lap. `live_ingest` runs on the calling thread, which owns the
/// engine it writes to; the write half of a cycle is one sample.
///
/// # Panics
/// Panics when `world` is shared with anything but a finished job.
pub fn timed_run(
    pool: &ClientPool,
    world: &mut Arc<World>,
    streams: &mut Vec<Box<dyn OpStream>>,
    seconds: f64,
    now_ms: &mut u64,
) -> Timed {
    let total = Duration::from_secs_f64(seconds);
    let mut out = Timed::default();
    let logs: Vec<ClientLog> = if world.workload == Workload::LiveIngest {
        let world = Arc::get_mut(world).expect("no client holds the world");
        let mut log = ClientLog::default();
        let start = Instant::now();
        let mut last = start;
        while last - start < total {
            let Op::Cycle(cycle) = streams[0].next_op() else {
                unreachable!("live_ingest streams yield cycles")
            };
            let platform = world.host.single_mut().expect("ingest runs on one node");
            let engine = platform.engine_mut().expect("the platform owns its engine");
            let t0 = Instant::now();
            let mut tick = Duration::ZERO;
            let report = apply_writes(engine, &cycle, now_ms, |name, f| {
                let t = Instant::now();
                f();
                if name == "websearch.maintain" {
                    tick = t.elapsed();
                }
            });
            let t1 = Instant::now();
            out.seals += u64::from(report.sealed);
            out.merges += report.merged as u64;
            out.purged += report.purged as u64;
            out.maintain_max_ms = out.maintain_max_ms.max(tick.as_secs_f64() * 1e3);
            log.attempted += report.pages;
            log.samples.push(Sample {
                pos: 0,
                ops: report.pages as u32,
                write: true,
                us: micros(t1 - t0),
                wall_us: micros(t1 - last),
            });
            last = t1;
            for view in &cycle.reads {
                let t0 = Instant::now();
                let result = serve_view(world, view);
                let t1 = Instant::now();
                log.samples.push(Sample {
                    pos: 0,
                    ops: 1,
                    write: false,
                    us: micros(t1 - t0),
                    wall_us: micros(t1 - last),
                });
                last = t1;
                log.note(result);
            }
        }
        vec![log]
    } else {
        let barrier = Arc::new(Barrier::new(streams.len()));
        let jobs = streams
            .drain(..)
            .map(|mut stream| {
                let world = world.clone();
                let barrier = barrier.clone();
                Box::new(move || {
                    let mut log = ClientLog::default();
                    barrier.wait();
                    let start = Instant::now();
                    let mut last = start;
                    while last - start < total {
                        let pos = stream.lap().map_or(0, |(pos, _)| pos);
                        let Op::View(view) = stream.next_op() else {
                            unreachable!("read-only streams yield views")
                        };
                        let t0 = Instant::now();
                        let result = serve_view(&world, &view);
                        let t1 = Instant::now();
                        log.samples.push(Sample {
                            pos: pos as u32,
                            ops: 1,
                            write: false,
                            us: micros(t1 - t0),
                            wall_us: micros(t1 - last),
                        });
                        last = t1;
                        log.note(result);
                    }
                    (stream, log)
                }) as Box<dyn FnOnce() -> (Box<dyn OpStream>, ClientLog) + Send>
            })
            .collect();
        let (back, logs): (Vec<_>, Vec<_>) = pool.run(jobs).into_iter().unzip();
        *streams = back;
        logs
    };
    for log in logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.failures.extend(log.failures);
        out.clients.push(log.samples);
    }
    out.failures.truncate(5);
    out
}

/// Resident-set high-water mark of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imp(title: &str) -> Impression {
        Impression {
            source: "s".into(),
            url: None,
            title: title.into(),
            position: 0,
            is_ad: false,
            ad_campaign: None,
            ad_price_cents: None,
        }
    }

    #[test]
    fn clicks_are_position_biased() {
        let imps = vec![imp("a"), imp("b"), imp("c")];
        // Weights 1, 1/2, 1/3 of 11/6: boundaries at 6/11 and 9/11.
        assert_eq!(pick_impression(&imps, 0.0).unwrap().title, "a");
        assert_eq!(pick_impression(&imps, 0.54).unwrap().title, "a");
        assert_eq!(pick_impression(&imps, 0.55).unwrap().title, "b");
        assert_eq!(pick_impression(&imps, 0.82).unwrap().title, "c");
        assert_eq!(pick_impression(&imps, 0.999_999).unwrap().title, "c");
        assert!(pick_impression(&[], 0.5).is_none());
    }

    #[test]
    fn every_workload_verifies_clean_at_smoke_scale() {
        for w in Workload::ALL {
            let mut world = build(w, Scale::Smoke, 5);
            let mut streams: Vec<_> = (0..w.clients()).map(|c| world.stream(c)).collect();
            let mut now = 0;
            let v = verify(&mut world, &mut streams, None, &mut now);
            assert_eq!(v.failed, 0, "{w:?}: {:?}", v.failures);
            assert!(v.attempted >= (verify_ops(w, Scale::Smoke) * w.clients()) as u64);
            assert!(v.oracle_checks > 0, "{w:?}");

            // Same seed, same checksum and counts; another seed differs.
            let mut again = build(w, Scale::Smoke, 5);
            let mut s2: Vec<_> = (0..w.clients()).map(|c| again.stream(c)).collect();
            let v2 = verify(&mut again, &mut s2, None, &mut 0);
            assert_eq!(
                (v.checksum, v.attempted),
                (v2.checksum, v2.attempted),
                "{w:?}"
            );
            let mut other = build(w, Scale::Smoke, 6);
            let mut s3: Vec<_> = (0..w.clients()).map(|c| other.stream(c)).collect();
            let v3 = verify(&mut other, &mut s3, None, &mut 0);
            assert_ne!(v.checksum, v3.checksum, "{w:?}");
        }
    }

    #[test]
    fn a_short_timed_run_logs_every_client_by_position() {
        let pool = ClientPool::start(2);
        let mut world = Arc::new(build(Workload::WebCold, Scale::Smoke, 3));
        let mut streams = vec![world.stream(0)];
        let t = timed_run(&pool, &mut world, &mut streams, 0.3, &mut 0);
        assert_eq!(t.failed, 0, "{:?}", t.failures);
        assert_eq!((t.clients.len(), streams.len()), (1, 1));
        // Positions count up from the lap's start and wrap; the stream
        // comes back where the client left it.
        let lap = Workload::WebCold.lap_ops(Scale::Smoke);
        let log = &t.clients[0];
        assert!(log.len() > lap, "0.3 s cover the smoke lap");
        for (i, s) in log.iter().enumerate() {
            assert_eq!(s.pos as usize, i % lap);
            assert!(!s.write && s.ops == 1 && s.wall_us >= s.us);
        }
        assert_eq!(streams[0].lap(), Some((log.len() % lap, lap)));
        assert_eq!(log.len() as u64, t.attempted);
        // The pool is reusable, and the world is ours again after.
        let again = timed_run(&pool, &mut world, &mut streams, 0.1, &mut 0);
        assert_eq!(again.clients[0][0].pos as usize, log.len() % lap);
        assert!(Arc::get_mut(&mut world).is_some());

        let mut store = Arc::new(build(Workload::Storefront, Scale::Smoke, 3));
        let mut streams: Vec<_> = (0..2).map(|c| store.stream(c)).collect();
        let t = timed_run(&pool, &mut store, &mut streams, 0.3, &mut 0);
        assert_eq!(t.failed, 0, "{:?}", t.failures);
        assert_eq!((t.clients.len(), streams.len()), (2, 2));
        assert!(t.clients.iter().all(|c| !c.is_empty()));

        let mut live = Arc::new(build(Workload::LiveIngest, Scale::Smoke, 3));
        let mut streams = vec![live.stream(0)];
        let t = timed_run(&pool, &mut live, &mut streams, 0.3, &mut 0);
        assert_eq!(t.failed, 0, "{:?}", t.failures);
        let writes: Vec<_> = t.clients[0].iter().filter(|s| s.write).collect();
        assert!(!writes.is_empty() && writes.iter().all(|s| s.ops > 0 && s.us > 0.0));
        assert_eq!(
            t.clients[0].len(),
            writes.len() * (1 + crate::gen::CYCLE_READS)
        );
    }
}
