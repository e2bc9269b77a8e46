//! Execution traces — the runtime's account of Fig. 2.
//!
//! Every query through the platform produces a tree of typed stages
//! with virtual timings: snippet receipt, primary content queries,
//! per-result supplemental fan-out, merge/format. A stage records what
//! it was ([`SpanKind`]), the source it fetched, how the L2 source
//! cache served it ([`FetchStatus`]) and how it ended ([`Outcome`]);
//! [`ExecutionTrace::render`] alone turns them into the Fig.-2 text.

use crate::runtime::ExecMode;
use crate::source_cache::{FetchStatus, Fetched};
use std::fmt;

/// What one stage of Fig. 2 did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The embedded snippet's request arriving.
    Receive,
    /// Admission control refusing the query (shed responses only).
    Admission,
    /// One primary content source, fetched for a list of up to `max`.
    Primary {
        /// The list's size.
        max: usize,
    },
    /// The supplemental fan-out; its children are the fetches.
    Fanout {
        /// How the fetches combined.
        mode: ExecMode,
        /// Threads a parallel fan-out occupied, the caller included (0
        /// when the L2 answered every fetch, and when sequential); it
        /// follows the host's cores, so `render` leaves it out.
        workers: usize,
    },
    /// One supplemental fetch, templated from a primary result.
    Supplemental {
        /// The primary result's position in its list.
        item: usize,
    },
    /// Merge and format the page.
    Merge {
        /// Bytes of HTML written.
        bytes: usize,
    },
}

/// How a stage ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed; a fetch returned `results` items (other stages 0).
    Ok {
        /// Results returned.
        results: usize,
    },
    /// Admission control refused the query: nothing was fetched.
    Shed,
    /// The deadline budget could not cover the fetch or its wait.
    DeadlineCut,
    /// The endpoint's circuit breaker fast-failed the call.
    CircuitOpen,
    /// The service call timed out.
    TimedOut,
    /// The source panicked.
    Panicked,
    /// Any other soft error (a missing table, a service fault, ...).
    Failed,
}

impl Outcome {
    /// True for the outcomes that degrade a slot: all but `Ok`, `Shed`.
    pub fn is_error(self) -> bool {
        !matches!(self, Outcome::Ok { .. } | Outcome::Shed)
    }
}

/// One stage in an execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// What the stage did.
    pub kind: SpanKind,
    /// The source a primary or supplemental stage fetched.
    pub source: Option<String>,
    /// How the L2 served the fetch (`Uncached` when nothing was).
    pub l2: FetchStatus,
    /// How the stage ended.
    pub outcome: Outcome,
    /// Virtual milliseconds attributed to this stage.
    pub virtual_ms: u32,
    /// Free text: a supplemental fetch's query, or a shed's reason.
    pub detail: String,
    /// The error message of a failed fetch.
    pub error: Option<String>,
    /// Sub-stages.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// A stage that fetches nothing and ends `Ok`.
    pub(crate) fn stage(kind: SpanKind, virtual_ms: u32, children: Vec<TraceNode>) -> TraceNode {
        TraceNode {
            kind,
            source: None,
            l2: FetchStatus::Uncached,
            outcome: Outcome::Ok { results: 0 },
            virtual_ms,
            detail: String::new(),
            error: None,
            children,
        }
    }

    /// The stage of one source fetch.
    pub(crate) fn fetch(kind: SpanKind, source: &str, f: &Fetched, detail: String) -> TraceNode {
        let results = f.outcome.items.len();
        TraceNode {
            source: Some(source.to_string()),
            l2: f.status,
            outcome: f.failure.unwrap_or(Outcome::Ok { results }),
            detail,
            error: f.outcome.error.clone(),
            ..TraceNode::stage(kind, f.charged_ms, Vec::new())
        }
    }
}

/// A full query trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    /// Application name.
    pub app: String,
    /// The user query.
    pub query: String,
    /// Total virtual time of the request.
    pub total_ms: u32,
    /// Whether the response came from the result cache.
    pub cache_hit: bool,
    /// True when any slot degraded: the response served partial results.
    pub degraded: bool,
    /// True when admission control shed this query before execution:
    /// the response is the degraded layout shell, and no source fetch,
    /// breaker, or cache was ever consulted.
    pub shed: bool,
    /// Stage tree.
    pub stages: Vec<TraceNode>,
}

impl ExecutionTrace {
    /// A trace of an executed query, degraded when any stage errored.
    pub(crate) fn new(app: &str, query: &str, total_ms: u32, stages: Vec<TraceNode>) -> Self {
        let trace = ExecutionTrace {
            app: app.to_string(),
            query: query.to_string(),
            total_ms,
            cache_hit: false,
            degraded: false,
            shed: false,
            stages,
        };
        let degraded = trace.nodes().any(|n| n.outcome.is_error());
        ExecutionTrace { degraded, ..trace }
    }

    /// Every stage, depth-first in rendering order.
    pub fn nodes(&self) -> impl Iterator<Item = &TraceNode> {
        let mut stack: Vec<&TraceNode> = self.stages.iter().rev().collect();
        std::iter::from_fn(move || {
            let node = stack.pop()?;
            stack.extend(node.children.iter().rev());
            Some(node)
        })
    }

    /// The first stage, depth-first, that fetched `source`.
    pub fn slot(&self, source: &str) -> Option<&TraceNode> {
        self.nodes().find(|n| n.source.as_deref() == Some(source))
    }

    /// Pretty-print as an indented tree (the Fig.-2 rendering).
    pub fn render(&self) -> String {
        self.to_string()
    }

    fn fmt_node(&self, node: &TraceNode, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ms, source) = (node.virtual_ms, node.source.as_deref().unwrap_or_default());
        let (app, detail) = (&self.app, &node.detail);
        write!(f, "{:w$}├─ ", "", w = 2 * depth)?;
        match node.kind {
            SpanKind::Receive => write!(
                f,
                "receive query from embedded snippet [{ms} ms] — app {app:?}"
            )?,
            SpanKind::Admission => write!(f, "admission control [{ms} ms] — shed: {detail}")?,
            SpanKind::Primary { .. } => write!(f, "primary: {source} [{ms} ms] — ")?,
            SpanKind::Fanout { mode, .. } => {
                let how = match mode {
                    ExecMode::Parallel => "parallel: max",
                    ExecMode::Sequential => "sequential: sum",
                };
                let n = node.children.len();
                write!(f, "supplemental fan-out [{ms} ms] — {how} of {n} fetches")?
            }
            SpanKind::Supplemental { item } => {
                write!(f, "supplemental: {source} for item #{item} [{ms} ms] — ")?;
                write!(f, "query {detail:?} — ")?
            }
            SpanKind::Merge { bytes } => {
                let shell = if self.shed { " (empty shell)" } else { "" };
                write!(f, "merge + format HTML [{ms} ms] — {bytes} bytes{shell}")?
            }
        }
        if node.source.is_some() {
            match (node.outcome, node.kind) {
                (Outcome::Shed, _) => write!(f, "not fetched (shed)")?,
                (Outcome::Ok { results }, SpanKind::Primary { max }) => {
                    write!(f, "{results} results (max {max})")?
                }
                (Outcome::Ok { results }, _) => write!(f, "{results} results")?,
                _ => write!(f, "error: {}", node.error.as_deref().unwrap_or_default())?,
            }
        }
        f.write_str(match node.l2 {
            FetchStatus::Hit => " (L2 hit)\n",
            FetchStatus::Coalesced => " (L2 coalesced)\n",
            FetchStatus::Uncached | FetchStatus::Miss => "\n",
        })?;
        node.children
            .iter()
            .try_for_each(|c| self.fmt_node(c, depth + 1, f))
    }
}

impl fmt::Display for ExecutionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [errors, hits, coalesced, misses] = self.nodes().fold([0u32; 4], |mut t, n| {
            t[0] += u32::from(n.outcome.is_error());
            match n.l2 {
                FetchStatus::Hit => t[1] += 1,
                FetchStatus::Coalesced => t[2] += 1,
                FetchStatus::Miss => t[3] += 1,
                FetchStatus::Uncached => {}
            }
            t
        });
        let plural = |n: u32, many: &'static str| if n == 1 { "" } else { many };
        let hit = if self.cache_hit { " (cache hit)" } else { "" };
        let (query, app, total) = (&self.query, &self.app, self.total_ms);
        writeln!(
            f,
            "query {query:?} on application {app:?} — {total} virtual ms{hit}"
        )?;
        if self.shed {
            writeln!(f, "  (shed: admission control refused execution)")?;
        } else if self.degraded {
            let s = plural(errors, "s");
            writeln!(f, "  (degraded: {errors} source error{s})")?;
        }
        if hits + coalesced > 0 {
            let (s, es) = (plural(hits, "s"), plural(misses, "es"));
            writeln!(
                f,
                "  (source cache: {hits} hit{s}, {coalesced} coalesced, {misses} miss{es})"
            )?;
        }
        self.stages.iter().try_for_each(|s| self.fmt_node(s, 1, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(
        kind: SpanKind,
        source: &str,
        ms: u32,
        outcome: Outcome,
        l2: FetchStatus,
    ) -> TraceNode {
        TraceNode {
            source: Some(source.into()),
            outcome,
            l2,
            ..TraceNode::stage(kind, ms, Vec::new())
        }
    }

    fn trace() -> ExecutionTrace {
        let review = TraceNode {
            detail: "Galactic Raiders review".into(),
            ..fetch(
                SpanKind::Supplemental { item: 0 },
                "reviews",
                35,
                Outcome::Ok { results: 3 },
                FetchStatus::Uncached,
            )
        };
        let fanout = SpanKind::Fanout {
            mode: ExecMode::Parallel,
            workers: 2,
        };
        ExecutionTrace::new(
            "GamerQueen",
            "space shooter",
            87,
            vec![
                TraceNode::stage(SpanKind::Receive, 1, Vec::new()),
                fetch(
                    SpanKind::Primary { max: 10 },
                    "inventory",
                    5,
                    Outcome::Ok { results: 2 },
                    FetchStatus::Uncached,
                ),
                TraceNode::stage(fanout, 35, vec![review]),
                TraceNode::stage(SpanKind::Merge { bytes: 512 }, 2, Vec::new()),
            ],
        )
    }

    #[test]
    fn render_includes_all_stages() {
        assert_eq!(
            trace().render(),
            "query \"space shooter\" on application \"GamerQueen\" — 87 virtual ms\n\
             \x20 ├─ receive query from embedded snippet [1 ms] — app \"GamerQueen\"\n\
             \x20 ├─ primary: inventory [5 ms] — 2 results (max 10)\n\
             \x20 ├─ supplemental fan-out [35 ms] — parallel: max of 1 fetches\n\
             \x20   ├─ supplemental: reviews for item #0 [35 ms] — query \"Galactic Raiders review\" — 3 results\n\
             \x20 ├─ merge + format HTML [2 ms] — 512 bytes\n"
        );
    }

    #[test]
    fn cache_hit_marker() {
        let mut t = trace();
        t.cache_hit = true;
        assert!(t.render().contains("(cache hit)"));
    }

    #[test]
    fn slot_finds_a_source() {
        let t = trace();
        assert_eq!(t.slot("inventory").unwrap().virtual_ms, 5);
        assert_eq!(t.slot("reviews").unwrap().detail, "Galactic Raiders review");
        assert!(t.slot("nothing").is_none());
    }

    #[test]
    fn node_count() {
        let t = trace();
        let kinds: Vec<SpanKind> = t.nodes().map(|n| n.kind).collect();
        assert_eq!(kinds.len(), 5, "every stage, depth-first");
        assert_eq!(kinds[3], SpanKind::Supplemental { item: 0 });
        assert_eq!(t.stages[2].children.len(), 1);
    }

    #[test]
    fn source_cache_marker_in_render() {
        let mut t = trace();
        assert!(!t.render().contains("source cache"));
        t.stages[1].l2 = FetchStatus::Hit;
        t.stages[2].children[0].l2 = FetchStatus::Miss;
        let text = t.render();
        assert!(text.contains("(source cache: 1 hit, 0 coalesced, 1 miss)"));
        assert!(text.contains("2 results (max 10) (L2 hit)\n"));
    }

    #[test]
    fn degraded_marker_in_render() {
        let mut t = trace();
        assert!(!t.degraded);
        t.stages[1].outcome = Outcome::TimedOut;
        t.stages[1].error = Some("timed out at 40ms".into());
        t.stages[2].children[0].outcome = Outcome::CircuitOpen;
        t.stages[2].children[0].error = Some("circuit open".into());
        t.degraded = true;
        let text = t.render();
        assert!(text.contains("degraded: 2 source errors"));
        assert!(text.contains("primary: inventory [5 ms] — error: timed out at 40ms\n"));
        assert!(text.contains("— query \"Galactic Raiders review\" — error: circuit open\n"));
    }

    #[test]
    fn shed_marker_supersedes_degraded() {
        let mut t = trace();
        t.degraded = true;
        t.shed = true;
        let text = t.render();
        assert!(text.contains("(shed: admission control refused execution)"));
        assert!(!text.contains("source error"));
        assert!(text.contains("512 bytes (empty shell)"));
    }

    #[test]
    fn only_failures_are_errors() {
        assert!(!Outcome::Ok { results: 0 }.is_error());
        assert!(!Outcome::Shed.is_error());
        for o in [
            Outcome::DeadlineCut,
            Outcome::CircuitOpen,
            Outcome::TimedOut,
            Outcome::Panicked,
            Outcome::Failed,
        ] {
            assert!(o.is_error(), "{o:?}");
        }
    }
}
