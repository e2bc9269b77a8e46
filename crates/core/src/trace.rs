//! Execution traces — the runtime's account of Fig. 2.
//!
//! Every query through the platform produces a tree of stages with
//! virtual timings: snippet receipt, primary content queries,
//! per-result supplemental fan-out, merge/format, response. The Fig.-2
//! report binary pretty-prints this tree.

/// One stage in an execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// Stage label ("primary: inventory").
    pub label: String,
    /// Virtual milliseconds attributed to this stage (exclusive of
    /// children unless stated in the label).
    pub virtual_ms: u32,
    /// Extra detail ("3 results", "error: timed out").
    pub detail: String,
    /// Sub-stages.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Leaf node.
    pub(crate) fn leaf(
        label: impl Into<String>,
        virtual_ms: u32,
        detail: impl Into<String>,
    ) -> TraceNode {
        TraceNode {
            label: label.into(),
            virtual_ms,
            detail: detail.into(),
            children: Vec::new(),
        }
    }

    /// Node with children.
    pub(crate) fn group(
        label: impl Into<String>,
        virtual_ms: u32,
        detail: impl Into<String>,
        children: Vec<TraceNode>,
    ) -> TraceNode {
        TraceNode {
            label: label.into(),
            virtual_ms,
            detail: detail.into(),
            children,
        }
    }

    /// Total nodes in the subtree.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        1 + self.children.iter().map(|c| c.node_count()).sum::<usize>()
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
    /// Number of source fetches that ended in a soft error (their
    /// slots rendered degraded).
    pub error_count: u32,
    /// True when any slot degraded — the response served partial
    /// results.
    pub degraded: bool,
    /// True when admission control shed this query before execution:
    /// the response is the degraded layout shell, and no source fetch,
    /// breaker, or cache was ever consulted.
    pub shed: bool,
    /// Source fetches served from the platform's shared L2 source
    /// cache (completed before this query's virtual start).
    pub l2_hits: u32,
    /// Source fetches that missed the L2 cache and executed against
    /// the live source (uncacheable source kinds are not counted).
    pub l2_misses: u32,
    /// Source fetches coalesced onto another request's execution
    /// (singleflight, or an outcome completing within this query's
    /// virtual window).
    pub l2_coalesced: u32,
    /// Stage tree.
    pub stages: Vec<TraceNode>,
}

impl ExecutionTrace {
    /// Pretty-print as an indented tree (the Fig.-2 rendering).
    pub fn render(&self) -> String {
        let mut out = format!(
            "query {:?} on application {:?} — {} virtual ms{}\n",
            self.query,
            self.app,
            self.total_ms,
            if self.cache_hit { " (cache hit)" } else { "" }
        );
        if self.shed {
            out.push_str("  (shed: admission control refused execution)\n");
        } else if self.degraded {
            out.push_str(&format!(
                "  (degraded: {} source error{})\n",
                self.error_count,
                if self.error_count == 1 { "" } else { "s" }
            ));
        }
        if self.l2_hits + self.l2_coalesced > 0 {
            out.push_str(&format!(
                "  (source cache: {} hit{}, {} coalesced, {} miss{})\n",
                self.l2_hits,
                if self.l2_hits == 1 { "" } else { "s" },
                self.l2_coalesced,
                self.l2_misses,
                if self.l2_misses == 1 { "" } else { "es" }
            ));
        }
        fn go(node: &TraceNode, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth + 1));
            out.push_str(&format!("├─ {} [{} ms]", node.label, node.virtual_ms));
            if !node.detail.is_empty() {
                out.push_str(&format!(" — {}", node.detail));
            }
            out.push('\n');
            for c in &node.children {
                go(c, depth + 1, out);
            }
        }
        for s in &self.stages {
            go(s, 0, &mut out);
        }
        out
    }

    /// Find a stage by label prefix, depth-first.
    pub fn find(&self, label_prefix: &str) -> Option<&TraceNode> {
        fn go<'a>(nodes: &'a [TraceNode], prefix: &str) -> Option<&'a TraceNode> {
            for n in nodes {
                if n.label.starts_with(prefix) {
                    return Some(n);
                }
                if let Some(hit) = go(&n.children, prefix) {
                    return Some(hit);
                }
            }
            None
        }
        go(&self.stages, label_prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ExecutionTrace {
        ExecutionTrace {
            app: "GamerQueen".into(),
            query: "space shooter".into(),
            total_ms: 87,
            cache_hit: false,
            error_count: 0,
            degraded: false,
            shed: false,
            l2_hits: 0,
            l2_misses: 0,
            l2_coalesced: 0,
            stages: vec![
                TraceNode::leaf("receive snippet request", 1, ""),
                TraceNode::group(
                    "primary: inventory",
                    5,
                    "2 results",
                    vec![TraceNode::leaf("supplemental: reviews", 35, "3 results")],
                ),
                TraceNode::leaf("merge + format", 2, ""),
            ],
        }
    }

    #[test]
    fn render_includes_all_stages() {
        let text = trace().render();
        assert!(text.contains("GamerQueen"));
        assert!(text.contains("primary: inventory [5 ms] — 2 results"));
        assert!(text.contains("    ├─ supplemental: reviews"));
        assert!(text.contains("87 virtual ms"));
    }

    #[test]
    fn cache_hit_marker() {
        let mut t = trace();
        t.cache_hit = true;
        assert!(t.render().contains("(cache hit)"));
    }

    #[test]
    fn find_by_prefix() {
        let t = trace();
        assert_eq!(t.find("primary").unwrap().virtual_ms, 5);
        assert_eq!(t.find("supplemental: rev").unwrap().detail, "3 results");
        assert!(t.find("nothing").is_none());
    }

    #[test]
    fn node_count() {
        assert_eq!(trace().stages[1].node_count(), 2);
    }

    #[test]
    fn source_cache_marker_in_render() {
        let mut t = trace();
        assert!(!t.render().contains("source cache"));
        t.l2_hits = 2;
        t.l2_misses = 1;
        assert!(t
            .render()
            .contains("(source cache: 2 hits, 0 coalesced, 1 miss)"));
    }

    #[test]
    fn degraded_marker_in_render() {
        let mut t = trace();
        assert!(!t.render().contains("degraded"));
        t.error_count = 2;
        t.degraded = true;
        assert!(t.render().contains("degraded: 2 source errors"));
    }

    #[test]
    fn shed_marker_supersedes_degraded() {
        let mut t = trace();
        t.degraded = true;
        t.shed = true;
        let text = t.render();
        assert!(text.contains("(shed: admission control refused execution)"));
        assert!(!text.contains("source error"));
    }
}
