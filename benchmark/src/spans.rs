//! Spans recorded from outside the program, and the self-time rule.
//!
//! The product code carries no timers yet, so a traced run wraps the
//! calls it makes itself. Two kinds of child exist:
//!
//! * a **nested** child really ran inside its parent's interval (the
//!   clicks of a page view, the writes of an ingest cycle);
//! * a **replayed** child ran after its parent returned: the harness
//!   called the layer below with the same input, to learn how much of
//!   the parent's time that layer accounts for.
//!
//! A span's self time is its duration minus what its children cover:
//! the union of the nested children's intervals (clipped to the span)
//! plus the summed durations of the replayed ones. A replay can take
//! longer than the call it replays, so the signed difference can dip
//! below zero: averaged over many operations it is an unbiased
//! estimate, while shares of a whole use the value floored at zero.

use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`runtime.exec`, `source.web`, …).
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation all spans of one request share.
    pub op_id: u64,
    /// Whether the call was replayed after its parent returned.
    pub replayed: bool,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log for one client thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Every span recorded so far, in start order of completion.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch` (share one epoch
    /// between the clients of a run so their spans line up).
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Run `f`, record a span around it, and return its result with
    /// the span's index (to parent further spans on).
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        replayed: bool,
        f: impl FnOnce(&mut Recorder, usize) -> T,
    ) -> (T, usize) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op_id,
            replayed,
        });
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self, idx);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans[idx].start_ns = start;
        self.spans[idx].end_ns = end;
        (out, idx)
    }

    /// Like [`record`](Self::record) for a call that records no
    /// children of its own.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        replayed: bool,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        self.record(name, parent, op_id, replayed, |_, _| f())
    }
}

/// Signed self time of every span, in ns, by the rule in the module
/// docs. Parents must precede their children (as [`Recorder`]
/// guarantees).
pub fn signed_self_times(spans: &[Span]) -> Vec<i64> {
    let mut nested: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut replayed = vec![0u64; spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        if s.replayed {
            replayed[p] += s.duration_ns();
        } else {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                nested[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut iv = std::mem::take(&mut nested[i]);
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (lo, hi) in iv {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() as i64 - (covered + replayed[i]) as i64
        })
        .collect()
}

/// Write spans as JSON lines: `name, start_ns, end_ns, parent, op_id,
/// replayed, client`.
pub fn write_jsonl(path: &std::path::Path, clients: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, spans) in clients.iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"op_id\": {}, \"replayed\": {}, \"client\": {client}}}",
                s.name, s.start_ns, s.end_ns, s.op_id, s.replayed
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>, replayed: bool) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
            replayed,
        }
    }

    #[test]
    fn nested_children_subtract_the_union_of_their_intervals() {
        let spans = vec![
            span(0, 100, None, false),
            // Overlapping pair: covers 10..50, not 30 + 30.
            span(10, 40, Some(0), false),
            span(20, 50, Some(0), false),
            // Disjoint, partly outside the parent: covers 90..100.
            span(90, 130, Some(0), false),
            // Grandchild: comes off span 1, not off the root.
            span(15, 25, Some(1), false),
        ];
        assert_eq!(signed_self_times(&spans), vec![50, 20, 30, 40, 10]);
    }

    #[test]
    fn replayed_children_subtract_their_durations() {
        let spans = vec![
            span(0, 100, None, false),
            span(200, 230, Some(0), true),
            span(300, 340, Some(0), true),
            // Replays of the layer below the first replay.
            span(400, 425, Some(1), true),
        ];
        assert_eq!(signed_self_times(&spans), vec![30, 5, 40, 25]);
    }

    #[test]
    fn both_kinds_mix_and_a_slow_replay_goes_negative() {
        let spans = vec![
            span(0, 100, None, false),
            span(10, 60, Some(0), false),
            span(500, 580, Some(0), true),
        ];
        assert_eq!(signed_self_times(&spans), vec![-30, 50, 80]);
    }

    #[test]
    fn recorder_parents_and_orders_spans() {
        let mut r = Recorder::new(Instant::now());
        let (v, root) = r.record("root", None, 7, false, |r, me| {
            let (_, child) = r.leaf("child", Some(me), 7, false, || 1 + 1);
            child
        });
        assert_eq!((root, v), (0, 1));
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.spans[0].start_ns <= r.spans[1].start_ns);
        assert!(r.spans[1].end_ns <= r.spans[0].end_ns);
        assert_eq!(r.spans[0].op_id, 7);
    }
}
