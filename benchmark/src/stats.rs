//! Order statistics, the reduction of a timed run's samples to its
//! metrics, and the response checksum.

use crate::metrics::Better;

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered values (mean of the two middle ones for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Arithmetic mean. `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The value a tenth of the way in from the better end (nearest
/// rank): the best of up to ten repeats, the second best of eleven to
/// twenty, and so on. `None` when empty.
///
/// The host this runs on is shared. Its interference only ever makes
/// a measurement worse, by anything up to a factor of two for seconds
/// on end, so among repeated measurements of the same work the better
/// ones are the truer ones. Ten runs of the same code spread two to
/// three times less on this value than on the median of the repeats,
/// and it takes only a tenth of a run on a quiet host to find it.
pub fn quiet_decile(values: &[f64], better: Better) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    Some(v[v.len().div_ceil(10) - 1])
}

/// One timed piece of a run: a page view, or the write half of a
/// crawl cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Position of the view in its client's lap (0 where nothing
    /// replays).
    pub pos: u32,
    /// Operations it stands for: 1 for a view, the pages ingested and
    /// removed for a write.
    pub ops: u32,
    /// Whether it is a write.
    pub write: bool,
    /// How long it took, µs.
    pub us: f64,
    /// Wall time since the client's previous sample ended (or since
    /// the client started), µs: `us` plus what the harness spent in
    /// between.
    pub wall_us: f64,
}

/// The timing metrics of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Operations per second.
    pub ops_per_s: f64,
    /// Median view latency (µs).
    pub p50_us: f64,
    /// 99th-percentile view latency (µs).
    pub p99_us: f64,
    /// Mean latency over every view sample (µs).
    pub mean_us: f64,
    /// Pages per second of write time, where the run wrote.
    pub ingest_docs_per_s: Option<f64>,
    /// Values each percentile was taken over: positions of the lap, or
    /// views of the smallest lap.
    pub percentile_over: usize,
    /// Repeats the quiet decile was taken over: the fewest samples any
    /// position has, or the laps completed.
    pub repeats: usize,
}

/// Reduce the samples of a lap that costs the same work every time it
/// is replayed. Each position of the lap has a time of its own, the
/// quiet decile of its samples; `p50_us` and `p99_us` are
/// percentiles over the positions, and `ops_per_s` is the positions
/// over the sum of their times. `None` without samples.
pub fn by_position(samples: &[Sample]) -> Option<Timing> {
    let positions = samples.iter().map(|s| s.pos as usize + 1).max()?;
    let mut at: Vec<Vec<f64>> = vec![Vec::new(); positions];
    for s in samples {
        at[s.pos as usize].push(s.us);
    }
    let mut times: Vec<f64> = at
        .iter()
        .filter_map(|v| quiet_decile(v, Better::Lower))
        .collect();
    times.sort_by(f64::total_cmp);
    Some(Timing {
        ops_per_s: times.len() as f64 * 1e6 / times.iter().sum::<f64>(),
        p50_us: percentile(&times, 50.0),
        p99_us: percentile(&times, 99.0),
        mean_us: mean(&samples.iter().map(|s| s.us).collect::<Vec<_>>())?,
        ingest_docs_per_s: None,
        percentile_over: times.len(),
        repeats: at.iter().map(Vec::len).filter(|n| *n > 0).min()?,
    })
}

/// Reduce the samples of laps that differ from one another (a cache
/// in another state, an index that has grown): every client's samples
/// are cut into consecutive laps of `lap` samples, each lap gets its
/// own operations per second (times the number of clients), median
/// and 99th percentile, and each metric is the quiet decile of its
/// per-lap values. A run too short for one whole lap counts as one.
/// `None` without view samples.
pub fn by_lap(clients: &[Vec<Sample>], lap: usize) -> Option<Timing> {
    let whole: Vec<&[Sample]> = clients
        .iter()
        .flat_map(|c| c.chunks_exact(lap.max(1)))
        .collect();
    let laps = if whole.is_empty() {
        clients.iter().map(Vec::as_slice).collect()
    } else {
        whole
    };
    let (mut ops, mut p50, mut p99, mut ingest) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut views_min = usize::MAX;
    for lap in &laps {
        let mut views: Vec<f64> = lap.iter().filter(|s| !s.write).map(|s| s.us).collect();
        if views.is_empty() {
            continue;
        }
        views.sort_by(f64::total_cmp);
        views_min = views_min.min(views.len());
        p50.push(percentile(&views, 50.0));
        p99.push(percentile(&views, 99.0));
        let done: f64 = lap.iter().map(|s| s.ops as f64).sum();
        let wall: f64 = lap.iter().map(|s| s.wall_us).sum();
        ops.push(done * 1e6 / wall * clients.len() as f64);
        let written: f64 = lap.iter().filter(|s| s.write).map(|s| s.ops as f64).sum();
        if written > 0.0 {
            let write_us: f64 = lap.iter().filter(|s| s.write).map(|s| s.us).sum();
            ingest.push(written * 1e6 / write_us);
        }
    }
    let views: Vec<f64> = clients
        .iter()
        .flatten()
        .filter(|s| !s.write)
        .map(|s| s.us)
        .collect();
    Some(Timing {
        ops_per_s: quiet_decile(&ops, Better::Higher)?,
        p50_us: quiet_decile(&p50, Better::Lower)?,
        p99_us: quiet_decile(&p99, Better::Lower)?,
        mean_us: mean(&views)?,
        ingest_docs_per_s: quiet_decile(&ingest, Better::Higher),
        percentile_over: views_min,
        repeats: p50.len(),
    })
}

/// 64-bit FNV-1a, continued from `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 51.0), 3.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn the_quiet_decile_counts_from_the_better_end() {
        let v: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        assert_eq!(quiet_decile(&v[..10], Better::Lower), Some(16.0));
        assert_eq!(quiet_decile(&v[..11], Better::Lower), Some(16.0));
        assert_eq!(quiet_decile(&v, Better::Lower), Some(3.0));
        assert_eq!(quiet_decile(&v, Better::Higher), Some(23.0));
        assert_eq!(quiet_decile(&[9.0], Better::Higher), Some(9.0));
        assert_eq!(quiet_decile(&[], Better::Lower), None);
    }

    fn view(pos: u32, us: f64) -> Sample {
        Sample {
            pos,
            ops: 1,
            write: false,
            us,
            wall_us: us + 1.0,
        }
    }

    #[test]
    fn disturbed_laps_do_not_move_a_position() {
        // 100 positions costing 1..=100 µs, replayed 8 times; all but
        // laps 2 and 3 ran on a host three times slower.
        let mut samples = Vec::new();
        for lap in 0..8 {
            let slow = if (2..4).contains(&lap) { 1.0 } else { 3.0 };
            for pos in 0..100u32 {
                samples.push(view(pos, f64::from(pos + 1) * slow));
            }
        }
        let t = by_position(&samples).unwrap();
        assert_eq!(t.p50_us, 50.0);
        assert_eq!(t.p99_us, 99.0);
        assert_eq!(t.ops_per_s, 100.0 * 1e6 / 5050.0);
        assert_eq!((t.percentile_over, t.repeats), (100, 8));
        assert_eq!(t.ingest_docs_per_s, None);
        // The mean, by contrast, is over every sample.
        assert!(t.mean_us > 50.5);
        // A stretch that starts mid-lap leaves some positions with a
        // sample fewer; none is lost.
        let t = by_position(&samples[30..]).unwrap();
        assert_eq!((t.p50_us, t.percentile_over, t.repeats), (50.0, 100, 7));
        // With eleven repeats the best one no longer counts: a single
        // lucky timing of each position moves nothing.
        for lap in 8..11 {
            for pos in 0..100u32 {
                let lucky = if lap == 8 { 0.5 } else { 3.0 };
                samples.push(view(pos, f64::from(pos + 1) * lucky));
            }
        }
        assert_eq!(by_position(&samples).unwrap().p50_us, 50.0);
        assert!(by_position(&[]).is_none());
    }

    #[test]
    fn laps_are_reduced_one_by_one_and_writes_are_rated_on_write_time() {
        // Two clients, laps of 4 samples: a write of 18 pages, then
        // three views. The second client is twice as slow in its
        // second lap.
        let lap = |scale: f64| {
            vec![
                Sample {
                    pos: 0,
                    ops: 18,
                    write: true,
                    us: 9000.0 * scale,
                    wall_us: 9000.0 * scale,
                },
                view(0, 10.0 * scale),
                view(0, 20.0 * scale),
                view(0, 30.0 * scale),
            ]
        };
        let mut a = lap(1.0);
        a.extend(lap(1.0));
        a.extend(lap(1.0)[..2].to_vec()); // an unfinished lap is left out
        let mut b = lap(1.0);
        b.extend(lap(2.0));
        let t = by_lap(&[a, b], 4).unwrap();
        assert_eq!(t.repeats, 4);
        assert_eq!(t.percentile_over, 3);
        assert_eq!(t.p50_us, 20.0);
        assert_eq!(t.p99_us, 30.0);
        assert_eq!(t.ingest_docs_per_s, Some(2000.0));
        // 21 operations in 9063 µs of one client's wall time, times two.
        assert_eq!(t.ops_per_s, 21.0 * 1e6 / 9063.0 * 2.0);
        // Too short for a whole lap: what there is counts as one.
        let t = by_lap(&[lap(1.0)[..3].to_vec()], 4).unwrap();
        assert_eq!((t.repeats, t.p50_us), (1, 10.0));
        assert!(by_lap(&[Vec::new()], 4).is_none());
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Chaining equals hashing the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
