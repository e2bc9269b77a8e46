//! PageRank over the synthetic link graph.
//!
//! The engine blends BM25 with a static rank; on the synthetic web the
//! static rank is PageRank mixed with the site's editorial quality, so
//! authoritative sites (gamespot, winespectator, ...) surface first —
//! the behaviour Symphony's site-restricted supplemental searches rely
//! on.

use crate::corpus::Corpus;

/// Damping factor (the classic 0.85).
pub(crate) const DAMPING: f64 = 0.85;

/// Compute PageRank with `iterations` of power iteration. Returns one
/// score per page, summing to ~1.
pub(crate) fn pagerank(corpus: &Corpus, iterations: usize) -> Vec<f64> {
    let n = corpus.pages.len();
    if n == 0 {
        return Vec::new();
    }
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0;
        for (i, page) in corpus.pages.iter().enumerate() {
            if page.links.is_empty() {
                dangling += rank[i];
            } else {
                let share = rank[i] / page.links.len() as f64;
                for &t in &page.links {
                    next[t] += share;
                }
            }
        }
        let base = (1.0 - DAMPING) / n as f64 + DAMPING * dangling / n as f64;
        for x in next.iter_mut() {
            *x = base + DAMPING * *x;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Static rank per page in `[0, 1]`: normalized PageRank blended with
/// site quality (60% quality, 40% link signal).
pub(crate) fn static_rank(corpus: &Corpus, iterations: usize) -> Vec<f64> {
    let pr = pagerank(corpus, iterations);
    let max = pr.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    pr.iter()
        .enumerate()
        .map(|(i, &r)| 0.6 * corpus.quality(i) + 0.4 * (r / max))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            sites_per_topic: 2,
            pages_per_site: 5,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn ranks_sum_to_one() {
        let c = corpus();
        let pr = pagerank(&c, 20);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn all_ranks_positive() {
        let c = corpus();
        assert!(pagerank(&c, 20).iter().all(|&r| r > 0.0));
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::generate(&CorpusConfig {
            sites_per_topic: 0,
            pages_per_site: 0,
            ..CorpusConfig::default()
        });
        assert!(pagerank(&c, 5).is_empty());
    }

    #[test]
    fn static_rank_in_unit_interval_and_tracks_quality() {
        let c = corpus();
        let sr = static_rank(&c, 20);
        assert!(sr.iter().all(|&r| (0.0..=1.0).contains(&r)));
        // The best authoritative page outranks the average generic one.
        let auth_best = (0..c.pages.len())
            .filter(|&i| c.quality(i) > 0.9)
            .map(|i| sr[i])
            .fold(f64::MIN, f64::max);
        let generic_avg = {
            let xs: Vec<f64> = (0..c.pages.len())
                .filter(|&i| c.quality(i) < 0.8)
                .map(|i| sr[i])
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(auth_best > generic_avg);
    }

    #[test]
    fn more_iterations_converge() {
        let c = corpus();
        let a = pagerank(&c, 30);
        let b = pagerank(&c, 60);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff < 1e-3, "diff = {diff}");
    }
}
