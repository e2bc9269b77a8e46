//! Relevance metrics for the E5 scenario comparison.
//!
//! The ideal result for a GamerQueen customer query mixes the matching
//! inventory item (what the store actually sells — gain 2) with
//! editorial reviews of that item from the designated review sites
//! (gain 1). NDCG@k against that ideal quantifies the paper's central
//! claim: combining proprietary data with focused web results beats
//! either side alone.

use crate::model::ScenarioResult;
use crate::scenario::REVIEW_SITES;

/// Gain of one result for a target inventory title.
pub(crate) fn gain(result: &ScenarioResult, target_title: &str, inventory_host: &str) -> f64 {
    let title_match = result
        .title
        .to_lowercase()
        .contains(&target_title.to_lowercase());
    if result.url.contains(inventory_host) && title_match {
        return 2.0;
    }
    if title_match && REVIEW_SITES.iter().any(|s| result.url.contains(s)) {
        return 1.0;
    }
    0.0
}

/// Discounted cumulative gain at `k`.
pub(crate) fn dcg(gains: &[f64], k: usize) -> f64 {
    gains
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, g)| g / ((i + 2) as f64).log2())
        .sum()
}

/// NDCG@k of a result list for a target title.
///
/// The ideal list is one inventory hit (gain 2) followed by
/// `REVIEW_SITES.len()` reviews (gain 1 each).
pub fn ndcg_at_k(results: &[ScenarioResult], target_title: &str, k: usize) -> f64 {
    let inventory_host = "gamerqueen.example.com";
    let gains: Vec<f64> = results
        .iter()
        .map(|r| gain(r, target_title, inventory_host))
        .collect();
    let mut ideal = vec![2.0];
    ideal.extend(std::iter::repeat_n(1.0, REVIEW_SITES.len()));
    let idcg = dcg(&ideal, k);
    if idcg == 0.0 {
        0.0
    } else {
        (dcg(&gains, k) / idcg).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(title: &str, url: &str) -> ScenarioResult {
        ScenarioResult {
            title: title.into(),
            url: url.into(),
            origin: "x".into(),
        }
    }

    #[test]
    fn gains() {
        let host = "gamerqueen.example.com";
        assert_eq!(
            gain(
                &r("Galactic Raiders", "http://gamerqueen.example.com/games/gr"),
                "Galactic Raiders",
                host
            ),
            2.0
        );
        assert_eq!(
            gain(
                &r("Galactic Raiders review", "http://gamespot.com/review/gr"),
                "Galactic Raiders",
                host
            ),
            1.0
        );
        assert_eq!(
            gain(
                &r("Unrelated", "http://gamespot.com/other"),
                "Galactic Raiders",
                host
            ),
            0.0
        );
        // A review on a non-designated site gains nothing.
        assert_eq!(
            gain(
                &r(
                    "Galactic Raiders review",
                    "http://randomblog.example.com/gr"
                ),
                "Galactic Raiders",
                host
            ),
            0.0
        );
    }

    #[test]
    fn dcg_discounts_by_position() {
        assert!(dcg(&[2.0, 0.0], 2) > dcg(&[0.0, 2.0], 2));
        assert_eq!(dcg(&[], 5), 0.0);
    }

    #[test]
    fn perfect_list_scores_one() {
        let results = vec![
            r("Galactic Raiders", "http://gamerqueen.example.com/games/gr"),
            r("Galactic Raiders review", "http://gamespot.com/r"),
            r("Galactic Raiders review", "http://ign.com/r"),
            r("Galactic Raiders review", "http://teamxbox.com/r"),
        ];
        let score = ndcg_at_k(&results, "Galactic Raiders", 4);
        assert!((score - 1.0).abs() < 1e-9, "score = {score}");
    }

    #[test]
    fn empty_list_scores_zero() {
        assert_eq!(ndcg_at_k(&[], "Galactic Raiders", 10), 0.0);
    }

    #[test]
    fn reviews_only_beats_nothing_but_not_full_mix() {
        let reviews_only = vec![
            r("Galactic Raiders review", "http://gamespot.com/r"),
            r("Galactic Raiders review", "http://ign.com/r"),
        ];
        let mixed = vec![
            r("Galactic Raiders", "http://gamerqueen.example.com/games/gr"),
            r("Galactic Raiders review", "http://gamespot.com/r"),
        ];
        let a = ndcg_at_k(&reviews_only, "Galactic Raiders", 5);
        let b = ndcg_at_k(&mixed, "Galactic Raiders", 5);
        assert!(b > a && a > 0.0);
    }
}
