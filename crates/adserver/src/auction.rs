//! The ad auction: generalized second price with quality scores.
//!
//! The paper integrates "advertising services such as adCenter,
//! allowing ads to be displayed and configured just like any other
//! content source". This module is the selection half: given a query
//! and a number of slots, run a GSP auction over matching campaigns.
//! Billing happens in [`crate::ledger`] at click time.

use crate::model::{Campaign, CampaignId, Keyword};

/// Minimum price per click, in cents.
pub const RESERVE_CENTS: u32 = 5;

/// An ad selected for a slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Winning campaign.
    pub campaign: CampaignId,
    /// Slot position (0 = top).
    pub position: usize,
    /// GSP price the advertiser pays on click, in cents.
    pub price_cents: u32,
    /// The keyword that matched.
    pub keyword: String,
    /// Creative headline (denormalized for rendering).
    pub title: String,
    /// Display URL.
    pub display_url: String,
    /// Click-through target.
    pub target_url: String,
    /// Creative body.
    pub text: String,
}

/// Run a GSP auction for `query` over `campaigns`, filling up to
/// `slots` placements.
///
/// Ad rank is `bid * quality`; the price for slot *i* is the minimum
/// bid that would still beat slot *i+1*'s rank
/// (`rank_{i+1} / quality_i`, floored at the reserve). Campaigns whose
/// remaining budget cannot cover their potential price are excluded.
pub fn run_auction(
    campaigns: &[(CampaignId, &Campaign)],
    query: &str,
    slots: usize,
) -> Vec<Placement> {
    auction(campaigns, slots, |_, c| c.best_bid(query))
}

/// The auction behind [`run_auction`], where `best_bid(i, c)` gives the
/// best keyword of `campaigns[i]` that matches the query.
pub(crate) fn auction<'c>(
    campaigns: &[(CampaignId, &'c Campaign)],
    slots: usize,
    best_bid: impl Fn(usize, &'c Campaign) -> Option<&'c Keyword>,
) -> Vec<Placement> {
    // Collect matching entries with effective bid and rank.
    struct Entry {
        id: CampaignId,
        bid: u32,
        quality: f64,
        rank: f64,
        keyword: String,
    }
    let mut entries: Vec<Entry> = campaigns
        .iter()
        .enumerate()
        .filter_map(|(i, &(id, c))| {
            let kw = best_bid(i, c)?;
            if c.remaining_cents() < RESERVE_CENTS {
                return None;
            }
            let bid = kw.bid_cents.min(c.remaining_cents());
            Some(Entry {
                id,
                bid,
                quality: c.quality,
                rank: bid as f64 * c.quality,
                keyword: kw.text.clone(),
            })
        })
        .collect();
    entries.sort_by(|a, b| {
        b.rank
            .partial_cmp(&a.rank)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.0.cmp(&b.id.0))
    });
    entries.truncate(slots);

    let mut out = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        let price = if let Some(next) = entries.get(i + 1) {
            // Smallest integer bid beating the next rank.
            ((next.rank / e.quality).floor() as u32 + 1).min(e.bid)
        } else {
            RESERVE_CENTS
        }
        .max(RESERVE_CENTS);
        let campaign = campaigns
            .iter()
            .find(|(id, _)| *id == e.id)
            .map(|(_, c)| *c)
            .expect("entry came from campaigns");
        out.push(Placement {
            campaign: e.id,
            position: i,
            price_cents: price,
            keyword: e.keyword.clone(),
            title: campaign.ad.title.clone(),
            display_url: campaign.ad.display_url.clone(),
            target_url: campaign.ad.target_url.clone(),
            text: campaign.ad.text.clone(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Ad, AdvertiserId, Keyword, MatchType};

    fn campaign(name: &str, bid: u32, quality: f64, budget: u32) -> Campaign {
        Campaign {
            advertiser: AdvertiserId(0),
            name: name.into(),
            daily_budget_cents: budget,
            spent_cents: 0,
            keywords: vec![Keyword::new("game", MatchType::Broad, bid)],
            ad: Ad {
                title: format!("{name} title"),
                display_url: format!("{name}.example.com"),
                target_url: format!("http://{name}.example.com/landing"),
                text: "buy now".into(),
            },
            quality,
        }
    }

    #[test]
    fn highest_rank_wins_top_slot() {
        let a = campaign("a", 100, 0.5, 10_000); // rank 50
        let b = campaign("b", 60, 1.0, 10_000); // rank 60
        let cs = vec![(CampaignId(0), &a), (CampaignId(1), &b)];
        let ps = run_auction(&cs, "fun game", 2);
        assert_eq!(ps[0].campaign, CampaignId(1));
        assert_eq!(ps[1].campaign, CampaignId(0));
    }

    #[test]
    fn gsp_price_is_below_own_bid_and_beats_next_rank() {
        let a = campaign("a", 100, 1.0, 10_000); // rank 100
        let b = campaign("b", 40, 1.0, 10_000); // rank 40
        let cs = vec![(CampaignId(0), &a), (CampaignId(1), &b)];
        let ps = run_auction(&cs, "game", 2);
        // Winner pays just enough to beat rank 40 at quality 1 => 41.
        assert_eq!(ps[0].price_cents, 41);
        assert!(ps[0].price_cents <= 100);
        // Last slot pays reserve.
        assert_eq!(ps[1].price_cents, RESERVE_CENTS);
    }

    #[test]
    fn non_matching_campaigns_excluded() {
        let mut a = campaign("a", 100, 1.0, 10_000);
        a.keywords = vec![Keyword::new("wine", MatchType::Broad, 100)];
        let cs = vec![(CampaignId(0), &a)];
        assert!(run_auction(&cs, "game", 2).is_empty());
    }

    #[test]
    fn exhausted_budget_excluded() {
        let mut a = campaign("a", 100, 1.0, 100);
        a.spent_cents = 98;
        let cs = vec![(CampaignId(0), &a)];
        assert!(run_auction(&cs, "game", 1).is_empty());
    }

    #[test]
    fn slots_limit_output() {
        let cs_owned: Vec<Campaign> = (0..5)
            .map(|i| campaign(&format!("c{i}"), 50 + i, 0.8, 10_000))
            .collect();
        let cs: Vec<(CampaignId, &Campaign)> = cs_owned
            .iter()
            .enumerate()
            .map(|(i, c)| (CampaignId(i as u32), c))
            .collect();
        let ps = run_auction(&cs, "game", 2);
        assert_eq!(ps.len(), 2);
        assert!(ps[0].price_cents >= ps[1].price_cents);
    }

    #[test]
    fn single_entry_pays_reserve() {
        let a = campaign("a", 100, 1.0, 10_000);
        let cs = vec![(CampaignId(0), &a)];
        let ps = run_auction(&cs, "game", 3);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].price_cents, RESERVE_CENTS);
    }
}
