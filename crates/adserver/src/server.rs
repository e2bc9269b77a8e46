//! The ad server facade: accounts, campaigns, auctions, billing.

use crate::auction::{auction, Placement};
use crate::ledger::{BillingError, Ledger, LedgerEntry};
use crate::model::{normalize, Ad, AdvertiserId, Campaign, CampaignId, Keyword};
use parking_lot::RwLock;

/// Publisher revenue share of each ad click (the paper: monetization
/// is voluntary and revenue-shared with the designer).
pub const DEFAULT_REV_SHARE: f64 = 0.7;

/// The ad service ("adCenter" substitute).
///
/// Account setup ([`AdServer::add_advertiser`],
/// [`AdServer::add_campaign`]) is an admin operation and takes `&mut self`. The serving path —
/// [`AdServer::select`] and [`AdServer::record_click`] — takes `&self`
/// and is safe to call from many threads: campaign state sits behind a
/// [`RwLock`] (auctions read, billing writes) and the `Ledger` is
/// internally synchronized.
#[derive(Debug, Default)]
pub struct AdServer {
    advertisers: Vec<String>,
    campaigns: RwLock<Vec<Campaign>>,
    /// Per campaign, per keyword: the keyword's normalized words,
    /// computed once at [`AdServer::add_campaign`] (keywords never
    /// change afterwards), so a selection normalizes only its query.
    keyword_words: Vec<Vec<Vec<String>>>,
    ledger: Ledger,
    rev_share: f64,
}

impl AdServer {
    /// Empty server with the default revenue share.
    pub fn new() -> AdServer {
        AdServer {
            advertisers: Vec::new(),
            campaigns: RwLock::new(Vec::new()),
            keyword_words: Vec::new(),
            ledger: Ledger::new(),
            rev_share: DEFAULT_REV_SHARE,
        }
    }

    /// Override the publisher revenue share (clamped to `[0, 1]`).
    pub fn with_rev_share(mut self, share: f64) -> AdServer {
        self.rev_share = share.clamp(0.0, 1.0);
        self
    }

    /// Register an advertiser account.
    pub fn add_advertiser(&mut self, name: &str) -> AdvertiserId {
        self.advertisers.push(name.to_string());
        AdvertiserId(self.advertisers.len() as u32 - 1)
    }

    /// Create a campaign.
    pub fn add_campaign(
        &mut self,
        advertiser: AdvertiserId,
        name: &str,
        daily_budget_cents: u32,
        keywords: Vec<Keyword>,
        ad: Ad,
        quality: f64,
    ) -> CampaignId {
        self.keyword_words
            .push(keywords.iter().map(|k| normalize(&k.text)).collect());
        let campaigns = self.campaigns.get_mut();
        campaigns.push(Campaign {
            advertiser,
            name: name.to_string(),
            daily_budget_cents,
            spent_cents: 0,
            keywords,
            ad,
            quality: quality.clamp(0.05, 1.0),
        });
        CampaignId(campaigns.len() as u32 - 1)
    }

    /// Select up to `slots` ads for a query (GSP auction). Places
    /// exactly what [`crate::run_auction`] over every campaign would,
    /// but normalizes the query once and each keyword never.
    pub fn select(&self, query: &str, slots: usize) -> Vec<Placement> {
        let query = normalize(query);
        let campaigns = self.campaigns.read();
        let refs: Vec<(CampaignId, &Campaign)> = campaigns
            .iter()
            .enumerate()
            .map(|(i, c)| (CampaignId(i as u32), c))
            .collect();
        auction(&refs, slots, |i, c| {
            c.best_bid_words(&query, &self.keyword_words[i])
        })
    }

    /// Bill a click on a placement, crediting `publisher`.
    ///
    /// The budget check and the spend update happen under one write
    /// lock, so concurrent clicks can never overdraw a campaign.
    pub fn record_click(
        &self,
        placement: &Placement,
        publisher: &str,
    ) -> Result<LedgerEntry, BillingError> {
        let mut campaigns = self.campaigns.write();
        let campaign = campaigns
            .get_mut(placement.campaign.0 as usize)
            .ok_or(BillingError::UnknownCampaign(placement.campaign))?;
        if campaign.remaining_cents() < placement.price_cents {
            return Err(BillingError::BudgetExhausted(placement.campaign));
        }
        campaign.spent_cents += placement.price_cents;
        drop(campaigns);
        Ok(self.ledger.record(placement, publisher, self.rev_share))
    }

    /// Reset daily budgets (a new simulated day).
    #[cfg(test)]
    pub(crate) fn reset_day(&mut self) {
        for c in self.campaigns.get_mut() {
            c.spent_cents = 0;
        }
    }

    /// The ledger (read-only).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// A campaign's remaining budget.
    #[cfg(test)]
    pub(crate) fn remaining_budget_cents(&self, id: CampaignId) -> Option<u32> {
        self.campaigns
            .read()
            .get(id.0 as usize)
            .map(|c| c.remaining_cents())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MatchType;

    fn server() -> AdServer {
        let mut s = AdServer::new();
        let adv = s.add_advertiser("MegaGames");
        s.add_campaign(
            adv,
            "shooters",
            1_000,
            vec![Keyword::new("game", MatchType::Broad, 60)],
            Ad {
                title: "Mega Games Sale".into(),
                display_url: "megagames.example.com".into(),
                target_url: "http://megagames.example.com/sale".into(),
                text: "50% off shooters".into(),
            },
            0.9,
        );
        let adv2 = s.add_advertiser("BudgetGames");
        s.add_campaign(
            adv2,
            "broad",
            1_000,
            vec![Keyword::new("game", MatchType::Broad, 40)],
            Ad {
                title: "Budget Games".into(),
                display_url: "budget.example.com".into(),
                target_url: "http://budget.example.com".into(),
                text: "cheap games".into(),
            },
            0.6,
        );
        s
    }

    #[test]
    fn select_and_click_flow() {
        let s = server();
        let ps = s.select("space game", 2);
        assert_eq!(ps.len(), 2);
        let entry = s.record_click(&ps[0], "GamerQueen").unwrap();
        assert!(entry.publisher_share_cents > 0);
        assert_eq!(
            s.ledger().publisher_earnings_cents("GamerQueen"),
            entry.publisher_share_cents as u64
        );
        // Budget decremented.
        assert!(s.remaining_budget_cents(ps[0].campaign).unwrap() < 1_000);
    }

    #[test]
    fn clicks_stop_when_budget_gone() {
        let s = server();
        let mut clicks = 0;
        loop {
            let ps = s.select("game", 1);
            if ps.is_empty() {
                break;
            }
            match s.record_click(&ps[0], "p") {
                Ok(_) => clicks += 1,
                Err(BillingError::BudgetExhausted(_)) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(clicks < 10_000, "budget never exhausted");
        }
        assert!(clicks > 0);
        // After exhaustion the auction excludes both campaigns.
        assert!(s.select("game", 1).is_empty() || clicks > 0);
    }

    #[test]
    fn reset_day_restores_budgets() {
        let mut s = server();
        let ps = s.select("game", 1);
        s.record_click(&ps[0], "p").unwrap();
        let before = s.remaining_budget_cents(ps[0].campaign).unwrap();
        s.reset_day();
        assert!(s.remaining_budget_cents(ps[0].campaign).unwrap() > before);
    }

    #[test]
    fn unknown_campaign_click_fails() {
        let s = server();
        let mut p = s.select("game", 1).remove(0);
        p.campaign = CampaignId(99);
        assert_eq!(
            s.record_click(&p, "p"),
            Err(BillingError::UnknownCampaign(CampaignId(99)))
        );
    }

    #[test]
    fn rev_share_is_configurable() {
        let s = server().with_rev_share(0.5);
        let ps = s.select("game", 1);
        let e = s.record_click(&ps[0], "p").unwrap();
        assert_eq!(e.publisher_share_cents, e.price_cents / 2);
    }

    #[test]
    fn no_match_no_ads() {
        let s = server();
        assert!(s.select("bordeaux wine", 3).is_empty());
    }
}
