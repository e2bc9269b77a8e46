//! Click billing and the revenue-share ledger.
//!
//! Paper §II-A, "Monetization": *"If the click is on an advertisement
//! from an integrated ad service, the application designers will
//! automatically be credited by that service for any ad-click
//! revenue."* Every billed click becomes a ledger entry splitting the
//! GSP price between the platform and the publisher (the application
//! designer).

use crate::auction::Placement;
use crate::model::CampaignId;
use parking_lot::RwLock;

/// One billed click.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Charged campaign.
    pub campaign: CampaignId,
    /// Publisher (application) credited.
    pub publisher: String,
    /// Full price charged, in cents.
    pub price_cents: u32,
    /// Publisher's share of the price, in cents.
    pub publisher_share_cents: u32,
}

/// Errors from billing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BillingError {
    /// The campaign id does not exist.
    UnknownCampaign(CampaignId),
    /// The campaign's remaining budget cannot cover the price.
    BudgetExhausted(CampaignId),
}

impl std::fmt::Display for BillingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BillingError::UnknownCampaign(c) => write!(f, "unknown campaign {}", c.0),
            BillingError::BudgetExhausted(c) => write!(f, "budget exhausted for campaign {}", c.0),
        }
    }
}

impl std::error::Error for BillingError {}

/// Append-only click ledger with aggregation helpers.
///
/// Entries live behind a [`RwLock`] so billing can run from the
/// platform's concurrent (`&self`) click path: [`Ledger::record`]
/// takes a short write lock, the aggregation helpers take read locks.
#[derive(Debug, Default)]
pub struct Ledger {
    entries: RwLock<Vec<LedgerEntry>>,
}

impl Ledger {
    /// Empty ledger.
    pub(crate) fn new() -> Ledger {
        Ledger::default()
    }

    /// Record a billed click.
    pub(crate) fn record(
        &self,
        placement: &Placement,
        publisher: &str,
        rev_share: f64,
    ) -> LedgerEntry {
        let share = (placement.price_cents as f64 * rev_share).floor() as u32;
        let mut entries = self.entries.write();
        let entry = LedgerEntry {
            seq: entries.len() as u64,
            campaign: placement.campaign,
            publisher: publisher.to_string(),
            price_cents: placement.price_cents,
            publisher_share_cents: share,
        };
        entries.push(entry.clone());
        entry
    }

    /// Total credited to a publisher, in cents.
    pub fn publisher_earnings_cents(&self, publisher: &str) -> u64 {
        self.entries
            .read()
            .iter()
            .filter(|e| e.publisher == publisher)
            .map(|e| e.publisher_share_cents as u64)
            .sum()
    }

    /// Total charged to a campaign, in cents.
    pub fn campaign_spend_cents(&self, campaign: CampaignId) -> u64 {
        self.entries
            .read()
            .iter()
            .filter(|e| e.campaign == campaign)
            .map(|e| e.price_cents as u64)
            .sum()
    }

    /// Platform's retained cut, in cents.
    pub fn platform_cut_cents(&self) -> u64 {
        self.entries
            .read()
            .iter()
            .map(|e| (e.price_cents - e.publisher_share_cents) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement(price: u32) -> Placement {
        Placement {
            campaign: CampaignId(1),
            position: 0,
            price_cents: price,
            keyword: "game".into(),
            title: "t".into(),
            display_url: "d".into(),
            target_url: "u".into(),
            text: "x".into(),
        }
    }

    #[test]
    fn record_splits_revenue() {
        let l = Ledger::new();
        let e = l.record(&placement(100), "GamerQueen", 0.7);
        assert_eq!(e.price_cents, 100);
        assert_eq!(e.publisher_share_cents, 70);
        assert_eq!(l.publisher_earnings_cents("GamerQueen"), 70);
        assert_eq!(l.platform_cut_cents(), 30);
    }

    #[test]
    fn share_floors_fractional_cents() {
        let l = Ledger::new();
        l.record(&placement(99), "p", 0.5);
        assert_eq!(l.publisher_earnings_cents("p"), 49);
    }

    #[test]
    fn aggregations_filter_correctly() {
        let l = Ledger::new();
        l.record(&placement(100), "a", 0.7);
        l.record(&placement(50), "b", 0.7);
        l.record(&placement(30), "a", 0.7);
        assert_eq!(l.publisher_earnings_cents("a"), 70 + 21);
        assert_eq!(l.publisher_earnings_cents("b"), 35);
        assert_eq!(l.publisher_earnings_cents("c"), 0);
        assert_eq!(l.campaign_spend_cents(CampaignId(1)), 180);
        assert_eq!(l.entries.read().len(), 3);
    }

    #[test]
    fn sequence_numbers_monotone() {
        let l = Ledger::new();
        l.record(&placement(10), "p", 0.7);
        l.record(&placement(10), "p", 0.7);
        assert_eq!(l.entries.read()[0].seq, 0);
        assert_eq!(l.entries.read()[1].seq, 1);
    }

    #[test]
    fn concurrent_records_assign_unique_sequence_numbers() {
        let l = Ledger::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        l.record(&placement(10), "p", 0.7);
                    }
                });
            }
        });
        let mut seqs: Vec<u64> = l.entries.read().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..200).collect::<Vec<u64>>());
        assert_eq!(l.publisher_earnings_cents("p"), 200 * 7);
    }
}
