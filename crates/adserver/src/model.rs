//! Advertiser / campaign / keyword model.

/// Identifier of an advertiser account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdvertiserId(pub u32);

/// Identifier of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CampaignId(pub u32);

/// Keyword match type (the classic ad-platform trio).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchType {
    /// Query must equal the keyword (after normalization).
    Exact,
    /// Keyword words must appear contiguously, in order, in the query.
    Phrase,
    /// All keyword words must appear in the query, any order.
    Broad,
}

/// A bid on a keyword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keyword {
    /// Keyword text.
    pub text: String,
    /// Match type.
    pub match_type: MatchType,
    /// Bid in cents per click.
    pub bid_cents: u32,
}

impl Keyword {
    /// Convenience constructor.
    pub fn new(text: &str, match_type: MatchType, bid_cents: u32) -> Keyword {
        Keyword {
            text: text.to_string(),
            match_type,
            bid_cents,
        }
    }

    /// Does this keyword match the (raw) query?
    pub fn matches(&self, query: &str) -> bool {
        words_match(self.match_type, &normalize(query), &normalize(&self.text))
    }
}

/// Whether a keyword's [`normalize`]d words match a query's under
/// `match_type`: the one matcher behind [`Keyword::matches`] and the
/// ad server's pre-normalized selection.
pub(crate) fn words_match(match_type: MatchType, query: &[String], keyword: &[String]) -> bool {
    if keyword.is_empty() || query.is_empty() {
        return false;
    }
    match match_type {
        MatchType::Exact => query == keyword,
        MatchType::Phrase => query.windows(keyword.len()).any(|w| w == keyword),
        MatchType::Broad => keyword.iter().all(|kw| query.contains(kw)),
    }
}

/// Lowercased alphanumeric word list.
pub(crate) fn normalize(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// An advertisement creative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ad {
    /// Headline.
    pub title: String,
    /// Display URL (shown to the user).
    pub display_url: String,
    /// Click-through target.
    pub target_url: String,
    /// Body text.
    pub text: String,
}

/// A campaign: budgeted keywords + one creative.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Owning advertiser.
    pub advertiser: AdvertiserId,
    /// Campaign name.
    pub name: String,
    /// Daily budget in cents.
    pub daily_budget_cents: u32,
    /// Spend so far.
    pub spent_cents: u32,
    /// Keywords bid on.
    pub keywords: Vec<Keyword>,
    /// The creative served.
    pub ad: Ad,
    /// Quality score in `(0, 1]` (historic CTR proxy).
    pub quality: f64,
}

impl Campaign {
    /// Budget left today.
    pub(crate) fn remaining_cents(&self) -> u32 {
        self.daily_budget_cents.saturating_sub(self.spent_cents)
    }

    /// Best matching bid for a query, if any keyword matches.
    pub(crate) fn best_bid(&self, query: &str) -> Option<&Keyword> {
        self.keywords
            .iter()
            .filter(|k| k.matches(query))
            .max_by_key(|k| k.bid_cents)
    }

    /// [`Campaign::best_bid`] for a [`normalize`]d query, given each
    /// keyword's normalized words in keyword order.
    pub(crate) fn best_bid_words(
        &self,
        query: &[String],
        keywords: &[Vec<String>],
    ) -> Option<&Keyword> {
        self.keywords
            .iter()
            .zip(keywords)
            .filter(|(k, words)| words_match(k.match_type, query, words))
            .map(|(k, _)| k)
            .max_by_key(|k| k.bid_cents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_splits_and_lowercases() {
        assert_eq!(normalize("Space-Shooter 2!"), vec!["space", "shooter", "2"]);
        assert!(normalize("  ").is_empty());
    }

    #[test]
    fn exact_match() {
        let k = Keyword::new("space shooter", MatchType::Exact, 50);
        assert!(k.matches("Space Shooter"));
        assert!(!k.matches("space shooter game"));
        assert!(!k.matches("space"));
    }

    #[test]
    fn phrase_match() {
        let k = Keyword::new("space shooter", MatchType::Phrase, 50);
        assert!(k.matches("best space shooter game"));
        assert!(!k.matches("space best shooter"));
    }

    #[test]
    fn broad_match() {
        let k = Keyword::new("space shooter", MatchType::Broad, 50);
        assert!(k.matches("shooter in space"));
        assert!(!k.matches("space game"));
    }

    #[test]
    fn empty_never_matches() {
        let k = Keyword::new("", MatchType::Broad, 50);
        assert!(!k.matches("anything"));
        let k2 = Keyword::new("x", MatchType::Broad, 50);
        assert!(!k2.matches(""));
    }

    #[test]
    fn best_bid_picks_highest_matching() {
        let c = Campaign {
            advertiser: AdvertiserId(0),
            name: "c".into(),
            daily_budget_cents: 1000,
            spent_cents: 0,
            keywords: vec![
                Keyword::new("game", MatchType::Broad, 10),
                Keyword::new("space game", MatchType::Broad, 40),
                Keyword::new("wine", MatchType::Broad, 99),
            ],
            ad: Ad {
                title: "t".into(),
                display_url: "d".into(),
                target_url: "u".into(),
                text: "x".into(),
            },
            quality: 0.5,
        };
        assert_eq!(c.best_bid("space game deals").unwrap().bid_cents, 40);
        assert!(c.best_bid("cooking").is_none());
    }

    #[test]
    fn remaining_budget_saturates() {
        let mut c = Campaign {
            advertiser: AdvertiserId(0),
            name: "c".into(),
            daily_budget_cents: 100,
            spent_cents: 0,
            keywords: vec![],
            ad: Ad {
                title: "t".into(),
                display_url: "d".into(),
                target_url: "u".into(),
                text: "x".into(),
            },
            quality: 0.5,
        };
        c.spent_cents = 150;
        assert_eq!(c.remaining_cents(), 0);
    }
}
