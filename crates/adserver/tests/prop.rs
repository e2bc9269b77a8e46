//! Property tests for the ad substrate: GSP invariants, match-type
//! hierarchy, ledger conservation, and pre-normalized selection against
//! per-call keyword matching.

use proptest::prelude::*;
use symphony_ads::{
    run_auction, Ad, AdServer, Campaign, CampaignId, Keyword, MatchType, RESERVE_CENTS,
};

const MATCH_TYPES: [MatchType; 3] = [MatchType::Exact, MatchType::Phrase, MatchType::Broad];

/// Mixed-case words over a tiny alphabet (so keywords and queries
/// overlap often) joined by spaces and punctuation.
const TEXT: &str = "[a-bA-B]{1,2}(( |, |-|! )[a-bA-B]{1,2}){0,4}";

/// Punctuation only: normalizes to no words, so it never matches.
const PUNCT: &str = "[ ,!-]{0,2}";

/// A keyword: (text, index into `MATCH_TYPES`, bid). Bids span a
/// narrow range so a campaign's matching keywords often tie, and which
/// one wins the tie shows in the placement.
fn keyword() -> impl Strategy<Value = (String, usize, u32)> {
    (prop_oneof![TEXT, PUNCT], 0usize..3, RESERVE_CENTS..12u32)
}

fn campaign_params() -> impl Strategy<Value = Vec<(u32, f64)>> {
    // (bid, quality) pairs.
    proptest::collection::vec((RESERVE_CENTS..500u32, 0.1f64..1.0), 1..12)
}

fn server_from(params: &[(u32, f64)], keyword: &str) -> AdServer {
    let mut ads = AdServer::new();
    let adv = ads.add_advertiser("A");
    for (i, (bid, quality)) in params.iter().enumerate() {
        ads.add_campaign(
            adv,
            &format!("c{i}"),
            1_000_000,
            vec![Keyword::new(keyword, MatchType::Broad, *bid)],
            Ad {
                title: format!("ad {i}"),
                display_url: "d".into(),
                target_url: format!("http://a{i}.example.com"),
                text: "x".into(),
            },
            *quality,
        );
    }
    ads
}

proptest! {
    /// GSP safety: no winner ever pays more than its own bid, and
    /// never less than the reserve.
    #[test]
    fn price_between_reserve_and_bid(params in campaign_params(), slots in 1usize..6) {
        let ads = server_from(&params, "game");
        let placements = ads.select("fun game", slots);
        for p in &placements {
            let (bid, _) = params[p.campaign.0 as usize];
            prop_assert!(p.price_cents >= RESERVE_CENTS);
            prop_assert!(p.price_cents <= bid, "price {} > bid {bid}", p.price_cents);
        }
    }

    /// Positions are dense from 0 and at most `slots` ads return.
    #[test]
    fn positions_dense_and_bounded(params in campaign_params(), slots in 1usize..6) {
        let ads = server_from(&params, "game");
        let placements = ads.select("game", slots);
        prop_assert!(placements.len() <= slots);
        for (i, p) in placements.iter().enumerate() {
            prop_assert_eq!(p.position, i);
        }
    }

    /// Winners are ordered by rank (bid × quality), descending.
    #[test]
    fn winners_ordered_by_rank(params in campaign_params()) {
        let ads = server_from(&params, "game");
        let placements = ads.select("game", params.len());
        let ranks: Vec<f64> = placements
            .iter()
            .map(|p| {
                let (bid, q) = params[p.campaign.0 as usize];
                bid as f64 * q
            })
            .collect();
        for w in ranks.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9, "ranks out of order: {ranks:?}");
        }
    }

    /// Ledger conservation: publisher share + platform cut equals the
    /// total charged, click by click, for any revenue share.
    #[test]
    fn ledger_conserves_money(
        params in campaign_params(),
        share in 0.0f64..1.0,
        clicks in 1usize..20,
    ) {
        let ads = server_from(&params, "game").with_rev_share(share);
        let mut publisher_total = 0u64;
        for _ in 0..clicks {
            let ps = ads.select("game", 1);
            let Some(p) = ps.first() else { break };
            match ads.record_click(p, "pub") {
                Ok(entry) => publisher_total += entry.publisher_share_cents as u64,
                Err(_) => break, // budget exhausted
            }
        }
        let ledger = ads.ledger();
        let charged: u64 = (0..params.len() as u32)
            .map(|i| ledger.campaign_spend_cents(symphony_ads::CampaignId(i)))
            .sum();
        prop_assert_eq!(
            ledger.platform_cut_cents() + publisher_total,
            charged
        );
    }

    /// Match-type hierarchy: any query matched by Exact is matched by
    /// Phrase; any matched by Phrase is matched by Broad.
    #[test]
    fn match_type_hierarchy(
        kw in "[a-z]{2,6}( [a-z]{2,6}){0,2}",
        query in "[a-z]{2,6}( [a-z]{2,6}){0,4}",
    ) {
        let exact = Keyword::new(&kw, MatchType::Exact, 10).matches(&query);
        let phrase = Keyword::new(&kw, MatchType::Phrase, 10).matches(&query);
        let broad = Keyword::new(&kw, MatchType::Broad, 10).matches(&query);
        if exact {
            prop_assert!(phrase, "exact implies phrase: {kw:?} vs {query:?}");
        }
        if phrase {
            prop_assert!(broad, "phrase implies broad: {kw:?} vs {query:?}");
        }
    }

    /// Budget safety: total campaign spend never exceeds the daily
    /// budget.
    #[test]
    fn budget_never_overspent(budget in RESERVE_CENTS..300u32, clicks in 1usize..50) {
        let mut ads = AdServer::new();
        let adv = ads.add_advertiser("A");
        let c = ads.add_campaign(
            adv,
            "c",
            budget,
            vec![Keyword::new("game", MatchType::Broad, 40)],
            Ad {
                title: "t".into(),
                display_url: "d".into(),
                target_url: "u".into(),
                text: "x".into(),
            },
            0.8,
        );
        for _ in 0..clicks {
            let ps = ads.select("game", 1);
            let Some(p) = ps.first() else { break };
            let _ = ads.record_click(p, "pub");
        }
        prop_assert!(ads.ledger().campaign_spend_cents(c) <= budget as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `select` normalizes every keyword once, when its campaign is
    /// added, and the query once per call; it places exactly what the
    /// per-call path places (`run_auction`, which runs
    /// `Keyword::matches` on every keyword of every campaign).
    #[test]
    fn select_equals_per_call_matching(
        campaigns in proptest::collection::vec(
            (proptest::collection::vec(keyword(), 0..4), 1u32..600, 0.05f64..1.0),
            1..10,
        ),
        queries in proptest::collection::vec(prop_oneof![TEXT, PUNCT], 1..6),
        slots in 1usize..5,
    ) {
        let mut ads = AdServer::new();
        let adv = ads.add_advertiser("A");
        let owned: Vec<Campaign> = campaigns
            .iter()
            .enumerate()
            .map(|(i, (kws, budget, quality))| {
                let keywords: Vec<Keyword> = kws
                    .iter()
                    .map(|(text, m, bid)| Keyword::new(text, MATCH_TYPES[*m], *bid))
                    .collect();
                let ad = Ad {
                    title: format!("ad {i}"),
                    display_url: "d".into(),
                    target_url: format!("http://a{i}.example.com"),
                    text: "x".into(),
                };
                let name = format!("c{i}");
                ads.add_campaign(adv, &name, *budget, keywords.clone(), ad.clone(), *quality);
                Campaign {
                    advertiser: adv,
                    name,
                    daily_budget_cents: *budget,
                    spent_cents: 0,
                    keywords,
                    ad,
                    quality: *quality,
                }
            })
            .collect();
        let refs: Vec<(CampaignId, &Campaign)> = owned
            .iter()
            .enumerate()
            .map(|(i, c)| (CampaignId(i as u32), c))
            .collect();
        for q in &queries {
            prop_assert_eq!(ads.select(q, slots), run_auction(&refs, q, slots), "query {:?}", q);
        }
    }
}
