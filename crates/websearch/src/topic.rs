//! Topics and topical vocabularies for the synthetic web.
//!
//! The paper's scenarios revolve around topical verticals (video
//! games, wine, movies, health, events). Each topic carries a small
//! vocabulary; page text is a Zipf-weighted mixture of topic words and
//! general words, which gives BM25 something realistic to rank.

/// A content topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Topic {
    /// Video games (the GamerQueen scenario).
    Games,
    /// Wine (the connoisseur scenario).
    Wine,
    /// Movies (the video-store scenario).
    Movies,
    /// Health (WebMD-style).
    Health,
    /// Travel (Expedia-style).
    Travel,
    /// Current events.
    News,
}

impl Topic {
    /// All topics in declaration order.
    pub const ALL: [Topic; 6] = [
        Topic::Games,
        Topic::Wine,
        Topic::Movies,
        Topic::Health,
        Topic::Travel,
        Topic::News,
    ];

    /// Lowercase name, usable in domains.
    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Topic::Games => "games",
            Topic::Wine => "wine",
            Topic::Movies => "movies",
            Topic::Health => "health",
            Topic::Travel => "travel",
            Topic::News => "news",
        }
    }

    /// Topical vocabulary (most-frequent first; sampled with a Zipf
    /// distribution so the head dominates like real text).
    pub fn words(self) -> &'static [&'static str] {
        match self {
            Topic::Games => &[
                "game",
                "review",
                "player",
                "level",
                "shooter",
                "arcade",
                "console",
                "score",
                "boss",
                "quest",
                "multiplayer",
                "graphics",
                "gameplay",
                "strategy",
                "puzzle",
                "racing",
                "adventure",
                "trailer",
                "release",
                "studio",
                "controller",
                "pixel",
                "campaign",
                "coop",
                "speedrun",
                "mod",
                "patch",
                "leaderboard",
                "achievement",
                "sequel",
            ],
            Topic::Wine => &[
                "wine",
                "vintage",
                "grape",
                "tasting",
                "cellar",
                "bordeaux",
                "cabernet",
                "merlot",
                "chardonnay",
                "vineyard",
                "oak",
                "tannin",
                "aroma",
                "bottle",
                "cork",
                "pairing",
                "chateau",
                "harvest",
                "barrel",
                "sommelier",
                "acidity",
                "terroir",
                "blend",
                "decant",
                "riesling",
                "pinot",
                "noir",
                "rose",
                "sparkling",
                "reserve",
            ],
            Topic::Movies => &[
                "movie",
                "film",
                "director",
                "actor",
                "scene",
                "trailer",
                "review",
                "cinema",
                "drama",
                "comedy",
                "thriller",
                "plot",
                "sequel",
                "screenplay",
                "studio",
                "cast",
                "premiere",
                "award",
                "documentary",
                "animation",
                "score",
                "editing",
                "remake",
                "festival",
                "boxoffice",
                "critic",
                "rating",
                "genre",
                "classic",
                "blockbuster",
            ],
            Topic::Health => &[
                "health",
                "symptom",
                "doctor",
                "treatment",
                "diet",
                "exercise",
                "vitamin",
                "allergy",
                "sleep",
                "stress",
                "nutrition",
                "therapy",
                "clinic",
                "vaccine",
                "wellness",
                "fitness",
                "recovery",
                "diagnosis",
                "prescription",
                "immune",
                "protein",
                "hydration",
                "posture",
                "cardio",
                "checkup",
                "remedy",
                "dosage",
                "injury",
                "prevention",
                "screening",
            ],
            Topic::Travel => &[
                "travel",
                "flight",
                "hotel",
                "beach",
                "tour",
                "island",
                "museum",
                "passport",
                "luggage",
                "itinerary",
                "resort",
                "cruise",
                "hiking",
                "landmark",
                "airfare",
                "booking",
                "adventure",
                "culture",
                "cuisine",
                "festival",
                "backpack",
                "visa",
                "souvenir",
                "airport",
                "train",
                "roadtrip",
                "guide",
                "map",
                "season",
                "budget",
            ],
            Topic::News => &[
                "report",
                "election",
                "market",
                "policy",
                "economy",
                "breaking",
                "interview",
                "statement",
                "official",
                "investigation",
                "budget",
                "council",
                "minister",
                "summit",
                "protest",
                "verdict",
                "announcement",
                "forecast",
                "analysis",
                "poll",
                "debate",
                "reform",
                "agency",
                "spokesperson",
                "headline",
                "coverage",
                "update",
                "crisis",
                "agreement",
                "conference",
            ],
        }
    }
}

/// General filler vocabulary shared by every page.
pub const GENERAL_WORDS: &[&str] = &[
    "today", "people", "world", "time", "year", "good", "great", "best", "guide", "full", "online",
    "free", "official", "home", "page", "read", "find", "learn", "top", "story", "latest",
    "popular", "detail", "complete", "simple", "quick", "expert", "local", "daily", "weekly",
    "special", "classic", "modern", "light", "deep", "open", "final", "early", "late", "every",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_topic_has_a_rich_vocabulary() {
        for t in Topic::ALL {
            assert!(t.words().len() >= 25, "{t:?}");
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    fn vocabularies_are_lowercase_single_tokens() {
        for t in Topic::ALL {
            for w in t.words() {
                assert!(w.chars().all(|c| c.is_ascii_lowercase()), "{w}");
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Topic::ALL.iter().map(|t| t.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Topic::ALL.len());
    }
}
