//! Shard search RPC: the wire codec and the per-node service.
//!
//! A shard node is just another simulated service: it registers on the
//! transport like the pricing or inventory services do, speaks the
//! same string-keyed record protocol, and therefore composes with
//! every resilience mechanism the transport stack already has —
//! breakers, retries, fault windows. It serves the two phases of a
//! scatter as two operations:
//!
//! * `/search` — the query phase. The answer is the shard's *lean*
//!   candidate pool: four fields per entry (`page`, `raw`, `score`,
//!   `url` — what the gather side's two sort orders read) under a
//!   header carrying the merge bound. Raw and blended scores cross the
//!   wire as IEEE-754 bit patterns (see [`symphony_services::rpc`]),
//!   because the gather side re-sorts merged candidates by those
//!   floats and a lossy decimal round-trip would reorder ties and
//!   break the bit-identity guarantee.
//! * `/fetch` — the fetch phase. The request names the pages of this
//!   shard that won a place on the result page; the answer is their
//!   title, snippet, domain and media fields, in the order asked.
//!
//! Both decoders return `None` on anything malformed and the node
//! answers a malformed request with a 400 fault: a garbled peer reads
//! as a failed node, never as a shorter pool or a panic.

use std::sync::Arc;

use symphony_services::rpc::{decode_f32, decode_i64, decode_u64, encode_f32};
use symphony_services::{
    OperationDesc, Protocol, Service, ServiceDescription, ServiceFault, ServiceRecord,
    ServiceRequest, ServiceResponse,
};
use symphony_web::{PageFields, PoolEntry, SearchConfig, SearchEngine, ShardPool, Vertical};

/// Separator for list-valued request params (domains, terms, page
/// picks). Not a character that appears in domain names, analyzed
/// query terms or decimal numbers.
pub(crate) const LIST_SEP: char = '\x1f';

/// Parse a vertical from its lowercase wire name.
pub(crate) fn vertical_from_name(name: &str) -> Option<Vertical> {
    Vertical::ALL.into_iter().find(|v| v.name() == name)
}

/// A request of either phase: what both carry (vertical, query and
/// the designer's config — each phase derives the same augmented
/// query from them) plus the one parameter of its own.
fn request(
    path: &str,
    vertical: Vertical,
    query: &str,
    config: &SearchConfig,
    own: (&str, &str),
) -> ServiceRequest {
    let sep = LIST_SEP.to_string();
    ServiceRequest::get(
        path,
        &[
            ("vertical", vertical.name()),
            ("q", query),
            own,
            ("sites", &config.site_restrict.join(&sep)),
            ("augment", &config.augment_terms.join(&sep)),
            ("prefer", &config.prefer_sites.join(&sep)),
        ],
    )
}

/// Build the `/search` request of the query phase.
pub fn search_request(
    vertical: Vertical,
    query: &str,
    config: &SearchConfig,
    k: usize,
) -> ServiceRequest {
    request("/search", vertical, query, config, ("k", &k.to_string()))
}

/// Build the `/fetch` request of the fetch phase: `pages` are the
/// global page indexes of the winners one shard supplied.
pub fn fetch_request(
    vertical: Vertical,
    query: &str,
    config: &SearchConfig,
    pages: &[usize],
) -> ServiceRequest {
    let picks: Vec<String> = pages.iter().map(usize::to_string).collect();
    let picks = picks.join(&LIST_SEP.to_string());
    request("/fetch", vertical, query, config, ("pages", &picks))
}

fn split_list(raw: &str) -> Vec<String> {
    if raw.is_empty() {
        Vec::new()
    } else {
        raw.split(LIST_SEP).map(str::to_string).collect()
    }
}

/// The page picks of a `/fetch` request: decimal indexes, no pick
/// twice. `None` on anything else.
fn parse_picks(raw: &str) -> Option<Vec<usize>> {
    let mut pages = Vec::new();
    if raw.is_empty() {
        return Some(pages);
    }
    for pick in raw.split(LIST_SEP) {
        let page = usize::try_from(decode_u64(pick)?).ok()?;
        if pages.contains(&page) {
            return None;
        }
        pages.push(page);
    }
    Some(pages)
}

fn field<'a>(record: &'a ServiceRecord, name: &str) -> Option<&'a str> {
    record
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// A field that may be absent but, when present, must decode.
fn optional<T>(
    record: &ServiceRecord,
    name: &str,
    decode: impl Fn(&str) -> Option<T>,
) -> Option<Option<T>> {
    match field(record, name) {
        None => Some(None),
        Some(v) => decode(v).map(Some),
    }
}

/// The header record both frames open with: what the body is, and how
/// many records it must hold.
fn header(kind: &str, n: usize) -> ServiceRecord {
    vec![
        ("kind".to_string(), kind.to_string()),
        ("n".to_string(), n.to_string()),
    ]
}

/// Split a frame into its header and body, checking the header's kind
/// and that the body holds exactly the `n` records it announces.
fn framed<'a>(
    response: &'a ServiceResponse,
    kind: &str,
) -> Option<(&'a ServiceRecord, &'a [ServiceRecord])> {
    let (header, body) = response.records.split_first()?;
    if field(header, "kind") != Some(kind) {
        return None;
    }
    let n = usize::try_from(decode_u64(field(header, "n")?)?).ok()?;
    (body.len() == n).then_some((header, body))
}

/// Encode a shard's candidate pool as wire records: one header record
/// carrying the shard's MaxScore merge bound, then one four-field
/// record per pool entry in pool order.
pub fn encode_pool(pool: &ShardPool) -> ServiceResponse {
    let mut records = Vec::with_capacity(pool.entries.len() + 1);
    let mut head = header("pool", pool.entries.len());
    head.push(("bound".to_string(), encode_f32(pool.bound)));
    records.push(head);
    for e in &pool.entries {
        records.push(vec![
            ("page".to_string(), e.page.to_string()),
            ("raw".to_string(), encode_f32(e.raw)),
            ("score".to_string(), encode_f32(e.score)),
            ("url".to_string(), e.url.clone()),
        ]);
    }
    ServiceResponse::records(records)
}

/// Decode a pool framed by [`encode_pool`]. `None` on any malformed
/// record — a garbled shard answer must read as a failed shard, never
/// as a silently truncated pool.
pub fn decode_pool(response: &ServiceResponse) -> Option<ShardPool> {
    let (header, body) = framed(response, "pool")?;
    let bound = decode_f32(field(header, "bound")?)?;
    let mut entries = Vec::with_capacity(body.len());
    for rec in body {
        entries.push(PoolEntry {
            page: usize::try_from(decode_u64(field(rec, "page")?)?).ok()?,
            raw: decode_f32(field(rec, "raw")?)?,
            score: decode_f32(field(rec, "score")?)?,
            url: field(rec, "url")?.to_string(),
        });
    }
    Some(ShardPool { entries, bound })
}

/// Encode the answer to a `/fetch`: a header, then one record per
/// page asked, in the order asked.
pub(crate) fn encode_fields(fields: &[PageFields]) -> ServiceResponse {
    let mut records = Vec::with_capacity(fields.len() + 1);
    records.push(header("fields", fields.len()));
    for f in fields {
        let mut rec: ServiceRecord = vec![
            ("title".to_string(), f.title.clone()),
            ("snippet".to_string(), f.snippet.clone()),
            ("domain".to_string(), f.domain.clone()),
        ];
        if let Some(src) = &f.image_src {
            rec.push(("image_src".to_string(), src.clone()));
        }
        if let Some(d) = f.duration_s {
            rec.push(("duration_s".to_string(), d.to_string()));
        }
        if let Some(d) = f.date {
            rec.push(("date".to_string(), d.to_string()));
        }
        records.push(rec);
    }
    ServiceResponse::records(records)
}

/// Decode fields framed by `encode_fields`. `None` on any malformed
/// record, including a media field that is present but does not parse.
pub fn decode_fields(response: &ServiceResponse) -> Option<Vec<PageFields>> {
    let (_, body) = framed(response, "fields")?;
    let mut fields = Vec::with_capacity(body.len());
    for rec in body {
        fields.push(PageFields {
            title: field(rec, "title")?.to_string(),
            snippet: field(rec, "snippet")?.to_string(),
            domain: field(rec, "domain")?.to_string(),
            image_src: field(rec, "image_src").map(str::to_string),
            duration_s: optional(rec, "duration_s", |v| {
                decode_u64(v).and_then(|d| u32::try_from(d).ok())
            })?,
            date: optional(rec, "date", decode_i64)?,
        });
    }
    Some(fields)
}

/// One shard node: serves `/search` (the shard-local lean candidate
/// pool plus merge bound) and `/fetch` (the displayed fields of the
/// pages named) over its slice of the corpus.
#[derive(Debug, Clone)]
pub struct ShardSearchService {
    engine: Arc<SearchEngine>,
}

impl ShardSearchService {
    /// Node over one shard's engine (primary and replica wrap clones
    /// of the same `Arc`).
    pub fn new(engine: Arc<SearchEngine>) -> ShardSearchService {
        ShardSearchService { engine }
    }
}

impl Service for ShardSearchService {
    fn describe(&self) -> ServiceDescription {
        let shared = ["vertical", "q", "sites", "augment", "prefer"];
        let operation = |name: &str, own: &str, returns: &[&str]| OperationDesc {
            name: name.into(),
            params: shared.iter().chain([&own]).map(|p| p.to_string()).collect(),
            returns: returns.iter().map(|r| r.to_string()).collect(),
        };
        ServiceDescription {
            name: "Shard search node".into(),
            protocol: Protocol::Rest,
            operations: vec![
                operation("/search", "k", &["page", "raw", "score", "url"]),
                operation("/fetch", "pages", &["title", "snippet", "domain"]),
            ],
        }
    }

    fn handle(&self, request: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
        let bad = |msg: &str| ServiceFault {
            code: 400,
            message: msg.into(),
        };
        let vertical = request
            .param("vertical")
            .and_then(vertical_from_name)
            .ok_or_else(|| bad("bad vertical"))?;
        let query = request.param("q").ok_or_else(|| bad("missing q"))?;
        let config = SearchConfig {
            site_restrict: split_list(request.param("sites").unwrap_or_default()),
            augment_terms: split_list(request.param("augment").unwrap_or_default()),
            prefer_sites: split_list(request.param("prefer").unwrap_or_default()),
        };
        match request.operation() {
            "/search" => {
                let k: usize = request
                    .param("k")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("bad k"))?;
                let pool = self.engine.search_pool(vertical, query, &config, k);
                Ok(encode_pool(&pool))
            }
            "/fetch" => {
                let pages = request
                    .param("pages")
                    .and_then(parse_picks)
                    .ok_or_else(|| bad("bad pages"))?;
                let fields = self
                    .engine
                    .hydrate_pages(query, &config, &pages)
                    .ok_or_else(|| bad("page outside the page table"))?;
                Ok(encode_fields(&fields))
            }
            _ => Err(bad("unknown operation")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_web::{Corpus, CorpusConfig};

    fn a_pool() -> ShardPool {
        ShardPool {
            entries: vec![
                PoolEntry {
                    page: 7,
                    raw: 3.25,
                    score: 4.5,
                    url: "https://ign.com/raiders".into(),
                },
                PoolEntry {
                    page: 0,
                    raw: f32::from_bits(0x3f80_0001), // exercises exactness
                    score: 0.125,
                    url: "https://tube.example/clip".into(),
                },
            ],
            bound: 2.875,
        }
    }

    fn some_fields() -> Vec<PageFields> {
        vec![
            PageFields {
                title: "Galactic Raiders review".into(),
                snippet: "A <b>space</b> shooter".into(),
                domain: "ign.com".into(),
                image_src: None,
                duration_s: None,
                date: Some(1_700_000_000),
            },
            PageFields {
                title: "Trailer".into(),
                snippet: "watch".into(),
                domain: "tube.example".into(),
                image_src: Some("https://tube.example/clip.jpg".into()),
                duration_s: Some(214),
                date: None,
            },
        ]
    }

    fn set(record: &mut ServiceRecord, name: &str, value: &str) {
        let slot = record.iter_mut().find(|(k, _)| k == name);
        slot.expect("field present").1 = value.to_string();
    }

    #[test]
    fn pool_roundtrips_bit_exactly() {
        let pool = a_pool();
        let decoded = decode_pool(&encode_pool(&pool)).expect("roundtrip");
        assert_eq!(decoded.bound.to_bits(), pool.bound.to_bits());
        assert_eq!(decoded.entries.len(), pool.entries.len());
        for (d, e) in decoded.entries.iter().zip(&pool.entries) {
            assert_eq!(d.page, e.page);
            assert_eq!(d.raw.to_bits(), e.raw.to_bits());
            assert_eq!(d.score.to_bits(), e.score.to_bits());
            assert_eq!(d, e);
        }
    }

    #[test]
    fn nonfinite_bounds_survive_the_wire() {
        let mut pool = a_pool();
        pool.bound = f32::NEG_INFINITY;
        let decoded = decode_pool(&encode_pool(&pool)).expect("roundtrip");
        assert!(decoded.bound.is_infinite() && decoded.bound < 0.0);
    }

    #[test]
    fn fields_roundtrip() {
        let fields = some_fields();
        assert_eq!(decode_fields(&encode_fields(&fields)), Some(fields));
        assert_eq!(decode_fields(&encode_fields(&[])), Some(Vec::new()));
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let mut resp = encode_pool(&a_pool());
        resp.records.pop();
        assert!(decode_pool(&resp).is_none(), "body shorter than header n");
        assert!(decode_pool(&ServiceResponse::empty()).is_none());
        let mut resp = encode_fields(&some_fields());
        resp.records.pop();
        assert!(decode_fields(&resp).is_none(), "body shorter than header n");
        assert!(decode_fields(&ServiceResponse::empty()).is_none());
    }

    #[test]
    fn hostile_frames_are_rejected() {
        // One frame is never mistaken for the other.
        assert!(decode_fields(&encode_pool(&a_pool())).is_none());
        assert!(decode_pool(&encode_fields(&some_fields())).is_none());
        // A body longer than the header announces.
        let mut resp = encode_pool(&a_pool());
        resp.records.push(resp.records[1].clone());
        assert!(decode_pool(&resp).is_none());
        // A lean record missing any of its four fields.
        for name in ["page", "raw", "score", "url"] {
            let mut resp = encode_pool(&a_pool());
            resp.records[2].retain(|(k, _)| k != name);
            assert!(decode_pool(&resp).is_none(), "record without {name}");
        }
        // Numbers that do not parse, in either frame.
        for (record, name, value) in [
            (0, "n", "two"),
            (0, "bound", "3.5"),
            (1, "page", "-1"),
            (1, "raw", "zzzzzzzz"),
            (1, "score", "1e9"),
        ] {
            let mut resp = encode_pool(&a_pool());
            set(&mut resp.records[record], name, value);
            assert!(decode_pool(&resp).is_none(), "{name} = {value:?}");
        }
        for (record, name, value) in [
            (0, "n", ""),
            (1, "date", "yesterday"),
            (2, "duration_s", "4294967296"),
        ] {
            let mut resp = encode_fields(&some_fields());
            set(&mut resp.records[record], name, value);
            assert!(decode_fields(&resp).is_none(), "{name} = {value:?}");
        }
        let mut resp = encode_fields(&some_fields());
        resp.records[1].retain(|(k, _)| k != "snippet");
        assert!(decode_fields(&resp).is_none(), "record without snippet");
    }

    #[test]
    fn hostile_requests_fault_instead_of_panicking() {
        let corpus = Corpus::generate(&CorpusConfig {
            sites_per_topic: 1,
            pages_per_site: 2,
            ..CorpusConfig::default()
        });
        let pages = corpus.pages.len();
        let node = ShardSearchService::new(Arc::new(SearchEngine::new(corpus)));
        let config = SearchConfig::default();
        let fetch = |picks: &str| {
            let mut req = fetch_request(Vertical::Web, "game", &config, &[]);
            let ServiceRequest::Rest(rest) = &mut req else {
                unreachable!("fetch requests are REST");
            };
            set(&mut rest.params, "pages", picks);
            node.handle(&req)
        };
        let ok = fetch("0\x1f1").expect("two known pages");
        assert_eq!(decode_fields(&ok).map(|f| f.len()), Some(2));
        assert_eq!(
            decode_fields(&fetch("").expect("no picks")),
            Some(Vec::new())
        );
        for picks in [
            pages.to_string(),             // first index past the page table
            "18446744073709551615".into(), // usize::MAX
            "99999999999999999999".into(), // overflows u64
            "one".into(),                  // not a number
            "0\x1f0".into(),               // the same pick twice
            "0\x1f+0".into(),              // ... under another spelling
            "0\x1f".into(),                // trailing separator
            "0,1".into(),                  // wrong separator
        ] {
            let fault = fetch(&picks).expect_err(&picks);
            assert_eq!(fault.code, 400, "{picks:?}");
        }
        // Either operation without its own parameter, without `q`, or
        // under a path the node does not serve.
        let drop = |req: &ServiceRequest, name: &str| {
            let mut req = req.clone();
            let ServiceRequest::Rest(rest) = &mut req else {
                unreachable!("shard requests are REST");
            };
            rest.params.retain(|(k, _)| k != name);
            req
        };
        let search = search_request(Vertical::Web, "game", &config, 10);
        let fetch_req = fetch_request(Vertical::Web, "game", &config, &[0]);
        for (req, name) in [
            (&search, "q"),
            (&search, "k"),
            (&search, "vertical"),
            (&fetch_req, "q"),
            (&fetch_req, "pages"),
        ] {
            let fault = node.handle(&drop(req, name)).expect_err(name);
            assert_eq!(fault.code, 400, "{} without {name}", req.operation());
        }
        let stray = ServiceRequest::get("/reindex", &[("vertical", "web"), ("q", "game")]);
        assert_eq!(node.handle(&stray).expect_err("unknown path").code, 400);
    }

    #[test]
    fn config_lists_survive_the_request_framing() {
        let config = SearchConfig::default()
            .restrict_to(["gamespot.com", "ign.com"])
            .augment(["review"])
            .prefer(["ign.com"]);
        let req = search_request(Vertical::News, "space raiders", &config, 12);
        assert_eq!(req.param("vertical"), Some("news"));
        assert_eq!(req.param("q"), Some("space raiders"));
        assert_eq!(req.param("k"), Some("12"));
        assert_eq!(
            split_list(req.param("sites").unwrap()),
            vec!["gamespot.com".to_string(), "ign.com".to_string()]
        );
        assert_eq!(split_list(req.param("augment").unwrap()), vec!["review"]);
        assert_eq!(split_list(req.param("prefer").unwrap()), vec!["ign.com"]);
        assert_eq!(split_list(""), Vec::<String>::new());
        // The fetch request carries the same config and its picks.
        let req = fetch_request(Vertical::News, "space raiders", &config, &[41, 7]);
        assert_eq!(req.operation(), "/fetch");
        assert_eq!(split_list(req.param("augment").unwrap()), vec!["review"]);
        assert_eq!(req.param("pages").and_then(parse_picks), Some(vec![41, 7]));
    }
}
