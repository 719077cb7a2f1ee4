//! Seeded inputs of the serving workloads: the read-request mix and the
//! edit bursts. Everything is generated from the seed before any timer
//! starts; the program under test only ever sees the generated text.

use std::fmt::Write as _;

use tecore_datagen::GeneratedKg;
use tecore_kg::FactId;

/// SplitMix64: a tiny, well-distributed, seedable generator (std only;
/// the load generator must not share state with the datagen crate's
/// generator, or an input change there would shift the request mix).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A rank in `0..n` with probability ∝ 1/(rank+1) — Zipf with
    /// exponent 1, drawn by inverting the (continuous) CDF.
    pub fn zipf(&mut self, n: u64) -> u64 {
        (((n + 1) as f64).powf(self.unit()) as u64)
            .saturating_sub(1)
            .min(n - 1)
    }
}

/// FNV-1a over a byte stream — the determinism tests' fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes, then a separator so `("ab","c") != ("a","bc")`.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xffu8]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The fingerprint so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a list of text lines.
pub fn hash_lines<S: AsRef<str>>(lines: &[S]) -> u64 {
    let mut h = Fnv::default();
    for line in lines {
        h.feed(line.as_ref().as_bytes());
    }
    h.finish()
}

/// Which executor a read request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `Q` — matching facts.
    Facts,
    /// `COUNT` — match count.
    Count,
    /// `OBJECTS` — distinct objects.
    Objects,
    /// `TIMELINE` — coalesced per-statement timelines.
    Timeline,
}

/// Time clause of a read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadTime {
    /// No constraint.
    Any,
    /// `at=t`.
    At(i64),
    /// `over=a..b`.
    Over(i64, i64),
}

/// One read request in structured form (the oracle's view) — rendered
/// to the wire line the server sees by [`ReadReq::line`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReadReq {
    /// Executor.
    pub kind: ReadKind,
    /// `s=` clause.
    pub subject: Option<String>,
    /// `p=` clause.
    pub predicate: Option<&'static str>,
    /// Time clause.
    pub time: ReadTime,
    /// `limit=` clause.
    pub limit: Option<usize>,
}

impl ReadReq {
    /// The request line, without its newline.
    pub fn line(&self) -> String {
        let mut out = String::with_capacity(48);
        out.push_str(match self.kind {
            ReadKind::Facts => "Q",
            ReadKind::Count => "COUNT",
            ReadKind::Objects => "OBJECTS",
            ReadKind::Timeline => "TIMELINE",
        });
        if let Some(s) = &self.subject {
            let _ = write!(out, " s={s}");
        }
        if let Some(p) = self.predicate {
            let _ = write!(out, " p={p}");
        }
        match self.time {
            ReadTime::Any => {}
            ReadTime::At(t) => {
                let _ = write!(out, " at={t}");
            }
            ReadTime::Over(a, b) => {
                let _ = write!(out, " over={a}..{b}");
            }
        }
        if let Some(n) = self.limit {
            let _ = write!(out, " limit={n}");
        }
        out
    }
}

/// Relations the Wikidata generator emits with bounded validity, most
/// frequent first. (`birthDate` intervals all run to the observation
/// horizon, so a point-in-time count over them is a scan of half the
/// relation — a millisecond-scale request that would swamp the mix.)
const RELATIONS: [&str; 5] = ["playsFor", "memberOf", "spouse", "educatedAt", "occupation"];

/// The seeded read mix over a Wikidata-like graph with `people`
/// subjects (`Q0` … `Q{people-1}`, Zipf-distributed): 40 % point
/// lookups (`Q s=` / `Q s= p=`), 20 % `COUNT … at=`, 20 % `COUNT`/`Q`
/// `… over=a..b limit=`, 10 % `OBJECTS`, 10 % `TIMELINE`.
pub fn read_mix(seed: u64, people: u64, count: usize) -> Vec<ReadReq> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let subject = format!("Q{}", rng.zipf(people.max(1)));
        let year = 1930 + rng.below(80) as i64;
        let relation = RELATIONS[rng.zipf(RELATIONS.len() as u64) as usize];
        let req = match rng.below(10) {
            0 | 1 => ReadReq {
                kind: ReadKind::Facts,
                subject: Some(subject),
                predicate: None,
                time: ReadTime::Any,
                limit: None,
            },
            2 | 3 => ReadReq {
                kind: ReadKind::Facts,
                subject: Some(subject),
                predicate: Some("playsFor"),
                time: ReadTime::Any,
                limit: None,
            },
            // The skewed relation makes `COUNT p=playsFor at=` scan
            // thousands of index entries; the tail relations a handful.
            4 | 5 => ReadReq {
                kind: ReadKind::Count,
                subject: None,
                predicate: Some(relation),
                time: ReadTime::At(year),
                limit: None,
            },
            6 => ReadReq {
                kind: ReadKind::Count,
                subject: Some(subject),
                predicate: None,
                time: ReadTime::Over(year, year + 10),
                limit: None,
            },
            7 => ReadReq {
                kind: ReadKind::Facts,
                subject: None,
                predicate: Some(relation),
                time: ReadTime::Over(year, year + 5),
                limit: Some(20),
            },
            8 => ReadReq {
                kind: ReadKind::Objects,
                subject: Some(subject),
                predicate: Some("playsFor"),
                time: ReadTime::Any,
                limit: None,
            },
            _ => ReadReq {
                kind: ReadKind::Timeline,
                subject: Some(subject),
                predicate: None,
                time: ReadTime::Any,
                limit: None,
            },
        };
        out.push(req);
    }
    out
}

/// One insert of an edit burst.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstInsert {
    /// The `INSERT …` request line.
    pub line: String,
    /// Is this fact injected noise (it contradicts an existing spell)?
    pub noise: bool,
}

/// One edit burst: conflicting inserts plus a marker fact whose subject
/// is unique to the burst, so its visibility can be polled through the
/// graph's `(subject, predicate)` hash index — a poll by object alone is
/// a scan of the whole arena, a load of its own at one poll a millisecond.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    /// Inserts, marker last.
    pub inserts: Vec<BurstInsert>,
    /// Subject term of the marker fact (its predicate is `memberOf`).
    pub marker: String,
}

/// Conflicting inserts per burst (the marker comes on top).
pub const BURST_CONFLICTS: usize = 3;

/// Seeded edit bursts against `base`: each conflicting insert reuses
/// the subject and interval of an existing clean `playsFor` spell with
/// a new club and a low confidence, so the `wPlays` disjointness
/// constraint is violated and the repair has to choose.
pub fn edit_bursts(seed: u64, base: &GeneratedKg, count: usize) -> Vec<Burst> {
    let mut rng = Rng::new(seed, 2);
    let graph = &base.graph;
    let dict = graph.dict();
    let plays = dict.lookup("playsFor");
    let spells: Vec<FactId> = graph
        .iter()
        .filter(|(id, f)| Some(f.predicate) == plays && !base.is_noise(*id))
        .map(|(id, _)| id)
        .collect();
    assert!(!spells.is_empty(), "base graph has no playsFor spells");
    (0..count)
        .map(|b| {
            let mut inserts: Vec<BurstInsert> = (0..BURST_CONFLICTS)
                .map(|j| {
                    let id = spells[rng.below(spells.len() as u64) as usize];
                    let fact = graph.fact(id).expect("live spell");
                    let conf = 0.30 + rng.below(21) as f64 / 100.0;
                    BurstInsert {
                        line: format!(
                            "INSERT {} playsFor ChurnTeam{b}x{j} [{},{}] {conf:.2}",
                            dict.resolve(fact.subject),
                            fact.interval.start().value(),
                            fact.interval.end().value()
                        ),
                        noise: true,
                    }
                })
                .collect();
            let marker = format!("QB{b}");
            inserts.push(BurstInsert {
                line: format!("INSERT {marker} memberOf Mark{b} [2000,2001] 0.9"),
                noise: false,
            });
            Burst { inserts, marker }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_datagen::{generate_wikidata, WikidataConfig};

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::new(7, 0);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = rng.zipf(1000);
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
        }
        // ln(11)/ln(1001) ≈ 35 % of the mass sits on the first 1 %.
        assert!((2_500..4_500).contains(&head), "head draws: {head}");
        assert_eq!(Rng::new(1, 0).zipf(1), 0);
    }

    #[test]
    fn read_mix_is_a_function_of_the_seed() {
        let lines = |seed| -> Vec<String> {
            read_mix(seed, 5_000, 2_000)
                .iter()
                .map(ReadReq::line)
                .collect()
        };
        assert_eq!(hash_lines(&lines(1)), hash_lines(&lines(1)));
        assert_ne!(hash_lines(&lines(1)), hash_lines(&lines(2)));
        let mix = lines(1);
        for verb in ["Q s=", "COUNT p=", "COUNT s=", "OBJECTS s=", "TIMELINE s="] {
            assert!(mix.iter().any(|l| l.starts_with(verb)), "{verb} missing");
        }
        assert!(mix
            .iter()
            .any(|l| l.contains(" over=") && l.contains(" limit=20")));
    }

    #[test]
    fn edit_bursts_are_a_function_of_the_seed_and_conflict() {
        let base = generate_wikidata(&WikidataConfig {
            total_facts: 3_000,
            noise_ratio: 0.1,
            seed: 5,
        });
        let lines = |seed| -> Vec<String> {
            edit_bursts(seed, &base, 20)
                .into_iter()
                .flat_map(|b| b.inserts)
                .map(|i| i.line)
                .collect()
        };
        assert_eq!(hash_lines(&lines(1)), hash_lines(&lines(1)));
        assert_ne!(hash_lines(&lines(1)), hash_lines(&lines(2)));
        let bursts = edit_bursts(1, &base, 20);
        assert!(bursts
            .iter()
            .all(|b| b.inserts.len() == BURST_CONFLICTS + 1));
        assert!(bursts[3].inserts.last().unwrap().line.contains("Mark3"));
        assert!(bursts.iter().all(|b| !b.inserts.last().unwrap().noise));
    }

    #[test]
    fn fnv_separates_fields() {
        assert_ne!(hash_lines(&["ab", "c"]), hash_lines(&["a", "bc"]));
    }
}
