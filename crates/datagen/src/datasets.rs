//! The four benchmark dataset profiles.
//!
//! Each profile emulates the *matching-relevant signature* of one of the
//! paper's benchmarks (Table I), scaled to laptop size. What MinoanER
//! sees is entirely determined by token-frequency statistics, name
//! uniqueness, schema scatter and link structure — exactly the knobs
//! these profiles control (the real pairs' statistics are transcribed in
//! `minoan_eval::paper`):
//!
//! - [`DatasetKind::Restaurant`]: tiny, strongly similar pair with
//!   address companions — everything matches on names and values;
//! - [`DatasetKind::RexaDblp`]: publications + authors, heavy size skew
//!   towards the second KB, good value overlap;
//! - [`DatasetKind::BbcDbpedia`]: extreme schema heterogeneity — the
//!   second side scatters attributes over hundreds of names and buries
//!   values in verbose abstracts;
//! - [`DatasetKind::YagoImdb`]: movies + persons with *very low* value
//!   overlap but distinctive names and strong relational evidence.

use minoan_kb::{GroundTruth, KbPair};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::render::{render_pair, ClassRender, RenderSpec};
use crate::words::WordPool;
use crate::world::{ClassSpec, FieldSpec, Presence, TokenPools, World};

/// A generated benchmark dataset.
pub struct Dataset {
    /// Human-readable dataset name (paper spelling).
    pub name: String,
    /// Which profile generated it.
    pub kind: DatasetKind,
    /// The KB pair.
    pub pair: KbPair,
    /// The ground-truth matches.
    pub truth: GroundTruth,
}

/// The four benchmark profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// OAEI Restaurant analogue.
    Restaurant,
    /// Rexa–DBLP analogue.
    RexaDblp,
    /// BBCmusic–DBpedia analogue.
    BbcDbpedia,
    /// YAGO–IMDb analogue.
    YagoImdb,
}

impl DatasetKind {
    /// All profiles, in the paper's column order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Restaurant,
        DatasetKind::RexaDblp,
        DatasetKind::BbcDbpedia,
        DatasetKind::YagoImdb,
    ];

    /// The dataset name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Restaurant => "Restaurant",
            DatasetKind::RexaDblp => "Rexa-DBLP",
            DatasetKind::BbcDbpedia => "BBCmusic-DBpedia",
            DatasetKind::YagoImdb => "YAGO-IMDb",
        }
    }

    /// A profile by its short name (`restaurant`, `rexa`, `bbc`,
    /// `yago`) or its [`DatasetKind::name`], in any case: the one
    /// parser behind the command line and manifests.
    pub fn parse(name: &str) -> Option<DatasetKind> {
        match name.to_ascii_lowercase().as_str() {
            "restaurant" => Some(DatasetKind::Restaurant),
            "rexa" | "rexa-dblp" => Some(DatasetKind::RexaDblp),
            "bbc" | "bbcmusic-dbpedia" => Some(DatasetKind::BbcDbpedia),
            "yago" | "yago-imdb" => Some(DatasetKind::YagoImdb),
            _ => None,
        }
    }

    /// Generates the dataset at default scale.
    pub fn generate(self, seed: u64) -> Dataset {
        self.generate_scaled(seed, 1.0)
    }

    /// Approximate number of entities (both sides together) that
    /// [`DatasetKind::generate_scaled`] produces at `scale`, without
    /// generating anything. The counts mirror the per-class entity
    /// budgets of each profile (matched + side-only + companions) and
    /// are the KB-stats input to the serving layer's bounded-memory
    /// admission: a synthetic job's footprint is estimated from this
    /// before the dataset exists.
    pub fn approx_entities(self, scale: f64) -> usize {
        let base = match self {
            // restaurants (90+25+990) plus one address each.
            DatasetKind::Restaurant => 2 * (90 + 25 + 990),
            // publications (450+120+2600) + authors (280+80+1100).
            DatasetKind::RexaDblp => 3170 + 1460,
            // artists (700+550+1800) + places (550+60+160).
            DatasetKind::BbcDbpedia => 3050 + 770,
            // movies (700+90+140) + persons (1000+130+180).
            DatasetKind::YagoImdb => 930 + 1310,
        };
        ((base as f64 * scale).round() as usize).max(1)
    }

    /// Generates the dataset with entity counts multiplied by `scale`
    /// (used by the scale-sweep benchmarks).
    pub fn generate_scaled(self, seed: u64, scale: f64) -> Dataset {
        assert!(scale > 0.0, "scale must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ (self as u64) << 32);
        let (world, specs) = match self {
            DatasetKind::Restaurant => restaurant(&mut rng, scale),
            DatasetKind::RexaDblp => rexa_dblp(&mut rng, scale),
            DatasetKind::BbcDbpedia => bbc_dbpedia(&mut rng, scale),
            DatasetKind::YagoImdb => yago_imdb(&mut rng, scale),
        };
        let (pair, truth) = render_pair(&world, [&specs[0], &specs[1]], &mut rng);
        Dataset {
            name: self.name().to_string(),
            kind: self,
            pair,
            truth,
        }
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(1)
}

/// Adds `both` + `first` + `second` entities of one class, returning the
/// canonical indices grouped by presence.
#[allow(clippy::too_many_arguments)]
fn add_class(
    world: &mut World,
    rng: &mut StdRng,
    class: usize,
    spec: &ClassSpec,
    pools: &TokenPools,
    both: usize,
    first: usize,
    second: usize,
) -> Vec<usize> {
    let mut idx = Vec::with_capacity(both + first + second);
    for _ in 0..both {
        idx.push(world.add_entity(rng, class, Presence::Both, spec, pools));
    }
    for _ in 0..first {
        idx.push(world.add_entity(rng, class, Presence::FirstOnly, spec, pools));
    }
    for _ in 0..second {
        idx.push(world.add_entity(rng, class, Presence::SecondOnly, spec, pools));
    }
    idx
}

/// Adds a class whose entities are organized into *collision clusters*
/// (see [`World::add_cluster`]): a `collision_rate` fraction of clusters
/// hold 2+ distinct entities sharing the same canonical name and field
/// content. Presences are shuffled so clusters span ground-truth and
/// side-only entities alike.
#[allow(clippy::too_many_arguments)]
fn add_class_clustered(
    world: &mut World,
    rng: &mut StdRng,
    class: usize,
    spec: &ClassSpec,
    name_pool: &WordPool,
    pools: &TokenPools,
    counts: (usize, usize, usize),
    collision_rate: f64,
    cluster_size: (usize, usize),
) -> Vec<usize> {
    use rand::seq::SliceRandom;
    use rand::Rng;
    let (both, first, second) = counts;
    let mut presences: Vec<Presence> = Vec::with_capacity(both + first + second);
    presences.extend(std::iter::repeat_n(Presence::Both, both));
    presences.extend(std::iter::repeat_n(Presence::FirstOnly, first));
    presences.extend(std::iter::repeat_n(Presence::SecondOnly, second));
    presences.shuffle(rng);
    let mut idx = Vec::with_capacity(presences.len());
    let mut i = 0;
    while i < presences.len() {
        let size = if rng.gen_bool(collision_rate) {
            rng.gen_range(cluster_size.0..=cluster_size.1)
                .min(presences.len() - i)
        } else {
            1
        };
        let n_name = rng.gen_range(spec.name_words.0..=spec.name_words.1);
        let name: Vec<String> = (0..n_name)
            .map(|_| name_pool.pick(rng).to_string())
            .collect();
        idx.extend(world.add_cluster(rng, class, &presences[i..i + size], spec, name, pools));
        i += size;
    }
    idx
}

fn pick(rng: &mut StdRng, v: &[usize]) -> usize {
    use rand::Rng;
    v[rng.gen_range(0..v.len())]
}

/// Entity indices partitioned by presence, for presence-compatible link
/// targeting: a KB describes its own publications' authors and its own
/// movies' actors, so links must rarely dangle (target absent from the
/// source's side).
struct ByPresence {
    both: Vec<usize>,
    first: Vec<usize>,
    second: Vec<usize>,
}

impl ByPresence {
    fn split(world: &World, idx: &[usize]) -> Self {
        let mut by = ByPresence {
            both: Vec::new(),
            first: Vec::new(),
            second: Vec::new(),
        };
        for &i in idx {
            match world.entities[i].presence {
                Presence::Both => by.both.push(i),
                Presence::FirstOnly => by.first.push(i),
                Presence::SecondOnly => by.second.push(i),
            }
        }
        by
    }

    /// Picks a target compatible with `presence`: a `Both` source mostly
    /// links `Both` targets (the shared world), one-sided sources link
    /// targets present on their side.
    fn pick_for(&self, rng: &mut StdRng, presence: Presence, both_bias: f64) -> Option<usize> {
        use rand::Rng;
        let pool: &[usize] = match presence {
            Presence::Both => {
                if self.both.is_empty() {
                    return None;
                }
                // The draw is kept even though both outcomes land in the
                // shared pool: it keeps the RNG stream aligned with the
                // one-sided arms, which consume one draw per pick.
                let _ = rng.gen_bool(both_bias);
                &self.both
            }
            Presence::FirstOnly => {
                if !self.first.is_empty() && rng.gen_bool(0.5) {
                    &self.first
                } else if !self.both.is_empty() {
                    &self.both
                } else if !self.first.is_empty() {
                    &self.first
                } else {
                    return None;
                }
            }
            Presence::SecondOnly => {
                if !self.second.is_empty() && rng.gen_bool(0.5) {
                    &self.second
                } else if !self.both.is_empty() {
                    &self.both
                } else if !self.second.is_empty() {
                    &self.second
                } else {
                    return None;
                }
            }
        };
        Some(pool[rng.gen_range(0..pool.len())])
    }
}

// ---------------------------------------------------------------- Restaurant

fn restaurant(rng: &mut StdRng, scale: f64) -> (World, [RenderSpec; 2]) {
    let pools = TokenPools::generate(rng, 6000, 40, 2000);
    let restaurant_spec = ClassSpec {
        name_words: (2, 4),
        name_exact_prob: 0.97,
        name_drop_prob: 0.2,
        fields: vec![
            // cuisine / category: common vocabulary.
            FieldSpec::new((2, 3), 0.85, [0.95, 0.9], [(0, 1), (0, 1)]),
            // phone-ish distinctive value.
            FieldSpec::new((1, 2), 0.0, [0.95, 0.95], [(0, 0), (0, 0)]),
        ],
    };
    let address_spec = ClassSpec {
        name_words: (3, 4),
        name_exact_prob: 0.9,
        name_drop_prob: 0.25,
        fields: vec![FieldSpec::new((2, 3), 0.5, [0.95, 0.9], [(0, 1), (0, 1)])],
    };
    let mut world = World {
        gt_classes: vec![0],
        ..World::default()
    };
    let n_match = scaled(90, scale);
    let restaurants = add_class(
        &mut world,
        rng,
        0,
        &restaurant_spec,
        &pools,
        n_match,
        scaled(25, scale),
        scaled(990, scale),
    );
    // One address per restaurant, same presence.
    for &r in &restaurants {
        let presence = world.entities[r].presence;
        let a = world.add_entity(rng, 1, presence, &address_spec, &pools);
        world.link(r, 0, a);
    }
    let specs = [
        RenderSpec {
            kb_name: "Restaurant-E1".into(),
            uri_prefix: "r1:e".into(),
            attr_prefix: "http://restaurant1/".into(),
            classes: vec![
                ClassRender {
                    name_attr: "name".into(),
                    field_attrs: vec!["category".into(), "phone".into()],
                    type_assertion: Some(("type".into(), "Restaurant".into())),
                    attr_scatter: 1,
                    name_punctuation_prob: 0.0,
                },
                ClassRender {
                    name_attr: "street".into(),
                    field_attrs: vec!["city".into()],
                    type_assertion: Some(("type".into(), "Address".into())),
                    attr_scatter: 1,
                    name_punctuation_prob: 0.0,
                },
            ],
            relation_attrs: vec!["address".into()],
        },
        RenderSpec {
            kb_name: "Restaurant-E2".into(),
            uri_prefix: "r2:e".into(),
            attr_prefix: "http://restaurant2/".into(),
            classes: vec![
                ClassRender {
                    name_attr: "title".into(),
                    field_attrs: vec!["cuisine".into(), "telephone".into()],
                    type_assertion: Some(("type".into(), "Restaurant".into())),
                    attr_scatter: 1,
                    name_punctuation_prob: 0.0,
                },
                ClassRender {
                    name_attr: "streetAddress".into(),
                    field_attrs: vec!["locality".into()],
                    type_assertion: Some(("type".into(), "Address".into())),
                    attr_scatter: 1,
                    name_punctuation_prob: 0.0,
                },
            ],
            relation_attrs: vec!["hasAddress".into()],
        },
    ];
    (world, specs)
}

// ----------------------------------------------------------------- Rexa-DBLP

fn rexa_dblp(rng: &mut StdRng, scale: f64) -> (World, [RenderSpec; 2]) {
    let pools = TokenPools::generate(rng, 30000, 120, 20000);
    // Paper titles reuse a field-specific vocabulary: full titles are
    // unique, individual title words are not.
    let title_words = WordPool::generate(rng, scaled(2200, scale));
    let pub_spec = ClassSpec {
        name_words: (4, 7),
        name_exact_prob: 0.8,
        name_drop_prob: 0.2,
        fields: vec![
            // venue: a single categorical token.
            FieldSpec::new((1, 1), 1.0, [0.95, 0.9], [(0, 0), (0, 0)]),
            // abstract-ish: the second side is more verbose (Table I:
            // 40.7 vs 59.2 average tokens). A slice of the publications
            // carries almost no shared lexical evidence, which is what
            // caps BSL's recall below MinoanER's in the paper.
            FieldSpec::new((8, 16), 0.4, [0.85, 0.75], [(0, 4), (6, 18)])
                .with_hard(0.5, [0.85, 0.0])
                .with_cluster_share(0.1),
        ],
    };
    // Author names collide (homonym researchers, initials): identical
    // names with identical affiliations are resolved only through their
    // publications.
    let author_names = WordPool::generate(rng, scaled(1400, scale));
    let author_spec = ClassSpec {
        name_words: (2, 3),
        name_exact_prob: 0.85,
        name_drop_prob: 0.3,
        fields: vec![FieldSpec::new((2, 4), 0.9, [0.9, 0.85], [(0, 1), (0, 3)])],
    };
    let mut world = World {
        gt_classes: vec![0, 1],
        ..World::default()
    };
    let pubs = add_class_clustered(
        &mut world,
        rng,
        0,
        &pub_spec,
        &title_words,
        &pools,
        (scaled(450, scale), scaled(120, scale), scaled(2600, scale)),
        0.4,
        (2, 2),
    );
    let authors = add_class_clustered(
        &mut world,
        rng,
        1,
        &author_spec,
        &author_names,
        &pools,
        (scaled(280, scale), scaled(80, scale), scaled(1100, scale)),
        0.3,
        (2, 3),
    );
    use rand::Rng;
    let by_presence = ByPresence::split(&world, &authors);
    for &p in &pubs {
        let n_authors = rng.gen_range(1..=3);
        let presence = world.entities[p].presence;
        for _ in 0..n_authors {
            if let Some(a) = by_presence.pick_for(rng, presence, 0.9) {
                world.link(p, 0, a);
            }
        }
    }
    let specs = [
        RenderSpec {
            kb_name: "Rexa".into(),
            uri_prefix: "rexa:e".into(),
            attr_prefix: "http://rexa/".into(),
            classes: vec![
                ClassRender {
                    name_attr: "title".into(),
                    field_attrs: vec!["venue".into(), "abstract".into()],
                    type_assertion: Some(("type".into(), "Publication".into())),
                    attr_scatter: 3,
                    name_punctuation_prob: 0.0,
                },
                ClassRender {
                    name_attr: "fullname".into(),
                    field_attrs: vec!["affiliation".into()],
                    type_assertion: Some(("type".into(), "Person".into())),
                    attr_scatter: 2,
                    name_punctuation_prob: 0.0,
                },
            ],
            relation_attrs: vec!["author".into()],
        },
        RenderSpec {
            kb_name: "DBLP".into(),
            uri_prefix: "dblp:e".into(),
            attr_prefix: "http://dblp/".into(),
            classes: vec![
                ClassRender {
                    name_attr: "label".into(),
                    field_attrs: vec!["booktitle".into(), "note".into()],
                    type_assertion: Some(("type".into(), "Article".into())),
                    attr_scatter: 4,
                    name_punctuation_prob: 0.0,
                },
                ClassRender {
                    name_attr: "creatorName".into(),
                    field_attrs: vec!["homepage".into()],
                    type_assertion: Some(("type".into(), "Agent".into())),
                    attr_scatter: 2,
                    name_punctuation_prob: 0.0,
                },
            ],
            relation_attrs: vec!["creator".into()],
        },
    ];
    (world, specs)
}

// ----------------------------------------------------------- BBCmusic-DBpedia

fn bbc_dbpedia(rng: &mut StdRng, scale: f64) -> (World, [RenderSpec; 2]) {
    let pools = TokenPools::generate(rng, 25000, 150, 30000);
    // Artist names come from a medium pool: full name strings stay
    // (nearly) unique for H1, but individual name tokens are shared by
    // dozens of artists, so token-level baselines cannot lean on them.
    let artist_names = WordPool::generate(rng, scaled(450, scale));
    let artist_spec = ClassSpec {
        name_words: (2, 4),
        name_exact_prob: 0.75,
        name_drop_prob: 0.15,
        fields: vec![
            // biography: the DBpedia side is drowned in verbose abstract
            // noise (Table I: 81 vs 325 average tokens), and more than
            // half of the artists share almost no biography tokens at
            // all (paper: BSL recall 36%).
            FieldSpec::new((8, 15), 0.35, [0.9, 0.55], [(2, 10), (60, 120)])
                .with_hard(0.9, [0.9, 0.0])
                .with_cluster_share(0.25)
                .with_noise_common_ratio(0.3),
            // genre-ish categorical anchors: single common words.
            FieldSpec::new((1, 1), 1.0, [0.92, 0.88], [(0, 0), (0, 0)]),
            FieldSpec::new((1, 1), 1.0, [0.92, 0.88], [(0, 0), (0, 0)]),
        ],
    };
    let place_spec = ClassSpec {
        name_words: (1, 3),
        name_exact_prob: 0.85,
        name_drop_prob: 0.3,
        fields: vec![FieldSpec::new((3, 6), 0.5, [0.9, 0.7], [(0, 2), (5, 15)])],
    };
    let mut world = World {
        gt_classes: vec![0],
        ..World::default()
    };
    let artists = add_class_clustered(
        &mut world,
        rng,
        0,
        &artist_spec,
        &artist_names,
        &pools,
        (scaled(700, scale), scaled(550, scale), scaled(1800, scale)),
        0.33,
        (2, 3),
    );
    let places = add_class(
        &mut world,
        rng,
        1,
        &place_spec,
        &pools,
        scaled(550, scale),
        scaled(60, scale),
        scaled(160, scale),
    );
    use rand::Rng;
    let places_by = ByPresence::split(&world, &places);
    let artists_by = ByPresence::split(&world, &artists);
    for &a in &artists {
        let presence = world.entities[a].presence;
        // Birthplace: a place present wherever the artist is described.
        let Some(p) = places_by.pick_for(rng, presence, 0.9) else {
            continue;
        };
        world.link(a, 0, p);
        // DBpedia-side structural heterogeneity: the second KB asserts
        // birthPlace at several granularities (district, city, country),
        // so the relation is far from functional there — the structural
        // mismatch the paper blames for PARIS's collapse on this
        // dataset.
        for _ in 0..2 {
            let country = pick(rng, &places);
            if country != p {
                world.link_on_side(a, 0, country, 1);
            }
        }
        // Artist-artist associations (bands, collaborations): the
        // discriminating relational evidence H3 leans on.
        for _ in 0..rng.gen_range(1..=2) {
            if rng.gen_bool(0.85) {
                if let Some(other) = artists_by.pick_for(rng, presence, 0.9) {
                    if other != a {
                        world.link(a, 1, other);
                    }
                }
            }
        }
    }
    let specs = [
        RenderSpec {
            kb_name: "BBCmusic".into(),
            uri_prefix: "bbc:e".into(),
            attr_prefix: "http://bbc/".into(),
            classes: vec![
                ClassRender {
                    name_attr: "name".into(),
                    field_attrs: vec!["bio".into(), "genre".into(), "era".into()],
                    type_assertion: Some(("type".into(), "MusicArtist".into())),
                    attr_scatter: 1,
                    name_punctuation_prob: 0.0,
                },
                ClassRender {
                    name_attr: "placeName".into(),
                    field_attrs: vec!["comment".into()],
                    type_assertion: Some(("type".into(), "Place".into())),
                    attr_scatter: 1,
                    name_punctuation_prob: 0.0,
                },
            ],
            relation_attrs: vec!["birthPlace".into(), "associatedWith".into()],
        },
        RenderSpec {
            kb_name: "DBpedia".into(),
            uri_prefix: "dbp:e".into(),
            attr_prefix: "http://dbpedia/".into(),
            classes: vec![
                ClassRender {
                    name_attr: "label".into(),
                    field_attrs: vec!["abstract".into(), "subject".into(), "period".into()],
                    type_assertion: Some(("type".into(), "Agent".into())),
                    // The DBpedia signature: one logical attribute hides
                    // behind dozens of concrete predicate names.
                    attr_scatter: 60,
                    // ...and labels carry BTC-style formatting noise that
                    // defeats exact-string matchers (the paper's PARIS
                    // collapse) but not tokenized name keys.
                    name_punctuation_prob: 0.9,
                },
                ClassRender {
                    name_attr: "placeLabel".into(),
                    field_attrs: vec!["placeAbstract".into()],
                    type_assertion: Some(("type".into(), "Location".into())),
                    attr_scatter: 15,
                    name_punctuation_prob: 0.0,
                },
            ],
            relation_attrs: vec!["birthPlace".into(), "associatedBand".into()],
        },
    ];
    (world, specs)
}

// ------------------------------------------------------------------ YAGO-IMDb

fn yago_imdb(rng: &mut StdRng, scale: f64) -> (World, [RenderSpec; 2]) {
    let pools = TokenPools::generate(rng, 30000, 60, 20000);
    // Names as (nearly) unique *combinations* of frequent words: exact
    // full-string matching (H1) works, token-level value similarity does
    // not — the YAGO-IMDb signature that collapses BSL to single-digit
    // F1 while MinoanER stays above 90%.
    // Pools scale with the entity counts so per-word entity frequencies
    // (the statistic everything depends on) are scale-invariant.
    let movie_names = WordPool::generate(rng, scaled(500, scale));
    let person_names = WordPool::generate(rng, scaled(700, scale));
    let movie_spec = ClassSpec {
        name_words: (2, 4),
        name_exact_prob: 0.8,
        name_drop_prob: 0.35,
        fields: vec![
            // Categorical genre/decade-ish fields: single common words,
            // so they anchor BT co-occurrence without strong value
            // similarity and with low attribute discriminability (a
            // multi-word combination would itself become a fingerprint
            // that value-only baselines key on, which the real
            // YAGO-IMDb does not offer — BSL recall there: 4.87%).
            FieldSpec::new((1, 1), 1.0, [0.92, 0.92], [(0, 0), (0, 0)]),
            FieldSpec::new((1, 1), 1.0, [0.92, 0.92], [(0, 0), (0, 0)]),
            // Side-private catalog junk: very low cross-side overlap
            // (Table I: 15.6 vs 12.5 average tokens, lowest value
            // similarity of all datasets).
            // The second side never keeps a canonical junk token, so the
            // junk never produces shared evidence.
            FieldSpec::new((3, 6), 0.1, [0.35, 0.0], [(2, 4), (1, 3)]),
        ],
    };
    let person_spec = ClassSpec {
        name_words: (2, 3),
        name_exact_prob: 0.82,
        name_drop_prob: 0.35,
        fields: vec![
            // Profession/era-style categorical anchors.
            FieldSpec::new((1, 1), 1.0, [0.9, 0.9], [(0, 0), (0, 0)]),
            FieldSpec::new((1, 1), 1.0, [0.9, 0.9], [(0, 0), (0, 0)]),
        ],
    };
    let mut world = World {
        gt_classes: vec![0, 1],
        ..World::default()
    };
    let movies = add_class_clustered(
        &mut world,
        rng,
        0,
        &movie_spec,
        &movie_names,
        &pools,
        (scaled(700, scale), scaled(90, scale), scaled(140, scale)),
        0.72,
        (2, 5),
    );
    let persons = add_class_clustered(
        &mut world,
        rng,
        1,
        &person_spec,
        &person_names,
        &pools,
        (scaled(1000, scale), scaled(130, scale), scaled(180, scale)),
        0.62,
        (2, 5),
    );
    use rand::Rng;
    let persons_by = ByPresence::split(&world, &persons);
    for &m in &movies {
        let presence = world.entities[m].presence;
        for _ in 0..rng.gen_range(2..=4) {
            if let Some(p) = persons_by.pick_for(rng, presence, 0.9) {
                world.link(m, 0, p); // starring
            }
        }
        if let Some(d) = persons_by.pick_for(rng, presence, 0.9) {
            world.link(m, 1, d); // directed by
        }
    }
    let specs = [
        RenderSpec {
            kb_name: "YAGO".into(),
            uri_prefix: "yago:e".into(),
            attr_prefix: "http://yago/".into(),
            classes: vec![
                ClassRender {
                    name_attr: "label".into(),
                    field_attrs: vec!["genre".into(), "decade".into(), "wikiPage".into()],
                    type_assertion: Some(("type".into(), "wordnet_movie".into())),
                    attr_scatter: 2,
                    name_punctuation_prob: 0.0,
                },
                ClassRender {
                    name_attr: "preferredName".into(),
                    field_attrs: vec!["profession".into(), "era".into()],
                    type_assertion: Some(("type".into(), "wordnet_person".into())),
                    attr_scatter: 1,
                    name_punctuation_prob: 0.0,
                },
            ],
            relation_attrs: vec!["actedIn".into(), "directed".into()],
        },
        RenderSpec {
            kb_name: "IMDb".into(),
            uri_prefix: "imdb:e".into(),
            attr_prefix: "http://imdb/".into(),
            classes: vec![
                ClassRender {
                    name_attr: "title".into(),
                    field_attrs: vec!["category".into(), "era".into(), "technical".into()],
                    type_assertion: Some(("type".into(), "movie".into())),
                    attr_scatter: 3,
                    name_punctuation_prob: 0.0,
                },
                ClassRender {
                    name_attr: "personName".into(),
                    field_attrs: vec!["jobCategory".into(), "activeYears".into()],
                    type_assertion: Some(("type".into(), "person".into())),
                    attr_scatter: 1,
                    name_punctuation_prob: 0.0,
                },
            ],
            relation_attrs: vec!["starring".into(), "director".into()],
        },
    ];
    (world, specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_generate_nonempty_datasets() {
        for kind in DatasetKind::ALL {
            let d = kind.generate_scaled(7, 0.1);
            assert!(d.pair.first.entity_count() > 0, "{}", d.name);
            assert!(d.pair.second.entity_count() > 0, "{}", d.name);
            assert!(!d.truth.is_empty(), "{}", d.name);
            assert!(d.truth.is_partial_matching(), "{}", d.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetKind::Restaurant.generate_scaled(42, 0.2);
        let b = DatasetKind::Restaurant.generate_scaled(42, 0.2);
        assert_eq!(a.pair.first.triple_count(), b.pair.first.triple_count());
        assert_eq!(a.truth.len(), b.truth.len());
        let ta: Vec<_> = a.truth.iter().collect();
        let tb: Vec<_> = b.truth.iter().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetKind::Restaurant.generate_scaled(1, 0.2);
        let b = DatasetKind::Restaurant.generate_scaled(2, 0.2);
        assert_ne!(
            minoan_kb::parse::to_tsv(&a.pair.first),
            minoan_kb::parse::to_tsv(&b.pair.first)
        );
    }

    #[test]
    fn size_skew_matches_the_paper_direction() {
        let d = DatasetKind::RexaDblp.generate_scaled(7, 0.2);
        assert!(d.pair.second.entity_count() > 3 * d.pair.first.entity_count());
        let r = DatasetKind::Restaurant.generate_scaled(7, 0.3);
        assert!(r.pair.second.entity_count() > 3 * r.pair.first.entity_count());
    }

    #[test]
    fn bbc_dbpedia_side_two_has_scattered_schema() {
        let d = DatasetKind::BbcDbpedia.generate_scaled(7, 0.15);
        assert!(
            d.pair.second.attr_count() > 5 * d.pair.first.attr_count(),
            "{} vs {}",
            d.pair.second.attr_count(),
            d.pair.first.attr_count()
        );
    }

    #[test]
    fn yago_imdb_has_dense_relations() {
        let d = DatasetKind::YagoImdb.generate_scaled(7, 0.15);
        let rels1 = d.pair.first.relation_edge_counts();
        let total: usize = rels1.values().sum();
        assert!(
            total >= d.pair.first.entity_count(),
            "relation edges should be dense"
        );
    }

    #[test]
    fn scaling_changes_size() {
        let small = DatasetKind::Restaurant.generate_scaled(7, 0.1);
        let large = DatasetKind::Restaurant.generate_scaled(7, 0.5);
        assert!(large.pair.second.entity_count() > 2 * small.pair.second.entity_count());
    }

    /// 64-bit FNV-1a: a digest that does not depend on the toolchain.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every generated byte, pinned: FNV-1a of each side's N-Triples and
    /// of the ground truth's URI pairs, per profile in
    /// [`DatasetKind::ALL`] order at seed 20180416, ×0.25. Any change to
    /// the random draws or to the rendering moves one of these, and with
    /// it the input of every fingerprint downstream.
    const RENDERED: [[u64; 3]; 4] = [
        [
            0xa80a_a6ce_aeae_840b,
            0xb75c_edb6_a658_0f45,
            0x3a30_d929_29b5_a10d,
        ],
        [
            0xb4aa_3f3e_56fd_3c3d,
            0xdf25_a961_0dbc_61d9,
            0x3031_6850_400d_c96a,
        ],
        [
            0xfb4d_394f_50e0_b2bf,
            0x374c_6a99_909b_224a,
            0x0622_d7fb_2dfa_7599,
        ],
        [
            0x6190_983c_209d_d053,
            0x7996_4131_4072_5a2f,
            0x9b06_1628_8a49_d90a,
        ],
    ];

    #[test]
    fn rendered_profiles_are_pinned() {
        let got: Vec<[u64; 3]> = DatasetKind::ALL
            .into_iter()
            .map(|kind| {
                let d = kind.generate_scaled(20180416, 0.25);
                let truth: String = d
                    .truth
                    .iter()
                    .map(|(a, b)| {
                        let (a, b) = (d.pair.first.entity_uri(a), d.pair.second.entity_uri(b));
                        format!("{a}\t{b}\n")
                    })
                    .collect();
                [
                    fnv1a(minoan_kb::parse::to_ntriples(&d.pair.first).as_bytes()),
                    fnv1a(minoan_kb::parse::to_ntriples(&d.pair.second).as_bytes()),
                    fnv1a(truth.as_bytes()),
                ]
            })
            .collect();
        assert_eq!(got, RENDERED, "{got:#018x?}");
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        DatasetKind::Restaurant.generate_scaled(7, 0.0);
    }
}
