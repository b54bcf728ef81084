//! Canonical worlds.
//!
//! A *world* is the ground truth the generator renders into two KBs:
//! canonical entities with per-side name/value token lists (corruption is
//! decided here, once, so both renderings stay consistent) plus a link
//! structure shared by both sides.

use rand::rngs::StdRng;
use rand::Rng;

use crate::words::WordPool;

/// The token pools a world draws from.
///
/// Side noise comes from *side-private* pools: verbose KB-specific text
/// (catalog ids, abstract boilerplate) must not accidentally collide
/// across KBs — in real Zipfian text, tokens shared between two KBs are
/// either genuinely co-referential or frequent, and an accidental
/// mutually-unique shared token (a fake `valueSim ≥ 1` beacon) is rare.
#[derive(Debug, Clone)]
pub struct TokenPools {
    /// Distinctive content vocabulary (shared namespace).
    pub rare: WordPool,
    /// Frequent vocabulary (genres, venues, boilerplate).
    pub common: WordPool,
    /// Per-side noise vocabulary (never shared across sides).
    pub noise: [WordPool; 2],
}

impl TokenPools {
    /// Generates the four pools from one RNG.
    pub fn generate(rng: &mut StdRng, rare_n: usize, common_n: usize, noise_n: usize) -> Self {
        Self {
            rare: WordPool::generate(rng, rare_n),
            common: WordPool::generate(rng, common_n),
            noise: [
                WordPool::generate(rng, noise_n),
                WordPool::generate(rng, noise_n),
            ],
        }
    }
}

/// On which sides a canonical entity is described.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Described in both KBs (a ground-truth match if its class is in
    /// the ground truth).
    Both,
    /// Described only in the first KB.
    FirstOnly,
    /// Described only in the second KB.
    SecondOnly,
}

impl Presence {
    /// Whether the entity appears on side `i` (0 or 1).
    pub fn on(self, i: usize) -> bool {
        match self {
            Presence::Both => true,
            Presence::FirstOnly => i == 0,
            Presence::SecondOnly => i == 1,
        }
    }
}

/// A canonical entity with pre-rendered per-side token lists.
#[derive(Debug, Clone)]
pub struct CanonicalEntity {
    /// Entity class index (dataset-defined, e.g. 0 = restaurant,
    /// 1 = address).
    pub class: usize,
    /// Which sides describe the entity.
    pub presence: Presence,
    /// Name tokens per side.
    pub names: [Vec<String>; 2],
    /// Per side, per field: value tokens.
    pub fields: [Vec<Vec<String>>; 2],
    /// Links `(relation index, target canonical entity index)`, shared
    /// by both sides (rendered only when the target is present).
    pub links: Vec<(usize, usize)>,
    /// Links that exist on only one side — structural heterogeneity
    /// like DBpedia asserting both city and country as `birthPlace`.
    pub side_links: [Vec<(usize, usize)>; 2],
}

/// How one entity class generates names and values.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Name length in words, inclusive range.
    pub name_words: (usize, usize),
    /// Probability that both sides carry the *identical* name (H1 food).
    pub name_exact_prob: f64,
    /// When not exact: probability of dropping each name token on the
    /// second side (the rest are re-ordered).
    pub name_drop_prob: f64,
    /// Value fields.
    pub fields: Vec<FieldSpec>,
}

/// How one value field generates tokens.
#[derive(Debug, Clone)]
pub struct FieldSpec {
    /// Canonical token count, inclusive range.
    pub words: (usize, usize),
    /// Fraction of canonical tokens drawn from the *common* pool (high
    /// entity frequency, low `valueSim` weight) instead of the rare pool.
    pub common_ratio: f64,
    /// Per-side probability of keeping each canonical token.
    pub keep: [f64; 2],
    /// Per-side count range of extra side-private noise tokens.
    pub extra: [(usize, usize); 2],
    /// Probability that an entity is *lexically hard* on this field:
    /// `hard_keep` replaces `keep`. Models datasets where only part of
    /// the matches carry shared lexical evidence (the paper's
    /// BBCmusic-DBpedia and YAGO-IMDb regimes).
    pub hard_prob: f64,
    /// The keep probabilities used for hard entities.
    pub hard_keep: [f64; 2],
    /// Per-side probability that an entity carries this field at all.
    /// Partial support keeps free-text fields *below* the name attribute
    /// in the harmonic support/discriminability ranking, as in real KBs.
    pub support: [f64; 2],
    /// Fraction of canonical tokens shared across the members of a
    /// collision cluster (1.0 = homonym entities are indistinguishable
    /// by this field, 0.0 = each member gets fresh content, like
    /// same-titled papers with different abstracts).
    pub cluster_share: f64,
    /// Fraction of *extra* (side-noise) tokens drawn from the common
    /// pool; the rest come from the side-private pool. Low values model
    /// verbose but topic-specific text that does not collide with other
    /// entities.
    pub noise_common_ratio: f64,
}

impl FieldSpec {
    /// A field with uniform (non-bimodal) lexical difficulty.
    pub fn new(
        words: (usize, usize),
        common_ratio: f64,
        keep: [f64; 2],
        extra: [(usize, usize); 2],
    ) -> Self {
        Self {
            words,
            common_ratio,
            keep,
            extra,
            hard_prob: 0.0,
            hard_keep: [0.0, 0.0],
            support: [1.0, 1.0],
            cluster_share: 1.0,
            noise_common_ratio: 0.7,
        }
    }

    /// Makes a fraction `prob` of entities lexically hard, with
    /// `hard_keep` keep-probabilities.
    pub fn with_hard(mut self, prob: f64, hard_keep: [f64; 2]) -> Self {
        self.hard_prob = prob;
        self.hard_keep = hard_keep;
        self
    }

    /// Sets the fraction of canonical tokens shared across collision
    /// cluster members.
    pub fn with_cluster_share(mut self, share: f64) -> Self {
        self.cluster_share = share;
        self
    }

    /// Sets the fraction of side-noise tokens drawn from the common pool.
    pub fn with_noise_common_ratio(mut self, ratio: f64) -> Self {
        self.noise_common_ratio = ratio;
        self
    }
}

/// The canonical world: entities plus which classes count as ground truth.
#[derive(Debug, Clone, Default)]
pub struct World {
    /// The canonical entities.
    pub entities: Vec<CanonicalEntity>,
    /// Classes whose `Both` entities form the ground truth.
    pub gt_classes: Vec<usize>,
}

impl World {
    /// Adds an entity of `class`/`presence` generated from `spec`, with
    /// name tokens drawn from the rare pool. See
    /// [`World::add_entity_with_name_pool`] for a dedicated name pool.
    pub fn add_entity(
        &mut self,
        rng: &mut StdRng,
        class: usize,
        presence: Presence,
        spec: &ClassSpec,
        pools: &TokenPools,
    ) -> usize {
        self.add_entity_with_name_pool(rng, class, presence, spec, &pools.rare, pools)
    }

    /// Adds an entity whose name tokens come from `name_pool`.
    ///
    /// A *medium-sized* name pool makes full name strings (nearly)
    /// unique while the individual name tokens stay frequent — names
    /// then feed H1 without giving value-only baselines token-level
    /// evidence, the YAGO-IMDb signature.
    #[allow(clippy::too_many_arguments)]
    pub fn add_entity_with_name_pool(
        &mut self,
        rng: &mut StdRng,
        class: usize,
        presence: Presence,
        spec: &ClassSpec,
        name_pool: &WordPool,
        pools: &TokenPools,
    ) -> usize {
        let n_name = rng.gen_range(spec.name_words.0..=spec.name_words.1);
        let canonical_name: Vec<String> = (0..n_name)
            .map(|_| name_pool.pick(rng).to_string())
            .collect();
        self.add_entity_named(rng, class, presence, spec, canonical_name, pools)
    }

    /// Adds an entity with an *explicit* canonical name (a cluster of
    /// one — see [`World::add_cluster`]).
    #[allow(clippy::too_many_arguments)]
    pub fn add_entity_named(
        &mut self,
        rng: &mut StdRng,
        class: usize,
        presence: Presence,
        spec: &ClassSpec,
        canonical_name: Vec<String>,
        pools: &TokenPools,
    ) -> usize {
        self.add_cluster(rng, class, &[presence], spec, canonical_name, pools)[0]
    }

    /// Adds a *collision cluster*: several distinct entities sharing the
    /// exact same canonical name **and** the same canonical field
    /// content (homonym persons, remade films, republished papers).
    ///
    /// Inside a cluster, the cross-side token overlap of a wrong pairing
    /// has the same distribution as that of the right pairing, so no
    /// value-only evidence can tell them apart — only relational
    /// evidence (different casts, birthplaces, co-authors) does. This is
    /// the Web-data ambiguity that separates MinoanER from BSL in the
    /// paper's Table III. Per-entity randomness (name exactness, kept
    /// tokens, side noise) is still sampled independently.
    #[allow(clippy::too_many_arguments)]
    pub fn add_cluster(
        &mut self,
        rng: &mut StdRng,
        class: usize,
        presences: &[Presence],
        spec: &ClassSpec,
        canonical_name: Vec<String>,
        pools: &TokenPools,
    ) -> Vec<usize> {
        let (rare, common) = (&pools.rare, &pools.common);
        // Canonical field content and hardness: once per cluster.
        let canon_fields: Vec<(Vec<String>, [f64; 2])> = spec
            .fields
            .iter()
            .map(|fspec| {
                let n = rng.gen_range(fspec.words.0..=fspec.words.1);
                let toks: Vec<String> = (0..n)
                    .map(|_| {
                        if rng.gen_bool(fspec.common_ratio) {
                            common.pick(rng).to_string()
                        } else {
                            rare.pick(rng).to_string()
                        }
                    })
                    .collect();
                let keep = if fspec.hard_prob > 0.0 && rng.gen_bool(fspec.hard_prob) {
                    fspec.hard_keep
                } else {
                    fspec.keep
                };
                (toks, keep)
            })
            .collect();
        presences
            .iter()
            .map(|&presence| {
                let names = self.render_names(rng, spec, &canonical_name);
                let mut fields: [Vec<Vec<String>>; 2] = [Vec::new(), Vec::new()];
                for ((canonical, keep), fspec) in canon_fields.iter().zip(&spec.fields) {
                    // Member-private remix: tokens not shared across the
                    // cluster are resampled per member (consistently
                    // across this member's two sides).
                    let member_canonical: Vec<String> = canonical
                        .iter()
                        .map(|t| {
                            if fspec.cluster_share >= 1.0 || rng.gen_bool(fspec.cluster_share) {
                                t.clone()
                            } else if rng.gen_bool(fspec.common_ratio) {
                                common.pick(rng).to_string()
                            } else {
                                rare.pick(rng).to_string()
                            }
                        })
                        .collect();
                    let canonical = &member_canonical;
                    for side in 0..2 {
                        let mut toks: Vec<String> = Vec::new();
                        if rng.gen_bool(fspec.support[side]) {
                            toks.extend(
                                canonical
                                    .iter()
                                    .filter(|_| rng.gen_bool(keep[side]))
                                    .cloned(),
                            );
                            let extra = rng.gen_range(fspec.extra[side].0..=fspec.extra[side].1);
                            for _ in 0..extra {
                                // Side noise: frequent shared vocabulary
                                // or side-private words — never fake
                                // cross-side rare evidence.
                                toks.push(if rng.gen_bool(fspec.noise_common_ratio) {
                                    common.pick(rng).to_string()
                                } else {
                                    pools.noise[side].pick(rng).to_string()
                                });
                            }
                        }
                        fields[side].push(toks);
                    }
                }
                self.entities.push(CanonicalEntity {
                    class,
                    presence,
                    names,
                    fields,
                    links: Vec::new(),
                    side_links: [Vec::new(), Vec::new()],
                });
                self.entities.len() - 1
            })
            .collect()
    }

    /// Renders the per-side name variants of one entity.
    fn render_names(
        &self,
        rng: &mut StdRng,
        spec: &ClassSpec,
        canonical_name: &[String],
    ) -> [Vec<String>; 2] {
        if rng.gen_bool(spec.name_exact_prob) {
            return [canonical_name.to_vec(), canonical_name.to_vec()];
        }
        let mut second: Vec<String> = canonical_name
            .iter()
            .filter(|_| !rng.gen_bool(spec.name_drop_prob))
            .cloned()
            .collect();
        if second.is_empty() && !canonical_name.is_empty() {
            second.push(canonical_name[rng.gen_range(0..canonical_name.len())].clone());
        }
        if second.is_empty() {
            // Degenerate explicit empty name: both sides nameless.
            [Vec::new(), Vec::new()]
        } else {
            // Re-order so even token-identical variants differ as names.
            let rot = 1.min(second.len() - 1);
            second.rotate_left(rot);
            [canonical_name.to_vec(), second]
        }
    }

    /// Links entity `from` to entity `to` via relation `rel` (on both
    /// sides, wherever both endpoints are present).
    pub fn link(&mut self, from: usize, rel: usize, to: usize) {
        self.entities[from].links.push((rel, to));
    }

    /// Adds a link that exists only in the rendering of side `side`.
    pub fn link_on_side(&mut self, from: usize, rel: usize, to: usize, side: usize) {
        self.entities[from].side_links[side].push((rel, to));
    }

    /// Indices of `Both` entities of ground-truth classes, i.e. the
    /// canonical matches.
    pub fn matches(&self) -> Vec<usize> {
        self.entities
            .iter()
            .enumerate()
            .filter(|(_, e)| e.presence == Presence::Both && self.gt_classes.contains(&e.class))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of entities present on side `i`.
    pub fn present_on(&self, i: usize) -> usize {
        self.entities.iter().filter(|e| e.presence.on(i)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn spec() -> ClassSpec {
        ClassSpec {
            name_words: (2, 3),
            name_exact_prob: 1.0,
            name_drop_prob: 0.3,
            fields: vec![FieldSpec::new((4, 6), 0.5, [1.0, 0.8], [(0, 0), (1, 2)])],
        }
    }

    fn pools() -> TokenPools {
        let mut rng = StdRng::seed_from_u64(1);
        TokenPools::generate(&mut rng, 500, 30, 200)
    }

    #[test]
    fn exact_names_render_identically() {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(2);
        let mut w = World::default();
        let i = w.add_entity(&mut rng, 0, Presence::Both, &spec(), &pools);
        let e = &w.entities[i];
        assert_eq!(e.names[0], e.names[1]);
        assert!((2..=3).contains(&e.names[0].len()));
    }

    #[test]
    fn inexact_names_differ() {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = spec();
        s.name_exact_prob = 0.0;
        s.name_drop_prob = 0.5;
        let mut w = World::default();
        let mut differing = 0;
        for _ in 0..50 {
            let i = w.add_entity(&mut rng, 0, Presence::Both, &s, &pools);
            let e = &w.entities[i];
            assert!(!e.names[1].is_empty());
            if e.names[0] != e.names[1] {
                differing += 1;
            }
        }
        assert!(differing > 40, "only {differing}/50 names differ");
    }

    #[test]
    fn field_sides_follow_keep_and_extra() {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(4);
        let mut w = World::default();
        let i = w.add_entity(&mut rng, 0, Presence::Both, &spec(), &pools);
        let e = &w.entities[i];
        // Side 0: keep 1.0, no extras -> exactly the canonical tokens.
        assert!((4..=6).contains(&e.fields[0][0].len()));
        // Side 1 has 1-2 extra tokens and may drop canonicals.
        assert!(!e.fields[1][0].is_empty());
    }

    #[test]
    fn matches_and_presence_counts() {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(5);
        let mut w = World {
            gt_classes: vec![0],
            ..World::default()
        };
        w.add_entity(&mut rng, 0, Presence::Both, &spec(), &pools);
        w.add_entity(&mut rng, 0, Presence::FirstOnly, &spec(), &pools);
        w.add_entity(&mut rng, 1, Presence::Both, &spec(), &pools);
        w.add_entity(&mut rng, 0, Presence::SecondOnly, &spec(), &pools);
        assert_eq!(w.matches(), vec![0]);
        assert_eq!(w.present_on(0), 3);
        assert_eq!(w.present_on(1), 3);
    }

    #[test]
    fn links_are_recorded() {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(6);
        let mut w = World::default();
        let a = w.add_entity(&mut rng, 0, Presence::Both, &spec(), &pools);
        let b = w.add_entity(&mut rng, 1, Presence::Both, &spec(), &pools);
        w.link(a, 0, b);
        assert_eq!(w.entities[a].links, vec![(0, b)]);
    }
}
