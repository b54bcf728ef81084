//! String interning.
//!
//! URIs, attribute names and tokens repeat heavily in Web KBs; interning
//! maps each distinct string to a dense `u32` id once, after which the
//! whole pipeline works on integers.
//!
//! Storage is a **bump arena**: every distinct string is appended to one
//! contiguous byte buffer and addressed by a `(start, len)` span, so the
//! parse hot loop performs zero per-string heap allocations (the old
//! implementation boxed every string twice — once for the map key, once
//! for the id table). Lookup is an open-addressing table of ids probed
//! against the arena, which also halves the resident size.

use std::hash::Hasher;

use crate::hash::FxHasher;

/// An unused slot of the probe table.
const EMPTY: u64 = u64::MAX;

/// A dense string interner: `intern` assigns ids in first-seen order,
/// `resolve` maps an id back to the string.
///
/// Ids are dense (`0..len`), so they can index parallel `Vec`s directly.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Arena of all distinct strings, concatenated.
    arena: String,
    /// Per id: `(start, end)` byte span into the arena.
    spans: Vec<(u32, u32)>,
    /// Open-addressing table (linear probing, power-of-two size) of
    /// slots packing a string's 32-bit hash above its id, so a probe
    /// compares strings only on a hash match and growing the table
    /// never rehashes a string.
    table: Vec<u64>,
}

fn hash_str(s: &str) -> u32 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    // The high half: Fx mixes by multiplication, which carries low
    // input bits upward only.
    (h.finish() >> 32) as u32
}

fn slot(hash: u32, id: u32) -> u64 {
    u64::from(hash) << 32 | u64::from(id)
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner with capacity for `cap` distinct strings.
    pub fn with_capacity(cap: usize) -> Self {
        let mut this = Self {
            arena: String::new(),
            spans: Vec::with_capacity(cap),
            table: Vec::new(),
        };
        this.grow_table((cap * 2).next_power_of_two().max(16));
        this
    }

    fn grow_table(&mut self, new_len: usize) {
        let old = std::mem::replace(&mut self.table, vec![EMPTY; new_len]);
        for s in old.into_iter().filter(|&s| s != EMPTY) {
            self.place(s);
        }
    }

    /// Puts `slot` in the first free place of its probe chain.
    fn place(&mut self, slot: u64) {
        let mask = self.table.len() - 1;
        let mut i = (slot >> 32) as usize & mask;
        while self.table[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.table[i] = slot;
    }

    fn span_str(&self, id: u32) -> &str {
        let (start, end) = self.spans[id as usize];
        &self.arena[start as usize..end as usize]
    }

    /// The table index holding `s`, whose hash is `hash`, or the free
    /// index that ends its probe chain. The table must not be empty.
    fn find(&self, s: &str, hash: u32) -> usize {
        let mask = self.table.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY || ((slot >> 32) as u32 == hash && self.span_str(slot as u32) == s) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `s`, returning its id. Idempotent.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.intern_hashed(s, hash_str(s))
    }

    fn intern_hashed(&mut self, s: &str, hash: u32) -> u32 {
        // Keep the table at most half full so probe chains stay short.
        if self.table.len() < (self.spans.len() + 1) * 2 {
            let target = ((self.spans.len() + 1) * 4).next_power_of_two().max(16);
            self.grow_table(target);
        }
        let i = self.find(s, hash);
        if self.table[i] != EMPTY {
            return self.table[i] as u32;
        }
        let id = u32::try_from(self.spans.len())
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect("interner overflow");
        let start = u32::try_from(self.arena.len()).expect("interner arena overflow");
        self.arena.push_str(s);
        let end = u32::try_from(self.arena.len()).expect("interner arena overflow");
        self.spans.push((start, end));
        self.table[i] = slot(hash, id);
        id
    }

    /// Interns every string of `other` in `other`'s id order and
    /// returns their ids here, indexed by `other`'s ids: the remap that
    /// merges a part-local interner into this one. No string of `other`
    /// is hashed again.
    pub fn intern_all(&mut self, other: &Interner) -> Vec<u32> {
        let mut hashes = vec![0u32; other.len()];
        for &slot in other.table.iter().filter(|&&s| s != EMPTY) {
            hashes[slot as u32 as usize] = (slot >> 32) as u32;
        }
        self.arena.reserve(other.arena.len());
        other
            .iter()
            .zip(hashes)
            .map(|((_, s), hash)| self.intern_hashed(s, hash))
            .collect()
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        match self.table[self.find(s, hash_str(s))] {
            EMPTY => None,
            slot => Some(slot as u32),
        }
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &str {
        self.span_str(id)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The raw arena: every distinct string, concatenated in id order.
    /// Together with [`Interner::spans`] this is the interner's entire
    /// persistent state (the probe table is derived).
    pub fn arena(&self) -> &str {
        &self.arena
    }

    /// Per-id `(start, end)` byte spans into the arena.
    pub fn spans(&self) -> &[(u32, u32)] {
        &self.spans
    }

    /// Rebuilds an interner from a persisted arena and spans, validating
    /// that every span lies inside the arena on UTF-8 boundaries, and
    /// reconstructing the probe table. Duplicate strings across spans are
    /// rejected: they would make `get` ambiguous.
    pub fn from_parts(arena: String, spans: Vec<(u32, u32)>) -> Result<Self, String> {
        for &(start, end) in &spans {
            let (s, e) = (start as usize, end as usize);
            if s > e || e > arena.len() {
                return Err(format!("span {start}..{end} outside arena"));
            }
            if !arena.is_char_boundary(s) || !arena.is_char_boundary(e) {
                return Err(format!("span {start}..{end} splits a UTF-8 sequence"));
            }
        }
        let mut this = Self {
            arena,
            spans,
            table: Vec::new(),
        };
        this.table = vec![EMPTY; (this.spans.len() * 2).next_power_of_two().max(16)];
        for id in 0..this.spans.len() as u32 {
            let s = this.span_str(id);
            let hash = hash_str(s);
            let i = this.find(s, hash);
            if this.table[i] != EMPTY {
                return Err(format!("duplicate interned string at id {id}"));
            }
            this.table[i] = slot(hash, id);
        }
        Ok(this)
    }

    /// Iterates `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0..self.spans.len() as u32).map(|id| (id, self.span_str(id)))
    }
}

/// Two interners are equal when they hold the same strings in the same
/// id order; the probe table is derived state and does not participate.
impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        self.spans.len() == other.spans.len()
            && self.iter().zip(other.iter()).all(|((_, a), (_, b))| a == b)
    }
}

impl Eq for Interner {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        let a2 = i.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::with_capacity(4);
        let id = i.intern("http://example.org/x");
        assert_eq!(i.resolve(id), "http://example.org/x");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("missing"), None);
        i.intern("present");
        assert_eq!(i.get("present"), Some(0));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_preserves_first_seen_order() {
        let mut i = Interner::new();
        for s in ["c", "a", "b", "a"] {
            i.intern(s);
        }
        let collected: Vec<_> = i.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(collected, vec!["c", "a", "b"]);
    }

    #[test]
    fn empty_interner_reports_empty() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }

    #[test]
    fn survives_table_growth() {
        let mut i = Interner::new();
        let ids: Vec<u32> = (0..10_000).map(|n| i.intern(&format!("str-{n}"))).collect();
        assert_eq!(i.len(), 10_000);
        for (n, &id) in ids.iter().enumerate() {
            assert_eq!(id, n as u32, "ids are dense in first-seen order");
            assert_eq!(i.resolve(id), format!("str-{n}"));
            assert_eq!(i.get(&format!("str-{n}")), Some(id));
        }
    }

    #[test]
    fn equality_ignores_probe_table_shape() {
        // Same strings, different insertion histories (re-interning and
        // different initial capacities) must still compare equal.
        let mut a = Interner::new();
        let mut b = Interner::with_capacity(1000);
        for s in ["x", "y", "z"] {
            a.intern(s);
        }
        for s in ["x", "y", "x", "z", "y"] {
            b.intern(s);
        }
        assert_eq!(a, b);
        b.intern("w");
        assert_ne!(a, b);
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let mut a = Interner::new();
        for s in ["knossos", "phaistos", "zakros", ""] {
            a.intern(s);
        }
        let b = Interner::from_parts(a.arena().to_string(), a.spans().to_vec()).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.get("phaistos"), Some(1));
        assert_eq!(b.resolve(3), "");
        // Out-of-bounds span.
        assert!(Interner::from_parts("ab".into(), vec![(0, 9)]).is_err());
        // Inverted span.
        assert!(Interner::from_parts("ab".into(), vec![(2, 1)]).is_err());
        // Split UTF-8 sequence.
        assert!(Interner::from_parts("é".into(), vec![(0, 1)]).is_err());
        // Duplicate strings.
        assert!(Interner::from_parts("abab".into(), vec![(0, 2), (2, 4)]).is_err());
    }

    #[test]
    fn intern_all_matches_interning_one_by_one() {
        let mut base = Interner::new();
        for s in ["knossos", "phaistos"] {
            base.intern(s);
        }
        let mut part = Interner::new();
        for n in 0..100 {
            part.intern(&format!("site-{}", n % 40));
        }
        part.intern("phaistos");
        part.intern("");
        let mut one_by_one = base.clone();
        let expected: Vec<u32> = part.iter().map(|(_, s)| one_by_one.intern(s)).collect();
        let remap = base.intern_all(&part);
        assert_eq!(remap, expected);
        assert_eq!(base, one_by_one);
        assert_eq!(remap[40], 1, "a string already present keeps its id");
        for (id, s) in base.iter() {
            assert_eq!(base.get(s), Some(id));
        }
    }

    #[test]
    fn empty_string_interns_fine() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
        assert_eq!(i.intern(""), e);
        assert_eq!(i.len(), 1);
    }
}
