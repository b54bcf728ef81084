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

const EMPTY: u32 = u32::MAX;

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
    /// Open-addressing table of ids (linear probing, power-of-two size).
    table: Vec<u32>,
}

fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
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
        self.table = vec![EMPTY; new_len];
        let mask = new_len - 1;
        for (id, &(start, end)) in self.spans.iter().enumerate() {
            let s = &self.arena[start as usize..end as usize];
            let mut i = hash_str(s) as usize & mask;
            while self.table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.table[i] = id as u32;
        }
    }

    fn span_str(&self, id: u32) -> &str {
        let (start, end) = self.spans[id as usize];
        &self.arena[start as usize..end as usize]
    }

    /// Interns `s`, returning its id. Idempotent.
    pub fn intern(&mut self, s: &str) -> u32 {
        // Keep the table at most half full so probe chains stay short.
        if self.table.len() < (self.spans.len() + 1) * 2 {
            let target = ((self.spans.len() + 1) * 4).next_power_of_two().max(16);
            self.grow_table(target);
        }
        let mask = self.table.len() - 1;
        let mut i = hash_str(s) as usize & mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                let id = u32::try_from(self.spans.len()).expect("interner overflow");
                let start = u32::try_from(self.arena.len()).expect("interner arena overflow");
                self.arena.push_str(s);
                let end = u32::try_from(self.arena.len()).expect("interner arena overflow");
                self.spans.push((start, end));
                self.table[i] = id;
                return id;
            }
            if self.span_str(slot) == s {
                return slot;
            }
            i = (i + 1) & mask;
        }
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = hash_str(s) as usize & mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                return None;
            }
            if self.span_str(slot) == s {
                return Some(slot);
            }
            i = (i + 1) & mask;
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
        this.grow_table((this.spans.len() * 2).next_power_of_two().max(16));
        for (id, &(start, end)) in this.spans.iter().enumerate() {
            let s = &this.arena[start as usize..end as usize];
            if this.get(s) != Some(id as u32) {
                return Err(format!("duplicate interned string at id {id}"));
            }
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
    fn empty_string_interns_fine() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
        assert_eq!(i.intern(""), e);
        assert_eq!(i.len(), 1);
    }
}
