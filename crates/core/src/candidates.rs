//! Candidate rows: for each entity of one KB, the scored entities of
//! the other, packed as one compressed sparse row (CSR) structure — the
//! storage of both the similarity index and a persisted index artifact.
//!
//! A `(EntityId, f64)` tuple pads to 16 bytes. [`CandidateCsr`] keeps
//! ids and similarities in two parallel arrays instead, so a candidate
//! costs 12 bytes in memory, as it does in the artifact file. Readers
//! still see [`Candidate`] tuples.

use minoan_kb::csr::offsets_from_lens;
use minoan_kb::EntityId;

/// A scored candidate (the other side's entity plus a similarity).
pub type Candidate = (EntityId, f64);

/// Candidate rows packed into flat buffers: row `i` pairs
/// `ids[offsets[i]..offsets[i + 1]]` with the same range of `sims`.
/// `offsets` always has `rows + 1` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCsr {
    offsets: Vec<usize>,
    ids: Vec<EntityId>,
    sims: Vec<f64>,
}

impl Default for CandidateCsr {
    fn default() -> Self {
        Self::empty(0)
    }
}

impl CandidateCsr {
    /// `rows` empty rows.
    pub(crate) fn empty(rows: usize) -> Self {
        Self {
            offsets: vec![0; rows + 1],
            ids: Vec::new(),
            sims: Vec::new(),
        }
    }

    /// Builds from row lengths and filled parallel buffers. Panics
    /// unless the lengths sum to the length of both buffers.
    pub(crate) fn from_lens(lens: &[usize], ids: Vec<EntityId>, sims: Vec<f64>) -> Self {
        let offsets = offsets_from_lens(lens);
        let total = *offsets.last().expect("offsets never empty");
        assert!(
            ids.len() == total && sims.len() == total,
            "row lengths must sum to the candidate count"
        );
        Self { offsets, ids, sims }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of candidates across all rows.
    pub fn item_count(&self) -> usize {
        self.ids.len()
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> CandidateRow<'_> {
        let range = self.offsets[i]..self.offsets[i + 1];
        CandidateRow {
            ids: &self.ids[range.clone()],
            sims: &self.sims[range],
        }
    }

    /// The offsets array (`rows + 1` entries).
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Appends `row` as the next row.
    pub(crate) fn push_row(&mut self, row: &[Candidate]) {
        self.ids.extend(row.iter().map(|&(e, _)| e));
        self.sims.extend(row.iter().map(|&(_, v)| v));
        self.offsets.push(self.ids.len());
    }

    /// Makes room for `rows` more rows holding `items` candidates in all.
    pub(crate) fn reserve(&mut self, rows: usize, items: usize) {
        self.offsets.reserve_exact(rows);
        self.ids.reserve_exact(items);
        self.sims.reserve_exact(items);
    }

    /// Returns the unused capacity of the buffers to the allocator.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.ids.shrink_to_fit();
        self.sims.shrink_to_fit();
    }

    /// Joins CSRs built over consecutive row ranges, in order, into one.
    /// Each part is freed as soon as it is copied, so the join holds
    /// little more than the result.
    pub(crate) fn concat(mut parts: Vec<CandidateCsr>) -> Self {
        if parts.len() <= 1 {
            return parts.pop().unwrap_or_default();
        }
        let rows = parts.iter().map(CandidateCsr::rows).sum::<usize>();
        let items = parts.iter().map(CandidateCsr::item_count).sum();
        let mut out = Self {
            offsets: Vec::with_capacity(rows + 1),
            ids: Vec::with_capacity(items),
            sims: Vec::with_capacity(items),
        };
        out.offsets.push(0);
        for part in parts {
            let base = out.ids.len();
            out.offsets
                .extend(part.offsets[1..].iter().map(|&off| base + off));
            out.ids.extend_from_slice(&part.ids);
            out.sims.extend_from_slice(&part.sims);
        }
        out
    }
}

/// One row of a [`CandidateCsr`]: parallel id and similarity slices.
#[derive(Debug, Clone, Copy)]
pub struct CandidateRow<'a> {
    ids: &'a [EntityId],
    sims: &'a [f64],
}

impl<'a> CandidateRow<'a> {
    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the row has no candidate.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The candidate ids, in row order.
    #[inline]
    pub fn ids(&self) -> &'a [EntityId] {
        self.ids
    }

    /// Candidate `i`, if the row has one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Candidate> {
        Some((*self.ids.get(i)?, self.sims[i]))
    }

    /// The candidates in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Candidate> + 'a {
        self.ids.iter().copied().zip(self.sims.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn csr_of(rows: &[Vec<Candidate>]) -> CandidateCsr {
        let mut csr = CandidateCsr::default();
        for row in rows {
            csr.push_row(row);
        }
        csr
    }

    fn read(csr: &CandidateCsr) -> Vec<Vec<Candidate>> {
        (0..csr.rows())
            .map(|i| csr.row(i).iter().collect())
            .collect()
    }

    fn sample() -> Vec<Vec<Candidate>> {
        vec![
            vec![(e(1), 0.5), (e(2), 0.25), (e(3), 0.125), (e(4), 0.0625)],
            vec![],
            vec![(e(5), 1.0)],
            vec![(e(6), 0.75), (e(7), 0.5), (e(8), 0.25)],
            vec![(e(9), 2.0), (e(10), 1.5)],
        ]
    }

    #[test]
    fn rows_read_back_as_pushed() {
        let rows = sample();
        let csr = csr_of(&rows);
        assert_eq!(csr.rows(), 5);
        assert_eq!(csr.item_count(), 10);
        assert_eq!(csr.offsets(), [0, 4, 4, 5, 8, 10]);
        assert_eq!(read(&csr), rows);
        let row = csr.row(3);
        assert_eq!(row.len(), 3);
        assert_eq!(row.ids(), [e(6), e(7), e(8)]);
        assert_eq!(row.get(1), Some((e(7), 0.5)));
        assert_eq!(row.get(3), None);
        assert_eq!(
            row.iter().skip(1).collect::<Vec<_>>(),
            [(e(7), 0.5), (e(8), 0.25)]
        );
        assert!(csr.row(1).is_empty());
        let lens: Vec<usize> = rows.iter().map(Vec::len).collect();
        let (ids, sims) = rows.iter().flatten().copied().unzip();
        assert_eq!(CandidateCsr::from_lens(&lens, ids, sims), csr);
    }

    #[test]
    #[should_panic(expected = "sum to the candidate count")]
    fn mismatched_lens_panic() {
        let _ = CandidateCsr::from_lens(&[1], vec![e(0), e(1)], vec![1.0, 1.0]);
    }

    #[test]
    fn concat_joins_parts_in_order() {
        let rows = sample();
        let whole = csr_of(&rows);
        for split in 0..=rows.len() {
            let parts = vec![csr_of(&rows[..split]), csr_of(&rows[split..])];
            assert_eq!(CandidateCsr::concat(parts), whole, "split at {split}");
        }
        let singles = rows
            .iter()
            .map(|r| csr_of(std::slice::from_ref(r)))
            .collect();
        assert_eq!(CandidateCsr::concat(singles), whole);
        assert_eq!(CandidateCsr::concat(Vec::new()), CandidateCsr::empty(0));
    }
}
