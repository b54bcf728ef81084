//! Compressed sparse row (CSR) storage.
//!
//! Per-entity adjacency (block memberships) was originally stored as
//! `Vec<Vec<T>>` — one heap allocation per entity.
//! [`Csr`] packs all rows into one flat item buffer plus an offsets
//! array: a single allocation, cache-friendly row scans, and cheap
//! construction from parallel partial results (each part fills a
//! contiguous, disjoint range of the buffer).

/// Rows of `T` packed into one flat buffer.
///
/// Row `i` occupies `items[offsets[i]..offsets[i + 1]]`; `offsets` always
/// has `rows + 1` entries, so an empty CSR still holds one zero offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            items: Vec::new(),
        }
    }
}

impl<T> Csr<T> {
    /// An empty CSR with `rows` empty rows.
    pub fn empty(rows: usize) -> Self {
        Self {
            offsets: vec![0; rows + 1],
            items: Vec::new(),
        }
    }

    /// Builds from per-row vectors, consuming them.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        let total = rows.iter().map(Vec::len).sum();
        let mut items = Vec::with_capacity(total);
        for row in rows {
            items.extend(row);
            offsets.push(items.len());
        }
        Self { offsets, items }
    }

    /// Builds from row lengths and a pre-filled item buffer.
    ///
    /// Used by parallel constructors that compute lengths first, fill the
    /// flat buffer in disjoint ranges, then assemble. Panics unless the
    /// lengths sum to `items.len()`.
    pub fn from_lens_and_items(lens: &[usize], items: Vec<T>) -> Self {
        let offsets = offsets_from_lens(lens);
        assert_eq!(
            *offsets.last().expect("offsets never empty"),
            items.len(),
            "row lengths must sum to the item count"
        );
        Self { offsets, items }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of items across all rows.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The item range of row `i` within the flat item buffer.
    #[inline]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Iterates the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        (0..self.rows()).map(|i| self.row(i))
    }
}

/// Exclusive prefix sum of row lengths: the offsets array of a CSR.
pub fn offsets_from_lens(lens: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(lens.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &l in lens {
        acc += l;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let csr = Csr::from_rows(vec![vec![1, 2], vec![], vec![3]]);
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.item_count(), 3);
        assert_eq!(csr.row(0), &[1, 2]);
        assert_eq!(csr.row(1), &[] as &[i32]);
        assert_eq!(csr.row(2), &[3]);
        assert_eq!(csr.row_range(2), 2..3);
        let rows: Vec<&[i32]> = csr.iter_rows().collect();
        assert_eq!(rows, vec![&[1, 2][..], &[][..], &[3][..]]);
    }

    #[test]
    fn from_lens_and_items_matches_from_rows() {
        let a = Csr::from_rows(vec![vec![10u8, 11], vec![12]]);
        let b = Csr::from_lens_and_items(&[2, 1], vec![10u8, 11, 12]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sum to the item count")]
    fn mismatched_lens_panic() {
        let _ = Csr::from_lens_and_items(&[1], vec![1u8, 2]);
    }

    #[test]
    fn empty_and_default() {
        let csr: Csr<u32> = Csr::empty(4);
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.item_count(), 0);
        assert_eq!(csr.row(3), &[] as &[u32]);
        let d: Csr<u32> = Csr::default();
        assert_eq!(d.rows(), 0);
    }

    #[test]
    fn offsets_are_a_prefix_sum() {
        assert_eq!(offsets_from_lens(&[2, 0, 3]), vec![0, 2, 2, 5]);
        assert_eq!(offsets_from_lens(&[]), vec![0]);
    }
}
