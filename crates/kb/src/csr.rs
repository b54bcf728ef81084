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

    /// Packs nested rows through `from_lens_and_items`, the way the
    /// parallel constructors do: lengths first, then the flat buffer.
    fn from_rows<T: Clone>(rows: &[Vec<T>]) -> Csr<T> {
        let lens: Vec<usize> = rows.iter().map(Vec::len).collect();
        Csr::from_lens_and_items(&lens, rows.concat())
    }

    fn to_rows<T: Clone>(csr: &Csr<T>) -> Vec<Vec<T>> {
        (0..csr.rows()).map(|i| csr.row(i).to_vec()).collect()
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1, 2], vec![], vec![3]];
        let csr = from_rows(&rows);
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.item_count(), 3);
        assert_eq!(csr.row(0), &[1, 2]);
        assert_eq!(csr.row(1), &[] as &[i32]);
        assert_eq!(csr.row(2), &[3]);
        assert_eq!(to_rows(&csr), rows);
    }

    #[test]
    fn from_lens_and_items_matches_from_rows() {
        let rows = vec![vec![10u8, 11], vec![12]];
        let b = Csr::from_lens_and_items(&[2, 1], vec![10u8, 11, 12]);
        assert_eq!(to_rows(&b), rows);
        assert_eq!(from_rows(&rows), b);
    }

    #[test]
    #[should_panic(expected = "sum to the item count")]
    fn mismatched_lens_panic() {
        let _ = Csr::from_lens_and_items(&[1], vec![1u8, 2]);
    }

    #[test]
    fn empty_and_default() {
        let csr: Csr<u32> = Csr::from_lens_and_items(&[0; 4], Vec::new());
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
