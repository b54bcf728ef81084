//! Shared mutable slices for disjoint parallel writes.
//!
//! CSR construction writes every row into one flat buffer. The row
//! boundaries are known up front (prefix sums of row lengths), so
//! different executor parts always touch **disjoint index ranges** — but
//! the borrow checker cannot see that through a `Fn` closure shared by
//! all parts. [`SharedSlice`] is the audited escape hatch: an unsafe cell
//! over one buffer whose safety contract is exactly "no two parts touch
//! the same index".

use std::cell::UnsafeCell;

/// A slice writable from multiple threads under a disjointness contract.
///
/// Every access method is `unsafe`; the caller promises that no index is
/// accessed by more than one thread for the lifetime of the borrow.
pub struct SharedSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: sharing the wrapper across threads is sound because every
// dereference is an unsafe method whose contract forbids overlapping
// index use; `T: Send` keeps the values themselves transferable.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps an exclusive slice borrow.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`, and the
        // exclusive borrow guarantees nobody else views the data while
        // the wrapper is alive.
        let data = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        Self { data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// No other thread may access `index` concurrently, and `index` must
    /// be in bounds.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.data.len());
        *self.data[index].get() = value;
    }

    /// A mutable subslice for `range`.
    ///
    /// # Safety
    /// No other thread may access any index of `range` while the returned
    /// borrow lives, and `range` must be in bounds.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.data.len());
        let base = self.data.as_ptr() as *mut T;
        std::slice::from_raw_parts_mut(base.add(range.start), range.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, ExecutorKind};

    #[test]
    fn disjoint_parallel_writes_land() {
        let n = 10_000usize;
        let mut buf = vec![0u64; n];
        let exec = Executor::new(ExecutorKind::Pool, 4);
        {
            let shared = SharedSlice::new(&mut buf);
            exec.map_parts(n, |range| {
                for i in range {
                    // SAFETY: parts cover disjoint index ranges.
                    unsafe { shared.write(i, i as u64 * 3) };
                }
            });
        }
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn disjoint_subslices_can_be_sorted_in_parallel() {
        let mut buf: Vec<u32> = (0..1000).rev().collect();
        let bounds: Vec<usize> = (0..=10).map(|i| i * 100).collect();
        let exec = Executor::new(ExecutorKind::Pool, 4);
        {
            let shared = SharedSlice::new(&mut buf);
            exec.map_range(10, |row| {
                // SAFETY: row ranges [bounds[row], bounds[row+1]) are disjoint.
                let s = unsafe { shared.slice_mut(bounds[row]..bounds[row + 1]) };
                s.sort_unstable();
            });
        }
        for row in 0..10 {
            let s = &buf[bounds[row]..bounds[row + 1]];
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn len_and_empty() {
        let mut buf = vec![1u8; 3];
        let s = SharedSlice::new(&mut buf);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }
}
