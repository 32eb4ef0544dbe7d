//! Data-chunk bookkeeping.
//!
//! All algorithms describe the data they move as ranges of **segments**: a
//! schedule fixes a total segment count (its granularity) and every event
//! carries a [`ChunkRange`] of segments. Byte sizes are derived only when a
//! concrete all-reduce payload size is chosen, so one schedule can be
//! replayed for any data size — exactly how the paper reuses schedules
//! "computed once during initialization ... for reuse in the iterative
//! training epochs" (§V-A).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open range `[start, end)` of data segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChunkRange {
    /// First segment (inclusive).
    pub start: u32,
    /// One past the last segment.
    pub end: u32,
}

impl ChunkRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "invalid chunk range {start}..{end}");
        ChunkRange { start, end }
    }

    /// A single-segment range.
    pub fn single(seg: u32) -> Self {
        ChunkRange {
            start: seg,
            end: seg + 1,
        }
    }

    /// Number of segments covered.
    pub fn len(self) -> u32 {
        self.end - self.start
    }

    /// True for an empty range.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Iterates over the contained segment indices.
    pub fn segments(self) -> impl Iterator<Item = u32> {
        self.start..self.end
    }

    /// True if `seg` lies inside the range.
    pub fn contains(self, seg: u32) -> bool {
        self.start <= seg && seg < self.end
    }

    /// The lower half `[start, mid)` where `mid = start + len/2`.
    ///
    /// # Panics
    ///
    /// Panics if the range length is odd (halving-doubling only splits
    /// power-of-two ranges).
    pub fn lower_half(self) -> Self {
        assert!(self.len().is_multiple_of(2), "cannot halve odd-length range");
        ChunkRange::new(self.start, self.start + self.len() / 2)
    }

    /// The upper half `[mid, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range length is odd.
    pub fn upper_half(self) -> Self {
        assert!(self.len().is_multiple_of(2), "cannot halve odd-length range");
        ChunkRange::new(self.start + self.len() / 2, self.end)
    }

    /// Bytes this range represents for a total payload of `total_bytes`
    /// split over `total_segments` segments.
    ///
    /// Rounds the per-segment size up so no event is ever charged zero
    /// bytes for a non-empty range.
    ///
    /// # Panics
    ///
    /// Panics if `total_segments` is zero or the count overflows `u64`
    /// (which takes a payload within `total_segments` bytes of
    /// `u64::MAX`); the engines use [`ChunkRange::checked_bytes`].
    pub fn bytes(self, total_bytes: u64, total_segments: u32) -> u64 {
        self.checked_bytes(total_bytes, total_segments)
            .expect("chunk byte count overflows u64")
    }

    /// [`ChunkRange::bytes`], or `None` when the count overflows `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `total_segments` is zero.
    pub fn checked_bytes(self, total_bytes: u64, total_segments: u32) -> Option<u64> {
        assert!(total_segments > 0, "schedule must have segments");
        let per_seg = total_bytes.div_ceil(u64::from(total_segments));
        u64::from(self.len()).checked_mul(per_seg)
    }
}

impl fmt::Display for ChunkRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let c = ChunkRange::new(2, 6);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert!(c.contains(2));
        assert!(c.contains(5));
        assert!(!c.contains(6));
        assert_eq!(c.segments().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn halving() {
        let c = ChunkRange::new(0, 8);
        assert_eq!(c.lower_half(), ChunkRange::new(0, 4));
        assert_eq!(c.upper_half(), ChunkRange::new(4, 8));
    }

    #[test]
    #[should_panic(expected = "odd-length")]
    fn halving_odd_panics() {
        ChunkRange::new(0, 3).lower_half();
    }

    #[test]
    fn byte_accounting() {
        // 1000 bytes over 16 segments -> 63 bytes/segment (rounded up)
        let c = ChunkRange::new(0, 4);
        assert_eq!(c.bytes(1000, 16), 4 * 63);
        // exact division
        assert_eq!(ChunkRange::new(0, 4).bytes(1024, 16), 256);
        // empty range moves nothing
        assert_eq!(ChunkRange::new(3, 3).bytes(1024, 16), 0);
        // a whole-range chunk rounds u64::MAX up past the counter
        assert_eq!(ChunkRange::new(0, 3).checked_bytes(u64::MAX, 3), Some(u64::MAX));
        assert_eq!(ChunkRange::new(0, 16).checked_bytes(u64::MAX, 16), None);
        assert_eq!(ChunkRange::new(0, 1).checked_bytes(u64::MAX, 16), Some(u64::MAX / 16 + 1));
    }

    #[test]
    fn display() {
        assert_eq!(ChunkRange::new(1, 3).to_string(), "[1, 3)");
    }

    #[test]
    #[should_panic(expected = "invalid chunk range")]
    fn inverted_range_panics() {
        ChunkRange::new(3, 1);
    }
}
