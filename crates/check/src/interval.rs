//! Interval arithmetic over affine, monotone index expressions.
//!
//! Every access the kernels make has the shape `((a*i + b)*S1 + c*j + d)*S2 + ...`
//! where the loop variables `i, j, ...` range over half-open intervals and every
//! coefficient is non-negative. For such monotone affine forms, the exact range
//! of the flattened index is obtained by composing the ranges of the terms, so a
//! tiny interval domain is a *complete* abstract interpretation: no widening is
//! ever needed and there are no false positives.

/// A half-open interval `[lo, hi)` of flat buffer indices.
///
/// The empty interval is represented with `hi <= lo`; all operations treat it
/// as absorbing (an empty loop performs no accesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Lowest index touched (inclusive).
    pub lo: usize,
    /// One past the highest index touched (exclusive).
    pub hi: usize,
}

impl Span {
    /// The interval of a loop variable ranging over `0..n`.
    #[must_use]
    pub fn iter(n: usize) -> Self {
        Span { lo: 0, hi: n }
    }

    /// An explicit half-open `[lo, hi)` interval.
    #[must_use]
    pub fn range(lo: usize, hi: usize) -> Self {
        Span { lo, hi }
    }

    /// Whether the interval contains no indices.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.hi <= self.lo
    }

    /// Range of `k * v` for `v` in `self`. Exact for the endpoints; the interior
    /// is an over-approximation (stride holes), which is sound for bounds checks.
    #[must_use]
    pub fn scale(self, k: usize) -> Self {
        if self.is_empty() || k == 0 {
            return Span { lo: 0, hi: 0 };
        }
        Span { lo: self.lo * k, hi: (self.hi - 1) * k + 1 }
    }

    /// Range of `u + v` for independent `u` in `self`, `v` in `other`.
    #[must_use]
    pub fn plus(self, other: Span) -> Self {
        if self.is_empty() {
            return self;
        }
        if other.is_empty() {
            return other;
        }
        Span { lo: self.lo + other.lo, hi: (self.hi - 1) + (other.hi - 1) + 1 }
    }

    /// Range of a contiguous read of `n` elements starting at `v` in `self`.
    #[must_use]
    pub fn block(self, n: usize) -> Self {
        self.plus(Span::iter(n))
    }

    /// Whether two half-open intervals share any index.
    #[must_use]
    pub fn overlaps(self, other: Span) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo < other.hi && other.lo < self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_composition_matches_enumeration() {
        // index = (y*3 + ky)*10 + x*2 + kx  for y in 0..4, ky in 0..3, x in 0..5, kx in 0..2
        let span = Span::iter(4)
            .scale(3)
            .plus(Span::iter(3))
            .scale(10)
            .plus(Span::iter(5).scale(2).plus(Span::iter(2)));
        let mut lo = usize::MAX;
        let mut hi = 0;
        for y in 0..4usize {
            for ky in 0..3 {
                for x in 0..5 {
                    for kx in 0..2 {
                        let i = (y * 3 + ky) * 10 + x * 2 + kx;
                        lo = lo.min(i);
                        hi = hi.max(i + 1);
                    }
                }
            }
        }
        assert_eq!(span.lo, lo);
        assert_eq!(span.hi, hi);
    }

    #[test]
    fn empty_spans_absorb() {
        let empty = Span::iter(0);
        assert!(empty.is_empty());
        assert!(empty.scale(5).is_empty());
        assert!(empty.plus(Span::iter(3)).is_empty());
        assert!(Span::iter(3).plus(empty).is_empty());
        assert!(!empty.overlaps(Span::iter(10)));
    }

    #[test]
    fn overlap_is_strict_on_half_open_boundaries() {
        assert!(!Span::range(0, 4).overlaps(Span::range(4, 8)));
        assert!(Span::range(0, 5).overlaps(Span::range(4, 8)));
    }

    #[test]
    fn block_extends_hi() {
        assert_eq!(Span::range(7, 8).block(3), Span::range(7, 10));
    }
}
