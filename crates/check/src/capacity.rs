//! Abstract model of `ConvScratch` capacity.
//!
//! The verifier never holds a real scratch arena; it reasons about the element
//! counts a `ConvScratch::reserve` call guarantees. `reserved_for` reads them
//! from `ConvScratch::reserved_lengths`, the figures `reserve` grows to (a
//! coupling test checks them against a live arena).

use spg_convnet::{ConvScratch, ConvSpec};

/// Element capacities of the four `ConvScratch` staging buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchCapacity {
    /// `ConvScratch::mat_b` capacity in `f32` elements.
    pub mat_b: usize,
    /// `ConvScratch::hwc_in` capacity in `f32` elements.
    pub hwc_in: usize,
    /// `ConvScratch::hwc_out` capacity in `f32` elements.
    pub hwc_out: usize,
    /// `ConvScratch::wperm` capacity in `f32` elements.
    pub wperm: usize,
}

impl ScratchCapacity {
    /// Capacities `ConvScratch::reserve(spec)` guarantees, computed without
    /// allocating.
    #[must_use]
    pub fn reserved_for(spec: &ConvSpec) -> Self {
        let [mat_b, hwc_in, hwc_out, wperm] = ConvScratch::reserved_lengths(spec);
        ScratchCapacity { mat_b, hwc_in, hwc_out, wperm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_matches_live_scratch() {
        // The definitive coupling check: the abstract capacities must equal the
        // lengths of a freshly reserved arena.
        for spec in [
            ConvSpec::square(32, 16, 8, 5, 1),
            ConvSpec::square(31, 7, 3, 3, 2),
            ConvSpec::new(3, 13, 27, 5, 2, 4, 1, 3).unwrap(),
            // More features than patch elements (64 > 2 * 3 * 3).
            ConvSpec::square(8, 64, 2, 3, 1),
        ] {
            let mut scratch = ConvScratch::new();
            scratch.reserve(&spec);
            let live = ScratchCapacity {
                mat_b: scratch.mat_b.len(),
                hwc_in: scratch.hwc_in.len(),
                hwc_out: scratch.hwc_out.len(),
                wperm: scratch.wperm.len(),
            };
            assert_eq!(
                ScratchCapacity::reserved_for(&spec),
                live,
                "capacity model diverged from ConvScratch::reserve for {spec:?}"
            );
        }
    }
}
