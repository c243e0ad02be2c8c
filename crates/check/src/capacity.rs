//! Abstract model of `ConvScratch` capacity.
//!
//! The verifier never holds a real scratch arena; it reasons about the element
//! counts a `ConvScratch::reserve` call guarantees. `reserved_for` mirrors the
//! reservation arithmetic in `spg-convnet::workspace` exactly (a coupling test
//! in that crate keeps the two in lock-step), and `of_scratch` reads the
//! capacities off a live arena so callers can verify against what was actually
//! allocated rather than what should have been.

use spg_convnet::workspace::ConvScratch;
use spg_convnet::ConvSpec;

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
    /// allocating. Must stay byte-for-byte in sync with the reservation code.
    #[must_use]
    pub fn reserved_for(spec: &ConvSpec) -> Self {
        let patches = spec.out_h() * spec.out_w();
        let patch_len = spec.weight_shape().per_feature();
        ScratchCapacity {
            mat_b: patches * patch_len,
            hwc_in: spec.input_shape().len(),
            hwc_out: spec.output_shape().len(),
            wperm: spec.weight_shape().len(),
        }
    }

    /// Capacities of a live scratch arena (what was actually allocated).
    #[must_use]
    pub fn of_scratch(scratch: &ConvScratch) -> Self {
        ScratchCapacity {
            mat_b: scratch.mat_b.len(),
            hwc_in: scratch.hwc_in.len(),
            hwc_out: scratch.hwc_out.len(),
            wperm: scratch.wperm.len(),
        }
    }

    /// Component-wise maximum: the envelope a shared `Workspace` reserves when
    /// one arena serves several layers.
    #[must_use]
    pub fn envelope(self, other: ScratchCapacity) -> Self {
        ScratchCapacity {
            mat_b: self.mat_b.max(other.mat_b),
            hwc_in: self.hwc_in.max(other.hwc_in),
            hwc_out: self.hwc_out.max(other.hwc_out),
            wperm: self.wperm.max(other.wperm),
        }
    }

    /// Total `f32` elements across all staging buffers.
    #[must_use]
    pub fn elems(&self) -> usize {
        self.mat_b + self.hwc_in + self.hwc_out + self.wperm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_matches_live_scratch() {
        // The definitive coupling check: the abstract capacities must equal the
        // lengths a freshly reserved arena reports through `of_scratch`.
        for spec in [
            ConvSpec::square(32, 16, 8, 5, 1),
            ConvSpec::square(31, 7, 3, 3, 2),
            ConvSpec::new(3, 13, 27, 5, 2, 4, 1, 3).unwrap(),
            // More features than patch elements (64 > 2 * 3 * 3).
            ConvSpec::square(8, 64, 2, 3, 1),
        ] {
            let mut scratch = ConvScratch::new();
            scratch.reserve(&spec);
            assert_eq!(
                ScratchCapacity::reserved_for(&spec),
                ScratchCapacity::of_scratch(&scratch),
                "capacity model diverged from ConvScratch::reserve for {spec:?}"
            );
        }
    }

    #[test]
    fn envelope_is_component_wise() {
        let a = ScratchCapacity { mat_b: 1, hwc_in: 5, hwc_out: 9, wperm: 2 };
        let b = ScratchCapacity { mat_b: 8, hwc_in: 5, hwc_out: 1, wperm: 7 };
        let e = a.envelope(b);
        assert_eq!(e, ScratchCapacity { mat_b: 8, hwc_in: 5, hwc_out: 9, wperm: 7 });
        assert_eq!(e.elems(), 8 + 5 + 9 + 7);
    }
}
