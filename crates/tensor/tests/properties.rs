//! Property-based tests for the tensor substrate: every format conversion
//! and layout transform must be a lossless bijection on the element set.

use proptest::prelude::*;

use spg_tensor::sparse::{Csr, CtCsr};
use spg_tensor::{layout, Matrix, Shape3, Shape4, Tensor};

fn sparse_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..12, 1usize..12, 0.0f64..1.0).prop_flat_map(|(r, c, sp)| {
        proptest::collection::vec(prop_oneof![3 => Just(0.0f32), 1 => -10.0f32..10.0], r * c)
            .prop_map(move |mut v| {
                // Push towards the requested sparsity deterministically.
                #[allow(clippy::cast_possible_truncation)] // sp in [0, 1): fits
                let target_zeros = (sp * (r * c) as f64) as usize;
                for x in v.iter_mut().take(target_zeros) {
                    *x = 0.0;
                }
                Matrix::from_vec(r, c, v).expect("length matches by construction")
            })
    })
}

proptest! {
    #[test]
    fn csr_round_trips(dense in sparse_matrix()) {
        let csr = Csr::from_dense(&dense);
        prop_assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn csr_nnz_equals_dense_nonzeros(dense in sparse_matrix()) {
        let csr = Csr::from_dense(&dense);
        let nonzeros = dense.as_slice().iter().filter(|v| **v != 0.0).count();
        prop_assert_eq!(csr.nnz(), nonzeros);
    }

    #[test]
    fn csr_row_ptr_is_monotone(dense in sparse_matrix()) {
        let csr = Csr::from_dense(&dense);
        let rp = csr.row_ptr();
        prop_assert_eq!(rp.len(), dense.rows() + 1);
        prop_assert!(rp.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*rp.last().expect("nonempty") as usize, csr.nnz());
    }

    #[test]
    fn ctcsr_round_trips(dense in sparse_matrix(), tw in 1usize..16) {
        let tiled = CtCsr::from_dense(&dense, tw).expect("positive tile width");
        prop_assert_eq!(tiled.to_dense(), dense);
    }

    #[test]
    fn ctcsr_agrees_with_csr_on_counts(dense in sparse_matrix(), tw in 1usize..16) {
        let csr = Csr::from_dense(&dense);
        let tiled = CtCsr::from_dense(&dense, tw).expect("positive tile width");
        prop_assert_eq!(tiled.nnz(), csr.nnz());
    }

    #[test]
    fn chw_hwc_is_bijective(c in 1usize..6, h in 1usize..8, w in 1usize..8) {
        let shape = Shape3::new(c, h, w);
        let t: Vec<f32> = (0..shape.len()).map(|i| i as f32).collect();
        let (mut there, mut back) = (vec![0.0; t.len()], vec![0.0; t.len()]);
        layout::chw_to_hwc_into(&t, shape, &mut there);
        layout::hwc_to_chw_into(&there, shape, &mut back);
        prop_assert_eq!(back, t);
    }

    #[test]
    fn weight_layout_is_bijective(f in 1usize..5, c in 1usize..5, ky in 1usize..4, kx in 1usize..4) {
        let shape = Shape4::new(f, c, ky, kx);
        let t: Vec<f32> = (0..shape.len()).map(|i| i as f32).collect();
        let mut there = vec![0.0; t.len()];
        layout::fckk_to_kkfc_into(&t, shape, &mut there);
        there.sort_by(f32::total_cmp);
        prop_assert_eq!(there, t);
    }

    #[test]
    fn matrix_transpose_is_involution(r in 1usize..10, c in 1usize..10) {
        let m = Matrix::from_vec(r, c, (0..r * c).map(|i| i as f32).collect())
            .expect("length matches by construction");
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn tensor_sparsity_in_unit_interval(values in proptest::collection::vec(-1.0f32..1.0, 0..64)) {
        let t = Tensor::from_vec(values);
        let s = t.sparsity();
        prop_assert!((0.0..=1.0).contains(&s));
    }
}
