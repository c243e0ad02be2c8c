//! Property-based tests: every optimized GEMM path must agree with the
//! naive triple-loop oracle on arbitrary shapes and thread counts.

use proptest::prelude::*;

use spg_gemm::{gemm_into, gemm_naive, parallel_gemm, GemmError};
use spg_tensor::Matrix;

/// The blocked kernel's `A * B` into a fresh matrix.
fn gemm(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_into(a, b, &mut c).map(|()| c)
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-4.0f32..4.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("length matches"))
}

fn mm_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..24, 1usize..24, 1usize..24).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n)))
}

fn close(a: &Matrix, b: &Matrix) -> bool {
    // f32 accumulation order differs between kernels; scale tolerance by k.
    a.max_abs_diff(b).map(|d| d < 1e-2).unwrap_or(false)
}

proptest! {
    #[test]
    fn blocked_matches_naive((a, b) in mm_pair()) {
        let fast = gemm(&a, &b).expect("dims agree");
        let slow = gemm_naive(&a, &b).expect("dims agree");
        prop_assert!(close(&fast, &slow));
    }

    #[test]
    fn parallel_matches_naive((a, b) in mm_pair(), threads in 1usize..9) {
        let fast = parallel_gemm(&a, &b, threads).expect("dims agree");
        let slow = gemm_naive(&a, &b).expect("dims agree");
        prop_assert!(close(&fast, &slow));
    }

    #[test]
    fn gemm_is_linear_in_a((a, b) in mm_pair()) {
        // (2A)B == 2(AB) — catches accumulation/packing bugs cheaply.
        let doubled = Matrix::from_vec(
            a.rows(),
            a.cols(),
            a.as_slice().iter().map(|v| v * 2.0).collect(),
        ).expect("length matches");
        let c1 = gemm(&doubled, &b).expect("dims agree");
        let c2 = gemm(&a, &b).expect("dims agree");
        let c2x = Matrix::from_vec(
            c2.rows(),
            c2.cols(),
            c2.as_slice().iter().map(|v| v * 2.0).collect(),
        ).expect("length matches");
        prop_assert!(close(&c1, &c2x));
    }
}
