//! Seeded lint fixture: an intrinsic named outside `spg-gemm`'s `simd`
//! module. Never compiled — exists so `spg-lint --self-test` can prove the
//! intrinsics pass still catches a kernel that grows its own per-ISA
//! vocabulary instead of using `spg_gemm::simd::Vector`.

pub fn add8(a: &[f32; 8], b: &[f32; 8], out: &mut [f32; 8]) {
    // The seeded bug: a second vocabulary, one intrinsic at a time.
    unsafe {
        use std::arch::x86_64::*;
        let v = _mm256_add_ps(_mm256_loadu_ps(a.as_ptr()), _mm256_loadu_ps(b.as_ptr()));
        _mm256_storeu_ps(out.as_mut_ptr(), v);
    }
}
