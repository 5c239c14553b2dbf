//! `gemm_at_b`'s booked allocation traffic is a function of the shapes
//! alone: the one staged operand is the zero-padded strip carrying the last
//! `d % lanes` columns of `A`. (A test binary of its own, with one test: the
//! counters are process-global, so nothing else may run beside it.)

use firal_linalg::autotune::lane_count;
use firal_linalg::counters::{gemm_at_b_pack_bytes, measure};
use firal_linalg::simd::available_tiers;
use firal_linalg::{gemm_at_b_tier, Matrix, Scalar};

fn staged_bytes_are_exact<T: Scalar>() {
    let elem = std::mem::size_of::<T>();
    // d on, below and above a lane multiple; n across the parallel threshold.
    for (n, d, m) in [(1003usize, 20usize, 9usize), (1003, 64, 12), (7, 3, 4)] {
        let a = Matrix::<T>::from_fn(n, d, |i, j| T::from_usize((i * 3 + j) % 7));
        let b = Matrix::<T>::from_fn(n, m, |i, j| T::from_usize((i + 5 * j) % 5));
        for tier in available_tiers() {
            let lanes = lane_count(tier, elem);
            let dp = d.next_multiple_of(lanes);
            // One lane on the scalar tier: nothing is ever padded there.
            let want = gemm_at_b_pack_bytes(n, dp - (d - d % lanes), elem) as u64;
            for _ in 0..2 {
                let (_, booked) = measure(|| gemm_at_b_tier(tier, &a, &b));
                assert_eq!(booked.bytes, want, "tier {tier} n={n} d={d} m={m}");
            }
            let (_, booked) = measure(|| {
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| gemm_at_b_tier(tier, &a, &b));
                    }
                })
            });
            assert_eq!(
                booked.bytes,
                2 * want,
                "tier {tier} n={n} d={d} m={m}, two threads"
            );
        }
    }
}

#[test]
fn gemm_at_b_books_exactly_its_padded_strip() {
    staged_bytes_are_exact::<f32>();
    staged_bytes_are_exact::<f64>();
}
