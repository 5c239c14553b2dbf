//! The lane-group block kernels against the per-block scalar path, bit
//! for bit: [`eigvalsh_blocks`] against [`eigh`]'s `tred2`/`tql2`
//! spectrum, [`QuadSweep::factor_group`] against a textbook per-block
//! Cholesky → `N⁻¹` → `R⁻¹ = N⁻¹·L⁻¹` chain written out below, and the
//! block-Jacobi solves of [`CholeskyBlocks`] against a textbook per-block
//! Cholesky with forward and back substitution. Every block is checked at
//! every lane position a group of its size gives it, beside neighbours
//! that take different branches: early QL splits, zero-scale Householder
//! rows, repeated eigenvalues, blocks that need more sweeps than the rest,
//! subnormal blocks whose rotations underflow to `tql2`'s `r == 0` exit,
//! and an `M_k` or a preconditioner block that does not factor.

use firal_linalg::{
    eigh, eigvalsh_blocks, gemm_a_bt, CholeskyBlocks, LinalgError, Matrix, QuadSweep, Scalar,
};

const ORDERS: [usize; 6] = [1, 2, 3, 16, 20, 50];
const GROUPS: [usize; 5] = [1, 7, 8, 9, 49];

fn lcg(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

/// `Q·diag(λ)·Qᵀ` for the Householder reflection `Q = I − 2vvᵀ/vᵀv`.
fn reflected(lambda: &[f64], seed: u64) -> Matrix<f64> {
    let n = lambda.len();
    let v = lcg(n, 1, seed);
    let vv: f64 = v.as_slice().iter().map(|x| x * x).sum();
    let q = Matrix::from_fn(n, n, |i, j| {
        let eye = if i == j { 1.0 } else { 0.0 };
        eye - 2.0 * v[(i, 0)] * v[(j, 0)] / vv
    });
    let qd = Matrix::from_fn(n, n, |i, j| q[(i, j)] * lambda[j]);
    gemm_a_bt(&qd, &q)
}

/// Block `k` of order `n`: one of six kinds, in turn, so every group of two
/// or more mixes branches lane by lane.
fn eig_block(n: usize, k: usize) -> Matrix<f64> {
    let seed = 1000 * n as u64 + k as u64;
    let mut a = lcg(n, n, seed);
    a.symmetrize();
    match k % 6 {
        // Decoupled halves: the tridiagonal splits early.
        1 => {
            for i in n / 2..n {
                for j in 0..n / 2 {
                    a[(i, j)] = 0.0;
                    a[(j, i)] = 0.0;
                }
            }
        }
        // A last row with nothing left of the diagonal: `scale == 0` at
        // the first Householder step.
        2 => {
            for j in 0..n.saturating_sub(1) {
                a[(n - 1, j)] = 0.0;
                a[(j, n - 1)] = 0.0;
            }
        }
        // Repeated eigenvalues.
        3 => {
            let lambda: Vec<f64> = (0..n).map(|i| (1 + i / 3) as f64).collect();
            a = reflected(&lambda, seed);
        }
        // Already diagonal: converges without a single QL sweep beside
        // neighbours that need many.
        4 => {
            a = Matrix::from_diag(
                &(0..n)
                    .map(|i| ((i * 7) % 5) as f64 - 2.0)
                    .collect::<Vec<_>>(),
            )
        }
        // Nearly diagonal: few sweeps.
        5 => {
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        a[(i, j)] *= 1e-6;
                    }
                }
                a[(i, i)] += 4.0 * i as f64;
            }
        }
        _ => {}
    }
    a
}

fn eig_matches<T: Scalar>() {
    for n in ORDERS {
        let blocks: Vec<Matrix<T>> = (0..49).map(|k| eig_block(n, k).cast()).collect();
        let want: Vec<Vec<u64>> = blocks
            .iter()
            .map(|b| bits(&eigh(b).unwrap().values))
            .collect();
        for g in GROUPS {
            // Two offsets, so each kind lands on more than one lane.
            for o in [0, 49 - g] {
                let got = eigvalsh_blocks(&blocks[o..o + g]).unwrap();
                assert_eq!(got.len(), g * n);
                for (k, spectrum) in got.chunks(n.max(1)).enumerate() {
                    assert_eq!(
                        bits(spectrum),
                        want[o + k],
                        "d={n} group of {g} at {o}: block {} ({} bytes)",
                        o + k,
                        std::mem::size_of::<T>()
                    );
                }
            }
        }
    }
}

#[test]
fn eigvalsh_blocks_is_bitwise_the_per_block_scalar_path_f32() {
    eig_matches::<f32>();
}

#[test]
fn eigvalsh_blocks_is_bitwise_the_per_block_scalar_path_f64() {
    eig_matches::<f64>();
}

/// Blocks scaled into the subnormal range, at seeds on which some QL
/// rotation underflows to `r == 0` and `tql2` leaves its sweep early (most
/// such blocks do not converge at all; these do). Each sits in lanes 0 and
/// 3 of a full group beside ordinary blocks, and alone in a group of one.
fn r_zero_exit_matches<T: Scalar>(cases: &[(usize, u64)]) {
    for &(n, seed) in cases {
        let tiny = T::MIN_POSITIVE * T::from_f64(1.0 / 1024.0);
        let mut a = lcg(n, n, seed);
        a.symmetrize();
        let a = a.cast::<T>();
        let sub = Matrix::from_fn(n, n, |i, j| a[(i, j)] * tiny);
        let mut blocks: Vec<Matrix<T>> = (0..=T::BLOCK_LANES)
            .map(|k| eig_block(n, k).cast())
            .collect();
        blocks[0] = sub.clone();
        blocks[3] = sub.clone();
        blocks[T::BLOCK_LANES] = sub;
        let want: Vec<u64> = blocks
            .iter()
            .flat_map(|b| bits(&eigh(b).unwrap().values))
            .collect();
        let got = eigvalsh_blocks(&blocks).unwrap();
        assert_eq!(bits(&got), want, "n={n} seed={seed}");
    }
}

#[test]
fn the_r_zero_exit_is_bitwise_the_scalar_path() {
    r_zero_exit_matches::<f32>(&[(5, 0), (16, 14), (20, 639)]);
    r_zero_exit_matches::<f64>(&[(5, 9), (16, 136), (20, 35)]);
}

/// The one-block factor chain, written out: `N` with `M = N·Nᵀ`
/// (`k`-ascending subtractions), `N⁻¹` by forward substitution on `I`, and
/// `R⁻¹ = N⁻¹·L⁻¹` with one accumulator per entry from zero, `k`
/// ascending. Returns `(R⁻ᵀ, N⁻¹)` dense, or the failing pivot.
fn chain<T: Scalar>(m: &Matrix<T>, l_inv: &Matrix<T>) -> Result<(Matrix<T>, Matrix<T>), usize> {
    let d = m.rows();
    let mut nf = Matrix::<T>::zeros(d, d);
    for i in 0..d {
        for j in 0..i {
            let mut acc = m[(i, j)];
            for k in 0..j {
                acc -= nf[(i, k)] * nf[(j, k)];
            }
            nf[(i, j)] = acc / nf[(j, j)];
        }
        let mut acc = m[(i, i)];
        for k in 0..i {
            acc -= nf[(i, k)] * nf[(i, k)];
        }
        if acc <= T::ZERO || !acc.is_finite() {
            return Err(i);
        }
        nf[(i, i)] = acc.sqrt();
    }
    let mut n_inv = Matrix::<T>::zeros(d, d);
    for i in 0..d {
        n_inv[(i, i)] = T::ONE;
        for k in 0..i {
            for c in 0..=k {
                let upd = nf[(i, k)] * n_inv[(k, c)];
                n_inv[(i, c)] -= upd;
            }
        }
        for c in 0..=i {
            n_inv[(i, c)] /= nf[(i, i)];
        }
    }
    let mut r_inv_t = Matrix::<T>::zeros(d, d);
    for j in 0..d {
        for c in 0..=j {
            let mut acc = T::ZERO;
            for k in c..=j {
                acc += n_inv[(j, k)] * l_inv[(k, c)];
            }
            r_inv_t[(c, j)] = acc;
        }
    }
    Ok((r_inv_t, n_inv))
}

/// A lower-triangular `L⁻¹` with a positive diagonal.
fn l_inv_block(d: usize, seed: u64) -> Matrix<f64> {
    let r = lcg(d, d, seed);
    Matrix::from_fn(d, d, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => 0.0,
        std::cmp::Ordering::Equal => 1.0 + r[(i, j)].abs(),
        std::cmp::Ordering::Greater => 0.5 * r[(i, j)],
    })
}

/// `M_k`: SPD, with a repeated spectrum now and then.
fn m_block(d: usize, k: usize) -> Matrix<f64> {
    if k % 5 == 3 {
        let lambda: Vec<f64> = (0..d).map(|i| (2 + i / 2) as f64).collect();
        return reflected(&lambda, 77 + k as u64);
    }
    let b = lcg(d, d, 500 + (d * 64 + k) as u64);
    let mut m = gemm_a_bt(&b, &b);
    m.add_diag(d as f64 * 0.1 + 0.05);
    m
}

/// Factor `ms` in groups as ROUND's scoring does and compare every loaded
/// block's triangles with [`chain`]'s.
fn factor_matches<T: Scalar>(ms: &[Matrix<T>], l_invs: &[Matrix<T>], what: &str) {
    let d = ms[0].rows();
    let mut sweep = QuadSweep::<T>::new(d);
    for (gi, (mg, lg)) in ms
        .chunks(T::BLOCK_LANES)
        .zip(l_invs.chunks(T::BLOCK_LANES))
        .enumerate()
    {
        let want: Vec<_> = mg.iter().zip(lg).map(|(m, l)| chain(m, l)).collect();
        let got = sweep.factor_group(lg, |lane, i, row| {
            row.copy_from_slice(&mg[lane].row(i)[..=i]);
        });
        match want.iter().position(Result::is_err) {
            Some(lane) => {
                let pivot = *want[lane].as_ref().unwrap_err();
                assert_eq!(
                    got,
                    Err(LinalgError::NotPositiveDefinite { pivot }),
                    "{what}: group {gi} fails at its first failing block"
                );
            }
            None => {
                got.unwrap();
                for (lane, w) in want.iter().enumerate() {
                    let (r_inv_t, n_inv) = w.as_ref().unwrap();
                    let (got_r, got_n) = sweep.triangles(lane);
                    assert_eq!(
                        bits(got_r.as_slice()),
                        bits(r_inv_t.as_slice()),
                        "{what}: R⁻ᵀ, group {gi} lane {lane}"
                    );
                    assert_eq!(
                        bits(got_n.as_slice()),
                        bits(n_inv.as_slice()),
                        "{what}: N⁻¹, group {gi} lane {lane}"
                    );
                }
            }
        }
    }
}

fn factor_chain_matches<T: Scalar>() {
    for d in ORDERS {
        let ms: Vec<Matrix<T>> = (0..49).map(|k| m_block(d, k).cast()).collect();
        let l_invs: Vec<Matrix<T>> = (0..49)
            .map(|k| l_inv_block(d, 900 + k as u64).cast())
            .collect();
        for g in GROUPS {
            factor_matches(&ms[..g], &l_invs[..g], &format!("d={d}, {g} blocks"));
        }
        // Lane 3 of a full group is not positive definite: the group fails
        // with that block's pivot, and the next group loads cleanly.
        let full = 2 * T::BLOCK_LANES;
        let mut bad = ms[..full].to_vec();
        let pivot = d / 2;
        bad[3][(pivot, pivot)] = -T::from_usize(1000 * d);
        factor_matches(&bad, &l_invs[..full], &format!("d={d}, non-SPD lane 3"));
    }
}

#[test]
fn factor_group_is_bitwise_the_per_block_scalar_chain_f32() {
    factor_chain_matches::<f32>();
}

#[test]
fn factor_group_is_bitwise_the_per_block_scalar_chain_f64() {
    factor_chain_matches::<f64>();
}

/// The Eq. 17 sweep of a full group is, bit for bit, its blocks loaded and
/// swept alone one after the other: each block's term lands on every score
/// in lane order, whatever lane the block held.
#[test]
fn a_block_sweeps_alike_in_any_lane() {
    let (d, n) = (20usize, 70usize);
    let ms: Vec<Matrix<f32>> = (0..8).map(|k| m_block(d, k).cast()).collect();
    let l_invs: Vec<Matrix<f32>> = (0..8)
        .map(|k| l_inv_block(d, 40 + k as u64).cast())
        .collect();
    let xt = lcg(n, d, 3).cast::<f32>().transpose();
    let g = Matrix::from_fn(n, 8, |i, k| 0.01 * ((i + 3 * k) % 7) as f32);
    let mut group = QuadSweep::<f32>::new(d);
    group
        .factor_group(&l_invs, |lane, i, row| {
            row.copy_from_slice(&ms[lane].row(i)[..=i])
        })
        .unwrap();
    let mut swept = vec![1.0f32; n];
    group.accumulate(&xt, &g, 0, 2.5, &mut swept);
    let mut alone = QuadSweep::<f32>::new(d);
    let mut one_by_one = vec![1.0f32; n];
    for lane in 0..8 {
        alone
            .factor_group(&l_invs[lane..=lane], |_, i, row| {
                row.copy_from_slice(&ms[lane].row(i)[..=i]);
            })
            .unwrap();
        alone.accumulate(&xt, &g, lane, 2.5, &mut one_by_one);
    }
    assert_eq!(bits(&swept), bits(&one_by_one));
}

/// The block-Jacobi solve of one block, written out: the Cholesky factor
/// of `A + ridge·I` (`k`-ascending subtractions), then per column the
/// forward substitution `L y = b` and the back substitution `Lᵀ x = y`,
/// each entry one accumulator from the right-hand side, `k` ascending,
/// divided by the pivot. `b` is the block's `d × s` rows, solved in place;
/// returns the failing pivot if the block is not positive definite.
fn textbook_solve<T: Scalar>(a: &Matrix<T>, ridge: T, b: &mut [T], s: usize) -> Result<(), usize> {
    let d = a.rows();
    let mut l = Matrix::<T>::zeros(d, d);
    for i in 0..d {
        for j in 0..=i {
            let mut acc = a[(i, j)];
            if i == j && ridge != T::ZERO {
                acc += ridge;
            }
            for k in 0..j {
                acc -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if acc <= T::ZERO || !acc.is_finite() {
                    return Err(i);
                }
                l[(i, i)] = acc.sqrt();
            } else {
                l[(i, j)] = acc / l[(j, j)];
            }
        }
    }
    for c in 0..s {
        for i in 0..d {
            let mut acc = b[i * s + c];
            for k in 0..i {
                acc -= l[(i, k)] * b[k * s + c];
            }
            b[i * s + c] = acc / l[(i, i)];
        }
        for i in (0..d).rev() {
            let mut acc = b[i * s + c];
            for k in i + 1..d {
                acc -= l[(k, i)] * b[k * s + c];
            }
            b[i * s + c] = acc / l[(i, i)];
        }
    }
    Ok(())
}

/// Solve a seeded panel through `blocks` grouped and block by block, and
/// compare every entry; or, if some block is not positive definite, check
/// that the grouped factorization fails with the first such block's pivot.
fn jacobi_matches<T: Scalar>(blocks: &[Matrix<T>], ridge: T, what: &str) {
    let d = blocks[0].rows();
    for s in [1usize, 3, 10] {
        let rhs = lcg(blocks.len() * d, s, 7000 + (d * s) as u64).cast::<T>();
        let mut want = rhs.as_slice().to_vec();
        let failure = want
            .chunks_mut(d * s)
            .zip(blocks)
            .map(|(b, a)| textbook_solve(a, ridge, b, s))
            .find_map(Result::err);
        match (CholeskyBlocks::new(blocks, ridge), failure) {
            (Err(e), Some(pivot)) => assert_eq!(
                e,
                LinalgError::NotPositiveDefinite { pivot },
                "{what}: fails at the first failing block's pivot"
            ),
            (Ok(mut grouped), None) => {
                let mut got = rhs.as_slice().to_vec();
                grouped.solve_panel_in_place(&mut got, s);
                assert_eq!(bits(&got), bits(&want), "{what}, s={s}");
                // A second solve through the same scratch, at a width it
                // already holds.
                let mut again = rhs.as_slice().to_vec();
                grouped.solve_panel_in_place(&mut again, s);
                assert_eq!(bits(&again), bits(&want), "{what}, s={s}, second solve");
            }
            (got, want) => panic!("{what}: grouped {:?} against per block {want:?}", got.err()),
        }
    }
}

fn block_jacobi_matches<T: Scalar>() {
    for d in ORDERS {
        let ms: Vec<Matrix<T>> = (0..49).map(|k| m_block(d, k).cast()).collect();
        for g in GROUPS {
            jacobi_matches(&ms[..g], T::ZERO, &format!("d={d}, {g} blocks"));
            let ridge = T::from_f64(0.125);
            jacobi_matches(&ms[..g], ridge, &format!("d={d}, {g} blocks, ridge"));
        }
        // Lane 3 of a full group is semidefinite (row and column `pivot`
        // zero): the factorization fails with that block's pivot, and with
        // a ridge on every block it factors and solves.
        let full = 2 * T::BLOCK_LANES;
        let mut bad = ms[..full].to_vec();
        let pivot = d / 2;
        for j in 0..d {
            bad[3][(pivot, j)] = T::ZERO;
            bad[3][(j, pivot)] = T::ZERO;
        }
        assert_eq!(
            CholeskyBlocks::new(&bad, T::ZERO).err(),
            Some(LinalgError::NotPositiveDefinite { pivot }),
            "d={d}: lane 3's pivot"
        );
        jacobi_matches(&bad, T::ZERO, &format!("d={d}, semidefinite lane 3"));
        let ridge = T::from_f64(1e-3);
        assert!(
            CholeskyBlocks::new(&bad, ridge).is_ok(),
            "d={d}: the ridge recovers"
        );
        jacobi_matches(&bad, ridge, &format!("d={d}, semidefinite lane 3, ridge"));
    }
}

#[test]
fn block_jacobi_lanes_are_bitwise_the_per_block_textbook_solve_f32() {
    block_jacobi_matches::<f32>();
}

#[test]
fn block_jacobi_lanes_are_bitwise_the_per_block_textbook_solve_f64() {
    block_jacobi_matches::<f64>();
}
