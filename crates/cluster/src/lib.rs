//! k-means clustering: k-means++ seeding plus Lloyd iterations.
//!
//! This is the substrate behind the paper's **K-Means baseline** (§IV-A,
//! experimental setup item (2)): each active-learning round clusters the
//! pool with `k = b` and labels the point nearest each centroid. The
//! assignment step is rayon-parallel over pool points, mirroring how
//! "scalable and easy to implement" the paper calls this family of methods.
//! [`kmeans`] takes only `k` and the seed: Lloyd runs at most 50 iterations
//! and stops once the relative inertia improvement is at most 1e-6.

use firal_linalg::{Matrix, Scalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult<T: Scalar> {
    /// Cluster centroids (`k × d`).
    pub centroids: Matrix<T>,
    /// Per-point cluster assignment.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squares (the k-means energy).
    pub inertia: T,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

/// Lloyd iteration cap.
const MAX_ITER: usize = 50;

/// Stop when the relative inertia improvement falls to this or below.
const TOL: f64 = 1e-6;

#[inline]
fn sq_dist<T: Scalar>(a: &[T], b: &[T]) -> T {
    let mut acc = T::ZERO;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = *x - *y;
        acc += d * d;
    }
    acc
}

/// k-means++ seeding: first centroid uniform, then each next centroid drawn
/// with probability proportional to the squared distance to the nearest
/// chosen centroid (Arthur & Vassilvitskii 2007).
fn kmeanspp_seed<T: Scalar>(points: &Matrix<T>, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = points.rows();
    assert!(k <= n, "k-means++ needs k ≤ n");
    let mut chosen = Vec::with_capacity(k);
    let first = rng.gen_range(0..n);
    chosen.push(first);

    let mut d2: Vec<f64> = (0..n)
        .map(|i| sq_dist(points.row(i), points.row(first)).to_f64())
        .collect();

    while chosen.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with centroids; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    pick = i;
                    break;
                }
                target -= w;
            }
            pick
        };
        chosen.push(next);
        for i in 0..n {
            let nd = sq_dist(points.row(i), points.row(next)).to_f64();
            if nd < d2[i] {
                d2[i] = nd;
            }
        }
    }
    chosen
}

/// Run k-means with `k` clusters on the row-point panel `points`:
/// k-means++ seeding from `seed`, then Lloyd iterations.
pub fn kmeans<T: Scalar>(points: &Matrix<T>, k: usize, seed: u64) -> KMeansResult<T> {
    let (n, d) = points.shape();
    assert!(k >= 1 && k <= n, "invalid k = {k} for n = {n}");

    let mut rng = StdRng::seed_from_u64(seed);
    let seeds = kmeanspp_seed(points, k, &mut rng);
    let mut centroids = Matrix::zeros(k, d);
    for (c, &i) in seeds.iter().enumerate() {
        centroids.row_mut(c).copy_from_slice(points.row(i));
    }

    let mut assignments = vec![0usize; n];
    let mut inertia = T::INFINITY;
    let mut iterations = 0usize;

    for it in 0..MAX_ITER {
        iterations = it + 1;
        // Assignment step (parallel over points).
        let new: Vec<(usize, T)> = (0..n)
            .into_par_iter()
            .map(|i| {
                let xi = points.row(i);
                let mut best = (T::INFINITY, 0usize);
                for c in 0..k {
                    let dist = sq_dist(xi, centroids.row(c));
                    if dist < best.0 {
                        best = (dist, c);
                    }
                }
                (best.1, best.0)
            })
            .collect();
        let mut new_inertia = T::ZERO;
        for (i, (a, dist)) in new.into_iter().enumerate() {
            assignments[i] = a;
            new_inertia += dist;
        }

        // Update step.
        let mut sums = Matrix::<T>::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            let c = assignments[i];
            counts[c] += 1;
            let row = sums.row_mut(c);
            for (s, &x) in row.iter_mut().zip(points.row(i)) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: re-seed at the point farthest from its
                // centroid to keep k clusters alive.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = sq_dist(points.row(a), centroids.row(assignments[a]));
                        let db = sq_dist(points.row(b), centroids.row(assignments[b]));
                        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .unwrap_or(0);
                centroids.row_mut(c).copy_from_slice(points.row(far));
                continue;
            }
            let inv = T::ONE / T::from_usize(counts[c]);
            let sum_row = sums.row(c).to_vec();
            let crow = centroids.row_mut(c);
            for (cv, sv) in crow.iter_mut().zip(sum_row.iter()) {
                *cv = *sv * inv;
            }
        }

        // Convergence on relative inertia improvement.
        let old = inertia.to_f64();
        let newv = new_inertia.to_f64();
        inertia = new_inertia;
        if old.is_finite() && (old - newv).abs() <= TOL * old.abs().max(1e-30) {
            break;
        }
    }

    KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

/// For each centroid, the index of the pool point nearest to it — the
/// K-Means active-learning baseline labels exactly these points. Returned
/// indices are distinct (each point claimed by at most one centroid; claimed
/// points are excluded from later centroids' searches).
pub fn nearest_to_centroids<T: Scalar>(points: &Matrix<T>, centroids: &Matrix<T>) -> Vec<usize> {
    let n = points.rows();
    let k = centroids.rows();
    assert!(k <= n, "more centroids than points");
    let mut taken = vec![false; n];
    let mut out = Vec::with_capacity(k);
    for c in 0..k {
        let crow = centroids.row(c);
        let mut best = (T::INFINITY, usize::MAX);
        for i in 0..n {
            if taken[i] {
                continue;
            }
            let dist = sq_dist(points.row(i), crow);
            if dist < best.0 {
                best = (dist, i);
            }
        }
        let pick = best.1;
        taken[pick] = true;
        out.push(pick);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-D blobs of 20 points each.
    fn blobs() -> (Matrix<f64>, Vec<usize>) {
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        let mut pts = Matrix::zeros(60, 2);
        let mut labels = Vec::new();
        let mut state = 12345u64;
        let mut noise = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 0.5
        };
        for i in 0..60 {
            let k = i / 20;
            pts[(i, 0)] = centers[k].0 + noise();
            pts[(i, 1)] = centers[k].1 + noise();
            labels.push(k);
        }
        (pts, labels)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (pts, labels) = blobs();
        let res = kmeans(&pts, 3, 1);
        // All points in a blob share an assignment, and blobs get distinct
        // clusters.
        for k in 0..3 {
            let a0 = res.assignments[k * 20];
            for i in 0..20 {
                assert_eq!(res.assignments[k * 20 + i], a0, "blob {k} split");
            }
        }
        let mut seen = [false; 3];
        for k in 0..3 {
            seen[res.assignments[k * 20]] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "blobs merged: {:?}",
            res.assignments
        );
        let _ = labels;
    }

    #[test]
    fn inertia_nonincreasing_with_more_clusters() {
        let (pts, _) = blobs();
        let i2 = kmeans(&pts, 2, 3).inertia;
        let i3 = kmeans(&pts, 3, 3).inertia;
        let i6 = kmeans(&pts, 6, 3).inertia;
        assert!(i3 <= i2 + 1e-9);
        assert!(i6 <= i3 + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (pts, _) = blobs();
        let a = kmeans(&pts, 3, 7);
        let b = kmeans(&pts, 3, 7);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn nearest_to_centroids_returns_distinct_points() {
        let (pts, _) = blobs();
        let res = kmeans(&pts, 5, 2);
        let picks = nearest_to_centroids(&pts, &res.centroids);
        assert_eq!(picks.len(), 5);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "duplicate picks: {picks:?}");
    }

    #[test]
    fn k_equals_n_assigns_each_point_its_own_cluster() {
        let pts = Matrix::from_fn(4, 1, |i, _| i as f64 * 10.0);
        let res = kmeans(&pts, 4, 4);
        let mut assignments = res.assignments.clone();
        assignments.sort_unstable();
        assignments.dedup();
        assert_eq!(assignments.len(), 4);
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let pts = Matrix::from_fn(5, 2, |i, j| (i + j) as f64);
        let res = kmeans(&pts, 1, 5);
        assert!((res.centroids[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((res.centroids[(0, 1)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn f32_runs() {
        let (pts, _) = blobs();
        let pts32: Matrix<f32> = pts.cast();
        let res = kmeans(&pts32, 3, 6);
        assert_eq!(res.assignments.len(), 60);
    }
}
