//! A CG panel iteration on the RELAX operators allocates nothing.
//!
//! `cg_solve_panel` sizes its panels before the loop, `Σ_z = H_o + H_z`
//! applies through the fused sweep's reusable workspace, and block-Jacobi
//! solves in place — so once the first solve has sized the workspaces, a
//! solve's allocation count must not depend on how many iterations it
//! runs. Counted with a thread-local tally in the global allocator; the
//! pool is kept to one reduction chunk, because past that the kernels
//! dispatch through rayon, whose work-item lists are its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use firal_core::hessian::{BlockJacobi, PoolHessian, SigmaZ};
use firal_linalg::Matrix;
use firal_solvers::{cg_solve_panel, CgConfig};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the arguments it was
// given; the tally is a plain thread-local `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `GlobalAlloc::dealloc` contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `GlobalAlloc::realloc` contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn cg_panel_iterations_do_not_allocate() {
    let (n, labeled, d, blocks, probes) = (200usize, 12usize, 6usize, 3usize, 4usize);
    let point = |i: usize, p: usize| ((i * 31 + p * 17) % 23) as f32 / 11.5 - 1.0;
    let prob = |i: usize, k: usize| (1 + (i * 7 + k * 5) % 9) as f32 / 10.0 / (blocks + 1) as f32;
    let xu = Matrix::from_fn(n, d, point);
    let hu = Matrix::from_fn(n, blocks, prob);
    let xo = Matrix::from_fn(labeled, d, |i, p| point(i + n, p));
    let ho = Matrix::from_fn(labeled, blocks, |i, k| prob(i + n, k));
    let z = vec![4.0 / n as f32; n];
    let sigma = SigmaZ::new(
        PoolHessian::unweighted(&xo, &ho),
        PoolHessian::weighted(&xu, &hu, z),
    );
    let prec = BlockJacobi::new_with_ridge(&sigma.block_diagonal(), 1e-6).unwrap();
    let rhs = Matrix::from_fn(d * blocks, probes, |i, j| {
        if (i * 3 + j) % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    });

    let allocations = |max_iter: usize| {
        // A tolerance nothing reaches: every column runs `max_iter` rounds.
        let config = CgConfig {
            rel_tol: 0.0f32,
            max_iter,
        };
        let before = ALLOCATIONS.with(Cell::get);
        let (_, telemetry) = cg_solve_panel(&sigma, &prec, &rhs, &config);
        let after = ALLOCATIONS.with(Cell::get);
        assert!(telemetry.iter().all(|t| t.iterations == max_iter));
        after - before
    };
    allocations(1); // sizes the sweep workspaces and `Σ_z`'s temporary
    assert_eq!(allocations(2), allocations(12));
}
