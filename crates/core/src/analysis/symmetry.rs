//! Symmetry of 2-D maps.
//!
//! §3.2, about Figure 5: "the symmetry in this diagram indicates that the
//! two dimensions have very similar effects.  Hash join plans perform
//! better in some cases but do not exhibit this symmetry, as predicted
//! also in our prior research \[GLS94\]."
//!
//! For a plan measured on a square grid, we compare `cost(ia, ib)` with
//! `cost(ib, ia)`; the asymmetry score is the maximum (and mean) absolute
//! log-ratio between mirrored cells.

/// Symmetry summary of one plan's grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Symmetry {
    /// Maximum `|ln(cost(i,j) / cost(j,i))|` over all mirrored pairs.
    pub max_log_ratio: f64,
    /// Mean of the same quantity.
    pub mean_log_ratio: f64,
}

/// Compute the symmetry of an ia-major `grid` over a square `n x n` space.
///
/// # Panics
/// Panics if `grid.len() != n * n`.
pub fn symmetry_of(grid: &[f64], n: usize) -> Symmetry {
    assert_eq!(grid.len(), n * n, "grid must be square");
    let mut max_lr = 0.0f64;
    let mut sum = 0.0f64;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let x = grid[i * n + j];
            let y = grid[j * n + i];
            if x <= 0.0 || y <= 0.0 {
                continue;
            }
            let lr = (x / y).ln().abs();
            max_lr = max_lr.max(lr);
            sum += lr;
            pairs += 1;
        }
    }
    Symmetry {
        max_log_ratio: max_lr,
        mean_log_ratio: if pairs > 0 { sum / pairs as f64 } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_symmetric_grid() {
        // cost = f(i) + f(j) is symmetric.
        let n = 4;
        let grid: Vec<f64> =
            (0..n).flat_map(|i| (0..n).map(move |j| (i + j + 1) as f64)).collect();
        let s = symmetry_of(&grid, n);
        assert_eq!(s.max_log_ratio, 0.0);
    }

    #[test]
    fn asymmetric_grid_is_flagged() {
        // cost depends on i only (Figure 4's single-index plan): mirrored
        // cells differ wildly.
        let n = 4;
        let grid: Vec<f64> = (0..n).flat_map(|i| (0..n).map(move |_| 10f64.powi(i as i32))).collect();
        let s = symmetry_of(&grid, n);
        assert!(s.max_log_ratio > 6.0); // ratio up to 10^3
    }

    #[test]
    fn mild_noise_is_its_log_ratio() {
        let n = 3;
        let mut grid: Vec<f64> = (0..n).flat_map(|i| (0..n).map(move |j| (i + j + 1) as f64)).collect();
        grid[1] *= 1.05; // 5% wobble in cell (0, 1)
        let s = symmetry_of(&grid, n);
        assert!((s.max_log_ratio - 1.05f64.ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_grid_panics() {
        symmetry_of(&[1.0, 2.0], 3);
    }
}
