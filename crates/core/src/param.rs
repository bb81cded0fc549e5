//! Parameter grids.
//!
//! The paper sweeps selectivities geometrically: "Query result sizes differ
//! by a factor of 2 between data points", from `2^-16` of the table up to
//! the full table.  [`Grid1D`] and [`Grid2D`] encode such sweeps; axes are
//! ascending selectivity.

/// A 1-D sweep over selectivities (ascending, in `(0, 1]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid1D {
    sels: Vec<f64>,
}

impl Grid1D {
    /// The paper's sweep: `2^-min_exp, 2^-(min_exp-1), ..., 2^0`
    /// (`min_exp + 1` points, factor 2 apart).
    pub fn pow2(min_exp: u32) -> Self {
        let sels = (0..=min_exp).rev().map(|k| 0.5f64.powi(k as i32)).collect();
        Grid1D { sels }
    }

    /// An explicit grid; must be ascending and within `(0, 1]`.
    pub fn explicit(sels: Vec<f64>) -> Self {
        assert!(!sels.is_empty(), "empty grid");
        assert!(
            sels.windows(2).all(|w| w[0] < w[1]),
            "selectivities must be strictly ascending"
        );
        assert!(sels.iter().all(|&s| s > 0.0 && s <= 1.0), "selectivities must be in (0, 1]");
        Grid1D { sels }
    }

    /// The selectivities, ascending.
    pub fn sels(&self) -> &[f64] {
        &self.sels
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.sels.len()
    }

    /// Whether the grid is empty (never true for constructed grids).
    pub fn is_empty(&self) -> bool {
        self.sels.is_empty()
    }
}

/// A 2-D sweep: the cross product of two selectivity axes.
///
/// Axis `a` is the map's x dimension, axis `b` the y dimension — matching
/// the paper's "selectivities of the two predicate clauses".
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2D {
    a: Grid1D,
    b: Grid1D,
}

impl Grid2D {
    /// A square power-of-two grid for both axes.
    pub fn pow2(min_exp: u32) -> Self {
        Grid2D { a: Grid1D::pow2(min_exp), b: Grid1D::pow2(min_exp) }
    }

    /// Explicit axes.
    pub fn new(a: Grid1D, b: Grid1D) -> Self {
        Grid2D { a, b }
    }

    /// The `a` (x) axis.
    pub fn sel_a(&self) -> &[f64] {
        self.a.sels()
    }

    /// The `b` (y) axis.
    pub fn sel_b(&self) -> &[f64] {
        self.b.sels()
    }

    /// Grid dimensions `(|a|, |b|)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.a.len(), self.b.len())
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.a.len() * self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_grid_matches_paper_sweep() {
        let g = Grid1D::pow2(16);
        assert_eq!(g.len(), 17);
        assert!((g.sels()[0] - 2f64.powi(-16)).abs() < 1e-18);
        assert_eq!(*g.sels().last().unwrap(), 1.0);
        // Factor 2 between points.
        for w in g.sels().windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn explicit_grid_validates() {
        let g = Grid1D::explicit(vec![0.1, 0.5, 1.0]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_grid_panics() {
        Grid1D::explicit(vec![0.5, 0.1]);
    }

    #[test]
    #[should_panic(expected = "(0, 1]")]
    fn out_of_range_grid_panics() {
        Grid1D::explicit(vec![0.0, 0.5]);
    }

    #[test]
    fn grid2d_dims() {
        let g = Grid2D::pow2(8);
        assert_eq!(g.dims(), (9, 9));
        assert_eq!(g.cells(), 81);
        let g2 = Grid2D::new(Grid1D::pow2(4), Grid1D::pow2(8));
        assert_eq!(g2.dims(), (5, 9));
    }
}
