//! The space/time domain configuration shared by both indexes and the
//! policy encoder.
//!
//! The paper's experiments use a 1000 × 1000 space and normalize policy
//! regions by the space area `S` and policy intervals by the time-domain
//! duration `T` (Sec 5.1). The Z-order grid resolution decides how many bits
//! the ZV component of an index key occupies.

use crate::geometry::{Point, Rect};

/// Global domain configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceConfig {
    /// Side length `L` of the square space domain `[0, L] × [0, L]`.
    pub side: f64,
    /// Bits per axis of the Z-order grid (grid is `2^grid_bits` cells wide).
    pub grid_bits: u32,
    /// Duration `T` of the time domain used to normalize policy intervals.
    pub time_domain: f64,
}

impl Default for SpaceConfig {
    /// The paper's defaults: 1000 × 1000 space; a 1024 × 1024 Z-grid
    /// (cell ≈ 0.98 space units); a one-day time domain at one-minute
    /// granularity (1440 time units).
    fn default() -> Self {
        SpaceConfig { side: 1000.0, grid_bits: 10, time_domain: 1440.0 }
    }
}

impl SpaceConfig {
    pub fn new(side: f64, grid_bits: u32, time_domain: f64) -> Self {
        assert!(side > 0.0 && time_domain > 0.0);
        assert!((1..=16).contains(&grid_bits), "grid_bits must be in 1..=16");
        SpaceConfig { side, grid_bits, time_domain }
    }

    /// The full space rectangle `[0, L] × [0, L]`.
    pub fn bounds(&self) -> Rect {
        Rect::new(0.0, self.side, 0.0, self.side)
    }

    /// Area `S` of the space domain.
    pub fn area(&self) -> f64 {
        self.side * self.side
    }

    /// Number of grid cells per axis.
    pub fn grid_cells(&self) -> u32 {
        1u32 << self.grid_bits
    }

    /// Side length of one grid cell in space units.
    pub fn cell_size(&self) -> f64 {
        self.side / self.grid_cells() as f64
    }

    /// Quantize a point to integer grid coordinates, clamping into the
    /// domain so that slightly out-of-bounds predicted positions still map
    /// to a valid cell.
    pub fn to_grid(&self, p: &Point) -> (u32, u32) {
        let max = self.grid_cells() - 1;
        let gx = ((p.x / self.cell_size()).floor() as i64).clamp(0, max as i64) as u32;
        let gy = ((p.y / self.cell_size()).floor() as i64).clamp(0, max as i64) as u32;
        (gx, gy)
    }

    /// The rectangle of space covered by grid cell `(gx, gy)`.
    pub fn cell_rect(&self, gx: u32, gy: u32) -> Rect {
        let cs = self.cell_size();
        Rect::new(gx as f64 * cs, (gx + 1) as f64 * cs, gy as f64 * cs, (gy + 1) as f64 * cs)
    }

    /// Quantize a rectangle to the inclusive grid-cell range it touches.
    pub fn to_grid_rect(&self, r: &Rect) -> (u32, u32, u32, u32) {
        let (x0, y0) = self.to_grid(&Point::new(r.xl, r.yl));
        let (x1, y1) = self.to_grid(&Point::new(r.xu, r.yu));
        (x0, x1, y0, y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SpaceConfig::default();
        assert_eq!(c.side, 1000.0);
        assert_eq!(c.area(), 1_000_000.0);
        assert_eq!(c.grid_cells(), 1024);
    }

    #[test]
    fn grid_quantization_clamps() {
        let c = SpaceConfig::new(1000.0, 3, 100.0); // 8x8 grid, 125-unit cells
        assert_eq!(c.to_grid(&Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(c.to_grid(&Point::new(999.9, 999.9)), (7, 7));
        assert_eq!(c.to_grid(&Point::new(-5.0, 1200.0)), (0, 7));
        assert_eq!(c.to_grid(&Point::new(125.0, 249.9)), (1, 1));
    }

    #[test]
    fn cell_rect_roundtrip() {
        let c = SpaceConfig::new(1000.0, 3, 100.0);
        let r = c.cell_rect(2, 5);
        assert_eq!(r, Rect::new(250.0, 375.0, 625.0, 750.0));
        let mid = r.center();
        assert_eq!(c.to_grid(&mid), (2, 5));
    }

    #[test]
    fn grid_rect_is_inclusive() {
        let c = SpaceConfig::new(1000.0, 3, 100.0);
        let (x0, x1, y0, y1) = c.to_grid_rect(&Rect::new(100.0, 500.0, 0.0, 130.0));
        assert_eq!((x0, x1, y0, y1), (0, 4, 0, 1));
    }
}
