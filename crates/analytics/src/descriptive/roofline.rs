//! The roofline performance model (Williams, Waterman & Patterson, CACM
//! 2009) — the paper's example of a descriptive Applications-pillar model.
//!
//! Given a machine's peak compute throughput and memory bandwidth, the
//! attainable performance of a kernel with arithmetic intensity `I`
//! (flops/byte) is `min(peak, bandwidth × I)`. Plotting measured kernels
//! against the roof immediately shows whether they are compute- or
//! memory-bound and how far from the roof they sit.

use serde::Serialize;

/// A machine roof: peak compute and peak memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Roofline {
    /// Peak floating-point throughput, GFLOP/s.
    pub peak_gflops: f64,
    /// Peak memory bandwidth, GB/s.
    pub peak_bw_gbs: f64,
}

/// Which roof limits a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Bound {
    /// Limited by memory bandwidth (left of the ridge).
    MemoryBound,
    /// Limited by compute throughput (right of the ridge).
    ComputeBound,
}

/// Placement of one measured kernel on the roofline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct KernelPlacement {
    /// Arithmetic intensity, flops/byte.
    pub intensity: f64,
    /// Measured performance, GFLOP/s.
    pub measured_gflops: f64,
    /// Attainable performance at that intensity, GFLOP/s.
    pub attainable_gflops: f64,
    /// Fraction of attainable achieved (`measured / attainable`).
    pub efficiency: f64,
    /// Limiting roof.
    pub bound: Bound,
}

impl Roofline {
    /// Creates a roofline.
    ///
    /// # Panics
    /// Panics if either peak is non-positive.
    pub fn new(peak_gflops: f64, peak_bw_gbs: f64) -> Self {
        assert!(
            peak_gflops > 0.0 && peak_bw_gbs > 0.0,
            "roof peaks must be positive"
        );
        Roofline {
            peak_gflops,
            peak_bw_gbs,
        }
    }

    /// The ridge point: the intensity at which the two roofs meet.
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_gflops / self.peak_bw_gbs
    }

    /// Attainable performance at arithmetic intensity `i`.
    pub fn attainable(&self, i: f64) -> f64 {
        (self.peak_bw_gbs * i.max(0.0)).min(self.peak_gflops)
    }

    /// Places a measured kernel on the roof.
    pub fn place(&self, intensity: f64, measured_gflops: f64) -> KernelPlacement {
        let attainable = self.attainable(intensity);
        KernelPlacement {
            intensity,
            measured_gflops,
            attainable_gflops: attainable,
            efficiency: if attainable > 0.0 {
                measured_gflops / attainable
            } else {
                0.0
            },
            bound: if intensity < self.ridge_intensity() {
                Bound::MemoryBound
            } else {
                Bound::ComputeBound
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roof() -> Roofline {
        Roofline::new(1_000.0, 100.0) // ridge at 10 flops/byte
    }

    #[test]
    fn ridge_and_roofs() {
        let r = roof();
        assert_eq!(r.ridge_intensity(), 10.0);
        assert_eq!(r.attainable(1.0), 100.0); // bandwidth roof
        assert_eq!(r.attainable(10.0), 1_000.0); // at the ridge
        assert_eq!(r.attainable(100.0), 1_000.0); // compute roof
        assert_eq!(r.attainable(-1.0), 0.0);
    }

    #[test]
    fn placement_classifies_bound() {
        let r = roof();
        let stream = r.place(0.25, 20.0); // STREAM-like kernel
        assert_eq!(stream.bound, Bound::MemoryBound);
        assert_eq!(stream.attainable_gflops, 25.0);
        assert!((stream.efficiency - 0.8).abs() < 1e-12);

        let dgemm = r.place(50.0, 900.0);
        assert_eq!(dgemm.bound, Bound::ComputeBound);
        assert!((dgemm.efficiency - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_peaks() {
        Roofline::new(0.0, 100.0);
    }
}
