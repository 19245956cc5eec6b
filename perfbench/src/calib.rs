//! Host-speed calibration.
//!
//! On a shared host the CPU speed drifts by tens of percent within
//! minutes, and the drift hits every computation alike. So the timed
//! phases interleave short slices of a fixed reference computation
//! (hashing and sorting 256 KiB, independent of the program), and every
//! host time is reported scaled to the speed at which one slice takes
//! [`REF_SLICE_NS`]. On a 2-CPU VM, alternating slices with mini-network
//! `Session::run` batches cut the coefficient of variation of the batch
//! time from 15% raw to 4.4% scaled (256 blocks over 90 s).

use crate::util::splitmix64;
use std::time::{Duration, Instant};

/// The reference slice time the scaled host times assume.
pub const REF_SLICE_NS: f64 = 5e6;

/// Workload time between two slices.
const SLICE_EVERY: Duration = Duration::from_millis(30);

/// Runs one reference slice; returns its host ns.
fn slice() -> u64 {
    let t0 = Instant::now();
    let mut v: Vec<u64> = (0..1u64 << 15).map(splitmix64).collect();
    for _ in 0..8 {
        v.sort_unstable();
        for x in v.iter_mut() {
            *x = splitmix64(*x);
        }
    }
    std::hint::black_box(&v);
    t0.elapsed().as_nanos() as u64
}

/// Slices run during one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calib {
    /// Slices run.
    pub slices: u64,
    /// Host ns they took.
    pub ns: u64,
}

impl Calib {
    /// Runs one slice now and records it; returns its host ns.
    pub fn run(&mut self) -> u64 {
        let ns = slice();
        self.slices += 1;
        self.ns += ns;
        ns
    }

    /// Factor that scales a host time measured alongside these slices to
    /// the reference speed (`1.0` without slices).
    pub fn scale(&self) -> f64 {
        if self.slices == 0 || self.ns == 0 {
            1.0
        } else {
            REF_SLICE_NS * self.slices as f64 / self.ns as f64
        }
    }
}

/// Runs `f` between two reference slices; returns its result, its raw
/// host seconds and the slices (scale with [`Calib::scale`]).
pub fn between_slices<R>(f: impl FnOnce() -> R) -> (R, f64, Calib) {
    let mut calib = Calib::default();
    calib.run();
    let t0 = Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    calib.run();
    (r, secs, calib)
}

/// Runs a slice whenever [`SLICE_EVERY`] of workload time has passed.
#[derive(Debug)]
pub struct Calibrator {
    last: Instant,
    /// Slices run so far.
    pub calib: Calib,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Starts with one slice, so every window has at least one.
    pub fn new() -> Self {
        let mut calib = Calib::default();
        calib.run();
        Self {
            last: Instant::now(),
            calib,
        }
    }

    /// Runs a slice if one is due; returns the host ns spent.
    pub fn tick(&mut self) -> u64 {
        if self.last.elapsed() < SLICE_EVERY {
            return 0;
        }
        let ns = self.calib.run();
        self.last = Instant::now();
        ns
    }
}
