//! `fft3d` — a multi-dimensional Fast Fourier Transform and the paper's
//! 3-D FFT application kernel.
//!
//! The paper's application benchmark (§IV-B, adopted from Hoefler et al.,
//! SPAA'08) computes a 3-D FFT distributed over the last dimension and
//! overlaps the distributed transpose (an all-to-all) with the per-plane
//! transforms, in four communication patterns: *pipelined*, *tiled*,
//! *windowed* and *window-tiled*.
//!
//! This crate provides both halves of that experiment:
//!
//! * a **real FFT library** ([`complex`], [`fft1d`], [`multi`]) — an
//!   iterative radix-2 transform with Bluestein's algorithm for arbitrary
//!   sizes, 2-D/3-D row-column transforms, and an optional multi-threaded
//!   driver — used for numerical validation and to calibrate the compute
//!   cost model, and
//! * the **simulated application kernel** ([`patterns`]) — the four
//!   communication patterns expressed as ADCL scripts whose compute phases
//!   are sized by the FFT [`cost`] model, runnable on any simulated
//!   platform with LibNBC-pinned, blocking-MPI or ADCL-tuned all-to-alls.

#![forbid(unsafe_code)]

pub mod complex;
pub mod cost;
pub mod fft1d;
pub mod multi;
pub mod patterns;
pub mod pencil;

pub use complex::Complex64;
pub use fft1d::{dft_naive, fft, ifft};
pub use multi::{fft_2d, fft_3d, ifft_3d, Grid3};
pub use patterns::{FftKernelConfig, FftMode, FftPattern};
pub use pencil::{run_pencil, PencilConfig, PencilResult};
