//! Rust ports of the five benchmark applications the OPPROX paper
//! evaluates (Sec. 4.1), plus three survey-technique workloads with
//! different phase structure, all implementing
//! [`opprox_approx_rt::ApproxApp`].
//!
//! | Module | Application | Computation pattern |
//! |---|---|---|
//! | [`lulesh`] | LULESH (Sedov blast hydrodynamics) | convergence loop whose iteration count depends on internal approximation |
//! | [`comd`] | CoMD (molecular-dynamics proxy) | timestep loop, iteration count is an input parameter |
//! | [`video`] | FFmpeg filter pipeline | streaming enumerator loop over frames |
//! | [`bodytrack`] | PARSEC Bodytrack (annealed particle filter) | per-frame annealing convergence loop |
//! | [`pso`] | Particle swarm optimization | convergence loop towards the best solution |
//! | [`pagerank`] | PageRank power iteration | iterative graph kernel with convergence-based task skipping |
//! | [`stream`] | StreamAgg sensor pipeline | windowed streaming filter/aggregation |
//! | [`stencil`] | 2D heat-diffusion stencil | Jacobi sweeps judged by PSNR |
//!
//! Every port is deterministic (RNGs are seeded from the input
//! parameters), counts its work in abstract instruction-like units, and
//! exposes the paper's techniques (Table 1) plus the survey's precision
//! scaling and task skipping on the three non-paper workloads.
//!
//! # Example
//!
//! ```
//! use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, PhaseSchedule};
//! use opprox_apps::pso::Pso;
//!
//! let app = Pso::new();
//! let input = InputParams::new(vec![20.0, 4.0]); // swarm size, dimension
//! let exact = app.golden(&input).unwrap();
//! let approx = app
//!     .run(&input, &PhaseSchedule::constant(LevelConfig::new(vec![2, 0, 0])))
//!     .unwrap();
//! assert!(approx.work < exact.work);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bodytrack;
pub mod comd;
pub mod lulesh;
pub mod pagerank;
pub mod pso;
pub mod registry;
pub mod stencil;
pub mod stream;
pub(crate) mod util;
pub mod video;

pub use bodytrack::Bodytrack;
pub use comd::CoMd;
pub use lulesh::Lulesh;
pub use pagerank::PageRank;
pub use pso::Pso;
pub use stencil::Stencil;
pub use stream::StreamAgg;
pub use video::VideoPipeline;
