//! Synchronization primitives for the thread pool and evaluation engine.
//!
//! Plain `std` by default; under `RUSTFLAGS="--cfg loom"` these resolve to
//! the loom stand-in's instrumented look-alikes so `tests/loom.rs` can
//! exhaustively model-check the pool's submit/steal/shutdown protocol and
//! the evaluator's cache insert/hit races (rules `C001`/`C002` in the
//! `opprox-analyze` registry). The aliases keep the production code paths
//! byte-identical between the two builds.

#[cfg(loom)]
pub(crate) use loom::sync::Mutex;
#[cfg(loom)]
pub(crate) use loom::thread;

#[cfg(not(loom))]
pub(crate) use std::sync::Mutex;
#[cfg(not(loom))]
pub(crate) use std::thread;
