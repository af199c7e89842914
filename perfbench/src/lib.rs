//! `agequant-perfbench`: one benchmark for agequant, measured end to
//! end and layer by layer.
//!
//! Every run has three phases that split the work of the paper's
//! device → circuit → system flow as this repository serves it:
//! `serve-mix` (the wire-speed plan server), `cold-decide` (uncached
//! Algorithm 1 decisions) and `fleet-lifetime` (the lifetime fleet
//! simulator with checkpoints). The two workloads, `early-life` and
//! `late-life`, draw every phase's inputs from the first years of
//! service or from late life. See `README.md` beside this crate for
//! why each phase exists and what it bypasses.

#![deny(unsafe_code)]

pub mod affinity;
pub mod diff;
pub mod provenance;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
