//! Discrete-event network emulator with Mahimahi-semantics trace-driven
//! links — the controlled-experiment substrate standing in for the
//! paper's `mpshell` setup (Appendix B).
//!
//! A [`World`] joins two [`Endpoint`]s by [`Path`]s of [`Link`]s and asks
//! each for a datagram only after an input. An endpoint that multiplexes
//! many endpoints behind one address (the edge PoP and its client fleet)
//! keeps them in a [`Host`], which asks each member on the same rule.

pub mod host;
pub mod impair;
pub mod link;
pub mod world;

pub use host::Host;
pub use impair::{FlapSchedule, FlapStep, GilbertElliott, Impairment, Impairments, LinkState};
pub use link::{Delivered, Link, LinkConfig, Stats, OPPORTUNITY_BYTES};
pub use world::{Endpoint, Path, Transmit, World};
