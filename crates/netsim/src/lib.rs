//! Discrete-event network emulator with Mahimahi-semantics trace-driven
//! links — the controlled-experiment substrate standing in for the
//! paper's `mpshell` setup (Appendix B).

pub mod impair;
pub mod link;
pub mod rng;
pub mod wake;
pub mod world;

pub use impair::{FlapSchedule, FlapStep, GilbertElliott, Impairment, Impairments, LinkState};
pub use link::{Delivered, Link, LinkConfig, Stats, OPPORTUNITY_BYTES};
pub use rng::Rng;
pub use wake::{Deadlines, Wakeups};
pub use world::{Endpoint, Path, Transmit, World};
