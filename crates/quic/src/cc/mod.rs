//! Congestion control: Cubic, one controller per path ("decoupled"), which
//! is what the paper's evaluation runs (§7, §9). [`Cubic`] is a concrete
//! type called directly by `Path`.

mod cubic;

pub use cubic::Cubic;

/// Maximum datagram payload size used for cwnd accounting.
pub const MAX_DATAGRAM_SIZE: u64 = 1350;

/// Initial congestion window (RFC 9002 §7.2).
pub const INITIAL_WINDOW: u64 = 10 * MAX_DATAGRAM_SIZE;

/// Minimum congestion window.
pub const MIN_WINDOW: u64 = 2 * MAX_DATAGRAM_SIZE;
