//! # xlink-edge — the CDN PoP edge tier
//!
//! XLINK ships inside a large video CDN: clients talk to a point of
//! presence (PoP) that spreads connections over backend server shards
//! and survives both operational churn (shard drain for deploys) and
//! abuse (handshake floods, token replay, CID grinding). This crate is
//! that edge tier, deterministic and sans-I/O like everything else in
//! the workspace:
//!
//! - [`router`]: datagram classification by `xlink_quic`'s own header
//!   decoder, the token borrowed, plus the CID → shard routing table
//!   (exact demux first, QUIC-LB consistent hashing for placement).
//! - [`token`]: stateless Retry tokens — address-bound, expiring,
//!   HMAC-shaped — so admission control needs no per-client state.
//! - [`pop`]: the [`pop::Pop`] netsim endpoint tying it together:
//!   admission, anti-amplification, bounded tables, a shard-fault script
//!   it applies on its own timer ([`pop::ShardFault`]: graceful drain,
//!   crash, and restart with RFC 9000 §10.3 stateless resets for the
//!   orphaned clients), and per-shard metrics, emitting `edge_admit` /
//!   `edge_reject` / `shard_drain` / `conn_migrated` / `shard_crash` /
//!   `stateless_reset` trace events.
//!
//! The invariants this crate exists to uphold (exercised in
//! `tests/edge.rs` and the adversary suite):
//!
//! 1. Pre-validation, the PoP never sends an address more than 3× the
//!    bytes it received from it (RFC 9000 §8.1).
//! 2. Floods cannot grow PoP state past its documented caps.
//! 3. Draining a shard migrates every live connection to a survivor
//!    with zero stream-byte loss.
//! 4. The byte stream a client observes is bit-identical regardless of
//!    the PoP's shard count.
//! 5. A crashed shard loses every byte of its state, yet clients resume
//!    their downloads with zero stream-byte loss after reconnecting —
//!    detected via stateless reset, not idle-timeout exhaustion.

pub mod pop;
pub mod router;
pub mod token;

pub use pop::{
    decode_request, encode_request, reject, Pop, PopBoundedState, PopConfig, PopStats, ShardFault,
    ShardStats,
};
pub use router::{classify, Classified, EdgeRouter};
pub use token::{mint, verify, TokenError, TOKEN_LEN};
