//! The QUIC stack of the XLINK reproduction: codecs, crypto, streams,
//! recovery, and the one connection engine ([`connection::Connection`]) —
//! single-path QUIC and, once negotiated, its multipath extension.
pub mod ackranges;
pub mod cc;
pub mod cid;
pub mod connection;
pub mod crypto;
pub mod error;
pub mod frame;
pub mod handshake;
pub mod packet;
pub mod params;
mod ranges;
pub mod recovery;
pub mod reset;
pub mod rtt;
pub mod sorted;
pub mod stream;
pub mod varint;
