//! Transport parameters exchanged during the handshake, including the
//! multipath extension's `enable_multipath` (paper §6: "during the first
//! handshake, the client includes an enable_multipath transport
//! parameter... If not, they fall back to single-path QUIC").

use crate::error::CodecError;
use crate::varint::{Reader, Writer};
use xlink_clock::Duration;

/// Parameter IDs (RFC 9000 §18.2, abridged; enable_multipath uses the
/// draft's provisional codepoint).
mod id {
    pub const MAX_IDLE_TIMEOUT: u64 = 0x01;
    pub const STATELESS_RESET_TOKEN: u64 = 0x02;
    pub const INITIAL_MAX_DATA: u64 = 0x04;
    pub const INITIAL_MAX_STREAM_DATA: u64 = 0x05;
    pub const INITIAL_MAX_STREAMS_BIDI: u64 = 0x08;
    pub const MAX_ACK_DELAY: u64 = 0x0b;
    pub const ACTIVE_CID_LIMIT: u64 = 0x0e;
    pub const ENABLE_MULTIPATH: u64 = 0x0f73_9bbc;
}

/// The transport parameters this stack negotiates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportParams {
    /// Idle timeout after which the connection is dropped.
    pub max_idle_timeout: Duration,
    /// Initial connection-level flow control limit.
    pub initial_max_data: u64,
    /// Initial per-stream flow control limit.
    pub initial_max_stream_data: u64,
    /// Max concurrent bidirectional streams the peer may open.
    pub initial_max_streams_bidi: u64,
    /// Upper bound on intentional ack delay.
    pub max_ack_delay: Duration,
    /// How many CIDs the peer may issue us.
    pub active_cid_limit: u64,
    /// Multipath extension negotiation flag.
    pub enable_multipath: bool,
    /// RFC 9000 §10.3.2: a 16-byte stateless reset token for the CID the
    /// sender chose during the handshake. Servers only (a client that
    /// sent one would be ignored by this stack); `None` means the peer
    /// cannot be reset-detected on its handshake CID.
    pub stateless_reset_token: Option<[u8; 16]>,
}

impl Default for TransportParams {
    fn default() -> Self {
        TransportParams {
            max_idle_timeout: Duration::from_secs(30),
            initial_max_data: 16 << 20,
            initial_max_stream_data: 4 << 20,
            initial_max_streams_bidi: 64,
            max_ack_delay: Duration::from_millis(25),
            active_cid_limit: 8,
            enable_multipath: false,
            stateless_reset_token: None,
        }
    }
}

impl TransportParams {
    /// Encode as a sequence of (id, varint-length, value) entries.
    pub fn encode(&self, w: &mut Writer) {
        let mut put = |pid: u64, v: u64| {
            w.varint(pid);
            let mut vw = Writer::new();
            vw.varint(v);
            w.varint_bytes(vw.as_slice());
        };
        put(id::MAX_IDLE_TIMEOUT, self.max_idle_timeout.as_millis());
        put(id::INITIAL_MAX_DATA, self.initial_max_data);
        put(id::INITIAL_MAX_STREAM_DATA, self.initial_max_stream_data);
        put(id::INITIAL_MAX_STREAMS_BIDI, self.initial_max_streams_bidi);
        put(id::MAX_ACK_DELAY, self.max_ack_delay.as_millis());
        put(id::ACTIVE_CID_LIMIT, self.active_cid_limit);
        if self.enable_multipath {
            put(id::ENABLE_MULTIPATH, 1);
        }
        if let Some(tok) = &self.stateless_reset_token {
            // Raw 16-byte body, not a varint (RFC 9000 §18.2).
            w.varint(id::STATELESS_RESET_TOKEN);
            w.varint_bytes(tok);
        }
    }

    /// Decode, ignoring unknown parameter IDs (forward compatibility).
    pub fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let mut p = TransportParams { enable_multipath: false, ..Default::default() };
        while !r.is_empty() {
            let pid = r.varint()?;
            let body = r.varint_bytes()?;
            let mut br = Reader::new(body);
            match pid {
                id::MAX_IDLE_TIMEOUT => p.max_idle_timeout = Duration::from_millis(br.varint()?),
                id::INITIAL_MAX_DATA => p.initial_max_data = br.varint()?,
                id::INITIAL_MAX_STREAM_DATA => p.initial_max_stream_data = br.varint()?,
                id::INITIAL_MAX_STREAMS_BIDI => p.initial_max_streams_bidi = br.varint()?,
                id::MAX_ACK_DELAY => p.max_ack_delay = Duration::from_millis(br.varint()?),
                id::ACTIVE_CID_LIMIT => p.active_cid_limit = br.varint()?,
                id::ENABLE_MULTIPATH => p.enable_multipath = br.varint()? == 1,
                id::STATELESS_RESET_TOKEN => {
                    if body.len() != 16 {
                        return Err(CodecError::InvalidValue);
                    }
                    let mut tok = [0u8; 16];
                    tok.copy_from_slice(body);
                    p.stateless_reset_token = Some(tok);
                }
                _ => {} // unknown: skip
            }
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_defaults() {
        let p = TransportParams::default();
        let mut w = Writer::new();
        p.encode(&mut w);
        let bytes = w.into_bytes();
        let got = TransportParams::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got, p);
    }

    #[test]
    fn roundtrip_with_multipath() {
        let p = TransportParams { enable_multipath: true, ..Default::default() };
        let mut w = Writer::new();
        p.encode(&mut w);
        let bytes = w.into_bytes();
        let got = TransportParams::decode(&mut Reader::new(&bytes)).unwrap();
        assert!(got.enable_multipath);
    }

    #[test]
    fn roundtrip_with_reset_token() {
        let p = TransportParams { stateless_reset_token: Some([0xab; 16]), ..Default::default() };
        let mut w = Writer::new();
        p.encode(&mut w);
        let bytes = w.into_bytes();
        let got = TransportParams::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got.stateless_reset_token, Some([0xab; 16]));
    }

    #[test]
    fn huge_durations_saturate_instead_of_overflowing() {
        let mut w = Writer::new();
        for pid in [id::MAX_IDLE_TIMEOUT, id::MAX_ACK_DELAY] {
            let mut body = Writer::new();
            body.varint((1 << 62) - 1);
            w.varint(pid);
            w.varint_bytes(body.as_slice());
        }
        let bytes = w.into_bytes();
        let got = TransportParams::decode(&mut Reader::new(&bytes)).unwrap();
        assert!(
            got.max_idle_timeout > Duration::from_secs(1 << 40)
                && got.max_ack_delay > Duration::ZERO
        );
    }

    #[test]
    fn wrong_length_reset_token_rejected() {
        let mut w = Writer::new();
        w.varint(id::STATELESS_RESET_TOKEN);
        w.varint_bytes(&[1u8; 15]);
        let bytes = w.into_bytes();
        assert!(TransportParams::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn unknown_params_ignored() {
        let p = TransportParams::default();
        let mut w = Writer::new();
        // An unknown parameter first.
        w.varint(0x9999);
        w.varint_bytes(&[1, 2, 3]);
        p.encode(&mut w);
        let bytes = w.into_bytes();
        let got = TransportParams::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got, p);
    }

    #[test]
    fn absent_multipath_means_disabled() {
        // An empty parameter list decodes with multipath off — the
        // fallback-to-single-path negotiation rule.
        let got = TransportParams::decode(&mut Reader::new(&[])).unwrap();
        assert!(!got.enable_multipath);
    }

    #[test]
    fn truncated_input_rejected() {
        let p = TransportParams::default();
        let mut w = Writer::new();
        p.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(TransportParams::decode(&mut Reader::new(&bytes[..bytes.len() - 1])).is_err());
    }
}
