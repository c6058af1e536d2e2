//! Simplified 1-RTT handshake.
//!
//! Substitution (see DESIGN.md): the real deployment runs TLS 1.3 inside
//! CRYPTO frames; here the CRYPTO stream carries two "hello" messages that
//! exchange random nonces and transport parameters, and both sides derive
//! packet-protection keys from a pre-shared secret plus the nonces. What
//! this preserves — and what the experiments depend on — is:
//!
//! * the 1-RTT connection setup cost on the primary path,
//! * `enable_multipath` negotiation with fallback to single path,
//! * key separation per direction and per connection,
//! * the server's HANDSHAKE_DONE confirmation.

use crate::crypto::{derive_keys, KeyPair};
use crate::error::CodecError;
use crate::params::TransportParams;
use crate::varint::{Reader, Writer};

/// Message tags on the crypto stream.
const TAG_CLIENT_HELLO: u8 = 1;
const TAG_SERVER_HELLO: u8 = 2;

/// A hello message: random nonce plus transport parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// True for ClientHello.
    pub from_client: bool,
    /// 16-byte random nonce feeding the key schedule.
    pub random: [u8; 16],
    /// Sender's transport parameters.
    pub params: TransportParams,
}

impl Hello {
    /// Encode to crypto-stream bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(if self.from_client { TAG_CLIENT_HELLO } else { TAG_SERVER_HELLO });
        w.bytes(&self.random);
        let mut pw = Writer::new();
        self.params.encode(&mut pw);
        w.varint_bytes(pw.as_slice());
        w.into_bytes()
    }

    /// Decode from crypto-stream bytes.
    pub fn decode(bytes: &[u8]) -> Result<Hello, CodecError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let from_client = match tag {
            TAG_CLIENT_HELLO => true,
            TAG_SERVER_HELLO => false,
            _ => return Err(CodecError::InvalidValue),
        };
        let mut random = [0u8; 16];
        random.copy_from_slice(r.bytes(16)?);
        let body = r.varint_bytes()?;
        let params = TransportParams::decode(&mut Reader::new(body))?;
        if !r.is_empty() {
            return Err(CodecError::InvalidValue);
        }
        Ok(Hello { from_client, random, params })
    }
}

/// Handshake state machine for one endpoint.
#[derive(Debug)]
pub struct Handshake {
    is_client: bool,
    psk: &'static [u8],
    local: Hello,
    remote: Option<Hello>,
    done: bool,
}

impl Handshake {
    /// Start a handshake. `random` should be drawn from the endpoint's RNG.
    pub fn new(
        is_client: bool,
        psk: &'static [u8],
        random: [u8; 16],
        params: TransportParams,
    ) -> Self {
        Handshake {
            is_client,
            psk,
            local: Hello { from_client: is_client, random, params },
            remote: None,
            done: false,
        }
    }

    /// The local hello to transmit in a CRYPTO frame.
    pub fn local_hello(&self) -> &Hello {
        &self.local
    }

    /// Ingest the peer's hello. Returns the negotiated keys when complete.
    pub fn on_peer_hello(&mut self, hello: Hello) -> Result<KeyPair, CodecError> {
        if hello.from_client == self.is_client {
            return Err(CodecError::InvalidValue); // wrong direction
        }
        let (cr, sr) = if self.is_client {
            (self.local.random, hello.random)
        } else {
            (hello.random, self.local.random)
        };
        self.remote = Some(hello);
        self.done = true;
        Ok(derive_keys(self.psk, &cr, &sr))
    }

    /// True once keys have been derived.
    pub fn is_complete(&self) -> bool {
        self.done
    }

    /// Peer's transport parameters (after completion).
    pub fn peer_params(&self) -> Option<&TransportParams> {
        self.remote.as_ref().map(|h| &h.params)
    }

    /// Multipath is enabled iff *both* sides advertised it (paper §6).
    pub fn multipath_negotiated(&self) -> bool {
        self.local.params.enable_multipath
            && self.remote.as_ref().is_some_and(|h| h.params.enable_multipath)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(mp: bool) -> TransportParams {
        TransportParams { enable_multipath: mp, ..Default::default() }
    }

    #[test]
    fn hello_roundtrip() {
        let h = Hello { from_client: true, random: [7; 16], params: params(true) };
        let bytes = h.encode();
        assert_eq!(Hello::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn hello_rejects_bad_tag_and_trailer() {
        let h = Hello { from_client: false, random: [1; 16], params: params(false) };
        let mut bytes = h.encode();
        bytes[0] = 9;
        assert!(Hello::decode(&bytes).is_err());
        let mut bytes2 = h.encode();
        bytes2.push(0);
        assert!(Hello::decode(&bytes2).is_err());
    }

    #[test]
    fn both_sides_derive_same_keys() {
        let mut client = Handshake::new(true, b"secret", [1; 16], params(true));
        let mut server = Handshake::new(false, b"secret", [2; 16], params(true));
        let kp_c = client.on_peer_hello(server.local_hello().clone()).unwrap();
        let kp_s = server.on_peer_hello(client.local_hello().clone()).unwrap();
        // Client-encrypt → server-decrypt with the same directional key.
        let sealed = kp_c.client.seal(0, 0, b"h", b"data");
        assert_eq!(kp_s.client.open(0, 0, b"h", &sealed).unwrap(), b"data");
        assert!(client.is_complete() && server.is_complete());
    }

    #[test]
    fn multipath_requires_both_sides() {
        for (c_mp, s_mp, expect) in
            [(true, true, true), (true, false, false), (false, true, false), (false, false, false)]
        {
            let mut client = Handshake::new(true, b"s", [1; 16], params(c_mp));
            let server = Handshake::new(false, b"s", [2; 16], params(s_mp));
            client.on_peer_hello(server.local_hello().clone()).unwrap();
            assert_eq!(client.multipath_negotiated(), expect, "({c_mp},{s_mp})");
        }
    }

    #[test]
    fn wrong_direction_hello_rejected() {
        let mut client = Handshake::new(true, b"s", [1; 16], params(false));
        let other_client = Handshake::new(true, b"s", [2; 16], params(false));
        assert!(client.on_peer_hello(other_client.local_hello().clone()).is_err());
    }

    #[test]
    fn peer_params_visible_after_handshake() {
        let mut client = Handshake::new(true, b"s", [1; 16], params(false));
        assert!(client.peer_params().is_none());
        let server_params = TransportParams { initial_max_data: 777, ..params(false) };
        let server = Handshake::new(false, b"s", [2; 16], server_params.clone());
        client.on_peer_hello(server.local_hello().clone()).unwrap();
        assert_eq!(client.peer_params().unwrap().initial_max_data, 777);
    }

    #[test]
    fn different_psks_break_interop() {
        let mut client = Handshake::new(true, b"secret-a", [1; 16], params(false));
        let mut server = Handshake::new(false, b"secret-b", [2; 16], params(false));
        let kp_c = client.on_peer_hello(server.local_hello().clone()).unwrap();
        let kp_s = server.on_peer_hello(client.local_hello().clone()).unwrap();
        let sealed = kp_c.client.seal(0, 0, b"", b"x");
        assert!(kp_s.client.open(0, 0, b"", &sealed).is_err());
    }
}
