//! Per-session transport statistics, the same for every scheme.

use xlink_core::MpConnection;

/// Unified per-session transport statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportStats {
    /// Wire bytes sent.
    pub bytes_sent: u64,
    /// Stream payload bytes sent first-time.
    pub stream_bytes_sent: u64,
    /// Retransmitted payload bytes.
    pub stream_bytes_retransmitted: u64,
    /// Proactively re-injected payload bytes.
    pub reinjected_bytes: u64,
    /// Packets lost.
    pub packets_lost: u64,
    /// Migrations performed (CM only).
    pub migrations: u64,
    /// Losses later contradicted by an ACK (reordering, not loss).
    pub spurious_losses: u64,
    /// Hello flights re-sent after loss or timeout.
    pub handshake_retransmits: u64,
}

/// Upper bound on the redundancy ratio a well-tuned XLINK session may
/// spend on clean dual paths. The paper's production operating point is
/// ~2%; the cap leaves headroom for small videos where the handshake
/// and start-up phase dominate, while still catching a controller that
/// degenerates toward always-on (~15%+).
pub const REINJECTION_COST_CAP: f64 = 0.10;

impl TransportStats {
    /// Redundancy ratio (the paper's cost metric).
    pub fn redundancy_ratio(&self) -> f64 {
        let retransmitted = self.stream_bytes_retransmitted;
        xlink_core::redundancy_ratio(self.stream_bytes_sent, retransmitted, self.reinjected_bytes)
    }
}

impl From<&MpConnection> for TransportStats {
    fn from(mp: &MpConnection) -> Self {
        let conn = mp.conn();
        let s = conn.stats();
        TransportStats {
            bytes_sent: s.bytes_sent,
            stream_bytes_sent: s.stream_bytes_sent,
            stream_bytes_retransmitted: s.stream_bytes_retransmitted,
            reinjected_bytes: s.reinjected_bytes,
            packets_lost: s.packets_lost,
            migrations: s.migrations,
            spurious_losses: conn.spurious_losses(),
            handshake_retransmits: s.handshake_retransmits,
        }
    }
}
