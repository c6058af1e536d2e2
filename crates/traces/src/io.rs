//! Mahimahi trace file format: one millisecond timestamp per line, each
//! granting one 1500-byte delivery opportunity. Reading and writing this
//! format lets generated traces be inspected with standard Mahimahi
//! tooling and lets real captures be dropped in.

use crate::opportunities::count_one;
use crate::{Opportunities, Trace};

/// The latest timestamp a parsed trace may hold: one day. The counts take
/// two bytes per millisecond up to the last opportunity, so a larger value
/// would ask for memory in proportion to it.
const MAX_TIMESTAMP_MS: u64 = 24 * 3600 * 1000;

/// Serialize a trace to the Mahimahi text format.
pub fn to_mahimahi(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.opportunities_ms.len() as usize * 6);
    for t in trace.opportunities_ms.iter() {
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}

/// Parse a Mahimahi trace file. Blank lines and `#` comments are
/// tolerated; timestamps need not be pre-sorted. A timestamp past one day,
/// or more than `u16::MAX` opportunities in one millisecond, is an error.
pub fn parse_mahimahi(label: &str, text: &str) -> Result<Trace, String> {
    let mut counts = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |e: String| format!("line {}: {:?}: {e}", lineno + 1, line);
        let v: u64 = line.parse().map_err(|e| at(format!("{e}")))?;
        if v > MAX_TIMESTAMP_MS {
            return Err(at(format!("past the last timestamp accepted, {MAX_TIMESTAMP_MS} ms")));
        }
        count_one(&mut counts, v).map_err(at)?;
    }
    Ok(Trace::new(label, Opportunities::from_counts(counts)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = Trace::new("rt", Opportunities::from_timestamps([0, 1, 1, 5, 9]));
        let text = to_mahimahi(&t);
        let back = parse_mahimahi("rt", &text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn parse_tolerates_comments_and_blanks() {
        let text = "# header\n\n3\n1\n\n2\n";
        let t = parse_mahimahi("c", text).unwrap();
        assert_eq!(t.opportunities_ms.iter().collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_mahimahi("g", "12\nxyz\n").is_err());
        assert!(parse_mahimahi("g", "-5\n").is_err());
    }

    #[test]
    fn parse_rejects_an_overfull_millisecond() {
        let full = "7\n".repeat(usize::from(u16::MAX));
        let t = parse_mahimahi("f", &full).unwrap();
        assert_eq!(t.opportunities_ms.counts()[7], u16::MAX);
        let err = parse_mahimahi("f", &(full + "7\n")).unwrap_err();
        assert!(err.contains("line 65536") && err.contains("millisecond 7"), "{err}");
    }

    #[test]
    fn parse_rejects_a_timestamp_past_one_day() {
        assert!(parse_mahimahi("d", "86400001\n").is_err());
        assert!(parse_mahimahi("d", "18446744073709551615\n").is_err());
    }

    #[test]
    fn generated_traces_roundtrip() {
        let t = crate::gen::walking_wifi(3);
        let back = parse_mahimahi("walking-wifi", &to_mahimahi(&t)).unwrap();
        assert_eq!(back.opportunities_ms, t.opportunities_ms);
    }
}
