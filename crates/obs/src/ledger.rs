//! The perf ledger's row format and its equality gate.
//!
//! `BENCH_prof.json` and `BENCH_fleet.json` hold one JSON object per line:
//!
//! ```text
//! {"name":"fleet;admit","calls":10000,"allocs":330230,"advisory":{"incl_ns":98702374}}
//! ```
//!
//! Every top-level field besides `name` is **exact**: an unsigned integer
//! that the run reproduces on any host (span calls, allocation counts,
//! simulated times). Everything under `advisory` is a wall-clock reading
//! (nanoseconds, rates): recorded and printed, never judged. [`drift`]
//! compares two ledgers on the exact fields alone.

use crate::json::{parse as parse_json, JsonWriter, Value};

/// One ledger line.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub exact: Vec<(String, u64)>,
    pub advisory: Vec<(String, f64)>,
}

impl Row {
    pub fn new(name: impl Into<String>) -> Row {
        Row { name: name.into(), exact: Vec::new(), advisory: Vec::new() }
    }

    pub fn exact(mut self, key: &str, value: u64) -> Row {
        self.exact.push((key.to_string(), value));
        self
    }

    pub fn advisory(mut self, key: &str, value: f64) -> Row {
        self.advisory.push((key.to_string(), value));
        self
    }

    /// The row as one line of JSON, no newline.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(160);
        w.begin_object();
        w.field_str("name", &self.name);
        for (k, v) in &self.exact {
            w.key(k);
            w.uint(*v);
        }
        if !self.advisory.is_empty() {
            w.key_static("advisory");
            w.begin_object();
            for (k, v) in &self.advisory {
                w.key(k);
                w.float(*v);
            }
            w.end_object();
        }
        w.end_object();
        w.finish()
    }

    fn from_json(line: &str) -> Result<Row, String> {
        let Value::Obj(fields) = parse_json(line).map_err(|e| e.to_string())? else {
            return Err("not an object".into());
        };
        let mut row = Row::new("");
        for (k, v) in fields {
            match (k.as_str(), v) {
                ("name", Value::Str(name)) => row.name = name,
                ("advisory", Value::Obj(readings)) => {
                    for (k, v) in readings {
                        let v =
                            v.as_f64().ok_or_else(|| format!("advisory {k} is not a number"))?;
                        row.advisory.push((k, v));
                    }
                }
                (_, v) => {
                    let v = v.as_u64().ok_or_else(|| format!("{k} is not an unsigned integer"))?;
                    row.exact.push((k, v));
                }
            }
        }
        if row.name.is_empty() {
            return Err("no name".into());
        }
        Ok(row)
    }
}

/// Read a ledger: one row per non-empty line. A line that is not a row, or
/// a name that occurs twice, is an error.
pub fn parse(doc: &str) -> Result<Vec<Row>, String> {
    let mut rows: Vec<Row> = Vec::new();
    for (i, line) in doc.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let row = Row::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rows.iter().any(|r| r.name == row.name) {
            return Err(format!("line {}: duplicate row {}", i + 1, row.name));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Every difference in the exact fields between the committed ledger and a
/// fresh recording, one message each, naming the row and the field: rows
/// that disappeared or appeared, and fields that moved, disappeared or
/// appeared. Empty when the two agree; advisory fields are not looked at.
pub fn drift(committed: &[Row], fresh: &[Row]) -> Vec<String> {
    fn named<'a>(rows: &'a [Row], name: &str) -> Option<&'a Row> {
        rows.iter().find(|r| r.name == name)
    }
    fn value(row: &Row, key: &str) -> Option<u64> {
        row.exact.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
    let mut out = Vec::new();
    for old in committed {
        let Some(new) = named(fresh, &old.name) else {
            out.push(format!("row {} disappeared", old.name));
            continue;
        };
        for (key, was) in &old.exact {
            match value(new, key) {
                Some(now) if now == *was => {}
                Some(now) => out.push(format!("{}: {key} moved {was} -> {now}", old.name)),
                None => out.push(format!("{}: {key} disappeared (was {was})", old.name)),
            }
        }
        for (key, now) in new.exact.iter().filter(|(k, _)| value(old, k).is_none()) {
            out.push(format!("{}: {key} appeared ({now})", old.name));
        }
    }
    for new in fresh.iter().filter(|r| named(committed, &r.name).is_none()) {
        out.push(format!("row {} appeared", new.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ledger shaped like the two committed ones: spans, a derived
    /// counter, the gate row, a crash-RCT row.
    fn sample() -> Vec<Row> {
        vec![
            Row::new("fleet;session_step")
                .exact("calls", 10_000)
                .exact("allocs", 31_543_004)
                .exact("alloc_bytes", 21_969_109_158)
                .advisory("incl_ns", 21_546_453_482.0)
                .advisory("excl_ns", 5_507_057_935.0),
            Row::new("allocs_per_packet")
                .exact("num", 31_903_234)
                .exact("den", 2_543_239)
                .advisory("value", 12.544),
            Row::new("fleet_gate@10000")
                .exact("sessions", 10_000)
                .exact("sim_packets", 2_543_239)
                .advisory("wall_ns", 11_227_627_671.0)
                .advisory("sessions_per_sec", 890.66),
            Row::new("crash_rct/detect_time@1000")
                .exact("samples", 38)
                .exact("median_us", 299_000)
                .exact("p95_us", 312_000),
        ]
    }

    fn document(rows: &[Row]) -> String {
        rows.iter().map(|r| r.to_json() + "\n").collect()
    }

    #[test]
    fn rows_survive_the_file() {
        let rows = sample();
        assert_eq!(parse(&document(&rows)).expect("parses"), rows);
        assert_eq!(
            rows[3].to_json(),
            r#"{"name":"crash_rct/detect_time@1000","samples":38,"median_us":299000,"p95_us":312000}"#
        );
    }

    #[test]
    fn identical_ledgers_pass() {
        assert_eq!(drift(&sample(), &sample()), Vec::<String>::new());
    }

    #[test]
    fn every_exact_field_moved_by_one_fails_naming_row_and_field() {
        for (row, field) in [
            ("fleet;session_step", "calls"),
            ("fleet;session_step", "allocs"),
            ("fleet;session_step", "alloc_bytes"),
            ("allocs_per_packet", "num"),
            ("fleet_gate@10000", "sim_packets"),
            ("crash_rct/detect_time@1000", "p95_us"),
        ] {
            let mut fresh = sample();
            let r = fresh.iter_mut().find(|r| r.name == row).expect("row");
            let v = r.exact.iter_mut().find(|(k, _)| k == field).expect("field");
            v.1 += 1;
            let expected = format!("{row}: {field} moved {} -> {}", v.1 - 1, v.1);
            assert_eq!(drift(&sample(), &fresh), vec![expected]);
        }
    }

    #[test]
    fn advisory_fields_are_never_judged() {
        let mut fresh = sample();
        for r in &mut fresh {
            for (_, v) in &mut r.advisory {
                *v *= 3.0;
            }
        }
        fresh[3].advisory.push(("wall_ns".into(), 1.0));
        assert_eq!(drift(&sample(), &fresh), Vec::<String>::new());
    }

    #[test]
    fn added_and_removed_rows_and_fields_fail() {
        let mut fresh = sample();
        let gone = fresh.remove(0);
        fresh.push(Row::new("fleet;session_step;quic;frame_dispatch").exact("calls", 1));
        fresh[0].exact.pop();
        fresh[0].exact.push(("denominator".into(), 2_543_239));
        assert_eq!(
            drift(&sample(), &fresh),
            vec![
                format!("row {} disappeared", gone.name),
                "allocs_per_packet: den disappeared (was 2543239)".to_string(),
                "allocs_per_packet: denominator appeared (2543239)".to_string(),
                "row fleet;session_step;quic;frame_dispatch appeared".to_string(),
            ]
        );
    }

    #[test]
    fn a_duplicated_row_and_a_line_that_is_no_row_are_errors() {
        let rows = sample();
        let doubled = document(&rows) + &rows[1].to_json() + "\n";
        let err = parse(&doubled).expect_err("duplicate");
        assert!(err.contains("line 5") && err.contains("duplicate row allocs_per_packet"), "{err}");
        for bad in [
            r#"{"calls":1}"#,
            r#"{"name":"x","calls":-1}"#,
            r#"{"name":"x","calls":1.5}"#,
            r#"{"name":"x","advisory":{"ns":"fast"}}"#,
            r#"["name"]"#,
            "not json",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
