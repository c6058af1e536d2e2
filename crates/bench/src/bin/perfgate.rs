//! Perf ledger gate: a freshly recorded `BENCH_*.json` must equal the
//! committed one on every exact field.
//!
//! ci.sh copies each committed ledger to `<file>.prev`, records it again,
//! then runs:
//!
//! ```sh
//! cargo run --release -p xlink-bench --bin perfgate -- BENCH_prof.json BENCH_fleet.json
//! ```
//!
//! The row format and the comparison are `xlink_obs::ledger`: span calls,
//! allocation counts, the per-packet and per-session counters and the
//! simulated crash-RCT times are exact, and a row or field that moved,
//! appeared or disappeared fails the gate by name. Nanoseconds and rates
//! are printed beside the committed reading and never judged. A count
//! that moves on purpose is re-recorded in the commit that moves it, like
//! a `tests/golden.rs` constant: the fresh file is already in place, so
//! commit it.

use std::process::ExitCode;
use xlink_obs::ledger::{drift, parse, Row};

fn read(path: &str) -> Result<Vec<Row>, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&doc).map_err(|e| format!("{path}: {e}"))
}

/// Print `file`'s rows and return what drifted from `file.prev`.
fn gate(file: &str) -> Result<Vec<String>, String> {
    let committed_path = format!("{file}.prev");
    let (committed, fresh) = (read(&committed_path)?, read(file)?);
    println!("\n== {file} (exact fields equal to {committed_path}; advisory: now (committed))");
    for row in &fresh {
        let mut line = format!("{:<52}", row.name);
        for (k, v) in &row.exact {
            line.push_str(&format!(" {k}={v}"));
        }
        let was = committed.iter().find(|r| r.name == row.name);
        for (k, v) in &row.advisory {
            line.push_str(&format!(" {k}={v}"));
            if let Some((_, p)) = was.and_then(|r| r.advisory.iter().find(|(pk, _)| pk == k)) {
                line.push_str(&format!(" ({p})"));
            }
        }
        println!("{line}");
    }
    Ok(drift(&committed, &fresh).into_iter().map(|d| format!("{file}: {d}")).collect())
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: perfgate BENCH_*.json ...   (each is compared with <file>.prev)");
        return ExitCode::from(2);
    }
    let mut drifted = Vec::new();
    for file in &files {
        match gate(file) {
            Ok(d) => drifted.extend(d),
            Err(e) => {
                eprintln!("perfgate: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!();
    if drifted.is_empty() {
        println!("perfgate: OK, every exact field equals the committed ledger");
        return ExitCode::SUCCESS;
    }
    println!(
        "perfgate: {} exact field(s) or row(s) differ from the committed ledger:",
        drifted.len()
    );
    for d in &drifted {
        println!("  FAIL {d}");
    }
    println!("perfgate: if the move is meant, commit the re-recorded ledger with the change");
    ExitCode::FAILURE
}
