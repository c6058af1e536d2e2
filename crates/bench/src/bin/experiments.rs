//! The paper's tables and figures and the experiments beyond them, one
//! row of [`TABLE`] each:
//!
//! ```sh
//! cargo run --release -p xlink-bench --bin experiments -- fig13
//! cargo run --release -p xlink-bench --bin experiments -- fig11 --scale 2
//! cargo run --release -p xlink-bench --bin experiments -- fleet_rct --scale 5
//! cargo run --release -p xlink-bench --bin experiments -- all > experiments_output.txt
//! ```
//!
//! `all` runs the paper's evaluation (every row but the extensions) in the
//! paper's order, through the same rows as the single runs. `--scale N`
//! multiplies the populations of the rows that have one (default 1); no row
//! reads the environment. An extension that makes claims asserts them after
//! it has printed, so a run that breaks one exits non-zero.
//! DESIGN.md §4 has the index, EXPERIMENTS.md the paper-vs-measured record.

use xlink_harness::experiments as e;
use xlink_harness::Scheme;

/// How a row is run: the population scale, and whether it was asked for
/// by name; then it may write files too, under `all` every row only prints.
struct Run {
    scale: u64,
    by_name: bool,
}

/// One experiment: its name on the command line, what it reproduces,
/// whether it belongs to the paper's evaluation (and so to `all`), and
/// run-and-print.
type Row = (&'static str, &'static str, bool, fn(&Run));

const TABLE: [Row; 21] = [
    ("fig01", "Fig. 1a/1b: vanilla-MP in-flight/CWND on walking Wi-Fi + LTE", true, |_| {
        e::fig01::print(&e::fig01::run(7))
    }),
    ("sec32", "§3.2 path delays by technology + Table 4 cross-ISP delay matrix", true, |r| {
        e::delays::print(&e::delays::run(16 * r.scale))
    }),
    ("fig01c", "Fig. 1c + Table 1: A/B test of vanilla-MP vs SP over 7 days", true, |r| {
        e::ab_tables::print(&e::ab_tables::run(Scheme::VanillaMp, 7, 12 * r.scale))
    }),
    ("fig06", "Fig. 6: buffer level + re-injected bytes, three control modes", true, |_| {
        e::fig06::print(&e::fig06::run(3))
    }),
    ("fig07", "Fig. 7: first-frame delivery time vs frame size, Wi-Fi vs 5G primary", true, |_| {
        e::fig07::print(&e::fig07::run(11))
    }),
    ("fig08", "Fig. 8: ACK_MP path policy vs RTT ratio (4 MB load, Cubic)", true, |_| {
        e::fig08::print(&e::fig08::run(5))
    }),
    ("fig10", "Fig. 10 + Table 2: buffer level & cost vs double thresholds", true, |r| {
        e::fig10::print(&e::fig10::run(6 * r.scale))
    }),
    ("fig11", "Fig. 11 + Table 3: A/B test of XLINK vs SP over 14 days", true, |r| {
        e::ab_tables::print(&e::ab_tables::run(Scheme::Xlink, 14, 12 * r.scale))
    }),
    ("fig12", "Fig. 12: first-frame latency improvement, w/ and w/o acceleration", true, |r| {
        e::fig12::print(&e::fig12::run(20 * r.scale))
    }),
    ("fig13", "Fig. 13: extreme mobility, five transports on ten traces", true, |_| {
        e::fig13::print(&e::fig13::run(10))
    }),
    ("fig14", "Fig. 14: normalized energy/bit vs throughput across radio configs", true, |_| {
        e::fig14::print(&e::fig14::run(9))
    }),
    ("fig15", "Fig. 15: example HSR traces + Mahimahi export to traces-out/", true, |r| {
        let (cell, wifi) = e::fig15::print(&e::fig15::run(5));
        if r.by_name {
            std::fs::create_dir_all("traces-out").ok();
            std::fs::write("traces-out/hsr-cellular.trace", cell).expect("write trace");
            std::fs::write("traces-out/hsr-onboard-wifi.trace", wifi).expect("write trace");
            println!("\nMahimahi traces written to traces-out/");
        }
    }),
    ("ablation", "Extension: the re-injection queue-position modes of Fig. 4", false, |r| {
        e::ablation::print(&e::ablation::run(4 * r.scale))
    }),
    ("threshold_tuning", "Extension: absolute (T_th1, T_th2) sweep, stalls vs cost", false, |r| {
        e::fig10::print_threshold_tuning(&e::fig10::threshold_tuning(4 * r.scale))
    }),
    (
        "wifi_outage",
        "Extension: §3.1 walk out of Wi-Fi coverage, SP + Fig. 6 modes",
        false,
        |_| e::fig06::print_wifi_outage(&e::fig06::wifi_outage(21)),
    ),
    ("subway_ride", "Extension: 8 MB chunk through tunnel outages, Fig. 13's arms", false, |_| {
        e::fig13::print_subway_ride(&e::fig13::subway_ride(33))
    }),
    ("impairment_sweep", "Extension: bulk download under each impairment class", false, |r| {
        let sweeps = e::impairment_sweep::run(3 * r.scale);
        e::impairment_sweep::print(&sweeps);
        sweeps.iter().for_each(e::impairment_sweep::check);
    }),
    ("attack_matrix", "Extension: every attack × transport, then the edge floods", false, |r| {
        let matrix = e::attack_matrix::run(40 * r.scale as usize, 7);
        e::attack_matrix::print(&matrix);
        e::attack_matrix::check(&matrix);
    }),
    ("fleet_rct", "Extension: SP vs XLINK over a user-randomized fleet, 95% CIs", false, |r| {
        let (report, wall_s) = e::fleet_rct::run(2_000 * r.scale);
        e::fleet_rct::print(&report, wall_s)
    }),
    ("pop_drain", "Extension: shard drain under load, edge-event timeline", false, |r| {
        let (report, timeline) = e::pop_drain::run(30 * r.scale as usize, 42);
        e::pop_drain::print(&report, &timeline);
        e::pop_drain::check(&report);
    }),
    ("crash_rct", "Extension: shard crash, resets vs mute PoP vs drain; ledger rows", false, |r| {
        let rct = e::crash_rct::run(25 * r.scale as usize, 7);
        e::crash_rct::print(&rct);
        e::crash_rct::check(&rct);
    }),
];

/// The rows `name` selects: the paper's evaluation under `all`, else the
/// row so named (none if there is no such row).
fn select(name: &str) -> Vec<&'static Row> {
    let all = name == "all";
    TABLE.iter().filter(|&&(row, _, paper, _)| if all { paper } else { row == name }).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let scale = args.windows(2).find(|w| w[0] == "--scale").map_or(Ok(1), |w| w[1].parse::<u64>());
    let all = name == "all";
    let rows = select(name);
    let (Ok(scale), false) = (scale, rows.is_empty()) else {
        eprintln!("usage: experiments <name|all> [--scale N]\n");
        TABLE.iter().for_each(|(name, about, ..)| eprintln!("  {name:<16} {about}"));
        std::process::exit(2);
    };
    if all {
        println!("# XLINK reproduction — full experiment sweep\n");
    }
    for (.., run) in rows {
        run(&Run { scale, by_name: !all });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(rows: &[&Row]) -> Vec<&'static str> {
        rows.iter().map(|(name, ..)| *name).collect()
    }

    #[test]
    fn row_names_are_unique_and_select_their_row() {
        for (name, ..) in &TABLE {
            assert_eq!(names(&select(name)), [*name], "{name} names one row");
        }
        assert!(select("").is_empty() && select("fig99").is_empty());
    }

    #[test]
    fn all_is_the_papers_rows_in_table_order() {
        let paper: Vec<&Row> = TABLE.iter().filter(|(_, _, paper, _)| *paper).collect();
        assert_eq!(names(&select("all")), names(&paper));
        assert_eq!(paper.len(), 12, "ablation and the eight former examples are extensions");
    }

    #[test]
    fn every_row_is_in_the_design_index() {
        let design = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(design).expect("DESIGN.md at the repo root");
        let index = design.split("\n## ").find(|s| s.starts_with("4. ")).expect("DESIGN §4");
        for (name, ..) in &TABLE {
            let command = format!("`experiments {name}`");
            assert!(index.contains(&command), "{command} is missing from DESIGN.md §4");
        }
    }
}
