//! The paper's tables and figures, one row of [`TABLE`] each:
//!
//! ```sh
//! cargo run --release -p xlink-bench --bin experiments -- fig13
//! cargo run --release -p xlink-bench --bin experiments -- fig11 --scale 2
//! cargo run --release -p xlink-bench --bin experiments -- all > experiments_output.txt
//! ```
//!
//! `all` runs the paper's evaluation (every row but the extensions) in the
//! paper's order, through the same rows as the single runs. `--scale N`
//! multiplies the populations of the rows that have one (default 1).
//! DESIGN.md §4 has the index, EXPERIMENTS.md the paper-vs-measured record.

use xlink_harness::experiments as e;

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

const TABLE: [Row; 13] = [
    ("fig01", "Fig. 1a/1b: vanilla-MP in-flight/CWND on walking Wi-Fi + LTE", true, |_| {
        e::fig01::print(&e::fig01::run(7))
    }),
    ("sec32", "§3.2 path delays by technology + Table 4 cross-ISP delay matrix", true, |r| {
        e::delays::print(&e::delays::run(16 * r.scale))
    }),
    ("fig01c", "Fig. 1c + Table 1: A/B test of vanilla-MP vs SP over 7 days", true, |r| {
        e::ab_tables::print(&e::ab_tables::run_vanilla_ab(7, 12 * r.scale))
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
        e::ab_tables::print(&e::ab_tables::run_xlink_ab(14, 12 * r.scale))
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
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str);
    let scale = args.windows(2).find(|w| w[0] == "--scale").map_or(Ok(1), |w| w[1].parse::<u64>());
    let all = name == Some("all");
    let rows: Vec<&Row> = TABLE
        .iter()
        .filter(|&&(row, _, paper, _)| if all { paper } else { Some(row) == name })
        .collect();
    let (Ok(scale), false) = (scale, rows.is_empty()) else {
        eprintln!("usage: experiments <name|all> [--scale N]\n");
        TABLE.iter().for_each(|(name, about, ..)| eprintln!("  {name:<9} {about}"));
        std::process::exit(2);
    };
    if all {
        println!("# XLINK reproduction — full experiment sweep\n");
    }
    for (.., run) in rows {
        run(&Run { scale, by_name: !all });
    }
}
