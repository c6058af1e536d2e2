//! Extreme mobility demo: downloading video chunks on a subway ride with
//! hard tunnel outages, comparing SP, connection migration, MPTCP, and
//! XLINK (the Fig. 13 scenario as a single runnable story).
//!
//! ```sh
//! cargo run --release --example subway_ride
//! ```

use xlink::clock::Duration;
use xlink::core::WirelessTech;
use xlink::harness::{
    failover_timeline, run_bulk_quic, PathSpec, Scenario, Scheme, TransportTuning,
};
use xlink::obs::TraceLog;
use xlink::traces::{hsr_onboard_wifi, subway_cellular};

// Big enough that the download rides through at least one tunnel outage
// (the cellular trace's first hole opens between 3 and 11 s).
const CHUNK: u64 = 8 << 20;

fn paths(seed: u64) -> Vec<xlink::netsim::Path> {
    let cellular = PathSpec::new(WirelessTech::Lte, subway_cellular(seed, 60_000), seed);
    let wifi = PathSpec::new(WirelessTech::Wifi, hsr_onboard_wifi(seed + 1, 60_000), seed + 1);
    vec![wifi.build(), cellular.build()]
}

fn main() {
    println!("Subway ride: fetching an 8 MB chunk through tunnel outages\n");
    let seed = 33;
    let tuning = TransportTuning::default();
    let deadline = Duration::from_secs(60);
    let arms =
        [Scheme::Sp { path: 0 }, Scheme::Cm, Scheme::VanillaMp, Scheme::Mptcp, Scheme::Xlink];
    for scheme in arms {
        let label = scheme.label();
        let mut timeline = Vec::new();
        let t = if scheme == Scheme::Xlink {
            // Trace the XLINK arm so the failover story is visible.
            let log = TraceLog::recording();
            let r = Scenario::new(paths(seed), deadline)
                .traced(&log)
                .bulk_quic(scheme, &tuning, CHUNK, seed, None);
            timeline = failover_timeline(&log);
            r.download_time
        } else {
            run_bulk_quic(scheme, &tuning, CHUNK, seed, paths(seed), vec![], deadline).download_time
        };
        match t {
            Some(d) => println!("{label:<12} {:.2} s", d.as_secs_f64()),
            None => println!("{label:<12} did not finish within {}s", deadline.as_secs_f64()),
        }
        for line in &timeline {
            println!("    {line}");
        }
    }
    println!("\nXLINK adapts its packet distribution to the surviving path\n(and re-injects stranded bytes), so it degrades the least.");
}
