#!/usr/bin/env sh
# Tier-1 gate for xlink-rs. Run from the repo root:
#
#   ./ci.sh
#
# Exits non-zero on the first failure. Fully offline: the workspace has
# no external dependencies (Cargo.lock lists only workspace members), so
# this works with no network and no pre-fetched registry.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> crate unit tests: the whole workspace, not just the facade (release)"
cargo test -q --offline --workspace --release

echo "==> golden oracle: qlog streams, MPTCP times, A/B and fleet reports bit-identical (release)"
cargo test -q --offline --release --test golden

echo "==> impairment robustness sweep (8 seeds)"
XLINK_SWEEP_SEEDS=8 cargo test -q --offline --test impairments

echo "==> failover robustness sweep (8 seeds)"
XLINK_SWEEP_SEEDS=8 cargo test -q --offline --test failover

echo "==> observability: A/B bit-determinism + qlog validity"
cargo test -q --offline --test observability

echo "==> adversary suite (8 seeds)"
XLINK_SWEEP_SEEDS=8 cargo test -q --offline --test adversary

echo "==> edge tier: 1k-user PoP floods, drain + crash-restart sweep, 8 seeds (release)"
edge_started=$(date +%s)
XLINK_SWEEP_SEEDS=8 XLINK_POP_USERS=1000 cargo test -q --offline --release --test edge
echo "    edge step wall time: $(($(date +%s) - edge_started)) s"

echo "==> edge tier at scale: one 5000-user crash-restart run (wall time linear in users)"
XLINK_SWEEP_SEEDS=1 XLINK_POP_USERS=5000 cargo test -q --offline --release --test edge \
    mid_video_crash_sweep_resumes_with_zero_byte_loss

echo "==> fleet engine: 10k concurrent sessions, bit-identical across shard counts (release)"
XLINK_FLEET_SESSIONS=10000 cargo test -q --offline --release --test fleet

echo "==> benches (smoke mode: 5 samples of >= 1 ms), emitting BENCH_*.json"
# Keep the committed ledgers as .prev so perfgate can diff against them.
for f in BENCH_micro.json BENCH_end_to_end.json BENCH_obs_overhead.json BENCH_fleet.json \
    BENCH_prof.json; do
    [ -f "$f" ] && cp "$f" "$f.prev"
done
cargo bench -p xlink-bench --offline --bench micro -- --smoke > BENCH_micro.json
cargo bench -p xlink-bench --offline --bench end_to_end -- --smoke > BENCH_end_to_end.json
cargo bench -p xlink-bench --offline --bench obs_overhead -- --smoke > BENCH_obs_overhead.json
cargo bench -p xlink-bench --offline --bench fleet -- --smoke > BENCH_fleet.json

echo "==> hot-path profile at 10k sessions, emitting BENCH_prof.json + fleet gate rates"
XLINK_FLEET_SESSIONS=10000 cargo run -q --release --offline --example prof_dump -- \
    --json --gate-out BENCH_fleet.json > BENCH_prof.json

echo "==> crash-recovery RCT at 1k users, appending recovery percentiles to BENCH_fleet.json"
XLINK_POP_USERS=1000 cargo run -q --release --offline --example crash_rct -- \
    --gate-out BENCH_fleet.json

echo "==> perfgate: perf ledger vs previous run (warn-only, +/-30%)"
cargo run -q --release --offline -p xlink-bench --bin perfgate -- --tolerance 0.30 \
    BENCH_micro.json BENCH_end_to_end.json BENCH_obs_overhead.json BENCH_fleet.json \
    BENCH_prof.json

echo "==> ci.sh: all green"
