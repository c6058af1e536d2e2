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

# A green run leaves `git status` as it found it: taken here, compared by
# the last step (outside a git checkout both readings say so and agree).
tree_status() { git status --porcelain 2>/dev/null || echo "not a git checkout"; }
tree_at_start=$(tree_status)

# Run one step: title, then the command (with `env VAR=… cmd` for
# environment, `sh -c '…'` for redirections), and its wall time.
step() {
    echo "==> $1"
    shift
    step_started=$(date +%s)
    "$@"
    echo "    wall time: $(($(date +%s) - step_started)) s"
}

step "cargo fmt --check" cargo fmt --check

step "cargo build --release --offline" cargo build --release --offline

step "cargo clippy: every target, warnings are errors" \
    cargo clippy -q --offline --workspace --all-targets -- -D warnings

# A doc link to a renamed, deleted or private item fails here.
step "cargo doc: every crate, warnings are errors" \
    env RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

# Test profile (debug assertions and overflow checks on, opt-level 1): every
# code path the suite reaches is checked, the crates' unit tests included.
# Here `World` also asks each endpoint that took no input since its last
# `None` again, once a round, and fails the run if it sends: over
# tests/golden.rs's fault matrix, and with its pinned qlogs and reports
# unchanged, this shows that a skipped poll is invisible.
# One seed per sweep here; the full seed counts run in the release steps
# below.
step "cargo test -q --offline --workspace (debug, one seed per sweep; the skipped-poll check over the golden fault matrix)" \
    env XLINK_SWEEP_SEEDS=1 cargo test -q --offline --workspace

# Includes the golden oracle (tests/golden.rs: qlog streams, A/B and fleet
# reports bit-identical) at the profile it was recorded in, and the memory
# tests at the profile the benchmark measures: a finished exchange leaves
# no buffer, ring or ACK scratch behind
# (xlink-quic finished_exchanges_leave_no_buffer_behind), and a PoP run
# holds at most 11 KiB per finished session by the allocator's live-byte
# count (xlink-harness a_finished_session_holds_at_most_11_kib).
step "whole workspace, crate unit tests and the golden oracle included (release)" \
    cargo test -q --offline --workspace --release

# Debug profile on purpose: overflow checks are on, and a wrap on a
# peer-controlled value is what the decoder-totality property is after.
step "differential oracle: the engine driven directly vs under the XLINK policy at one path, pinned" \
    env XLINK_PROP_CASES=2000 cargo test -q --offline --test differential

step "re-injection index vs the reference scan: random programs, every target path and mode (debug)" \
    env XLINK_PROP_CASES=2000 cargo test -q --offline -p xlink-core --lib index_matches_the_reference_scan

# The borrowed frame decoder against Frame::decode on arbitrary and truncated
# bytes, the one header reader on arbitrary bytes and every prefix of encoded
# headers, the PoP's classifier against Header::decode, and the crypto tests
# ride along: every AES/GHASH path vs the portable reference (each vector
# kernel the host has, called directly), with overflow checks on.
step "decoder totality: unauthenticated bytes into the one receive path; the borrowed frame and header decoders; the PoP classifier; crypto vs portable (debug)" \
    env XLINK_PROP_CASES=2000 cargo test -q --offline -p xlink-quic -p xlink-edge --lib -- \
    unauthenticated_bytes prop_the_borrowed_decoder prop_header_ref prop_classify crypto::

# The send stream against a byte model: every byte it hands out (taken or
# copied for re-injection, a copy only where the index would offer one) is
# the byte written, a body's lent from the payload table. It has no release
# point and no fill window: it holds the bytes written with `write` until it
# is acknowledged and nothing is queued, and nothing after. Its
# acknowledgement record keeps every gap (orders that leave more than 256),
# so after every step its first byte in flight is the model's, and so is its
# state (the FIN may be acknowledged first, and a FIN frame lost after a copy
# of it was acknowledged is not sent again). The payload table's slices
# against the per-byte payload. The receive stream against a byte array: its
# bytes, counters, final size and state. The range set under AckRanges
# against a set of packet numbers. The stream table against an ordered map:
# the same streams in id order, the same ones found, the same ones refused
# (unidirectional ids included), and next_request hands out the lowest
# complete, unread stream the peer opened, each once.
step "stream states and range sets: send and receive streams vs byte models, payload slices vs bytes, AckRanges vs a set; the stream table vs an ordered map (debug)" \
    env XLINK_PROP_CASES=2000 cargo test -q --offline -p xlink-quic -p xlink-lab --lib -- \
    prop_the_stream_hands_out_the_bytes_written prop_parts_is_the_per_byte_payload \
    prop_reassembly_matches_a_byte_array_model prop_matches_btreeset_model \
    prop_the_stream_table_is_the_ordered_map

# The link against the walk its idle jump shortcuts, and against the
# timestamps its per-millisecond counts were built from, loop after loop.
# The host a multiplexing endpoint keeps its members in against a scan over
# all slots: the same datagrams from the same members in the same order,
# the cursor across removed and reused slots, the due members, and the
# polls and fires it counts.
step "netsim: the link's idle jump vs the walk, its replay vs the timestamps; the member host vs a scan (debug)" \
    env XLINK_PROP_CASES=2000 cargo test -q --offline -p xlink-netsim --lib -- \
    prop_the_idle_jump_is_the_walk prop_the_link_replays_its_timestamps \
    the_host_matches_a_naive_scan

step "player: advancing only at byte arrivals and next-change instants matches every millisecond (debug)" \
    env XLINK_PROP_CASES=2000 cargo test -q --offline -p xlink-video --lib \
    advancing_only_at_arrivals_and_next_changes_matches_every_millisecond

step "impairment robustness sweep (8 seeds)" \
    env XLINK_SWEEP_SEEDS=8 cargo test -q --offline --test impairments

# Release: in debug this step took 359 s of the sweeps' 404 s (impairments
# 10 s, adversary 35 s); the debug run of the same tests at the default seed
# count is part of `cargo test -q --offline` above.
step "failover robustness sweep (8 seeds, release)" \
    env XLINK_SWEEP_SEEDS=8 cargo test -q --offline --release --test failover

step "adversary suite (8 seeds)" \
    env XLINK_SWEEP_SEEDS=8 cargo test -q --offline --test adversary

# The drains and crash-restarts of the edge steps are the PoP's own fault
# script (`PopConfig::faults`), which it applies on its timer.
step "edge tier: 1k-user PoP floods, drain + crash-restart sweep, 8 seeds (release)" \
    env XLINK_SWEEP_SEEDS=8 XLINK_POP_USERS=1000 cargo test -q --offline --release --test edge

step "edge tier at scale: one 5000-user crash-restart run (wall time linear in users)" \
    env XLINK_SWEEP_SEEDS=1 XLINK_POP_USERS=5000 cargo test -q --offline --release --test edge \
    mid_video_crash_sweep_resumes_with_zero_byte_loss

step "fleet engine: 10k concurrent sessions, bit-identical across shard counts and profiler off vs record (release)" \
    env XLINK_FLEET_SESSIONS=10000 cargo test -q --offline --release --test fleet

# The perf ledger. The committed files stay as .prev for perfgate; the
# recording truncates before it appends, so a second run writes the same rows.
cp BENCH_prof.json BENCH_prof.json.prev
cp BENCH_fleet.json BENCH_fleet.json.prev

# One profiled run feeds both files: its fleet_gate row (wall time and rates
# at this population) opens BENCH_fleet.json, the spans and the per-packet
# counters are BENCH_prof.json. prof_dump's first stderr line names the
# workers, the cores kept busy and the AEAD kernel (crypto::kernel); the
# advisory timings compare only across runs on the same kernel.
step "hot-path profile at 10k sessions, recording BENCH_prof.json + the fleet gate row" \
    sh -ec 'XLINK_FLEET_SESSIONS=10000 cargo run -q --release --offline --example prof_dump -- \
        --json > target/prof_dump.rows
        gate_row="^{\"name\":\"fleet_gate@"
        grep "$gate_row" target/prof_dump.rows > BENCH_fleet.json
        grep -v "$gate_row" target/prof_dump.rows > BENCH_prof.json'

# The crash_rct row's population is 25 users per unit of --scale.
step "crash-recovery RCT at 1k users, appending recovery percentiles to BENCH_fleet.json" \
    sh -ec 'cargo run -q --release --offline -p xlink-bench --bin experiments -- \
        crash_rct --scale 40 > target/crash_rct.out
        ledger_row="^{\"name\":\"crash_rct/"
        grep -v "$ledger_row" target/crash_rct.out
        grep "$ledger_row" target/crash_rct.out >> BENCH_fleet.json'

step "perfgate: every exact ledger field equals the committed one (timings printed, not judged)" \
    cargo run -q --release --offline -p xlink-bench --bin perfgate -- \
    BENCH_prof.json BENCH_fleet.json

# The gate passed, so the fresh files differ from the committed ones in
# advisory readings only, and perfgate has printed those: put the committed
# files back and a green run leaves the tree as it found it. (A failed gate
# stops above with the fresh files in place, ready to commit if the move is
# meant.)
mv BENCH_prof.json.prev BENCH_prof.json
mv BENCH_fleet.json.prev BENCH_fleet.json

# The repository's benchmark is its own package with its own target
# directory; a PR that breaks a `pub` item it imports, or one of its own
# checks (conservation, sim_digest across repetitions, bytes_ok), fails
# here. No number is read from the runs. The package's stale Cargo.lock
# makes cargo rewrite it: put it back, nothing under benchmark/ may change.
xbench_runs() {
    cargo test -q --offline --manifest-path benchmark/Cargo.toml || return 1
    for workload in fleet_gate bulk_fatpipe mobility_video edge_churn; do
        cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seconds 1 --trace 0 > /dev/null || return 1
    done
}
xbench() {
    cp benchmark/Cargo.lock target/benchmark.Cargo.lock
    status=0
    xbench_runs || status=$?
    cp target/benchmark.Cargo.lock benchmark/Cargo.lock
    return $status
}
step "benchmark package: its tests, then each workload once (--seconds 1 --trace 0)" xbench

tree_unchanged() {
    [ "$(tree_status)" = "$tree_at_start" ] && return 0
    printf '    git status at the start:\n%s\n    git status now:\n' "$tree_at_start"
    tree_status; return 1
}
step "git status: the run left the tree as it found it" tree_unchanged

echo "==> ci.sh: all green"
