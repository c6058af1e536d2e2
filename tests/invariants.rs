//! Workspace-level property tests: invariants that must hold across
//! crate boundaries under randomized inputs.

use xlink::clock::{Duration, Instant};
use xlink::core::{play_time_left, reinjection_decision, QoeControl, QoeSignal};
use xlink::lab::prop::*;
use xlink::lab::rng::Rng;
use xlink::netsim::{Impairment, Impairments, Link, LinkConfig};
use xlink::obs::json::{parse, Value};
use xlink::traces::{parse_mahimahi, to_mahimahi, Opportunities, Trace};

/// Algorithm 1 is monotone in buffer occupancy: with everything else
/// fixed, a larger buffer never turns re-injection ON when a smaller
/// buffer had it OFF.
#[test]
fn alg1_monotone_in_buffer() {
    check(
        "alg1_monotone_in_buffer",
        (0u64..600, 0u64..600, 1u64..2000),
        |&(frames_a, frames_b, deliver_ms)| {
            let (lo, hi) =
                if frames_a <= frames_b { (frames_a, frames_b) } else { (frames_b, frames_a) };
            let control = QoeControl::double_threshold_ms(300, 1500);
            let mk = |frames| QoeSignal { cached_bytes: 0, cached_frames: frames, bps: 0, fps: 30 };
            let d = Some(Duration::from_millis(deliver_ms));
            let on_lo = reinjection_decision(control, Some(&mk(lo)), d);
            let on_hi = reinjection_decision(control, Some(&mk(hi)), d);
            // on_hi implies on_lo (more buffer can only reduce urgency).
            prop_assert!(!on_hi || on_lo, "lo={lo} off but hi={hi} on");
            Ok(())
        },
    );
}

/// Play-time-left is the conservative minimum of its two estimates.
#[test]
fn play_time_is_min_of_estimates() {
    check(
        "play_time_is_min_of_estimates",
        (1u64..10_000_000, 1u64..10_000, 1u64..50_000_000, 1u64..120),
        |&(bytes, frames, bps, fps)| {
            let q = QoeSignal { cached_bytes: bytes, cached_frames: frames, bps, fps };
            let dt = play_time_left(&q).expect("both estimates available");
            let by_frames = Duration::from_micros(frames * 1_000_000 / fps);
            let by_bytes = Duration::from_micros(bytes * 8 * 1_000_000 / bps);
            prop_assert_eq!(dt, by_frames.min(by_bytes));
            Ok(())
        },
    );
}

/// A trace survives a Mahimahi round-trip byte-exactly.
#[test]
fn trace_mahimahi_roundtrip() {
    check("trace_mahimahi_roundtrip", vec_of(0u64..100_000, 0..500), |ops| {
        let t = Trace::new("prop", Opportunities::from_timestamps(ops.iter().copied()));
        let text = to_mahimahi(&t);
        let back = parse_mahimahi("prop", &text).expect("parses");
        prop_assert_eq!(to_mahimahi(&back), text);
        prop_assert_eq!(back, t);
        Ok(())
    });
}

/// Link conservation: every packet sent is either delivered exactly
/// once or counted dropped — never duplicated, never lost silently.
#[test]
fn link_conserves_packets() {
    check(
        "link_conserves_packets",
        (1usize..80, 0.0f64..0.5, 2usize..64),
        |&(n, loss, queue_kb)| {
            let mut link = Link::new(LinkConfig {
                trace_ms: Opportunities::from_timestamps(0..1000),
                delay: Duration::from_millis(5),
                queue_bytes: queue_kb * 1024,
                loss,
                seed: 42,
                impairments: Impairments::none(),
            });
            for i in 0..n {
                link.send(Instant::from_millis(i as u64), vec![i as u8; 1000]);
            }
            let delivered = link.recv(Instant::from_secs(100)).len() as u64;
            prop_assert_eq!(delivered + link.dropped_packets, n as u64);
            let st = link.stats();
            prop_assert!(st.is_conserved(), "stats not conserved: {st:?}");
            prop_assert_eq!(st.enqueued + st.duplicated, st.delivered + st.dropped);
            Ok(())
        },
    );
}

/// Conservation survives the full impairment pipeline: with bursty
/// loss, duplication, corruption, reordering, and jitter all active,
/// `enqueued + duplicated == delivered + dropped` still balances once
/// the link drains (and the instantaneous identity holds mid-flight).
#[test]
fn impaired_link_conserves_packets() {
    check(
        "impaired_link_conserves_packets",
        (1usize..120, 1u64..10_000, 0.0f64..0.4),
        |&(n, seed, dup_prob)| {
            let mut cfg = LinkConfig {
                trace_ms: Opportunities::from_timestamps(0..1000),
                delay: Duration::from_millis(5),
                queue_bytes: 48 * 1024,
                loss: 0.0,
                seed,
                impairments: Impairments::none()
                    .with(Impairment::bursty_loss(0.05, 0.4))
                    .with(Impairment::Duplicate { prob: dup_prob })
                    .with(Impairment::Corrupt { prob: 0.1 })
                    .with(Impairment::Reorder { prob: 0.3, window: Duration::from_millis(20) })
                    .with(Impairment::Jitter { sigma: Duration::from_millis(2) }),
            };
            cfg.seed = seed;
            let mut link = Link::new(cfg);
            for i in 0..n {
                link.send(Instant::from_millis(i as u64), vec![i as u8; 1000]);
                // Mid-flight, the instantaneous identity must hold.
                prop_assert!(link.stats().is_conserved(), "mid-flight: {:?}", link.stats());
            }
            let _ = link.recv(Instant::from_secs(100));
            let st = link.stats();
            prop_assert!(st.is_conserved(), "drained: {st:?}");
            prop_assert_eq!(st.queued, 0);
            prop_assert_eq!(st.in_pipe, 0);
            prop_assert_eq!(
                st.enqueued + st.duplicated,
                st.delivered + st.dropped,
                "quiescent conservation violated: {:?}",
                st
            );
            prop_assert_eq!(st.enqueued, n as u64);
            Ok(())
        },
    );
}

/// Delivered packets preserve payload bytes and FIFO order.
#[test]
fn link_preserves_order_and_content() {
    check("link_preserves_order_and_content", 1usize..50, |&n| {
        let mut link = Link::new(LinkConfig {
            trace_ms: Opportunities::from_timestamps(0..1000),
            delay: Duration::from_millis(1),
            queue_bytes: 10 << 20,
            loss: 0.0,
            seed: 1,
            impairments: Impairments::none(),
        });
        for i in 0..n {
            link.send(Instant::ZERO, vec![i as u8; 100 + i]);
        }
        let got: Vec<_> = link.recv(Instant::from_secs(60)).collect();
        prop_assert_eq!(got.len(), n);
        for (i, d) in got.iter().enumerate() {
            prop_assert_eq!(d.payload.len(), 100 + i);
            prop_assert!(d.payload.iter().all(|&b| b == i as u8));
        }
        Ok(())
    });
}

/// Arbitrary strings — escapes, control characters, astral-plane
/// codepoints — survive a JSON write/parse round-trip exactly.
#[test]
fn json_string_escaping_round_trips() {
    let string = map(vec_of(0u32..0x11_0000, 0..48), |cps| {
        cps.into_iter().filter_map(char::from_u32).collect::<String>()
    });
    check("json_string_escaping_round_trips", string, |s| {
        let v = Value::Str(s.clone());
        prop_assert_eq!(parse(&v.to_json()).map_err(|e| e.to_string())?, v);
        Ok(())
    });
}

/// Integers are preserved exactly across the full u64/i64 domain, and
/// fractional floats come back as the same number.
#[test]
fn json_numbers_round_trip() {
    check(
        "json_numbers_round_trip",
        (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..1_000_000_000),
        |&(u, i_bits, f_int)| {
            let i = i_bits as i64;
            let f = f_int as f64 + 0.5; // always fractional: stays a Float
            prop_assert_eq!(parse(&Value::Uint(u).to_json()).unwrap().as_u64(), Some(u));
            let back = parse(&Value::Int(i).to_json()).unwrap();
            prop_assert_eq!(back.as_f64(), Some(i as f64));
            if i < 0 {
                prop_assert_eq!(back, Value::Int(i));
            }
            prop_assert_eq!(parse(&Value::Float(f).to_json()).unwrap(), Value::Float(f));
            Ok(())
        },
    );
}

/// Random nested documents (objects, arrays, every scalar kind, nasty
/// strings as both keys and values) are textually stable through
/// write → parse → write: the second serialisation is byte-identical.
#[test]
fn json_nesting_round_trips() {
    fn gen_string(rng: &mut Rng) -> String {
        const CHARS: &[char] =
            &['a', 'k', '0', 'β', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', '😀'];
        (0..rng.below(10)).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize]).collect()
    }
    fn gen_value(rng: &mut Rng, depth: u32) -> Value {
        match rng.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.chance(0.5)),
            2 => Value::Int(rng.next_u64() as i64),
            3 => Value::Uint(rng.next_u64()),
            4 => Value::Float(rng.below(1_000_000) as f64 + 0.25),
            5 => Value::Str(gen_string(rng)),
            6 => Value::Arr((0..rng.below(4)).map(|_| gen_value(rng, depth - 1)).collect()),
            _ => Value::Obj(
                (0..rng.below(4)).map(|_| (gen_string(rng), gen_value(rng, depth - 1))).collect(),
            ),
        }
    }
    #[derive(Clone, Copy, Debug)]
    struct DocSeed;
    impl Strategy for DocSeed {
        type Value = u64;
        fn generate(&self, rng: &mut Rng) -> u64 {
            rng.next_u64()
        }
    }
    check("json_nesting_round_trips", DocSeed, |&seed| {
        let v = gen_value(&mut Rng::new(seed), 3);
        let text = v.to_json();
        let reparsed = parse(&text).map_err(|e| e.to_string())?;
        prop_assert_eq!(reparsed.to_json(), text, "unstable round-trip for {v:?}");
        Ok(())
    });
}

/// Event-stream invariants hold for any seed: per-source clocks are
/// monotone, nothing is acked or lost before it was sent, and the
/// re-injection events sum to the stats ledger byte-exactly.
#[test]
fn traced_sessions_satisfy_stream_invariants() {
    use xlink::harness::{Scenario, Scheme, SessionConfig};
    use xlink::netsim::Path;
    use xlink::obs::{Event, TraceLog};
    let mut cfg_env = Config::from_env("traced_sessions_satisfy_stream_invariants");
    cfg_env.cases = cfg_env.cases.min(6); // each case is a full session
    check_with(&cfg_env, "traced_sessions_satisfy_stream_invariants", &(0u64..10_000), |&seed| {
        let log = TraceLog::recording();
        let mut cfg = SessionConfig::short_video(Scheme::Xlink, seed);
        cfg.video = xlink::video::Video::synth(2, 25, 600_000, 8.0);
        let mk = |mbps: f64, delay_ms: u64, s: u64| {
            let mut lc = LinkConfig::constant_rate(mbps, Duration::from_millis(delay_ms));
            lc.loss = 0.015;
            lc.seed = s;
            Path::symmetric(lc)
        };
        let paths = vec![mk(18.0, 10, seed), mk(12.0, 30, seed ^ 1)];
        let r = Scenario::new(paths, cfg.deadline).traced(&log).video(&cfg);
        let mut last = std::collections::BTreeMap::new();
        let mut sent = std::collections::BTreeSet::new();
        let mut reinjected = 0u64;
        for ev in log.events() {
            let prev = *last.entry(ev.source).or_insert(ev.time);
            prop_assert!(ev.time >= prev, "clock ran backwards in {}", log.source_name(ev.source));
            last.insert(ev.source, ev.time);
            match ev.body {
                Event::PacketSent { path, pn, .. } => {
                    sent.insert((ev.source, path, pn));
                }
                Event::PacketAcked { path, pn } | Event::PacketLost { path, pn, .. } => {
                    prop_assert!(
                        sent.contains(&(ev.source, path, pn)),
                        "pn {pn} acked/lost before sent on path {path} of {}",
                        log.source_name(ev.source)
                    );
                }
                Event::Reinjection { len, .. } => reinjected += len,
                _ => {}
            }
        }
        prop_assert_eq!(
            reinjected,
            r.client_transport.reinjected_bytes + r.server_transport.reinjected_bytes
        );
        Ok(())
    });
}

/// Deterministic replay: the same seeded session gives bit-identical
/// results (the property the whole experiment methodology rests on).
#[test]
fn sessions_are_deterministic() {
    use xlink::harness::{run_session, Scheme, SessionConfig};
    use xlink::netsim::Path;
    let run = || {
        let mut cfg = SessionConfig::short_video(Scheme::Xlink, 99);
        cfg.video = xlink::video::Video::synth(2, 25, 600_000, 8.0);
        let paths = vec![
            Path::symmetric(LinkConfig::constant_rate(18.0, Duration::from_millis(10))),
            Path::symmetric(LinkConfig::constant_rate(12.0, Duration::from_millis(30))),
        ];
        let r = run_session(&cfg, paths);
        (
            r.chunk_rct.clone(),
            r.player.rebuffer_time,
            r.server_transport.bytes_sent,
            r.server_transport.reinjected_bytes,
        )
    };
    assert_eq!(run(), run());
}

/// Adversarial gap patterns against the received-packet-number set: no
/// matter how a hostile peer spaces its packet numbers, the range set
/// stays under [`MAX_ACK_RANGES`](xlink::quic::ackranges::MAX_ACK_RANGES)
/// (evict-oldest), stays sorted and disjoint, and always keeps the most
/// recently inserted packet number covered (the eviction policy must
/// sacrifice history, never the live edge).
#[test]
fn ackranges_bounded_under_adversarial_gaps() {
    use xlink::quic::ackranges::{AckRanges, MAX_ACK_RANGES};
    check(
        "ackranges_bounded_under_adversarial_gaps",
        (vec_of(0u64..100_000, 1..700), any_bool(), 1u64..64),
        |&(ref raw, descending, stride)| {
            // Two adversary shapes from one draw: arbitrary scatter, and
            // a strided sweep (every `stride+1`-th pn) which maximises
            // range count per packet; optionally delivered newest-first.
            let mut pns: Vec<u64> = raw.iter().map(|&p| p * stride).collect();
            if descending {
                pns.sort_unstable();
                pns.reverse();
            }
            let mut set = AckRanges::new();
            for &pn in &pns {
                let added = set.insert(pn);
                prop_assert!(
                    set.range_count() <= MAX_ACK_RANGES,
                    "range count {} over cap",
                    set.range_count()
                );
                // An accepted pn must be covered; a refused one is either
                // a duplicate or below the evicted-history floor.
                prop_assert!(!added || set.contains(pn), "accepted pn {pn} not covered");
            }
            // Sorted, disjoint, non-adjacent (adjacent ranges must merge).
            let ranges: Vec<_> = set.iter().collect();
            for w in ranges.windows(2) {
                prop_assert!(
                    w[0].end + 1 < w[1].start,
                    "ranges not disjoint/merged: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
            // The largest pn ever inserted is never evicted.
            let largest = pns.iter().copied().max().unwrap();
            prop_assert_eq!(set.largest(), Some(largest));
            prop_assert!(set.contains(largest));
            // Eviction accounting matches reality: evictions happen iff
            // more distinct ranges were created than the cap holds.
            if set.evicted() == 0 {
                prop_assert!(set.range_count() <= MAX_ACK_RANGES);
            } else {
                prop_assert_eq!(set.range_count(), MAX_ACK_RANGES);
            }
            Ok(())
        },
    );
}

/// Duplicate suppression is stable under replay: re-inserting any
/// already-covered pn reports `false` and leaves the set unchanged —
/// the property the re-injection amplifier attack leans on.
#[test]
fn ackranges_replay_is_idempotent() {
    use xlink::quic::ackranges::AckRanges;
    check(
        "ackranges_replay_is_idempotent",
        (vec_of(0u64..10_000, 1..300), 0u64..10_000),
        |(pns, cut): &(Vec<u64>, u64)| {
            let mut set = AckRanges::new();
            for &pn in pns {
                set.insert(pn);
            }
            let before: Vec<_> = set.iter().collect();
            let evicted = set.evicted();
            for &pn in pns {
                if set.contains(pn) {
                    prop_assert!(!set.insert(pn), "covered pn {pn} accepted twice");
                }
            }
            let after: Vec<_> = set.iter().collect();
            prop_assert_eq!(before, after);
            prop_assert_eq!(evicted, set.evicted());

            // Pruned acknowledgement state is forgotten, not unseen: what
            // was inserted at or below the cut stays a duplicate.
            set.forget_below(*cut);
            let pruned: Vec<_> = set.iter().collect();
            for &pn in pns.iter().filter(|&&pn| pn <= *cut) {
                prop_assert!(!set.insert(pn), "pn {pn} pruned at {cut} accepted again");
            }
            prop_assert_eq!(pruned, set.iter().collect::<Vec<_>>());
            Ok(())
        },
    );
}

/// Streaming percentiles agree with exact order statistics to within
/// one log-histogram bin (multiplicative error ≤ the bin width factor)
/// for any in-range sample set and any percentile.
#[test]
fn streaming_percentile_within_bin_error_of_exact() {
    use xlink::lab::stats::percentile;
    use xlink::lab::stream::{bin_width_factor, LogHistogram};
    check(
        "streaming_percentile_within_bin_error_of_exact",
        (vec_of(1u64..10_000_000, 1..400), 0.0f64..100.0),
        |(raw, p)| {
            // Map to f64 samples spanning ~0.001..10_000 s (inside the
            // histogram's resolved range).
            let xs: Vec<f64> = raw.iter().map(|&v| v as f64 / 1000.0).collect();
            let mut h = LogHistogram::new();
            for &x in &xs {
                h.record(x);
            }
            let exact = percentile(&xs, *p);
            let streamed = h.percentile(*p);
            let w = bin_width_factor();
            prop_assert!(
                streamed <= exact * w + 1e-12 && streamed >= exact / w - 1e-12,
                "p{p:.1}: streamed {streamed} vs exact {exact} (bin width {w})"
            );
            Ok(())
        },
    );
}

/// Streaming aggregates merge exactly: any partition of a sample set
/// into shards, merged in any order, is bit-identical (same digest) to
/// the single-pass aggregate — the mechanism behind the fleet engine's
/// shard-count invariance.
#[test]
fn streaming_merge_is_partition_invariant() {
    use xlink::lab::stream::{LogHistogram, StreamStat};
    check(
        "streaming_merge_is_partition_invariant",
        (vec_of(0u64..100_000_000, 1..300), 1u64..7),
        |(raw, nshards)| {
            let xs: Vec<f64> = raw.iter().map(|&v| v as f64 / 10_000.0).collect();
            let mut whole_h = LogHistogram::new();
            let mut whole_s = StreamStat::new();
            for &x in &xs {
                whole_h.record(x);
                whole_s.record(x);
            }
            let n = *nshards as usize;
            let mut hs = vec![LogHistogram::new(); n];
            let mut ss = vec![StreamStat::new(); n];
            for (i, &x) in xs.iter().enumerate() {
                // Shard by a hash-like stride so shards interleave.
                let shard = (i * 7 + 3) % n;
                hs[shard].record(x);
                ss[shard].record(x);
            }
            // Merge in reverse order to stress commutativity.
            let mut merged_h = LogHistogram::new();
            let mut merged_s = StreamStat::new();
            for i in (0..n).rev() {
                merged_h.merge(&hs[i]);
                merged_s.merge(&ss[i]);
            }
            prop_assert_eq!(whole_h.digest(), merged_h.digest());
            prop_assert_eq!(whole_s.digest(), merged_s.digest());
            prop_assert_eq!(whole_s.sum(), merged_s.sum());
            prop_assert_eq!(whole_s.variance(), merged_s.variance());
            Ok(())
        },
    );
}

/// Fleet shard invariance as a randomized property: the same small
/// population, partitioned across 1, 4, and 16 shards, yields
/// bit-identical reports for any fleet seed.
#[test]
fn fleet_report_is_shard_count_invariant() {
    use xlink::clock::Duration;
    use xlink::harness::fleet::{run_fleet, FleetConfig};
    use xlink::harness::Scheme;
    use xlink::video::Video;
    let mut cfg_env = Config::from_env("fleet_report_is_shard_count_invariant");
    cfg_env.cases = cfg_env.cases.min(3); // each case is three fleet runs
    check_with(&cfg_env, "fleet_report_is_shard_count_invariant", &(0u64..10_000), |&seed| {
        let mut cfg = FleetConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
        cfg.users_per_day = 10;
        cfg.seed = seed;
        cfg.video = Video::synth(2, 25, 300_000, 8.0);
        cfg.deadline = Duration::from_secs(30);
        cfg.arrival_window = Duration::from_secs(2);
        cfg.trace_pool = 4;
        let mut digests = Vec::new();
        let mut jsons = Vec::new();
        for shards in [1u32, 4, 16] {
            cfg.shards = shards;
            let r = run_fleet(&cfg);
            digests.push(r.digest());
            jsons.push(r.to_json().split("\"shards\"").next().unwrap().to_string());
        }
        prop_assert_eq!(digests[0], digests[1]);
        prop_assert_eq!(digests[0], digests[2]);
        prop_assert_eq!(&jsons[0], &jsons[1]);
        prop_assert_eq!(&jsons[0], &jsons[2]);
        Ok(())
    });
}

/// Profiler structural invariants under randomized span workloads: the
/// folded-stack output is parsable line-by-line, every descendant
/// span's inclusive time is bounded by its ancestor's (grouped via
/// [`prof::is_stack_prefix`]), exclusive time never exceeds inclusive,
/// and report merging is partition-invariant.
#[test]
fn profiler_reports_are_well_formed_and_merge_partition_invariant() {
    use xlink::obs::prof;

    // Random span trees over a single-component name vocabulary (so the
    // stack-prefix relation coincides with tree ancestry).
    fn record_tree(rng: &mut Rng, depth: u32) {
        let _g = match rng.below(4) {
            0 => prof::span!("alpha"),
            1 => prof::span!("beta"),
            2 => prof::span!("gamma"),
            _ => prof::span!("delta"),
        };
        if rng.chance(0.5) {
            let v = vec![0u8; 16 + rng.below(64) as usize];
            std::hint::black_box(&v);
        }
        if depth > 0 {
            for _ in 0..rng.below(3) {
                record_tree(rng, depth - 1);
            }
        }
    }
    fn one_report(seed: u64) -> prof::ProfReport {
        prof::set_mode(prof::Mode::Record);
        let _stale = prof::take_report();
        let mut rng = Rng::new(seed);
        for _ in 0..4 {
            record_tree(&mut rng, 3);
        }
        let r = prof::take_report();
        prof::set_mode(prof::Mode::Off);
        r
    }

    check("profiler_reports_well_formed", 0u64..1_000_000, |&seed| {
        let r = one_report(seed);
        prop_assert!(!r.rows.is_empty(), "workload always records at least one span");

        // Folded output: every line is `path<space>weight`, with
        // non-empty `;`-separated components and a u64 weight.
        for line in r.folded().lines() {
            let (path, weight) = line.rsplit_once(' ').ok_or(format!("unsplittable: {line}"))?;
            weight.parse::<u64>().map_err(|e| format!("bad weight in {line:?}: {e}"))?;
            prop_assert!(
                !path.is_empty() && path.split(';').all(|c| !c.is_empty()),
                "empty path component in {line:?}"
            );
        }

        for a in &r.rows {
            prop_assert!(a.excl_ns <= a.incl_ns, "{}: excl > incl", a.path);
            for b in &r.rows {
                if prof::is_stack_prefix(&a.path, &b.path) {
                    prop_assert!(
                        b.incl_ns <= a.incl_ns,
                        "descendant {} ({} ns) exceeds ancestor {} ({} ns)",
                        b.path,
                        b.incl_ns,
                        a.path,
                        a.incl_ns
                    );
                }
            }
        }

        // Partition invariance: fold three shard-reports in different
        // groupings/orders; the merged ledger must be byte-identical.
        let (r1, r2, r3) = (one_report(seed ^ 1), one_report(seed ^ 2), one_report(seed ^ 3));
        let mut seq = prof::ProfReport::default();
        seq.merge(&r1);
        seq.merge(&r2);
        seq.merge(&r3);
        let mut regrouped = prof::ProfReport::default();
        regrouped.merge(&r3);
        let mut pair = prof::ProfReport::default();
        pair.merge(&r2);
        pair.merge(&r1);
        regrouped.merge(&pair);
        prop_assert_eq!(seq.to_json(), regrouped.to_json(), "merge must be partition-invariant");
        Ok(())
    });
}

/// RFC 9000 §8.1 at the connection level: an unvalidated server never
/// sends more than [`AMP_FACTOR`]× the bytes it has received, no matter
/// how the client's first flight is sliced or how often transmit is
/// polled — and validation lifts the gate so the handshake completes.
///
/// [`AMP_FACTOR`]: xlink::quic::connection::AMP_FACTOR
#[test]
fn unvalidated_server_respects_amplification_budget() {
    use xlink::quic::connection::{Config, Connection, AMP_FACTOR};

    check(
        "unvalidated_server_respects_amplification_budget",
        (1u64..10_000, 1u64..10_000, 1usize..5, 0usize..8),
        |&(cseed, sseed, slices, extra_polls)| {
            let now = Instant::ZERO;
            let mut c = Connection::new(Config::client(cseed), now);
            let mut s = Connection::new(Config::server(sseed), now);
            s.set_address_unvalidated();

            let hello = c.poll_transmit(now).expect("client first flight");
            let mut received = 0u64;
            let mut sent = 0u64;
            // Prefix fragments are undecryptable garbage the server must
            // still count toward the §8.1 receive budget; the intact
            // hello follows. Poll transmit aggressively in between.
            let cut = hello.len() / slices.max(1);
            for i in 0..slices.saturating_sub(1) {
                s.handle_datagram(now, &hello[i * cut..(i + 1) * cut]);
                received += cut as u64;
            }
            s.handle_datagram(now, &hello);
            received += hello.len() as u64;
            for _ in 0..=extra_polls {
                while let Some(d) = s.poll_transmit(now) {
                    sent += d.len() as u64;
                }
                prop_assert!(
                    sent <= AMP_FACTOR * received,
                    "unvalidated server sent {sent} on {received} received"
                );
            }
            // Validation lifts the gate: the handshake can now finish.
            s.mark_address_validated();
            let mut t = now;
            for _ in 0..200 {
                let mut any = false;
                while let Some(d) = s.poll_transmit(t) {
                    c.handle_datagram(t, &d);
                    any = true;
                }
                while let Some(d) = c.poll_transmit(t) {
                    s.handle_datagram(t, &d);
                    any = true;
                }
                if !any {
                    break;
                }
                t += Duration::from_micros(100);
            }
            prop_assert!(s.is_established(), "handshake dead after validation");
            Ok(())
        },
    );
}

/// The PoP-level corollary under tokenless floods: however the flood
/// interleaves arrivals and transmit polls across addresses, every
/// per-address Retry reflection stays within the 3× budget and every
/// bounded-state gauge stays within its cap.
#[test]
fn pop_amplification_and_caps_hold_under_arbitrary_floods() {
    use xlink::edge::{Pop, PopConfig};
    use xlink::netsim::Endpoint;
    use xlink::quic::cid::ConnectionId;
    use xlink::quic::connection::{Config, Connection};

    check(
        "pop_amplification_and_caps_hold_under_arbitrary_floods",
        (1u64..100_000, vec_of(0u64..1_000, 1..60)),
        |&(seed, ref ops)| {
            let mut pop = Pop::new(PopConfig { seed, ..PopConfig::default() });
            let mut now = Instant::ZERO;
            for (i, op) in ops.iter().enumerate() {
                if op % 3 == 0 {
                    // Drain pending Retries (counts toward sent bytes).
                    while Endpoint::poll_transmit(&mut pop, now).is_some() {}
                } else {
                    // A fresh tokenless hello from one of 6 addresses.
                    let mut c = Connection::new(Config::client(seed ^ (i as u64) << 16 | op), now);
                    let hello = c.poll_transmit(now).expect("hello");
                    pop.on_datagram(now, (op % 6) as usize, &hello);
                }
                prop_assert!(pop.amp_ok(), "3x budget violated after op {i}");
                let b = pop.bounded_state();
                prop_assert!(b.within_caps(), "gauges out of cap after op {i}: {b:?}");
                now += Duration::from_micros(50);
            }
            // Garbage short headers never mint state at all.
            let before = pop.bounded_state();
            let junk = ConnectionId::derive(seed, 0xdead);
            let mut dg = vec![0x40];
            dg.extend_from_slice(&junk.0);
            dg.push(0);
            pop.on_datagram(now, 0, &dg);
            prop_assert_eq!(pop.bounded_state().conns, before.conns);
            Ok(())
        },
    );
}

/// Retry-token algebra: a token verifies exactly within its lifetime
/// window from the address it was minted for, any single byte-flip
/// breaks it, and distinct mint nonces yield distinct tokens.
#[test]
fn retry_token_verifies_only_in_window_and_untampered() {
    use xlink::edge::{mint, verify, TokenError, TOKEN_LEN};

    check(
        "retry_token_verifies_only_in_window_and_untampered",
        (1u64..u64::MAX, 0u64..10_000, 1u64..5_000, 0u64..u64::MAX),
        |&(key, mint_ms, life_ms, packed)| {
            // Unpack the remaining dimensions from one word (the tuple
            // strategy tops out at arity 4).
            let addr = packed % 1_000;
            let dt_ms = (packed >> 10) % 10_000;
            let flip = (packed >> 32) as usize % 256;
            let minted = Instant::from_millis(mint_ms);
            let life = Duration::from_millis(life_ms);
            let tok = mint(key, addr, mint_ms ^ key, minted);
            let later = minted + Duration::from_millis(dt_ms);
            let want = if dt_ms <= life_ms { Ok(()) } else { Err(TokenError::Expired) };
            prop_assert_eq!(verify(key, addr, later, life, &tok), want);
            // Address binding.
            prop_assert_eq!(verify(key, addr + 1, later, life, &tok), Err(TokenError::BadMac));
            // Tamper resistance: flipping any one bit never verifies.
            let mut t = tok;
            t[flip % TOKEN_LEN] ^= 1 << (flip / TOKEN_LEN % 8);
            prop_assert_ne!(verify(key, addr, later, life, &t), Ok(()));
            // Nonce uniqueness: same instant, same address, new nonce.
            prop_assert_ne!(mint(key, addr, (mint_ms ^ key) + 1, minted), tok);
            Ok(())
        },
    );
}

/// §10.3 reset-token algebra: the token is a pure function of
/// (secret, CID) — deterministic per incarnation — and bumping the
/// shard-epoch secret (what a crash-restart does) yields a *disjoint*
/// token for the same CID, so resets from the new incarnation can never
/// be mistaken for the old one's.
#[test]
fn stateless_reset_tokens_are_deterministic_and_epoch_disjoint() {
    use xlink::quic::cid::ConnectionId;
    use xlink::quic::reset::{
        build_stateless_reset, plausible_reset, reset_token, token_matches, RESET_DATAGRAM_LEN,
    };

    check(
        "stateless_reset_tokens_are_deterministic_and_epoch_disjoint",
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..1_000, 0u64..1_000),
        |&(secret, cid_seed, cid_salt, epoch)| {
            let cid = ConnectionId::derive(cid_seed, cid_salt);
            let tok = reset_token(secret, &cid);
            prop_assert_eq!(reset_token(secret, &cid), tok, "token not deterministic");
            // A different CID under the same secret gets its own token.
            let other = ConnectionId::derive(cid_seed, cid_salt ^ 0x5eed);
            prop_assert_ne!(reset_token(secret, &other), tok);
            // An epoch-bumped secret (post-restart incarnation) is
            // disjoint for the same CID.
            let bumped = secret.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ epoch;
            if bumped != secret {
                prop_assert_ne!(reset_token(bumped, &cid), tok);
            }
            // The reset datagram is fixed-size, short-header-shaped, and
            // carries the token where the oracle looks for it.
            let dg = build_stateless_reset(secret, &cid);
            prop_assert_eq!(dg.len(), RESET_DATAGRAM_LEN);
            prop_assert!(plausible_reset(&dg));
            prop_assert!(token_matches(&tok, &dg));
            Ok(())
        },
    );
}

/// Oracle false-positive resistance: a datagram only reads as *this
/// connection's* reset when its trailing 16 bytes equal the token
/// exactly — any single bit-flip in the tail, a truncated datagram, or
/// a long-header datagram never fires the oracle.
#[test]
fn reset_oracle_resists_false_positives() {
    use xlink::quic::cid::ConnectionId;
    use xlink::quic::reset::{
        build_stateless_reset, plausible_reset, reset_token, token_matches, RESET_TOKEN_LEN,
    };

    check(
        "reset_oracle_resists_false_positives",
        (0u64..u64::MAX, 0u64..u64::MAX, 0usize..RESET_TOKEN_LEN * 8, vec_of(0u8..=255, 0..64)),
        |&(secret, cid_seed, flip, ref noise)| {
            let cid = ConnectionId::derive(cid_seed, 7);
            let tok = reset_token(secret, &cid);
            // Bit-flip anywhere in the token tail breaks the match.
            let mut dg = build_stateless_reset(secret, &cid).to_vec();
            let at = dg.len() - RESET_TOKEN_LEN + flip / 8;
            dg[at] ^= 1 << (flip % 8);
            prop_assert!(!token_matches(&tok, &dg), "tampered tail still matched");
            // Arbitrary noise only matches if its tail IS the token.
            let tail_is_token =
                noise.len() >= RESET_TOKEN_LEN && noise[noise.len() - RESET_TOKEN_LEN..] == tok[..];
            prop_assert_eq!(token_matches(&tok, noise), tail_is_token);
            // Long-header datagrams are never plausible resets.
            let mut long = noise.clone();
            if long.is_empty() {
                long.push(0);
            }
            long[0] |= 0x80;
            prop_assert!(!plausible_reset(&long));
            Ok(())
        },
    );
}
