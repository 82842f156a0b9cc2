//! Determinism guard for the battery fan-out: a default-configured
//! pipeline must produce byte-identical scan results whether the battery
//! grid is executed by the worker pool or by one thread. The day pass's
//! threaded walks get the same guard across worker counts.

use expanse_addr::fanout::splitmix64;
use expanse_addr::{u128_to_addr, AddrId, Encoder};
use expanse_core::{Fig8Row, Hitlist, Ledger, Pipeline, PipelineConfig};
use expanse_model::{ModelConfig, SourceId};
use expanse_packet::{ProtoSet, Protocol};
use std::net::Ipv6Addr;

fn pipeline_with(parallel: bool) -> Pipeline {
    // Keep the virtual day cheap; both paths get the identical config.
    let mut cfg = PipelineConfig {
        trace_budget: 30,
        ..PipelineConfig::default()
    };
    if !parallel {
        cfg.scan.fanout = cfg.scan.fanout.serial();
    }
    cfg.plan.min_targets = 30;
    let mut p = Pipeline::new(ModelConfig::tiny(77), cfg);
    p.collect_sources(30);
    p
}

#[test]
fn default_config_round_trips_parallel_and_serial() {
    assert!(
        PipelineConfig::default().scan.fanout.parallel,
        "the pipeline defaults to the parallel executor"
    );
    let (snap_par, multi_par) = pipeline_with(true).run_day_full();
    let (snap_ser, multi_ser) = pipeline_with(false).run_day_full();

    // The per-protocol battery results are identical, field for field.
    // (The snapshot took ownership of each result's merged responsive
    // map, so this comparison covers `by_protocol`; the responsive maps
    // are compared below via the snapshots, and must not be empty —
    // otherwise the equality would be vacuous.)
    assert_eq!(multi_par, multi_ser);
    assert_eq!(multi_par.digest(), multi_ser.digest());
    assert!(multi_par.responsive.is_empty(), "taken by the snapshot");

    // And everything derived from them in the daily snapshot agrees.
    assert_eq!(snap_par.battery_digest, snap_ser.battery_digest);
    assert!(!snap_par.responsive.is_empty(), "someone must answer");
    assert_eq!(snap_par.responsive, snap_ser.responsive);
    assert_eq!(snap_par.hitlist_total, snap_ser.hitlist_total);
    assert_eq!(snap_par.hitlist_after_apd, snap_ser.hitlist_after_apd);
    assert_eq!(snap_par.aliased_prefixes, snap_ser.aliased_prefixes);
    assert_eq!(snap_par.probes_sent, snap_ser.probes_sent);
}

#[test]
fn digest_is_seed_sensitive() {
    // The digest actually discriminates: a different model seed yields a
    // different battery result.
    let (snap_a, _) = pipeline_with(true).run_day_full();
    let mut cfg = PipelineConfig {
        trace_budget: 30,
        ..PipelineConfig::default()
    };
    cfg.plan.min_targets = 30;
    let mut other = Pipeline::new(ModelConfig::tiny(78), cfg);
    other.collect_sources(30);
    let (snap_b, _) = other.run_day_full();
    assert_ne!(snap_a.battery_digest, snap_b.battery_digest);
}

/// The adversarial scenario layer — per-router ICMPv6 token buckets
/// draining inside the battery grid, rotation renumbering, privacy
/// churn, alias fabrics — must not perturb fan-out determinism: the
/// throttle state is cloned into every scan stream's snapshot, so the
/// grid stays byte-identical whether it runs serial or parallel, and
/// across days of rotation churn.
#[test]
fn adversarial_scenario_round_trips_parallel_and_serial() {
    let run = |parallel: bool| {
        let mut cfg = PipelineConfig {
            trace_budget: 30,
            ..PipelineConfig::default()
        };
        if !parallel {
            cfg.scan.fanout = cfg.scan.fanout.serial();
        }
        cfg.plan.min_targets = 30;
        let mut p = Pipeline::new(ModelConfig::adversarial(77), cfg);
        p.collect_sources(30);
        // Cross a rotation boundary (period 3 in the preset) with the
        // daily scenario feed active, like the bench harness does.
        let mut digests = Vec::new();
        for _ in 0..4u16 {
            let day = p.day();
            let feed = p.model_ref().scenario_feed(day);
            p.hitlist.add_from(SourceId::RipeAtlas, &feed, day);
            let (snap, multi) = p.run_day_full();
            assert!(!snap.responsive.is_empty(), "someone must answer");
            digests.push((snap.battery_digest, multi.digest(), snap.probes_sent));
        }
        digests
    };
    assert_eq!(
        run(true),
        run(false),
        "scenario battery digests drifted between executors"
    );
}

/// Rows in the synthetic day-pass hitlist: large enough that each day
/// pass clears the 4,096-entry threshold below which
/// `Hitlist::mark_responsive_batch` stays serial.
const PASS_ROWS: usize = 10_000;

/// Build a deterministic synthetic hitlist whose journal sync point sits
/// mid-table, so the dirty column covers only the first half of the
/// rows a day pass touches. Every third pre-sync row already answered
/// on day 5, so day-5 passes widen protocol sets of clean synced rows.
fn day_pass_hitlist() -> Hitlist {
    let addr = |i: usize| -> Ipv6Addr {
        let hi = splitmix64(i as u64);
        u128_to_addr((u128::from(0x2001_0db8_0000_0000 | (hi >> 32)) << 64) | u128::from(hi))
    };
    let add = |h: &mut Hitlist, rows: std::ops::Range<usize>| {
        for i in rows {
            h.add_from(SourceId::ALL[i % SourceId::ALL.len()], &[addr(i)], 0);
        }
    };
    let mut h = Hitlist::new();
    add(&mut h, 0..PASS_ROWS / 2);
    for i in (0..PASS_ROWS / 2).step_by(3) {
        h.mark_responsive_id(AddrId::from_index(i), 5, ProtoSet::only(Protocol::Icmp));
    }
    h.mark_synced();
    add(&mut h, PASS_ROWS / 2..PASS_ROWS);
    assert_eq!(h.len(), PASS_ROWS, "synthetic addresses must be distinct");
    h
}

/// One day's strictly ascending `(id, protocols)` pass over roughly
/// three quarters of the rows, with protocol sets drawn per row.
fn day_pass(day: u16, salt: u64) -> Vec<(AddrId, ProtoSet)> {
    (0..PASS_ROWS)
        .filter_map(|i| {
            let z = splitmix64(i as u64 ^ (u64::from(day) << 32) ^ salt);
            (!z.is_multiple_of(4)).then(|| {
                let p = |k: u64| ProtoSet::only(Protocol::ALL[(k % 5) as usize]);
                (AddrId::from_index(i), p(z >> 8).union(p(z >> 16)))
            })
        })
        .collect()
}

/// The hitlist snapshot, the hitlist's pending journal delta, and the
/// ledger, each sealed in its own envelope.
fn day_pass_state(h: &Hitlist, ledger: &Ledger) -> [Vec<u8>; 3] {
    let seal = |f: &dyn Fn(&mut Encoder<Vec<u8>>)| -> Vec<u8> {
        let mut enc = Encoder::new(Vec::new(), b"FANGUARD", 1).expect("enc");
        f(&mut enc);
        enc.finish().expect("finish")
    };
    [
        seal(&|enc| h.encode(enc).expect("encode")),
        seal(&|enc| h.encode_delta(enc).expect("delta")),
        seal(&|enc| ledger.encode(enc).expect("ledger")),
    ]
}

/// The day pass's threaded branches — `Ledger::record_day_threads`'
/// per-row joins and `Hitlist::mark_responsive_batch`'s column writes,
/// including the dirty bits of a column shorter than the pass — give
/// byte-identical hitlist snapshots, journal deltas, and ledgers at
/// every worker count. Each day runs a second same-day pass, so the
/// protocol-union path is covered as well as the day-advance path; the
/// bytes are compared after every pass, so a later pass cannot mask a
/// dirty bit an earlier one dropped.
#[test]
fn day_pass_threads_match_serial_bytes() {
    let run = |threads: usize| -> Vec<[Vec<u8>; 3]> {
        let mut h = day_pass_hitlist();
        let mut ledger = Ledger::new();
        let mut states = Vec::new();
        for day in [5u16, 6] {
            let pass = day_pass(day, 0);
            assert!(pass.len() >= 4096, "pass too short for the threaded branch");
            ledger.record_day_threads(day, &pass, &h, threads);
            h.mark_responsive_batch(day, &pass, threads);
            states.push(day_pass_state(&h, &ledger));
            let again = day_pass(day, 0x5eed);
            h.mark_responsive_batch(day, &again, threads);
            states.push(day_pass_state(&h, &ledger));
        }
        let (appended, _, last_writes, _) = h.delta_size();
        assert!(
            appended > 0 && last_writes > 0,
            "delta must carry both halves"
        );
        assert!(
            Fig8Row::all()
                .into_iter()
                .any(|row| ledger.baseline_len(row) > 0),
            "some ledger row must establish a baseline"
        );
        states
    };
    let serial = run(1);
    for threads in [2usize, 3, 8] {
        for (k, (want, got)) in serial.iter().zip(run(threads)).enumerate() {
            let [full, delta, ledger] = &got;
            assert!(
                *full == want[0],
                "hitlist encode drifted at {threads} threads, pass {k}"
            );
            assert!(
                *delta == want[1],
                "delta encode drifted at {threads} threads, pass {k}"
            );
            assert!(
                *ledger == want[2],
                "ledger bytes drifted at {threads} threads, pass {k}"
            );
        }
    }
}
