//! The batched certifier's correctness anchors.
//!
//! 1. **Decision equivalence under real epochs**: several threads certify
//!    concurrently, so per-shard epoch queues drain multi-request epochs
//!    (and, sharded, multi-shard writesets take the direct two-phase path
//!    in between).  Every response reports the system version it was
//!    decided at, which fixes the serial order the certifier claims: a
//!    commit at `v`, then the aborts decided while the system stood at `v`.
//!    Replaying that order through the textbook reference certifier in
//!    `reference/mod.rs` must reproduce every response exactly — decision
//!    and reason, commit version, remote stream with its `conflict_free_to`
//!    bounds — and the forced-abort pattern (the RNG is drawn once per
//!    surviving request, in that order).  Checked at 1, 2 and 4 shards, and
//!    on a serial trace across a truncation floor.
//! 2. **Pre-screen soundness**: whenever the footprint index declares a
//!    writeset clear ([`CertifierLog::prescreen_clear`]), the full suffix
//!    scan ([`CertifierLog::conflict_after`]) must find nothing — a screened
//!    -out writeset never conflicts with anything in the window.  Collisions
//!    may force spurious scans; the reverse direction is deliberately not
//!    asserted.

mod reference;

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::{
    assert_same_end_state, assert_serial_trace, digest, random_request, random_writeset,
    ReferenceCertifier,
};
use tashkent_certifier::{
    CertificationRequest, CertificationResponse, CertifierConfig, CertifierLog, ShardedCertifier,
    ShardedCertifierConfig,
};
use tashkent_common::Version;
use tashkent_storage::disk::DiskConfig;

const WORKERS: u64 = 4;
const REQUESTS_PER_WORKER: usize = 150;

/// Runs `WORKERS` concurrent certifying threads, then replays their
/// requests through the reference in the order the responses report.
///
/// Each epoch's grouped durable append sleeps a real fsync, so requests
/// arriving meanwhile queue up and the next epoch drains several at once
/// (the group commit the epoch queue exists for).
fn assert_concurrent_replay(shards: usize, forced_abort_rate: f64, seed: u64) {
    let base = CertifierConfig {
        forced_abort_rate,
        disk: DiskConfig {
            fsync_latency: Duration::from_micros(200),
            sleep: true,
            ..DiskConfig::default()
        },
        ..CertifierConfig::default()
    };
    let mut reference = ReferenceCertifier::new(&base);
    let candidate = ShardedCertifier::new(ShardedCertifierConfig { shards, base });
    let mut outcomes: Vec<(CertificationRequest, CertificationResponse)> =
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|worker| {
                    let candidate = &candidate;
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed ^ (worker << 32));
                        (0..REQUESTS_PER_WORKER)
                            .map(|_| {
                                let request = random_request(&mut rng, candidate.system_version());
                                let response = candidate.certify(&request).unwrap();
                                (request, response)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|worker| worker.join().unwrap())
                .collect()
        });
    // The claimed serial order: by decision-time system version, each
    // commit ahead of the aborts decided after it.  Aborts sharing a system
    // version commute (none changes the log, and the forced-abort draws
    // among them all fall below the rate).
    outcomes.sort_by_key(|(_, response)| (response.system_version, !response.decision.is_commit()));
    for (step, (request, actual)) in outcomes.iter().enumerate() {
        let expected = reference.certify(request).unwrap();
        assert_eq!(
            digest(actual),
            digest(&expected),
            "shards {shards} replay step {step}"
        );
    }
    assert_same_end_state(&reference, &candidate, forced_abort_rate);
    assert!(
        candidate
            .stats()
            .shards
            .iter()
            .any(|shard| shard.leader_group_commit.mean_group_size() > 1.0),
        "no epoch grouped more than one commit"
    );
}

#[test]
fn batched_certifier_matches_the_serial_scan() {
    assert_concurrent_replay(1, 0.0, 0xB1);
}

#[test]
fn batched_certifier_forced_aborts_stay_in_rng_lockstep() {
    assert_concurrent_replay(1, 0.15, 0xB2);
}

#[test]
fn batched_sharded_certifier_matches_the_serial_scan() {
    for (shards, seed) in [(2usize, 0xB4u64), (4, 0xB5)] {
        assert_concurrent_replay(shards, 0.0, seed);
    }
}

#[test]
fn batched_sharded_forced_aborts_stay_in_rng_lockstep() {
    for (shards, seed) in [(2usize, 0xB7u64), (4, 0xB8)] {
        assert_concurrent_replay(shards, 0.15, seed);
    }
}

#[test]
fn equivalence_holds_across_truncation_floors() {
    // Truncation rebuilds the pre-screen index and moves the floor;
    // decisions — including the conservative below-floor aborts and the
    // refusals of replicas below the floor — must match afterwards.
    for (shards, seed) in [(1usize, 0xB9u64), (2, 0xBC), (4, 0xBD)] {
        assert_serial_trace(shards, 0.0, seed, 320, Some(120));
    }
}

#[test]
fn prescreen_clear_implies_no_conflict() {
    // Soundness on randomized windows: a writeset the index screens out must
    // also pass the full scan, from every probed snapshot version.
    let mut rng = StdRng::seed_from_u64(0xBA);
    for round in 0..20 {
        let mut log = CertifierLog::new();
        let mut version = Version::ZERO;
        for _ in 0..rng.gen_range(20..200) {
            let start = Version(version.value().saturating_sub(rng.gen_range(0..8)));
            version = log.append(random_writeset(&mut rng), start);
        }
        if round % 3 == 2 {
            // Exercise the rebuilt-after-truncation index too.
            log.truncate_up_to(Version(version.value() / 2));
        }
        let mut screened_out = 0u32;
        for probe in 0..300 {
            let writeset = random_writeset(&mut rng);
            let start = Version(rng.gen_range(log.floor().value()..=log.system_version().value()));
            if log.prescreen_clear(&writeset, start) {
                screened_out += 1;
                assert_eq!(
                    log.conflict_after(&writeset, start),
                    None,
                    "round {round} probe {probe}: pre-screen declared clear but the \
                     scan found a conflict"
                );
            }
        }
        // The key space (4 tables × 64 keys) is far below the bucket count,
        // so clear probes must actually occur — otherwise this test would
        // silently assert nothing.
        assert!(screened_out > 0, "round {round}: no probe was screened out");
    }
}

#[test]
fn prescreen_never_misses_a_known_conflict() {
    // Directed version of soundness: append a writeset, then probe the very
    // same footprint from an older snapshot — the pre-screen must demand a
    // scan (and the scan must find the conflict).
    let mut log = CertifierLog::new();
    let mut rng = StdRng::seed_from_u64(0xBB);
    for _ in 0..100 {
        let writeset = random_writeset(&mut rng);
        let snapshot = log.system_version();
        let committed = log.append(writeset.clone(), snapshot);
        assert!(
            !log.prescreen_clear(&writeset, snapshot),
            "footprint committed at {committed} must not be screened out at {snapshot}"
        );
        assert_eq!(log.conflict_after(&writeset, snapshot), Some(committed));
    }
}
