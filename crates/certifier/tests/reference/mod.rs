//! The correctness anchor shared by the certifier equivalence tests: a
//! textbook GSI certifier over one global log, and a harness that replays
//! randomized request traces against it and a [`ShardedCertifier`].
//!
//! The reference is deliberately naive — one `Vec` of committed writesets,
//! a linear scan per request, no sharding, no epochs, no pre-screen, no
//! durable log — so that it can be checked by reading it against Section
//! 6.1 (and Section 5.2.1 for the extended `conflict_free_to` bound).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent_certifier::{
    CertificationDecision, CertificationRequest, CertificationResponse, CertifierConfig,
    CertifierStats, RemoteWriteSet, ShardedCertifier, ShardedCertifierConfig,
};
use tashkent_common::{Error, ReplicaId, Result, TableId, Value, Version, WriteItem, WriteSet};

/// The textbook certifier: intersect against every writeset committed after
/// the snapshot, commit at the next version otherwise.
pub struct ReferenceCertifier {
    log: Vec<(Version, WriteSet)>,
    /// Entries at or below the floor have been truncated away.
    floor: Version,
    version: Version,
    rng: StdRng,
    forced_abort_rate: f64,
    /// Decision counters (the durable-log part stays at its default).
    pub stats: CertifierStats,
}

impl ReferenceCertifier {
    /// A reference with the same forced-abort rate and seed as `config`.
    pub fn new(config: &CertifierConfig) -> Self {
        ReferenceCertifier {
            log: Vec::new(),
            floor: Version::ZERO,
            version: Version::ZERO,
            rng: StdRng::seed_from_u64(config.seed),
            forced_abort_rate: config.forced_abort_rate,
            stats: CertifierStats::default(),
        }
    }

    pub fn system_version(&self) -> Version {
        self.version
    }

    pub fn floor(&self) -> Version {
        self.floor
    }

    /// Drops every entry at or below `watermark`.
    pub fn truncate_below(&mut self, watermark: Version) {
        self.floor = self.floor.max(watermark.min(self.version));
        let floor = self.floor;
        self.log.retain(|(version, _)| *version > floor);
    }

    pub fn certify(&mut self, request: &CertificationRequest) -> Result<CertificationResponse> {
        if request.replica_version < self.floor {
            return Err(Error::Unavailable(
                "replica below the truncation floor".into(),
            ));
        }
        self.stats.requests += 1;
        let conflict = self
            .log
            .iter()
            .find(|(version, writeset)| {
                *version > request.start_version && writeset.conflicts_with(&request.writeset)
            })
            .map(|(version, _)| *version);
        let abort = |reason: String, forced| CertificationDecision::Abort { reason, forced };
        let decision = if request.start_version < self.floor {
            self.stats.conflict_aborts += 1;
            abort(
                format!("snapshot {} below truncation floor", request.start_version),
                false,
            )
        } else if let Some(version) = conflict {
            self.stats.conflict_aborts += 1;
            abort(format!("write-write conflict with {version}"), false)
        } else if self.forced_abort_rate > 0.0 && self.rng.gen::<f64>() < self.forced_abort_rate {
            self.stats.forced_aborts += 1;
            abort("forced abort (experiment)".into(), true)
        } else {
            CertificationDecision::Commit
        };
        // Remote writesets are gathered before the commit is appended.
        let remote_writesets = self.writesets_after(request.replica_version);
        let commit_version = decision.is_commit().then(|| {
            self.stats.commits += 1;
            self.version = self.version.next();
            self.log.push((self.version, request.writeset.clone()));
            self.version
        });
        Ok(CertificationResponse {
            decision,
            commit_version,
            remote_writesets,
            system_version: self.version,
        })
    }

    /// Every entry after `since`, each with the newest entry in
    /// `(since, commit)` it conflicts with as its `conflict_free_to` (or
    /// `since` when there is none).
    pub fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet> {
        let after: Vec<&(Version, WriteSet)> = self
            .log
            .iter()
            .filter(|(version, _)| *version > since)
            .collect();
        after
            .iter()
            .enumerate()
            .map(|(i, (version, writeset))| RemoteWriteSet {
                commit_version: *version,
                writeset: std::sync::Arc::new(writeset.clone()),
                conflict_free_to: after[..i]
                    .iter()
                    .rev()
                    .find(|(_, earlier)| earlier.conflicts_with(writeset))
                    .map_or(since, |(earlier, _)| *earlier),
            })
            .collect()
    }
}

/// A randomized writeset: 1–6 items over 4 tables and a smallish key space,
/// so traces carry real conflicts, repeats and (under sharding) multi-shard
/// writesets.
pub fn random_writeset(rng: &mut StdRng) -> WriteSet {
    let items = rng.gen_range(1..=6);
    WriteSet::from_items(
        (0..items)
            .map(|_| {
                let table = TableId(rng.gen_range(0..4));
                let key = rng.gen_range(0..64i64);
                WriteItem::update(table, key, vec![("c".into(), Value::Int(key))])
            })
            .collect(),
    )
}

/// One randomized request whose snapshot and replica version lag `system`
/// by a few versions.
pub fn random_request(rng: &mut StdRng, system: Version) -> CertificationRequest {
    let lag = rng.gen_range(0..4u64).min(system.value());
    let replica_lag = rng.gen_range(0..6u64).min(system.value());
    CertificationRequest {
        replica: ReplicaId(rng.gen_range(0..3)),
        start_version: Version(system.value() - lag),
        writeset: random_writeset(rng),
        replica_version: Version(system.value() - replica_lag),
    }
}

/// The comparable projection of a response: the decision (abort reasons
/// included), commit version, system version, and `(version, writeset len,
/// conflict_free_to)` per remote writeset.
pub type ResponseDigest = (
    CertificationDecision,
    Option<u64>,
    u64,
    Vec<(u64, usize, u64)>,
);

pub fn digest(response: &CertificationResponse) -> ResponseDigest {
    (
        response.decision.clone(),
        response.commit_version.map(Version::value),
        response.system_version.value(),
        stream_digest(&response.remote_writesets),
    )
}

pub fn stream_digest(stream: &[RemoteWriteSet]) -> Vec<(u64, usize, u64)> {
    stream
        .iter()
        .map(|r| {
            (
                r.commit_version.value(),
                r.writeset.len(),
                r.conflict_free_to.value(),
            )
        })
        .collect()
}

/// Asserts that the candidate's counters and full remote stream (from
/// several starting points) match the reference's, and that the trace was
/// not vacuous: it must have seen commits and conflict aborts, and forced
/// aborts whenever they were enabled.
pub fn assert_same_end_state(
    reference: &ReferenceCertifier,
    candidate: &ShardedCertifier,
    forced_abort_rate: f64,
) {
    assert_eq!(candidate.system_version(), reference.system_version());
    let system = reference.system_version().value();
    for since in [0, 5, system / 2, system.saturating_sub(3)] {
        let since = Version(since).max(reference.floor());
        assert_eq!(
            stream_digest(&candidate.writesets_after(since)),
            stream_digest(&reference.writesets_after(since)),
            "writesets_after({since})"
        );
    }
    let (expected, actual) = (&reference.stats, candidate.stats());
    assert_eq!(
        (expected.requests, expected.commits),
        (actual.requests, actual.commits)
    );
    assert_eq!(
        (expected.conflict_aborts, expected.forced_aborts),
        (actual.conflict_aborts, actual.forced_aborts)
    );
    assert!(expected.commits > 0, "the trace committed nothing");
    assert!(expected.conflict_aborts > 0, "the trace saw no conflict");
    assert_eq!(
        expected.forced_aborts > 0,
        forced_abort_rate > 0.0,
        "forced aborts occur exactly when enabled"
    );
}

/// Replays one serial randomized trace of `trace` requests against both
/// certifiers, response by response.  With `truncate_after = Some(n)`, both
/// seal and truncate at half the system version after `n` requests, and a
/// share of the later requests reach below the new floor (stale snapshots
/// abort conservatively; stale replicas are refused).
pub fn assert_serial_trace(
    shards: usize,
    forced_abort_rate: f64,
    seed: u64,
    trace: usize,
    truncate_after: Option<usize>,
) {
    let base = CertifierConfig {
        forced_abort_rate,
        ..CertifierConfig::default()
    };
    let mut reference = ReferenceCertifier::new(&base);
    let candidate = ShardedCertifier::new(ShardedCertifierConfig { shards, base });
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut floor_aborts, mut refusals) = (0u32, 0u32);
    for step in 0..trace {
        if truncate_after == Some(step) {
            let watermark = Version(reference.system_version().value() / 2);
            candidate.seal_checkpoint();
            candidate.truncate_below(watermark).unwrap();
            reference.truncate_below(watermark);
            assert_eq!(candidate.truncation_floor(), reference.floor(), "floor");
        }
        let system = reference.system_version();
        assert_eq!(
            candidate.system_version(),
            system,
            "shards {shards} step {step}"
        );
        let mut request = random_request(&mut rng, system);
        let floor = reference.floor().value();
        if floor > 0 && rng.gen_bool(0.2) {
            let stale = Version(floor - 1);
            if rng.gen_bool(0.5) {
                request.start_version = stale;
            } else {
                request.replica_version = stale;
            }
        }
        match (reference.certify(&request), candidate.certify(&request)) {
            (Ok(expected), Ok(actual)) => {
                if matches!(&expected.decision,
                    CertificationDecision::Abort { reason, .. } if reason.contains("floor"))
                {
                    floor_aborts += 1;
                }
                assert_eq!(
                    digest(&actual),
                    digest(&expected),
                    "shards {shards} step {step}"
                );
            }
            (Err(Error::Unavailable(_)), Err(Error::Unavailable(_))) => refusals += 1,
            (expected, actual) => {
                panic!("shards {shards} step {step}: {expected:?} vs {actual:?}")
            }
        }
    }
    if truncate_after.is_some() {
        assert!(floor_aborts > 0, "no snapshot reached below the floor");
        assert!(refusals > 0, "no replica reached below the floor");
    }
    assert_same_end_state(&reference, &candidate, forced_abort_rate);
}
