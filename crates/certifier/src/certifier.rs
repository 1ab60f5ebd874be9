//! The certifier's request / response vocabulary and configuration.
//!
//! These are the types of the exact interface of Section 6.1, shared by the
//! in-process [`ShardedCertifier`](crate::ShardedCertifier), the proxies and
//! the wire protocol:
//!
//! * request: `(T.tx_start_version, T.writeset)` plus the replica's current
//!   version so the certifier knows which remote writesets the replica has
//!   not seen yet;
//! * response: the remote writesets, the decision (commit / abort) and the
//!   transaction's commit version — extended, for Tashkent-API, with the
//!   version down to which each remote writeset is conflict-free
//!   (Section 5.2.1).
//!
//! The checkpoint payload codec (a truncation floor plus the log entries
//! above it) also lives here.

use std::sync::Arc;

use tashkent_common::{Error, MetricsRegistry, ReplicaId, Result, Version, WriteSet};
use tashkent_storage::disk::DiskConfig;
use tashkent_storage::wal::WalRecord;

use crate::paxos::ReplicatedLogStats;

/// Encodes a certifier checkpoint payload: the truncation floor followed by
/// the log entries above it, each framed as a WAL commit record (the same
/// checksummed frame the durable log uses).
#[must_use]
pub fn encode_checkpoint_payload(floor: Version, entries: &[(Version, Arc<WriteSet>)]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + entries.len() * 64);
    payload.extend_from_slice(&floor.0.to_be_bytes());
    for (version, writeset) in entries {
        let record = WalRecord::Commit {
            version: *version,
            writeset: (**writeset).clone(),
        };
        payload.extend_from_slice(&record.encode());
    }
    payload
}

/// Decodes a certifier checkpoint payload back into its floor and entries.
///
/// # Errors
///
/// Returns [`Error::Corruption`] if the payload is truncated or a record
/// frame fails its checksum.
pub fn decode_checkpoint_payload(bytes: &[u8]) -> Result<(Version, Vec<(Version, WriteSet)>)> {
    if bytes.len() < 8 {
        return Err(Error::Corruption(
            "truncated certifier checkpoint payload".into(),
        ));
    }
    let floor = Version(u64::from_be_bytes(bytes[0..8].try_into().unwrap()));
    // Unlike WAL replay, a checkpoint image admits no torn tail: every byte
    // must decode, or the image is corrupt.
    let mut buf = bytes::Bytes::copy_from_slice(&bytes[8..]);
    let mut entries = Vec::new();
    loop {
        use bytes::Buf as _;
        if buf.remaining() == 0 {
            break;
        }
        match WalRecord::decode_from(&mut buf)? {
            Some(WalRecord::Commit { version, writeset }) => entries.push((version, writeset)),
            Some(WalRecord::Checkpoint { .. }) => {}
            None => {
                return Err(Error::Corruption(
                    "truncated record frame in certifier checkpoint payload".into(),
                ));
            }
        }
    }
    Ok((floor, entries))
}

/// Configuration of the certifier component.
#[derive(Debug, Clone)]
pub struct CertifierConfig {
    /// Number of certifier nodes (leader + backups).
    pub nodes: usize,
    /// Disk configuration of every node's persistent log.
    pub disk: DiskConfig,
    /// Whether certified writesets are synchronously logged before the
    /// certifier replies (`false` only for the `tashAPInoCERT` analysis).
    pub durable: bool,
    /// Fraction of certification requests aborted at random *after* the full
    /// certification check (Section 9.5's forced abort rates).
    pub forced_abort_rate: f64,
    /// Seed for the forced-abort random choice, so experiments are
    /// repeatable.
    pub seed: u64,
    /// Cluster metrics registry this certifier reports into.  Standalone
    /// certifiers default to a disabled (no-op) registry.
    pub metrics: Arc<MetricsRegistry>,
}

impl Default for CertifierConfig {
    fn default() -> Self {
        CertifierConfig {
            nodes: 3,
            disk: DiskConfig::default(),
            durable: true,
            forced_abort_rate: 0.0,
            seed: 0x7A5B_0001,
            metrics: Arc::new(MetricsRegistry::disabled()),
        }
    }
}

/// A certification request from a replica's proxy.
#[derive(Debug, Clone, PartialEq)]
pub struct CertificationRequest {
    /// The requesting replica.
    pub replica: ReplicaId,
    /// The transaction's snapshot version (`tx_start_version`), possibly
    /// already advanced by local certification at the proxy.
    pub start_version: Version,
    /// The transaction's writeset.
    pub writeset: WriteSet,
    /// The replica's current version (`replica_version`): remote writesets
    /// newer than this are returned, and — for Tashkent-API — each returned
    /// writeset is additionally certified back to this version.
    pub replica_version: Version,
}

/// The certifier's verdict on one update transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificationDecision {
    /// No write-write conflict: the transaction commits globally.
    Commit,
    /// The transaction must abort.
    Abort {
        /// Human-readable reason (conflict version or forced abort).
        reason: String,
        /// `true` if this abort was injected by the forced-abort experiment
        /// rather than caused by a real conflict.
        forced: bool,
    },
}

impl CertificationDecision {
    /// `true` for the commit decision.
    #[must_use]
    pub fn is_commit(&self) -> bool {
        matches!(self, CertificationDecision::Commit)
    }
}

/// A remote writeset returned to a replica.
///
/// The writeset is shared (`Arc`) with the certifier's log: responses to
/// lagging replicas carry the whole unseen suffix, so handing out references
/// instead of deep copies keeps certification off the allocator.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteWriteSet {
    /// The global version the writeset committed at.
    pub commit_version: Version,
    /// The writeset itself.
    pub writeset: std::sync::Arc<WriteSet>,
    /// The writeset is conflict-free against every writeset committed at
    /// versions in `(conflict_free_to, commit_version)`.  A Tashkent-API
    /// proxy may apply it concurrently with other pending writesets only if
    /// `conflict_free_to` does not exceed the replica's applied version
    /// (otherwise an "artificial" conflict would arise, Section 5.2.1).
    pub conflict_free_to: Version,
}

/// The certifier's reply to a certification request.
#[derive(Debug, Clone, PartialEq)]
pub struct CertificationResponse {
    /// Commit or abort.
    pub decision: CertificationDecision,
    /// The version the transaction commits at (only for commits).
    pub commit_version: Option<Version>,
    /// Remote writesets the replica has not seen yet (older than the
    /// transaction's commit version, newer than the replica's version).
    pub remote_writesets: Vec<RemoteWriteSet>,
    /// The certifier's current system version.
    pub system_version: Version,
}

/// Certification counters in the shape proxies and clusters render
/// (see [`ShardedCertifierStats::aggregate`](crate::ShardedCertifierStats::aggregate)).
#[derive(Debug, Clone, Default)]
pub struct CertifierStats {
    /// Certification requests processed.
    pub requests: u64,
    /// Requests that committed.
    pub commits: u64,
    /// Requests aborted because of a real write-write conflict.
    pub conflict_aborts: u64,
    /// Requests aborted by the forced-abort experiment.
    pub forced_aborts: u64,
    /// State of the replicated durable log.
    pub log: ReplicatedLogStats,
}

#[cfg(test)]
mod tests {
    use tashkent_common::{ShardId, TableId, Value, WriteItem};

    use super::*;
    use crate::paxos::CertifierNodeId;
    use crate::sharded::{ShardedCertifier, ShardedCertifierConfig};

    fn ws(keys: &[i64]) -> WriteSet {
        WriteSet::from_items(
            keys.iter()
                .map(|&k| WriteItem::update(TableId(0), k, vec![("x".into(), Value::Int(k))]))
                .collect(),
        )
    }

    fn request(start: u64, replica_version: u64, keys: &[i64]) -> CertificationRequest {
        CertificationRequest {
            replica: ReplicaId(0),
            start_version: Version(start),
            writeset: ws(keys),
            replica_version: Version(replica_version),
        }
    }

    /// The paper's configuration: one certifier group, one shard.
    fn certifier(config: CertifierConfig) -> ShardedCertifier {
        ShardedCertifier::new(ShardedCertifierConfig {
            shards: 1,
            base: config,
        })
    }

    /// A certifier holding six single-key commits, v1..v6 on keys 1..6.
    fn certifier_with_six_commits() -> ShardedCertifier {
        let certifier = certifier(CertifierConfig::default());
        for k in 1..=6 {
            certifier.certify(&request(k - 1, k - 1, &[k as i64])).unwrap();
        }
        certifier
    }

    #[test]
    fn non_conflicting_transactions_commit_in_order() {
        let certifier = certifier(CertifierConfig::default());
        let r1 = certifier.certify(&request(0, 0, &[1])).unwrap();
        let r2 = certifier.certify(&request(0, 0, &[2])).unwrap();
        assert!(r1.decision.is_commit());
        assert!(r2.decision.is_commit());
        assert_eq!(r1.commit_version, Some(Version(1)));
        assert_eq!(r2.commit_version, Some(Version(2)));
        assert_eq!(certifier.system_version(), Version(2));
        // The second response carries the first transaction as a remote
        // writeset (the replica claimed version 0).
        assert_eq!(r2.remote_writesets.len(), 1);
        assert_eq!(r2.remote_writesets[0].commit_version, Version(1));
        let stats = certifier.stats().aggregate();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.log.entries, 2);
    }

    #[test]
    fn conflicting_concurrent_transactions_abort() {
        let certifier = certifier(CertifierConfig::default());
        assert!(certifier
            .certify(&request(0, 0, &[5]))
            .unwrap()
            .decision
            .is_commit());
        // A transaction that also started at version 0 and writes key 5
        // conflicts with the first.
        let response = certifier.certify(&request(0, 0, &[5, 6])).unwrap();
        assert!(!response.decision.is_commit());
        assert!(response.commit_version.is_none());
        // A transaction that started *after* the first committed does not.
        let response = certifier.certify(&request(1, 1, &[5])).unwrap();
        assert!(response.decision.is_commit());
        let stats = certifier.stats();
        assert_eq!(stats.conflict_aborts, 1);
        assert_eq!(stats.commits, 2);
    }

    #[test]
    fn remote_writesets_are_limited_to_unseen_versions() {
        let certifier = certifier(CertifierConfig::default());
        for k in 1..=5 {
            certifier.certify(&request(0, 0, &[k * 10])).unwrap();
        }
        // A replica that has already applied version 3 only gets 4 and 5.
        let response = certifier.certify(&request(5, 3, &[99])).unwrap();
        let versions: Vec<u64> = response
            .remote_writesets
            .iter()
            .map(|r| r.commit_version.value())
            .collect();
        assert_eq!(versions, vec![4, 5]);
    }

    #[test]
    fn extended_certification_reports_artificial_conflicts() {
        let certifier = certifier(CertifierConfig::default());
        // v1 writes key 5; v2 writes key 7; v3 writes key 5 again (its
        // transaction started at version 1 so it does not conflict globally,
        // but it conflicts with v1 when both are applied concurrently).
        certifier.certify(&request(0, 0, &[5])).unwrap();
        certifier.certify(&request(1, 1, &[7])).unwrap();
        certifier.certify(&request(1, 1, &[5])).unwrap();
        // A replica still at version 0 receives all three: v3's
        // conflict_free_to must point at v1.
        let remotes = certifier.writesets_after(Version::ZERO);
        assert_eq!(remotes.len(), 3);
        let v3 = remotes.iter().find(|r| r.commit_version == Version(3)).unwrap();
        assert_eq!(v3.conflict_free_to, Version(1));
        let v2 = remotes.iter().find(|r| r.commit_version == Version(2)).unwrap();
        assert_eq!(v2.conflict_free_to, Version::ZERO);
    }

    #[test]
    fn forced_aborts_follow_the_configured_rate() {
        let certifier = certifier(CertifierConfig {
            forced_abort_rate: 0.4,
            ..CertifierConfig::default()
        });
        let mut aborted: u64 = 0;
        for i in 0..500 {
            let version = certifier.system_version().value();
            let response = certifier.certify(&request(version, version, &[i])).unwrap();
            if !response.decision.is_commit() {
                aborted += 1;
            }
        }
        let rate = aborted as f64 / 500.0;
        assert!((rate - 0.4).abs() < 0.08, "observed forced abort rate {rate}");
        let stats = certifier.stats();
        assert_eq!(stats.forced_aborts, aborted);
        assert_eq!(stats.conflict_aborts, 0);
    }

    #[test]
    fn certification_requires_a_majority_of_nodes() {
        let certifier = certifier(CertifierConfig::default());
        certifier.certify(&request(0, 0, &[1])).unwrap();
        certifier.crash_node(CertifierNodeId(0));
        // Leader fails over, still available.
        assert!(certifier.is_available());
        assert_ne!(certifier.shard_leader(ShardId(0)), CertifierNodeId(0));
        certifier.certify(&request(1, 1, &[2])).unwrap();
        certifier.crash_node(CertifierNodeId(1));
        assert!(!certifier.is_available());
        assert!(matches!(
            certifier.certify(&request(2, 2, &[3])),
            Err(Error::Unavailable(_))
        ));
        // Recovering one node restores progress.
        certifier.recover_node(CertifierNodeId(0)).unwrap();
        assert!(certifier.is_available());
        certifier.certify(&request(2, 2, &[3])).unwrap();
    }

    #[test]
    fn checkpoint_payload_round_trips() {
        let entries: Vec<(Version, Arc<WriteSet>)> = (3..=5)
            .map(|v| (Version(v), Arc::new(ws(&[v as i64]))))
            .collect();
        let payload = encode_checkpoint_payload(Version(2), &entries);
        let (floor, decoded) = decode_checkpoint_payload(&payload).unwrap();
        assert_eq!(floor, Version(2));
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].0, Version(3));
        assert_eq!(decoded[2].0, Version(5));
        // Truncated payloads are rejected loudly.
        assert!(matches!(
            decode_checkpoint_payload(&payload[..7]),
            Err(Error::Corruption(_))
        ));
        assert!(matches!(
            decode_checkpoint_payload(&payload[..payload.len() - 1]),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn truncation_is_clamped_to_the_sealed_checkpoint() {
        let certifier = certifier_with_six_commits();
        // No checkpoint sealed yet: nothing may be dropped.
        assert_eq!(certifier.truncate_below(Version(4)).unwrap(), 0);
        assert_eq!(certifier.truncation_floor(), Version::ZERO);
        // Seal at version 6, then truncate with a watermark of 4.
        assert_eq!(certifier.seal_checkpoint(), Version(6));
        assert_eq!(certifier.checkpoint_version(), Version(6));
        assert_eq!(certifier.truncate_below(Version(4)).unwrap(), 4);
        assert_eq!(certifier.truncation_floor(), Version(4));
        assert_eq!(certifier.log_len(), 2);
        // The durable log was trimmed too.
        let leader = certifier.shard_leader(ShardId(0));
        let durable = certifier.shard_durable_entries(ShardId(0), leader).unwrap();
        let versions: Vec<u64> = durable.iter().map(|(v, _)| v.value()).collect();
        assert_eq!(versions, vec![5, 6]);
    }

    #[test]
    fn certification_above_the_floor_still_detects_conflicts() {
        let certifier = certifier_with_six_commits();
        certifier.seal_checkpoint();
        certifier.truncate_below(Version(4)).unwrap();
        // Key 5 committed at v5 (above the floor): a stale snapshot at v4
        // still conflicts with it.
        let response = certifier.certify(&request(4, 4, &[5])).unwrap();
        assert!(!response.decision.is_commit());
        // A fresh snapshot commits and versions keep advancing densely.
        let response = certifier.certify(&request(6, 6, &[7])).unwrap();
        assert_eq!(response.commit_version, Some(Version(7)));
    }

    #[test]
    fn requests_below_the_floor_are_refused_conservatively() {
        let certifier = certifier_with_six_commits();
        certifier.seal_checkpoint();
        certifier.truncate_below(Version(4)).unwrap();
        // A snapshot below the floor aborts conservatively (retryable).
        let response = certifier.certify(&request(3, 4, &[99])).unwrap();
        assert!(matches!(
            response.decision,
            CertificationDecision::Abort { forced: false, .. }
        ));
        // A replica whose applied version is below the floor cannot be
        // served a gap-free suffix: loud error, state transfer required.
        assert!(matches!(
            certifier.certify(&request(4, 3, &[99])),
            Err(Error::Unavailable(_))
        ));
        let stats = certifier.stats();
        assert_eq!(stats.conflict_aborts, 1);
    }

    #[test]
    fn group_commit_statistics_are_exposed() {
        let certifier = certifier(CertifierConfig::default());
        for k in 0..20 {
            certifier
                .certify(&request(k, k, &[k as i64 + 100]))
                .unwrap();
        }
        let stats = certifier.stats().aggregate();
        assert_eq!(stats.log.entries, 20);
        assert!(stats.log.leader_fsyncs > 0);
        assert!(stats.log.leader_log_bytes > 0);
        assert!(stats.log.leader_group_commit.mean_group_size() >= 1.0);
    }
}
