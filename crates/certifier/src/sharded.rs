//! The sharded certifier: certification partitioned across independent
//! shards so writeset intersection scales beyond one thread.
//!
//! [`ShardedCertifier`] fronts N independent certification shards.  Each
//! shard owns a slice of the row space (determined by the deterministic
//! [`ShardMap`]), keeps its own in-memory [`CertifierLog`] of the committed
//! writesets that touch its slice, and has its own majority-replicated
//! durable log ([`ReplicatedLog`]) — the paper's Paxos-durability model,
//! instantiated once per shard.  A *global sequencer* assigns cluster-wide
//! commit versions so that every replica still applies one totally-ordered
//! stream of writesets.  With one shard (the default cluster configuration)
//! this is exactly the paper's single certifier.
//!
//! # Certification protocol
//!
//! * **Single-shard writesets** (the common case, and every writeset when
//!   there is one shard) ride that shard's epoch queue: an epoch leader
//!   certifies a drained batch against the shard's log under one lock and
//!   one grouped majority fsync, concurrently with every other shard.
//! * **Multi-shard writesets** use an ordered two-phase certify: acquire all
//!   owning shards in ascending shard-id order, decide, append, release.
//!   The global acquisition order makes concurrent multi-shard
//!   certifications deadlock-free, and holding every owning shard across
//!   the decision makes the outcome equal to a serial scan of one global
//!   log.
//!
//! Correctness hinges on one observation: a write-write conflict between two
//! writesets is witnessed by a shared `(table, key)` pair, and that pair is
//! owned by exactly one shard — a shard both writesets certify on.  Logging
//! the **full** writeset on every owning shard therefore preserves every
//! conflict (any intersection found on any shard is a real one, and every
//! real one is found on the shared item's shard).
//!
//! # Version streams
//!
//! The sequencer's version counter is only advanced while the committing
//! transaction holds both its shard locks and the sequencer lock, so a
//! reader that samples `system_version` *first* and the per-shard streams
//! *afterwards* observes every commit at or below the sampled version —
//! [`merge_shard_streams`] exploits this to reassemble a gap-free global
//! stream from per-shard streams (the proxy-side fan-in).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent_common::metrics::{CounterId, GaugeId, Stage};
use tashkent_common::{
    Component, Error, Event, EventKind, MetricsRegistry, Result, RowKey, ShardId, ShardMap,
    TableId, Version, WriteSet,
};

use tashkent_storage::checkpoint::CheckpointStore;

use crate::batch::{EpochQueue, Slot};
use crate::certifier::{
    encode_checkpoint_payload, CertificationDecision, CertificationRequest, CertificationResponse,
    CertifierConfig, CertifierStats, RemoteWriteSet,
};
use crate::log::CertifierLog;
use crate::paxos::{CertifierNodeId, ReplicatedLog, ReplicatedLogStats};

/// Configuration of the sharded certifier.
#[derive(Debug, Clone)]
pub struct ShardedCertifierConfig {
    /// Number of certification shards.
    pub shards: usize,
    /// Per-shard configuration: each shard gets its own `base.nodes`-node
    /// replicated durable log with `base.disk` disks.  The forced-abort rate
    /// and seed apply globally (one draw per surviving certification, in
    /// global commit order).
    pub base: CertifierConfig,
}

impl ShardedCertifierConfig {
    /// A sharded configuration with `shards` shards and defaults otherwise.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        ShardedCertifierConfig {
            shards,
            base: CertifierConfig::default(),
        }
    }
}

/// One shard's slice of the certifier state.
struct Shard {
    /// In-memory certified-writeset log restricted to this shard's rows
    /// (full writesets are stored; see the module docs for why that is both
    /// sound and complete).
    log: Mutex<CertifierLog>,
    /// This shard's majority-replicated durable log.
    replicated: ReplicatedLog,
    /// Sealed checkpoint images of this shard's log; the newest one bounds
    /// how far this shard may truncate.
    checkpoints: CheckpointStore,
}

/// The global sequencer: version counter, forced-abort randomness and
/// request counters.
struct Sequencer {
    version: Version,
    rng: StdRng,
    requests: u64,
    commits: u64,
    conflict_aborts: u64,
    forced_aborts: u64,
    multi_shard_commits: u64,
}

/// Counters exposed by [`ShardedCertifier::stats`].
#[derive(Debug, Clone, Default)]
pub struct ShardedCertifierStats {
    /// Certification requests processed.
    pub requests: u64,
    /// Requests that committed.
    pub commits: u64,
    /// Requests aborted because of a real write-write conflict.
    pub conflict_aborts: u64,
    /// Requests aborted by the forced-abort experiment.
    pub forced_aborts: u64,
    /// Commits whose writeset spanned more than one shard (these paid the
    /// ordered two-phase certify).
    pub multi_shard_commits: u64,
    /// Per-shard state of the replicated durable logs.
    pub shards: Vec<ReplicatedLogStats>,
}

impl ShardedCertifierStats {
    /// Collapses the per-shard statistics into one [`CertifierStats`] (log
    /// counters summed across shards, group commit merged), the shape
    /// proxies and clusters render.
    #[must_use]
    pub fn aggregate(&self) -> CertifierStats {
        let mut log = ReplicatedLogStats::default();
        for shard in &self.shards {
            log.entries += shard.entries;
            log.leader_fsyncs += shard.leader_fsyncs;
            log.leader_log_bytes += shard.leader_log_bytes;
            log.leader_group_commit.merge(&shard.leader_group_commit);
            log.nodes_up += shard.nodes_up;
            log.nodes_total += shard.nodes_total;
        }
        CertifierStats {
            requests: self.requests,
            commits: self.commits,
            conflict_aborts: self.conflict_aborts,
            forced_aborts: self.forced_aborts,
            log,
        }
    }
}

/// One shard's slice of the global version stream, as returned by
/// [`ShardedCertifier::shard_streams_after`].
#[derive(Debug, Clone)]
pub struct ShardStream {
    /// The shard the entries come from.
    pub shard: ShardId,
    /// The shard's entries after the requested version, ascending.  A
    /// multi-shard writeset appears in the stream of every owning shard
    /// (with possibly different per-shard `conflict_free_to` bounds).
    pub entries: Vec<RemoteWriteSet>,
}

/// Merges per-shard version streams into one gap-free global stream.
///
/// Entries are merged by ascending commit version; a multi-shard writeset
/// present in several streams is emitted once, with the **newest** (maximum)
/// of its per-shard `conflict_free_to` bounds — each shard only checked the
/// entries it owns, so the global bound is the max over shards.  Entries
/// above `up_to` are dropped: only versions at or below the sampled system
/// version are guaranteed to have reached every owning shard's stream.
///
/// This is the proxy-side *fan-in*: above this merge the proxy's serial and
/// concurrent apply pipelines see one stream, whatever the shard count.
#[must_use]
pub fn merge_shard_streams(streams: &[ShardStream], up_to: Version) -> Vec<RemoteWriteSet> {
    let mut cursors: Vec<std::slice::Iter<'_, RemoteWriteSet>> =
        streams.iter().map(|s| s.entries.iter()).collect();
    let mut heads: Vec<Option<&RemoteWriteSet>> =
        cursors.iter_mut().map(Iterator::next).collect();
    let mut merged = Vec::new();
    while let Some(version) = heads.iter().flatten().map(|r| r.commit_version).min() {
        if version > up_to {
            break;
        }
        let mut next: Option<RemoteWriteSet> = None;
        for (head, cursor) in heads.iter_mut().zip(cursors.iter_mut()) {
            if head.map(|r| r.commit_version) != Some(version) {
                continue;
            }
            let entry = head.expect("checked above");
            match &mut next {
                None => next = Some(entry.clone()),
                Some(merged_entry) => {
                    merged_entry.conflict_free_to =
                        merged_entry.conflict_free_to.max(entry.conflict_free_to);
                }
            }
            *head = cursor.next();
        }
        merged.push(next.expect("at least one stream held this version"));
    }
    merged
}

/// A certification decision stripped of its remote-writeset stream: what an
/// epoch leader hands back to each submitting caller, which then assembles
/// its own [`CertificationResponse`] (the remote-stream gather — the
/// per-replica part of the response — stays on the caller's thread).
#[derive(Debug, Clone)]
struct Decided {
    decision: CertificationDecision,
    commit_version: Option<Version>,
    /// The system version at decision time; for commits this equals the
    /// commit version, for aborts the version the log stood at.
    system_version: Version,
}

/// A certify waiting in an epoch: the slot its decision resolves through.
type DecisionSlot = Arc<Slot<Result<Decided>>>;

impl Decided {
    /// The upper bound of the remote stream owed to the requester: one below
    /// its own commit for commits (the certifier never resends a replica its
    /// own writeset), the decision-time system version for aborts.
    fn remote_bound(&self) -> Version {
        self.commit_version
            .map_or(self.system_version, |commit| commit.prev())
    }
}

/// The sharded certifier component shared by every replica proxy.
pub struct ShardedCertifier {
    map: ShardMap,
    shards: Vec<Shard>,
    sequencer: Mutex<Sequencer>,
    forced_abort_rate: f64,
    metrics: Arc<MetricsRegistry>,
    /// One epoch queue per shard: single-shard writesets (the common case)
    /// are drained and certified in per-shard epochs, amortizing the
    /// shard-log lock and the majority fsync.  Multi-shard writesets take
    /// the direct ordered two-phase path.
    batchers: Vec<EpochQueue<CertificationRequest, Result<Decided>>>,
    /// Cache of [`ShardedCertifier::truncation_floor`], refreshed whenever a
    /// truncation moves a shard floor.  Certification reads this instead of
    /// locking every shard log on every request; floors only move under
    /// [`ShardedCertifier::truncate_below`], so the cache is exact between
    /// truncations (and during one it lags exactly like the locked read
    /// did — the floor sample always preceded taking the shard guards).
    floor_cache: AtomicU64,
}

impl std::fmt::Debug for ShardedCertifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCertifier")
            .field("shards", &self.shards.len())
            .field("system_version", &self.system_version())
            .finish()
    }
}

impl ShardedCertifier {
    /// Creates a sharded certifier group.
    ///
    /// # Panics
    ///
    /// Panics if the shard count fails [`ShardMap::validate`]; build the
    /// configuration through a validated [`tashkent_common::ClusterConfig`]
    /// to surface the problem as an error instead.
    #[must_use]
    pub fn new(config: ShardedCertifierConfig) -> Self {
        let map = ShardMap::new(config.shards);
        map.validate().expect("invalid shard count");
        let shards = (0..config.shards)
            .map(|_| Shard {
                log: Mutex::new(CertifierLog::new()),
                replicated: ReplicatedLog::new(
                    config.base.nodes,
                    config.base.disk.clone(),
                    config.base.durable,
                ),
                checkpoints: CheckpointStore::new(),
            })
            .collect();
        ShardedCertifier {
            map,
            shards,
            sequencer: Mutex::new(Sequencer {
                version: Version::ZERO,
                rng: StdRng::seed_from_u64(config.base.seed),
                requests: 0,
                commits: 0,
                conflict_aborts: 0,
                forced_aborts: 0,
                multi_shard_commits: 0,
            }),
            forced_abort_rate: config.base.forced_abort_rate.clamp(0.0, 1.0),
            metrics: config.base.metrics,
            batchers: (0..config.shards).map(|_| EpochQueue::new()).collect(),
            floor_cache: AtomicU64::new(0),
        }
    }

    /// The shard map replicas should use to route and partition work.
    #[must_use]
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// Number of certification shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global system version (number of committed update transactions).
    #[must_use]
    pub fn system_version(&self) -> Version {
        self.sequencer.lock().version
    }

    /// `true` if every shard's replicated group has a majority up.
    ///
    /// A single down shard stalls any certification touching it *and* the
    /// replicas' refresh stream (the merge cannot prove a gap-free prefix
    /// without that shard), so availability is all-shards.
    #[must_use]
    pub fn is_available(&self) -> bool {
        self.shards.iter().all(|s| s.replicated.is_available())
    }

    /// The current leader node of one shard's replicated group.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_leader(&self, shard: ShardId) -> CertifierNodeId {
        self.shards[shard.index()].replicated.leader()
    }

    /// Total number of nodes in each shard's replicated group.
    #[must_use]
    pub fn nodes_per_shard(&self) -> usize {
        self.shards[0].replicated.node_count()
    }

    /// The up nodes of one shard's replicated group, in node-id order
    /// (fault targeting: leaders and followers are picked from this list).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_up_nodes(&self, shard: ShardId) -> Vec<CertifierNodeId> {
        self.shards[shard.index()].replicated.up_nodes()
    }

    /// Crashes one node of one shard's replicated group (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn crash_shard_node(&self, shard: ShardId, node: CertifierNodeId) {
        self.shards[shard.index()].replicated.crash_node(node);
    }

    /// Recovers a crashed node of one shard's group via state transfer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unavailable`] if no up node of the shard can donate
    /// its log.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn recover_shard_node(&self, shard: ShardId, node: CertifierNodeId) -> Result<()> {
        self.shards[shard.index()].replicated.recover_node(node)
    }

    /// Crashes certifier node `node` on **every** shard's group — the model
    /// of one physical certifier machine (hosting one member of each shard
    /// group) going down.
    pub fn crash_node(&self, node: CertifierNodeId) {
        for shard in &self.shards {
            shard.replicated.crash_node(node);
        }
    }

    /// Recovers certifier node `node` on every shard's group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unavailable`] if any shard has no donor node up.
    pub fn recover_node(&self, node: CertifierNodeId) -> Result<()> {
        for shard in &self.shards {
            shard.replicated.recover_node(node)?;
        }
        Ok(())
    }

    /// Reads the durable log of one node of one shard's group (recovery
    /// tooling and the crash-fault tests).
    ///
    /// # Errors
    ///
    /// Propagates decode errors and unknown-node errors.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_durable_entries(
        &self,
        shard: ShardId,
        node: CertifierNodeId,
    ) -> Result<Vec<(Version, WriteSet)>> {
        self.shards[shard.index()].replicated.durable_entries(node)
    }

    /// The shards owning `writeset`, falling back to shard 0 for an empty
    /// writeset so that even degenerate requests have a deterministic home
    /// (empty writesets are accepted and versioned like any other).
    fn owning_shards(&self, writeset: &WriteSet) -> Vec<ShardId> {
        let shards = self.map.shards_of(writeset);
        if shards.is_empty() {
            vec![ShardId(0)]
        } else {
            shards
        }
    }

    /// Certifies an update transaction (Section 6.1 pseudo-code).
    ///
    /// At any shard count the decisions, commit versions and remote streams
    /// equal those of a textbook serial certifier scanning one global log
    /// (the equivalence tests in `tests/sharded_equivalence.rs` and
    /// `tests/batch_equivalence.rs` pin this down).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unavailable`] if any owning shard has lost its
    /// majority; certification *decisions* (including aborts) are reported
    /// in the response, not as errors.
    pub fn certify(&self, request: &CertificationRequest) -> Result<CertificationResponse> {
        let owning = self.owning_shards(&request.writeset);
        for shard in &owning {
            if !self.shards[shard.index()].replicated.is_available() {
                return Err(Error::Unavailable(format!(
                    "certifier {shard} majority not available"
                )));
            }
        }

        // The merged remote stream spans every shard: if any shard has
        // trimmed past the replica's version, the gap-free suffix this
        // response promises cannot be assembled.  State transfer instead.
        let floor = Version(self.floor_cache.load(Ordering::Acquire));
        if request.replica_version < floor {
            return Err(Error::Unavailable(format!(
                "replica {} at version {} is below the certifier truncation floor {floor}; \
                 state transfer required",
                request.replica.value(),
                request.replica_version
            )));
        }

        // Inbox depth: requests currently inside certification (across all
        // shards — per-shard depth would need per-shard guards).
        let _inflight = self.metrics.gauge_guard(GaugeId::CertifierInflight);
        self.metrics.incr(CounterId::CertifyRequests);

        // Single-shard writesets ride the shard's epoch queue: an epoch
        // leader certifies a whole drained batch under one shard-log lock
        // and one grouped majority fsync.  Multi-shard writesets take the
        // direct ordered two-phase certify below (they must hold several
        // shard locks at once, which an epoch leader — holding exactly one —
        // cannot interleave with).
        if let [shard] = owning[..] {
            let decided = self.batchers[shard.index()]
                .submit(request.clone(), |epoch| self.process_shard_epoch(shard, epoch))?;
            // The remote-stream fan-in runs on the submitting thread,
            // bounded by the decision-time version (one below our own
            // commit, or the abort-time system version) — identical to the
            // direct path's bound.
            let bound = decided.remote_bound();
            return Ok(CertificationResponse {
                decision: decided.decision,
                commit_version: decided.commit_version,
                remote_writesets: self.remote_writesets_between(request.replica_version, bound),
                system_version: decided.system_version,
            });
        }

        // Phase 1 (acquire): lock every owning shard in ascending shard-id
        // order.  `ShardMap::shards_of` returns them sorted, which is the
        // global acquisition order that keeps concurrent multi-shard
        // certifications deadlock-free.
        let mut guards: Vec<MutexGuard<'_, CertifierLog>> = owning
            .iter()
            .map(|s| self.shards[s.index()].log.lock())
            .collect();

        // A snapshot below an owning shard's truncation floor can no longer
        // be certified there — part of the suffix it must be checked against
        // is gone.  Checked under the shard guards (truncation takes the
        // same locks), and answered with a conservative, retryable abort.
        let floored = guards
            .iter()
            .any(|log| request.start_version < log.floor());

        // Intersection test against every owning shard's log suffix.  The
        // oldest conflicting version across shards is what a forward scan of
        // one global log would report.
        let conflict = guards
            .iter()
            .filter_map(|log| log.conflict_after(&request.writeset, request.start_version))
            .min();

        // Prepare the (probable) commit's log entry — writeset clone and
        // footprint hashing — *before* the global sequencer lock, so the
        // cluster-wide serialization point stays as short as version
        // assignment plus per-shard Vec pushes.  Wasted only on forced
        // aborts, which are an experiment knob.
        let commit_material = if conflict.is_none() && !floored {
            let writeset = std::sync::Arc::new(request.writeset.clone());
            let footprint = std::sync::Arc::new(writeset.footprint());
            Some((writeset, footprint))
        } else {
            None
        };

        // Decide under the sequencer lock (never acquire a shard lock while
        // holding it — the sequencer is the innermost lock).
        let mut sequencer = self.sequencer.lock();
        sequencer.requests += 1;
        let decision = if floored {
            sequencer.conflict_aborts += 1;
            Some(CertificationDecision::Abort {
                reason: format!(
                    "snapshot {} below truncation floor",
                    request.start_version
                ),
                forced: false,
            })
        } else if let Some(conflict_version) = conflict {
            sequencer.conflict_aborts += 1;
            Some(CertificationDecision::Abort {
                reason: format!("write-write conflict with {conflict_version}"),
                forced: false,
            })
        } else if self.forced_abort_rate > 0.0
            && sequencer.rng.gen::<f64>() < self.forced_abort_rate
        {
            sequencer.forced_aborts += 1;
            Some(CertificationDecision::Abort {
                reason: "forced abort (experiment)".into(),
                forced: true,
            })
        } else {
            None
        };
        if let Some(decision) = decision {
            let system_version = sequencer.version;
            drop(sequencer);
            drop(guards);
            self.metrics.incr(CounterId::CertifyAborts);
            self.metrics.emit(
                Event::new(Component::Certifier, EventKind::CertifyAbort).shard(owning[0].index()),
            );
            return Ok(CertificationResponse {
                decision,
                commit_version: None,
                remote_writesets: self
                    .remote_writesets_between(request.replica_version, system_version),
                system_version,
            });
        }

        // Commit: assign the next global version and append the full
        // writeset to every owning shard's log.  The version advance and the
        // appends happen inside one sequencer critical section while the
        // shard guards are held — the invariant the stream merge relies on.
        let commit_version = sequencer.version.next();
        sequencer.version = commit_version;
        sequencer.commits += 1;
        if owning.len() > 1 {
            sequencer.multi_shard_commits += 1;
        }
        let (writeset, footprint) = commit_material.expect("commit implies no conflict");
        for log in &mut guards {
            log.append_at_with_footprint(
                commit_version,
                std::sync::Arc::clone(&writeset),
                std::sync::Arc::clone(&footprint),
                request.start_version,
            );
        }
        let system_version = commit_version;
        drop(sequencer);
        drop(guards);

        // Make the decision durable before announcing it — on the writeset's
        // *home shard* (its lowest owning shard id) only.  One majority fsync
        // per commit; what sharding adds is that different home shards
        // group-commit on independent disks.  Every commit is durable in
        // exactly one shard group's majority, so the union of the shard
        // groups' durable logs is the full certified history (re-partitioned
        // through the shard map when in-memory shard logs must be rebuilt).
        let home = owning[0];
        if self.metrics.is_enabled() {
            let durable_started = Instant::now();
            self.shards[home.index()]
                .replicated
                .append(commit_version, &request.writeset)?;
            self.metrics
                .record_stage(Stage::Durable, durable_started.elapsed());
            self.metrics.incr(CounterId::DurableAppends);
            self.metrics.incr(CounterId::CertifyCommits);
            self.metrics.record_shard_commit(home.index());
            self.metrics.emit(
                Event::new(Component::Certifier, EventKind::CertifyCommit)
                    .version(commit_version.0)
                    .shard(home.index()),
            );
            self.metrics.emit(
                Event::new(Component::Certifier, EventKind::DurableAppend)
                    .version(commit_version.0)
                    .shard(home.index()),
            );
        } else {
            self.shards[home.index()]
                .replicated
                .append(commit_version, &request.writeset)?;
        }

        Ok(CertificationResponse {
            decision: CertificationDecision::Commit,
            commit_version: Some(commit_version),
            // Bounded at the version *below* the transaction's own commit —
            // a serial certifier's gather-before-append window.
            // The bound must NOT be re-sampled here: a commit that lands
            // after ours would enter the stream while our own version is
            // excluded, and a proxy applying that stream would advance past
            // its own commit without ever applying it (the certifier never
            // resends versions at or below a replica's reported version).
            remote_writesets: self
                .remote_writesets_between(request.replica_version, commit_version.prev()),
            system_version,
        })
    }

    /// Certifies one drained epoch of single-shard requests owned by
    /// `shard`, in arrival order — the per-shard epoch leader's body.
    ///
    /// The epoch's wins: one shard-lock acquisition, one global-sequencer
    /// acquisition (on the two-phase fast path), a footprint pre-screen that
    /// lets provably conflict-free writesets skip the suffix scan, and one
    /// grouped majority fsync on the shard's durable log.
    fn process_shard_epoch(
        &self,
        shard: ShardId,
        epoch: Vec<(CertificationRequest, DecisionSlot)>,
    ) {
        // The forced-abort experiment draws from the sequencer RNG per
        // surviving request, and a forced abort removes its entry from the
        // would-be log — so the two-phase plan (which conflict-checks
        // against *tentatively* accepted epoch entries before any version is
        // assigned) would be wrong: a later request could abort on a
        // neighbour that the draw then kills.  Keep the per-request
        // sequencer lockstep whenever draws can happen.
        if self.forced_abort_rate > 0.0 {
            self.process_shard_epoch_lockstep(shard, epoch);
            return;
        }
        self.process_shard_epoch_two_phase(shard, epoch);
    }

    /// Lockstep epoch body: the sequencer is taken once per request, exactly
    /// as on the direct path, so the forced-abort RNG draw sequence is
    /// identical to a serial interleaving.  Decision identity holds because
    /// each request sees every earlier request's append before it is
    /// checked.
    fn process_shard_epoch_lockstep(
        &self,
        shard: ShardId,
        epoch: Vec<(CertificationRequest, DecisionSlot)>,
    ) {
        let epoch_len = epoch.len() as u64;
        let mut commits: Vec<(Version, Arc<WriteSet>, DecisionSlot)> =
            Vec::with_capacity(epoch.len());
        let mut log = self.shards[shard.index()].log.lock();
        for (request, slot) in epoch {
            let floored = request.start_version < log.floor();
            // Pre-screen: if no bucket covering the writeset's footprint has
            // committed past the snapshot, the suffix scan provably finds
            // nothing and is skipped.
            let conflict = if floored {
                None
            } else if log.prescreen_clear(&request.writeset, request.start_version) {
                self.metrics.incr(CounterId::PrescreenHits);
                None
            } else {
                self.metrics.incr(CounterId::PrescreenMisses);
                log.conflict_after(&request.writeset, request.start_version)
            };
            let commit_material = if conflict.is_none() && !floored {
                let writeset = Arc::new(request.writeset);
                let footprint = Arc::new(writeset.footprint());
                Some((writeset, footprint))
            } else {
                None
            };

            // The sequencer stays the innermost lock, taken once per request
            // exactly as on the direct path.
            let mut sequencer = self.sequencer.lock();
            sequencer.requests += 1;
            let decision = if floored {
                sequencer.conflict_aborts += 1;
                Some(CertificationDecision::Abort {
                    reason: format!(
                        "snapshot {} below truncation floor",
                        request.start_version
                    ),
                    forced: false,
                })
            } else if let Some(conflict_version) = conflict {
                sequencer.conflict_aborts += 1;
                Some(CertificationDecision::Abort {
                    reason: format!("write-write conflict with {conflict_version}"),
                    forced: false,
                })
            } else if self.forced_abort_rate > 0.0
                && sequencer.rng.gen::<f64>() < self.forced_abort_rate
            {
                sequencer.forced_aborts += 1;
                Some(CertificationDecision::Abort {
                    reason: "forced abort (experiment)".into(),
                    forced: true,
                })
            } else {
                None
            };
            if let Some(decision) = decision {
                let system_version = sequencer.version;
                drop(sequencer);
                self.metrics.incr(CounterId::CertifyAborts);
                self.metrics.emit(
                    Event::new(Component::Certifier, EventKind::CertifyAbort)
                        .shard(shard.index()),
                );
                slot.fill(Ok(Decided {
                    decision,
                    commit_version: None,
                    system_version,
                }));
                continue;
            }

            // Version advance and the shard append stay inside one sequencer
            // critical section while the shard lock is held — the invariant
            // the stream merge relies on.
            let commit_version = sequencer.version.next();
            sequencer.version = commit_version;
            sequencer.commits += 1;
            let (writeset, footprint) = commit_material.expect("commit implies no conflict");
            log.append_at_with_footprint(
                commit_version,
                Arc::clone(&writeset),
                footprint,
                request.start_version,
            );
            drop(sequencer);
            // Commit slots are filled only after the grouped durable append:
            // the decision is never announced before it is durable.
            commits.push((commit_version, writeset, slot));
        }
        drop(log);

        self.metrics.add(CounterId::CertifyBatchSize, epoch_len);
        self.metrics.emit(
            Event::new(Component::Certifier, EventKind::CertifyBatch)
                .version(epoch_len)
                .shard(shard.index()),
        );

        if commits.is_empty() {
            return;
        }
        let group: Vec<(Version, Arc<WriteSet>)> = commits
            .iter()
            .map(|(version, writeset, _)| (*version, Arc::clone(writeset)))
            .collect();
        let durable_started = Instant::now();
        let appended = self.shards[shard.index()].replicated.append_group(&group);
        if appended.is_ok() && self.metrics.is_enabled() {
            self.metrics
                .record_stage(Stage::Durable, durable_started.elapsed());
        }
        for (commit_version, _, slot) in commits {
            match &appended {
                Ok(()) => {
                    if self.metrics.is_enabled() {
                        self.metrics.incr(CounterId::DurableAppends);
                        self.metrics.incr(CounterId::CertifyCommits);
                        self.metrics.record_shard_commit(shard.index());
                        self.metrics.emit(
                            Event::new(Component::Certifier, EventKind::CertifyCommit)
                                .version(commit_version.0)
                                .shard(shard.index()),
                        );
                        self.metrics.emit(
                            Event::new(Component::Certifier, EventKind::DurableAppend)
                                .version(commit_version.0)
                                .shard(shard.index()),
                        );
                    }
                    slot.fill(Ok(Decided {
                        decision: CertificationDecision::Commit,
                        commit_version: Some(commit_version),
                        // At the instant this request committed in the
                        // serial-equivalent order the system stood exactly
                        // at its commit version.
                        system_version: commit_version,
                    }));
                }
                Err(error) => slot.fill(Err(error.clone())),
            }
        }
    }

    /// Two-phase epoch body (the `forced_abort_rate == 0` fast path):
    ///
    /// * **Phase 1** (shard lock only): per request, in arrival order,
    ///   decide a verdict — conservative floor abort, conflict against the
    ///   shard log (pre-screened), conflict against an *earlier accepted
    ///   epoch entry*, or clean.  Without forced aborts a clean verdict is
    ///   final, so the intra-epoch check against tentatively accepted
    ///   entries is sound — and complete, because an accepted entry's commit
    ///   version always exceeds any well-formed snapshot (snapshots never
    ///   run ahead of the system version the sequencer has published).
    /// * **Phase 2** (sequencer, taken **once**): walk the verdicts in
    ///   arrival order, assigning dense versions to the clean entries and
    ///   appending them to the shard log inside the single critical section
    ///   — preserving the stream-merge invariant — while aborts capture the
    ///   system version at their position.
    ///
    /// The decisions are exactly those of the lockstep body: phase 1 sees
    /// the same conflicts (log conflicts are older than every epoch commit,
    /// so "first conflict" agrees), and phase 2 assigns the same versions a
    /// per-request interleaving in arrival order would.  What changes is the
    /// cost: one sequencer acquisition per epoch instead of per request.
    fn process_shard_epoch_two_phase(
        &self,
        shard: ShardId,
        epoch: Vec<(CertificationRequest, DecisionSlot)>,
    ) {
        enum Verdict {
            /// Abort whose reason is fully known in phase 1 (below-floor or
            /// shard-log conflict).
            Abort(CertificationDecision),
            /// Conflicts with the accepted epoch entry at this index; the
            /// reason needs that entry's commit version, assigned in
            /// phase 2.
            EpochConflict(usize),
            /// Accepted: commits as `accepted[index]`.
            Clean(usize),
        }

        let epoch_len = epoch.len() as u64;
        type Material = (Arc<WriteSet>, Arc<HashSet<(TableId, RowKey)>>, Version);
        let mut accepted: Vec<Material> = Vec::with_capacity(epoch.len());
        let mut staged: Vec<(Verdict, Arc<Slot<Result<Decided>>>)> =
            Vec::with_capacity(epoch.len());

        let mut log = self.shards[shard.index()].log.lock();
        for (request, slot) in epoch {
            let verdict = if request.start_version < log.floor() {
                Verdict::Abort(CertificationDecision::Abort {
                    reason: format!(
                        "snapshot {} below truncation floor",
                        request.start_version
                    ),
                    forced: false,
                })
            } else {
                let log_conflict = if log
                    .prescreen_clear(&request.writeset, request.start_version)
                {
                    self.metrics.incr(CounterId::PrescreenHits);
                    None
                } else {
                    self.metrics.incr(CounterId::PrescreenMisses);
                    log.conflict_after(&request.writeset, request.start_version)
                };
                if let Some(conflict_version) = log_conflict {
                    Verdict::Abort(CertificationDecision::Abort {
                        reason: format!("write-write conflict with {conflict_version}"),
                        forced: false,
                    })
                } else if let Some(index) = accepted.iter().position(|(_, footprint, _)| {
                    request.writeset.conflicts_with_footprint(footprint)
                }) {
                    Verdict::EpochConflict(index)
                } else {
                    let writeset = Arc::new(request.writeset);
                    let footprint = Arc::new(writeset.footprint());
                    accepted.push((writeset, footprint, request.start_version));
                    Verdict::Clean(accepted.len() - 1)
                }
            };
            staged.push((verdict, slot));
        }

        // Phase 2: one sequencer critical section for the whole epoch.
        // `commit_versions[j]` is always assigned before any
        // `EpochConflict(j)` reads it, because `accepted[j]` precedes the
        // conflicting request in arrival order.
        let mut commit_versions: Vec<Version> = Vec::with_capacity(accepted.len());
        let mut commits: Vec<(Version, Arc<WriteSet>, DecisionSlot)> =
            Vec::with_capacity(accepted.len());
        let mut aborts: Vec<(CertificationDecision, Version, DecisionSlot)> =
            Vec::new();
        let mut sequencer = self.sequencer.lock();
        for (verdict, slot) in staged {
            sequencer.requests += 1;
            match verdict {
                Verdict::Clean(index) => {
                    let commit_version = sequencer.version.next();
                    sequencer.version = commit_version;
                    sequencer.commits += 1;
                    let (writeset, footprint, start_version) = &accepted[index];
                    log.append_at_with_footprint(
                        commit_version,
                        Arc::clone(writeset),
                        Arc::clone(footprint),
                        *start_version,
                    );
                    commit_versions.push(commit_version);
                    commits.push((commit_version, Arc::clone(writeset), slot));
                }
                Verdict::Abort(decision) => {
                    sequencer.conflict_aborts += 1;
                    aborts.push((decision, sequencer.version, slot));
                }
                Verdict::EpochConflict(index) => {
                    sequencer.conflict_aborts += 1;
                    let decision = CertificationDecision::Abort {
                        reason: format!(
                            "write-write conflict with {}",
                            commit_versions[index]
                        ),
                        forced: false,
                    };
                    aborts.push((decision, sequencer.version, slot));
                }
            }
        }
        drop(sequencer);
        drop(log);

        self.metrics.add(CounterId::CertifyBatchSize, epoch_len);
        self.metrics.emit(
            Event::new(Component::Certifier, EventKind::CertifyBatch)
                .version(epoch_len)
                .shard(shard.index()),
        );

        for (decision, system_version, slot) in aborts {
            self.metrics.incr(CounterId::CertifyAborts);
            self.metrics.emit(
                Event::new(Component::Certifier, EventKind::CertifyAbort).shard(shard.index()),
            );
            slot.fill(Ok(Decided {
                decision,
                commit_version: None,
                system_version,
            }));
        }

        if commits.is_empty() {
            return;
        }
        let group: Vec<(Version, Arc<WriteSet>)> = commits
            .iter()
            .map(|(version, writeset, _)| (*version, Arc::clone(writeset)))
            .collect();
        let durable_started = Instant::now();
        let appended = self.shards[shard.index()].replicated.append_group(&group);
        if appended.is_ok() && self.metrics.is_enabled() {
            self.metrics
                .record_stage(Stage::Durable, durable_started.elapsed());
        }
        for (commit_version, _, slot) in commits {
            match &appended {
                Ok(()) => {
                    if self.metrics.is_enabled() {
                        self.metrics.incr(CounterId::DurableAppends);
                        self.metrics.incr(CounterId::CertifyCommits);
                        self.metrics.record_shard_commit(shard.index());
                        self.metrics.emit(
                            Event::new(Component::Certifier, EventKind::CertifyCommit)
                                .version(commit_version.0)
                                .shard(shard.index()),
                        );
                        self.metrics.emit(
                            Event::new(Component::Certifier, EventKind::DurableAppend)
                                .version(commit_version.0)
                                .shard(shard.index()),
                        );
                    }
                    slot.fill(Ok(Decided {
                        decision: CertificationDecision::Commit,
                        commit_version: Some(commit_version),
                        system_version: commit_version,
                    }));
                }
                Err(error) => slot.fill(Err(error.clone())),
            }
        }
    }

    /// Seals a durable checkpoint of every shard's certified log.  Each
    /// shard's image holds its truncation floor plus its entries above it,
    /// and is stamped with the global system version sampled *before* the
    /// per-shard seals — entries that land concurrently are included in some
    /// image but never claimed, so the stamp is always a safe lower bound.
    /// Returns the stamped version.
    pub fn seal_checkpoint(&self) -> Version {
        let version = self.sequencer.lock().version;
        for shard in &self.shards {
            let payload = {
                let log = shard.log.lock();
                let floor = log.floor();
                encode_checkpoint_payload(floor, &log.entries_after(floor))
            };
            shard.checkpoints.seal(version, &payload);
        }
        version
    }

    /// Drops log entries at or below `watermark` from every shard's
    /// in-memory and durable logs.  Per shard, the watermark is clamped to
    /// that shard's newest sealed checkpoint version, so no record is ever
    /// dropped before an image covers it.  Returns the total number of
    /// in-memory entries discarded across shards (a multi-shard entry
    /// counts once per owning shard, matching what memory is freed).
    ///
    /// # Errors
    ///
    /// Propagates durable-log rewrite failures.
    pub fn truncate_below(&self, watermark: Version) -> Result<usize> {
        let mut dropped = 0usize;
        for shard in &self.shards {
            let bound = watermark.min(shard.checkpoints.latest_version());
            if bound.is_zero() {
                continue;
            }
            dropped += shard.log.lock().truncate_up_to(bound);
            shard.replicated.truncate_below(bound)?;
        }
        // Refresh the certify-path floor cache (monotone: floors only grow,
        // and only under this method).
        self.floor_cache
            .fetch_max(self.truncation_floor().value(), Ordering::AcqRel);
        Ok(dropped)
    }

    /// The truncation floor: the highest per-shard floor.  A certification
    /// or refresh reaching below it cannot be served from the logs any more.
    #[must_use]
    pub fn truncation_floor(&self) -> Version {
        self.shards
            .iter()
            .map(|shard| shard.log.lock().floor())
            .max()
            .unwrap_or(Version::ZERO)
    }

    /// The version every shard's newest sealed checkpoint covers up to (the
    /// minimum across shards; [`Version::ZERO`] before the first seal).
    #[must_use]
    pub fn checkpoint_version(&self) -> Version {
        self.shards
            .iter()
            .map(|shard| shard.checkpoints.latest_version())
            .min()
            .unwrap_or(Version::ZERO)
    }

    /// Total number of entries held across every shard's in-memory log
    /// (bounded-memory assertions; multi-shard entries count once per
    /// owning shard).
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.shards.iter().map(|shard| shard.log.lock().len()).sum()
    }

    /// Per-shard version streams after `since` (exclusive): the fan-out half
    /// of update propagation.  Pair with [`merge_shard_streams`] bounded by
    /// a [`ShardedCertifier::system_version`] sampled **before** this call.
    #[must_use]
    pub fn shard_streams_after(&self, since: Version) -> Vec<ShardStream> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let mut log = shard.log.lock();
                let entries = log
                    .entries_after(since)
                    .into_iter()
                    .map(|(commit_version, writeset)| {
                        let conflict_free_to = log.conflict_free_back_to(commit_version, since);
                        RemoteWriteSet {
                            commit_version,
                            writeset,
                            conflict_free_to,
                        }
                    })
                    .collect();
                ShardStream {
                    shard: ShardId(index as u32),
                    entries,
                }
            })
            .collect()
    }

    /// The merged global stream of remote writesets after `since` — used by
    /// the proxy's bounded-staleness refresh (Section 6.2), replica recovery
    /// and the equivalence tests.
    #[must_use]
    pub fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet> {
        // Sample the bound BEFORE the streams: every commit at or below it
        // has finished its shard appends (they happened inside the sequencer
        // critical section that advanced the version).
        let up_to = self.sequencer.lock().version;
        self.remote_writesets_between(since, up_to)
    }

    /// Merges the shard streams over `(since, up_to]`.  `up_to` must be a
    /// version whose shard appends are known complete relative to this call
    /// — a system version the caller sampled under the sequencer lock (or
    /// one version below the caller's own just-appended commit).
    fn remote_writesets_between(&self, since: Version, up_to: Version) -> Vec<RemoteWriteSet> {
        if since >= up_to {
            // The requester is current: skip the all-shard fan-out on the
            // hot path.
            return Vec::new();
        }
        let streams = self.shard_streams_after(since);
        merge_shard_streams(&streams, up_to)
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> ShardedCertifierStats {
        let sequencer = self.sequencer.lock();
        ShardedCertifierStats {
            requests: sequencer.requests,
            commits: sequencer.commits,
            conflict_aborts: sequencer.conflict_aborts,
            forced_aborts: sequencer.forced_aborts,
            multi_shard_commits: sequencer.multi_shard_commits,
            shards: self.shards.iter().map(|s| s.replicated.stats()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use tashkent_common::{ReplicaId, TableId, Value, WriteItem};

    use super::*;

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

    fn sharded(shards: usize) -> ShardedCertifier {
        ShardedCertifier::new(ShardedCertifierConfig::with_shards(shards))
    }

    #[test]
    fn versions_are_globally_dense_across_shards() {
        let certifier = sharded(4);
        for k in 1..=20 {
            let response = certifier.certify(&request(k - 1, k - 1, &[k as i64])).unwrap();
            assert!(response.decision.is_commit());
            assert_eq!(response.commit_version, Some(Version(k)));
        }
        assert_eq!(certifier.system_version(), Version(20));
        let versions: Vec<u64> = certifier
            .writesets_after(Version::ZERO)
            .iter()
            .map(|r| r.commit_version.value())
            .collect();
        assert_eq!(versions, (1..=20).collect::<Vec<u64>>());
    }

    #[test]
    fn conflicts_are_found_across_shard_boundaries() {
        let certifier = sharded(4);
        // A multi-shard writeset commits, then every single-key probe that
        // shares a key with it (on whatever shard) must abort.
        let keys = [1i64, 2, 3, 4, 5, 6, 7, 8];
        assert!(certifier
            .certify(&request(0, 0, &keys))
            .unwrap()
            .decision
            .is_commit());
        for &k in &keys {
            let response = certifier.certify(&request(0, 1, &[k])).unwrap();
            assert!(!response.decision.is_commit(), "key {k} must conflict");
        }
        // Disjoint keys commit, and a probe starting after the commit is
        // clean.
        assert!(certifier
            .certify(&request(0, 1, &[100]))
            .unwrap()
            .decision
            .is_commit());
        assert!(certifier
            .certify(&request(1, 2, &[1]))
            .unwrap()
            .decision
            .is_commit());
        let stats = certifier.stats();
        assert_eq!(stats.conflict_aborts, keys.len() as u64);
        assert_eq!(stats.commits, 3);
        assert!(stats.multi_shard_commits >= 1);
    }

    #[test]
    fn remote_streams_merge_without_gaps_or_duplicates() {
        let certifier = sharded(3);
        // Mix of single- and multi-shard writesets.
        certifier.certify(&request(0, 0, &[1])).unwrap();
        certifier.certify(&request(1, 1, &[2, 3, 4, 5])).unwrap();
        certifier.certify(&request(2, 2, &[6])).unwrap();
        certifier.certify(&request(3, 3, &[7, 8, 9, 10, 11])).unwrap();
        let remotes = certifier.writesets_after(Version(0));
        let versions: Vec<u64> = remotes.iter().map(|r| r.commit_version.value()).collect();
        assert_eq!(versions, vec![1, 2, 3, 4]);
        // A replica at version 2 sees exactly 3 and 4.
        let versions: Vec<u64> = certifier
            .writesets_after(Version(2))
            .iter()
            .map(|r| r.commit_version.value())
            .collect();
        assert_eq!(versions, vec![3, 4]);
    }

    #[test]
    fn extended_certification_takes_the_newest_bound_across_shards() {
        let certifier = sharded(2);
        // Find two keys on different shards of a 2-shard map.
        let map = certifier.shard_map();
        let key_a = 0i64; // whatever shard this lands on...
        let key_b = (1..100)
            .find(|&k| {
                map.shard_of(TableId(0), &tashkent_common::RowKey::Int(k))
                    != map.shard_of(TableId(0), &tashkent_common::RowKey::Int(key_a))
            })
            .expect("some key lands on the other shard");
        // v1 writes {a}; v2 writes {b}; v3 writes {a, b} starting at v2.
        certifier.certify(&request(0, 0, &[key_a])).unwrap();
        certifier.certify(&request(1, 1, &[key_b])).unwrap();
        certifier.certify(&request(2, 2, &[key_a, key_b])).unwrap();
        // v3 conflicts with v1 (shard A) and v2 (shard B) when pushed back
        // towards version 0; the merged bound is the newest conflict, v2.
        let remotes = certifier.writesets_after(Version::ZERO);
        let v3 = remotes
            .iter()
            .find(|r| r.commit_version == Version(3))
            .unwrap();
        assert_eq!(v3.conflict_free_to, Version(2));
    }

    #[test]
    fn forced_aborts_follow_the_configured_rate() {
        let certifier = ShardedCertifier::new(ShardedCertifierConfig {
            shards: 4,
            base: CertifierConfig {
                forced_abort_rate: 0.4,
                ..CertifierConfig::default()
            },
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
    fn shard_crash_blocks_only_that_shard_until_majority_restored() {
        let certifier = sharded(2);
        let map = certifier.shard_map();
        let shard_of = |k: i64| map.shard_of(TableId(0), &tashkent_common::RowKey::Int(k));
        let key_on = |shard: ShardId| (0..1000).find(|&k| shard_of(k) == shard).unwrap();
        let (k0, k1) = (key_on(ShardId(0)), key_on(ShardId(1)));

        // Lose shard 1's majority (two of three nodes).
        certifier.crash_shard_node(ShardId(1), CertifierNodeId(0));
        certifier.crash_shard_node(ShardId(1), CertifierNodeId(1));
        assert!(!certifier.is_available());
        // Shard 0 keeps certifying; shard 1 refuses.
        let version = certifier.system_version().value();
        assert!(certifier
            .certify(&request(version, version, &[k0]))
            .unwrap()
            .decision
            .is_commit());
        let version = certifier.system_version().value();
        assert!(matches!(
            certifier.certify(&request(version, version, &[k1])),
            Err(Error::Unavailable(_))
        ));
        // Restoring one node restores the majority and progress.
        certifier
            .recover_shard_node(ShardId(1), CertifierNodeId(0))
            .unwrap();
        assert!(certifier.is_available());
        let version = certifier.system_version().value();
        assert!(certifier
            .certify(&request(version, version, &[k1]))
            .unwrap()
            .decision
            .is_commit());
    }

    #[test]
    fn node_crash_spans_every_shard_group() {
        let certifier = sharded(3);
        certifier.crash_node(CertifierNodeId(0));
        assert!(certifier.is_available());
        let stats = certifier.stats();
        assert!(stats.shards.iter().all(|s| s.nodes_up == 2));
        certifier.recover_node(CertifierNodeId(0)).unwrap();
        assert!(certifier.stats().shards.iter().all(|s| s.nodes_up == 3));
    }

    #[test]
    fn durable_entries_cover_each_shards_commits() {
        let certifier = sharded(2);
        for k in 1..=12 {
            let version = certifier.system_version().value();
            certifier.certify(&request(version, version, &[k])).unwrap();
        }
        let stats = certifier.stats();
        let logged: u64 = stats.shards.iter().map(|s| s.entries).sum();
        assert_eq!(logged, 12);
        for shard in [ShardId(0), ShardId(1)] {
            let leader = certifier.shard_leader(shard);
            let entries = certifier.shard_durable_entries(shard, leader).unwrap();
            // Versions strictly increase within a shard's durable log.
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn merge_bounds_by_the_sampled_version() {
        let streams = vec![
            ShardStream {
                shard: ShardId(0),
                entries: vec![
                    RemoteWriteSet {
                        commit_version: Version(1),
                        writeset: std::sync::Arc::new(ws(&[1])),
                        conflict_free_to: Version::ZERO,
                    },
                    RemoteWriteSet {
                        commit_version: Version(3),
                        writeset: std::sync::Arc::new(ws(&[3])),
                        conflict_free_to: Version(1),
                    },
                ],
            },
            ShardStream {
                shard: ShardId(1),
                entries: vec![
                    RemoteWriteSet {
                        commit_version: Version(2),
                        writeset: std::sync::Arc::new(ws(&[2])),
                        conflict_free_to: Version::ZERO,
                    },
                    RemoteWriteSet {
                        commit_version: Version(3),
                        writeset: std::sync::Arc::new(ws(&[3])),
                        conflict_free_to: Version(2),
                    },
                ],
            },
        ];
        let merged = merge_shard_streams(&streams, Version(3));
        let versions: Vec<u64> = merged.iter().map(|r| r.commit_version.value()).collect();
        assert_eq!(versions, vec![1, 2, 3]);
        // The duplicate at v3 is emitted once, with the max bound.
        assert_eq!(merged[2].conflict_free_to, Version(2));
        // Bounding below the duplicate drops it from every stream.
        let merged = merge_shard_streams(&streams, Version(2));
        let versions: Vec<u64> = merged.iter().map(|r| r.commit_version.value()).collect();
        assert_eq!(versions, vec![1, 2]);
    }

    #[test]
    fn concurrent_commit_responses_cover_exactly_the_unseen_prefix() {
        // Regression: the commit response's remote stream must be bounded by
        // the transaction's own commit version as of *decision time*.  If
        // the bound were re-sampled after the locks drop, a racing commit
        // could slip into the stream while the requester's own version is
        // excluded — and a proxy applying that stream would advance past its
        // own commit without applying it.
        let certifier = std::sync::Arc::new(sharded(4));
        std::thread::scope(|scope| {
            for worker in 0..4i64 {
                let certifier = std::sync::Arc::clone(&certifier);
                scope.spawn(move || {
                    for i in 0..200 {
                        let replica_version = certifier.system_version();
                        let response = certifier
                            .certify(&CertificationRequest {
                                replica: ReplicaId(worker as u32),
                                start_version: replica_version,
                                writeset: ws(&[worker * 1_000_000 + i]),
                                replica_version,
                            })
                            .unwrap();
                        let own = response.commit_version.expect("disjoint keys commit");
                        let versions: Vec<u64> = response
                            .remote_writesets
                            .iter()
                            .map(|r| r.commit_version.value())
                            .collect();
                        // Exactly the dense range (replica_version, own):
                        // nothing missing, nothing at or above our own
                        // commit.
                        let expected: Vec<u64> =
                            (replica_version.value() + 1..own.value()).collect();
                        assert_eq!(versions, expected, "worker {worker} iteration {i}");
                    }
                });
            }
        });
        assert_eq!(certifier.stats().commits, 800);
    }

    #[test]
    fn truncation_trims_every_shard_and_guards_stale_requests() {
        let certifier = sharded(4);
        for k in 1..=12 {
            let version = certifier.system_version().value();
            certifier.certify(&request(version, version, &[k])).unwrap();
        }
        // Nothing may be trimmed before a checkpoint authorizes it.
        assert_eq!(certifier.truncate_below(Version(8)).unwrap(), 0);
        assert_eq!(certifier.seal_checkpoint(), Version(12));
        assert_eq!(certifier.checkpoint_version(), Version(12));
        let dropped = certifier.truncate_below(Version(8)).unwrap();
        assert!(dropped > 0, "some shard entries must be trimmed");
        assert!(certifier.truncation_floor() <= Version(8));
        assert!(certifier.log_len() >= 4, "entries above the watermark survive");
        // The merged stream still reproduces the retained suffix densely.
        let versions: Vec<u64> = certifier
            .writesets_after(Version(8))
            .iter()
            .map(|r| r.commit_version.value())
            .collect();
        assert_eq!(versions, vec![9, 10, 11, 12]);
        // A snapshot below an owning shard's floor aborts conservatively.
        // Writing every key guarantees the max-floor shard is among the
        // owners, and the floor guard fires before the intersection test.
        let floor = certifier.truncation_floor();
        assert!(floor > Version::ZERO);
        let all_keys: Vec<i64> = (1..=12).collect();
        let response = certifier
            .certify(&request(floor.value() - 1, 12, &all_keys))
            .unwrap();
        match response.decision {
            CertificationDecision::Abort { ref reason, forced } => {
                assert!(!forced);
                assert!(reason.contains("truncation floor"), "reason: {reason}");
            }
            CertificationDecision::Commit => panic!("stale snapshot must not commit"),
        }
        // A replica below the floor gets a loud state-transfer error.
        assert!(matches!(
            certifier.certify(&request(12, floor.value().saturating_sub(1), &[99])),
            Err(Error::Unavailable(_))
        ));
        // Fresh snapshots keep committing with dense versions.
        let response = certifier.certify(&request(12, 12, &[50])).unwrap();
        assert_eq!(response.commit_version, Some(Version(13)));
    }

    #[test]
    fn full_truncation_bounds_memory_and_preserves_progress() {
        let certifier = sharded(2);
        for k in 1..=10 {
            let version = certifier.system_version().value();
            certifier.certify(&request(version, version, &[k])).unwrap();
        }
        certifier.seal_checkpoint();
        certifier.truncate_below(certifier.system_version()).unwrap();
        assert_eq!(certifier.log_len(), 0, "fully covered logs trim to empty");
        // Durable logs are trimmed too.
        for shard in [ShardId(0), ShardId(1)] {
            let leader = certifier.shard_leader(shard);
            assert!(certifier.shard_durable_entries(shard, leader).unwrap().is_empty());
        }
        // The system version survives in the floors: the next commit is v11.
        let response = certifier.certify(&request(10, 10, &[77])).unwrap();
        assert_eq!(response.commit_version, Some(Version(11)));
    }

    #[test]
    fn empty_writesets_take_the_shard_zero_path() {
        let certifier = sharded(4);
        let response = certifier
            .certify(&CertificationRequest {
                replica: ReplicaId(0),
                start_version: Version::ZERO,
                writeset: WriteSet::new(),
                replica_version: Version::ZERO,
            })
            .unwrap();
        assert!(response.decision.is_commit());
        assert_eq!(response.commit_version, Some(Version(1)));
    }
}
