//! Fault plans: seeded, replayable crash/recover schedules.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s, each pinned to a
//! *version-threshold injection point*: the executor fires an event once the
//! cluster's global commit version reaches `at_version`.  Anchoring
//! injection points to commit versions — not wall-clock time — is what makes
//! a schedule replayable: two runs of the same plan inject each fault at the
//! same logical position in the commit history, regardless of how fast the
//! machine happens to run.
//!
//! Plans are generated from a seed by [`FaultPlan::generate`] under
//! *quorum-safety constraints*: at every point of the schedule each
//! certifier shard group keeps a majority of nodes up (so certification can
//! always make progress and a recovery donor always exists) and at least one
//! replica stays up (so load keeps flowing).  Within those bounds the
//! generator freely overlaps faults — several shards down at once, a replica
//! and a certifier node down together, repeated crashes of the same target —
//! and targets shard *leaders* as well as followers.
//!
//! Setting [`PlanConfig::total_outage`] lifts the quorum-safety bounds:
//! schedules may then lose a shard group's majority — or the whole group —
//! and crash every replica at once.  Crashes stay paired with recovers;
//! recovery relies on sealed checkpoints and the certifier's
//! union-of-logs state transfer instead of a live donor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent::ShardId;
use tashkent_common::Version;

/// How a certifier-node fault picks its victim within the shard group.
///
/// Picks are resolved by the executor at crash time against the group's
/// *current* membership, so a plan can say "the leader, whoever that is by
/// then" — and still replay deterministically, because leadership and
/// up/down state only change through the plan's own earlier events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodePick {
    /// The shard group's current leader — the worst node to lose.
    Leader,
    /// The `k`-th currently-up non-leader node (modulo the follower count).
    Follower(usize),
}

/// What a fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A database replica, by index.
    Replica(usize),
    /// A node of one certifier shard's replicated group (a one-shard
    /// certifier has only shard 0).
    CertifierNode {
        /// The shard whose group is hit.
        shard: ShardId,
        /// Which node of the group.
        pick: NodePick,
    },
}

impl std::fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultTarget::Replica(r) => write!(f, "replica-{r}"),
            FaultTarget::CertifierNode { shard, pick } => match pick {
                NodePick::Leader => write!(f, "{shard}-leader"),
                NodePick::Follower(k) => write!(f, "{shard}-follower-{k}"),
            },
        }
    }
}

/// One step of a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash the target.  `fault` identifies the crash/recover pair.
    Crash {
        /// Identifier pairing this crash with its recover event.
        fault: usize,
        /// What to crash.
        target: FaultTarget,
    },
    /// Recover the target crashed by fault `fault`.
    Recover {
        /// The crash this event undoes.
        fault: usize,
    },
}

/// A fault action pinned to its injection point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Fire once the cluster's system version reaches this threshold.
    pub at_version: Version,
    /// What to do.
    pub action: FaultAction,
}

/// Which replica↔certifier link a link fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTarget {
    /// One replica's link to the certifier.
    Replica(usize),
    /// Every replica's link at once — the full replica↔certifier
    /// partition.
    AllReplicas,
}

impl std::fmt::Display for LinkTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkTarget::Replica(r) => write!(f, "link replica-{r}<->certifier"),
            LinkTarget::AllReplicas => write!(f, "links *<->certifier"),
        }
    }
}

/// Which direction(s) of a link a sever cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDirection {
    /// The full symmetric partition: both directions die, connections
    /// reset, dials are refused.
    Both,
    /// Only replica→certifier bytes are dropped: requests silently vanish
    /// while responses (to nothing) could still flow — the replica's sends
    /// keep "succeeding".
    ToCertifier,
    /// Only certifier→replica bytes are dropped: requests arrive and are
    /// *served* (the certifier commits!) but the responses vanish — the
    /// nastier half-open case, exercising the session layer's
    /// no-response-traffic detector and the proxy's retry path.
    FromCertifier,
}

impl std::fmt::Display for LinkDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkDirection::Both => write!(f, "both ways"),
            LinkDirection::ToCertifier => write!(f, "->certifier only"),
            LinkDirection::FromCertifier => write!(f, "<-certifier only"),
        }
    }
}

/// One step of a link-fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkAction {
    /// Cut the link (in the given direction(s)): affected requests fail
    /// with `Unavailable` or silently vanish, reconnects are refused,
    /// until the matching heal.
    Sever(LinkTarget, LinkDirection),
    /// Restore the link severed by the paired sever event (heals every
    /// direction).
    Heal(LinkTarget),
}

/// A link fault pinned to its version-threshold injection point.
///
/// Link events live in [`FaultPlan::links`] — a list *separate from*
/// [`FaultPlan::events`], so plans generated before networking existed
/// replay with byte-identical crash/recover schedules (the link stream is
/// drawn from its own salted RNG).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// Fire once the cluster's system version reaches this threshold.
    pub at_version: Version,
    /// What to do to which link.
    pub action: LinkAction,
}

/// Bounds on schedule generation.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Replicas in the cluster the plan targets.
    pub replicas: usize,
    /// Certifier shards (1 for the paper's single certifier).
    pub certifier_shards: usize,
    /// Nodes per certifier shard group.
    pub nodes_per_shard: usize,
    /// Number of crash/recover fault pairs to draw.
    pub faults: usize,
    /// Maximum commit-version gap between consecutive events (each gap is
    /// drawn uniformly from `1..=version_step`).
    pub version_step: u64,
    /// Allow replica faults.
    pub target_replicas: bool,
    /// Allow certifier-node faults.
    pub target_certifiers: bool,
    /// Drop the quorum-safety constraints: schedules may crash a shard
    /// group's majority — up to the *whole* group — and every replica at
    /// once.  Recovery then leans on checkpoints and the union-of-logs
    /// state transfer instead of a live donor.  Off by default; generated
    /// plans still pair every crash with a recover.
    pub total_outage: bool,
    /// Also draw link faults (sever/heal of replica↔certifier loopback
    /// links, including full partitions and one-direction half-open cuts).
    /// Appended so configurations serialised before networking existed
    /// keep their field order; the crash/recover stream of a seed is
    /// unaffected either way.
    pub partition: bool,
    /// Seeded packet loss: the probability that any given send resets its
    /// connection, applied to the loopback network for the whole run via
    /// [`LoopbackNet::set_drop_rate`](../../tashkent_net/loopback/struct.LoopbackNet.html#method.set_drop_rate)
    /// with an RNG salted separately from every event stream.  `0.0`
    /// disables.  Appended last — it is not an event stream, so existing
    /// seeds replay their exact crash/recover and link schedules whether
    /// or not loss is enabled on top.
    pub drop_rate: f64,
}

impl PlanConfig {
    /// A configuration matching a cluster shape, with default fault counts.
    #[must_use]
    pub fn for_cluster(replicas: usize, certifier_shards: usize, nodes_per_shard: usize) -> Self {
        PlanConfig {
            replicas,
            certifier_shards,
            nodes_per_shard,
            faults: 3,
            version_step: 30,
            target_replicas: true,
            target_certifiers: true,
            total_outage: false,
            partition: false,
            drop_rate: 0.0,
        }
    }

    /// Most certifier nodes of one shard group that may be down at once
    /// while keeping a majority up (quorum safety).
    #[must_use]
    pub fn max_down_per_shard(&self) -> usize {
        self.nodes_per_shard - (self.nodes_per_shard / 2 + 1)
    }

    /// The per-shard down limit the generator enforces: the quorum-safe
    /// bound normally, the whole group in total-outage mode.
    #[must_use]
    pub fn down_limit_per_shard(&self) -> usize {
        if self.total_outage {
            self.nodes_per_shard
        } else {
            self.max_down_per_shard()
        }
    }
}

/// A complete, replayable fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// Events in ascending `at_version` order.
    pub events: Vec<FaultEvent>,
    /// Link faults in ascending `at_version` order, drawn from a salted
    /// RNG stream so their presence never changes `events` for a given
    /// seed.  Empty unless [`PlanConfig::partition`] was set.
    pub links: Vec<LinkEvent>,
}

impl FaultPlan {
    /// An empty plan (useful as a minimizer fixed point and for baseline
    /// no-fault runs of the harness).
    #[must_use]
    pub fn empty() -> Self {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
            links: Vec::new(),
        }
    }

    /// A hand-built single-fault plan: crash `target` at `crash_at`, recover
    /// it at `recover_at`.
    ///
    /// # Panics
    ///
    /// Panics if `recover_at < crash_at`.
    #[must_use]
    pub fn single(target: FaultTarget, crash_at: Version, recover_at: Version) -> Self {
        assert!(crash_at <= recover_at, "recover must not precede crash");
        FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent {
                    at_version: crash_at,
                    action: FaultAction::Crash { fault: 0, target },
                },
                FaultEvent {
                    at_version: recover_at,
                    action: FaultAction::Recover { fault: 0 },
                },
            ],
            links: Vec::new(),
        }
    }

    /// Draws a randomized quorum-safe schedule from a seeded RNG.
    ///
    /// The same `(seed, config)` always yields the identical plan — same
    /// victims, same injection points — which is the replay contract failing
    /// schedules print.
    #[must_use]
    pub fn generate(seed: u64, config: &PlanConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_down = config.down_limit_per_shard();
        let mut replica_down = vec![false; config.replicas];
        let mut shard_down = vec![0usize; config.certifier_shards];
        // Open faults awaiting their recover event.
        let mut open: Vec<(usize, FaultTarget)> = Vec::new();
        let mut events = Vec::new();
        let mut version = 0u64;
        let mut next_fault = 0usize;

        let bump = |rng: &mut StdRng, version: &mut u64| {
            *version += rng.gen_range(1..=config.version_step.max(1));
            Version(*version)
        };

        while next_fault < config.faults || !open.is_empty() {
            // Enumerate legal crash targets under the quorum-safety bounds.
            let mut crashable: Vec<FaultTarget> = Vec::new();
            if next_fault < config.faults {
                if config.target_replicas {
                    let up = replica_down.iter().filter(|d| !**d).count();
                    // Quorum-safe schedules always leave one replica
                    // serving load; total-outage mode may crash them all.
                    if up > 1 || (config.total_outage && up > 0) {
                        crashable.extend(
                            replica_down
                                .iter()
                                .enumerate()
                                .filter(|(_, down)| !**down)
                                .map(|(r, _)| FaultTarget::Replica(r)),
                        );
                    }
                }
                if config.target_certifiers {
                    for (s, down) in shard_down.iter().enumerate() {
                        if *down < max_down {
                            crashable.push(FaultTarget::CertifierNode {
                                shard: ShardId(s as u32),
                                pick: NodePick::Leader, // placeholder, drawn below
                            });
                        }
                    }
                }
            }
            // Choose between opening a new fault and closing an open one.
            // Recover pressure grows with the number of open faults so
            // schedules overlap without staying degraded forever.
            let crash = !crashable.is_empty()
                && (open.is_empty() || rng.gen_range(0..open.len() + 2) < 2);
            if crash {
                let mut target = crashable[rng.gen_range(0..crashable.len())];
                if let FaultTarget::CertifierNode { shard, ref mut pick } = target {
                    // Half the certifier faults hit the current leader, the
                    // rest a follower drawn by rank among the up non-leaders.
                    *pick = if rng.gen_bool(0.5) {
                        NodePick::Leader
                    } else {
                        NodePick::Follower(rng.gen_range(0..config.nodes_per_shard))
                    };
                    shard_down[shard.index()] += 1;
                } else if let FaultTarget::Replica(r) = target {
                    replica_down[r] = true;
                }
                events.push(FaultEvent {
                    at_version: bump(&mut rng, &mut version),
                    action: FaultAction::Crash {
                        fault: next_fault,
                        target,
                    },
                });
                open.push((next_fault, target));
                next_fault += 1;
            } else if !open.is_empty() {
                let (fault, target) = open.remove(rng.gen_range(0..open.len()));
                match target {
                    FaultTarget::Replica(r) => replica_down[r] = false,
                    FaultTarget::CertifierNode { shard, .. } => {
                        shard_down[shard.index()] -= 1;
                    }
                }
                events.push(FaultEvent {
                    at_version: bump(&mut rng, &mut version),
                    action: FaultAction::Recover { fault },
                });
            } else {
                // No legal crash and nothing to recover: the configuration
                // admits no faults (e.g. single-node groups with replica
                // targeting off).
                break;
            }
        }
        let links = if config.partition {
            Self::generate_links(seed, config, version)
        } else {
            Vec::new()
        };
        FaultPlan {
            seed,
            events,
            links,
        }
    }

    /// Salt separating the link-fault RNG stream from the crash/recover
    /// stream, so turning partitions on never perturbs existing seeds.
    const LINK_SALT: u64 = 0x11F0_1D5E_A5ED_11AB;

    /// Salt for the *direction* stream: directions are drawn from their
    /// own RNG so their introduction left every existing seed's link
    /// targets and injection points exactly where they were — seeds that
    /// used to draw a symmetric partition still sever the same link at
    /// the same version, possibly one-way now.
    const DIRECTION_SALT: u64 = 0x0D12_EC71_04A1_5EED;

    /// Draws the link-fault schedule: one to two sever/heal pairs spread
    /// over the same version span as the crash/recover events.
    fn generate_links(seed: u64, config: &PlanConfig, span: u64) -> Vec<LinkEvent> {
        let mut rng = StdRng::seed_from_u64(seed ^ Self::LINK_SALT);
        let mut direction_rng = StdRng::seed_from_u64(seed ^ Self::DIRECTION_SALT);
        let step = config.version_step.max(1);
        let mut links = Vec::new();
        let mut version = 0u64;
        let pairs = rng.gen_range(1..=2);
        for _ in 0..pairs {
            // A third of the pairs partition every replica at once; the
            // rest cut a single replica's link.
            let target = if config.replicas > 0 && !rng.gen_bool(1.0 / 3.0) {
                LinkTarget::Replica(rng.gen_range(0..config.replicas))
            } else {
                LinkTarget::AllReplicas
            };
            // Half the severs are full partitions, the rest split between
            // the two half-open directions.
            let direction = match direction_rng.gen_range(0..4u32) {
                0 | 1 => LinkDirection::Both,
                2 => LinkDirection::ToCertifier,
                _ => LinkDirection::FromCertifier,
            };
            version += rng.gen_range(1..=step);
            let sever_at = Version(version);
            version += rng.gen_range(1..=step);
            let heal_at = Version(version);
            links.push(LinkEvent {
                at_version: sever_at,
                action: LinkAction::Sever(target, direction),
            });
            links.push(LinkEvent {
                at_version: heal_at,
                action: LinkAction::Heal(target),
            });
            // Spread later pairs across the rest of the plan's span.
            if version < span {
                version += rng.gen_range(0..=span - version);
            }
        }
        links
    }

    /// The fault-pair identifiers present in the plan, in crash order.
    #[must_use]
    pub fn fault_ids(&self) -> Vec<usize> {
        self.events
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::Crash { fault, .. } => Some(fault),
                FaultAction::Recover { .. } => None,
            })
            .collect()
    }

    /// The plan with one crash/recover pair removed (schedule
    /// minimization).
    #[must_use]
    pub fn without_fault(&self, fault: usize) -> Self {
        FaultPlan {
            seed: self.seed,
            events: self
                .events
                .iter()
                .filter(|e| match e.action {
                    FaultAction::Crash { fault: f, .. } | FaultAction::Recover { fault: f } => {
                        f != fault
                    }
                })
                .cloned()
                .collect(),
            links: self.links.clone(),
        }
    }

    /// Number of link sever/heal events in the plan.
    #[must_use]
    pub fn link_event_count(&self) -> usize {
        self.links.len()
    }

    /// Number of crash/recover pairs.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.fault_ids().len()
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "fault plan (seed {:#x}):", self.seed)?;
        let mut targets: Vec<Option<FaultTarget>> = Vec::new();
        for event in &self.events {
            match event.action {
                FaultAction::Crash { fault, target } => {
                    if targets.len() <= fault {
                        targets.resize(fault + 1, None);
                    }
                    targets[fault] = Some(target);
                    writeln!(f, "  v>={:<6} crash   #{fault} {target}", event.at_version.value())?;
                }
                FaultAction::Recover { fault } => {
                    let target = targets
                        .get(fault)
                        .copied()
                        .flatten()
                        .map_or_else(|| "?".to_owned(), |t| t.to_string());
                    writeln!(f, "  v>={:<6} recover #{fault} {target}", event.at_version.value())?;
                }
            }
        }
        for link in &self.links {
            match link.action {
                LinkAction::Sever(target, direction) => {
                    writeln!(
                        f,
                        "  v>={:<6} sever   {target} ({direction})",
                        link.at_version.value()
                    )?;
                }
                LinkAction::Heal(target) => {
                    writeln!(f, "  v>={:<6} heal    {target}", link.at_version.value())?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PlanConfig {
        PlanConfig::for_cluster(3, 2, 3)
    }

    #[test]
    fn same_seed_same_plan() {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let a = FaultPlan::generate(seed, &config());
            let b = FaultPlan::generate(seed, &config());
            assert_eq!(a, b, "seed {seed:#x} must replay identically");
            assert_eq!(a.fault_count(), config().faults);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, &config());
        let b = FaultPlan::generate(2, &config());
        assert_ne!(a, b);
    }

    #[test]
    fn schedules_are_quorum_safe_and_paired() {
        let mut config = config();
        config.faults = 12;
        for seed in 0..50u64 {
            let plan = FaultPlan::generate(seed, &config);
            let mut replica_down = vec![false; config.replicas];
            let mut shard_down = vec![0usize; config.certifier_shards];
            let mut open: std::collections::HashMap<usize, FaultTarget> =
                std::collections::HashMap::new();
            let mut last = Version::ZERO;
            for event in &plan.events {
                assert!(event.at_version > last, "injection points ascend strictly");
                last = event.at_version;
                match event.action {
                    FaultAction::Crash { fault, target } => {
                        assert!(open.insert(fault, target).is_none(), "fault ids unique");
                        match target {
                            FaultTarget::Replica(r) => {
                                assert!(!replica_down[r], "no double crash");
                                replica_down[r] = true;
                                let up = replica_down.iter().filter(|d| !**d).count();
                                assert!(up >= 1, "at least one replica stays up");
                            }
                            FaultTarget::CertifierNode { shard, .. } => {
                                shard_down[shard.index()] += 1;
                                assert!(
                                    shard_down[shard.index()] <= config.max_down_per_shard(),
                                    "shard {shard} keeps its majority"
                                );
                            }
                        }
                    }
                    FaultAction::Recover { fault } => {
                        let target = open.remove(&fault).expect("recover pairs with a crash");
                        match target {
                            FaultTarget::Replica(r) => replica_down[r] = false,
                            FaultTarget::CertifierNode { shard, .. } => {
                                shard_down[shard.index()] -= 1;
                            }
                        }
                    }
                }
            }
            assert!(open.is_empty(), "every crash is recovered by plan end");
            assert_eq!(plan.fault_count(), config.faults);
        }
    }

    #[test]
    fn total_outage_mode_reaches_full_outages_yet_stays_paired() {
        let mut config = config();
        config.faults = 12;
        config.total_outage = true;
        let mut saw_shard_outage = false;
        let mut saw_replica_outage = false;
        for seed in 0..100u64 {
            let plan = FaultPlan::generate(seed, &config);
            let mut replica_down = vec![false; config.replicas];
            let mut shard_down = vec![0usize; config.certifier_shards];
            let mut open: std::collections::HashMap<usize, FaultTarget> =
                std::collections::HashMap::new();
            for event in &plan.events {
                match event.action {
                    FaultAction::Crash { fault, target } => {
                        assert!(open.insert(fault, target).is_none());
                        match target {
                            FaultTarget::Replica(r) => {
                                assert!(!replica_down[r], "no double crash");
                                replica_down[r] = true;
                                if replica_down.iter().all(|d| *d) {
                                    saw_replica_outage = true;
                                }
                            }
                            FaultTarget::CertifierNode { shard, .. } => {
                                shard_down[shard.index()] += 1;
                                assert!(
                                    shard_down[shard.index()] <= config.nodes_per_shard,
                                    "never more crashes than nodes"
                                );
                                if shard_down[shard.index()] == config.nodes_per_shard {
                                    saw_shard_outage = true;
                                }
                            }
                        }
                    }
                    FaultAction::Recover { fault } => {
                        match open.remove(&fault).expect("recover pairs with a crash") {
                            FaultTarget::Replica(r) => replica_down[r] = false,
                            FaultTarget::CertifierNode { shard, .. } => {
                                shard_down[shard.index()] -= 1;
                            }
                        }
                    }
                }
            }
            assert!(open.is_empty(), "every crash is recovered by plan end");
        }
        assert!(saw_shard_outage, "some schedule downs a whole shard group");
        assert!(saw_replica_outage, "some schedule downs every replica");
    }

    #[test]
    fn partitions_never_perturb_the_crash_stream() {
        // The seed-replay contract across the networking change: a plan
        // generated before link faults existed must keep its exact
        // crash/recover schedule when partitions are enabled on top.
        let mut with_links = config();
        with_links.partition = true;
        for seed in 0..50u64 {
            let old = FaultPlan::generate(seed, &config());
            let new = FaultPlan::generate(seed, &with_links);
            assert!(old.links.is_empty(), "partition off draws no link faults");
            assert_eq!(old.events, new.events, "seed {seed:#x} events must not move");
            assert!(!new.links.is_empty(), "partition on draws link faults");
        }
    }

    #[test]
    fn link_schedules_are_paired_and_ascending() {
        let mut config = config();
        config.partition = true;
        let mut saw_full_partition = false;
        let mut saw_one_way = false;
        for seed in 0..50u64 {
            let plan = FaultPlan::generate(seed, &config);
            assert_eq!(plan.link_event_count(), plan.links.len());
            let mut last = Version::ZERO;
            let mut open: Option<LinkTarget> = None;
            for link in &plan.links {
                assert!(link.at_version > last, "link injection points ascend");
                last = link.at_version;
                match link.action {
                    LinkAction::Sever(target, direction) => {
                        assert!(open.is_none(), "one link fault open at a time");
                        if target == LinkTarget::AllReplicas {
                            saw_full_partition = true;
                        }
                        if direction != LinkDirection::Both {
                            saw_one_way = true;
                        }
                        open = Some(target);
                    }
                    LinkAction::Heal(target) => {
                        assert_eq!(open.take(), Some(target), "heal pairs its sever");
                    }
                }
            }
            assert!(open.is_none(), "every sever is healed by plan end");
            // Same seed replays the same links.
            assert_eq!(plan.links, FaultPlan::generate(seed, &config).links);
        }
        assert!(saw_full_partition, "some schedule partitions every replica");
        assert!(saw_one_way, "some schedule draws a half-open (one-way) cut");
    }

    #[test]
    fn directions_never_perturb_link_targets_or_versions() {
        // The direction stream is salted separately: for every seed, the
        // sever/heal targets and injection points must be exactly what the
        // symmetric-only generator drew (checked structurally: severs and
        // heals pair on the same targets at ascending versions regardless
        // of direction, and the version/target sequence is a pure function
        // of the LINK_SALT stream — pinned by same-seed replay).
        let mut config = config();
        config.partition = true;
        for seed in 0..20u64 {
            let a = FaultPlan::generate(seed, &config);
            let b = FaultPlan::generate(seed, &config);
            assert_eq!(a.links, b.links, "directions replay deterministically");
        }
    }

    #[test]
    fn display_renders_link_events() {
        let mut config = config();
        config.partition = true;
        let plan = (0..50u64)
            .map(|seed| FaultPlan::generate(seed, &config))
            .find(|p| !p.links.is_empty())
            .expect("some plan has link faults");
        let text = plan.to_string();
        assert!(text.contains("sever"));
        assert!(text.contains("heal"));
        assert!(text.contains("certifier"));
    }

    #[test]
    fn without_fault_drops_both_events() {
        let plan = FaultPlan::generate(7, &config());
        let ids = plan.fault_ids();
        let reduced = plan.without_fault(ids[0]);
        assert_eq!(reduced.fault_count(), plan.fault_count() - 1);
        assert_eq!(reduced.events.len(), plan.events.len() - 2);
        assert!(!reduced.fault_ids().contains(&ids[0]));
    }

    #[test]
    fn single_node_groups_admit_no_certifier_faults() {
        let mut config = PlanConfig::for_cluster(2, 1, 1);
        config.target_replicas = false;
        let plan = FaultPlan::generate(3, &config);
        assert!(plan.events.is_empty());
    }

    #[test]
    fn display_renders_every_event() {
        let plan = FaultPlan::generate(9, &config());
        let text = plan.to_string();
        assert!(text.contains("crash"));
        assert!(text.contains("recover"));
        assert!(text.contains("seed 0x9"));
    }
}
