//! Integration tests of the three proxy commit pipelines against a shared
//! certifier: two replicas exchange updates, conflicts are detected, and the
//! replicas converge to the same state in the same global order.

use std::sync::Arc;

use tashkent_certifier::{ShardedCertifier, ShardedCertifierConfig};
use tashkent_common::{Error, ReplicaId, SystemKind, Value, Version};
use tashkent_proxy::{Proxy, ProxyConfig};
use tashkent_storage::{Database, EngineConfig};

/// The paper's single certifier: a one-shard certifier group.
fn certifier() -> Arc<ShardedCertifier> {
    Arc::new(ShardedCertifier::new(ShardedCertifierConfig::with_shards(
        1,
    )))
}

fn make_replica(system: SystemKind, id: u32, certifier: &Arc<ShardedCertifier>) -> Proxy {
    let config = EngineConfig::with_sync_mode(match system {
        SystemKind::TashkentMw => tashkent_common::SyncMode::Off,
        _ => tashkent_common::SyncMode::Durable,
    });
    let db = Database::new(config);
    db.create_table("accounts", &["balance"]);
    Proxy::new(
        ProxyConfig::new(system, ReplicaId(id)),
        db,
        Arc::clone(certifier),
    )
}

fn deposit(proxy: &Proxy, key: i64, amount: i64) -> Result<Option<Version>, Error> {
    let table = proxy.database().table_id("accounts").unwrap();
    let tx = proxy.begin();
    let balance = tx
        .read(table, key)?
        .and_then(|row| row.get("balance").and_then(Value::as_int))
        .unwrap_or(0);
    tx.insert(
        table,
        key,
        vec![("balance".into(), Value::Int(balance + amount))],
    )?;
    tx.commit().map(|outcome| outcome.commit_version)
}

fn balance(proxy: &Proxy, key: i64) -> i64 {
    let table = proxy.database().table_id("accounts").unwrap();
    proxy
        .database()
        .read_latest(table, key)
        .and_then(|row| row.get("balance").and_then(Value::as_int))
        .unwrap_or(0)
}

fn run_two_replica_exchange(system: SystemKind) {
    let certifier = certifier();
    let a = make_replica(system, 0, &certifier);
    let b = make_replica(system, 1, &certifier);

    // Replica A commits to key 1, replica B to key 2 — no conflicts.
    deposit(&a, 1, 100).unwrap();
    deposit(&b, 2, 200).unwrap();
    // Each replica learns of the other's update when it next commits.
    deposit(&a, 1, 1).unwrap();
    deposit(&b, 2, 2).unwrap();
    // Bring both fully up to date.
    a.refresh().unwrap();
    b.refresh().unwrap();

    assert_eq!(certifier.system_version(), Version(4));
    assert_eq!(a.replica_version(), Version(4));
    assert_eq!(b.replica_version(), Version(4));
    for proxy in [&a, &b] {
        assert_eq!(balance(proxy, 1), 101);
        assert_eq!(balance(proxy, 2), 202);
        assert_eq!(proxy.database().version(), Version(4));
    }
}

#[test]
fn base_replicas_exchange_updates() {
    run_two_replica_exchange(SystemKind::Base);
}

#[test]
fn tashkent_mw_replicas_exchange_updates() {
    run_two_replica_exchange(SystemKind::TashkentMw);
}

#[test]
fn tashkent_api_replicas_exchange_updates() {
    run_two_replica_exchange(SystemKind::TashkentApi);
}

#[test]
fn conflicting_updates_on_different_replicas_abort_one() {
    let certifier = certifier();
    let a = make_replica(SystemKind::TashkentMw, 0, &certifier);
    let b = make_replica(SystemKind::TashkentMw, 1, &certifier);
    let ta = a.database().table_id("accounts").unwrap();
    let tb = b.database().table_id("accounts").unwrap();

    // Both replicas start transactions that write the same key concurrently.
    let txa = a.begin();
    txa.insert(ta, 7, vec![("balance".into(), Value::Int(1))])
        .unwrap();
    let txb = b.begin();
    txb.insert(tb, 7, vec![("balance".into(), Value::Int(2))])
        .unwrap();
    // A commits first and wins; B's certification must fail.
    txa.commit().unwrap();
    let result = txb.commit();
    assert!(matches!(result, Err(Error::CertificationFailed { .. })));
    // After refreshing, B holds A's value.
    b.refresh().unwrap();
    assert_eq!(balance(&b, 7), 1);
    let stats = certifier.stats();
    assert_eq!(stats.commits, 1);
    assert_eq!(stats.conflict_aborts, 1);
}

#[test]
fn local_certification_aborts_without_contacting_certifier() {
    let certifier = certifier();
    let a = make_replica(SystemKind::TashkentMw, 0, &certifier);
    let b = make_replica(SystemKind::TashkentMw, 1, &certifier);
    let ta = a.database().table_id("accounts").unwrap();

    // A starts a transaction writing key 3 while B commits key 3 first; A
    // then learns about it through a refresh, so local certification can
    // reject A's commit without a certifier round trip.
    let txa = a.begin();
    txa.insert(ta, 3, vec![("balance".into(), Value::Int(1))])
        .unwrap();
    deposit(&b, 3, 50).unwrap();
    a.refresh().unwrap();
    let requests_before = certifier.stats().requests;
    let result = txa.commit();
    assert!(matches!(result, Err(Error::CertificationFailed { .. })));
    assert_eq!(certifier.stats().requests, requests_before);
    assert_eq!(a.stats().local_certification_aborts, 1);
}

#[test]
fn read_only_transactions_commit_without_certification() {
    let certifier = certifier();
    let a = make_replica(SystemKind::Base, 0, &certifier);
    let table = a.database().table_id("accounts").unwrap();
    deposit(&a, 1, 10).unwrap();
    let requests = certifier.stats().requests;
    let tx = a.begin();
    let row = tx.read(table, 1).unwrap().unwrap();
    assert_eq!(row.get("balance"), Some(&Value::Int(10)));
    let outcome = tx.commit().unwrap();
    assert!(outcome.read_only);
    assert_eq!(certifier.stats().requests, requests);
    assert_eq!(a.stats().read_only_commits, 1);
}

#[test]
fn tashkent_mw_replicas_never_fsync_but_certifier_does() {
    let certifier = certifier();
    let a = make_replica(SystemKind::TashkentMw, 0, &certifier);
    for key in 0..20 {
        deposit(&a, key, 5).unwrap();
    }
    assert_eq!(a.database().stats().wal.fsyncs, 0);
    assert!(certifier.stats().aggregate().log.leader_fsyncs > 0);
}

#[test]
fn base_replicas_fsync_for_every_commit_and_remote_group() {
    let certifier = certifier();
    let a = make_replica(SystemKind::Base, 0, &certifier);
    let b = make_replica(SystemKind::Base, 1, &certifier);
    // Interleave commits so each replica also has remote writesets to apply.
    for key in 0..5 {
        deposit(&a, key, 1).unwrap();
        deposit(&b, 100 + key, 1).unwrap();
    }
    let fsyncs_a = a.database().stats().wal.fsyncs;
    // Replica A performed 5 local commits plus remote-group applications:
    // every one of them required its own fsync (serial commits).
    assert!(fsyncs_a >= 9, "expected >= 9 fsyncs, measured {fsyncs_a}");
}

#[test]
fn concurrent_clients_on_one_replica_agree_with_the_certifier() {
    for system in [SystemKind::Base, SystemKind::TashkentMw, SystemKind::TashkentApi] {
        let certifier = certifier();
        let proxy = make_replica(system, 0, &certifier);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let proxy = proxy.clone();
                std::thread::spawn(move || {
                    let mut committed = 0;
                    for i in 0..10 {
                        // Distinct keys per thread: no conflicts expected.
                        if deposit(&proxy, t * 1000 + i, 1).is_ok() {
                            committed += 1;
                        }
                    }
                    committed
                })
            })
            .collect();
        let committed: i64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(committed, 40, "system {system}");
        proxy.refresh().unwrap();
        assert_eq!(
            proxy.database().version(),
            certifier.system_version(),
            "system {system}"
        );
        assert_eq!(certifier.system_version(), Version(40), "system {system}");
    }
}

#[test]
fn tashkent_api_serialises_artificial_conflicts() {
    let certifier = certifier();
    let api = make_replica(SystemKind::TashkentApi, 0, &certifier);
    let remote = make_replica(SystemKind::TashkentApi, 1, &certifier);

    // The remote replica commits two transactions that write the same key in
    // sequence (no global conflict because the second starts after the
    // first), plus one unrelated transaction.
    deposit(&remote, 55, 1).unwrap(); // v1
    deposit(&remote, 77, 1).unwrap(); // v2
    deposit(&remote, 55, 1).unwrap(); // v3 — artificially conflicts with v1 at other replicas.

    // When the API replica commits its own transaction it receives all three
    // as remote writesets; v3 must be serialised behind v1.
    deposit(&api, 99, 1).unwrap();
    assert_eq!(api.database().version(), certifier.system_version());
    assert_eq!(balance(&api, 55), 2);
    assert_eq!(balance(&api, 77), 1);
    assert!(api.stats().artificial_conflict_barriers >= 1);
}

#[test]
fn eager_precertification_wounds_conflicting_local_transactions() {
    let certifier = certifier();
    let a = make_replica(SystemKind::TashkentMw, 0, &certifier);
    let b = make_replica(SystemKind::TashkentMw, 1, &certifier);
    let ta = a.database().table_id("accounts").unwrap();

    // A local transaction on A holds the write lock on key 9 but has not yet
    // tried to commit.
    let txa = a.begin();
    txa.insert(ta, 9, vec![("balance".into(), Value::Int(1))])
        .unwrap();
    // B commits a transaction on the same key; when A refreshes, the remote
    // writeset must not deadlock against the local holder: the local
    // transaction gets wounded instead.
    deposit(&b, 9, 42).unwrap();
    a.refresh().unwrap();
    assert_eq!(balance(&a, 9), 42);
    assert!(a.stats().wounded_transactions >= 1);
    // The wounded transaction cannot commit.
    let result = txa.commit();
    assert!(result.is_err());
}

#[test]
fn certifier_outage_surfaces_as_unavailable() {
    let certifier = certifier();
    let a = make_replica(SystemKind::Base, 0, &certifier);
    deposit(&a, 1, 1).unwrap();
    certifier.crash_node(tashkent_certifier::CertifierNodeId(0));
    certifier.crash_node(tashkent_certifier::CertifierNodeId(1));
    let result = deposit(&a, 2, 1);
    assert!(matches!(result, Err(Error::Unavailable(_))));
    // Read-only transactions still work: they never contact the certifier.
    let table = a.database().table_id("accounts").unwrap();
    let tx = a.begin();
    assert!(tx.read(table, 1).unwrap().is_some());
    tx.commit().unwrap();
}

/// A declined serial grouped install is a typed `Ok(None)` with **no side
/// effects**: `refresh` on a replica with an outstanding order index must
/// leave every piece of proxy and engine state untouched (PR 1's fix,
/// previously pinned only by stress runs).
#[test]
fn declined_grouped_install_has_no_side_effects() {
    let certifier = certifier();
    let a = make_replica(SystemKind::TashkentApi, 0, &certifier);
    let b = make_replica(SystemKind::TashkentApi, 1, &certifier);

    // Replica A commits a backlog replica B has not seen.
    for key in 1..=5 {
        deposit(&a, key, 10 * key).unwrap();
    }
    // Simulate an in-flight ordered commit on B that will never announce
    // (the state a crash or wound leaves behind).
    b.debug_burn_order_index();

    let version_before = b.replica_version();
    let db_version_before = b.database().version();
    let stats_before = b.stats();
    // The install must decline: ordered commits are (apparently)
    // outstanding, and a grouped install jumping over them would misorder
    // row chains.
    assert_eq!(b.refresh().unwrap(), 0);
    assert_eq!(b.replica_version(), version_before, "no scheduling advance");
    assert_eq!(b.database().version(), db_version_before, "no engine writes");
    let stats_after = b.stats();
    assert_eq!(stats_after.refreshes, stats_before.refreshes, "not counted as a refresh");
    assert_eq!(stats_after.remote_writesets_applied, stats_before.remote_writesets_applied);
}

/// `resync` force-fills outstanding order indices inside the install's
/// critical section: recovery makes progress even when an index was burned
/// by a failed pipeline, and the replica is fully usable afterwards.
#[test]
fn resync_force_fills_burned_order_indices() {
    let certifier = certifier();
    let a = make_replica(SystemKind::TashkentApi, 0, &certifier);
    let b = make_replica(SystemKind::TashkentApi, 1, &certifier);

    for key in 1..=5 {
        deposit(&a, key, 10 * key).unwrap();
    }
    b.debug_burn_order_index();
    assert_eq!(b.refresh().unwrap(), 0, "declined while the index is outstanding");

    // Soft recovery burns the stale index and applies the whole backlog.
    let applied = b.resync().unwrap();
    assert_eq!(applied, 5);
    assert_eq!(b.replica_version(), Version(5));
    assert_eq!(b.database().version(), Version(5));
    for key in 1..=5 {
        assert_eq!(balance(&b, key), 10 * key, "key {key}");
    }
    assert_eq!(b.stats().resyncs, 1);

    // The ordered-commit bookkeeping is consistent again: both replicas
    // keep committing and converging.
    deposit(&b, 6, 60).unwrap();
    deposit(&a, 7, 70).unwrap();
    b.refresh().unwrap();
    a.refresh().unwrap();
    assert_eq!(a.replica_version(), Version(7));
    assert_eq!(b.replica_version(), Version(7));
    assert_eq!(balance(&a, 6), 60);
    assert_eq!(balance(&b, 7), 70);
}

/// While an index is outstanding the decline path must also hold for the
/// staleness-driven `maybe_refresh`, and `last_contact` must keep ticking
/// so the next refresh retries promptly instead of believing the replica
/// is fresh.
#[test]
fn declined_refresh_keeps_the_staleness_clock_running() {
    let certifier = certifier();
    let a = make_replica(SystemKind::TashkentApi, 0, &certifier);
    let b = make_replica(SystemKind::TashkentApi, 1, &certifier);

    deposit(&a, 1, 100).unwrap();
    b.debug_burn_order_index();
    assert_eq!(b.refresh().unwrap(), 0);
    // A second refresh still declines (the decline did not update
    // last_contact, so the replica still knows it is stale), and resync
    // still recovers.
    assert_eq!(b.refresh().unwrap(), 0);
    assert_eq!(b.resync().unwrap(), 1);
    assert_eq!(balance(&b, 1), 100);
}
