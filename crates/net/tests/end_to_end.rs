//! End-to-end session tests: a real certifier behind a [`NetServer`],
//! certified against through a [`RemoteCertifier`] — over both transports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tashkent_certifier::{
    CertificationRequest, Certifier, CertifierConfig, ShardedCertifier, ShardedCertifierConfig,
};
use tashkent_common::{
    metrics::MetricsRegistry, Component, CounterId, EventKind, GaugeId, ReplicaId, TableId,
    TransportKind, Value, Version, WriteItem, WriteSet,
};
use tashkent_net::{
    ClusterNet, LoopbackNet, NetServer, RemoteCertifier, SessionConfig, TcpTransport, Transport,
};
use tashkent_proxy::{CertifierHandle, CertifierService};

fn ws(key: i64) -> WriteSet {
    WriteSet::from_items(vec![WriteItem::update(
        TableId(0),
        key,
        vec![("v".into(), Value::Int(key))],
    )])
}

fn commit(service: &dyn CertifierService, key: i64) -> Version {
    let at = service.system_version();
    let response = service
        .certify(&CertificationRequest {
            replica: ReplicaId(0),
            start_version: at,
            writeset: ws(key),
            replica_version: at,
        })
        .expect("wire certify");
    assert!(response.decision.is_commit());
    response.commit_version.expect("commit carries a version")
}

fn single_handle() -> CertifierHandle {
    CertifierHandle::Single(Arc::new(Certifier::new(CertifierConfig::default())))
}

#[test]
fn loopback_conversation() {
    let net = LoopbackNet::shared();
    let metrics = Arc::new(MetricsRegistry::enabled());
    let handle = single_handle();
    let server = NetServer::start(
        "certifier",
        handle,
        &net.transport("certifier"),
        "certifier",
        Arc::clone(&metrics),
    )
    .unwrap();
    let client = RemoteCertifier::start(
        SessionConfig::new("replica-0", server.endpoint()),
        Arc::new(net.transport("replica-0")),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();
    assert_eq!(commit(client.as_ref(), 1), Version(1));
    client.ping().unwrap();
    client.close();
}

#[test]
fn tcp_conversation() {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let handle = single_handle();
    let server = NetServer::start(
        "certifier",
        handle,
        &TcpTransport::new(),
        "127.0.0.1:0",
        Arc::clone(&metrics),
    )
    .unwrap();
    assert!(server.endpoint().starts_with("127.0.0.1:"));
    let client = RemoteCertifier::start(
        SessionConfig::new("replica-0", server.endpoint()),
        Arc::new(TcpTransport::new()),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();
    assert_eq!(commit(client.as_ref(), 1), Version(1));
    assert_eq!(client.as_ref().writesets_after(Version(0)).len(), 1);
    client.ping().unwrap();
    client.close();
}

#[test]
fn full_conversation_with_metrics_over_loopback() {
    let net = LoopbackNet::shared();
    conversation_impl(net);
}

fn conversation_impl(net: Arc<LoopbackNet>) {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let handle = single_handle();
    let server = NetServer::start(
        "certifier",
        handle,
        &net.transport("certifier"),
        "certifier",
        Arc::clone(&metrics),
    )
    .unwrap();
    let client = RemoteCertifier::start(
        SessionConfig::new("replica-0", server.endpoint()),
        Arc::new(net.transport("replica-0")),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();

    assert_eq!(commit(client.as_ref(), 1), Version(1));
    assert_eq!(commit(client.as_ref(), 2), Version(2));
    assert_eq!(client.as_ref().system_version(), Version(2));
    assert!(client.as_ref().is_available());
    assert_eq!(client.as_ref().writesets_after(Version(0)).len(), 2);
    assert!(client.state_transfer().unwrap().is_none());

    let snapshot = metrics.snapshot();
    assert!(snapshot.counter(CounterId::NetMessages) >= 10);
    assert!(snapshot.counter(CounterId::NetBytesSent) > 0);
    assert!(snapshot.counter(CounterId::NetBytesReceived) > 0);
    let (open_now, _) = snapshot.gauge(GaugeId::OpenSessions);
    assert_eq!(open_now, 2, "one session, counted by both ends");
    assert!(metrics
        .component_events(Component::Certifier)
        .iter()
        .any(|e| e.kind == EventKind::SessionOpen));

    client.close();
    server.stop();
    let (open_after, _) = metrics.snapshot().gauge(GaugeId::OpenSessions);
    assert_eq!(open_after, 0, "both ends closed their session");
}

#[test]
fn partition_fails_fast_and_reconnects_after_heal() {
    let net = LoopbackNet::shared();
    let metrics = Arc::new(MetricsRegistry::enabled());
    let handle = single_handle();
    let _server = NetServer::start(
        "certifier",
        handle,
        &net.transport("certifier"),
        "certifier",
        Arc::clone(&metrics),
    )
    .unwrap();
    let mut config = SessionConfig::new("replica-0", "certifier");
    config.request_timeout = Duration::from_millis(200);
    let client = RemoteCertifier::start(
        config,
        Arc::new(net.transport("replica-0")),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();
    assert_eq!(commit(client.as_ref(), 1), Version(1));

    net.sever("replica-0", "certifier");
    let at = client.as_ref().system_version(); // falls back to cache
    assert_eq!(at, Version(1));
    let result = client.as_ref().certify(&CertificationRequest {
        replica: ReplicaId(0),
        start_version: at,
        writeset: ws(2),
        replica_version: at,
    });
    assert!(result.is_err_and(|e| e.is_unavailable()));
    assert!(!client.as_ref().is_available());
    assert!(
        client.as_ref().writesets_after(Version(0)).is_empty(),
        "a dead wire reports no stream progress"
    );

    net.heal("replica-0", "certifier");
    client.wait_connected(Duration::from_secs(2)).unwrap();
    assert_eq!(commit(client.as_ref(), 2), Version(2));
    assert!(
        metrics.snapshot().counter(CounterId::NetReconnects) >= 1,
        "healing the link must count a reconnect"
    );
    client.close();
}

#[test]
fn half_open_link_is_detected_and_session_recovers_after_heal() {
    let net = LoopbackNet::shared();
    let metrics = Arc::new(MetricsRegistry::enabled());
    let handle = single_handle();
    let _server = NetServer::start(
        "certifier",
        handle,
        &net.transport("certifier"),
        "certifier",
        Arc::clone(&metrics),
    )
    .unwrap();
    let mut config = SessionConfig::new("replica-0", "certifier");
    config.request_timeout = Duration::from_millis(300);
    config.half_open_grace = Duration::from_millis(100);
    let client = RemoteCertifier::start(
        config,
        Arc::new(net.transport("replica-0")),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();
    assert_eq!(commit(client.as_ref(), 1), Version(1));

    // Cut only the certifier→replica direction: requests still *arrive*
    // (and are served), but every response vanishes.  No send on either
    // side errors — the nastiest link failure.
    assert!(net.sever_one_way("certifier", "replica-0"));
    let at = Version(1);
    let result = client.as_ref().certify(&CertificationRequest {
        replica: ReplicaId(0),
        start_version: at,
        writeset: ws(2),
        replica_version: at,
    });
    assert!(result.is_err_and(|e| e.is_unavailable()));
    // The no-response-traffic detector must tear the session down rather
    // than leaving it "connected" to a dead return path; the redial is
    // then refused while the direction stays cut.
    client
        .wait_disconnected(Duration::from_secs(2))
        .expect("half-open session must be detected and torn down");

    net.heal("replica-0", "certifier");
    client.wait_connected(Duration::from_secs(2)).unwrap();
    // The writeset certified into the void DID commit server-side (key 2
    // took version 2) — the retry path must cope with that, which is why
    // the driver retries with a fresh key/start rather than re-sending.
    assert_eq!(commit(client.as_ref(), 3), Version(3));
    assert!(
        metrics.snapshot().counter(CounterId::NetReconnects) >= 1,
        "recovering from a half-open link must count a reconnect"
    );
    client.close();
}

/// The cluster builds its sessions from `SessionConfig::new`, whose grace
/// equals the request timeout.  A one-way cut must still tear the session
/// down by the time the first unanswered request gives up — not leave it
/// "connected" while every later request burns its full timeout too.
#[test]
fn half_open_link_is_detected_with_the_cluster_defaults() {
    let net = ClusterNet::start(
        TransportKind::Loopback,
        single_handle(),
        1,
        Arc::new(MetricsRegistry::enabled()),
    )
    .unwrap();
    let handle = net.replica_handle(0);
    for (key, to_certifier) in [(1, false), (2, true)] {
        let at = handle.system_version();
        assert!(net.sever_certifier_link_one_way(0, to_certifier));
        let result = handle.certify(&CertificationRequest {
            replica: ReplicaId(0),
            start_version: at,
            writeset: ws(key),
            replica_version: at,
        });
        assert!(result.is_err_and(|e| e.is_unavailable()));
        net.client(0)
            .wait_disconnected(Duration::from_millis(200))
            .unwrap_or_else(|e| panic!("to_certifier={to_certifier}: {e}"));
        assert!(net.heal_all_links());
        net.client(0).wait_connected(Duration::from_secs(2)).unwrap();
    }
    net.shutdown();
}

#[test]
fn cluster_net_wires_replicas_and_links() {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let net = ClusterNet::start(
        TransportKind::Loopback,
        single_handle(),
        2,
        Arc::clone(&metrics),
    )
    .unwrap();
    let handle0 = net.replica_handle(0);
    let handle1 = net.replica_handle(1);
    // Data plane crosses the wire; control plane reaches the certifier.
    let at = handle0.system_version();
    let response = handle0
        .certify(&CertificationRequest {
            replica: ReplicaId(0),
            start_version: at,
            writeset: ws(10),
            replica_version: at,
        })
        .unwrap();
    assert!(response.decision.is_commit());
    assert_eq!(handle1.system_version(), Version(1));
    assert_eq!(handle0.stats().commits, 1);

    // Partition replica 1 only: replica 0 keeps certifying.
    assert!(net.sever_certifier_link(1));
    assert!(net.is_link_severed(1));
    assert!(!handle1.is_available());
    assert!(handle0.is_available());
    assert!(net.heal_all_links());
    assert!(!net.is_link_severed(1));
    net.client(1).wait_connected(Duration::from_secs(2)).unwrap();
    assert!(handle1.is_available());
    assert!(metrics
        .events()
        .iter()
        .any(|e| e.kind == EventKind::LinkFault));
    net.shutdown();
}

/// A server for `handle` plus one connected session, over `kind`.
fn serve(kind: TransportKind, handle: CertifierHandle) -> (NetServer, Arc<RemoteCertifier>) {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let (server_side, client_side, endpoint): (Box<dyn Transport>, Arc<dyn Transport>, &str) =
        match kind {
            TransportKind::Tcp => (
                Box::new(TcpTransport::new()),
                Arc::new(TcpTransport::new()),
                "127.0.0.1:0",
            ),
            _ => {
                let net = LoopbackNet::shared();
                (
                    Box::new(net.transport("certifier")),
                    Arc::new(net.transport("replica-0")),
                    "certifier",
                )
            }
        };
    let server = NetServer::start(
        "certifier",
        handle,
        server_side.as_ref(),
        endpoint,
        Arc::clone(&metrics),
    )
    .unwrap();
    let client = RemoteCertifier::start(
        SessionConfig::new("replica-0", server.endpoint()),
        client_side,
        metrics,
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();
    (server, client)
}

/// Timing-sensitive tests take this so they never share the CPU with each
/// other.
static TIMED: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Regression bound for the wire round trip: 2 000 sequential pings must
/// take under 200 ms on each transport — a mean of 100 µs per round trip.
/// A session that parks on a timer anywhere on the path (client or
/// server side) cannot meet it.
#[test]
fn sequential_round_trips_wake_on_arrival() {
    let _timed = TIMED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for kind in [TransportKind::Tcp, TransportKind::Loopback] {
        let (server, client) = serve(kind, single_handle());
        client.ping().unwrap(); // warm the path
        let start = Instant::now();
        for _ in 0..2_000 {
            client.ping().unwrap();
        }
        let took = start.elapsed();
        client.close();
        server.stop();
        assert!(
            took < Duration::from_millis(200),
            "{kind:?}: 2000 round trips took {took:?} (bound 200 ms)"
        );
    }
}

/// Shutting a cluster's network down with an idle connected session must
/// be prompt: nothing may stay blocked (a reader in receive, the server in
/// accept) without something to wake it.
#[test]
fn cluster_net_shutdown_is_prompt_with_idle_sessions() {
    let _timed = TIMED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for kind in [TransportKind::Tcp, TransportKind::Loopback] {
        for cycle in 0..50 {
            let net = ClusterNet::start(
                kind,
                single_handle(),
                2,
                Arc::new(MetricsRegistry::enabled()),
            )
            .unwrap();
            let handle = net.replica_handle(0);
            let at = handle.system_version();
            let response = handle
                .certify(&CertificationRequest {
                    replica: ReplicaId(0),
                    start_version: at,
                    writeset: ws(cycle),
                    replica_version: at,
                })
                .unwrap();
            assert!(response.decision.is_commit());
            // Replica 1's session stays connected and idle throughout.
            assert!(net.client(1).is_connected());
            let start = Instant::now();
            net.shutdown();
            let took = start.elapsed();
            assert!(
                took < Duration::from_millis(100),
                "{kind:?} cycle {cycle}: shutdown took {took:?} (bound 100 ms)"
            );
        }
    }
}

#[test]
fn state_transfer_from_a_sharded_certifier_is_a_typed_error() {
    let sharded = CertifierHandle::Sharded(Arc::new(ShardedCertifier::new(
        ShardedCertifierConfig::with_shards(2),
    )));
    for kind in [TransportKind::Loopback, TransportKind::Tcp] {
        let (server, client) = serve(kind, sharded.clone());
        let err = client
            .state_transfer()
            .expect_err("a sharded certifier has no single checkpoint to ship");
        assert!(!err.is_unavailable(), "{kind:?}: not a wire failure: {err}");
        assert!(err.to_string().contains("sharded"), "{kind:?}: {err}");
        // The session survives the refusal.
        assert!(commit(client.as_ref(), 1).value() > 0);
        client.close();
        server.stop();
    }
    // The unsharded certifier still answers "never sealed" as `None`.
    let (server, client) = serve(TransportKind::Loopback, single_handle());
    assert!(client.state_transfer().unwrap().is_none());
    client.close();
    server.stop();
}
