//! [`ClusterNet`]: the whole cluster's networking in one object.
//!
//! `Cluster::new` (in the `tashkent` crate) builds one of these whenever
//! `ClusterConfig::transport` is networked.  It starts the certifier's
//! [`NetServer`], dials one [`RemoteCertifier`] session per replica, and
//! hands each replica a [`CertifierHandle::Remote`] whose data plane rides
//! the wire while the control plane (fault injection, checkpoints, log
//! inspection) stays on the colocated in-process handle.
//!
//! Under the loopback transport it also exposes the link-fault hooks the
//! fault executor drives: sever or heal the link between one replica (or
//! all of them) and the certifier.  Each state change lands in the event
//! journal as [`EventKind::LinkFault`].

use std::sync::Arc;
use std::time::Duration;

use tashkent_common::{
    metrics::MetricsRegistry, Component, Error, Event, EventKind, Result, TransportKind,
};
use tashkent_proxy::CertifierHandle;

use crate::loopback::LoopbackNet;
use crate::server::NetServer;
use crate::session::{RemoteCertifier, SessionConfig};
use crate::tcp::TcpTransport;
use crate::transport::Transport;

/// The loopback endpoint name the certifier listens on.
pub const CERTIFIER_ENDPOINT: &str = "certifier";

/// How long cluster start-up waits for every session to establish.
const CONNECT_DEADLINE: Duration = Duration::from_secs(5);

/// The name of replica `i`'s endpoint / session.
fn replica_name(replica: usize) -> String {
    format!("replica-{replica}")
}

/// One cluster's network: the certifier server plus one client session per
/// replica.
pub struct ClusterNet {
    kind: TransportKind,
    loopback: Option<Arc<LoopbackNet>>,
    colocated: CertifierHandle,
    metrics: Arc<MetricsRegistry>,
    // Declared before `server` so sessions say goodbye while the server
    // is still answering.
    clients: Vec<Arc<RemoteCertifier>>,
    server: NetServer,
}

impl ClusterNet {
    /// Starts the server and one connected session per replica.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for [`TransportKind::InProcess`] (there is
    /// no network to start); otherwise whatever binding, dialling or the
    /// start-up handshake barrier reports.
    pub fn start(
        kind: TransportKind,
        colocated: CertifierHandle,
        replicas: usize,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<ClusterNet> {
        let (loopback, server) = match kind {
            TransportKind::InProcess => {
                return Err(Error::InvalidConfig(
                    "ClusterNet::start needs a networked transport".into(),
                ));
            }
            TransportKind::Loopback => {
                let net = LoopbackNet::shared();
                let server = NetServer::start(
                    CERTIFIER_ENDPOINT,
                    colocated.clone(),
                    &net.transport(CERTIFIER_ENDPOINT),
                    CERTIFIER_ENDPOINT,
                    Arc::clone(&metrics),
                )?;
                (Some(net), server)
            }
            TransportKind::Tcp => {
                let server = NetServer::start(
                    CERTIFIER_ENDPOINT,
                    colocated.clone(),
                    &TcpTransport::new(),
                    "127.0.0.1:0",
                    Arc::clone(&metrics),
                )?;
                (None, server)
            }
        };
        let mut clients = Vec::with_capacity(replicas);
        for replica in 0..replicas {
            let name = replica_name(replica);
            let transport: Arc<dyn Transport> = match &loopback {
                Some(net) => Arc::new(net.transport(&name)),
                None => Arc::new(TcpTransport::new()),
            };
            clients.push(RemoteCertifier::start(
                SessionConfig::new(&name, server.endpoint()),
                transport,
                Arc::clone(&metrics),
            ));
        }
        for client in &clients {
            client.wait_connected(CONNECT_DEADLINE)?;
        }
        Ok(ClusterNet {
            kind,
            loopback,
            colocated,
            metrics,
            clients,
            server,
        })
    }

    /// Which transport this network runs on.
    #[must_use]
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// The endpoint the certifier server answers at.
    #[must_use]
    pub fn endpoint(&self) -> &str {
        self.server.endpoint()
    }

    /// The handle replica `replica` should talk to the certifier through:
    /// data plane over this replica's session, control plane colocated.
    ///
    /// # Panics
    ///
    /// If `replica` is out of range (a cluster wiring bug).
    #[must_use]
    pub fn replica_handle(&self, replica: usize) -> CertifierHandle {
        let service: Arc<RemoteCertifier> = Arc::clone(&self.clients[replica]);
        CertifierHandle::Remote {
            service,
            colocated: Box::new(self.colocated.clone()),
        }
    }

    /// The session object for one replica (tests poke it directly).
    #[must_use]
    pub fn client(&self, replica: usize) -> &Arc<RemoteCertifier> {
        &self.clients[replica]
    }

    fn emit_link_fault(&self, replica: usize) {
        self.metrics
            .emit(Event::new(Component::Replica, EventKind::LinkFault).node(replica));
    }

    /// Severs the loopback link between one replica and the certifier.
    /// Returns `false` (a no-op) on non-loopback transports or if already
    /// severed.
    pub fn sever_certifier_link(&self, replica: usize) -> bool {
        let Some(net) = &self.loopback else {
            return false;
        };
        let changed = net.sever(&replica_name(replica), CERTIFIER_ENDPOINT);
        if changed {
            self.emit_link_fault(replica);
        }
        changed
    }

    /// Severs only one *direction* of a replica's loopback link to the
    /// certifier — the half-open link.  `to_certifier = true` drops the
    /// replica→certifier direction (requests vanish, the replica's sends
    /// still "succeed"); `false` drops certifier→replica (requests arrive
    /// and are served, the responses vanish — the nastier half).  Returns
    /// `false` (a no-op) on non-loopback transports or if that direction
    /// was already cut.
    pub fn sever_certifier_link_one_way(&self, replica: usize, to_certifier: bool) -> bool {
        let Some(net) = &self.loopback else {
            return false;
        };
        let name = replica_name(replica);
        let (from, to) = if to_certifier {
            (name.as_str(), CERTIFIER_ENDPOINT)
        } else {
            (CERTIFIER_ENDPOINT, name.as_str())
        };
        let changed = net.sever_one_way(from, to);
        if changed {
            self.emit_link_fault(replica);
        }
        changed
    }

    /// Enables seeded random connection resets on the loopback network
    /// (packet loss as the session layer experiences it).  `rate = 0.0`
    /// disables.  Returns `false` on non-loopback transports.
    pub fn set_packet_loss(&self, seed: u64, rate: f64) -> bool {
        let Some(net) = &self.loopback else {
            return false;
        };
        net.set_drop_rate(seed, rate);
        true
    }

    /// Heals the loopback link between one replica and the certifier.
    pub fn heal_certifier_link(&self, replica: usize) -> bool {
        let Some(net) = &self.loopback else {
            return false;
        };
        let changed = net.heal(&replica_name(replica), CERTIFIER_ENDPOINT);
        if changed {
            self.emit_link_fault(replica);
        }
        changed
    }

    /// Severs *every* replica's link to the certifier — the full
    /// replica↔certifier partition.  Returns `true` if any link changed.
    pub fn partition_certifier(&self) -> bool {
        let mut any = false;
        // Deliberately not `Iterator::any`: every link must be cut, so the
        // loop must not short-circuit on the first change.
        for replica in 0..self.clients.len() {
            any |= self.sever_certifier_link(replica);
        }
        any
    }

    /// Heals every severed link.  Returns `true` if any link changed.
    pub fn heal_all_links(&self) -> bool {
        let Some(net) = &self.loopback else {
            return false;
        };
        let healed = net.heal_all();
        if healed > 0 {
            // One journal entry per replica keeps the timeline per-node.
            for replica in 0..self.clients.len() {
                self.emit_link_fault(replica);
            }
        }
        healed > 0
    }

    /// `true` while the link between `replica` and the certifier is
    /// severed.
    #[must_use]
    pub fn is_link_severed(&self, replica: usize) -> bool {
        self.loopback
            .as_ref()
            .is_some_and(|net| net.is_severed(&replica_name(replica), CERTIFIER_ENDPOINT))
    }

    /// Shuts every session down, then the server.  Idempotent; `Drop` does
    /// the same.
    pub fn shutdown(&self) {
        for client in &self.clients {
            client.close();
        }
        self.server.stop();
    }
}

impl Drop for ClusterNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}
