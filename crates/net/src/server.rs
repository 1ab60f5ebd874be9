//! The certifier side of the wire: [`NetServer`].
//!
//! One `NetServer` fronts one in-process certifier (a
//! [`CertifierHandle`]).  An accept thread blocks on the listener and hands
//! every new connection to a session thread of its own, which blocks in
//! receive, answers each request inline from the certifier and writes the
//! response straight back.  Sessions therefore certify concurrently —
//! the certifier's batching and group commit see every replica's requests
//! at once — and nothing polls: an idle server sleeps in the kernel (TCP)
//! or on a condvar (loopback).  [`NetServer::stop`] closes the listener,
//! which wakes the accept, and hangs up every session, which wakes its
//! reader.
//!
//! Sessions appear in the event journal as
//! [`EventKind::SessionOpen`] / [`EventKind::SessionClose`] on the
//! certifier component, and in the open-sessions gauge (each side counts
//! its own end).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tashkent_common::{
    metrics::MetricsRegistry, Component, Event, EventKind, GaugeId, Result,
};
use tashkent_proxy::CertifierHandle;

use crate::message::{node_index, Envelope, Message};
use crate::transport::{Connection, FramedConn, Listener, Transport};

/// How long a response write may wait for a client that is not draining
/// before the session is dropped.
const REPLY_DEADLINE: Duration = Duration::from_secs(2);

/// One session thread and a handle to hang its connection up with.
struct SessionThread {
    conn: Box<dyn Connection>,
    worker: thread::JoinHandle<()>,
}

/// The certifier's network front end.
pub struct NetServer {
    endpoint: String,
    name: String,
    /// Dropped by [`NetServer::stop`], which closes a TCP socket for good.
    listener: Mutex<Option<Arc<dyn Listener>>>,
    sessions: Arc<Mutex<Vec<SessionThread>>>,
    acceptor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl NetServer {
    /// Binds `endpoint` on `transport` and starts accepting sessions for
    /// `handle`.  The returned server reports the *actual* endpoint (TCP
    /// port 0 resolves to the bound port).
    ///
    /// # Errors
    ///
    /// Whatever [`Transport::listen`] reports.
    pub fn start(
        name: &str,
        handle: CertifierHandle,
        transport: &dyn Transport,
        endpoint: &str,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<NetServer> {
        let listener: Arc<dyn Listener> = Arc::from(transport.listen(endpoint)?);
        let actual = listener.local_endpoint();
        let sessions = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let listener = Arc::clone(&listener);
            let sessions = Arc::clone(&sessions);
            let name = name.to_string();
            thread::Builder::new()
                .name(format!("tknp-accept-{name}"))
                .spawn(move || accept_loop(&name, &handle, listener.as_ref(), &metrics, &sessions))
                .expect("spawn server accept thread")
        };
        Ok(NetServer {
            endpoint: actual,
            name: name.to_string(),
            listener: Mutex::new(Some(listener)),
            sessions,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// The endpoint clients should dial (actual TCP port, or the loopback
    /// name).
    #[must_use]
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The server's name (handshake `HelloAck` identity).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stops accepting, hangs up every session and joins every thread.
    /// Idempotent.
    pub fn stop(&self) {
        if let Some(listener) = self.listener.lock().take() {
            listener.close();
        }
        if let Some(acceptor) = self.acceptor.lock().take() {
            let _ = acceptor.join();
        }
        // The acceptor is gone, so no session can be added behind us.
        let sessions = std::mem::take(&mut *self.sessions.lock());
        for session in &sessions {
            session.conn.close();
        }
        for session in sessions {
            let _ = session.worker.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    name: &str,
    handle: &CertifierHandle,
    listener: &dyn Listener,
    metrics: &Arc<MetricsRegistry>,
    sessions: &Mutex<Vec<SessionThread>>,
) {
    while let Ok(conn) = listener.accept() {
        let Ok(hang_up) = conn.try_clone() else {
            conn.close();
            continue;
        };
        let worker = {
            let name = name.to_string();
            let handle = handle.clone();
            let metrics = Arc::clone(metrics);
            thread::Builder::new()
                .name(format!("tknp-session-{name}"))
                .spawn(move || serve_session(&name, &handle, conn, &metrics))
                .expect("spawn server session thread")
        };
        let mut sessions = sessions.lock();
        let (done, live) = std::mem::take(&mut *sessions)
            .into_iter()
            .partition(|session: &SessionThread| session.worker.is_finished());
        *sessions = live;
        sessions.push(SessionThread {
            conn: hang_up,
            worker,
        });
        drop(sessions);
        for session in done {
            let _ = session.worker.join();
        }
    }
}

/// Answers one session's requests in arrival order until it says goodbye,
/// breaks, or the server hangs it up.
fn serve_session(
    name: &str,
    handle: &CertifierHandle,
    conn: Box<dyn Connection>,
    metrics: &Arc<MetricsRegistry>,
) {
    let mut framed = FramedConn::new(conn);
    // The peer's self-declared name once its `Hello` arrived.
    let mut node: Option<String> = None;
    while let Ok(Some(envelope)) = framed.recv(None, metrics) {
        let reply = match envelope.message {
            Message::Hello { node: peer } => {
                metrics.gauge_add(GaugeId::OpenSessions, 1);
                metrics.emit(
                    Event::new(Component::Certifier, EventKind::SessionOpen)
                        .node(node_index(&peer)),
                );
                node = Some(peer);
                Message::HelloAck {
                    node: name.to_string(),
                }
            }
            Message::CertifyRequest(request) => match handle.certify(&request) {
                Ok(response) => Message::CertifyDecision(response),
                Err(e) => Message::ErrorReply {
                    unavailable: e.is_unavailable(),
                    detail: e.to_string(),
                },
            },
            Message::FetchWritesets { since } => Message::WritesetBatch {
                writesets: handle.writesets_after(since),
            },
            Message::StatusRequest => Message::StatusResponse {
                system_version: handle.system_version(),
                truncation_floor: handle.truncation_floor(),
                available: handle.is_available(),
            },
            Message::Ping => Message::Pong,
            // Every earlier request has been answered: this thread answers
            // in order, so the goodbye is the drain point.
            Message::Goodbye => break,
            // Responses arriving at the server are a peer bug; answer with
            // a typed error instead of tearing the session down.
            other => Message::ErrorReply {
                unavailable: false,
                detail: format!("unexpected {} at the certifier", other.label()),
            },
        };
        let envelope = Envelope {
            request_id: envelope.request_id,
            message: reply,
        };
        if framed
            .send(&envelope, Instant::now() + REPLY_DEADLINE, metrics)
            .is_err()
        {
            break;
        }
    }
    framed.close();
    // Sessions that never completed the handshake were never counted.
    if let Some(node) = node {
        metrics.gauge_add(GaugeId::OpenSessions, -1);
        metrics.emit(
            Event::new(Component::Certifier, EventKind::SessionClose).node(node_index(&node)),
        );
    }
}
