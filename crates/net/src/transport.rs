//! Transport abstraction: blocking byte pipes with deadlines.
//!
//! The session threads ([`crate::session`], [`crate::server`]) are written
//! against these three traits only, so the in-memory loopback transport and
//! the TCP transport are interchangeable — `ClusterConfig::transport` picks
//! one and nothing above this layer changes.
//!
//! Every operation blocks until it can make progress, and every blocking
//! call can be woken from another thread:
//!
//! * [`Connection::recv`] sleeps until bytes arrive, the deadline passes
//!   (`Ok(0)`) or the connection closes; [`Connection::close`] on any handle
//!   of the connection (see [`Connection::try_clone`]) wakes it.
//! * [`Connection::send`] writes the whole buffer, waiting for the peer to
//!   drain while it is behind (backpressure) — up to a deadline.
//! * [`Listener::accept`] sleeps until a dial arrives;
//!   [`Listener::close`] wakes it.
//!
//! [`Error::Unavailable`](tashkent_common::Error::Unavailable) means the
//! connection is gone (peer closed, link severed, socket reset, or a send
//! missed its deadline); the caller must drop it and, if it owns the
//! session, reconnect.

use std::time::Instant;

use tashkent_common::{metrics::MetricsRegistry, CounterId, Result};

use crate::frame::FrameReader;
use crate::message::{decode_message, to_frame, Envelope};

/// One established bidirectional byte stream.
pub trait Connection: Send {
    /// Writes all of `bytes`, waiting while the peer is behind.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) once the
    /// connection is closed or its link severed, or if `deadline` passes
    /// before every byte was accepted.  A frame may then be cut short on
    /// the wire, so the caller must close the connection.
    fn send(&mut self, bytes: &[u8], deadline: Instant) -> Result<()>;

    /// Waits for bytes and reads what arrived into `buf`; returns how many
    /// (at least one), or `0` once `deadline` passes.  `None` waits until
    /// bytes arrive or the connection closes.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) once the
    /// connection is closed or its link severed.
    fn recv(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> Result<usize>;

    /// A second handle on the same connection, so one thread can block in
    /// [`Connection::recv`] while another sends or closes.
    ///
    /// # Errors
    ///
    /// [`Error::Io`](tashkent_common::Error::Io) if the handle cannot be
    /// duplicated.
    fn try_clone(&self) -> Result<Box<dyn Connection>>;

    /// Closes both directions now.  Every handle blocked in `send` or
    /// `recv` wakes and fails, and the peer sees the close.
    fn close(&self);

    /// The peer's endpoint name (loopback) or socket address (TCP), for
    /// logs and the session table.
    fn peer(&self) -> String;
}

/// A bound accept point.
pub trait Listener: Send + Sync {
    /// Waits for the next dial and returns its connection.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) once the
    /// listener is closed.
    fn accept(&self) -> Result<Box<dyn Connection>>;

    /// Closes the listener: a blocked [`Listener::accept`] wakes and fails,
    /// and later dials are refused.  Idempotent.
    fn close(&self);

    /// The endpoint this listener is reachable at.  For TCP bound to port
    /// `0` this is the *actual* address, so clients can dial it.
    fn local_endpoint(&self) -> String;
}

/// A way of creating listeners and connections.
pub trait Transport: Send + Sync {
    /// Binds a listener at `endpoint` (a logical name for loopback, a
    /// socket address for TCP — `127.0.0.1:0` picks a free port).
    ///
    /// # Errors
    ///
    /// [`Error::Io`](tashkent_common::Error::Io) if binding fails;
    /// [`Error::InvalidConfig`](tashkent_common::Error::InvalidConfig) if
    /// the endpoint name is already taken (loopback).
    fn listen(&self, endpoint: &str) -> Result<Box<dyn Listener>>;

    /// Dials the listener at `endpoint`.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) if no
    /// listener answers or the link is severed.
    fn dial(&self, endpoint: &str) -> Result<Box<dyn Connection>>;
}

/// Sends one encoded frame, counting it in the metrics registry
/// ([`CounterId::NetBytesSent`], [`CounterId::NetMessages`]).
pub(crate) fn send_frame(
    conn: &mut dyn Connection,
    frame: &[u8],
    deadline: Instant,
    metrics: &MetricsRegistry,
) -> Result<()> {
    conn.send(frame, deadline)?;
    metrics.add(CounterId::NetBytesSent, frame.len() as u64);
    metrics.incr(CounterId::NetMessages);
    Ok(())
}

/// A [`Connection`] with framing and message accounting on top: the unit
/// both session threads ([`crate::session`], [`crate::server`]) read from.
///
/// Inbound bytes are reassembled into frames and decoded into envelopes.
/// Byte and message counters go to the cluster's metrics registry
/// ([`CounterId::NetBytesSent`], [`CounterId::NetBytesReceived`],
/// [`CounterId::NetMessages`]).
pub struct FramedConn {
    conn: Box<dyn Connection>,
    reader: FrameReader,
}

impl FramedConn {
    /// Wraps an established connection.
    #[must_use]
    pub fn new(conn: Box<dyn Connection>) -> FramedConn {
        FramedConn {
            conn,
            reader: FrameReader::new(),
        }
    }

    /// The peer's name / address.
    #[must_use]
    pub fn peer(&self) -> String {
        self.conn.peer()
    }

    /// Encodes and sends one envelope.
    ///
    /// # Errors
    ///
    /// Whatever [`Connection::send`] reports.
    pub fn send(
        &mut self,
        envelope: &Envelope,
        deadline: Instant,
        metrics: &MetricsRegistry,
    ) -> Result<()> {
        send_frame(self.conn.as_mut(), &to_frame(envelope), deadline, metrics)
    }

    /// Waits for the next complete envelope; `None` once `deadline` passes
    /// (never, for a `None` deadline).
    ///
    /// # Errors
    ///
    /// Propagates connection loss, and surfaces malformed frames or
    /// messages as their typed errors — the caller tears the session down.
    pub fn recv(
        &mut self,
        deadline: Option<Instant>,
        metrics: &MetricsRegistry,
    ) -> Result<Option<Envelope>> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = self.reader.next_frame()? {
                let mut bytes = bytes::Bytes::from(payload);
                let envelope = decode_message(&mut bytes)?;
                metrics.incr(CounterId::NetMessages);
                return Ok(Some(envelope));
            }
            let n = self.conn.recv(&mut buf, deadline)?;
            if n == 0 {
                return Ok(None);
            }
            metrics.add(CounterId::NetBytesReceived, n as u64);
            self.reader.push(&buf[..n]);
        }
    }

    /// Closes the connection (see [`Connection::close`]).
    pub fn close(&self) {
        self.conn.close();
    }
}
