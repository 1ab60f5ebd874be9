//! The networking layer: run the Tashkent cluster over a wire.
//!
//! Every other crate in the workspace was written against in-process calls —
//! a proxy invokes its [`CertifierHandle`](tashkent_proxy::CertifierHandle)
//! and the certifier answers on the same stack.  This crate puts a real wire
//! between them without changing any of that code:
//!
//! * [`frame`] — the `TKNP` framed wire format: magic, protocol version,
//!   length prefix, FNV-1a payload checksum.  Truncated or corrupted frames
//!   surface as typed errors; frames from a different protocol version are
//!   skipped, never panicked on.
//! * [`message`] — the hand-rolled binary codec for every replica↔certifier
//!   message: certify request/decision, writeset stream fetch, status,
//!   recovery state transfer, and session control (hello, ping, goodbye).
//! * [`transport`] — the [`Transport`]/[`Listener`]/[`Connection`] traits:
//!   blocking endpoints with deadlines, whose every wait can be woken from
//!   another thread (close a connection or a listener).
//! * [`loopback`] — a deterministic in-memory transport whose links can be
//!   severed and healed (fault injection for partitions) — the cluster's
//!   fault harness drives it exactly like crash faults.
//! * [`tcp`] — the same traits over real blocking `std::net` sockets on
//!   localhost.
//! * [`session`] — the client side: [`RemoteCertifier`] writes each request
//!   straight onto the connection and runs one reader thread per session
//!   (dial, handshake, backpressure, reconnect with exponential backoff,
//!   half-open detection, graceful close); it implements
//!   [`CertifierService`](tashkent_proxy::CertifierService), so a proxy
//!   certifies across the wire through the same handle it always used.
//! * [`server`] — the certifier side: [`NetServer`] accepts sessions and
//!   serves each on its own thread from the in-process certifier behind it.
//! * [`cluster_net`] — [`ClusterNet`] wires one server and one client per
//!   replica together for a whole cluster, and exposes the sever/heal hooks
//!   the fault executor calls.
//!
//! The design intentionally avoids an async runtime: the build is air-gapped
//! and the cluster has a handful of sessions, so one blocked thread per
//! session end is cheap, and every thread wakes the moment its data (or a
//! close) arrives — no poll interval sits on the commit path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster_net;
pub mod frame;
pub mod message;
pub mod loopback;
pub mod server;
pub mod session;
pub mod tcp;
pub mod transport;

pub use cluster_net::ClusterNet;
pub use frame::{encode_frame, encode_frame_with_version, FrameReader, MAGIC, PROTOCOL_VERSION};
pub use message::{decode_message, encode_message, Envelope, Message};
pub use loopback::{LoopbackNet, LoopbackTransport};
pub use server::NetServer;
pub use session::{RemoteCertifier, SessionConfig};
pub use tcp::TcpTransport;
pub use transport::{Connection, Listener, Transport};
