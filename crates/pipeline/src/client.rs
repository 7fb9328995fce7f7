//! The wire client: [`RemoteBackend`] puts the whole [`ResourceManager`]
//! surface on the far end of a TCP socket.
//!
//! The paper's architecture is explicitly a *network* service — "queries
//! propagate from one stage to the next via TCP or UDP", and "all state
//! information is carried with the query itself".  The exact client code
//! that runs against the embedded engine runs unchanged against a daemon
//! on another machine ([`crate::server`]), and the ticket pipelining the
//! paper measures spans a real network hop: multiple tickets in flight on
//! one connection, multiplexed by correlation id.  The transport itself —
//! dial, version negotiation, reply routing — is the crate-private
//! `corr::Conn`, which the federation peer links share.  A connection has
//! no thread of its own: each calling thread reads its own reply, taking
//! turns at the socket with the other callers of the same connection.

use std::sync::Arc;
use std::time::Duration;

use actyp_proto::{ClientFrame, RequestId, ServerFrame, MAX_SEQUENCE_LEN};
use actyp_query::Query;

use crate::allocation::AllocationError;
use crate::api::{QueryOutcome, ResourceManager, StatsSnapshot, Ticket};
use crate::corr::{Conn, ConnError};
use crate::message::StageAddress;

/// The [`ResourceManager`] surface served by a remote `ypd` daemon over one
/// TCP connection.
///
/// All trait methods are safe to call from many threads at once; requests
/// are correlated by [`RequestId`], so several tickets can be in flight on
/// the single socket — the paper's pipelining across a network hop.
/// Tickets are branded per connection: redeeming a remote ticket on a
/// different backend (or vice versa) fails with
/// [`AllocationError::UnknownTicket`].
///
/// [`RemoteBackend::stats`] degrades to an empty snapshot if the
/// connection has died (the trait method is infallible); every other
/// operation reports [`AllocationError::Network`] /
/// [`AllocationError::Protocol`] faithfully.
pub struct RemoteBackend {
    conn: Arc<Conn>,
    brand: u64,
    version: u16,
}

impl RemoteBackend {
    /// Connects to a `ypd` daemon and negotiates the protocol version.
    /// Bounded: a daemon that accepts and never answers fails the connect
    /// instead of hanging it.
    pub fn connect(addr: &StageAddress) -> Result<Self, AllocationError> {
        let (conn, version) = Conn::dial(addr)?;
        Ok(RemoteBackend {
            conn,
            brand: crate::api::next_backend_brand(),
            version,
        })
    }

    /// The protocol version negotiated for this connection.
    pub fn protocol_version(&self) -> u16 {
        self.version
    }

    /// Sends one request frame and blocks for the response that carries the
    /// same correlation id.  No reply deadline: a `Wait` legitimately
    /// takes as long as the pipeline does, and a dead connection wakes
    /// the request anyway.
    fn request(
        &self,
        build: impl FnOnce(RequestId) -> ClientFrame,
    ) -> Result<ServerFrame, AllocationError> {
        self.conn.request(None, build).map_err(|e| match e {
            ConnError::Refused(message) => AllocationError::Protocol(message),
            other => AllocationError::Network(other.to_string()),
        })
    }

    fn check_brand(&self, ticket: Ticket) -> Result<u64, AllocationError> {
        if ticket.brand() != self.brand {
            return Err(AllocationError::UnknownTicket);
        }
        Ok(ticket.id())
    }

    fn unexpected(frame: ServerFrame) -> AllocationError {
        AllocationError::Protocol(format!("unexpected response frame: {frame:?}"))
    }

    /// Refuses a query rendering the decoder on the far side would reject,
    /// *before* it poisons the whole connection: the codec caps individual
    /// strings at [`MAX_SEQUENCE_LEN`].
    fn check_wire_text(text: &str) -> Result<(), AllocationError> {
        if text.len() > MAX_SEQUENCE_LEN {
            return Err(AllocationError::Protocol(format!(
                "query text of {} bytes exceeds the wire limit of {MAX_SEQUENCE_LEN} bytes",
                text.len()
            )));
        }
        Ok(())
    }

    /// Submits one query already rendered in the native text form — the
    /// protocol's query encoding.
    fn submit_rendered(&self, query: String) -> Result<Ticket, AllocationError> {
        Self::check_wire_text(&query)?;
        match self.request(|corr| ClientFrame::Submit { corr, query })? {
            ServerFrame::Submitted { ticket, .. } => Ok(Ticket::from_parts(self.brand, ticket)),
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Asks the daemon itself to drain and exit (administrative; not part
    /// of the [`ResourceManager`] surface).  The daemon stops accepting
    /// connections; this session should [`shutdown`](ResourceManager::shutdown)
    /// afterwards so the drain can complete.
    pub fn halt_daemon(&self) -> Result<(), AllocationError> {
        match self.request(|corr| ClientFrame::Halt { corr })? {
            ServerFrame::Ack { .. } => Ok(()),
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
    }
}

impl ResourceManager for RemoteBackend {
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
        // The native text rendering is the protocol's query encoding.
        self.submit_rendered(query.to_string())
    }

    /// Ships the text as-is: it already *is* the wire encoding, so there is
    /// nothing to parse client-side — the server's query manager parses it
    /// once, exactly like an in-process submission, and parse errors come
    /// back through the protocol's error taxonomy.
    fn submit_text(&self, text: &str) -> Result<Ticket, AllocationError> {
        self.submit_rendered(text.to_string())
    }

    fn submit_batch(&self, queries: Vec<Query>) -> Result<Vec<Ticket>, AllocationError> {
        let rendered: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
        for query in &rendered {
            Self::check_wire_text(query)?;
        }
        match self.request(|corr| ClientFrame::SubmitBatch {
            corr,
            queries: rendered,
        })? {
            ServerFrame::BatchSubmitted { tickets, .. } => Ok(tickets
                .into_iter()
                .map(|id| Ticket::from_parts(self.brand, id))
                .collect()),
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
    }

    fn wait(&self, ticket: Ticket) -> QueryOutcome {
        let wire_id = self.check_brand(ticket)?;
        match self.request(|corr| ClientFrame::Wait {
            corr,
            ticket: wire_id,
            deadline_ms: None,
        })? {
            ServerFrame::Outcome { outcome, .. } => outcome,
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
    }

    fn wait_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<QueryOutcome> {
        let wire_id = match self.check_brand(ticket) {
            Ok(id) => id,
            Err(e) => return Some(Err(e)),
        };
        let deadline_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
        match self.request(|corr| ClientFrame::Wait {
            corr,
            ticket: wire_id,
            deadline_ms: Some(deadline_ms),
        }) {
            Ok(ServerFrame::Outcome { outcome, .. }) => Some(outcome),
            Ok(ServerFrame::TimedOut { .. }) => None,
            Ok(ServerFrame::Error { error, .. }) => Some(Err(error)),
            Ok(other) => Some(Err(Self::unexpected(other))),
            Err(e) => Some(Err(e)),
        }
    }

    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
        let wire_id = match self.check_brand(ticket) {
            Ok(id) => id,
            Err(e) => return Some(Err(e)),
        };
        match self.request(|corr| ClientFrame::Poll {
            corr,
            ticket: wire_id,
        }) {
            Ok(ServerFrame::Outcome { outcome, .. }) => Some(outcome),
            Ok(ServerFrame::Pending { .. }) => None,
            Ok(ServerFrame::Error { error, .. }) => Some(Err(error)),
            Ok(other) => Some(Err(Self::unexpected(other))),
            Err(e) => Some(Err(e)),
        }
    }

    fn release(&self, allocation: &crate::allocation::Allocation) -> Result<(), AllocationError> {
        match self.request(|corr| ClientFrame::Release {
            corr,
            allocation: allocation.clone(),
        })? {
            ServerFrame::Released { .. } => Ok(()),
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
    }

    fn stats(&self) -> StatsSnapshot {
        match self.request(|corr| ClientFrame::Stats { corr }) {
            Ok(ServerFrame::StatsReply { stats, .. }) => stats,
            _ => StatsSnapshot::default(),
        }
    }

    fn shutdown(&self) -> Result<(), AllocationError> {
        if self.conn.is_dead() {
            return Ok(());
        }
        // Tell the server so it can settle the session eagerly; a dead
        // connection is already shut down as far as the client can tell.
        let result = self.request(|corr| ClientFrame::Shutdown { corr });
        self.conn.shutdown();
        match result {
            Ok(ServerFrame::Ack { .. }) | Err(AllocationError::Network(_)) => Ok(()),
            Ok(ServerFrame::Error { error, .. }) => Err(error),
            Ok(other) => Err(Self::unexpected(other)),
            Err(e) => Err(e),
        }
    }
}

impl Drop for RemoteBackend {
    fn drop(&mut self) {
        // Closing the socket ends the server session, which settles any
        // tickets this client abandoned.
        self.conn.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{BackendKind, PipelineBuilder};
    use crate::server::ServerHandle;
    use actyp_grid::{FleetSpec, SyntheticFleet};
    use actyp_proto::PROTOCOL_VERSION;

    fn fleet_db(n: usize, seed: u64) -> actyp_grid::SharedDatabase {
        SyntheticFleet::new(FleetSpec::with_machines(n), seed)
            .generate()
            .into_shared()
    }

    fn loopback() -> StageAddress {
        StageAddress::new("127.0.0.1", 0)
    }

    fn serve_kind(kind: BackendKind, machines: usize, seed: u64) -> ServerHandle {
        PipelineBuilder::new()
            .database(fleet_db(machines, seed))
            .serve(&loopback(), kind)
            .unwrap()
    }

    fn paper_text() -> String {
        Query::paper_example().to_string()
    }

    #[test]
    fn remote_round_trip_over_every_hosted_backend() {
        for kind in BackendKind::ALL {
            let server = serve_kind(kind, 300, 1);
            let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
            assert_eq!(remote.protocol_version(), PROTOCOL_VERSION);
            let ticket = remote.submit_text(&paper_text()).unwrap();
            let allocations = remote.wait(ticket).unwrap();
            assert_eq!(allocations.len(), 1, "{kind}");
            assert!(allocations[0].machine_name.contains("sun"), "{kind}");
            remote.release(&allocations[0]).unwrap();
            let stats = remote.stats();
            assert_eq!(stats.requests, 1, "{kind}");
            assert_eq!(stats.releases, 1, "{kind}");
            remote.halt_daemon().unwrap();
            remote.shutdown().unwrap();
            server.join().unwrap();
        }
    }

    #[test]
    fn remote_tickets_pipeline_on_one_connection() {
        let server = PipelineBuilder::new()
            .database(fleet_db(400, 2))
            .query_managers(2)
            .serve(&loopback(), BackendKind::Live)
            .unwrap();
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let query = Query::paper_example();

        // Several tickets in flight on the socket before the first wait.
        let tickets: Vec<Ticket> = (0..5)
            .map(|_| remote.submit(query.clone()).unwrap())
            .collect();
        assert!(
            remote.stats().in_flight >= 2,
            "server-side stats must show overlapping tickets"
        );
        for ticket in tickets {
            let allocations = remote.wait(ticket).unwrap();
            remote.release(&allocations[0]).unwrap();
        }
        assert_eq!(remote.stats().allocations, 5);
        assert_eq!(remote.stats().in_flight, 0);

        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn wait_deadline_times_out_and_the_ticket_survives() {
        let server = serve_kind(BackendKind::Live, 200, 3);
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let ticket = remote.submit_text(&paper_text()).unwrap();
        // A zero deadline may or may not catch the outcome; a generous one
        // must.  Either way the ticket remains redeemable after a timeout.
        if remote.wait_deadline(ticket, Duration::ZERO).is_none() {
            let outcome = remote
                .wait_deadline(ticket, Duration::from_secs(10))
                .expect("resolves within the deadline");
            let allocations = outcome.unwrap();
            remote.release(&allocations[0]).unwrap();
        }
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn remote_errors_cross_the_wire_intact() {
        let server = serve_kind(BackendKind::Embedded, 100, 4);
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        // Allocation failure.
        let err = remote
            .submit_text_wait("punch.rsrc.arch = cray\n")
            .unwrap_err();
        assert_eq!(err, AllocationError::NoSuchResources);
        // Parse failure (parsed server side).
        let ticket_err = remote.submit_text("garbage").unwrap_err();
        assert!(matches!(ticket_err, AllocationError::Parse(_)));
        // Unknown-ticket and double-release failures.
        let ticket = remote.submit_text(&paper_text()).unwrap();
        let allocations = remote.wait(ticket).unwrap();
        assert_eq!(
            remote.wait(ticket).unwrap_err(),
            AllocationError::UnknownTicket
        );
        remote.release(&allocations[0]).unwrap();
        assert_eq!(
            remote.release(&allocations[0]).unwrap_err(),
            AllocationError::UnknownAllocation
        );
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn remote_tickets_are_branded_per_connection() {
        let server = serve_kind(BackendKind::Embedded, 200, 5);
        let first = RemoteBackend::connect(&server.local_addr()).unwrap();
        let second = RemoteBackend::connect(&server.local_addr()).unwrap();
        let ticket = first.submit_text(&paper_text()).unwrap();
        assert_eq!(
            second.wait(ticket).unwrap_err(),
            AllocationError::UnknownTicket
        );
        assert!(first.wait(ticket).is_ok());
        first.halt_daemon().unwrap();
        first.shutdown().unwrap();
        second.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn halt_stops_the_daemon_and_new_connections_fail() {
        let server = serve_kind(BackendKind::Embedded, 50, 9);
        let addr = server.local_addr();
        let remote = RemoteBackend::connect(&addr).unwrap();
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
        // The listener is gone: connecting now fails (or is immediately
        // closed before any HelloAck).
        assert!(RemoteBackend::connect(&addr).is_err());
    }

    #[test]
    fn shutdown_is_idempotent_and_poisons_later_calls() {
        let server = serve_kind(BackendKind::Embedded, 100, 10);
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        remote.shutdown().unwrap();
        remote.shutdown().unwrap();
        let err = remote.submit_text(&paper_text()).unwrap_err();
        assert!(matches!(err, AllocationError::Network(_)), "{err:?}");
        server.halt();
        server.join().unwrap();
    }

    #[test]
    fn connect_to_a_listener_that_never_answers_is_bounded() {
        // The kernel completes the TCP handshake from the backlog; nobody
        // ever accepts, reads the Hello or writes a HelloAck.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = silent.local_addr().unwrap().port();
        let started = std::time::Instant::now();
        let refused = RemoteBackend::connect(&StageAddress::new("127.0.0.1", port));
        assert!(
            matches!(refused, Err(AllocationError::Network(_))),
            "{:?}",
            refused.err()
        );
        assert!(
            started.elapsed() < crate::corr::CONNECT_TIMEOUT * 3,
            "the handshake read must be bounded, took {:?}",
            started.elapsed()
        );
    }
}
