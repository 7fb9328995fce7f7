//! The wire client: [`RemoteBackend`] puts the whole [`ResourceManager`]
//! surface on the far end of a TCP socket.
//!
//! The paper's architecture is explicitly a *network* service — "queries
//! propagate from one stage to the next via TCP or UDP", and "all state
//! information is carried with the query itself".  The exact client code
//! that runs against an in-process backend runs unchanged against a daemon
//! on another machine ([`crate::server`]), and the ticket pipelining the
//! paper measures spans a real network hop: multiple tickets in flight on
//! one connection, multiplexed by correlation id.  The transport itself —
//! dial, version negotiation, reply routing — is the crate-private
//! `corr::Conn`, which the federation peer links share.  A connection has
//! no thread of its own: each calling thread reads its own reply, taking
//! turns at the socket with the other callers of the same connection.
//!
//! A submission carries its own wait: `submit` writes the `Submit` frame
//! and returns at once, and the daemon answers it with the query's
//! `Outcome`.  The ticket is the request's correlation id on this
//! connection — the daemon issues none — and `wait` collects that reply:
//! only then does the calling thread take its turn at the socket.  One
//! allocation is two round trips: `Submit` → `Outcome`, `Release` →
//! `Released`.  Several queries are in flight at once as several pipelined
//! `Submit`s; `wait_deadline` and `try_poll` collect the reply with their
//! deadline on this side of the socket.
//!
//! A submission's ticket must be redeemed: its reply waits on the
//! connection until `wait` (or a `wait_deadline` / `try_poll` that returns
//! it) collects it, and dropping the ticket frees nothing — so the
//! connection caps how many may await collection.

use std::sync::Arc;
use std::time::Duration;

use actyp_proto::{ClientFrame, RequestId, ServerFrame, MAX_SEQUENCE_LEN};
use actyp_query::Query;

use crate::allocation::{AllocateDone, AllocationError, ReleaseDone};
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
/// [`AllocationError::UnknownTicket`].  A ticket from `submit` or
/// `submit_text` holds its reply on the connection until it is redeemed;
/// past 1,024 unredeemed ones, `submit` fails with
/// [`AllocationError::Protocol`] and sends nothing.
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
    /// same correlation id.  No reply deadline: a `Release` legitimately
    /// takes as long as the pipeline does, and a dead connection wakes
    /// the request anyway.
    fn request(
        &self,
        build: impl FnOnce(RequestId) -> ClientFrame,
    ) -> Result<ServerFrame, AllocationError> {
        self.conn.request(None, build).map_err(Self::conn_error)
    }

    fn conn_error(e: ConnError) -> AllocationError {
        match e {
            ConnError::Refused(message) => AllocationError::Protocol(message),
            other => AllocationError::Network(other.to_string()),
        }
    }

    /// Collects the `Outcome` of `ticket`'s `Submit`, waiting for it at
    /// most `deadline` (forever when `None`); `None` while it has not
    /// arrived.
    fn collect(&self, ticket: Ticket, deadline: Option<Duration>) -> Option<QueryOutcome> {
        if ticket.brand() != self.brand {
            return Some(Err(AllocationError::UnknownTicket));
        }
        match self.conn.collect(ticket.id(), deadline) {
            None => Some(Err(AllocationError::UnknownTicket)),
            Some(Ok(frame)) => Some(Self::outcome(frame)),
            Some(Err(ConnError::Timeout)) => None,
            Some(Err(e)) => Some(Err(Self::conn_error(e))),
        }
    }

    /// What an `Outcome` (or the `Error` that replaces it) carries.
    fn outcome(frame: ServerFrame) -> QueryOutcome {
        match frame {
            ServerFrame::Outcome { outcome, .. } => outcome,
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
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

    /// Sends one query already rendered in the native text form — the
    /// protocol's query encoding — and checked against the wire limit, and
    /// returns without waiting: the ticket names the `Submit`'s reply, which
    /// `wait` collects.
    fn send_submit(&self, query: String) -> Result<Ticket, AllocationError> {
        let corr = self
            .conn
            .submit(|corr| ClientFrame::Submit { corr, query })
            .map_err(Self::conn_error)?;
        Ok(Ticket::from_parts(self.brand, corr))
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
        let text = query.to_string();
        Self::check_wire_text(&text)?;
        self.send_submit(text)
    }

    /// Ships the text as-is — it already *is* the wire encoding — once it
    /// parses: the reply comes only when the ticket is redeemed, and a
    /// malformed query fails here, as it does in-process.
    fn submit_text(&self, text: &str) -> Result<Ticket, AllocationError> {
        Self::check_wire_text(text)?;
        actyp_query::parse_query(text).map_err(|e| AllocationError::Parse(e.to_string()))?;
        self.send_submit(text.to_string())
    }

    /// The round trip runs on the calling thread: this is a client, and
    /// no daemon hosts it.
    fn allocate_with(&self, query: Query, done: AllocateDone) {
        done(self.submit_wait(&query));
    }

    fn wait(&self, ticket: Ticket) -> QueryOutcome {
        self.collect(ticket, None)
            .expect("an unbounded collect returns the reply")
    }

    /// The reply is collected here, with the deadline on this side of the
    /// socket: the daemon never hears of it.
    fn wait_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<QueryOutcome> {
        self.collect(ticket, Some(timeout))
    }

    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
        self.collect(ticket, Some(Duration::ZERO))
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

    /// The round trip runs on the calling thread, like
    /// [`allocate_with`](Self::allocate_with)'s.
    fn release_with(&self, allocation: &crate::allocation::Allocation, done: ReleaseDone) {
        done(self.release(allocation));
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
        // submissions and leases this client abandoned.
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
        let db = fleet_db(400, 2);
        let live = std::sync::Arc::new(
            PipelineBuilder::new()
                .database(db.clone())
                .build_live()
                .unwrap(),
        );
        let server = crate::server::serve(Box::new(live.clone()), &loopback()).unwrap();
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let query = Query::paper_example();

        // Several tickets in flight on the socket before the first wait.
        // The pool-manager stage cannot finish any of them while it is
        // held, so the daemon holds all five at once.
        let hold = crate::live::tests::hold_stage(live.pipeline());
        let tickets: Vec<Ticket> = (0..5)
            .map(|_| remote.submit(query.clone()).unwrap())
            .collect();
        assert_eq!(
            remote.stats().in_flight,
            5,
            "server-side stats must show overlapping tickets"
        );
        drop(hold);
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
        let server = serve_kind(BackendKind::Live, 100, 4);
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
        let server = serve_kind(BackendKind::Live, 200, 5);
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
        let server = serve_kind(BackendKind::Live, 50, 9);
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
        let server = serve_kind(BackendKind::Live, 100, 10);
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
