//! The wire server: a `ypd` daemon hosting any backend behind the
//! [`actyp_proto`] protocol ([`crate::client::RemoteBackend`] is the other
//! end of the socket).
//!
//! [`serve`] binds a listener and hosts *any* [`ResourceManager`] — the
//! embedded engine, the threaded live pipeline or a centralized baseline.
//! Each connection is a *session* with its own ticket table: wire ticket
//! ids are session-scoped, so one client can never redeem (or guess)
//! another's tickets.  Allocations are *session leases*: a session that
//! ends settles its outstanding tickets (each outcome taken as it arrives
//! and handed straight back) and every allocation the client still held,
//! so an abruptly disconnected client leaks neither machines nor window
//! permits.  [`ServerHandle::halt`] (or a client's [`ClientFrame::Halt`])
//! drains the daemon gracefully: the listener stops accepting, open
//! sessions finish, and [`ServerHandle::join`] then tears the hosted
//! backend down.
//!
//! # Session I/O: the reactor
//!
//! Session I/O is event driven: a fixed pool of I/O threads
//! ([`ServerConfig::io_threads`]) drives every session's nonblocking
//! socket through a [`crate::reactor::Poller`] (epoll on Linux, `poll(2)`
//! on other unix hosts; there is no server off unix).  Each session is an
//! explicit state machine (`session.rs`) — buffered partial-frame reads, a
//! write queue the I/O thread flushes as the socket allows (with a
//! high-water mark that stops *reading* from a client that is not draining
//! its replies), and a drain-aware close that lets queued replies leave
//! before the socket shuts.  A request is finished by whichever thread has
//! its answer: the I/O thread that decoded it when nothing has to wait; the
//! backend stage that produces a wait's or a release's answer
//! ([`ResourceManager::wait_with`], [`ResourceManager::release_with`]); for
//! a `Submit` the live backend's admission window
//! ([`ResourceManager::submit_with`]), at once or from the thread whose
//! release frees its permit.  A closing session settles its abandoned
//! tickets the same way.  Only a call that would *park* leaves the I/O
//! thread, for one of two fixed worker lanes (`lanes.rs`).  Whoever
//! finishes a request writes the reply to the session's non-blocking socket
//! itself; only what the socket does not take is queued for the session's
//! I/O thread, which is rung for it — a syscall only if that thread is
//! asleep in `poll`.
//! The listener itself is one more readiness source on the first I/O
//! thread — there is no dedicated accept thread — and that thread's timer
//! wheel also drives the periodic anti-entropy gossip tick and peer health
//! probe of a federated daemon.  The same thread carries the daemon's warm
//! peer links as sessions of kind *peer*: a federated `Wait`, a remote
//! `Release` and an inbound `Delegate` are completions too, each `Delegate`
//! or `Release` to a peer written by the thread that holds the previous
//! answer, and each peer reply finished there (see
//! [`crate::federation`]).  The daemon's thread count is therefore
//! *independent of its session count*: the I/O pool + two worker lanes +
//! the hosted backend, whether two clients are connected or two thousand.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

#[cfg(doc)]
use actyp_proto::ClientFrame;

use crate::allocation::AllocationError;
use crate::api::ResourceManager;
use crate::federation::FederatedBackend;
use crate::message::StageAddress;
use crate::reactor::PollerKind;

#[cfg(unix)]
mod lanes;
#[cfg(unix)]
mod session;

/// Server-side knobs: how many threads the daemon spends on session I/O,
/// and how they wait for readiness.  The defaults suit a daemon on a small
/// host; raise [`ServerConfig::io_threads`] with core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Reactor I/O threads (clamped to at least 1).  Sessions are
    /// distributed round-robin across them at accept time.
    pub io_threads: usize,
    /// Which readiness poller the I/O threads use.  [`PollerKind::Auto`]
    /// picks the platform's best; the test suite forces
    /// [`PollerKind::Poll`] on Linux to keep the portable poller honest.
    pub poller: PollerKind,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            io_threads: 2,
            poller: PollerKind::Auto,
        }
    }
}

struct ServerShared {
    manager: Box<dyn ResourceManager>,
    /// Present when this daemon is federated: the same backend the
    /// sessions serve, kept concretely typed so incoming
    /// [`ClientFrame::Delegate`] / [`ClientFrame::SyncPools`] frames from
    /// peer daemons reach the federation surface the trait does not carry.
    federation: Option<Arc<FederatedBackend>>,
    draining: AtomicBool,
    /// Client sessions open on every I/O thread (peer links excluded): a
    /// draining daemon keeps its peer links up until this reaches zero,
    /// because a closing session's settling may release leases across them.
    client_sessions: std::sync::atomic::AtomicUsize,
    /// The session engine.  Taken at join time.
    reactor: Mutex<Option<ReactorEngine>>,
    /// The worker lanes, reached by whichever thread hands a step on.
    #[cfg(unix)]
    pools: Arc<lanes::Pools>,
    /// Frames decoded from a readable event that carried more than one;
    /// overlaid on every `Stats` reply.
    frames_batched: AtomicU64,
    /// Flushes that drained more than one queued frame with a single
    /// coalesced socket write.
    writes_coalesced: AtomicU64,
    /// Turns of every I/O thread's event loop.
    #[cfg(all(test, unix))]
    io_loops: AtomicU64,
}

impl ServerShared {
    /// Flags the drain and wakes the I/O threads, which stop accepting,
    /// close (and settle) every session still open, and exit.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(engine) = &*self.reactor.lock() {
            engine.ring();
        }
    }
}

/// A running `ypd` server.  Dropping the handle does *not* stop the daemon;
/// call [`ServerHandle::halt`] then [`ServerHandle::join`] for a graceful
/// drain (or let a client send [`ClientFrame::Halt`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
}

impl ServerHandle {
    /// The address the daemon actually listens on (resolves port 0 binds).
    pub fn local_addr(&self) -> StageAddress {
        StageAddress::new(self.addr.ip().to_string(), self.addr.port())
    }

    /// Asks the daemon to drain: stop accepting new connections and let the
    /// open sessions run to completion.  Idempotent.
    pub fn halt(&self) {
        self.shared.begin_drain();
    }

    /// Jobs the daemon's worker lanes have started so far.
    #[cfg(all(test, unix))]
    pub(crate) fn lane_jobs(&self) -> u64 {
        self.shared.pools.submit.jobs_run() + self.shared.pools.redeem.jobs_run()
    }

    /// Blocks until the daemon has fully drained (listener closed and
    /// every session finished — sessions end when their client disconnects
    /// or shuts its session down; during a drain, sessions idle between
    /// frames are ended and settled too, so a daemon with pooled peer
    /// links or forgotten clients still stops), then tears the hosted
    /// backend down and surfaces any stage worker panics.  Call
    /// [`ServerHandle::halt`] first, or this blocks until a client halts
    /// the daemon.
    ///
    /// Every teardown step runs even when an earlier one failed — the
    /// hosted backend is always shut down — and all problems are reported
    /// together.
    pub fn join(self) -> Result<(), AllocationError> {
        let mut problems: Vec<String> = Vec::new();
        // Taken in its own statement so the mutex drops *before* the
        // joins: an `if let` scrutinee's temporary guard would otherwise
        // be held across them, deadlocking a `Halt` that wakes the engine.
        let engine = self.shared.reactor.lock().take();
        if let Some(engine) = engine {
            engine.join(&self.shared, &mut problems);
        }
        if let Some(federation) = &self.shared.federation {
            federation.detach();
        }
        if let Err(e) = self.shared.manager.shutdown() {
            problems.push(e.to_string());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(AllocationError::Internal(problems.join("; ")))
        }
    }
}

/// Binds `addr` and serves `manager` over the wire protocol until halted,
/// with the default [`ServerConfig`].
///
/// `addr.port == 0` binds an ephemeral port; read it back with
/// [`ServerHandle::local_addr`].
pub fn serve(
    manager: Box<dyn ResourceManager>,
    addr: &StageAddress,
) -> Result<ServerHandle, AllocationError> {
    serve_inner(manager, None, addr, ServerConfig::default())
}

/// [`serve`] with explicit server-side knobs (I/O threads, poller choice).
pub fn serve_with(
    manager: Box<dyn ResourceManager>,
    addr: &StageAddress,
    config: ServerConfig,
) -> Result<ServerHandle, AllocationError> {
    serve_inner(manager, None, addr, config)
}

/// Binds `addr` and serves a *federated* backend: the full client protocol
/// plus the inter-daemon [`ClientFrame::Delegate`] /
/// [`ClientFrame::SyncPools`] vocabulary peer daemons speak.  The backend
/// is shared — the caller keeps its `Arc` for inspection (an `Arc` of a
/// manager is itself a manager).
pub fn serve_federated(
    backend: Arc<FederatedBackend>,
    addr: &StageAddress,
) -> Result<ServerHandle, AllocationError> {
    serve_federated_with(backend, addr, ServerConfig::default())
}

/// [`serve_federated`] with explicit server-side knobs.
pub fn serve_federated_with(
    backend: Arc<FederatedBackend>,
    addr: &StageAddress,
    config: ServerConfig,
) -> Result<ServerHandle, AllocationError> {
    serve_inner(Box::new(backend.clone()), Some(backend), addr, config)
}

fn serve_inner(
    manager: Box<dyn ResourceManager>,
    federation: Option<Arc<FederatedBackend>>,
    addr: &StageAddress,
    config: ServerConfig,
) -> Result<ServerHandle, AllocationError> {
    let listener = TcpListener::bind((addr.host.as_str(), addr.port))
        .map_err(|e| AllocationError::Network(format!("bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| AllocationError::Network(format!("local_addr: {e}")))?;
    let shared = Arc::new(ServerShared {
        manager,
        federation,
        draining: AtomicBool::new(false),
        client_sessions: std::sync::atomic::AtomicUsize::new(0),
        reactor: Mutex::new(None),
        #[cfg(unix)]
        pools: Arc::new(lanes::Pools::new()),
        frames_batched: AtomicU64::new(0),
        writes_coalesced: AtomicU64::new(0),
        #[cfg(all(test, unix))]
        io_loops: AtomicU64::new(0),
    });
    // The listener is handed to the engine itself: the first I/O thread
    // polls it as one more readiness source.
    let engine = ReactorEngine::start(&shared, &config, listener)
        .map_err(|e| AllocationError::Network(format!("reactor setup: {e}")))?;
    *shared.reactor.lock() = Some(engine);
    Ok(ServerHandle {
        addr: local,
        shared,
    })
}

/// One I/O thread's handle: where accepted sockets are sent, and the
/// doorbell that wakes the thread to collect them.
#[cfg(unix)]
struct IoHandle {
    /// Held (not used) so the thread's socket channel stays connected
    /// even after the listener thread — which owns the dispatching
    /// clones — has exited during a drain.
    _tx: crossbeam::channel::Sender<std::net::TcpStream>,
    notify: Arc<session::IoNotify>,
    thread: std::thread::JoinHandle<()>,
}

/// The running reactor's I/O threads.
#[cfg(unix)]
struct ReactorEngine {
    io: Vec<IoHandle>,
}

#[cfg(unix)]
impl ReactorEngine {
    /// Spawns `config.io_threads` I/O threads, each with its own poller
    /// and waker.  The listener rides the first thread.
    fn start(
        shared: &Arc<ServerShared>,
        config: &ServerConfig,
        listener: TcpListener,
    ) -> std::io::Result<ReactorEngine> {
        listener.set_nonblocking(true)?;
        // Every thread's poller, doorbell and socket channel exist before
        // any thread starts: the listener thread needs
        // the full target list for round-robin dispatch.
        let mut parts = Vec::new();
        for _ in 0..config.io_threads.max(1) {
            let poller = config.poller.create()?;
            let notify = Arc::new(session::IoNotify::new()?);
            let (tx, rx) = crossbeam::channel::unbounded();
            parts.push((poller, notify, tx, rx));
        }
        let targets: Vec<_> = parts
            .iter()
            .map(|(_, notify, tx, _)| (tx.clone(), notify.clone()))
            .collect();
        let mut engine = ReactorEngine { io: Vec::new() };
        // The first I/O thread carries a federated daemon's peer links.
        let first = targets[0].1.clone();
        let host = shared.federation.as_ref().map(|federation| {
            let host = Arc::new(session::ReactorHost::new(
                first.clone(),
                shared.pools.clone(),
            ));
            federation.attach(host.clone());
            host
        });
        let mut listener = Some(listener);
        for (i, (poller, notify, tx, rx)) in parts.into_iter().enumerate() {
            let role = listener.take().map(|listener| session::ListenerRole {
                listener,
                targets: targets.clone(),
                next: 0,
                host: host.clone(),
            });
            let spawned = std::thread::Builder::new()
                .name(format!("ypd-io-{i}"))
                .spawn({
                    let shared = shared.clone();
                    let notify = notify.clone();
                    let first = first.clone();
                    move || session::io_thread_main(shared, rx, notify, first, poller, role)
                });
            match spawned {
                Ok(thread) => engine.io.push(IoHandle {
                    _tx: tx,
                    notify,
                    thread,
                }),
                Err(e) => {
                    // Unwind the threads already spawned: flag the drain
                    // so they exit, then report the failure.
                    shared.draining.store(true, Ordering::SeqCst);
                    engine.join(shared, &mut Vec::new());
                    return Err(e);
                }
            }
        }
        Ok(engine)
    }

    /// Rings every I/O thread, after the caller raised the drain flag.
    fn ring(&self) {
        for io in &self.io {
            io.notify.ring();
        }
    }

    /// Engine teardown: the I/O threads exit once the drain is flagged
    /// and every session has settled and closed, and the worker lanes stop
    /// after their queues drain.
    fn join(self, shared: &ServerShared, problems: &mut Vec<String>) {
        for io in self.io {
            io.notify.ring();
            if io.thread.join().is_err() {
                problems.push("ypd I/O thread panicked".to_string());
            }
        }
        // Each lane stops once its queue has drained.
        let worker_panics = shared.pools.submit.shutdown() + shared.pools.redeem.shutdown();
        if worker_panics > 0 {
            problems.push(format!("{worker_panics} ypd worker job(s) panicked"));
        }
    }
}

/// No readiness poller exists off unix, so neither does the session
/// engine: starting it reports the poller's own `Unsupported` error.
#[cfg(not(unix))]
struct ReactorEngine;

#[cfg(not(unix))]
impl ReactorEngine {
    fn start(
        _: &Arc<ServerShared>,
        config: &ServerConfig,
        _: TcpListener,
    ) -> std::io::Result<ReactorEngine> {
        config.poller.create().map(|_| ReactorEngine)
    }

    fn ring(&self) {}

    fn join(self, _: &ServerShared, _: &mut Vec<String>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{BackendKind, PipelineBuilder, RemoteBackend};
    use actyp_grid::{FleetSpec, SyntheticFleet};
    use actyp_proto::{
        read_server_frame, write_frame, ClientFrame, RequestId, ServerFrame, PROTOCOL_VERSION,
    };
    use actyp_query::Query;
    use std::io::Write;
    use std::net::TcpStream;

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

    /// A raw protocol client past the hello handshake — no `RemoteBackend`,
    /// so a test can misbehave in ways the client never would.
    fn raw_hello(addr: &StageAddress) -> TcpStream {
        let mut raw = TcpStream::connect((addr.host.as_str(), addr.port)).unwrap();
        // Frames are small: without this, a frame written while the
        // previous one is unacknowledged waits on Nagle's timer.
        raw.set_nodelay(true).unwrap();
        write_frame(
            &mut raw,
            &ClientFrame::Hello {
                min_version: PROTOCOL_VERSION,
                max_version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        assert!(matches!(
            read_server_frame(&mut raw).unwrap(),
            Some(ServerFrame::HelloAck { .. })
        ));
        raw
    }

    #[test]
    fn server_side_ticket_tables_are_session_scoped() {
        let server = serve_kind(BackendKind::Embedded, 200, 21);
        let addr = server.local_addr();
        let first = RemoteBackend::connect(&addr).unwrap();
        // A batch ticket: its id is the daemon's (a single submission's
        // ticket never crosses the wire).
        let ticket = first
            .submit_batch(vec![Query::paper_example()])
            .unwrap()
            .remove(0);

        // A raw second session replays the FIRST session's wire ticket id,
        // bypassing the client-side brand check entirely: the server must
        // refuse it from its own (empty) session table.
        let mut raw = raw_hello(&addr);
        write_frame(
            &mut raw,
            &ClientFrame::Wait {
                corr: RequestId(1),
                ticket: ticket.id(),
                deadline_ms: None,
            },
        )
        .unwrap();
        match read_server_frame(&mut raw).unwrap() {
            Some(ServerFrame::Error { error, .. }) => {
                assert_eq!(error, AllocationError::UnknownTicket);
            }
            other => panic!("expected UnknownTicket, got {other:?}"),
        }
        drop(raw);

        // The issuing session still redeems it.
        let allocations = first.wait(ticket).unwrap();
        first.release(&allocations[0]).unwrap();
        first.halt_daemon().unwrap();
        first.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn abandoned_blocked_submissions_do_not_wedge_the_drain() {
        // A raw client floods more submissions than the live backend's
        // admission window and vanishes without reading a reply.  The
        // queued admissions launch as the earlier outcomes return their
        // permits — some after the session closed, which settles them
        // instead of answering — or the session (and the whole drain)
        // wedges forever.
        let db = fleet_db(300, 22);
        let server = PipelineBuilder::new()
            .database(db.clone())
            .window(2)
            .serve(&loopback(), BackendKind::Live)
            .unwrap();
        let addr = server.local_addr();
        {
            let mut raw = raw_hello(&addr);
            for i in 0..5 {
                write_frame(
                    &mut raw,
                    &ClientFrame::Submit {
                        corr: RequestId(i),
                        query: paper_text(),
                    },
                )
                .unwrap();
            }
            // Dropped without reading a reply.
        }
        server.halt();
        server.join().unwrap();
        // Every allocation the abandoned submissions produced went back.
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 0);
    }

    #[test]
    fn abandoned_sessions_release_their_allocations() {
        let db = fleet_db(200, 6);
        let server = PipelineBuilder::new()
            .database(db.clone())
            .serve(&loopback(), BackendKind::Embedded)
            .unwrap();
        {
            let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
            let _ticket = remote.submit_text(&paper_text()).unwrap();
            // Dropped without wait/release: the client vanishes.
        }
        server.halt();
        server.join().unwrap();
        // The outcome nobody read was a session lease, handed back when the
        // session ended: nothing stays claimed.
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 0);
    }

    #[test]
    fn redeemed_but_unreleased_allocations_return_with_the_session() {
        // The nastier variant: the client *redeems* the outcome (so the
        // ticket has left the session table) and then vanishes without
        // releasing.  The allocation is a session lease, so teardown hands
        // it back — including when the Outcome delivery itself raced the
        // disconnect.
        let db = fleet_db(200, 7);
        let server = PipelineBuilder::new()
            .database(db.clone())
            .serve(&loopback(), BackendKind::Embedded)
            .unwrap();
        {
            let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
            let ticket = remote.submit_text(&paper_text()).unwrap();
            let allocations = remote.wait(ticket).unwrap();
            assert_eq!(allocations.len(), 1);
            // Dropped holding the allocation.
        }
        server.halt();
        server.join().unwrap();
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 0);
    }

    #[test]
    fn disconnect_racing_an_in_flight_wait_leaks_nothing() {
        // Raw client: submit a batch of one, read its ticket, fire a Wait,
        // and hang up without reading the Outcome.  Whoever redeems the
        // ticket — the I/O thread when the outcome is already there
        // (always behind the eager backend, and behind the live one once
        // the pipeline has answered), the stage that produces it otherwise
        // — has pulled it out of the session table, so only the lease
        // mechanism can return the allocation, and the teardown that races
        // it must not settle the same ticket a second time.
        for kind in [BackendKind::Embedded, BackendKind::Live] {
            let db = fleet_db(200, 8);
            let manager: Arc<dyn ResourceManager> = Arc::from(
                PipelineBuilder::new()
                    .database(db.clone())
                    .build(kind)
                    .unwrap(),
            );
            let server = serve(Box::new(manager.clone()), &loopback()).unwrap();
            let addr = server.local_addr();
            {
                let mut raw = raw_hello(&addr);
                let ticket = batch_raw(&mut raw, 0, 1)[0];
                // Give the live pipeline the chance to have answered, so
                // the Wait below is (almost always) the inline hit.
                let answered = std::time::Instant::now();
                while manager.stats().allocations == 0
                    && answered.elapsed() < std::time::Duration::from_secs(10)
                {
                    std::thread::yield_now();
                }
                write_frame(
                    &mut raw,
                    &ClientFrame::Wait {
                        corr: RequestId(1),
                        ticket,
                        deadline_ms: None,
                    },
                )
                .unwrap();
                // Dropped without reading the Outcome.
            }
            server.halt();
            server.join().unwrap();
            let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
            assert_eq!(active, 0, "{kind}");
            let stats = manager.stats();
            assert_eq!(stats.allocations, 1, "{kind}: redeemed exactly once");
            assert_eq!(stats.allocations, stats.releases, "{kind}");
            assert_eq!(stats.in_flight, 0, "{kind}");
        }
    }

    /// A backend that declares no non-parking release (the trait default
    /// hands the completion back), so the daemon serves its releases from
    /// the redeem lane — what the remote and federated backends get.
    struct ParkingRelease(Box<dyn ResourceManager>);

    impl ResourceManager for ParkingRelease {
        fn submit(&self, query: Query) -> Result<crate::api::Ticket, AllocationError> {
            self.0.submit(query)
        }
        fn wait(&self, ticket: crate::api::Ticket) -> crate::api::QueryOutcome {
            self.0.wait(ticket)
        }
        fn try_poll(&self, ticket: crate::api::Ticket) -> Option<crate::api::QueryOutcome> {
            self.0.try_poll(ticket)
        }
        fn release(&self, allocation: &crate::Allocation) -> Result<(), AllocationError> {
            self.0.release(allocation)
        }
        fn stats(&self) -> actyp_proto::StatsSnapshot {
            self.0.stats()
        }
        fn shutdown(&self) -> Result<(), AllocationError> {
            self.0.shutdown()
        }
    }

    #[test]
    fn a_burst_of_pipelined_releases_is_answered_in_full() {
        // One session holds more allocations than the per-session cap on
        // lane jobs and releases them all in a single write.  The I/O
        // thread decodes the burst faster than the backend completes it;
        // an overload error here would strand the lease until the session
        // ends, so every reply must be `Released` — whether the backend
        // stage posts it or the redeem lane does.
        const HELD: u64 = 600;
        for hand_back in [false, true] {
            let db = fleet_db(2_000, 9);
            let live = PipelineBuilder::new()
                .database(db.clone())
                .build(BackendKind::Live)
                .unwrap();
            let manager: Box<dyn ResourceManager> = if hand_back {
                Box::new(ParkingRelease(live))
            } else {
                live
            };
            let server = serve(manager, &loopback()).unwrap();
            let mut raw = raw_hello(&server.local_addr());
            let held: Vec<_> = (0..HELD)
                .map(|i| {
                    submit_raw(&mut raw, i);
                    granted(&mut raw)
                })
                .collect();
            let mut burst = Vec::new();
            for (i, allocation) in held.iter().enumerate() {
                write_frame(
                    &mut burst,
                    &ClientFrame::Release {
                        corr: RequestId(i as u64),
                        allocation: allocation.clone(),
                    },
                )
                .unwrap();
            }
            raw.write_all(&burst).unwrap();
            for _ in 0..held.len() {
                match read_server_frame(&mut raw).unwrap() {
                    Some(ServerFrame::Released { .. }) => {}
                    other => panic!("hand_back={hand_back}: expected Released, got {other:?}"),
                }
            }
            let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
            assert_eq!(active, 0, "hand_back={hand_back}");
            drop(raw);
            server.halt();
            server.join().unwrap();
        }
    }

    type HeldWaits = Arc<Mutex<Vec<(crate::api::Ticket, crate::WaitDone)>>>;

    /// Callers that reached a gate, and whether it is open.
    type Gate = Arc<(std::sync::Mutex<(usize, bool)>, std::sync::Condvar)>;

    fn gate(open: bool) -> Gate {
        Arc::new((std::sync::Mutex::new((0, open)), std::sync::Condvar::new()))
    }

    /// Counts the caller in at the gate, then waits until it is open.
    fn pass(gate: &Gate) {
        let (lock, changed) = &**gate;
        let mut state = lock.lock().unwrap();
        state.0 += 1;
        changed.notify_all();
        while !state.1 {
            state = changed.wait(state).unwrap();
        }
    }

    /// Waits until `callers` have reached the gate.
    fn await_arrivals(gate: &Gate, callers: usize) {
        let (lock, changed) = &**gate;
        let mut state = lock.lock().unwrap();
        while state.0 < callers {
            state = changed.wait(state).unwrap();
        }
    }

    fn set_gate(gate: &Gate, open: bool) {
        let (lock, changed) = &**gate;
        lock.lock().unwrap().1 = open;
        changed.notify_all();
    }

    /// A backend on which every `Wait` misses: `wait_with` keeps the
    /// completion, and the test decides when the outcome "arrives".  A
    /// submission the session hands to the submit lane (`submit`) passes
    /// `gate` first.
    struct MissingWaits {
        inner: Arc<dyn ResourceManager>,
        held: HeldWaits,
        gate: Gate,
    }

    impl MissingWaits {
        fn new(inner: &Arc<dyn ResourceManager>) -> Self {
            MissingWaits {
                inner: inner.clone(),
                held: HeldWaits::default(),
                gate: gate(true),
            }
        }
    }

    impl ResourceManager for MissingWaits {
        fn submit(&self, query: Query) -> Result<crate::api::Ticket, AllocationError> {
            pass(&self.gate);
            self.inner.submit(query)
        }
        fn submit_with(
            &self,
            query: Query,
            done: crate::api::SubmitDone,
        ) -> Result<(), (Query, crate::api::SubmitDone)> {
            self.inner.submit_with(query, done)
        }
        fn wait(&self, ticket: crate::api::Ticket) -> crate::api::QueryOutcome {
            self.inner.wait(ticket)
        }
        fn wait_with(
            &self,
            ticket: crate::api::Ticket,
            done: crate::WaitDone,
        ) -> Result<(), crate::WaitDone> {
            self.held.lock().push((ticket, done));
            Ok(())
        }
        fn try_poll(&self, ticket: crate::api::Ticket) -> Option<crate::api::QueryOutcome> {
            self.inner.try_poll(ticket)
        }
        fn release(&self, allocation: &crate::Allocation) -> Result<(), AllocationError> {
            self.inner.release(allocation)
        }
        fn release_with(
            &self,
            allocation: &crate::Allocation,
            done: crate::allocation::ReleaseDone,
        ) -> Result<(), crate::allocation::ReleaseDone> {
            self.inner.release_with(allocation, done)
        }
        fn stats(&self) -> actyp_proto::StatsSnapshot {
            self.inner.stats()
        }
        fn shutdown(&self) -> Result<(), AllocationError> {
            self.inner.shutdown()
        }
    }

    /// The stage behind a [`MissingWaits`]: silent until `quiet_until`
    /// completions are held, then answering every one it is handed —
    /// through `inner`, whose outcome is in — until `stop` is raised.
    /// Returns how many were held when it began to answer.
    fn answer_held(
        held: &HeldWaits,
        inner: &Arc<dyn ResourceManager>,
        quiet_until: usize,
        stop: &Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<usize> {
        let (held, inner, stop) = (held.clone(), inner.clone(), stop.clone());
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            while held.lock().len() < quiet_until {
                assert!(
                    started.elapsed() < std::time::Duration::from_secs(20),
                    "only {} waits reached the backend",
                    held.lock().len()
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let peak = held.lock().len();
            while !stop.load(Ordering::SeqCst) {
                let answered = std::mem::take(&mut *held.lock());
                for (ticket, done) in answered {
                    done(inner.wait(ticket));
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak
        })
    }

    /// Spins until `held` has `count` completions in it.
    fn await_held(held: &HeldWaits, count: usize) {
        let started = std::time::Instant::now();
        while held.lock().len() < count {
            assert!(
                started.elapsed() < std::time::Duration::from_secs(20),
                "only {} waits reached the backend",
                held.lock().len()
            );
            std::thread::yield_now();
        }
    }

    /// Reads `count` replies, each an allocation, and releases them all.
    fn release_granted(raw: &mut TcpStream, count: u64) {
        let held: Vec<_> = (0..count).map(|_| granted(raw)).collect();
        for (i, allocation) in held.into_iter().enumerate() {
            release_raw(raw, count + i as u64, allocation);
        }
    }

    #[test]
    fn a_burst_of_pipelined_missed_waits_is_answered_in_full() {
        // The counterpart of the release burst: one session holds more
        // batch tickets than the completion high-water mark and waits on
        // them all in a single write, and not one outcome is in yet.  The
        // I/O thread must pause reading at the mark — not refuse the rest
        // — and resume as the stage answers, so every reply is an Outcome.
        const TICKETS: u64 = 300;
        let high_water = session::COMPLETIONS_HIGH_WATER;
        let inner: Arc<dyn ResourceManager> = Arc::from(
            PipelineBuilder::new()
                .database(fleet_db(2_000, 10))
                .build(BackendKind::Embedded)
                .unwrap(),
        );
        let manager = MissingWaits::new(&inner);
        let held = manager.held.clone();
        let server = serve(Box::new(manager), &loopback()).unwrap();
        let mut raw = raw_hello(&server.local_addr());
        let mut burst = Vec::new();
        for (i, ticket) in batch_raw(&mut raw, 0, TICKETS).into_iter().enumerate() {
            write_frame(
                &mut burst,
                &ClientFrame::Wait {
                    corr: RequestId(i as u64),
                    ticket,
                    deadline_ms: None,
                },
            )
            .unwrap();
        }
        raw.write_all(&burst).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let stage = answer_held(&held, &inner, high_water, &stop);
        release_granted(&mut raw, TICKETS);
        stop.store(true, Ordering::SeqCst);
        let peak = stage.join().unwrap();
        assert_eq!(peak, high_water, "the read side paused at the mark");
        drop(raw);
        server.halt();
        server.join().unwrap();
    }

    #[test]
    fn a_burst_of_pipelined_v4_submits_is_answered_in_full() {
        // A v4 `Submit` carries its own wait: 300 of them in one write,
        // each launched at once into a window of 512 and redeemed there,
        // and not one outcome is in yet.  Launched, each counts as a
        // completion, so the I/O thread pauses reading at the high-water
        // mark — no overload refusal — and resumes as the stage answers:
        // every reply is an Outcome, and the burst was decoded many frames
        // to a readable event.
        const SUBMITS: u64 = 300;
        let high_water = session::COMPLETIONS_HIGH_WATER;
        assert!(SUBMITS as usize > high_water);
        let db = fleet_db(2_000, 16);
        let inner: Arc<dyn ResourceManager> = Arc::from(
            PipelineBuilder::new()
                .database(db.clone())
                .window(512)
                .build(BackendKind::Live)
                .unwrap(),
        );
        let manager = MissingWaits::new(&inner);
        let held = manager.held.clone();
        let server = serve(Box::new(manager), &loopback()).unwrap();
        let mut raw = raw_hello(&server.local_addr());
        let mut burst = Vec::new();
        for i in 0..SUBMITS {
            write_frame(
                &mut burst,
                &ClientFrame::Submit {
                    corr: RequestId(i),
                    query: paper_text(),
                },
            )
            .unwrap();
        }
        let jobs = server.lane_jobs();
        raw.write_all(&burst).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let stage = answer_held(&held, &inner, high_water, &stop);
        release_granted(&mut raw, SUBMITS);
        stop.store(true, Ordering::SeqCst);
        let peak = stage.join().unwrap();
        assert_eq!(peak, high_water, "the read side paused at the mark");
        assert_eq!(server.lane_jobs(), jobs, "a submission ran on a lane");
        assert_eq!(active_jobs(&db), 0);
        write_frame(
            &mut raw,
            &ClientFrame::Stats {
                corr: RequestId(2 * SUBMITS),
            },
        )
        .unwrap();
        match read_server_frame(&mut raw).unwrap() {
            Some(ServerFrame::StatsReply { stats, .. }) => {
                assert!(stats.frames_batched > 1, "{}", stats.frames_batched);
                assert_eq!((stats.allocations, stats.releases), (SUBMITS, SUBMITS));
                assert_eq!(stats.in_flight, 0);
            }
            other => panic!("expected StatsReply, got {other:?}"),
        }
        drop(raw);
        server.halt();
        server.join().unwrap();
    }

    /// The live backend behind a gate: no deadline wait can be answered
    /// from the I/O thread (`try_poll` always misses), and each one the
    /// redeem lane runs blocks until the test opens the gate.
    struct GatedWaits {
        inner: Box<dyn ResourceManager>,
        /// Where deadline waits are held.
        gate: Gate,
    }

    impl ResourceManager for GatedWaits {
        fn submit(&self, query: Query) -> Result<crate::api::Ticket, AllocationError> {
            self.inner.submit(query)
        }
        fn wait(&self, ticket: crate::api::Ticket) -> crate::api::QueryOutcome {
            self.inner.wait(ticket)
        }
        fn try_poll(&self, _: crate::api::Ticket) -> Option<crate::api::QueryOutcome> {
            None
        }
        fn wait_deadline(
            &self,
            ticket: crate::api::Ticket,
            timeout: std::time::Duration,
        ) -> Option<crate::api::QueryOutcome> {
            pass(&self.gate);
            self.inner.wait_deadline(ticket, timeout)
        }
        fn release(&self, allocation: &crate::Allocation) -> Result<(), AllocationError> {
            self.inner.release(allocation)
        }
        fn stats(&self) -> actyp_proto::StatsSnapshot {
            self.inner.stats()
        }
        fn shutdown(&self) -> Result<(), AllocationError> {
            self.inner.shutdown()
        }
    }

    #[test]
    fn a_burst_of_pipelined_deadline_waits_is_answered_in_full() {
        // More deadline waits than the completion high-water mark, in one
        // write, each one a redeem-lane job held at the gate.  They count
        // toward the read-side pause like any completion — no overload
        // refusal — so every reply is an Outcome.
        const TICKETS: u64 = 300;
        assert!(TICKETS as usize > session::COMPLETIONS_HIGH_WATER);
        let db = fleet_db(2_000, 11);
        let gate = gate(false);
        let manager = GatedWaits {
            inner: PipelineBuilder::new()
                .database(db.clone())
                .window(512)
                .build(BackendKind::Live)
                .unwrap(),
            gate: gate.clone(),
        };
        let server = serve(Box::new(manager), &loopback()).unwrap();
        let mut raw = raw_hello(&server.local_addr());
        let mut burst = Vec::new();
        for (i, ticket) in batch_raw(&mut raw, 0, TICKETS).into_iter().enumerate() {
            write_frame(
                &mut burst,
                &ClientFrame::Wait {
                    corr: RequestId(i as u64),
                    ticket,
                    deadline_ms: Some(60_000),
                },
            )
            .unwrap();
        }
        raw.write_all(&burst).unwrap();
        // The burst is queued behind a held redeem worker before any wait
        // is answered.
        await_arrivals(&gate, 1);
        set_gate(&gate, true);
        release_granted(&mut raw, TICKETS);
        assert_eq!(active_jobs(&db), 0);
        // The burst arrived in readable events carrying many frames each.
        write_frame(
            &mut raw,
            &ClientFrame::Stats {
                corr: RequestId(2 * TICKETS),
            },
        )
        .unwrap();
        match read_server_frame(&mut raw).unwrap() {
            Some(ServerFrame::StatsReply { stats, .. }) => assert!(stats.frames_batched > 1),
            other => panic!("expected StatsReply, got {other:?}"),
        }
        drop(raw);
        server.halt();
        server.join().unwrap();
    }

    #[test]
    fn a_vanished_client_settling_a_deadline_wait_is_not_polled() {
        // The client hangs up while its deadline wait is held on the
        // redeem lane, so its session settles for as long as the gate
        // stays shut.  Its socket's hangup must not be reported to the
        // I/O thread on every turn meanwhile.
        let gate = gate(false);
        let manager = GatedWaits {
            inner: PipelineBuilder::new()
                .database(fleet_db(200, 14))
                .build(BackendKind::Live)
                .unwrap(),
            gate: gate.clone(),
        };
        let server = serve(Box::new(manager), &loopback()).unwrap();
        let mut raw = raw_hello(&server.local_addr());
        let ticket = batch_raw(&mut raw, 0, 1)[0];
        write_frame(
            &mut raw,
            &ClientFrame::Wait {
                corr: RequestId(1),
                ticket,
                deadline_ms: Some(5_000),
            },
        )
        .unwrap();
        await_arrivals(&gate, 1);
        drop(raw);
        // The hangup reaches the I/O thread, then the session settles.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let before = server.shared.io_loops.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(600));
        let turns = server.shared.io_loops.load(Ordering::Relaxed) - before;
        // Idle, both I/O threads turn for the 250 ms closing sweep and
        // the 500 ms poll interval only: a handful of turns, not a spin.
        assert!(turns < 50, "{turns} I/O turns while the session settled");
        set_gate(&gate, true);
        server.halt();
        server.join().unwrap();
    }

    /// Spins until the live backend's window has counted `queued`
    /// admissions that found it full (its share of `shard_contention`; the
    /// directory is idle meanwhile).
    fn await_queued(manager: &dyn ResourceManager, queued: u64) {
        let started = std::time::Instant::now();
        while manager.stats().shard_contention < queued {
            assert!(
                started.elapsed() < std::time::Duration::from_secs(20),
                "only {} admissions queued",
                manager.stats().shard_contention
            );
            std::thread::yield_now();
        }
    }

    fn submit_raw(raw: &mut TcpStream, corr: u64) {
        write_frame(
            raw,
            &ClientFrame::Submit {
                corr: RequestId(corr),
                query: paper_text(),
            },
        )
        .unwrap();
    }

    /// Submits a batch of `count` queries and returns its tickets.
    fn batch_raw(raw: &mut TcpStream, corr: u64, count: u64) -> Vec<u64> {
        write_frame(
            raw,
            &ClientFrame::SubmitBatch {
                corr: RequestId(corr),
                queries: vec![paper_text(); count as usize],
            },
        )
        .unwrap();
        match read_server_frame(raw).unwrap() {
            Some(ServerFrame::BatchSubmitted { tickets, .. }) => tickets,
            other => panic!("expected BatchSubmitted, got {other:?}"),
        }
    }

    /// Reads the next reply, which must grant one machine.
    fn granted(raw: &mut TcpStream) -> crate::Allocation {
        match read_server_frame(raw).unwrap() {
            Some(ServerFrame::Outcome {
                outcome: Ok(mut allocations),
                ..
            }) => allocations.remove(0),
            other => panic!("expected an allocation, got {other:?}"),
        }
    }

    fn release_raw(raw: &mut TcpStream, corr: u64, allocation: crate::Allocation) {
        write_frame(
            raw,
            &ClientFrame::Release {
                corr: RequestId(corr),
                allocation,
            },
        )
        .unwrap();
        assert!(matches!(
            read_server_frame(raw).unwrap(),
            Some(ServerFrame::Released { .. })
        ));
    }

    /// Redeems `ticket` and releases what it granted.
    fn redeem_and_release(raw: &mut TcpStream, ticket: u64) {
        write_frame(
            raw,
            &ClientFrame::Wait {
                corr: RequestId(100),
                ticket,
                deadline_ms: None,
            },
        )
        .unwrap();
        let allocation = granted(raw);
        release_raw(raw, 101, allocation);
    }

    #[test]
    fn submissions_into_a_full_window_launch_in_arrival_order_with_no_lane_job() {
        // A window of one, held by a first session's batch ticket; three
        // more sessions submit into it one after the other.  The permit the
        // holder returns goes to the next in line, and each outcome returns
        // it for the one after: the thread that settles a ticket launches
        // the queued submission it hands the permit to.  The launches come
        // in arrival order — the pipeline numbers its requests as they
        // come in — and not one request runs on a lane.
        let manager: Arc<dyn ResourceManager> = Arc::from(
            PipelineBuilder::new()
                .database(fleet_db(200, 12))
                .window(1)
                .build(BackendKind::Live)
                .unwrap(),
        );
        let server = serve(Box::new(manager.clone()), &loopback()).unwrap();
        let addr = server.local_addr();
        let mut holder = raw_hello(&addr);
        let held = batch_raw(&mut holder, 0, 1)[0];
        let jobs = server.lane_jobs();
        let base = manager.stats().shard_contention;
        let mut queued: Vec<TcpStream> = Vec::new();
        for i in 1..=3u64 {
            let mut raw = raw_hello(&addr);
            // A turn that never comes fails the test instead of hanging it.
            raw.set_read_timeout(Some(std::time::Duration::from_secs(20)))
                .unwrap();
            submit_raw(&mut raw, i);
            await_queued(&*manager, base + i);
            queued.push(raw);
        }
        redeem_and_release(&mut holder, held);
        let mut launched = Vec::new();
        for raw in &mut queued {
            let allocation = granted(raw);
            launched.push(allocation.request);
            release_raw(raw, 101, allocation);
        }
        assert!(
            launched.windows(2).all(|pair| pair[0] < pair[1]),
            "launched out of arrival order: {launched:?}"
        );
        assert_eq!(server.lane_jobs(), jobs, "a submission ran on a lane");
        let stats = manager.stats();
        assert_eq!((stats.allocations, stats.releases), (4, 4));
        drop((holder, queued));
        server.halt();
        server.join().unwrap();
    }

    #[test]
    fn a_client_vanishing_with_tickets_a_queued_admission_and_leases_strands_nothing() {
        // One session leaves everything behind at once: a lease it was
        // granted, two abandoned batch tickets filling the window, and a
        // submission queued on it.  Settling the abandoned tickets frees
        // the permits that launch the queued one in a closed session, where
        // it is settled in turn; the leftover lease goes with the final
        // sweep.
        let db = fleet_db(300, 13);
        let manager: Arc<dyn ResourceManager> = Arc::from(
            PipelineBuilder::new()
                .database(db.clone())
                .window(2)
                .build(BackendKind::Live)
                .unwrap(),
        );
        let server = serve(Box::new(manager.clone()), &loopback()).unwrap();
        {
            let mut raw = raw_hello(&server.local_addr());
            submit_raw(&mut raw, 0);
            granted(&mut raw);
            let base = manager.stats().shard_contention;
            batch_raw(&mut raw, 1, 2);
            submit_raw(&mut raw, 4);
            await_queued(&*manager, base + 1);
            // Dropped: no Release, no Wait, no reply read.
        }
        server.halt();
        server.join().unwrap();
        let stats = manager.stats();
        assert_eq!(stats.allocations, 4, "every submission was launched");
        assert_eq!(stats.allocations, stats.releases);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(active_jobs(&db), 0);
    }

    #[test]
    fn a_client_vanishing_with_v4_submits_in_every_state_strands_nothing() {
        // One session leaves a `Submit` behind in each state: granted but
        // its Outcome unread; launched with its outcome not in yet; and
        // not launched — queued on the live backend's full window, or
        // handed to the submit lane of an embedded one.  The first is a
        // lease the final sweep returns, the second becomes one when its
        // outcome reaches the closed session, and the third is launched
        // after the close and settled there instead of answered.
        for kind in [BackendKind::Live, BackendKind::Embedded] {
            let db = fleet_db(300, 15);
            let inner: Arc<dyn ResourceManager> = Arc::from(
                PipelineBuilder::new()
                    .database(db.clone())
                    .window(1)
                    .build(kind)
                    .unwrap(),
            );
            let manager = MissingWaits::new(&inner);
            let (held, gate) = (manager.held.clone(), manager.gate.clone());
            let server = serve(Box::new(manager), &loopback()).unwrap();
            {
                let mut raw = raw_hello(&server.local_addr());
                // Granted: its outcome is written, never read.
                submit_raw(&mut raw, 0);
                await_held(&held, 1);
                let (ticket, done) = held.lock().pop().unwrap();
                done(inner.wait(ticket));
                // Launched: the live window's one permit is its own.
                submit_raw(&mut raw, 1);
                await_held(&held, 1);
                // Not launched.
                set_gate(&gate, false);
                let base = inner.stats().shard_contention;
                submit_raw(&mut raw, 2);
                match kind {
                    BackendKind::Live => await_queued(&*inner, base + 1),
                    _ => await_arrivals(&gate, 3),
                }
            }
            // The client is gone; once its session is closing, the stage
            // answers what it holds — launching the queued submission on
            // the live backend — and the lane's submission gets through.
            std::thread::sleep(std::time::Duration::from_millis(100));
            let stop = Arc::new(AtomicBool::new(false));
            let stage = answer_held(&held, &inner, 0, &stop);
            set_gate(&gate, true);
            server.halt();
            server.join().unwrap();
            stop.store(true, Ordering::SeqCst);
            stage.join().unwrap();
            let stats = inner.stats();
            assert_eq!(
                stats.allocations, 3,
                "{kind}: every submission was launched"
            );
            assert_eq!(stats.allocations, stats.releases, "{kind}");
            assert_eq!(stats.in_flight, 0, "{kind}");
            assert_eq!(active_jobs(&db), 0, "{kind}");
        }
    }

    #[test]
    fn a_submission_launched_after_its_client_left_is_not_delegated() {
        // The entry daemon's window of one is held by a batch ticket, and a
        // query only the peer domain can satisfy queues behind it.  The
        // client vanishes: settling its ticket launches the queued
        // submission in a closed session, which settles it through the
        // wrapped backend alone — no delegation for a client that is gone.
        let db_b = arch_db("hp", 40, 76);
        let (srv_b, fed_b) = federated("upc", BackendKind::Live, db_b.clone(), Vec::new());
        let db_a = arch_db("sun", 20, 77);
        let (srv_a, fed_a) = PipelineBuilder::new()
            .database(db_a.clone())
            .window(1)
            .serve_federated(
                &loopback(),
                BackendKind::Live,
                crate::federation::FederationConfig {
                    domain: "purdue".to_string(),
                    peers: vec![srv_b.local_addr()],
                    gossip_interval: std::time::Duration::ZERO,
                    probe_interval: std::time::Duration::ZERO,
                    ..Default::default()
                },
            )
            .unwrap();
        {
            // The link is warm: one delegation has crossed it.
            let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
            let warm = client.submit_text_wait(HP).unwrap();
            client.release(&warm[0]).unwrap();
            client.shutdown().unwrap();
        }
        let delegated = fed_a.stats().delegations_out;
        {
            let mut raw = raw_hello(&srv_a.local_addr());
            batch_raw(&mut raw, 0, 1);
            let base = fed_a.stats().shard_contention;
            write_frame(
                &mut raw,
                &ClientFrame::Submit {
                    corr: RequestId(1),
                    query: HP.to_string(),
                },
            )
            .unwrap();
            await_queued(&*fed_a, base + 1);
        }
        srv_a.halt();
        srv_a.join().unwrap();
        assert_eq!(fed_a.stats().delegations_out, delegated);
        assert_eq!(fed_b.stats().allocations, fed_b.stats().releases);
        assert_eq!((active_jobs(&db_a), active_jobs(&db_b)), (0, 0));
        srv_b.halt();
        srv_b.join().unwrap();
    }

    #[test]
    fn a_launched_submission_whose_client_left_is_not_delegated() {
        // The entry daemon's local backend holds every outcome back.  One
        // `Submit` is granted locally before the hang-up (its Outcome
        // written, never read); a second, for a query only the peer domain
        // can satisfy, is launched and its local failure held.  The client
        // vanishes, and only then does that failure come in: the closing
        // session ends it there — nothing is delegated for a client that is
        // gone — and the granted lease goes back with the final sweep.
        let db_b = arch_db("hp", 40, 78);
        let (srv_b, fed_b) = federated("upc", BackendKind::Live, db_b.clone(), Vec::new());
        let db_a = arch_db("sun", 20, 79);
        let live = PipelineBuilder::new()
            .database(db_a.clone())
            .build_live()
            .unwrap();
        let directory = live.pipeline().directory().clone();
        let inner: Arc<dyn ResourceManager> = Arc::new(live);
        let manager = MissingWaits::new(&inner);
        let held = manager.held.clone();
        let fed_a = Arc::new(FederatedBackend::new(
            Box::new(manager),
            crate::federation::FederationConfig {
                domain: "purdue".to_string(),
                peers: vec![srv_b.local_addr()],
                gossip_interval: std::time::Duration::ZERO,
                probe_interval: std::time::Duration::ZERO,
                ..Default::default()
            },
            Some(directory),
        ));
        let srv_a = serve_federated(fed_a.clone(), &loopback()).unwrap();
        {
            let mut raw = raw_hello(&srv_a.local_addr());
            let mut submit = |corr, query: &str| {
                let (corr, query) = (RequestId(corr), query.to_string());
                write_frame(&mut raw, &ClientFrame::Submit { corr, query }).unwrap();
                await_held(&held, 1);
            };
            // Granted: its outcome is written, never read.
            submit(0, "punch.rsrc.arch = sun\n");
            let (ticket, done) = held.lock().pop().unwrap();
            done(inner.wait(ticket));
            // Launched: its local failure is not in yet.
            submit(1, HP);
        }
        // The hang-up reaches the daemon, then the local failure comes in.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let (ticket, done) = held.lock().pop().unwrap();
        let local = inner.wait(ticket);
        assert!(matches!(&local, Err(e) if crate::federation::is_delegable(e)));
        done(local);
        srv_a.halt();
        srv_a.join().unwrap();
        assert_eq!(fed_a.stats().delegations_out, 0);
        let stats = inner.stats();
        assert_eq!((stats.allocations, stats.releases), (1, 1));
        assert_eq!(stats.in_flight, 0);
        assert_eq!(fed_b.stats().allocations, 0);
        assert_eq!((active_jobs(&db_a), active_jobs(&db_b)), (0, 0));
        srv_b.halt();
        srv_b.join().unwrap();
    }

    #[test]
    fn version_negotiation_rejects_a_future_only_client() {
        let server = serve_kind(BackendKind::Embedded, 50, 7);
        let addr = server.local_addr();
        let mut stream = TcpStream::connect((addr.host.as_str(), addr.port)).unwrap();
        write_frame(
            &mut stream,
            &ClientFrame::Hello {
                min_version: PROTOCOL_VERSION + 1,
                max_version: PROTOCOL_VERSION + 9,
            },
        )
        .unwrap();
        match read_server_frame(&mut stream).unwrap() {
            Some(ServerFrame::HelloReject { message }) => {
                assert!(message.contains("no common protocol version"), "{message}");
            }
            other => panic!("expected HelloReject, got {other:?}"),
        }
        drop(stream);
        server.halt();
        server.join().unwrap();
    }

    // -----------------------------------------------------------------
    // Federated daemons: peer links as reactor sessions
    // -----------------------------------------------------------------

    fn arch_db(arch: &str, machines: usize, seed: u64) -> actyp_grid::SharedDatabase {
        SyntheticFleet::new(FleetSpec::homogeneous(machines, arch, 512), seed)
            .generate()
            .into_shared()
    }

    fn active_jobs(db: &actyp_grid::SharedDatabase) -> u32 {
        db.read().iter().map(|m| m.dynamic.active_jobs).sum()
    }

    /// A federated daemon for `domain` with no timer-driven peer traffic
    /// (every frame on its links is one a request caused) and an
    /// admission window wider than any test's tickets in flight.
    fn federated(
        domain: &str,
        kind: BackendKind,
        db: actyp_grid::SharedDatabase,
        peers: Vec<StageAddress>,
    ) -> (ServerHandle, Arc<FederatedBackend>) {
        PipelineBuilder::new()
            .database(db)
            .window(512)
            .serve_federated(
                &loopback(),
                kind,
                crate::federation::FederationConfig {
                    domain: domain.to_string(),
                    peers,
                    gossip_interval: std::time::Duration::ZERO,
                    probe_interval: std::time::Duration::ZERO,
                    ..Default::default()
                },
            )
            .unwrap()
    }

    const HP: &str = "punch.rsrc.arch = hp\n";

    /// With the link warm, a delegated allocation and its release cross
    /// both daemons without a single worker-lane job: the entry daemon's
    /// query-manager stage sends `Delegate`, the far daemon's stages answer
    /// it and the `Release`, and the link's I/O thread finishes both.
    #[test]
    fn warm_links_serve_a_delegation_and_its_release_with_no_lane_job() {
        let db_b = arch_db("hp", 40, 71);
        let (srv_b, _) = federated("upc", BackendKind::Live, db_b.clone(), Vec::new());
        let (srv_a, fed_a) = federated(
            "purdue",
            BackendKind::Live,
            arch_db("sun", 20, 72),
            vec![srv_b.local_addr()],
        );
        let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
        // The first delegation dials the link (on the lane, where a dial
        // may park) and hands it to the reactor.
        let warm = client.submit_text_wait(HP).unwrap();
        client.release(&warm[0]).unwrap();
        let (jobs_a, jobs_b) = (srv_a.lane_jobs(), srv_b.lane_jobs());
        let delegated = fed_a.stats().delegations_out;
        for _ in 0..5 {
            let granted = client.submit_text_wait(HP).unwrap();
            assert!(granted[0].machine_name.contains("hp"));
            client.release(&granted[0]).unwrap();
        }
        assert_eq!(fed_a.stats().delegations_out, delegated + 5);
        assert_eq!(srv_a.lane_jobs(), jobs_a, "the entry daemon ran lane jobs");
        assert_eq!(srv_b.lane_jobs(), jobs_b, "the far daemon ran lane jobs");
        assert_eq!(active_jobs(&db_b), 0);
        client.halt_daemon().unwrap();
        client.shutdown().unwrap();
        srv_a.join().unwrap();
        srv_b.halt();
        srv_b.join().unwrap();
    }

    /// What a scripted peer does with the second `Delegate` it is sent.
    #[derive(Clone, Copy)]
    enum Second {
        /// Never answers it (and holds the connection open).
        Ignore,
        /// Hangs up on it.
        HangUp,
    }

    /// A scripted peer daemon (domain `upc`) on loopback: it handshakes,
    /// answers the first `Delegate` with a delegable failure, and does
    /// `second` with the next.  The thread returns once the entry daemon
    /// has closed the link.
    fn scripted_peer(second: Second) -> (StageAddress, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut delegates = 0;
            loop {
                let frame = match actyp_proto::read_client_frame(&mut stream) {
                    Ok(Some(frame)) => frame,
                    // The entry daemon retired the link.
                    _ => return,
                };
                let reply = match frame {
                    ClientFrame::Hello { max_version, .. } => ServerFrame::HelloAck {
                        version: max_version,
                    },
                    ClientFrame::SyncPools { corr, .. } => ServerFrame::PoolsSynced {
                        corr,
                        domain: "upc".to_string(),
                        pools: Vec::new(),
                        deltas: Vec::new(),
                    },
                    ClientFrame::Delegate {
                        corr,
                        ttl,
                        mut visited,
                        ..
                    } => {
                        delegates += 1;
                        if delegates > 1 {
                            match second {
                                Second::Ignore => continue,
                                Second::HangUp => return,
                            }
                        }
                        visited.push("upc".to_string());
                        ServerFrame::Delegated {
                            corr,
                            outcome: Err(AllocationError::NoneAvailable),
                            ttl: ttl.saturating_sub(1),
                            visited,
                            deltas: Vec::new(),
                        }
                    }
                    other => panic!("unexpected frame {other:?}"),
                };
                write_frame(&mut stream, &reply).unwrap();
            }
        });
        (StageAddress::new("127.0.0.1", addr.port()), peer)
    }

    /// Submits an hp query on a raw session: the one `Outcome` it gets,
    /// checked to be the only reply — a `Stats` sent right after must be
    /// answered next.
    fn wait_once(raw: &mut TcpStream, corr: u64) -> crate::api::QueryOutcome {
        write_frame(
            raw,
            &ClientFrame::Submit {
                corr: RequestId(corr),
                query: HP.to_string(),
            },
        )
        .unwrap();
        let outcome = match read_server_frame(raw).unwrap() {
            Some(ServerFrame::Outcome { outcome, .. }) => outcome,
            other => panic!("expected Outcome, got {other:?}"),
        };
        write_frame(
            raw,
            &ClientFrame::Stats {
                corr: RequestId(u64::MAX),
            },
        )
        .unwrap();
        assert!(
            matches!(
                read_server_frame(raw).unwrap(),
                Some(ServerFrame::StatsReply { .. })
            ),
            "a second reply to the same Submit"
        );
        outcome
    }

    /// A peer that accepts a `Delegate` and never answers it costs the
    /// client a bounded wait — the completion's deadline retires the link
    /// and the chain ends with the local failure — not a hang.  A peer
    /// killed while a completion is pending fails that completion exactly
    /// once, at once.
    #[test]
    fn a_silent_or_killed_peer_fails_the_pending_completion_once() {
        for second in [Second::Ignore, Second::HangUp] {
            let (peer_addr, peer) = scripted_peer(second);
            let (srv_a, fed_a) = federated(
                "purdue",
                BackendKind::Live,
                arch_db("sun", 20, 73),
                vec![peer_addr],
            );
            let mut raw = raw_hello(&srv_a.local_addr());
            raw.set_read_timeout(Some(crate::corr::COMPLETION_TIMEOUT * 5))
                .unwrap();
            // Cold link: dialed on the lane, answered, handed to the reactor.
            assert_eq!(wait_once(&mut raw, 1), Err(AllocationError::NoneAvailable));
            let started = std::time::Instant::now();
            assert_eq!(
                wait_once(&mut raw, 2),
                Err(AllocationError::NoSuchResources)
            );
            let waited = started.elapsed();
            match second {
                Second::Ignore => assert!(
                    waited >= crate::corr::COMPLETION_TIMEOUT
                        && waited < crate::corr::COMPLETION_TIMEOUT * 3,
                    "a silent peer is given up on at the completion deadline, took {waited:?}"
                ),
                Second::HangUp => assert!(
                    waited < crate::corr::COMPLETION_TIMEOUT,
                    "a dead peer fails the completion at once, took {waited:?}"
                ),
            }
            // The link was retired: the peer sees it close, and its domain
            // left the peer directory.
            peer.join().unwrap();
            assert!(!fed_a
                .peer_directory()
                .pool_managers()
                .contains(&"upc".to_string()));
            drop(raw);
            srv_a.halt();
            srv_a.join().unwrap();
        }
    }

    /// The federated counterpart of the missed-wait burst: more pipelined
    /// `Submit`s — each carrying its wait — than the session's completion
    /// high-water mark, every one a delegation, all in one write.  The read
    /// side pauses at the mark and resumes as the far daemon answers — no
    /// overload refusal — so every reply is a delegated allocation.
    #[test]
    fn a_burst_of_pipelined_federated_waits_is_answered_in_full() {
        const TICKETS: u64 = 300;
        assert!(TICKETS as usize > session::COMPLETIONS_HIGH_WATER);
        let db_b = arch_db("hp", 400, 74);
        let (srv_b, _) = federated("upc", BackendKind::Live, db_b.clone(), Vec::new());
        let (srv_a, _) = federated(
            "purdue",
            BackendKind::Live,
            arch_db("sun", 20, 75),
            vec![srv_b.local_addr()],
        );
        {
            // Warm the link, so the burst rides the reactor session.
            let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
            let warm = client.submit_text_wait(HP).unwrap();
            client.release(&warm[0]).unwrap();
            client.shutdown().unwrap();
        }
        let mut raw = raw_hello(&srv_a.local_addr());
        let mut burst = Vec::new();
        for i in 0..TICKETS {
            write_frame(
                &mut burst,
                &ClientFrame::Submit {
                    corr: RequestId(i),
                    query: HP.to_string(),
                },
            )
            .unwrap();
        }
        raw.write_all(&burst).unwrap();
        let delegated: Vec<_> = (0..TICKETS).map(|_| granted(&mut raw)).collect();
        assert_eq!(active_jobs(&db_b), TICKETS as u32);
        for (i, allocation) in delegated.into_iter().enumerate() {
            release_raw(&mut raw, TICKETS + i as u64, allocation);
        }
        assert_eq!(active_jobs(&db_b), 0);
        drop(raw);
        srv_a.halt();
        srv_a.join().unwrap();
        srv_b.halt();
        srv_b.join().unwrap();
    }

    #[test]
    fn garbage_on_the_socket_does_not_kill_the_daemon() {
        let server = serve_kind(BackendKind::Embedded, 50, 8);
        let addr = server.local_addr();
        {
            let mut stream = TcpStream::connect((addr.host.as_str(), addr.port)).unwrap();
            stream.write_all(&[0xFF; 64]).unwrap();
        }
        // The daemon survives and serves a well-behaved client afterwards.
        let remote = RemoteBackend::connect(&addr).unwrap();
        let allocations = remote.submit_text_wait(&paper_text()).unwrap();
        remote.release(&allocations[0]).unwrap();
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
    }
}
