//! The wire server: a `ypd` daemon hosting any backend behind the
//! [`actyp_proto`] protocol ([`crate::client::RemoteBackend`] is the other
//! end of the socket).
//!
//! [`serve`] binds a listener and hosts *any* [`ResourceManager`] — the
//! pipeline, behind its window, or a centralized baseline.
//! Each connection is a *session*.  The daemon issues it no ticket: a
//! `Submit` is answered by its query's `Outcome`, so several queries are in
//! flight as several pipelined `Submit`s.  Allocations are *session
//! leases*: a session that ends waits for the outcomes of its submissions
//! and hands back every allocation the client still held, so an abruptly
//! disconnected client leaks neither machines nor window permits.  [`ServerHandle::halt`] (or a client's [`ClientFrame::Halt`])
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
//! backend stage that produces a submission's outcome or a release's answer
//! ([`ResourceManager::allocate_with`], [`ResourceManager::release_with`]),
//! a `Submit` the live backend's full window queued being launched by the
//! thread whose outcome frees a permit.  No call leaves the I/O thread for
//! a worker: a hosted backend's calls do not park.  Whoever
//! finishes a request writes the reply to the session's non-blocking socket
//! itself; only what the socket does not take is queued for the session's
//! I/O thread, which is rung for it — a syscall only if that thread is
//! asleep in `poll`.
//! The listener itself is one more readiness source on the first I/O
//! thread — there is no dedicated accept thread — and that thread's timer
//! wheel also drives the periodic anti-entropy gossip tick and peer health
//! probe of a federated daemon, each round a set of completions.  The same
//! thread dials and carries every peer link as a session of kind *peer*
//! (a non-blocking connect, then `Hello` and `SyncPools`): a federated
//! allocation, a remote `Release` and an inbound `Delegate` are
//! completions too, each `Delegate` or `Release` to a peer written by the
//! thread that holds the previous answer, and each peer reply finished
//! there (see [`crate::federation`]).  The daemon's thread count is therefore
//! *independent of its session count*: the I/O pool + the hosted backend's
//! stages, whether two clients are connected or two thousand.

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

    /// Blocks until the daemon has fully drained (listener closed and
    /// every session finished — sessions end when their client disconnects
    /// or shuts its session down; during a drain, sessions idle between
    /// frames are ended and settled too, so a daemon with pooled peer
    /// links or forgotten clients still stops), then tears the hosted
    /// backend down and surfaces any I/O thread's panic (a stage step
    /// that panics unwinds on the I/O thread that stepped it).  Call
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
            engine.join(&mut problems);
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
/// The I/O threads call `manager`'s completion methods
/// ([`ResourceManager::allocate_with`] and
/// [`ResourceManager::release_with`]) themselves, so a hosted backend must
/// not park in either.  Every [`crate::api::BackendKind`] and a federation
/// over one keeps that promise; a
/// [`RemoteBackend`](crate::client::RemoteBackend), whose completion
/// methods run a round trip, is a client and is not to be hosted.
///
/// `addr.port == 0` binds an ephemeral port; read it back with
/// [`ServerHandle::local_addr`].
pub fn serve(
    manager: Box<dyn ResourceManager>,
    addr: &StageAddress,
) -> Result<ServerHandle, AllocationError> {
    serve_inner(manager, None, addr, ServerConfig::default())
}

/// [`serve`] with explicit server-side knobs (I/O threads, poller choice);
/// the hosted backend's `_with` methods must not park, as there.
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
            let host = Arc::new(session::ReactorHost::new(first.clone()));
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
                    engine.join(&mut Vec::new());
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
    /// and every session has settled and closed.
    fn join(self, problems: &mut Vec<String>) {
        for io in self.io {
            io.notify.ring();
            if io.thread.join().is_err() {
                problems.push("ypd I/O thread panicked".to_string());
            }
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

    fn join(self, _: &mut Vec<String>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{BackendKind, LiveBackend, PipelineBuilder, RemoteBackend};
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
            .serve(&loopback(), BackendKind::Live)
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
            .serve(&loopback(), BackendKind::Live)
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
        // Raw client: a `Submit` carries its wait, and the client hangs up
        // without reading the Outcome.  Whoever has the outcome — the I/O
        // thread that steps the idle stage — delivers into a session that
        // may be closing already, so only the lease mechanism can return
        // the allocation, and the teardown that races it must return it
        // once.
        let db = fleet_db(200, 8);
        let manager: Arc<dyn ResourceManager> = Arc::from(
            PipelineBuilder::new()
                .database(db.clone())
                .build(BackendKind::Live)
                .unwrap(),
        );
        let server = serve(Box::new(manager.clone()), &loopback()).unwrap();
        {
            let mut raw = raw_hello(&server.local_addr());
            submit_raw(&mut raw, 0);
            // Hang up as the outcome is delivered, before the drain could
            // close the session with the `Submit` unread.
            let started = std::time::Instant::now();
            while manager.stats().allocations == 0 {
                assert!(started.elapsed() < std::time::Duration::from_secs(10));
                std::thread::yield_now();
            }
            // Dropped without reading the Outcome.
        }
        server.halt();
        server.join().unwrap();
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 0);
        let stats = manager.stats();
        assert_eq!(stats.allocations, 1, "redeemed exactly once");
        assert_eq!(stats.allocations, stats.releases);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn a_burst_of_pipelined_releases_is_answered_in_full() {
        // One session holds more allocations than the completion high-water
        // mark and releases them all in a single write.  The I/O thread
        // decodes the burst faster than the backend stage completes it; an
        // overload error here would strand the lease until the session
        // ends, so every reply must be `Released`.
        const HELD: u64 = 600;
        let db = fleet_db(2_000, 9);
        let server = PipelineBuilder::new()
            .database(db.clone())
            .serve(&loopback(), BackendKind::Live)
            .unwrap();
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
                other => panic!("expected Released, got {other:?}"),
            }
        }
        assert_eq!(active_jobs(&db), 0);
        drop(raw);
        server.halt();
        server.join().unwrap();
    }

    type Held = Arc<Mutex<Vec<(crate::api::QueryOutcome, crate::AllocateDone)>>>;

    /// A backend whose outcomes all come late: each query runs on the
    /// wrapped backend, and its outcome is held with its completion until
    /// the test decides it "arrives".
    struct HeldOutcomes {
        inner: Arc<dyn ResourceManager>,
        held: Held,
    }

    impl HeldOutcomes {
        fn new(inner: &Arc<dyn ResourceManager>) -> Self {
            HeldOutcomes {
                inner: inner.clone(),
                held: Held::default(),
            }
        }
    }

    impl ResourceManager for HeldOutcomes {
        fn allocate_with(&self, query: Query, done: crate::AllocateDone) {
            let held = self.held.clone();
            let hold = move |outcome| held.lock().push((outcome, done));
            self.inner.allocate_with(query, Box::new(hold))
        }
        fn release_with(
            &self,
            allocation: &crate::Allocation,
            done: crate::allocation::ReleaseDone,
        ) {
            self.inner.release_with(allocation, done)
        }
        fn stats(&self) -> actyp_proto::StatsSnapshot {
            self.inner.stats()
        }
        fn shutdown(&self) -> Result<(), AllocationError> {
            self.inner.shutdown()
        }
    }

    /// The stage behind a [`HeldOutcomes`]: silent until `quiet_until`
    /// outcomes are held, then handing every one over as it comes in until
    /// `stop` is raised.  Returns how many were held when it began to
    /// answer.
    fn answer_held(
        held: &Held,
        quiet_until: usize,
        stop: &Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<usize> {
        let (held, stop) = (held.clone(), stop.clone());
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            while held.lock().len() < quiet_until {
                assert!(
                    started.elapsed() < std::time::Duration::from_secs(20),
                    "only {} outcomes were held",
                    held.lock().len()
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let peak = held.lock().len();
            while !stop.load(Ordering::SeqCst) {
                let answered = std::mem::take(&mut *held.lock());
                for (outcome, done) in answered {
                    done(outcome);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak
        })
    }

    /// Spins until `held` has `count` outcomes in it.
    fn await_held(held: &Held, count: usize) {
        let started = std::time::Instant::now();
        while held.lock().len() < count {
            assert!(
                started.elapsed() < std::time::Duration::from_secs(20),
                "only {} outcomes were held",
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
        // The counterpart of the release burst: one session pipelines more
        // `Submit`s than the completion high-water mark in a single write.
        // The I/O thread steps the idle stage, so each resolves at once, and
        // every outcome is held back.  The I/O thread must pause reading at the mark
        // — not refuse the rest — and resume as the stage answers, so every
        // reply is an Outcome.
        const SUBMITS: u64 = 300;
        let high_water = session::COMPLETIONS_HIGH_WATER;
        let inner: Arc<dyn ResourceManager> = Arc::from(
            PipelineBuilder::new()
                .database(fleet_db(2_000, 10))
                .build(BackendKind::Live)
                .unwrap(),
        );
        let manager = HeldOutcomes::new(&inner);
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
        raw.write_all(&burst).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let stage = answer_held(&held, high_water, &stop);
        release_granted(&mut raw, SUBMITS);
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
        // each launched at once into a window of 512, and every outcome is
        // held back.  Launched, each counts as a
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
        let manager = HeldOutcomes::new(&inner);
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
        raw.write_all(&burst).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let stage = answer_held(&held, high_water, &stop);
        release_granted(&mut raw, SUBMITS);
        stop.store(true, Ordering::SeqCst);
        let peak = stage.join().unwrap();
        assert_eq!(peak, high_water, "the read side paused at the mark");
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

    #[test]
    fn a_burst_of_pipelined_deadline_waits_is_answered_in_full() {
        // A remote client pipelines more `Submit`s than the completion
        // high-water mark, and not one outcome is in yet; then it collects
        // each with a deadline wait, kept on its own side of the socket.
        // The daemon pauses reading at the mark — no overload refusal —
        // and resumes as the stage answers, so every wait gets its Outcome.
        const SUBMITS: usize = 300;
        let high_water = session::COMPLETIONS_HIGH_WATER;
        assert!(SUBMITS > high_water);
        let db = fleet_db(2_000, 11);
        let inner: Arc<dyn ResourceManager> = Arc::from(
            PipelineBuilder::new()
                .database(db.clone())
                .window(512)
                .build(BackendKind::Live)
                .unwrap(),
        );
        let manager = HeldOutcomes::new(&inner);
        let held = manager.held.clone();
        let server = serve(Box::new(manager), &loopback()).unwrap();
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let tickets: Vec<_> = (0..SUBMITS)
            .map(|_| remote.submit_text(&paper_text()).unwrap())
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let stage = answer_held(&held, high_water, &stop);
        for ticket in tickets {
            let granted = remote
                .wait_deadline(ticket, std::time::Duration::from_secs(60))
                .expect("answered within the deadline")
                .unwrap();
            remote.release(&granted[0]).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        assert_eq!(
            stage.join().unwrap(),
            high_water,
            "the read side paused at the mark"
        );
        assert_eq!(active_jobs(&db), 0);
        remote.shutdown().unwrap();
        server.halt();
        server.join().unwrap();
    }

    #[test]
    fn a_vanished_client_settling_a_deadline_wait_is_not_polled() {
        // The client gives up a deadline wait and hangs up while the
        // backend holds its `Submit`'s outcome, so its session settles for
        // as long as the completion is held.  Its socket's hangup must not be
        // reported to the I/O thread on every turn meanwhile.
        let inner: Arc<dyn ResourceManager> = Arc::from(
            PipelineBuilder::new()
                .database(fleet_db(200, 14))
                .build(BackendKind::Live)
                .unwrap(),
        );
        let manager = HeldOutcomes::new(&inner);
        let held = manager.held.clone();
        let server = serve(Box::new(manager), &loopback()).unwrap();
        {
            let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
            let ticket = remote.submit_text(&paper_text()).unwrap();
            await_held(&held, 1);
            let waited = remote.wait_deadline(ticket, std::time::Duration::from_millis(20));
            assert_eq!(waited, None, "the outcome is held");
        }
        // The hangup reaches the I/O thread, then the session settles.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let before = server.shared.io_loops.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(600));
        let turns = server.shared.io_loops.load(Ordering::Relaxed) - before;
        // Idle, both I/O threads turn for the 250 ms closing sweep and
        // the 500 ms poll interval only: a handful of turns, not a spin.
        assert!(turns < 50, "{turns} I/O turns while the session settled");
        let stop = Arc::new(AtomicBool::new(false));
        let stage = answer_held(&held, 0, &stop);
        server.halt();
        server.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        stage.join().unwrap();
    }

    /// Holds a live backend's one pool-manager stage on a helper thread
    /// until the returned sender is used or dropped: no outcome comes in
    /// meanwhile, and the I/O threads keep answering — a post to the held
    /// stage only queues.
    fn hold_the_stage(live: &LiveBackend) -> std::sync::mpsc::Sender<()> {
        crate::live::tests::hold_stage(live.pipeline())
    }

    /// A live backend built by `builder`, shared as the daemon's manager.
    fn live(builder: PipelineBuilder) -> (Arc<LiveBackend>, Arc<dyn ResourceManager>) {
        let live = Arc::new(builder.build_live().unwrap());
        (live.clone(), live)
    }

    /// On a live daemon a remote client's `try_poll` and `wait_deadline`
    /// that miss give up on its own side of the socket, the `Submit`'s
    /// reply still to come; one that hits collects it.
    #[test]
    fn a_live_backends_polls_and_deadline_waits_run_no_lane_job() {
        let db = fleet_db(300, 17);
        let (live, manager) = live(PipelineBuilder::new().database(db.clone()));
        let server = serve(Box::new(manager.clone()), &loopback()).unwrap();
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let hold = hold_the_stage(&live);
        let ticket = remote.submit_text(&paper_text()).unwrap();
        assert_eq!(remote.try_poll(ticket), None);
        let asked = std::time::Instant::now();
        let missed = remote.wait_deadline(ticket, std::time::Duration::from_millis(50));
        assert_eq!(missed, None);
        let waited = asked.elapsed();
        assert!(
            waited >= std::time::Duration::from_millis(50),
            "timed out after {waited:?}"
        );
        // Let the stage go; the outcome comes in and a deadline wait hits.
        hold.send(()).unwrap();
        let granted = remote
            .wait_deadline(ticket, std::time::Duration::from_secs(60))
            .expect("resolves within the deadline")
            .unwrap();
        remote.release(&granted[0]).unwrap();
        assert_eq!(active_jobs(&db), 0);
        remote.shutdown().unwrap();
        server.halt();
        server.join().unwrap();
    }

    /// With a window of one, a `Submit` whose client gave up polling and
    /// waiting with a deadline keeps the window's permit until its outcome
    /// is in at the daemon: a second submission queues behind it until then.
    #[test]
    fn a_ticket_given_up_on_keeps_its_window_permit() {
        let db = fleet_db(300, 18);
        let (live, manager) = live(PipelineBuilder::new().database(db.clone()).window(1));
        let server = serve(Box::new(manager.clone()), &loopback()).unwrap();
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let hold = hold_the_stage(&live);
        let first = remote.submit_text(&paper_text()).unwrap();
        assert_eq!(remote.try_poll(first), None);
        let missed = remote.wait_deadline(first, std::time::Duration::from_millis(20));
        assert_eq!(missed, None);
        let base = manager.stats().shard_contention;
        let second = remote.submit_text(&paper_text()).unwrap();
        await_queued(&*manager, base + 1);
        hold.send(()).unwrap();
        for ticket in [first, second] {
            let granted = remote.wait(ticket).unwrap();
            remote.release(&granted[0]).unwrap();
        }
        assert_eq!(active_jobs(&db), 0);
        assert_eq!(manager.stats().in_flight, 0);
        remote.shutdown().unwrap();
        server.halt();
        server.join().unwrap();
    }

    /// A pool-manager step that panics unwinds on the I/O thread that
    /// stepped the stage — a stage has no thread of its own — and the
    /// daemon's join reports that thread's panic.  The thread first steps
    /// what was queued behind the panic, so the lease is released.
    #[test]
    fn a_panicking_stage_step_is_reported_as_an_io_thread_panic() {
        let (live, manager) = live(PipelineBuilder::new().database(fleet_db(200, 23)));
        let server = serve(Box::new(manager), &loopback()).unwrap();
        let mut raw = raw_hello(&server.local_addr());
        raw.set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .unwrap();
        submit_raw(&mut raw, 0);
        let allocation = granted(&mut raw);
        // The reply to a later frame: the drain that wrote the grant is over.
        write_frame(&mut raw, &ClientFrame::Stats { corr: RequestId(2) }).unwrap();
        let stats = read_server_frame(&mut raw).unwrap();
        assert!(matches!(stats, Some(ServerFrame::StatsReply { .. })));
        crate::live::tests::plant_panic(live.pipeline());
        write_frame(
            &mut raw,
            &ClientFrame::Release {
                corr: RequestId(1),
                allocation,
            },
        )
        .unwrap();
        // The panicking thread's sessions go with it: the `Released` reply
        // it wrote may be lost to the connection's reset.
        while let Ok(Some(frame)) = read_server_frame(&mut raw) {
            assert!(matches!(frame, ServerFrame::Released { .. }), "{frame:?}");
        }
        server.halt();
        let err = server.join().unwrap_err();
        assert!(err.to_string().contains("ypd I/O thread panicked"), "{err}");
        assert_eq!(live.stats().releases, 1, "the release behind the panic");
    }

    /// A client that hangs up holding a lease: its session's final sweep
    /// returns the lease as a release completion.
    #[test]
    fn a_closing_sessions_final_sweep_runs_no_lane_job() {
        let db = fleet_db(200, 19);
        let server = PipelineBuilder::new()
            .database(db.clone())
            .serve(&loopback(), BackendKind::Live)
            .unwrap();
        {
            let mut raw = raw_hello(&server.local_addr());
            submit_raw(&mut raw, 0);
            granted(&mut raw);
            // Dropped holding the lease.
        }
        let started = std::time::Instant::now();
        while active_jobs(&db) > 0 {
            assert!(
                started.elapsed() < std::time::Duration::from_secs(10),
                "the lease was never returned"
            );
            std::thread::yield_now();
        }
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

    #[test]
    fn submissions_into_a_full_window_launch_in_arrival_order_with_no_lane_job() {
        // A window of one, held by an in-process ticket whose outcome
        // cannot come while the stage is held; three sessions submit
        // into it one after the other.  The permit the holder's outcome
        // returns goes to the next in line, and each outcome returns it for
        // the one after: the thread that has an outcome launches the queued
        // submission it hands the permit to.  The launches come in arrival
        // order — the pipeline numbers its requests as they come in.
        let db = fleet_db(200, 12);
        let (live, manager) = live(PipelineBuilder::new().database(db.clone()).window(1));
        let server = serve(Box::new(manager.clone()), &loopback()).unwrap();
        let addr = server.local_addr();
        let hold = hold_the_stage(&live);
        let held = manager.submit(Query::paper_example()).unwrap();
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
        drop(hold);
        let granted_first = manager.wait(held).unwrap();
        manager.release(&granted_first[0]).unwrap();
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
        let stats = manager.stats();
        assert_eq!((stats.allocations, stats.releases), (4, 4));
        drop(queued);
        server.halt();
        server.join().unwrap();
    }

    #[test]
    fn a_client_vanishing_with_tickets_a_queued_admission_and_leases_strands_nothing() {
        // One session leaves everything behind at once: a lease it was
        // granted, two launched submissions filling the window with their
        // outcomes held back, and a submission queued behind them.  The
        // held outcomes reach the closed session as leases and free the
        // permits that launch the queued one there, redeemed in turn; every
        // lease goes with the final sweep.
        let db = fleet_db(300, 13);
        let (live, manager) = live(PipelineBuilder::new().database(db.clone()).window(2));
        let server = serve(Box::new(manager.clone()), &loopback()).unwrap();
        let hold = {
            let mut raw = raw_hello(&server.local_addr());
            submit_raw(&mut raw, 0);
            granted(&mut raw);
            let hold = hold_the_stage(&live);
            submit_raw(&mut raw, 1);
            submit_raw(&mut raw, 2);
            let base = manager.stats().shard_contention;
            submit_raw(&mut raw, 3);
            await_queued(&*manager, base + 1);
            hold
            // Dropped: no Release, no reply read.
        };
        // The hang-up reaches the daemon, then the stage answers.
        std::thread::sleep(std::time::Duration::from_millis(100));
        hold.send(()).unwrap();
        server.halt();
        server.join().unwrap();
        let stats = manager.stats();
        // The four submissions.
        assert_eq!(stats.allocations, 4, "every submission was launched");
        assert_eq!(stats.allocations, stats.releases);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(active_jobs(&db), 0);
    }

    #[test]
    fn six_hundred_submits_in_one_burst_into_a_window_of_four_are_all_answered() {
        // One session writes 600 `Submit`s in one burst into a window of
        // four, so nearly all of them queue in the window at once.  Each
        // counts toward the read pause like any owed reply — no overload
        // refusal — and waits only for the outcomes of launched queries,
        // which the stage produces whatever the client reads: every reply
        // is an Outcome, and every allocation goes back.
        const SUBMITS: u64 = 600;
        let db = fleet_db(2_000, 91);
        let manager: Arc<dyn ResourceManager> = Arc::from(
            PipelineBuilder::new()
                .database(db.clone())
                .window(4)
                .build(BackendKind::Live)
                .unwrap(),
        );
        let server = serve(Box::new(manager.clone()), &loopback()).unwrap();
        let mut raw = raw_hello(&server.local_addr());
        raw.set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .unwrap();
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
        raw.write_all(&burst).unwrap();
        release_granted(&mut raw, SUBMITS);
        assert_eq!(active_jobs(&db), 0);
        let stats = manager.stats();
        assert_eq!((stats.allocations, stats.releases), (SUBMITS, SUBMITS));
        assert_eq!(stats.in_flight, 0);
        drop(raw);
        server.halt();
        server.join().unwrap();
    }

    #[test]
    fn a_client_vanishing_with_v4_submits_in_every_state_strands_nothing() {
        // One session leaves a `Submit` behind in each state: granted but
        // its Outcome unread; launched with its outcome not in yet; and not
        // launched — queued on its full window.  The first is a lease the
        // final sweep returns, the second becomes one when its outcome
        // reaches the closed session, and the third is launched after the
        // close and redeemed there, its lease swept.
        let db = fleet_db(300, 15);
        let (live, inner) = live(PipelineBuilder::new().database(db.clone()).window(1));
        let manager = HeldOutcomes::new(&inner);
        let held = manager.held.clone();
        let server = serve(Box::new(manager), &loopback()).unwrap();
        let hold = {
            let mut raw = raw_hello(&server.local_addr());
            // Granted: its outcome is written, never read.
            submit_raw(&mut raw, 0);
            await_held(&held, 1);
            let (outcome, done) = held.lock().pop().unwrap();
            done(outcome);
            // Launched: its outcome cannot come while the stage is held, so
            // the window's one permit stays its own.
            let hold = hold_the_stage(&live);
            submit_raw(&mut raw, 1);
            // Not launched.
            let base = inner.stats().shard_contention;
            submit_raw(&mut raw, 2);
            await_queued(&*inner, base + 1);
            hold
        };
        // The client is gone; once its session is closing, the stage
        // answers what it holds — launching the queued submission.
        std::thread::sleep(std::time::Duration::from_millis(100));
        drop(hold);
        let stop = Arc::new(AtomicBool::new(false));
        let stage = answer_held(&held, 0, &stop);
        server.halt();
        server.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        stage.join().unwrap();
        let stats = inner.stats();
        assert_eq!(stats.allocations, 3, "every submission was launched");
        assert_eq!(stats.allocations, stats.releases);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(active_jobs(&db), 0);
    }

    #[test]
    fn a_submission_launched_after_its_client_left_is_not_delegated() {
        // The entry daemon's window of one is held by an in-process ticket
        // whose outcome cannot come while the one stage is held, and a
        // query only the peer domain can satisfy queues behind it.  The
        // client vanishes, and only then is the stage let go: the ticket's
        // outcome returns the permit that launches the queued submission in
        // a closed session, whose local failure ends there — no delegation
        // for a client that is gone.
        let db_b = arch_db("hp", 40, 76);
        let (srv_b, fed_b) = federated("upc", BackendKind::Live, db_b.clone(), Vec::new());
        let db_a = arch_db("sun", 20, 77);
        let (live, inner) = live(PipelineBuilder::new().database(db_a.clone()).window(1));
        let fed_a = Arc::new(FederatedBackend::new(
            Box::new(inner),
            crate::federation::FederationConfig {
                domain: "purdue".to_string(),
                peers: vec![srv_b.local_addr()],
                gossip_interval: std::time::Duration::ZERO,
                probe_interval: std::time::Duration::ZERO,
                ..Default::default()
            },
            Some(live.pipeline().directory().clone()),
        ));
        let srv_a = serve_federated(fed_a.clone(), &loopback()).unwrap();
        {
            // The link is warm: one delegation has crossed it.
            let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
            let warm = client.submit_text_wait(HP).unwrap();
            client.release(&warm[0]).unwrap();
            client.shutdown().unwrap();
        }
        let delegated = fed_a.stats().delegations_out;
        let hold = hold_the_stage(&live);
        let held = fed_a.submit(Query::paper_example()).unwrap();
        {
            let mut raw = raw_hello(&srv_a.local_addr());
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
        // The hang-up reaches the daemon, then the permit comes back.
        std::thread::sleep(std::time::Duration::from_millis(200));
        hold.send(()).unwrap();
        let granted = fed_a.wait(held).unwrap();
        fed_a.release(&granted[0]).unwrap();
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
        let manager = HeldOutcomes::new(&inner);
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
            let (outcome, done) = held.lock().pop().unwrap();
            done(outcome);
            // Launched: its local failure is not in yet.
            submit(1, HP);
        }
        // The hang-up reaches the daemon, then the local failure comes in.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let (local, done) = held.lock().pop().unwrap();
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
        let server = serve_kind(BackendKind::Live, 50, 7);
        let addr = server.local_addr();
        // A client of the future, and one of protocol v4, whose batch
        // frames are retired: each is refused at the hello, told the one
        // range this daemon speaks.
        for (min_version, max_version) in [(PROTOCOL_VERSION + 1, PROTOCOL_VERSION + 9), (4, 4)] {
            let mut stream = TcpStream::connect((addr.host.as_str(), addr.port)).unwrap();
            let hello = ClientFrame::Hello {
                min_version,
                max_version,
            };
            write_frame(&mut stream, &hello).unwrap();
            match read_server_frame(&mut stream).unwrap() {
                Some(ServerFrame::HelloReject { message }) => {
                    assert!(message.contains("no common protocol version"), "{message}");
                    assert!(message.contains("server speaks 5..=5"), "{message}");
                }
                other => panic!("expected HelloReject, got {other:?}"),
            }
        }
        // The reserved `Wait` names a ticket no v5 daemon issues: it is
        // refused, and the session goes on serving.
        let mut raw = raw_hello(&addr);
        let wait = ClientFrame::Wait {
            corr: RequestId(1),
            ticket: 0,
            deadline_ms: None,
        };
        write_frame(&mut raw, &wait).unwrap();
        match read_server_frame(&mut raw).unwrap() {
            Some(ServerFrame::Error { corr, error }) => {
                assert_eq!(corr, RequestId(1));
                assert_eq!(error, AllocationError::UnknownTicket);
            }
            other => panic!("expected UnknownTicket, got {other:?}"),
        }
        submit_raw(&mut raw, 2);
        let allocation = granted(&mut raw);
        release_raw(&mut raw, 3, allocation);
        drop(raw);
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
    /// both daemons as completions: the entry daemon's
    /// pool-manager stage sends `Delegate`, the far daemon's stages answer
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
        // The first delegation dials the link from the reactor.
        let warm = client.submit_text_wait(HP).unwrap();
        client.release(&warm[0]).unwrap();
        let delegated = fed_a.stats().delegations_out;
        for _ in 0..5 {
            let granted = client.submit_text_wait(HP).unwrap();
            assert!(granted[0].machine_name.contains("hp"));
            client.release(&granted[0]).unwrap();
        }
        assert_eq!(fed_a.stats().delegations_out, delegated + 5);
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
            // Cold link: dialed by the reactor, then answered.
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
                .view()
                .directory()
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

    /// A cold link is dialed by the reactor: the first delegation — the
    /// non-blocking connect, `Hello` and `SyncPools` included — and its
    /// release cross both daemons as completions.
    #[test]
    fn a_cold_link_serves_a_delegation_and_its_release_with_no_lane_job() {
        let db_b = arch_db("hp", 40, 80);
        let (srv_b, _) = federated("upc", BackendKind::Live, db_b.clone(), Vec::new());
        let (srv_a, fed_a) = federated(
            "purdue",
            BackendKind::Live,
            arch_db("sun", 20, 81),
            vec![srv_b.local_addr()],
        );
        let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
        let granted = client.submit_text_wait(HP).unwrap();
        assert!(granted[0].machine_name.contains("hp"));
        client.release(&granted[0]).unwrap();
        assert_eq!(fed_a.stats().delegations_out, 1);
        assert_eq!(active_jobs(&db_b), 0);
        client.halt_daemon().unwrap();
        client.shutdown().unwrap();
        srv_a.join().unwrap();
        srv_b.halt();
        srv_b.join().unwrap();
    }

    /// The gossip tick and the health probe fire on the first I/O thread's
    /// timer as rounds of completions: the tick dials the cold link and
    /// gossips over it, the probe finds the far daemon gone once it is
    /// halted and prunes it.
    #[test]
    fn gossip_and_probe_rounds_run_no_lane_job() {
        let (srv_b, _) = federated("upc", BackendKind::Live, arch_db("hp", 20, 82), Vec::new());
        let (srv_a, fed_a) = PipelineBuilder::new()
            .database(arch_db("sun", 20, 83))
            .serve_federated(
                &loopback(),
                BackendKind::Live,
                crate::federation::FederationConfig {
                    domain: "purdue".to_string(),
                    peers: vec![srv_b.local_addr()],
                    gossip_interval: std::time::Duration::from_millis(50),
                    probe_interval: std::time::Duration::from_millis(50),
                    ..Default::default()
                },
            )
            .unwrap();
        let knows_upc = || {
            fed_a
                .view()
                .directory()
                .pool_managers()
                .contains(&"upc".to_string())
        };
        let started = std::time::Instant::now();
        while !knows_upc() {
            assert!(started.elapsed() < std::time::Duration::from_secs(10));
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // Rounds of both kinds over the live link.
        std::thread::sleep(std::time::Duration::from_millis(300));
        srv_b.halt();
        srv_b.join().unwrap();
        let started = std::time::Instant::now();
        while knows_upc() {
            assert!(started.elapsed() < std::time::Duration::from_secs(10));
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        srv_a.halt();
        srv_a.join().unwrap();
    }

    /// A peer that accepts the connection but never answers `Hello`: the
    /// dial runs on the reactor, so another client's `Stats` on the same
    /// daemon is answered at once meanwhile; the dial fails at the connect
    /// timeout, the chain ends with the local failure, and the link backs
    /// off — the next query neither waits nor dials again.
    #[test]
    fn a_peer_that_never_says_hello_stalls_nobody_and_backs_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = StageAddress::new("127.0.0.1", listener.local_addr().unwrap().port());
        let (srv_a, _) = federated(
            "purdue",
            BackendKind::Live,
            arch_db("sun", 20, 84),
            vec![peer_addr],
        );
        let mut raw = raw_hello(&srv_a.local_addr());
        let mut other = raw_hello(&srv_a.local_addr());
        let started = std::time::Instant::now();
        write_frame(
            &mut raw,
            &ClientFrame::Submit {
                corr: RequestId(1),
                query: HP.to_string(),
            },
        )
        .unwrap();
        // The dial's connect is accepted (held, never answered) ...
        let (_held, _) = listener.accept().unwrap();
        // ... and the daemon answers others meanwhile.
        let asked = std::time::Instant::now();
        write_frame(&mut other, &ClientFrame::Stats { corr: RequestId(2) }).unwrap();
        assert!(matches!(
            read_server_frame(&mut other).unwrap(),
            Some(ServerFrame::StatsReply { .. })
        ));
        let answered = asked.elapsed();
        assert!(
            answered < std::time::Duration::from_millis(100),
            "Stats took {answered:?} beside a silent dial"
        );
        match read_server_frame(&mut raw).unwrap() {
            Some(ServerFrame::Outcome { outcome, .. }) => {
                assert_eq!(outcome, Err(AllocationError::NoSuchResources))
            }
            other => panic!("expected Outcome, got {other:?}"),
        }
        let failed_over = started.elapsed();
        let timeout = crate::corr::CONNECT_TIMEOUT;
        assert!(
            failed_over >= timeout && failed_over < timeout * 2,
            "the chain failed over after {failed_over:?}"
        );
        // In backoff: answered without a wait, and nothing dials.
        let again = std::time::Instant::now();
        assert_eq!(
            wait_once(&mut raw, 3),
            Err(AllocationError::NoSuchResources)
        );
        assert!(again.elapsed() < timeout / 4, "{:?}", again.elapsed());
        listener.set_nonblocking(true).unwrap();
        assert!(listener.accept().is_err(), "a link in backoff was dialed");
        drop((raw, other));
        srv_a.halt();
        srv_a.join().unwrap();
    }

    /// Six federated deadline waits, each on a pipelined `Submit` whose
    /// chain needs the cold dial: each is a completion and the dial runs on
    /// the reactor, so every one finishes.
    #[test]
    fn concurrent_deadline_waits_all_finish_over_a_cold_link() {
        let waits = 6;
        let db_b = arch_db("hp", 40, 85);
        let (srv_b, _) = federated("upc", BackendKind::Live, db_b.clone(), Vec::new());
        let (srv_a, _) = federated(
            "purdue",
            BackendKind::Live,
            arch_db("sun", 20, 86),
            vec![srv_b.local_addr()],
        );
        let remote = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
        let tickets: Vec<_> = (0..waits)
            .map(|_| remote.submit_text(HP).unwrap())
            .collect();
        let deadline = std::time::Duration::from_secs(30);
        let delegated: Vec<_> = tickets
            .into_iter()
            .map(|ticket| remote.wait_deadline(ticket, deadline).expect("in time"))
            .map(|outcome| outcome.unwrap().remove(0))
            .collect();
        assert_eq!(active_jobs(&db_b), waits as u32);
        for allocation in &delegated {
            remote.release(allocation).unwrap();
        }
        assert_eq!(active_jobs(&db_b), 0);
        remote.shutdown().unwrap();
        srv_a.halt();
        srv_a.join().unwrap();
        srv_b.halt();
        srv_b.join().unwrap();
    }

    /// On a federated daemon a `Submit` whose local outcome is a delegable
    /// failure is answered by its chain's `Outcome`, which a client's
    /// `try_poll` and `wait_deadline` collect.
    #[test]
    fn federated_polls_and_deadline_waits_answer_with_the_chain_and_no_lane_job() {
        let db_b = arch_db("hp", 40, 87);
        let (srv_b, _) = federated("upc", BackendKind::Live, db_b.clone(), Vec::new());
        let (srv_a, _) = federated(
            "purdue",
            BackendKind::Live,
            arch_db("sun", 20, 88),
            vec![srv_b.local_addr()],
        );
        let remote = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
        // Warm the link, so both chains ride the reactor session.
        let warm = remote.submit_text_wait(HP).unwrap();
        remote.release(&warm[0]).unwrap();
        let (first, second) = (
            remote.submit_text(HP).unwrap(),
            remote.submit_text(HP).unwrap(),
        );
        let started = std::time::Instant::now();
        let polled = loop {
            if let Some(outcome) = remote.try_poll(first) {
                break outcome.unwrap().remove(0);
            }
            assert!(started.elapsed() < std::time::Duration::from_secs(30));
            std::thread::yield_now();
        };
        let waited = remote
            .wait_deadline(second, std::time::Duration::from_secs(30))
            .expect("in time")
            .unwrap()
            .remove(0);
        assert!(polled.machine_name.contains("hp") && waited.machine_name.contains("hp"));
        remote.release(&polled).unwrap();
        remote.release(&waited).unwrap();
        assert_eq!(active_jobs(&db_b), 0);
        remote.shutdown().unwrap();
        srv_a.halt();
        srv_a.join().unwrap();
        srv_b.halt();
        srv_b.join().unwrap();
    }

    /// An inbound `Delegate` to a federated daemon embedded in this process
    /// is submitted and redeemed as completions on the I/O thread that
    /// decoded it — which steps the idle stage and resolves it on the spot — and
    /// answered `Delegated`; the lease is the peer session's, returned by
    /// its final sweep.
    #[test]
    fn an_inbound_delegate_to_a_federated_embedded_daemon_is_answered_delegated() {
        let db = arch_db("hp", 20, 94);
        let (srv, fed) = federated("upc", BackendKind::Live, db.clone(), Vec::new());
        let mut raw = raw_hello(&srv.local_addr());
        write_frame(
            &mut raw,
            &ClientFrame::Delegate {
                corr: RequestId(1),
                query: HP.to_string(),
                ttl: 4,
                visited: vec!["purdue".to_string()],
            },
        )
        .unwrap();
        match read_server_frame(&mut raw).unwrap() {
            Some(ServerFrame::Delegated {
                corr,
                outcome: Ok(allocations),
                ttl,
                visited,
                ..
            }) => {
                assert_eq!(corr, RequestId(1));
                assert!(allocations[0].machine_name.contains("hp"));
                assert_eq!(ttl, 3);
                assert_eq!(visited, vec!["purdue".to_string(), "upc".to_string()]);
            }
            other => panic!("expected Delegated, got {other:?}"),
        }
        assert_eq!(active_jobs(&db), 1);
        assert_eq!(fed.stats().delegations_in, 1);
        drop(raw);
        srv.halt();
        srv.join().unwrap();
        assert_eq!(active_jobs(&db), 0);
    }

    /// A `Delegate` for a query that already visited this domain is refused
    /// by the I/O thread that decoded it, counted as an inbound
    /// delegation.
    #[test]
    fn a_revisiting_delegate_is_refused_with_no_lane_job() {
        let (srv, fed) = federated(
            "purdue",
            BackendKind::Live,
            arch_db("sun", 20, 89),
            Vec::new(),
        );
        let mut raw = raw_hello(&srv.local_addr());
        write_frame(
            &mut raw,
            &ClientFrame::Delegate {
                corr: RequestId(1),
                query: HP.to_string(),
                ttl: 4,
                visited: vec!["purdue".to_string()],
            },
        )
        .unwrap();
        match read_server_frame(&mut raw).unwrap() {
            Some(ServerFrame::Delegated {
                outcome: Err(AllocationError::Protocol(message)),
                visited,
                ..
            }) => {
                assert!(message.contains("already visited"), "{message}");
                assert_eq!(visited, vec!["purdue".to_string()]);
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(fed.stats().delegations_in, 1);
        drop(raw);
        srv.halt();
        srv.join().unwrap();
    }

    #[test]
    fn garbage_on_the_socket_does_not_kill_the_daemon() {
        let server = serve_kind(BackendKind::Live, 50, 8);
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
