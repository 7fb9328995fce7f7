//! Minimal in-tree stand-in for the `crossbeam` crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the subset actyp uses: `crossbeam::channel::unbounded` multi-producer
//! multi-consumer channels with cloneable senders *and* receivers.  The
//! implementation is a mutex-protected queue with a condition variable —
//! not lock-free like the real crate, but semantically equivalent:
//! `send` fails once every receiver is gone, `recv` blocks until a message
//! arrives and fails once the channel is empty with every sender gone.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::Arc;

    // Under the `model` feature the channel's lock and condvar come from
    // actyp-model: channels created inside `Explorer::explore` are then
    // deterministically interleaved (including the signal-absorption
    // branch of `notify_one`), while channels created anywhere else fall
    // back to real `std::sync` internals.
    #[cfg(feature = "model")]
    use actyp_model::sync::{Condvar, Mutex};
    #[cfg(not(feature = "model"))]
    use std::sync::{Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message back to the caller.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the channel still empty.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// The sending half of an unbounded MPMC channel.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// The receiving half of an unbounded MPMC channel.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (Sender(chan.clone()), Receiver(chan))
    }

    impl<T> Sender<T> {
        /// Enqueues a message, failing if every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.state.lock().unwrap();
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            drop(state);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                // Wake blocked receivers so they can observe disconnection.
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Passes the wakeup baton on: a receiver that pops a message while
        /// more remain must re-notify, because two `send`s can both wake
        /// the SAME blocked receiver (a thread that has been signalled but
        /// not yet scheduled still absorbs further `notify_one`s on many
        /// implementations).  That receiver consumes exactly one message
        /// and leaves — without the hand-off, the second message would sit
        /// queued while every other consumer sleeps forever.  Single-
        /// consumer channels are unaffected; multi-consumer pools (the
        /// `ypd` reactor's worker lanes) deadlocked on exactly this.
        fn pass_baton(&self, state: &State<T>) {
            // `buggy-baton` (test-only) reverts this fix so the model
            // checker can prove it still catches the resulting deadlock.
            #[cfg(not(feature = "buggy-baton"))]
            if !state.queue.is_empty() {
                self.0.ready.notify_one();
            }
            #[cfg(feature = "buggy-baton")]
            let _ = state;
        }

        /// Blocks until a message arrives, failing once the channel is empty
        /// with no senders left.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.state.lock().unwrap();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    self.pass_baton(&state);
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.0.ready.wait(state).unwrap();
            }
        }

        /// Blocks up to `timeout` for a message; fails with `Timeout` once
        /// the deadline passes and with `Disconnected` once the channel is
        /// empty with no senders left.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut state = self.0.state.lock().unwrap();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    self.pass_baton(&state);
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, _timed_out) = self.0.ready.wait_timeout(state, remaining).unwrap();
                state = guard;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.state.lock().unwrap();
            match state.queue.pop_front() {
                Some(value) => {
                    self.pass_baton(&state);
                    Ok(value)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.0.state.lock().unwrap().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    /// The last receiver to go drops the messages still queued, as the
    /// real crate does: nothing can receive them any more, and a message
    /// that answers somebody when dropped must not wait for the last
    /// sender.  They are dropped after the lock is released.
    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().unwrap();
            state.receivers -= 1;
            let stranded = match state.receivers {
                0 => std::mem::take(&mut state.queue),
                _ => VecDeque::new(),
            };
            drop(state);
            drop(stranded);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(7).unwrap();
            assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(5)), Ok(7));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn send_recv_in_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_fails_after_last_sender_drops() {
            let (tx, rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            drop(tx);
            tx2.send(9).unwrap();
            drop(tx2);
            assert_eq!(rx.recv(), Ok(9));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_fails_after_last_receiver_drops() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn the_last_receiver_drops_what_is_still_queued() {
            let (tx, rx) = unbounded::<Arc<()>>();
            let message = Arc::new(());
            let rx2 = rx.clone();
            tx.send(message.clone()).unwrap();
            drop(rx);
            assert_eq!(Arc::strong_count(&message), 2, "a receiver is left");
            drop(rx2);
            assert_eq!(
                Arc::strong_count(&message),
                1,
                "dropped with the channel's last receiver"
            );
        }

        /// Multi-consumer competition can genuinely hang when the baton
        /// hand-off is reverted, so keep this off under `buggy-baton`.
        #[cfg(not(feature = "buggy-baton"))]
        #[test]
        fn cloned_receivers_compete_for_messages() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let workers: Vec<_> = [rx, rx2]
                .into_iter()
                .map(|rx| std::thread::spawn(move || rx.recv().is_ok() as usize))
                .collect();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            drop(tx);
            let got: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
            assert_eq!(got, 2);
        }

        /// The worker-pool shape that exposed the lost wakeup: several
        /// consumers blocked on one channel, producers bursting messages.
        /// Two sends could wake the same consumer, which takes one message
        /// and leaves — stranding the other message forever.  With the
        /// wakeup hand-off every message is consumed.
        #[cfg(not(feature = "buggy-baton"))]
        #[test]
        fn bursts_reach_every_blocked_consumer() {
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Arc;

            for _round in 0..50 {
                let (tx, rx) = unbounded::<u32>();
                let consumed = Arc::new(AtomicUsize::new(0));
                let consumers: Vec<_> = (0..4)
                    .map(|_| {
                        let rx = rx.clone();
                        let consumed = consumed.clone();
                        std::thread::spawn(move || {
                            while rx.recv().is_ok() {
                                consumed.fetch_add(1, Ordering::Relaxed);
                            }
                        })
                    })
                    .collect();
                drop(rx);
                let producers: Vec<_> = (0..3)
                    .map(|p| {
                        let tx = tx.clone();
                        std::thread::spawn(move || {
                            for i in 0..40 {
                                tx.send(p * 100 + i).unwrap();
                            }
                        })
                    })
                    .collect();
                drop(tx);
                for producer in producers {
                    producer.join().unwrap();
                }
                for consumer in consumers {
                    consumer.join().unwrap();
                }
                assert_eq!(consumed.load(Ordering::Relaxed), 120, "no message stranded");
            }
        }

        #[test]
        fn blocked_receiver_wakes_on_send() {
            let (tx, rx) = unbounded();
            let waiter = std::thread::spawn(move || rx.recv());
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send(42).unwrap();
            assert_eq!(waiter.join().unwrap(), Ok(42));
        }
    }
}

/// Bounded-interleaving proofs of the channel (`--features model`), run
/// by the CI `model-check` job.  Every channel created inside
/// `Explorer::explore` routes its lock and condvar through the
/// cooperative scheduler; `notify_one` explicitly branches into the
/// signal-absorption case that caused the worker-lane lost wakeup.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::channel::unbounded;
    use actyp_model::{thread, Explorer};
    use std::sync::Arc;

    fn explorer() -> Explorer {
        Explorer {
            max_schedules: 200_000,
            preemption_bound: 2,
            op_budget: 50_000,
        }
    }

    /// The exact worker-lane shape behind the PR 5 bug: two consumers
    /// each take one message, producer bursts two sends.  Exhaustively
    /// deadlock-free *only* because of the wakeup hand-off in
    /// `pass_baton` — see `lost_wakeup_recaught` for the reverted form.
    #[cfg(not(feature = "buggy-baton"))]
    #[test]
    fn mpmc_burst_to_two_consumers_proven() {
        let report = explorer().prove(|| {
            let (tx, rx) = unbounded::<u8>();
            let rx2 = rx.clone();
            let c1 = thread::spawn(move || rx.recv().unwrap());
            let c2 = thread::spawn(move || rx2.recv().unwrap());
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let got = c1.join().unwrap() + c2.join().unwrap();
            assert_eq!(got, 3, "both messages consumed, once each");
        });
        assert!(report.proven());
        assert!(report.schedules > 10, "interleavings actually explored");
    }

    /// Worker-pool shutdown protocol over the channel: each worker loops
    /// on `recv`, counts work, and exits on a stop marker queued behind
    /// the work — a worker pool's stop-marker shutdown in miniature.
    #[cfg(not(feature = "buggy-baton"))]
    #[test]
    fn worker_pool_stop_protocol_proven() {
        #[derive(Clone, Copy)]
        enum Job {
            Run,
            Stop,
        }
        let report = Explorer {
            max_schedules: 200_000,
            preemption_bound: 1,
            op_budget: 50_000,
        }
        .prove(|| {
            let (tx, rx) = unbounded::<Job>();
            let tally = Arc::new(actyp_model::sync::Mutex::new(0u8));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    let tally = tally.clone();
                    thread::spawn(move || loop {
                        match rx.recv() {
                            Ok(Job::Run) => *tally.lock().unwrap() += 1,
                            Ok(Job::Stop) | Err(_) => break,
                        }
                    })
                })
                .collect();
            tx.send(Job::Run).unwrap();
            // Stop markers behind the queued work, one per worker.
            tx.send(Job::Stop).unwrap();
            tx.send(Job::Stop).unwrap();
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(*tally.lock().unwrap(), 1, "the job ran exactly once");
        });
        assert!(report.proven());
    }

    /// Disconnect semantics under every schedule: a consumer draining
    /// until `Err` terminates once the last sender drops.
    #[cfg(not(feature = "buggy-baton"))]
    #[test]
    fn drain_until_disconnect_proven() {
        let report = explorer().prove(|| {
            let (tx, rx) = unbounded::<u8>();
            let consumer = thread::spawn(move || {
                let mut got = 0u8;
                while let Ok(v) = rx.recv() {
                    got += v;
                }
                got
            });
            tx.send(5).unwrap();
            drop(tx);
            assert_eq!(consumer.join().unwrap(), 5);
        });
        assert!(report.proven());
    }

    /// REGRESSION (`--features model,buggy-baton`): with the PR 5 wakeup
    /// hand-off reverted, two sends can both land on the same blocked
    /// consumer — the second signal is absorbed, the other consumer
    /// starves with its message queued.  The exploration must re-find
    /// that deadlock within a bounded number of interleavings.
    #[cfg(feature = "buggy-baton")]
    #[test]
    fn lost_wakeup_recaught() {
        let report = explorer().explore(|| {
            let (tx, rx) = unbounded::<u8>();
            let rx2 = rx.clone();
            let c1 = thread::spawn(move || rx.recv().unwrap());
            let c2 = thread::spawn(move || rx2.recv().unwrap());
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            c1.join().unwrap();
            c2.join().unwrap();
        });
        let failure = report
            .failure
            .expect("reverted baton fix must deadlock within the bounded exploration");
        assert!(
            failure.message.contains("deadlock"),
            "expected a deadlock, got: {}",
            failure.message
        );
        assert!(
            report.schedules <= 5_000,
            "lost wakeup should surface within a few thousand interleavings, took {}",
            report.schedules
        );
    }
}
