//! The worker lanes: every backend call of a session that can park runs
//! here, never on an I/O thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use actyp_proto::{RequestId, ServerFrame};

use super::session::SessionState;
use super::ServerShared;
use crate::allocation::AllocationError;
use crate::reactor::WorkerPool;

/// Upper bound on blocking requests in flight per session and lane; a
/// request beyond it is answered with an error, so one connection cannot
/// flood the shared worker queues.
const MAX_SESSION_WORKERS: usize = 256;

/// The worker lanes for blocking backend calls.  Submit and redeem are
/// separate pools because their blocking has different *causes*:
/// submit-lane jobs (submits, batches, incoming delegations the backend
/// cannot take from the I/O thread) can block on the live backend's
/// admission window, whose permits only redemptions free — a single shared
/// pool saturated with window-blocked submissions would starve the very
/// waits that unblock it.  Redeem-lane jobs (deadline waits and polls that
/// cannot answer at once, the waits and releases a backend hands back, and
/// delegation steps over a cold peer link) resolve by pipeline progress or
/// bounded peer I/O alone, never by the window; everything a client must
/// complete in order to *return* capacity lives here, so the lane always
/// drains.
pub(super) struct Pools {
    pub(super) submit: WorkerPool,
    pub(super) redeem: WorkerPool,
    /// Session teardowns (settle abandoned tickets, sweep leases, seal
    /// the write queue).  A lane rather than a thread per closing
    /// session: a mass disconnect — or the drain itself — would otherwise
    /// spawn one thread per session in a burst, reintroducing
    /// thread-count-proportional-to-session-count at exactly the moment
    /// the daemon is busiest.  Teardown jobs never wait on each other
    /// (they wait on the submit/redeem lanes and on bounded backend
    /// deadlines), so the lane always drains.
    pub(super) teardown: WorkerPool,
}

impl Pools {
    pub(super) fn new(workers: usize) -> Self {
        Pools {
            submit: WorkerPool::new("ypd-submit", workers),
            redeem: WorkerPool::new("ypd-redeem", workers),
            teardown: WorkerPool::new("ypd-teardown", workers),
        }
    }

    /// Stops every lane once its queue has drained; returns how many jobs
    /// panicked over the lanes' lifetime.
    pub(super) fn shutdown(&self) -> u64 {
        self.submit.shutdown() + self.redeem.shutdown() + self.teardown.shutdown()
    }

    /// Jobs all three lanes have started so far.
    #[cfg(test)]
    pub(super) fn jobs_run(&self) -> u64 {
        self.submit.jobs_run() + self.redeem.jobs_run() + self.teardown.jobs_run()
    }
}

/// Which lane a blocking request runs on.
#[derive(Clone, Copy)]
pub(super) enum Lane {
    Submit,
    Redeem,
}

impl Lane {
    fn in_flight(self, state: &SessionState) -> &AtomicUsize {
        match self {
            Lane::Submit => &state.submit_jobs,
            Lane::Redeem => &state.redeem_jobs,
        }
    }
}

/// Decrements the owning session's lane counter when a job finishes — by
/// panic as much as by return, so a panicking backend cannot wedge the
/// session teardown that waits for the count to reach zero.
struct JobGuard {
    state: Arc<SessionState>,
    lane: Lane,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        // Release: whoever reads the count as zero (the I/O thread, before
        // answering a submission inline) also sees the job's queued reply.
        self.lane
            .in_flight(&self.state)
            .fetch_sub(1, Ordering::Release);
    }
}

/// The blocking jobs decoded from one readable event, collected per lane
/// and dispatched with one [`WorkerPool::execute_batch`] each — one queue
/// send and one worker wakeup for the whole batch instead of one per
/// frame.  A batch stays on one worker in arrival order, which is exactly
/// the per-session ordering the frames had anyway; different sessions'
/// batches still spread across the lane's workers.
#[derive(Default)]
pub(super) struct LaneBatch {
    submit: Vec<Box<dyn FnOnce() + Send>>,
    redeem: Vec<Box<dyn FnOnce() + Send>>,
}

impl LaneBatch {
    /// Hands each lane's collected jobs to its pool and counts the frames
    /// that actually rode a multi-frame batch.
    pub(super) fn flush(self, shared: &ServerShared, pools: &Pools) {
        for (jobs, pool) in [(self.submit, &pools.submit), (self.redeem, &pools.redeem)] {
            if jobs.len() > 1 {
                shared
                    .frames_batched
                    .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            }
            pool.execute_batch(jobs);
        }
    }
}

/// Queues one blocking request on a worker lane's batch, bounded per
/// session: past [`MAX_SESSION_WORKERS`] in flight on the lane, the
/// request is answered with an overload error instead.  The per-session
/// counter is claimed here, at decode time, so the cap holds even while
/// the batch is still being collected.
pub(super) fn spawn_job(
    batch: &mut LaneBatch,
    lane: Lane,
    state: &Arc<SessionState>,
    corr: RequestId,
    job: impl FnOnce() + Send + 'static,
) {
    let counter = lane.in_flight(state);
    if counter.load(Ordering::Relaxed) >= MAX_SESSION_WORKERS {
        state.send(&ServerFrame::Error {
            corr,
            error: AllocationError::Internal(format!(
                "session has {MAX_SESSION_WORKERS} blocking requests of this kind in \
                 flight; await replies before sending more"
            )),
        });
        return;
    }
    counter.fetch_add(1, Ordering::Relaxed);
    let guard = JobGuard {
        state: state.clone(),
        lane,
    };
    spawn_uncounted(batch, lane, move || {
        let _guard = guard;
        job();
    });
}

/// Queues a job the caller bounds and counts itself: a handed-back release
/// or wait, which must never be refused (the error would strand the lease,
/// or the ticket it already claimed) and is held back by pausing the
/// session's read side instead.
pub(super) fn spawn_uncounted(
    batch: &mut LaneBatch,
    lane: Lane,
    job: impl FnOnce() + Send + 'static,
) {
    let jobs = match lane {
        Lane::Submit => &mut batch.submit,
        Lane::Redeem => &mut batch.redeem,
    };
    jobs.push(Box::new(job));
}
