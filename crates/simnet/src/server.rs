//! Queueing building blocks for the service-time model.
//!
//! The ActYP prototype in the paper ran every pipeline component on a single
//! 12-processor Alpha server; clients observed response times that grow with
//! load because requests queue behind each other at the scheduling processes.
//! These helpers model that effect without simulating individual CPU
//! instructions: a [`FcfsServer`] is a single serially-reused resource (one
//! scheduling process, one pool manager thread, …).
//!
//! It is a *time-function* server: given an arrival time and a service
//! demand it returns the completion time, updating its internal
//! availability horizon.  This is exact for FCFS queues and keeps the event
//! count in the simulation proportional to the number of requests rather than
//! the number of queue inspections.

use crate::time::{SimDuration, SimTime};

/// A single first-come-first-served service station.
#[derive(Debug, Clone, Default)]
pub struct FcfsServer {
    next_free: SimTime,
    served: u64,
}

impl FcfsServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serves a request that arrives at `arrival` and needs `demand` of
    /// service.  Returns the completion time.
    pub fn serve(&mut self, arrival: SimTime, demand: SimDuration) -> SimTime {
        let start = arrival.max(self.next_free);
        let done = start + demand;
        self.next_free = done;
        self.served += 1;
        done
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }
    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FcfsServer::new();
        assert_eq!(s.serve(t(100), d(50)), t(150));
    }

    #[test]
    fn busy_server_queues_requests() {
        let mut s = FcfsServer::new();
        assert_eq!(s.serve(t(0), d(100)), t(100));
        // Arrives while busy: waits until 100.
        assert_eq!(s.serve(t(10), d(30)), t(130));
        // Arrives after the backlog clears.
        assert_eq!(s.serve(t(500), d(10)), t(510));
        assert_eq!(s.served(), 3);
    }
}
