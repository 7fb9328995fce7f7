//! Client populations.
//!
//! The controlled experiments of Section 7 use closed-loop clients:
//! "clients continuously send queries to the ActYP service".  Production
//! load is better described by an open arrival process.  Both are provided;
//! they generate *arrival plans* (per-client request counts and, for open
//! arrivals, absolute submission times) that the simulation and the live
//! examples consume.

use actyp_simnet::{Rng, SimDuration, SimTime};

/// How requests arrive at the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Closed loop: each client issues its next request as soon as the
    /// previous reply arrives, plus an optional think time.
    ClosedLoop {
        /// Think time between reply and next request.
        think_time: SimDuration,
    },
    /// Open arrivals: requests arrive according to a Poisson process with
    /// the given rate, independent of response times.
    Poisson {
        /// Mean arrivals per second.
        rate_per_second: f64,
    },
}

/// A population of clients and its arrival behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientPopulation {
    /// Number of clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Arrival behaviour.
    pub arrivals: ArrivalProcess,
}

impl ClientPopulation {
    /// The paper's controlled-experiment population: closed-loop clients
    /// with negligible think time.
    // lint-allow(reach): tests/workload_generators.rs builds it
    pub fn closed_loop(clients: usize, requests_per_client: usize) -> Self {
        ClientPopulation {
            clients,
            requests_per_client,
            arrivals: ArrivalProcess::ClosedLoop {
                think_time: SimDuration::from_millis(5),
            },
        }
    }

    /// An open population submitting at `rate_per_second` in aggregate.
    pub fn open(clients: usize, requests_per_client: usize, rate_per_second: f64) -> Self {
        ClientPopulation {
            clients,
            requests_per_client,
            arrivals: ArrivalProcess::Poisson { rate_per_second },
        }
    }

    /// Total number of requests the population will issue.
    pub fn total_requests(&self) -> usize {
        self.clients * self.requests_per_client
    }

    /// For open arrivals, generates the absolute submission times of every
    /// request (sorted).  Closed-loop populations return only the initial
    /// per-client start jitter, because subsequent arrivals depend on
    /// response times.
    pub fn arrival_times(&self, rng: &mut Rng) -> Vec<SimTime> {
        match &self.arrivals {
            ArrivalProcess::ClosedLoop { .. } => (0..self.clients)
                .map(|_| SimTime::ZERO + SimDuration::from_micros(rng.below(500)))
                .collect(),
            ArrivalProcess::Poisson { rate_per_second } => {
                let mut times = Vec::with_capacity(self.total_requests());
                let mut now = 0.0f64;
                let mean_gap = if *rate_per_second > 0.0 {
                    1.0 / rate_per_second
                } else {
                    1.0
                };
                for _ in 0..self.total_requests() {
                    now += rng.exponential(mean_gap);
                    times.push(SimTime::ZERO + SimDuration::from_secs_f64(now));
                }
                times
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_population_counts() {
        let p = ClientPopulation::closed_loop(16, 25);
        assert_eq!(p.total_requests(), 400);
        let mut rng = Rng::new(1);
        let starts = p.arrival_times(&mut rng);
        assert_eq!(starts.len(), 16);
        assert!(starts.iter().all(|t| t.as_nanos() < 500_000));
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_match_rate() {
        let p = ClientPopulation::open(1, 20_000, 50.0);
        let mut rng = Rng::new(2);
        let times = p.arrival_times(&mut rng);
        assert_eq!(times.len(), 20_000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let span = times.last().unwrap().as_secs_f64();
        let rate = times.len() as f64 / span;
        assert!((rate - 50.0).abs() < 2.0, "observed rate {rate}");
    }

    #[test]
    fn zero_rate_poisson_still_terminates() {
        let p = ClientPopulation::open(1, 10, 0.0);
        let mut rng = Rng::new(3);
        assert_eq!(p.arrival_times(&mut rng).len(), 10);
    }

    #[test]
    fn arrival_generation_is_deterministic() {
        let p = ClientPopulation::open(2, 100, 10.0);
        let a = p.arrival_times(&mut Rng::new(9));
        let b = p.arrival_times(&mut Rng::new(9));
        assert_eq!(a, b);
    }
}
