//! Network latency models for the LAN and WAN experiment configurations.
//!
//! The paper runs the same experiments in two configurations: everything in a
//! local-area network at Purdue, and a wide-area configuration with clients
//! at Purdue and the ActYP service at UPC in Barcelona.  The only difference
//! the pipeline sees is the message latency between stages, so the network
//! model is a per-hop latency sampler plus an optional per-byte transmission
//! cost.

use crate::rng::Rng;
use crate::time::SimDuration;

/// A class of link between two pipeline components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkProfile {
    /// Both endpoints on the same host (pipe / loopback).
    Local,
    /// Campus local-area network.
    Lan,
    /// Wide-area (trans-Atlantic in the paper's experiment).
    Wan,
}

/// Something that can sample a one-way message latency.
pub trait LatencyModel {
    /// Samples the one-way latency for a message of `bytes` bytes.
    fn sample(&self, rng: &mut Rng, bytes: usize) -> SimDuration;

    /// The mean one-way latency for a small message, used for reporting.
    fn nominal(&self) -> SimDuration;
}

/// A latency model with a fixed base latency, uniform jitter, and a
/// per-megabyte transmission cost.
#[derive(Debug, Clone)]
pub struct JitteredLatency {
    /// Base one-way latency.
    pub base: SimDuration,
    /// Maximum additional uniform jitter.
    pub jitter: SimDuration,
    /// Seconds per megabyte of payload (1 / bandwidth).
    pub secs_per_mb: f64,
}

impl JitteredLatency {
    /// A new model from base latency, jitter bound and bandwidth in MB/s.
    pub fn new(base: SimDuration, jitter: SimDuration, bandwidth_mb_s: f64) -> Self {
        JitteredLatency {
            base,
            jitter,
            secs_per_mb: if bandwidth_mb_s > 0.0 {
                1.0 / bandwidth_mb_s
            } else {
                0.0
            },
        }
    }
}

impl LatencyModel for JitteredLatency {
    fn sample(&self, rng: &mut Rng, bytes: usize) -> SimDuration {
        let jitter = SimDuration::from_nanos(rng.below(self.jitter.as_nanos().max(1)));
        let tx = SimDuration::from_secs_f64(bytes as f64 / 1e6 * self.secs_per_mb);
        self.base + jitter + tx
    }

    fn nominal(&self) -> SimDuration {
        self.base + self.jitter / 2
    }
}

/// The network model used by the pipeline simulation: a latency profile per
/// link class.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    local: JitteredLatency,
    lan: JitteredLatency,
    wan: JitteredLatency,
}

impl NetworkModel {
    /// A model in which every hop is a LAN hop (the paper's Figure 4/6/7/8
    /// configuration): ~0.2 ms base latency on a 100 Mbit/s campus network.
    pub fn lan() -> Self {
        NetworkModel {
            local: JitteredLatency::new(
                SimDuration::from_micros(15),
                SimDuration::from_micros(10),
                800.0,
            ),
            lan: JitteredLatency::new(
                SimDuration::from_micros(200),
                SimDuration::from_micros(100),
                12.0,
            ),
            wan: JitteredLatency::new(
                SimDuration::from_micros(200),
                SimDuration::from_micros(100),
                12.0,
            ),
        }
    }

    /// A model for the paper's Figure 5 configuration: the client-to-service
    /// hop crosses a wide-area link (Purdue to Barcelona, ~60 ms one way),
    /// while hops inside the service remain on the LAN.
    pub fn wan() -> Self {
        NetworkModel {
            wan: JitteredLatency::new(
                SimDuration::from_millis(60),
                SimDuration::from_millis(8),
                1.5,
            ),
            ..Self::lan()
        }
    }

    /// Samples a one-way latency on the given link class.
    pub fn latency(&self, profile: LinkProfile, rng: &mut Rng, bytes: usize) -> SimDuration {
        match profile {
            LinkProfile::Local => self.local.sample(rng, bytes),
            LinkProfile::Lan => self.lan.sample(rng, bytes),
            LinkProfile::Wan => self.wan.sample(rng, bytes),
        }
    }

    /// Nominal (mean) latency for a small message on the given link class.
    pub fn nominal(&self, profile: LinkProfile) -> SimDuration {
        match profile {
            LinkProfile::Local => self.local.nominal(),
            LinkProfile::Lan => self.lan.nominal(),
            LinkProfile::Wan => self.wan.nominal(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_latency_dominates_lan() {
        let mut rng = Rng::new(1);
        let model = NetworkModel::wan();
        let wan = model.latency(LinkProfile::Wan, &mut rng, 512);
        let lan = model.latency(LinkProfile::Lan, &mut rng, 512);
        assert!(wan > lan * 10u64, "wan {wan} should dwarf lan {lan}");
    }

    #[test]
    fn lan_model_treats_wan_links_as_lan() {
        let model = NetworkModel::lan();
        assert_eq!(
            model.nominal(LinkProfile::Wan),
            model.nominal(LinkProfile::Lan)
        );
    }

    #[test]
    fn latency_includes_transmission_time() {
        let mut rng = Rng::new(2);
        let profile = JitteredLatency::new(SimDuration::from_micros(100), SimDuration::ZERO, 10.0);
        let small = profile.sample(&mut rng, 0);
        let big = profile.sample(&mut rng, 10_000_000); // 10 MB at 10 MB/s = 1 s
        assert!(big.as_secs_f64() - small.as_secs_f64() > 0.9);
    }

    #[test]
    fn jitter_stays_within_bound() {
        let mut rng = Rng::new(3);
        let base = SimDuration::from_micros(200);
        let jitter = SimDuration::from_micros(100);
        let profile = JitteredLatency::new(base, jitter, 0.0);
        for _ in 0..1000 {
            let l = profile.sample(&mut rng, 0);
            assert!(l >= base && l < base + jitter);
        }
    }

    #[test]
    fn zero_bandwidth_means_no_transmission_cost() {
        let mut rng = Rng::new(4);
        let profile = JitteredLatency::new(SimDuration::from_micros(50), SimDuration::ZERO, 0.0);
        assert_eq!(
            profile.sample(&mut rng, 1_000_000),
            SimDuration::from_micros(50)
        );
    }

    #[test]
    fn nominal_is_base_plus_half_jitter() {
        let profile = JitteredLatency::new(
            SimDuration::from_micros(100),
            SimDuration::from_micros(50),
            1.0,
        );
        assert_eq!(profile.nominal(), SimDuration::from_micros(125));
    }

    #[test]
    fn local_links_are_cheapest() {
        let model = NetworkModel::lan();
        assert!(model.nominal(LinkProfile::Local) < model.nominal(LinkProfile::Lan));
    }
}
