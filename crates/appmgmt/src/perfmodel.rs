//! Run-time and memory prediction.
//!
//! Figure 2's "qualify extracted information" step turns the raw input
//! parameters into `cpuUnits = f(parameters)` and `memReqd = g(parameters)`.
//! The production PUNCH system used a learning-based performance-modelling
//! service (Kapadia, Brodley, Fortes & Lundstrom); here the model is the
//! linear-in-parameters form those papers start from: a per-tool baseline
//! plus a weighted contribution per parameter, scaled by the cost factor of
//! the selected algorithm.  CPU estimates are expressed in seconds on the
//! reference machine, matching the query protocol's assumption of a
//! reference machine for time-related estimates.

use crate::knowledge::{Algorithm, ToolProfile};
use crate::parse::Invocation;

/// Predicted resource usage for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEstimate {
    /// Predicted CPU time in reference-machine seconds.
    pub cpu_seconds: f64,
    /// Predicted memory footprint in megabytes.
    pub memory_mb: f64,
    /// The algorithm the estimate assumes.
    pub algorithm: String,
}

/// The performance model.
#[derive(Debug, Clone, Default)]
pub struct PerformanceModel {
    /// Multiplicative calibration factor applied to CPU estimates (updated
    /// from observed runs; 1.0 when uncalibrated).
    pub cpu_calibration: f64,
    /// Multiplicative calibration factor applied to memory estimates.
    pub memory_calibration: f64,
    observations: u64,
}

impl PerformanceModel {
    /// An uncalibrated model.
    pub fn new() -> Self {
        PerformanceModel {
            cpu_calibration: 1.0,
            memory_calibration: 1.0,
            observations: 0,
        }
    }

    /// Predicts resource usage for an invocation of `tool` using
    /// `algorithm`.
    pub fn estimate(
        &self,
        tool: &ToolProfile,
        invocation: &Invocation,
        algorithm: &Algorithm,
    ) -> ResourceEstimate {
        let mut cpu = tool.base_cpu_seconds;
        let mut memory = tool.base_memory_mb;
        for spec in &tool.parameters {
            let value = invocation
                .parameters
                .get(&spec.name)
                .copied()
                .unwrap_or(spec.default);
            cpu += spec.cpu_weight * value;
            memory += spec.memory_weight * value;
        }
        cpu *= algorithm.cost_factor;
        ResourceEstimate {
            cpu_seconds: (cpu * self.cpu_calibration).max(0.0),
            memory_mb: (memory * self.memory_calibration).max(1.0),
            algorithm: algorithm.name.clone(),
        }
    }

    /// Folds an observed run into the calibration: a simple exponential
    /// moving average of the observed/predicted ratios, the on-line
    /// correction the production service applied between full re-trainings.
    pub fn observe(&mut self, predicted: &ResourceEstimate, actual_cpu: f64, actual_memory: f64) {
        const ALPHA: f64 = 0.2;
        if predicted.cpu_seconds > 0.0 && actual_cpu > 0.0 {
            let ratio = actual_cpu / predicted.cpu_seconds;
            self.cpu_calibration =
                (1.0 - ALPHA) * self.cpu_calibration + ALPHA * ratio * self.cpu_calibration;
        }
        if predicted.memory_mb > 0.0 && actual_memory > 0.0 {
            let ratio = actual_memory / predicted.memory_mb;
            self.memory_calibration =
                (1.0 - ALPHA) * self.memory_calibration + ALPHA * ratio * self.memory_calibration;
        }
        self.observations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeBase;
    use crate::parse::parse_invocation;

    fn setup(command: &str) -> (ToolProfile, Invocation) {
        let kb = KnowledgeBase::punch_defaults();
        let inv = parse_invocation(command, &kb).unwrap();
        let tool = kb.tool(&inv.tool).unwrap().clone();
        (tool, inv)
    }

    #[test]
    fn estimates_scale_with_parameters() {
        let model = PerformanceModel::new();
        let (tool, small) = setup("carrier-transport carriers=10000 gridnodes=1000");
        let (_, large) = setup("carrier-transport carriers=100000 gridnodes=5000");
        let algo = tool.select_algorithm(0.0).unwrap().clone();
        let small_est = model.estimate(&tool, &small, &algo);
        let large_est = model.estimate(&tool, &large, &algo);
        assert!(large_est.cpu_seconds > small_est.cpu_seconds);
        assert!(large_est.memory_mb > small_est.memory_mb);
    }

    #[test]
    fn expensive_algorithms_multiply_cpu_cost() {
        let model = PerformanceModel::new();
        let (tool, inv) = setup("minimos devicesize=2");
        let cheap = tool.select_algorithm(0.5).unwrap().clone();
        let pricey = tool.select_algorithm(0.95).unwrap().clone();
        let cheap_est = model.estimate(&tool, &inv, &cheap);
        let pricey_est = model.estimate(&tool, &inv, &pricey);
        assert!(pricey_est.cpu_seconds > cheap_est.cpu_seconds * 10.0);
        assert_eq!(pricey_est.algorithm, "monte-carlo");
    }

    #[test]
    fn calibration_moves_toward_observations() {
        let mut model = PerformanceModel::new();
        let (tool, inv) = setup("spice nodes=1000 timesteps=10000");
        let algo = tool.select_algorithm(0.0).unwrap().clone();
        let first = model.estimate(&tool, &inv, &algo);
        // The tool consistently takes twice as long as predicted.
        for _ in 0..20 {
            let predicted = model.estimate(&tool, &inv, &algo);
            model.observe(&predicted, predicted.cpu_seconds * 2.0, predicted.memory_mb);
        }
        let later = model.estimate(&tool, &inv, &algo);
        assert!(later.cpu_seconds > first.cpu_seconds * 1.5);
        assert_eq!(model.observations, 20);
    }

    #[test]
    fn estimates_never_go_negative_or_zero_memory() {
        let model = PerformanceModel {
            cpu_calibration: 0.0,
            memory_calibration: 0.0,
            ..PerformanceModel::new()
        };
        let (tool, inv) = setup("spice nodes=10");
        let algo = tool.algorithms[0].clone();
        let est = model.estimate(&tool, &inv, &algo);
        assert!(est.cpu_seconds >= 0.0);
        assert!(est.memory_mb >= 1.0);
    }
}
