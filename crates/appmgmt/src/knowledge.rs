//! The tool knowledge base.
//!
//! PUNCH offered access to more than 70 engineering applications; for each
//! one the application-management component knows which input parameters are
//! relevant to scheduling, which algorithms the tool can use, and which
//! architectures and licenses it needs.  The knowledge base here carries
//! exactly the information Figure 2's steps consume.

use std::collections::BTreeMap;

/// A parameter of a tool that is relevant to resource estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterSpec {
    /// Parameter name as it appears on the command line (e.g. `carriers`).
    pub name: String,
    /// Default value used when the user does not supply one.
    pub default: f64,
    /// Weight of the parameter in the CPU-time model (see
    /// [`crate::perfmodel`]).
    pub cpu_weight: f64,
    /// Weight of the parameter in the memory model.
    pub memory_weight: f64,
}

impl ParameterSpec {
    /// Convenience constructor.
    pub fn new(name: &str, default: f64, cpu_weight: f64, memory_weight: f64) -> Self {
        ParameterSpec {
            name: name.to_string(),
            default,
            cpu_weight,
            memory_weight,
        }
    }
}

/// An algorithm a tool can use, with its cost multiplier and accuracy rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Algorithm {
    /// Algorithm name (e.g. `monte-carlo`, `drift-diffusion`).
    pub name: String,
    /// Relative CPU cost compared to the tool's cheapest algorithm.
    pub cost_factor: f64,
    /// Relative solution quality (higher is better); used for ranking.
    pub accuracy: f64,
}

impl Algorithm {
    /// Convenience constructor.
    pub fn new(name: &str, cost_factor: f64, accuracy: f64) -> Self {
        Algorithm {
            name: name.to_string(),
            cost_factor,
            accuracy,
        }
    }
}

/// Everything the application manager knows about one tool.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolProfile {
    /// Tool name (e.g. `tsuprem4`).
    pub name: String,
    /// Tool group the machine must support (field 17 of the database).
    pub tool_group: String,
    /// License key required on the machine, if any.
    pub license: Option<String>,
    /// Architectures the tool's binaries exist for.
    pub architectures: Vec<String>,
    /// Scheduling-relevant parameters.
    pub parameters: Vec<ParameterSpec>,
    /// Algorithms the tool offers.
    pub algorithms: Vec<Algorithm>,
    /// Baseline CPU seconds on the reference machine for a trivial run.
    pub base_cpu_seconds: f64,
    /// Baseline memory footprint in megabytes.
    pub base_memory_mb: f64,
}

impl ToolProfile {
    /// Looks up a parameter by name.
    pub fn parameter(&self, name: &str) -> Option<&ParameterSpec> {
        self.parameters.iter().find(|p| p.name == name)
    }

    /// Ranks the tool's algorithms for a given accuracy requirement: the
    /// cheapest algorithm whose accuracy meets the requirement, falling back
    /// to the most accurate one (Figure 2's "rank algorithms" step).
    pub fn select_algorithm(&self, min_accuracy: f64) -> Option<&Algorithm> {
        let mut feasible: Vec<&Algorithm> = self
            .algorithms
            .iter()
            .filter(|a| a.accuracy >= min_accuracy)
            .collect();
        if feasible.is_empty() {
            return self
                .algorithms
                .iter()
                .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy));
        }
        feasible.sort_by(|a, b| a.cost_factor.total_cmp(&b.cost_factor));
        feasible.first().copied()
    }
}

/// The knowledge base: tool profiles keyed by tool name.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    tools: BTreeMap<String, ToolProfile>,
}

impl KnowledgeBase {
    /// An empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a tool profile.
    pub fn register(&mut self, tool: ToolProfile) {
        self.tools.insert(tool.name.clone(), tool);
    }

    /// Looks up a tool by name.
    pub fn tool(&self, name: &str) -> Option<&ToolProfile> {
        self.tools.get(name)
    }

    /// Number of registered tools.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// Whether the knowledge base is empty.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }

    /// A knowledge base pre-loaded with the semiconductor-engineering tools
    /// the paper's examples revolve around (T-SUPREM4, SPICE, MINIMOS and a
    /// carrier-transport simulator).
    pub fn punch_defaults() -> Self {
        let mut kb = KnowledgeBase::new();
        kb.register(ToolProfile {
            name: "tsuprem4".to_string(),
            tool_group: "tsuprem4".to_string(),
            license: Some("tsuprem4".to_string()),
            architectures: vec!["sun".to_string()],
            parameters: vec![
                ParameterSpec::new("gridpoints", 500.0, 0.004, 0.02),
                ParameterSpec::new("steps", 100.0, 0.01, 0.0),
            ],
            algorithms: vec![
                Algorithm::new("full-coupled", 2.0, 0.95),
                Algorithm::new("decoupled", 1.0, 0.7),
            ],
            base_cpu_seconds: 5.0,
            base_memory_mb: 32.0,
        });
        kb.register(ToolProfile {
            name: "spice".to_string(),
            tool_group: "spice".to_string(),
            license: None,
            architectures: vec!["sun".to_string(), "hp".to_string(), "linux".to_string()],
            parameters: vec![
                ParameterSpec::new("nodes", 200.0, 0.002, 0.01),
                ParameterSpec::new("timesteps", 1000.0, 0.001, 0.0),
            ],
            algorithms: vec![
                Algorithm::new("transient", 1.0, 0.8),
                Algorithm::new("harmonic-balance", 3.0, 0.9),
            ],
            base_cpu_seconds: 1.0,
            base_memory_mb: 16.0,
        });
        kb.register(ToolProfile {
            name: "minimos".to_string(),
            tool_group: "minimos".to_string(),
            license: None,
            architectures: vec!["sun".to_string(), "hp".to_string()],
            parameters: vec![ParameterSpec::new("devicesize", 1.0, 50.0, 10.0)],
            algorithms: vec![
                Algorithm::new("drift-diffusion", 1.0, 0.6),
                Algorithm::new("hydro-dynamic", 4.0, 0.85),
                Algorithm::new("monte-carlo", 20.0, 0.99),
            ],
            base_cpu_seconds: 10.0,
            base_memory_mb: 64.0,
        });
        kb.register(ToolProfile {
            name: "carrier-transport".to_string(),
            tool_group: "minimos".to_string(),
            license: None,
            architectures: vec!["sun".to_string()],
            parameters: vec![
                ParameterSpec::new("carriers", 10_000.0, 0.0008, 0.004),
                ParameterSpec::new("gridnodes", 1_000.0, 0.003, 0.03),
                ParameterSpec::new("convergence", 1e-6, 0.0, 0.0),
            ],
            algorithms: vec![
                Algorithm::new("drift-diffusion", 1.0, 0.6),
                Algorithm::new("hydro-dynamic", 4.0, 0.85),
                Algorithm::new("monte-carlo", 20.0, 0.99),
            ],
            base_cpu_seconds: 20.0,
            base_memory_mb: 48.0,
        });
        kb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_contain_the_paper_tools() {
        let kb = KnowledgeBase::punch_defaults();
        assert!(kb.len() >= 4);
        assert!(kb.tool("tsuprem4").is_some());
        assert!(kb.tool("carrier-transport").is_some());
        assert!(kb.tool("nonexistent").is_none());
        assert!(!kb.is_empty());
        assert!(kb.tool("spice").is_some());
    }

    #[test]
    fn parameter_lookup() {
        let kb = KnowledgeBase::punch_defaults();
        let tool = kb.tool("carrier-transport").unwrap();
        assert!(tool.parameter("carriers").is_some());
        assert!(tool.parameter("bogus").is_none());
    }

    #[test]
    fn algorithm_selection_prefers_cheapest_sufficient() {
        let kb = KnowledgeBase::punch_defaults();
        let tool = kb.tool("minimos").unwrap();
        // Low accuracy requirement: the cheap drift-diffusion wins.
        assert_eq!(tool.select_algorithm(0.5).unwrap().name, "drift-diffusion");
        // Higher requirement: hydro-dynamic is the cheapest that qualifies.
        assert_eq!(tool.select_algorithm(0.8).unwrap().name, "hydro-dynamic");
        // Very high requirement: only monte-carlo qualifies.
        assert_eq!(tool.select_algorithm(0.95).unwrap().name, "monte-carlo");
    }

    #[test]
    fn impossible_accuracy_falls_back_to_most_accurate() {
        let kb = KnowledgeBase::punch_defaults();
        let tool = kb.tool("minimos").unwrap();
        assert_eq!(tool.select_algorithm(1.5).unwrap().name, "monte-carlo");
    }

    #[test]
    fn registration_replaces_existing_profiles() {
        let mut kb = KnowledgeBase::punch_defaults();
        let mut tool = kb.tool("spice").unwrap().clone();
        tool.base_cpu_seconds = 99.0;
        kb.register(tool);
        assert_eq!(kb.tool("spice").unwrap().base_cpu_seconds, 99.0);
        assert_eq!(
            kb.len(),
            KnowledgeBase::punch_defaults().len(),
            "replacement must not grow the knowledge base"
        );
    }
}
