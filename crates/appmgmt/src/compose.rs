//! Hardware-requirement derivation and query composition.
//!
//! The last two steps of Figure 2: "determine hardware requirements"
//! (architecture, minimum memory, license) and "compose query:
//! f(architecture, memory, I/O, performance, QoS)".  The output is a query
//! in the language of `actyp-query`, ready to be forwarded to the resource
//! management pipeline (event 3 in Figure 1).

use actyp_query::{Constraint, Query, QueryKey};

use crate::knowledge::ToolProfile;
use crate::parse::Invocation;
use crate::perfmodel::ResourceEstimate;

/// The hardware requirements derived for a run.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareRequirements {
    /// Acceptable architectures (one clause alternative per entry).
    pub architectures: Vec<String>,
    /// Minimum installed memory, in megabytes.
    pub min_memory_mb: f64,
    /// License the machine must hold, if any.
    pub license: Option<String>,
    /// Tool group the machine must support.
    pub tool_group: String,
    /// Domain constraint, if the user asked for one.
    pub domain: Option<String>,
}

impl HardwareRequirements {
    /// Derives requirements from the tool profile, the invocation's
    /// preferences and the resource estimate.
    pub fn derive(
        tool: &ToolProfile,
        invocation: &Invocation,
        estimate: &ResourceEstimate,
    ) -> Self {
        let architectures = match &invocation.preferred_arch {
            // A preference narrows the choice if the tool supports it.
            Some(preferred) if tool.architectures.iter().any(|a| a == preferred) => {
                vec![preferred.clone()]
            }
            _ => tool.architectures.clone(),
        };
        // Round the memory requirement up to the next power-of-two-ish step
        // the way administrators list machine memory (128, 256, 512, …).
        let min_memory_mb = estimate.memory_mb.max(tool.base_memory_mb);
        HardwareRequirements {
            architectures,
            min_memory_mb,
            license: tool.license.clone(),
            tool_group: tool.tool_group.clone(),
            domain: invocation.preferred_domain.clone(),
        }
    }
}

/// Composes the ActYP query for a run: hardware requirements become `rsrc`
/// clauses, the resource estimate becomes `appl` clauses, and the user's
/// identity becomes `user` clauses.
pub fn compose_query(
    requirements: &HardwareRequirements,
    estimate: &ResourceEstimate,
    login: &str,
    access_group: &str,
) -> Query {
    let mut query = Query::new();

    if !requirements.architectures.is_empty() {
        query = query.with_alternatives(
            QueryKey::rsrc("arch"),
            requirements
                .architectures
                .iter()
                .map(|a| Constraint::eq(a.as_str()))
                .collect(),
        );
    }
    query = query.with(
        QueryKey::rsrc("memory"),
        Constraint::ge(requirements.min_memory_mb.ceil()),
    );
    if let Some(license) = &requirements.license {
        query = query.with(QueryKey::rsrc("license"), Constraint::eq(license.as_str()));
    }
    if let Some(domain) = &requirements.domain {
        query = query.with(QueryKey::rsrc("domain"), Constraint::eq(domain.as_str()));
    }

    query = query
        .with(
            QueryKey::appl("expectedcpuuse"),
            Constraint::eq(estimate.cpu_seconds.ceil()),
        )
        .with(
            QueryKey::appl("expectedmemoryuse"),
            Constraint::eq(estimate.memory_mb.ceil()),
        )
        .with(
            QueryKey::appl("toolgroup"),
            Constraint::eq(requirements.tool_group.as_str()),
        )
        .with(QueryKey::user("login"), Constraint::eq(login))
        .with(QueryKey::user("accessgroup"), Constraint::eq(access_group));

    query
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeBase;
    use crate::parse::parse_invocation;
    use crate::perfmodel::PerformanceModel;
    use actyp_query::{QuerySchema, Section};

    fn pipeline_for(command: &str) -> (HardwareRequirements, ResourceEstimate) {
        let kb = KnowledgeBase::punch_defaults();
        let inv = parse_invocation(command, &kb).unwrap();
        let tool = kb.tool(&inv.tool).unwrap();
        let algo = tool.select_algorithm(inv.min_accuracy).unwrap().clone();
        let estimate = PerformanceModel::new().estimate(tool, &inv, &algo);
        let requirements = HardwareRequirements::derive(tool, &inv, &estimate);
        (requirements, estimate)
    }

    #[test]
    fn tsuprem4_query_matches_the_paper_shape() {
        let (req, est) = pipeline_for("tsuprem4 gridpoints=2000 steps=500 domain=purdue");
        let query = compose_query(&req, &est, "kapadia", "ece");
        let basic = query.decompose(4).remove(0);
        assert_eq!(
            basic.value(Section::Rsrc, "arch").unwrap().as_str(),
            Some("sun")
        );
        assert!(basic.value(Section::Rsrc, "license").is_some());
        assert_eq!(
            basic.value(Section::Rsrc, "domain").unwrap().as_str(),
            Some("purdue")
        );
        assert_eq!(basic.user_login(), Some("kapadia"));
        assert_eq!(basic.access_group(), Some("ece"));
        assert!(basic.expected_cpu_use().unwrap() > 0.0);
    }

    #[test]
    fn multi_architecture_tools_compose_composite_queries() {
        let (req, est) = pipeline_for("spice nodes=500");
        assert!(req.architectures.len() > 1);
        let query = compose_query(&req, &est, "royo", "upc");
        assert!(query.decomposition_size() > 1);
        assert_eq!(query.decomposition_size(), req.architectures.len());
    }

    #[test]
    fn architecture_preference_narrows_the_query() {
        let (req, est) = pipeline_for("spice nodes=500 arch=hp");
        assert_eq!(req.architectures, vec!["hp".to_string()]);
        let query = compose_query(&req, &est, "royo", "upc");
        assert_eq!(query.decomposition_size(), 1);
    }

    #[test]
    fn unsupported_preference_falls_back_to_tool_architectures() {
        let (req, _) = pipeline_for("tsuprem4 gridpoints=100 arch=linux");
        assert_eq!(req.architectures, vec!["sun".to_string()]);
    }

    #[test]
    fn memory_requirement_covers_the_estimate() {
        let (req, est) = pipeline_for("carrier-transport carriers=200000 gridnodes=10000");
        assert!(req.min_memory_mb >= est.memory_mb);
    }

    #[test]
    fn composed_queries_validate_against_the_punch_schema() {
        let schema = QuerySchema::punch_default();
        let (req, est) = pipeline_for("minimos devicesize=3 accuracy=0.9 domain=purdue");
        let query = compose_query(&req, &est, "diaz", "upc");
        assert!(schema.validate(&query).is_empty());
    }
}
