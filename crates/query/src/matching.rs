//! Matching queries against machine records.
//!
//! Resource pools aggregate the machines that satisfy the `rsrc` constraints
//! encoded in their name, and the final selection step must respect user- and
//! policy-level access control.  Two checks are exposed:
//!
//! * [`matches_machine`] — does a machine satisfy every `rsrc` constraint of
//!   a basic query?  Missing query keys default to "don't care" (the schema
//!   rule from Section 5.1); a constraint on an attribute the machine does
//!   not define fails unless the operator is `!=`.
//! * [`admits_user`] — is the requesting user (login + access group) allowed
//!   on the machine, according to the machine's user-group list and usage
//!   policy?

use std::borrow::Cow;

use actyp_grid::{AttrValue, Builtin, Machine};

use crate::ast::{BasicClause, BasicQuery, CmpOp};

/// The result of evaluating one clause, used by diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome<'q> {
    /// Every constraint held.
    Matched,
    /// A constraint failed; carries the offending key.
    Failed(&'q str),
}

impl MatchOutcome<'_> {
    /// Whether the outcome is a match.
    pub fn is_match(&self) -> bool {
        matches!(self, MatchOutcome::Matched)
    }
}

/// A machine's side of a comparison, read in place.
#[derive(Clone, Copy)]
enum Side<'m> {
    Text(&'m str),
    Value(&'m AttrValue),
}

/// A query value as the text it compares by: a string as it stands (every
/// text comparison ignores ASCII case), any other value's canonical text.
fn query_text(value: &AttrValue) -> Cow<'_, str> {
    value
        .as_str()
        .map_or_else(|| value.canonical().into(), Cow::Borrowed)
}

/// Canonical text's bytes, read in place: a string's lowercased.
fn canonical_bytes(text: &str, is_str: bool) -> impl Iterator<Item = u8> + '_ {
    text.bytes()
        .map(move |c| if is_str { c.to_ascii_lowercase() } else { c })
}

fn compare(op: CmpOp, machine: Side<'_>, query_value: &AttrValue) -> bool {
    // Numeric comparison when both sides have a numeric view.
    let machine_num = match machine {
        Side::Text(s) => s.trim().parse().ok(),
        Side::Value(v) => v.as_num(),
    };
    if let (Some(m), Some(q)) = (machine_num, query_value.as_num()) {
        let ordering = m.partial_cmp(&q).unwrap_or(std::cmp::Ordering::Equal);
        return op.evaluate_ordering(ordering);
    }
    // Otherwise string/list semantics: equality means "contains" for lists
    // so that `cms = sge` matches a machine advertising `cms=sge,pbs,condor`.
    let query = query_text(query_value);
    let contains = || match machine {
        Side::Text(s) => s.eq_ignore_ascii_case(&query),
        Side::Value(v) => v.contains(&query),
    };
    match op {
        CmpOp::Eq => contains(),
        CmpOp::Ne => !contains(),
        // Ordered comparison on canonical text as a last resort.
        _ => {
            let query = canonical_bytes(&query, matches!(query_value, AttrValue::Str(_)));
            op.evaluate_ordering(match machine {
                Side::Text(s) => canonical_bytes(s, true).cmp(query),
                Side::Value(v) => v.canonical().bytes().cmp(query),
            })
        }
    }
}

fn clause_matches(clause: &BasicClause, machine: &Machine) -> bool {
    let key = clause.key.name.as_str();
    let (op, value) = (clause.constraint.op, &clause.constraint.value);
    // `license` constraints ask whether the machine can run the named tool;
    // the tool-group list (field 17) is authoritative for that.
    if key == "license" || key == "tool" || key == "toolgroup" {
        let supported = machine.supports_tool_group(&query_text(value));
        return match op {
            CmpOp::Ne => !supported,
            _ => supported,
        };
    }
    let side = match machine.param(key) {
        Some(AttrValue::Str(s)) => Side::Text(s),
        Some(v) => Side::Value(v),
        None => match machine.builtin(key) {
            Some(Builtin::Text(s)) => Side::Text(s),
            Some(Builtin::Num(n)) => return compare(op, Side::Value(&AttrValue::Num(n)), value),
            // The machine does not define the attribute: only a `!=`
            // constraint can be satisfied ("not equal to something it
            // doesn't have").
            None => return op == CmpOp::Ne,
        },
    };
    compare(op, side, value)
}

/// Evaluates every `rsrc` constraint of `query` against `machine`.
pub fn matches_machine<'q>(query: &'q BasicQuery, machine: &Machine) -> MatchOutcome<'q> {
    for clause in query.rsrc_clauses() {
        if !clause_matches(clause, machine) {
            return MatchOutcome::Failed(&clause.key.name);
        }
    }
    MatchOutcome::Matched
}

/// Checks user-level access: the machine's user-group list (field 16) and its
/// usage policy (field 19) must both admit the requesting user.
pub fn admits_user(query: &BasicQuery, machine: &Machine, hour_of_day: u8) -> bool {
    let group = query.access_group().unwrap_or("public");
    let login = query.user_login().unwrap_or("anonymous");
    if !machine.allows_user_group(group) {
        return false;
    }
    let ctx = actyp_grid::policy::PolicyContext {
        user_group: group,
        user_login: login,
        current_load: machine.dynamic.current_load,
        hour_of_day,
    };
    machine.usage_policy.admits(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Constraint, Query, QueryKey};
    use actyp_grid::{MachineId, UsagePolicy};

    fn sun_machine() -> Machine {
        let mut m = Machine::new(MachineId(1), "sun01.purdue.edu")
            .with_param("arch", "sun")
            .with_param("memory", 512u64)
            .with_param("domain", "purdue")
            .with_param("cms", AttrValue::list(["sge", "pbs"]))
            .with_user_groups(["ece"])
            .with_tool_groups(["tsuprem4", "spice"]);
        m.dynamic.current_load = 0.5;
        m
    }

    fn basic(q: Query) -> BasicQuery {
        q.decompose(1).remove(0)
    }

    #[test]
    fn paper_query_matches_suitable_machine() {
        let q = basic(Query::paper_example());
        assert!(matches_machine(&q, &sun_machine()).is_match());
    }

    #[test]
    fn architecture_mismatch_fails_with_key() {
        let q = basic(Query::new().with(QueryKey::rsrc("arch"), Constraint::eq("hp")));
        assert_eq!(
            matches_machine(&q, &sun_machine()),
            MatchOutcome::Failed("arch")
        );
    }

    #[test]
    fn numeric_threshold_constraints() {
        let m = sun_machine();
        let ge_ok = basic(Query::new().with(QueryKey::rsrc("memory"), Constraint::ge(256u64)));
        let ge_fail = basic(Query::new().with(QueryKey::rsrc("memory"), Constraint::ge(1024u64)));
        let lt_ok = basic(Query::new().with(
            QueryKey::rsrc("memory"),
            Constraint::new(CmpOp::Lt, 1024u64),
        ));
        assert!(matches_machine(&ge_ok, &m).is_match());
        assert!(!matches_machine(&ge_fail, &m).is_match());
        assert!(matches_machine(&lt_ok, &m).is_match());
    }

    #[test]
    fn license_constraint_checks_tool_groups() {
        let m = sun_machine();
        let has = basic(Query::new().with(QueryKey::rsrc("license"), Constraint::eq("spice")));
        let lacks = basic(Query::new().with(QueryKey::rsrc("license"), Constraint::eq("matlab")));
        let negated = basic(Query::new().with(
            QueryKey::rsrc("license"),
            Constraint::new(CmpOp::Ne, "matlab"),
        ));
        assert!(matches_machine(&has, &m).is_match());
        assert!(!matches_machine(&lacks, &m).is_match());
        assert!(matches_machine(&negated, &m).is_match());
    }

    #[test]
    fn list_attributes_match_by_membership() {
        let m = sun_machine();
        let q = basic(Query::new().with(QueryKey::rsrc("cms"), Constraint::eq("sge")));
        assert!(matches_machine(&q, &m).is_match());
        let q2 = basic(Query::new().with(QueryKey::rsrc("cms"), Constraint::eq("condor")));
        assert!(!matches_machine(&q2, &m).is_match());
    }

    #[test]
    fn missing_attribute_only_satisfies_not_equal() {
        let m = sun_machine();
        let eq = basic(Query::new().with(QueryKey::rsrc("gpu"), Constraint::eq("a100")));
        let ne =
            basic(Query::new().with(QueryKey::rsrc("gpu"), Constraint::new(CmpOp::Ne, "a100")));
        assert!(!matches_machine(&eq, &m).is_match());
        assert!(matches_machine(&ne, &m).is_match());
    }

    #[test]
    fn dynamic_load_attribute_is_comparable() {
        let mut m = sun_machine();
        m.dynamic.current_load = 3.0;
        let idle =
            basic(Query::new().with(QueryKey::rsrc("load"), Constraint::new(CmpOp::Lt, 1u64)));
        assert!(!matches_machine(&idle, &m).is_match());
        m.dynamic.current_load = 0.2;
        assert!(matches_machine(&idle, &m).is_match());
    }

    #[test]
    fn empty_query_matches_everything() {
        let q = basic(Query::new());
        assert!(matches_machine(&q, &sun_machine()).is_match());
    }

    #[test]
    fn string_comparison_is_case_insensitive() {
        let q = basic(Query::new().with(QueryKey::rsrc("arch"), Constraint::eq("SUN")));
        assert!(matches_machine(&q, &sun_machine()).is_match());
    }

    #[test]
    fn user_admission_checks_group_list() {
        let q = basic(Query::paper_example()); // accessgroup = ece
        assert!(admits_user(&q, &sun_machine(), 12));

        let mut outsider = Query::paper_example();
        // Replace the access group with one the machine doesn't allow.
        outsider.clauses.retain(|c| c.key.name != "accessgroup");
        let outsider =
            basic(outsider.with(QueryKey::user("accessgroup"), Constraint::eq("physics")));
        assert!(!admits_user(&outsider, &sun_machine(), 12));
    }

    #[test]
    fn user_admission_checks_usage_policy() {
        let q = basic(Query::paper_example());
        let mut m = sun_machine().with_policy(UsagePolicy::LoadBelow(0.1));
        m.dynamic.current_load = 0.5;
        assert!(!admits_user(&q, &m, 12));
        m.dynamic.current_load = 0.05;
        assert!(admits_user(&q, &m, 12));
    }

    #[test]
    fn anonymous_queries_default_to_public_group() {
        let q = basic(Query::new().with(QueryKey::rsrc("arch"), Constraint::eq("sun")));
        // Machine only allows "ece", so an anonymous (public) user is denied.
        assert!(!admits_user(&q, &sun_machine(), 0));
        // A machine with an open group list admits anyone.
        let open = Machine::new(MachineId(9), "open").with_param("arch", "sun");
        assert!(admits_user(&q, &open, 0));
    }
}
