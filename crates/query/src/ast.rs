//! Abstract syntax of the query language.
//!
//! A [`Query`] is a conjunction of [`Clause`]s.  Each clause constrains one
//! key; a clause whose value offers several alternatives (an "or" clause,
//! e.g. `arch = sun | hp`) makes the query *composite*.  Composite queries
//! are decomposed by query managers into [`BasicQuery`]s — one per
//! combination of alternatives — that travel through the pipeline
//! independently and are re-integrated at the end.

use std::fmt;

use actyp_grid::AttrValue;

/// The section of the hierarchical namespace a key belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// Resource requirements (`punch.rsrc.*`): matched against machines.
    Rsrc,
    /// Predicted application behaviour (`punch.appl.*`).
    Appl,
    /// User-specific data (`punch.user.*`).
    User,
}

impl Section {
    /// The lower-case token used in the textual form.
    pub fn token(self) -> &'static str {
        match self {
            Section::Rsrc => "rsrc",
            Section::Appl => "appl",
            Section::User => "user",
        }
    }

    /// Parses a section token.
    pub fn parse(token: &str) -> Option<Section> {
        match token.to_ascii_lowercase().as_str() {
            "rsrc" => Some(Section::Rsrc),
            "appl" => Some(Section::Appl),
            "user" => Some(Section::User),
            _ => None,
        }
    }
}

/// A fully qualified key: `family.section.name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Protocol family (the paper implements `punch`; other families allow
    /// the pipeline to carry other semantics, e.g. translated ClassAds).
    pub family: String,
    /// Namespace section.
    pub section: Section,
    /// Final key name (`arch`, `memory`, `expectedcpuuse`, `login`, …).
    pub name: String,
}

impl QueryKey {
    /// Builds a key in the `punch` family.
    pub fn punch(section: Section, name: impl Into<String>) -> Self {
        QueryKey {
            family: "punch".to_string(),
            section,
            name: name.into().to_ascii_lowercase(),
        }
    }

    /// Builds a `punch.rsrc.*` key.
    pub fn rsrc(name: impl Into<String>) -> Self {
        Self::punch(Section::Rsrc, name)
    }

    /// Builds a `punch.appl.*` key.
    pub fn appl(name: impl Into<String>) -> Self {
        Self::punch(Section::Appl, name)
    }

    /// Builds a `punch.user.*` key.
    pub fn user(name: impl Into<String>) -> Self {
        Self::punch(Section::User, name)
    }
}

impl fmt::Display for QueryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.family, self.section.token(), self.name)
    }
}

/// Comparison operators supported for `rsrc` constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality (the default when no operator prefix is written).
    Eq,
    /// Inequality.
    Ne,
    /// Greater-or-equal.
    Ge,
    /// Less-or-equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Strictly less.
    Lt,
}

impl CmpOp {
    /// Symbol used in pool signatures (the paper writes `==`, `>=`, …).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Lt => "<",
        }
    }

    /// Strips a leading operator from a value token, returning the operator
    /// and the remainder.  No prefix means equality.
    pub fn strip_prefix(token: &str) -> (CmpOp, &str) {
        let t = token.trim();
        for (prefix, op) in [
            (">=", CmpOp::Ge),
            ("<=", CmpOp::Le),
            ("!=", CmpOp::Ne),
            ("==", CmpOp::Eq),
            (">", CmpOp::Gt),
            ("<", CmpOp::Lt),
        ] {
            if let Some(rest) = t.strip_prefix(prefix) {
                return (op, rest.trim());
            }
        }
        (CmpOp::Eq, t)
    }

    /// Applies the operator to an ordering of machine value vs. query value.
    pub fn evaluate_ordering(self, ordering: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ordering == Equal,
            CmpOp::Ne => ordering != Equal,
            CmpOp::Ge => ordering != Less,
            CmpOp::Le => ordering != Greater,
            CmpOp::Gt => ordering == Greater,
            CmpOp::Lt => ordering == Less,
        }
    }
}

/// A single constraint: an operator and the value it compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Comparison operator.
    pub op: CmpOp,
    /// Query-side value.
    pub value: AttrValue,
}

impl Constraint {
    /// Equality constraint.
    pub fn eq(value: impl Into<AttrValue>) -> Self {
        Constraint {
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `>=` constraint.
    pub fn ge(value: impl Into<AttrValue>) -> Self {
        Constraint {
            op: CmpOp::Ge,
            value: value.into(),
        }
    }

    /// Builds a constraint from an operator and value.
    pub fn new(op: CmpOp, value: impl Into<AttrValue>) -> Self {
        Constraint {
            op,
            value: value.into(),
        }
    }

    /// Textual rendering as it appears on the value side of a clause.
    pub fn render(&self) -> String {
        if self.op == CmpOp::Eq {
            self.value.canonical()
        } else {
            format!("{}{}", self.op.symbol(), self.value.canonical())
        }
    }
}

/// One clause of a (possibly composite) query.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    /// The constrained key.
    pub key: QueryKey,
    /// Alternative constraints; more than one makes the query composite.
    pub alternatives: Vec<Constraint>,
}

impl Clause {
    /// A simple single-constraint clause.
    pub fn single(key: QueryKey, constraint: Constraint) -> Self {
        Clause {
            key,
            alternatives: vec![constraint],
        }
    }
}

/// A clause of a basic (decomposed) query: exactly one constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicClause {
    /// The constrained key.
    pub key: QueryKey,
    /// The single constraint.
    pub constraint: Constraint,
}

/// A query as submitted by a client: a conjunction of clauses, possibly with
/// "or" alternatives inside individual clauses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// The clauses, in submission order.
    pub clauses: Vec<Clause>,
}

impl Query {
    /// An empty query (matches every machine: all `rsrc` keys default to
    /// "don't care").
    pub fn new() -> Self {
        Query::default()
    }

    /// Builder-style addition of a single-constraint clause.
    pub fn with(mut self, key: QueryKey, constraint: Constraint) -> Self {
        self.clauses.push(Clause::single(key, constraint));
        self
    }

    /// Builder-style addition of an "or" clause.
    pub fn with_alternatives(mut self, key: QueryKey, alternatives: Vec<Constraint>) -> Self {
        self.clauses.push(Clause { key, alternatives });
        self
    }

    /// Convenience: the paper's example query.
    // lint-allow(reach): tests/{end_to_end_live,remote_backend}.rs build it
    pub fn paper_example() -> Self {
        Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
            .with(QueryKey::rsrc("memory"), Constraint::ge(10u64))
            .with(QueryKey::rsrc("license"), Constraint::eq("tsuprem4"))
            .with(QueryKey::rsrc("domain"), Constraint::eq("purdue"))
            .with(QueryKey::appl("expectedcpuuse"), Constraint::eq(1000u64))
            .with(QueryKey::user("login"), Constraint::eq("kapadia"))
            .with(QueryKey::user("accessgroup"), Constraint::eq("ece"))
    }

    /// Number of basic queries a decomposition will produce (the product of
    /// the alternative counts).
    // lint-allow(reach): tests/cross_crate_properties.rs checks decompose against it
    pub fn decomposition_size(&self) -> usize {
        self.clauses
            .iter()
            .map(|c| c.alternatives.len().max(1))
            .product()
    }

    /// Decomposes the query into basic queries — the cartesian product of
    /// the per-clause alternatives.  `limit` caps the expansion so a
    /// malformed query cannot blow up the pipeline; excess combinations are
    /// dropped (the paper's prototype did not support composite queries at
    /// all, so any bound is an extension).
    pub fn decompose(&self, limit: usize) -> Vec<BasicQuery> {
        let mut result: Vec<Vec<BasicClause>> = vec![Vec::new()];
        for clause in &self.clauses {
            let mut next = Vec::new();
            for partial in &result {
                for alt in &clause.alternatives {
                    if next.len() >= limit {
                        break;
                    }
                    let mut extended = partial.clone();
                    extended.push(BasicClause {
                        key: clause.key.clone(),
                        constraint: alt.clone(),
                    });
                    next.push(extended);
                }
            }
            result = next;
            if result.len() >= limit {
                result.truncate(limit);
            }
        }
        result
            .into_iter()
            .map(|clauses| BasicQuery { clauses })
            .collect()
    }

    /// Looks up the first constraint on a key, if present.
    pub fn constraint(&self, key: &QueryKey) -> Option<&Constraint> {
        self.clauses
            .iter()
            .find(|c| &c.key == key)
            .and_then(|c| c.alternatives.first())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for clause in &self.clauses {
            let alts: Vec<String> = clause.alternatives.iter().map(Constraint::render).collect();
            writeln!(f, "{} = {}", clause.key, alts.join(" | "))?;
        }
        Ok(())
    }
}

/// A basic (non-composite) query produced by decomposition, or submitted
/// directly when the client needs no alternatives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BasicQuery {
    /// The clauses, one constraint each.
    pub clauses: Vec<BasicClause>,
}

impl BasicQuery {
    /// The `rsrc` clauses — these drive pool naming and machine matching.
    pub fn rsrc_clauses(&self) -> impl Iterator<Item = &BasicClause> {
        self.clauses
            .iter()
            .filter(|c| c.key.section == Section::Rsrc)
    }

    /// Value of a key in a given section, if present.
    pub fn value(&self, section: Section, name: &str) -> Option<&AttrValue> {
        self.clauses
            .iter()
            .find(|c| c.key.section == section && c.key.name == name)
            .map(|c| &c.constraint.value)
    }

    /// The user login carried by the query ("undefined" keys are absent).
    pub fn user_login(&self) -> Option<&str> {
        self.value(Section::User, "login").and_then(|v| v.as_str())
    }

    /// The user access group carried by the query.
    pub fn access_group(&self) -> Option<&str> {
        self.value(Section::User, "accessgroup")
            .and_then(|v| v.as_str())
    }

    /// The predicted CPU use in reference-machine seconds, if estimated.
    pub fn expected_cpu_use(&self) -> Option<f64> {
        self.value(Section::Appl, "expectedcpuuse")
            .and_then(|v| v.as_num())
    }

    /// Converts back to a (non-composite) [`Query`], used when a stage needs
    /// to re-enter the pipeline.
    pub fn to_query(&self) -> Query {
        Query {
            clauses: self
                .clauses
                .iter()
                .map(|c| Clause::single(c.key.clone(), c.constraint.clone()))
                .collect(),
        }
    }
}

impl fmt::Display for BasicQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_query())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_render_hierarchically() {
        assert_eq!(QueryKey::rsrc("arch").to_string(), "punch.rsrc.arch");
        assert_eq!(
            QueryKey::appl("expectedcpuuse").to_string(),
            "punch.appl.expectedcpuuse"
        );
        assert_eq!(QueryKey::user("LOGIN").name, "login");
    }

    #[test]
    fn section_tokens_round_trip() {
        for s in [Section::Rsrc, Section::Appl, Section::User] {
            assert_eq!(Section::parse(s.token()), Some(s));
        }
        assert_eq!(Section::parse("bogus"), None);
    }

    #[test]
    fn operator_prefix_stripping() {
        assert_eq!(CmpOp::strip_prefix(">=10"), (CmpOp::Ge, "10"));
        assert_eq!(CmpOp::strip_prefix("<= 20"), (CmpOp::Le, "20"));
        assert_eq!(CmpOp::strip_prefix("sun"), (CmpOp::Eq, "sun"));
        assert_eq!(CmpOp::strip_prefix("!=hp"), (CmpOp::Ne, "hp"));
        assert_eq!(CmpOp::strip_prefix(">5"), (CmpOp::Gt, "5"));
        assert_eq!(CmpOp::strip_prefix("==x"), (CmpOp::Eq, "x"));
    }

    #[test]
    fn operator_evaluation() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.evaluate_ordering(Equal));
        assert!(!CmpOp::Eq.evaluate_ordering(Less));
        assert!(CmpOp::Ge.evaluate_ordering(Equal));
        assert!(CmpOp::Ge.evaluate_ordering(Greater));
        assert!(!CmpOp::Ge.evaluate_ordering(Less));
        assert!(CmpOp::Lt.evaluate_ordering(Less));
        assert!(CmpOp::Ne.evaluate_ordering(Greater));
    }

    #[test]
    fn paper_example_is_not_composite() {
        let q = Query::paper_example();
        assert_eq!(q.decomposition_size(), 1);
        assert_eq!(q.decomposition_size(), 1);
        let basics = q.decompose(16);
        assert_eq!(basics.len(), 1);
        assert_eq!(basics[0].user_login(), Some("kapadia"));
        assert_eq!(basics[0].access_group(), Some("ece"));
        assert_eq!(basics[0].expected_cpu_use(), Some(1000.0));
    }

    #[test]
    fn composite_decomposition_is_cartesian() {
        // arch = sun | hp, memory >= 10 | >= 100  → 4 basic queries.
        let q = Query::new()
            .with_alternatives(
                QueryKey::rsrc("arch"),
                vec![Constraint::eq("sun"), Constraint::eq("hp")],
            )
            .with_alternatives(
                QueryKey::rsrc("memory"),
                vec![Constraint::ge(10u64), Constraint::ge(100u64)],
            );
        assert!(q.decomposition_size() > 1);
        assert_eq!(q.decomposition_size(), 4);
        let basics = q.decompose(16);
        assert_eq!(basics.len(), 4);
        let archs: Vec<&str> = basics
            .iter()
            .map(|b| {
                b.value(Section::Rsrc, "arch")
                    .and_then(|v| v.as_str())
                    .unwrap()
            })
            .collect();
        assert_eq!(archs.iter().filter(|a| **a == "sun").count(), 2);
        assert_eq!(archs.iter().filter(|a| **a == "hp").count(), 2);
    }

    #[test]
    fn decomposition_respects_limit() {
        let q = Query::new().with_alternatives(
            QueryKey::rsrc("arch"),
            (0..10).map(|i| Constraint::eq(format!("a{i}"))).collect(),
        );
        assert_eq!(q.decompose(3).len(), 3);
    }

    #[test]
    fn basic_query_to_query_round_trips() {
        let q = Query::paper_example();
        let b = q.decompose(4).remove(0);
        assert_eq!(b.to_query(), q);
    }

    #[test]
    fn rsrc_clause_filtering() {
        let q = Query::paper_example().decompose(1).remove(0);
        assert_eq!(q.rsrc_clauses().count(), 4);
        assert!(q.value(Section::Rsrc, "arch").is_some());
        assert!(q.value(Section::Rsrc, "nonexistent").is_none());
    }

    #[test]
    fn constraint_rendering() {
        assert_eq!(Constraint::eq("sun").render(), "sun");
        assert_eq!(Constraint::ge(10u64).render(), ">=10");
        assert_eq!(Constraint::new(CmpOp::Lt, 5u64).render(), "<5");
    }

    #[test]
    fn display_lists_one_clause_per_line() {
        let q = Query::paper_example();
        let text = q.to_string();
        assert_eq!(text.lines().count(), 7);
        assert!(text.contains("punch.rsrc.memory = >=10"));
        assert!(text.contains("punch.user.login = kapadia"));
    }

    #[test]
    fn empty_query_decomposes_to_single_empty_basic() {
        let q = Query::new();
        let basics = q.decompose(8);
        assert_eq!(basics.len(), 1);
        assert!(basics[0].clauses.is_empty());
    }
}
