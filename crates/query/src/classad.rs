//! Condor ClassAds interoperability.
//!
//! The paper notes that "new families of key-value pairs could be defined to
//! allow the resource management pipeline to simultaneously support multiple
//! protocols and semantics: this could allow ActYP to reuse Condor's
//! ClassAds".  This module provides a small translator from a ClassAds-style
//! requirements expression into the internal query language; the pipeline
//! and matchmaker tests schedule its output like any native query.
//!
//! The supported subset covers the constraints Condor submit files typically
//! place on machines: a conjunction (`&&`) of comparisons, where each
//! comparison may be a parenthesised disjunction (`||`) of alternatives over
//! the same attribute — e.g.
//!
//! ```text
//! (Arch == "SUN4u" || Arch == "HP") && Memory >= 64 && OpSys == "SOLARIS8"
//! ```

use actyp_grid::AttrValue;

use crate::ast::{Clause, CmpOp, Constraint, Query, QueryKey};

/// A translation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassAdError {
    /// Description of the unsupported or malformed construct.
    pub message: String,
}

impl std::fmt::Display for ClassAdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "classad translation error: {}", self.message)
    }
}

impl std::error::Error for ClassAdError {}

fn err(message: impl Into<String>) -> ClassAdError {
    ClassAdError {
        message: message.into(),
    }
}

/// Maps a ClassAd attribute name to the equivalent `punch.rsrc` key.
fn map_attribute(name: &str) -> String {
    match name.to_ascii_lowercase().as_str() {
        "opsys" => "ostype".to_string(),
        "disk" => "swap".to_string(),
        other => other.to_string(),
    }
}

fn parse_comparison(term: &str) -> Result<(String, Constraint), ClassAdError> {
    let term = term.trim();
    for (symbol, op) in [
        (">=", CmpOp::Ge),
        ("<=", CmpOp::Le),
        ("==", CmpOp::Eq),
        ("!=", CmpOp::Ne),
        (">", CmpOp::Gt),
        ("<", CmpOp::Lt),
    ] {
        if let Some(pos) = term.find(symbol) {
            let attr = term[..pos].trim();
            let value = term[pos + symbol.len()..].trim();
            if attr.is_empty() || value.is_empty() {
                return Err(err(format!("malformed comparison `{term}`")));
            }
            let value = value.trim_matches('"');
            let attr_value = if let Ok(n) = value.parse::<f64>() {
                AttrValue::Num(n)
            } else {
                AttrValue::Str(value.to_ascii_lowercase())
            };
            return Ok((map_attribute(attr), Constraint::new(op, attr_value)));
        }
    }
    Err(err(format!("`{term}` is not a comparison")))
}

/// Translates a ClassAds-style requirements expression into a [`Query`] in
/// the `punch` family.  `user_login` and `access_group`, when supplied, are
/// added as `punch.user.*` clauses so the result can be scheduled directly.
// lint-allow(reach): the ClassAds tests of crates/pipeline/src/live.rs and crates/baselines/src/matchmaker.rs translate with it
pub fn translate_requirements(
    expression: &str,
    user_login: Option<&str>,
    access_group: Option<&str>,
) -> Result<Query, ClassAdError> {
    let expression = expression.trim();
    if expression.is_empty() {
        return Err(err("empty requirements expression"));
    }
    let mut query = Query::new();
    for raw_term in expression.split("&&") {
        let term = raw_term
            .trim()
            .trim_start_matches('(')
            .trim_end_matches(')');
        if term.is_empty() {
            return Err(err("empty term in conjunction"));
        }
        if term.contains("||") {
            // A disjunction of comparisons over one attribute becomes an
            // "or" clause (alternatives) in the internal language.
            let mut key_name: Option<String> = None;
            let mut alternatives = Vec::new();
            for alt in term.split("||") {
                let (attr, constraint) = parse_comparison(alt)?;
                match &key_name {
                    None => key_name = Some(attr),
                    Some(existing) if *existing != attr => {
                        return Err(err(format!(
                            "disjunction mixes attributes `{existing}` and `{attr}`; \
                             only per-attribute alternatives are supported"
                        )));
                    }
                    _ => {}
                }
                alternatives.push(constraint);
            }
            let name = key_name.expect("at least one alternative");
            query.clauses.push(Clause {
                key: QueryKey::rsrc(name),
                alternatives,
            });
        } else {
            let (attr, constraint) = parse_comparison(term)?;
            query
                .clauses
                .push(Clause::single(QueryKey::rsrc(attr), constraint));
        }
    }
    if let Some(login) = user_login {
        query.clauses.push(Clause::single(
            QueryKey::user("login"),
            Constraint::eq(login),
        ));
    }
    if let Some(group) = access_group {
        query.clauses.push(Clause::single(
            QueryKey::user("accessgroup"),
            Constraint::eq(group),
        ));
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Section as S;

    #[test]
    fn simple_conjunction_translates() {
        let q = translate_requirements(
            "Arch == \"SUN4u\" && Memory >= 64 && OpSys == \"SOLARIS8\"",
            None,
            None,
        )
        .unwrap();
        assert_eq!(q.clauses.len(), 3);
        assert_eq!(q.clauses[0].key, QueryKey::rsrc("arch"));
        assert_eq!(q.clauses[0].alternatives[0].value, AttrValue::str("sun4u"));
        assert_eq!(q.clauses[1].key, QueryKey::rsrc("memory"));
        assert_eq!(q.clauses[1].alternatives[0].op, CmpOp::Ge);
        // OpSys maps to the punch ostype key.
        assert_eq!(q.clauses[2].key, QueryKey::rsrc("ostype"));
    }

    #[test]
    fn disjunction_becomes_alternatives() {
        let q = translate_requirements(
            "(Arch == \"SUN\" || Arch == \"HP\") && Memory >= 128",
            None,
            None,
        )
        .unwrap();
        assert!(q.decomposition_size() > 1);
        assert_eq!(q.clauses[0].alternatives.len(), 2);
        assert_eq!(q.decompose(8).len(), 2);
    }

    #[test]
    fn user_identity_is_attached() {
        let q = translate_requirements("Memory >= 10", Some("kapadia"), Some("ece")).unwrap();
        let basic = q.decompose(1).remove(0);
        assert_eq!(basic.user_login(), Some("kapadia"));
        assert_eq!(basic.access_group(), Some("ece"));
        assert_eq!(basic.value(S::Rsrc, "memory").unwrap().as_num(), Some(10.0));
    }

    #[test]
    fn mixed_attribute_disjunction_is_rejected() {
        let e =
            translate_requirements("(Arch == \"SUN\" || Memory >= 10)", None, None).unwrap_err();
        assert!(e.message.contains("mixes attributes"));
    }

    #[test]
    fn malformed_expressions_are_rejected() {
        assert!(translate_requirements("", None, None).is_err());
        assert!(translate_requirements("Arch", None, None).is_err());
        assert!(translate_requirements("== \"SUN\"", None, None).is_err());
        assert!(translate_requirements("Arch == \"SUN\" && ", None, None).is_err());
    }

    #[test]
    fn numeric_values_stay_numeric() {
        let q = translate_requirements("Disk >= 2048", None, None).unwrap();
        // Disk maps onto swap.
        assert_eq!(q.clauses[0].key, QueryKey::rsrc("swap"));
        assert_eq!(q.clauses[0].alternatives[0].value, AttrValue::Num(2048.0));
    }

    #[test]
    fn translated_query_validates_against_punch_schema() {
        let schema = crate::schema::QuerySchema::punch_default();
        let q = translate_requirements(
            "Arch == \"SUN\" && Memory >= 64 && OpSys == \"SOLARIS\"",
            Some("royo"),
            Some("upc"),
        )
        .unwrap();
        assert!(schema.validate(&q).is_empty());
    }
}
