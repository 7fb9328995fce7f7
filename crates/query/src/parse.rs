//! Text parser for the native query language.
//!
//! The native format is line-oriented: one `key = value` pair per line, where
//! the key is `family.section.name` and the value may carry a leading
//! comparison operator (`>=10`) and `|`-separated alternatives
//! (`sun | hp`).  Blank lines and `#` comments are ignored.  The parser is
//! the inverse of `Query`'s `Display` implementation.

use std::fmt;

use actyp_grid::AttrValue;

use crate::ast::{Clause, CmpOp, Constraint, Query, QueryKey, Section};

/// A parse failure, with the 1-based line number where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn parse_key(token: &str, line: usize) -> Result<QueryKey, ParseError> {
    let parts: Vec<&str> = token.trim().split('.').collect();
    if parts.len() != 3 {
        return Err(ParseError {
            line,
            message: format!("key `{token}` must have the form family.section.name"),
        });
    }
    let section = Section::parse(parts[1]).ok_or_else(|| ParseError {
        line,
        message: format!(
            "unknown section `{}` (expected rsrc, appl or user)",
            parts[1]
        ),
    })?;
    if parts[0].is_empty() || parts[2].is_empty() {
        return Err(ParseError {
            line,
            message: format!("key `{token}` has an empty family or name component"),
        });
    }
    Ok(QueryKey {
        family: parts[0].to_ascii_lowercase(),
        section,
        name: parts[2].to_ascii_lowercase(),
    })
}

fn parse_value(token: &str) -> AttrValue {
    let t = token.trim();
    if let Ok(n) = t.parse::<f64>() {
        AttrValue::Num(n)
    } else if t.contains(',') {
        AttrValue::list(t.split(',').map(|s| s.trim().to_string()))
    } else if t.eq_ignore_ascii_case("true") {
        AttrValue::Bool(true)
    } else if t.eq_ignore_ascii_case("false") {
        AttrValue::Bool(false)
    } else {
        AttrValue::Str(t.to_ascii_lowercase())
    }
}

fn parse_constraint(token: &str, line: usize) -> Result<Constraint, ParseError> {
    let (op, rest) = CmpOp::strip_prefix(token);
    if rest.is_empty() {
        return Err(ParseError {
            line,
            message: format!("constraint `{token}` has no value"),
        });
    }
    Ok(Constraint {
        op,
        value: parse_value(rest),
    })
}

/// Parses a query from its textual form.
pub fn parse_query(text: &str) -> Result<Query, ParseError> {
    let mut query = Query::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key_part, value_part) = line.split_once('=').ok_or_else(|| ParseError {
            line: line_no,
            message: format!("expected `key = value`, got `{line}`"),
        })?;
        // A leading '=' of '==' belongs to the operator, so re-attach it when
        // the value starts with '='.
        let value_part = value_part.trim();
        let key = parse_key(key_part, line_no)?;
        let alternatives: Result<Vec<Constraint>, ParseError> = value_part
            .split('|')
            .map(|alt| parse_constraint(alt, line_no))
            .collect();
        let alternatives = alternatives?;
        if alternatives.is_empty() {
            return Err(ParseError {
                line: line_no,
                message: "clause has no constraints".to_string(),
            });
        }
        query.clauses.push(Clause { key, alternatives });
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Section;

    const PAPER_QUERY: &str = "\
punch.rsrc.arch = sun
punch.rsrc.memory = >=10
punch.rsrc.license = tsuprem4
punch.rsrc.domain = purdue
punch.appl.expectedcpuuse = 1000
punch.user.login = kapadia
punch.user.accessgroup = ece
";

    #[test]
    fn parses_the_paper_example() {
        let q = parse_query(PAPER_QUERY).unwrap();
        assert_eq!(q.clauses.len(), 7);
        assert_eq!(q, Query::paper_example());
    }

    #[test]
    fn display_and_parse_round_trip() {
        let q = Query::paper_example();
        let reparsed = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn parses_or_alternatives() {
        let q = parse_query("punch.rsrc.arch = sun | hp\n").unwrap();
        assert!(q.decomposition_size() > 1);
        assert_eq!(q.clauses[0].alternatives.len(), 2);
        assert_eq!(q.decompose(8).len(), 2);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let q = parse_query("# a comment\n\npunch.rsrc.arch = sun\n   \n# more\n").unwrap();
        assert_eq!(q.clauses.len(), 1);
    }

    #[test]
    fn operators_are_parsed_from_value_prefix() {
        let q = parse_query("punch.rsrc.memory = >=128\npunch.rsrc.load = <2\n").unwrap();
        assert_eq!(q.clauses[0].alternatives[0].op, CmpOp::Ge);
        assert_eq!(q.clauses[0].alternatives[0].value, AttrValue::Num(128.0));
        assert_eq!(q.clauses[1].alternatives[0].op, CmpOp::Lt);
    }

    #[test]
    fn numeric_string_list_and_bool_values() {
        let q = parse_query(
            "punch.rsrc.memory = 256\npunch.rsrc.arch = SUN\npunch.rsrc.cms = sge,pbs\npunch.rsrc.dedicated = true\n",
        )
        .unwrap();
        assert_eq!(q.clauses[0].alternatives[0].value, AttrValue::Num(256.0));
        assert_eq!(q.clauses[1].alternatives[0].value, AttrValue::str("sun"));
        assert_eq!(
            q.clauses[2].alternatives[0].value,
            AttrValue::list(["sge", "pbs"])
        );
        assert_eq!(q.clauses[3].alternatives[0].value, AttrValue::Bool(true));
    }

    #[test]
    fn missing_equals_is_an_error() {
        let err = parse_query("punch.rsrc.arch sun").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("key = value"));
    }

    #[test]
    fn malformed_key_is_an_error() {
        assert!(parse_query("punch.arch = sun").is_err());
        assert!(parse_query("punch.bogus.arch = sun").is_err());
        assert!(parse_query(".rsrc.arch = sun").is_err());
        assert!(parse_query("punch.rsrc. = sun").is_err());
    }

    #[test]
    fn empty_constraint_is_an_error() {
        assert!(parse_query("punch.rsrc.arch = ").is_err());
        assert!(parse_query("punch.rsrc.arch = sun | ").is_err());
        assert!(parse_query("punch.rsrc.memory = >=").is_err());
    }

    #[test]
    fn error_reports_correct_line() {
        let err = parse_query("punch.rsrc.arch = sun\npunch.oops = x\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn other_families_are_accepted() {
        let q = parse_query("condor.rsrc.arch = intel\n").unwrap();
        assert_eq!(q.clauses[0].key.family, "condor");
        assert_eq!(q.clauses[0].key.section, Section::Rsrc);
    }
}
