//! Audited waivers: `// lint:allow(<rule>[, <rule>…]): <reason>`.
//!
//! A waiver is a line comment that locally suppresses one or more rules.
//! It must carry a non-empty reason — the reason is the audit trail, so a
//! reasonless waiver is itself a violation (`waiver-malformed`),
//! as is a waiver naming an unknown rule or one that suppresses nothing.
//!
//! Placement:
//! - **trailing** (code before it on the same line): covers that line;
//! - **standalone** (alone on its line): covers the next line that carries
//!   code, so stacked waivers above one offending line all apply to it.

use crate::lexer::{Tok, TokKind};

/// One parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Line the comment sits on.
    pub line: u32,
    /// Rules it names.
    pub rules: Vec<String>,
    /// Line whose findings it suppresses.
    pub target_line: u32,
    /// Parse failure description, if malformed.
    pub malformed: Option<&'static str>,
    /// Set once the waiver suppresses at least one finding.
    pub used: bool,
}

/// The marker that introduces a waiver inside a line comment.
const MARKER: &str = "lint:allow";

/// Extract all waivers from a token stream.
pub fn collect(toks: &[Tok]) -> Vec<Waiver> {
    // Lines that carry at least one non-comment token.
    let code_lines: Vec<u32> = {
        let mut v: Vec<u32> = toks
            .iter()
            .filter(|t| t.kind != TokKind::Comment)
            .map(|t| t.line)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut out = Vec::new();
    for t in toks {
        if t.kind != TokKind::Comment {
            continue;
        }
        // A waiver is a dedicated comment: the marker must be the first
        // thing after the comment opener. Prose that merely *mentions*
        // `lint:allow` (docs, this sentence) is not a waiver.
        let is_line = t.text.starts_with("//");
        let stripped = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start();
        if !stripped.starts_with(MARKER) {
            continue;
        }
        // Only line comments carry waivers; a marker opening a block
        // comment is treated as malformed so it cannot silently do nothing.
        if !is_line {
            out.push(Waiver {
                line: t.line,
                rules: Vec::new(),
                target_line: t.line,
                malformed: Some("waivers must be `//` line comments"),
                used: false,
            });
            continue;
        }
        let rest = &stripped[MARKER.len()..];
        let (rules, malformed) = parse_body(rest);
        let standalone = code_lines.binary_search(&t.line).is_err();
        let target_line = if standalone {
            match code_lines.iter().find(|&&l| l > t.line) {
                Some(&l) => l,
                None => t.line, // dangling waiver at EOF: can never be used
            }
        } else {
            t.line
        };
        out.push(Waiver {
            line: t.line,
            rules,
            target_line,
            malformed,
            used: false,
        });
    }
    out
}

/// Parse `(<rule>[, <rule>…]): <reason>` after the marker.
fn parse_body(rest: &str) -> (Vec<String>, Option<&'static str>) {
    let rest = rest.trim_start();
    let Some(body) = rest.strip_prefix('(') else {
        return (Vec::new(), Some("expected `(<rule>)` after `lint:allow`"));
    };
    let Some(close) = body.find(')') else {
        return (Vec::new(), Some("unclosed rule list"));
    };
    let rules: Vec<String> = body[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return (Vec::new(), Some("empty rule list"));
    }
    let after = body[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix(':') else {
        return (rules, Some("missing `: <reason>` — waivers must be justified"));
    };
    if reason.trim().is_empty() {
        return (rules, Some("empty reason — waivers must be justified"));
    }
    (rules, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_waiver_targets_its_own_line() {
        let toks = lex("let x = now(); // lint:allow(det-wall-clock): timing display only\n");
        let ws = collect(&toks);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].target_line, 1);
        assert!(ws[0].malformed.is_none());
        assert_eq!(ws[0].rules, vec!["det-wall-clock"]);
    }

    #[test]
    fn standalone_waiver_targets_next_code_line() {
        let src = "// lint:allow(panic-unwrap): guarded above\n// another comment\nlet y = v.unwrap();\n";
        let ws = collect(&lex(src));
        assert_eq!(ws[0].target_line, 3);
    }

    #[test]
    fn missing_reason_is_malformed() {
        let ws = collect(&lex("// lint:allow(panic-unwrap)\nlet x = 1;\n"));
        assert!(ws[0].malformed.is_some());
        assert_eq!(ws[0].rules, vec!["panic-unwrap"]);
    }

    #[test]
    fn empty_reason_is_malformed() {
        let ws = collect(&lex("// lint:allow(panic-unwrap):   \nlet x = 1;\n"));
        assert!(ws[0].malformed.is_some());
    }

    #[test]
    fn multi_rule_waiver_parses() {
        let ws = collect(&lex(
            "x(); // lint:allow(num-float-eq, panic-unwrap): sentinel compare on exact value\n",
        ));
        assert_eq!(ws[0].rules.len(), 2);
        assert!(ws[0].malformed.is_none());
    }
}
