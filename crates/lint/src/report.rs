//! Findings and deterministic report rendering (text and JSON).
//!
//! Reports are byte-identical across runs by construction: findings are
//! sorted by `(path, line, rule, message)`, paths are workspace-relative
//! with `/` separators, and no timestamps, durations or absolute paths are
//! ever emitted.

use std::collections::BTreeMap;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Rule name (kebab-case, as used in waivers).
    pub rule: String,
    /// Human-readable description with the suggested remedy.
    pub message: String,
}

/// The outcome of a workspace scan.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Unwaived findings, sorted for deterministic output.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Physical lines outside test regions per crate directory:
    /// `crates/<c>` or `compat/<c>` for their `src/` trees, `.` for the
    /// root package's `src/`.
    pub non_test_lines: BTreeMap<String, usize>,
}

/// The crate directory whose non-test lines `path` counts toward:
/// `crates/<c>` or `compat/<c>` for their `src/` trees, `.` for the root
/// package's `src/`, and `None` for tests, benches, examples and anything
/// outside the workspace's crates.
pub(crate) fn crate_dir(path: &str) -> Option<String> {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.as_slice() {
        [top @ ("crates" | "compat"), c, "src", _, ..] => Some(format!("{top}/{c}")),
        ["src", _, ..] => Some(".".to_string()),
        _ => None,
    }
}

impl Report {
    /// Sort findings into canonical order. Idempotent; called once by the
    /// scanners so renderers can assume sorted input.
    pub fn normalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message)));
    }

    /// Render the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "thrifty-lint: {} finding{} in {} file{} scanned\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.files_scanned,
            if self.files_scanned == 1 { "" } else { "s" },
        ));
        if !self.findings.is_empty() {
            out.push_str(
                "fix the code, or waive with an audited `// lint:allow(<rule>): <reason>`\n",
            );
        }
        out
    }

    /// Render the machine-readable report (stable field order, sorted
    /// findings, no timestamps — byte-identical across runs), ending with
    /// the per-crate non-test line counts and their total.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"finding_count\": {},\n", self.findings.len()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.path),
                f.line,
                json_str(&f.rule),
                json_str(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"non_test_lines\": {");
        for (dir, n) in &self.non_test_lines {
            out.push_str(&format!("\n    {}: {n},", json_str(dir)));
        }
        let total: usize = self.non_test_lines.values().sum();
        out.push_str(&format!("\n    \"total\": {total}\n  }}\n}}\n"));
        out
    }
}

/// Parse a baseline file: the JSON emitted by [`Report::render_json`].
///
/// This is a hand-rolled scanner for exactly that shape (the linter has no
/// dependencies to spend on a JSON crate): it walks the `"findings"` array
/// and extracts the four known fields of each object, unescaping strings.
/// Anything structurally surprising is an error — a baseline that cannot
/// be read must fail loudly, not silently suppress nothing.
pub fn parse_baseline(text: &str) -> Result<Vec<Finding>, String> {
    let start = text
        .find("\"findings\"")
        .ok_or_else(|| "no \"findings\" key".to_string())?;
    let array_open = text[start..]
        .find('[')
        .map(|i| start + i)
        .ok_or_else(|| "no findings array".to_string())?;
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = array_open + 1;
    loop {
        // Seek the next `{` or the closing `]`.
        while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b']' {
            i += 1;
        }
        if i >= bytes.len() {
            return Err("unterminated findings array".to_string());
        }
        if bytes[i] == b']' {
            return Ok(out);
        }
        // One object: read fields until the matching `}` (strings may
        // contain braces, so scan string-aware).
        let mut path = None;
        let mut line = None;
        let mut rule = None;
        let mut message = None;
        i += 1;
        loop {
            while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                i += 1;
            }
            match bytes.get(i) {
                Some(b'}') => {
                    i += 1;
                    break;
                }
                Some(b',') => {
                    i += 1;
                    continue;
                }
                Some(b'"') => {
                    let (key, next) = parse_json_string(text, i)?;
                    i = next;
                    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                        i += 1;
                    }
                    if bytes.get(i) != Some(&b':') {
                        return Err(format!("expected `:` after key `{key}`"));
                    }
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                        i += 1;
                    }
                    match key.as_str() {
                        "line" => {
                            let mut n: u32 = 0;
                            let mut any = false;
                            while i < bytes.len() && bytes[i].is_ascii_digit() {
                                n = n
                                    .saturating_mul(10)
                                    .saturating_add(u32::from(bytes[i] - b'0'));
                                i += 1;
                                any = true;
                            }
                            if !any {
                                return Err("non-numeric `line`".to_string());
                            }
                            line = Some(n);
                        }
                        _ => {
                            let (val, next) = parse_json_string(text, i)?;
                            i = next;
                            match key.as_str() {
                                "path" => path = Some(val),
                                "rule" => rule = Some(val),
                                "message" => message = Some(val),
                                other => {
                                    return Err(format!("unknown finding field `{other}`"))
                                }
                            }
                        }
                    }
                }
                _ => return Err("malformed finding object".to_string()),
            }
        }
        match (path, line, rule, message) {
            (Some(path), Some(line), Some(rule), Some(message)) => out.push(Finding {
                path,
                line,
                rule,
                message,
            }),
            _ => return Err("finding missing a required field".to_string()),
        }
    }
}

/// Parse the JSON string starting at byte `start` (which must be `"`).
/// Returns the unescaped value and the byte index just past the closing
/// quote.
fn parse_json_string(text: &str, start: usize) -> Result<(String, usize), String> {
    let bytes = text.as_bytes();
    if bytes.get(start) != Some(&b'"') {
        return Err("expected string".to_string());
    }
    let mut out = String::new();
    let mut iter = text[start + 1..].char_indices();
    while let Some((off, c)) = iter.next() {
        match c {
            '"' => return Ok((out, start + 1 + off + 1)),
            '\\' => match iter.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        match iter.next().and_then(|(_, h)| h.to_digit(16)) {
                            Some(d) => code = code * 16 + d,
                            None => return Err("bad \\u escape".to_string()),
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => return Err(format!("bad escape `{other:?}`")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(path: &str, line: u32, rule: &str) -> Finding {
        Finding {
            path: path.into(),
            line,
            rule: rule.into(),
            message: "m \"quoted\"".into(),
        }
    }

    #[test]
    fn findings_sort_by_path_then_line_then_rule() {
        let mut r = Report {
            findings: vec![f("b.rs", 1, "x"), f("a.rs", 9, "x"), f("a.rs", 2, "z"), f("a.rs", 2, "a")],
            files_scanned: 4,
            ..Report::default()
        };
        r.normalize();
        let order: Vec<_> = r.findings.iter().map(|f| (f.path.as_str(), f.line)).collect();
        assert_eq!(order, vec![("a.rs", 2), ("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]);
        assert_eq!(r.findings[0].rule, "a");
    }

    #[test]
    fn json_escapes_quotes() {
        let r = Report {
            findings: vec![f("a.rs", 1, "x")],
            files_scanned: 1,
            ..Report::default()
        };
        let j = r.render_json();
        assert!(j.contains("m \\\"quoted\\\""));
        assert!(j.contains("\"finding_count\": 1"));
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let r = Report::default();
        assert!(r.render_text().contains("0 findings"));
        assert!(r.render_json().contains("\"findings\": []"));
    }

    #[test]
    fn baseline_round_trips_through_render_json() {
        let r = Report {
            findings: vec![f("a.rs", 1, "x"), f("crates/sim/src/p.rs", 451, "plaintext-escape")],
            files_scanned: 2,
            ..Report::default()
        };
        let parsed = parse_baseline(&r.render_json()).expect("round trip");
        assert_eq!(parsed, r.findings);
    }

    #[test]
    fn baseline_rejects_garbage() {
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{\"findings\": [{\"path\": \"a\"}]}").is_err());
    }

    #[test]
    fn non_test_lines_render_per_crate_with_a_total() {
        assert_eq!(
            crate_dir("crates/sim/src/pipeline.rs").as_deref(),
            Some("crates/sim")
        );
        assert_eq!(
            crate_dir("compat/rand/src/lib.rs").as_deref(),
            Some("compat/rand")
        );
        assert_eq!(crate_dir("src/lib.rs").as_deref(), Some("."));
        assert_eq!(crate_dir("crates/sim/tests/t.rs"), None);
        assert_eq!(crate_dir("examples/demo.rs"), None);
        assert_eq!(crate_dir("perfbench/src/main.rs"), None);
        let r = Report {
            non_test_lines: [("crates/a".to_string(), 3), (".".to_string(), 4)].into(),
            ..Report::default()
        };
        let j = r.render_json();
        assert!(
            j.ends_with("\"non_test_lines\": {\n    \".\": 4,\n    \"crates/a\": 3,\n    \"total\": 7\n  }\n}\n"),
            "json: {j}"
        );
        assert!(parse_baseline(&j)
            .expect("baseline ignores the counts")
            .is_empty());
    }

    #[test]
    fn empty_baseline_parses() {
        let parsed = parse_baseline(&Report::default().render_json()).expect("empty");
        assert!(parsed.is_empty());
    }
}
