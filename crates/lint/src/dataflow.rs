//! Plaintext-escape dataflow: payload bytes must meet `SegmentCipher`
//! before they meet the wire.
//!
//! This is the paper's Table 1 boundary as a machine-checked contract.
//! Within `crates/sim` and `crates/net`, a value *originating* from a
//! NAL/frame serialiser (`write_annex_b`, `to_rbsp`) is tracked through
//! local bindings, struct literals, buffer-absorbing mutations
//! (`put_slice`, `extend`, …) and loop bindings; if it reaches a wire-emit
//! sink (`.send(…)`, `.write_into(…)`, `.emit(…)` — as an argument or as
//! the receiver) without an interposed `SegmentCipher::encrypt*` call, that
//! sink is a finding.
//!
//! The analysis is intraprocedural, linear and conservative: at every
//! block close, a variable tainted in *either* the outer pre-state or the
//! inner block stays tainted. That join rule is deliberate — sanitising
//! inside `if encrypt_frame { … }` does **not** clear taint after the
//! join, so the intentionally-plaintext selective-encryption paths (SPS/
//! PPS lead-in, policy-cleared P/B-frames) surface as findings that must
//! carry an audited `// lint:allow(plaintext-escape): <reason>` waiver.
//! The waiver *is* the design artefact: it documents, in place, why those
//! bytes ride in the clear.

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use crate::rules;
use std::collections::BTreeMap;

/// Functions whose return value is serialised plaintext payload.
const SOURCES: &[&str] = &["write_annex_b", "to_rbsp"];

/// Methods that put bytes on the wire (or on a channel that reaches it).
const SINKS: &[&str] = &["send", "write_into", "emit"];

/// `SegmentCipher` entry points: passing a buffer through one sanitises it.
const SANITIZERS: &[&str] = &["encrypt_train", "encrypt_segment", "encrypt"];

/// Methods that absorb bytes into their receiver: a tainted argument
/// taints the receiving buffer.
const ABSORBERS: &[&str] = &[
    "put_slice",
    "extend_from_slice",
    "extend",
    "push",
    "append",
    "copy_from_slice",
    "write_all",
    "put",
];

/// Where a taint came from, for the finding message.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Origin {
    what: String,
    line: u32,
}

type State = BTreeMap<String, Origin>;

/// Run the plaintext-escape tier over every in-scope function.
pub fn dataflow_findings(graph: &CallGraph<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for &id in &graph.fns {
        let file = &graph.files[id.file];
        if !rules::flow_scoped(&file.path) {
            continue;
        }
        let f = graph.item(id);
        if f.is_test {
            continue;
        }
        scan_fn(&file.path, &file.code, f.body, &mut out);
    }
    // Nested `fn` items are both their own graph nodes and part of their
    // enclosing function's token span; drop the duplicate findings.
    out.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    out
}

/// Analyse one function body (code-token range `[open, close]`).
fn scan_fn(path: &str, code: &[Tok], body: (usize, usize), out: &mut Vec<Finding>) {
    let (open, close) = body;
    // Scope stack: each entry is the state snapshot taken at block entry.
    let mut stack: Vec<State> = Vec::new();
    let mut state: State = State::new();
    let mut stmt: Vec<usize> = Vec::new();
    // Brace depth inside a struct literal (`Segment { payload, .. }`): its
    // braces are part of the expression, so its fields stay in the
    // statement and a `let` binding inherits their taint.
    let mut literal = 0usize;
    let mut j = open + 1;
    while j < close {
        let t = &code[j];
        if literal > 0 || (t.text == "{" && opens_struct_literal(code, &stmt)) {
            match t.text.as_str() {
                "{" => literal += 1,
                "}" => literal -= 1,
                _ => {}
            }
            stmt.push(j);
            j += 1;
            continue;
        }
        match t.text.as_str() {
            "{" => {
                // Sinks can live in the header itself:
                // `if air_tx.send(pkt).is_err() { … }`.
                check_sinks(path, code, &stmt, &state, out);
                process_header(code, &stmt, &mut state);
                stack.push(state.clone());
                stmt.clear();
            }
            "}" => {
                process_stmt(path, code, &stmt, &mut state, out);
                stmt.clear();
                if let Some(outer) = stack.pop() {
                    // Conservative join: a variable tainted in either the
                    // outer pre-state or the inner block stays tainted;
                    // inner-only bindings go out of scope.
                    let mut joined = outer;
                    for (k, v) in state {
                        if joined.contains_key(&k) {
                            joined.insert(k, v);
                        }
                    }
                    state = joined;
                }
            }
            ";" => {
                process_stmt(path, code, &stmt, &mut state, out);
                stmt.clear();
            }
            _ => stmt.push(j),
        }
        j += 1;
    }
    process_stmt(path, code, &stmt, &mut state, out);
}

/// Does a `{` after `stmt` open a struct literal rather than a block? Yes
/// when it follows a type-like (capitalised) path in an expression
/// statement; control-flow headers and item declarations open blocks.
fn opens_struct_literal(code: &[Tok], stmt: &[usize]) -> bool {
    const BLOCK_HEADS: &[&str] = &[
        "if", "while", "for", "match", "loop", "else", "unsafe", "impl", "struct", "enum",
        "trait", "fn", "mod",
    ];
    let (Some(&first), Some(&last)) = (stmt.first(), stmt.last()) else {
        return false;
    };
    let prev = &code[last];
    prev.kind == TokKind::Ident
        && prev.text.starts_with(|c: char| c.is_ascii_uppercase())
        && !BLOCK_HEADS.contains(&code[first].text.as_str())
}

/// Idents mentioned in a token-index slice.
/// A struct-literal field name (`{ payload: …` or `, payload: …`) names a
/// field, not a value, and is skipped.
fn idents<'a>(code: &'a [Tok], toks: &[usize]) -> Vec<&'a str> {
    let text = |k: usize| toks.get(k).map(|&i| code[i].text.as_str());
    toks.iter()
        .enumerate()
        .filter(|&(k, &i)| {
            let field_name = text(k + 1) == Some(":")
                && k.checked_sub(1).and_then(text).is_some_and(|p| p == "{" || p == ",");
            code[i].kind == TokKind::Ident && !field_name
        })
        .map(|(_, &i)| code[i].text.as_str())
        .collect()
}

/// Does the slice contain a call to one of `names` (ident followed by `(`)?
/// Returns the first match with its line.
fn call_in(code: &[Tok], toks: &[usize], names: &[&str]) -> Option<(String, u32)> {
    for (k, &i) in toks.iter().enumerate() {
        let t = &code[i];
        if t.kind == TokKind::Ident && names.contains(&t.text.as_str()) {
            if let Some(&n) = toks.get(k + 1) {
                if code[n].text == "(" {
                    return Some((t.text.clone(), t.line));
                }
            }
        }
    }
    None
}

/// Flag every wire-emit sink in `stmt` whose arguments carry taint.
fn check_sinks(path: &str, code: &[Tok], stmt: &[usize], state: &State, out: &mut Vec<Finding>) {
    for (k, &i) in stmt.iter().enumerate() {
        let t = &code[i];
        if t.kind != TokKind::Ident || !SINKS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(&open_i) = stmt.get(k + 1) else { continue };
        if code[open_i].text != "(" {
            continue;
        }
        // Method position only: `.send(` not a fn named send.
        if k == 0 || code[stmt[k - 1]].text != "." {
            continue;
        }
        // Argument token span: to the matching `)` within the stmt.
        let mut depth = 0i32;
        let mut args: Vec<usize> = Vec::new();
        for &a in &stmt[k + 1..] {
            match code[a].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if depth >= 1 && code[a].text != "(" {
                args.push(a);
            }
        }
        // A tainted receiver is emitted too: `segment.emit()`.
        let receiver = k
            .checked_sub(2)
            .and_then(|r| stmt.get(r))
            .map(|&r| &code[r])
            .filter(|r| r.kind == TokKind::Ident)
            .map(|r| r.text.as_str());
        let hit = receiver
            .into_iter()
            .chain(idents(code, &args))
            .find_map(|n| state.get(n).map(|o| (n.to_string(), o.clone())))
            .or_else(|| {
                call_in(code, &args, SOURCES)
                    .map(|(what, line)| (format!("{what}(…)"), Origin { what, line }))
            });
        if let Some((name, origin)) = hit {
            out.push(Finding {
                path: path.to_string(),
                line: t.line,
                rule: rules::PLAINTEXT_ESCAPE.to_string(),
                message: format!(
                    "`{name}` carries plaintext payload bytes (from `{}` at line {}) into `.{}(…)` without passing through SegmentCipher::encrypt* — encrypt first, or waive the deliberate selective-encryption path",
                    origin.what, origin.line, t.text
                ),
            });
        }
    }
}

/// Block headers (`if …`, `for x in …`, `while let …`, closures) bind
/// variables: a `for` pattern over a tainted iterable taints its bindings,
/// and closure parameters start clean (they shadow).
fn process_header(code: &[Tok], stmt: &[usize], state: &mut State) {
    if stmt.is_empty() {
        return;
    }
    let first = &code[stmt[0]];
    if first.text == "for" {
        // `for <pat> in <expr>` — split at the top-level `in`.
        if let Some(pos) = stmt.iter().position(|&i| code[i].text == "in") {
            let (pat, expr) = stmt.split_at(pos);
            let expr_tainted = idents(code, &expr[1..])
                .iter()
                .find_map(|n| state.get(*n).cloned());
            let src = call_in(code, &expr[1..], SOURCES);
            for name in idents(code, &pat[1..]) {
                if let Some((what, line)) = &src {
                    state.insert(
                        name.to_string(),
                        Origin {
                            what: what.clone(),
                            line: *line,
                        },
                    );
                } else if let Some(o) = &expr_tainted {
                    state.insert(name.to_string(), o.clone());
                } else {
                    state.remove(name);
                }
            }
        }
        return;
    }
    // Closure parameters `|a, b: T|` shadow outer bindings: clear them.
    let mut bars: Vec<usize> = Vec::new();
    for (k, &i) in stmt.iter().enumerate() {
        if code[i].text == "|" {
            bars.push(k);
        }
    }
    if bars.len() >= 2 {
        let (lo, hi) = (bars[0], bars[1]);
        let mut in_type = false;
        for &i in &stmt[lo + 1..hi] {
            match code[i].text.as_str() {
                ":" => in_type = true,
                "," => in_type = false,
                _ => {
                    if !in_type && code[i].kind == TokKind::Ident {
                        state.remove(&code[i].text);
                    }
                }
            }
        }
    }
    // `if let` / `while let` headers bind too.
    if stmt.iter().any(|&i| code[i].text == "let") {
        bind_let(code, stmt, state);
    }
}

/// Handle the `let <pat> = <rhs>` shape inside `stmt`.
fn bind_let(code: &[Tok], stmt: &[usize], state: &mut State) {
    let Some(let_pos) = stmt.iter().position(|&i| code[i].text == "let") else {
        return;
    };
    let Some(eq_pos) = stmt[let_pos..]
        .iter()
        .position(|&i| code[i].text == "=")
        .map(|p| p + let_pos)
    else {
        return;
    };
    let pat = &stmt[let_pos + 1..eq_pos];
    let rhs = &stmt[eq_pos + 1..];
    let src = call_in(code, rhs, SOURCES);
    let rhs_origin = src
        .map(|(what, line)| Origin { what, line })
        .or_else(|| {
            idents(code, rhs)
                .iter()
                .find_map(|n| state.get(*n).cloned())
        });
    // Pattern idents before any `:` type annotation.
    let mut in_type = false;
    for &i in pat {
        match code[i].text.as_str() {
            ":" => in_type = true,
            "," => in_type = false,
            _ => {
                if !in_type && code[i].kind == TokKind::Ident && code[i].text != "mut" {
                    match &rhs_origin {
                        Some(o) => {
                            state.insert(code[i].text.clone(), o.clone());
                        }
                        None => {
                            state.remove(&code[i].text);
                        }
                    }
                }
            }
        }
    }
}

/// Process one statement: sanitise, then check sinks, then bind/absorb.
fn process_stmt(path: &str, code: &[Tok], stmt: &[usize], state: &mut State, out: &mut Vec<Finding>) {
    if stmt.is_empty() {
        return;
    }
    // 1. Sanitiser: every tainted variable mentioned alongside an
    //    `encrypt*` call in this statement is now ciphertext.
    if call_in(code, stmt, SANITIZERS).is_some() {
        for name in idents(code, stmt) {
            state.remove(name);
        }
        return;
    }
    // 2. Sinks: any `.send(…)` / `.write_into(…)` / `.emit(…)` whose
    //    arguments mention a tainted variable or a source call directly.
    check_sinks(path, code, stmt, state, out);
    // 3. Bindings and absorbing mutations.
    if code[stmt[0]].text == "let" || stmt.iter().any(|&i| code[i].text == "=") {
        if code[stmt[0]].text == "let" {
            bind_let(code, stmt, state);
            return;
        }
        // Plain reassignment `name = rhs;` (single `=` at top).
        if let Some(eq_pos) = stmt.iter().position(|&i| code[i].text == "=") {
            let lhs = &stmt[..eq_pos];
            let rhs = &stmt[eq_pos + 1..];
            if lhs.len() == 1 && code[lhs[0]].kind == TokKind::Ident {
                let src = call_in(code, rhs, SOURCES);
                let origin = src.map(|(what, line)| Origin { what, line }).or_else(|| {
                    idents(code, rhs).iter().find_map(|n| state.get(*n).cloned())
                });
                match origin {
                    Some(o) => {
                        state.insert(code[lhs[0]].text.clone(), o);
                    }
                    None => {
                        state.remove(&code[lhs[0]].text);
                    }
                }
                return;
            }
        }
    }
    // Absorption: `recv.put_slice(&tainted)` taints `recv`.
    for (k, &i) in stmt.iter().enumerate() {
        let t = &code[i];
        if t.kind != TokKind::Ident || !ABSORBERS.contains(&t.text.as_str()) {
            continue;
        }
        if k < 2 || code[stmt[k - 1]].text != "." {
            continue;
        }
        let recv = &code[stmt[k - 2]];
        if recv.kind != TokKind::Ident {
            continue;
        }
        let rest = &stmt[k + 1..];
        let origin = call_in(code, rest, SOURCES)
            .map(|(what, line)| Origin { what, line })
            .or_else(|| {
                idents(code, rest)
                    .iter()
                    .find_map(|n| state.get(*n).cloned())
            });
        if let Some(o) = origin {
            state.insert(recv.text.clone(), o);
        }
    }
}
