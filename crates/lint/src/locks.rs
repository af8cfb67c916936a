//! Lock-order analysis: flag potential `Mutex`/`RwLock` inversions.
//!
//! Per function, the scanner tracks which guards are *held* at each point:
//! a `let`-bound `.lock()` (or a call to a guard-returning helper such as a
//! `lock_free()`) holds until its enclosing block closes or
//! an explicit `drop(guard)`; a temporary (`x.lock().field += 1`) dies at
//! the end of its statement; a `for`-header acquisition holds through the
//! loop body. Acquiring lock `B` with `A` held records the directed edge
//! `A → B`; calls made while holding `A` contribute edges to every lock
//! the callee (transitively, via the call graph) acquires. Two functions
//! establishing opposite orders — `A → B` here, `B → A` there — can
//! deadlock under concurrency, and each direction is reported at its
//! witness site. Acquiring a lock already held is reported as a
//! self-deadlock.
//!
//! Lock identity is `file::name` — the receiver identifier, namespaced by
//! the file that acquires it — so one crate's `free` can never be confused
//! with another crate's `free`, while cross-function edges inside one
//! file unify naturally.

use crate::callgraph::{CallGraph, FnId};
use crate::lexer::TokKind;
use crate::report::Finding;
use crate::rules;
use std::collections::{BTreeMap, BTreeSet};

/// One directed ordering witness: `a` was held when `b` was acquired.
#[derive(Debug, Clone)]
struct Edge {
    a: String,
    b: String,
    path: String,
    line: u32,
}

#[derive(Debug, Default)]
struct FnLocks {
    /// Ordering edges observed inside the function body.
    edges: Vec<Edge>,
    /// Locks acquired anywhere in the body (namespaced ids).
    acquired: BTreeSet<String>,
    /// First acquisition, exported to callers when the fn returns a guard.
    first: Option<String>,
    /// `(held-lock-ids, call-index, line)` for calls made under a lock.
    calls_holding: Vec<(Vec<String>, usize, u32)>,
}

/// Run the lock-order tier over the whole workspace.
pub fn lock_findings(graph: &CallGraph<'_>) -> Vec<Finding> {
    let n = graph.fns.len();
    let index_of: BTreeMap<FnId, usize> = graph
        .fns
        .iter()
        .copied()
        .enumerate()
        .map(|(i, id)| (id, i))
        .collect();

    // Phase 1: intra-function scan.
    let mut per_fn: Vec<FnLocks> = Vec::with_capacity(n);
    for &id in &graph.fns {
        per_fn.push(scan_fn(graph, id));
    }

    // Phase 2: transitive lock sets (which locks does calling f acquire?).
    let mut total: Vec<BTreeSet<String>> = per_fn.iter().map(|f| f.acquired.clone()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (i, &id) in graph.fns.iter().enumerate() {
            let f = graph.item(id);
            for call in &f.calls {
                for t in graph.resolve(id, call) {
                    if t == id {
                        continue;
                    }
                    let ti = index_of[&t];
                    if !total[ti].is_empty() {
                        let add: Vec<String> = total[ti]
                            .iter()
                            .filter(|l| !total[i].contains(*l))
                            .cloned()
                            .collect();
                        if !add.is_empty() {
                            total[i].extend(add);
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    // Phase 3: cross-function edges — a call under lock `A` reaching a
    // function that (transitively) acquires `B` orders `A → B`.
    let mut edges: Vec<Edge> = Vec::new();
    for (i, &id) in graph.fns.iter().enumerate() {
        edges.extend(per_fn[i].edges.iter().cloned());
        let f = graph.item(id);
        let path = graph.path(id);
        for (held, call_idx, line) in &per_fn[i].calls_holding {
            let call = &f.calls[*call_idx];
            for t in graph.resolve(id, call) {
                if t == id {
                    continue;
                }
                let ti = index_of[&t];
                for b in &total[ti] {
                    for a in held {
                        edges.push(Edge {
                            a: a.clone(),
                            b: b.clone(),
                            path: path.to_string(),
                            line: *line,
                        });
                    }
                }
            }
        }
    }

    // Phase 4: keep the first (path, line) witness per directed pair, then
    // report every two-lock cycle and every self-acquisition.
    let mut witness: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for e in &edges {
        let key = (e.a.clone(), e.b.clone());
        let w = (e.path.clone(), e.line);
        match witness.get(&key) {
            Some(existing) if *existing <= w => {}
            _ => {
                witness.insert(key, w);
            }
        }
    }

    let short = |id: &str| id.rsplit("::").next().unwrap_or(id).to_string();
    let mut out = Vec::new();
    for ((a, b), (path, line)) in &witness {
        if a == b {
            out.push(Finding {
                path: path.clone(),
                line: *line,
                rule: rules::LOCK_ORDER.to_string(),
                message: format!(
                    "lock `{}` acquired while already held — self-deadlock",
                    short(a)
                ),
            });
            continue;
        }
        if let Some((opath, oline)) = witness.get(&(b.clone(), a.clone())) {
            out.push(Finding {
                path: path.clone(),
                line: *line,
                rule: rules::LOCK_ORDER.to_string(),
                message: format!(
                    "lock `{}` acquired while holding `{}`, but the opposite order is taken at {}:{} — concurrent callers can deadlock",
                    short(b),
                    short(a),
                    opath,
                    oline
                ),
            });
        }
    }
    out
}

/// A lock currently held inside one function scan.
#[derive(Debug, Clone)]
struct Held {
    /// Guard variable name, when `let`-bound (for `drop(var)` release).
    var: Option<String>,
    /// Namespaced lock id.
    lock: String,
    /// Scope depth the guard dies at.
    depth: usize,
}

/// One in-statement event, in token order.
enum Event {
    Acq { lock: String, line: u32 },
    Call { idx: usize, line: u32 },
}

/// Scan one function body for acquisitions, ordering edges and
/// calls-under-lock.
fn scan_fn(graph: &CallGraph<'_>, id: FnId) -> FnLocks {
    let file = &graph.files[id.file];
    let f = graph.item(id);
    let mut fl = FnLocks::default();
    if f.is_test {
        return fl;
    }
    let code = &file.code;
    let (open, close) = f.body;
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    let mut stmt: Vec<usize> = Vec::new();
    let mut j = open + 1;
    while j < close {
        match code[j].text.as_str() {
            "{" => {
                let is_for = stmt
                    .first()
                    .is_some_and(|&s| code[s].text == "for");
                process_stmt(graph, id, &stmt, &mut held, depth, is_for, &mut fl);
                stmt.clear();
                depth += 1;
            }
            "}" => {
                process_stmt(graph, id, &stmt, &mut held, depth, false, &mut fl);
                stmt.clear();
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
            }
            ";" => {
                process_stmt(graph, id, &stmt, &mut held, depth, false, &mut fl);
                stmt.clear();
            }
            _ => stmt.push(j),
        }
        j += 1;
    }
    process_stmt(graph, id, &stmt, &mut held, depth, false, &mut fl);
    fl
}

/// Process one statement (or block header): release `drop(var)` guards,
/// walk acquisition/call events in order, emit edges, bind guards.
#[allow(clippy::too_many_arguments)]
fn process_stmt(
    graph: &CallGraph<'_>,
    id: FnId,
    stmt: &[usize],
    held: &mut Vec<Held>,
    depth: usize,
    is_for_header: bool,
    fl: &mut FnLocks,
) {
    if stmt.is_empty() {
        return;
    }
    let file = &graph.files[id.file];
    let f = graph.item(id);
    let code = &file.code;

    // `drop(guard)` — explicit release.
    for (k, &i) in stmt.iter().enumerate() {
        if code[i].text == "drop"
            && stmt.get(k + 1).is_some_and(|&p| code[p].text == "(")
            && stmt.get(k + 2).is_some_and(|&v| code[v].kind == TokKind::Ident)
            && stmt.get(k + 3).is_some_and(|&p| code[p].text == ")")
        {
            let var = &code[stmt[k + 2]].text;
            held.retain(|h| h.var.as_deref() != Some(var.as_str()));
        }
    }

    // Collect events in token order.
    let ns = |name: &str| format!("{}::{}", file.path, name);
    let lo = stmt[0];
    let hi = *stmt.last().unwrap_or(&lo);
    let mut events: Vec<Event> = Vec::new();
    for (k, &i) in stmt.iter().enumerate() {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_call_shape = k > 0
            && code[stmt[k - 1]].text == "."
            && stmt.get(k + 1).is_some_and(|&p| code[p].text == "(");
        if is_call_shape {
            let name = t.text.as_str();
            let acquires = name == "lock"
                || ((name == "read" || name == "write") && {
                    k >= 2
                        && code[stmt[k - 2]].kind == TokKind::Ident
                        && file.rwlock_names.contains(&code[stmt[k - 2]].text)
                });
            if acquires && k >= 2 && code[stmt[k - 2]].kind == TokKind::Ident {
                events.push(Event::Acq {
                    lock: ns(&code[stmt[k - 2]].text),
                    line: t.line,
                });
                continue;
            }
        }
    }
    // Calls recorded by the parser that fall inside this statement: a
    // guard-returning callee is an acquisition of its lock; any other
    // resolved call is a call-under-lock candidate.
    for (ci, call) in f.calls.iter().enumerate() {
        if call.tok < lo || call.tok > hi {
            continue;
        }
        let targets = graph.resolve(id, call);
        let guard_lock = targets.iter().find_map(|&t| {
            if graph.item(t).returns_guard {
                // The callee's own first acquisition is what the caller
                // now holds; computed lazily from its body below.
                first_lock(graph, t)
            } else {
                None
            }
        });
        match guard_lock {
            Some(lock) => events.push(Event::Acq {
                lock,
                line: call.line,
            }),
            None if !targets.is_empty() => events.push(Event::Call {
                idx: ci,
                line: call.line,
            }),
            None => {}
        }
    }
    // Token order: acquisitions were collected first, calls second — merge
    // by line to keep a deterministic, near-source order.
    events.sort_by_key(|e| match e {
        Event::Acq { line, .. } => (*line, 0),
        Event::Call { line, .. } => (*line, 1),
    });

    // Walk events: edges from held + earlier same-stmt temps.
    let mut temps: Vec<String> = Vec::new();
    for ev in &events {
        match ev {
            Event::Acq { lock, line } => {
                for h in held.iter() {
                    fl.edges.push(Edge {
                        a: h.lock.clone(),
                        b: lock.clone(),
                        path: file.path.clone(),
                        line: *line,
                    });
                }
                for t in &temps {
                    fl.edges.push(Edge {
                        a: t.clone(),
                        b: lock.clone(),
                        path: file.path.clone(),
                        line: *line,
                    });
                }
                fl.acquired.insert(lock.clone());
                if fl.first.is_none() {
                    fl.first = Some(lock.clone());
                }
                temps.push(lock.clone());
            }
            Event::Call { idx, line } => {
                let holding: Vec<String> = held
                    .iter()
                    .map(|h| h.lock.clone())
                    .chain(temps.iter().cloned())
                    .collect();
                if !holding.is_empty() {
                    fl.calls_holding.push((holding, *idx, *line));
                }
            }
        }
    }

    // Bind: `let` statements keep their first acquisition until scope
    // exit; `for`-header acquisitions live through the loop body.
    if !temps.is_empty() {
        if code[stmt[0]].text == "let" {
            let var = stmt
                .iter()
                .skip(1)
                .map(|&i| &code[i])
                .find(|t| t.kind == TokKind::Ident && t.text != "mut")
                .map(|t| t.text.clone());
            held.push(Held {
                var,
                lock: temps[0].clone(),
                depth,
            });
        } else if is_for_header {
            for lock in &temps {
                held.push(Held {
                    var: None,
                    lock: lock.clone(),
                    depth: depth + 1,
                });
            }
        }
    }
}

/// The first lock a guard-returning function acquires in its own body.
fn first_lock(graph: &CallGraph<'_>, id: FnId) -> Option<String> {
    let file = &graph.files[id.file];
    let f = graph.item(id);
    let code = &file.code;
    let (open, close) = f.body;
    for j in open + 1..close {
        if code[j].text == "lock"
            && j > 0
            && code[j - 1].text == "."
            && code.get(j + 1).is_some_and(|t| t.text == "(")
            && j >= 2
            && code[j - 2].kind == TokKind::Ident
        {
            return Some(format!("{}::{}", file.path, code[j - 2].text));
        }
    }
    None
}
