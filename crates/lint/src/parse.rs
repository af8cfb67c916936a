//! A lightweight item parser on top of the lexer: just enough syntax to
//! build a workspace call graph.
//!
//! The parser recognises `fn` / `impl` / `trait` / `mod` / `use` items,
//! records every call expression inside a function body, and extracts the
//! *facts* the taint tiers care about (wall-clock reads, ambient RNG,
//! hash-ordered collections, panic sites) plus the lock-acquisition events
//! the lock-order tier consumes. It is resolutely not a Rust parser: no
//! expressions, no types, no precedence — only item boundaries, brace
//! matching and token patterns. Anything it cannot understand it skips,
//! so a syntactically exotic file degrades to fewer edges, never a crash.

use crate::lexer::{Tok, TokKind};
use crate::scope::TestRegions;
use std::collections::{BTreeMap, BTreeSet};

/// The kinds of sink facts the taint tiers propagate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FactKind {
    /// `SystemTime` / `Instant::now` — a wall-clock read.
    WallClock,
    /// `thread_rng` — an ambient, unseeded RNG.
    Rng,
    /// `HashMap` / `HashSet` — hash-ordered iteration.
    Hash,
    /// `.unwrap()` / `.expect()` / `panic!` / `unreachable!`.
    Panic,
}

/// One sink fact observed in a function body.
#[derive(Debug, Clone)]
pub struct Fact {
    /// What kind of sink this is.
    pub kind: FactKind,
    /// Human-readable token that triggered it (`Instant::now`, `.unwrap()`).
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Path segments of the callee (`["Instant", "now"]`, `["helper"]`).
    /// Method calls carry a single segment.
    pub path: Vec<String>,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// Index of the callee-name token in the file's code-token stream.
    pub tok: usize,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Simple name (`run_pipeline`).
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// `[open, close]` code-token indexes of the body braces (inclusive).
    pub body: (usize, usize),
    /// Entire function (all lines) falls inside a test region.
    pub is_test: bool,
    /// Return type mentions a guard type (`MutexGuard`, …): calling this
    /// function acquires a lock on the caller's behalf.
    pub returns_guard: bool,
    /// Calls in body order (test-region lines excluded).
    pub calls: Vec<Call>,
    /// Sink facts in body order (test-region lines excluded).
    pub facts: Vec<Fact>,
}

/// One bare-`pub` item declaration (`pub(crate)` and friends excluded),
/// recorded outside test regions for the dead-code tier.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// Item keyword: `fn`, `struct`, `enum`, `trait`, `type`, `union`,
    /// `const` or `static`.
    pub kind: &'static str,
    /// Declared name.
    pub name: String,
    /// Line of the name token.
    pub line: u32,
}

/// Per-file parse result: items plus the import/lock-name environment the
/// call-graph and lock tiers need.
#[derive(Debug, Clone)]
pub struct FileIndex {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Short crate name (`sim`, `net`, `rand`, `root`).
    pub crate_name: String,
    /// File stem (`pipeline`), used to resolve `module::fn` paths.
    pub module: String,
    /// Comment-stripped token stream the item spans index into.
    pub code: Vec<Tok>,
    /// Parsed functions in source order.
    pub fns: Vec<FnItem>,
    /// `use` imports: simple name → source crate short name.
    pub imports: BTreeMap<String, String>,
    /// Crates glob-imported with `use foo::*`.
    pub glob_imports: BTreeSet<String>,
    /// Identifiers declared as `Mutex<…>` fields/bindings in this file.
    pub lock_names: BTreeSet<String>,
    /// Identifiers declared as `RwLock<…>` fields/bindings in this file.
    pub rwlock_names: BTreeSet<String>,
    /// Bare-`pub` item declarations outside test regions, in source order.
    pub pub_items: Vec<PubItem>,
    /// Code-token indexes of identifiers that name an item without using
    /// it: declaration names, the self type of an `impl` header, and every
    /// token of a `pub use` re-export.
    pub non_mentions: BTreeSet<usize>,
    /// Code-token indexes inside a public signature, outside test regions:
    /// a bare-`pub` item's header up to its body or `;`, a `pub` field's
    /// type, the whole body of a `pub enum` or `pub trait`, and a trait
    /// impl's header and item signatures. A type named there is exported
    /// through that signature.
    pub signatures: BTreeSet<usize>,
}

/// Short crate name for a workspace-relative path.
fn crate_of(rel_path: &str) -> String {
    let parts: Vec<&str> = rel_path.split('/').collect();
    match parts.as_slice() {
        ["crates", c, ..] => (*c).to_string(),
        ["compat", c, ..] => (*c).to_string(),
        ["src", ..] => "root".to_string(),
        [first, ..] => (*first).to_string(),
        [] => String::new(),
    }
}

/// Normalise a `use`-path root to a short crate name, or `None` when the
/// root is external (`std`, `core`, `alloc`) and can never resolve to a
/// workspace function.
fn normalize_crate_root(seg: &str, own: &str) -> Option<String> {
    match seg {
        "std" | "core" | "alloc" => None,
        "crate" | "self" | "super" => Some(own.to_string()),
        s => Some(s.strip_prefix("thrifty_").unwrap_or(s).to_string()),
    }
}

/// Methods so overwhelmingly likely to be `std` that creating call-graph
/// edges for them would only add noise (`.lock()`/`.send()` are instead
/// handled by the dedicated lock-order and dataflow tiers).
const METHOD_STOPLIST: &[&str] = &[
    "abs", "all", "any", "as_bytes", "as_mut", "as_mut_slice", "as_ref", "as_slice", "as_str",
    "ceil", "chain", "chars", "checked_add", "checked_sub", "chunks", "clear", "clone", "cloned",
    "cmp", "collect", "concat", "contains", "contains_key", "copied", "copy_from_slice", "count",
    "dedup", "drain", "entry", "enumerate", "eq", "expect", "extend", "extend_from_slice",
    "fill", "filter", "filter_map", "find", "first", "flat_map", "flatten", "floor", "flush",
    "fmt", "fold", "from_be_bytes", "from_le_bytes", "get", "get_mut", "hash", "insert",
    "into_iter", "is_empty", "is_err", "is_none", "is_ok", "is_some", "iter", "iter_mut",
    "join", "keys", "last", "len", "lock", "map", "map_err", "max", "max_by", "min", "min_by",
    "ne", "next", "or_insert", "or_insert_with", "parse", "partial_cmp", "peek", "pop",
    "position", "powf", "powi", "push", "push_str", "read", "recv", "remove", "resize",
    "retain", "rev", "round", "saturating_add", "saturating_sub", "send", "skip", "sort",
    "sort_by", "sort_by_key", "sort_unstable", "split", "split_at", "sqrt", "starts_with",
    "sum", "swap", "take", "to_be_bytes", "to_le_bytes", "to_owned", "to_string", "to_vec",
    "trim", "truncate", "try_into", "try_recv", "unwrap", "unwrap_or", "unwrap_or_default",
    "unwrap_or_else", "values", "windows", "wrapping_add", "wrapping_sub", "write", "write_all",
    "zip",
];

/// Free-function names that are `std` prelude staples; a bare call never
/// resolves into the workspace.
const SIMPLE_STOPLIST: &[&str] = &[
    "drop", "min", "max", "size_of", "swap", "replace", "take", "black_box", "identity",
];

/// Rust keywords that can precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type",
    "union", "unsafe", "use", "where", "while", "yield",
];

/// Parse one file into its [`FileIndex`].
pub fn index_file(rel_path: &str, toks: &[Tok], regions: &TestRegions) -> FileIndex {
    let code: Vec<Tok> = toks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .cloned()
        .collect();
    let crate_name = crate_of(rel_path);
    let module = rel_path
        .rsplit('/')
        .next()
        .unwrap_or("")
        .trim_end_matches(".rs")
        .to_string();
    let mut idx = FileIndex {
        path: rel_path.to_string(),
        crate_name,
        module,
        code,
        fns: Vec::new(),
        imports: BTreeMap::new(),
        glob_imports: BTreeSet::new(),
        lock_names: BTreeSet::new(),
        rwlock_names: BTreeSet::new(),
        pub_items: Vec::new(),
        non_mentions: BTreeSet::new(),
        signatures: BTreeSet::new(),
    };
    collect_lock_names(&mut idx);
    collect_declarations(&mut idx, regions);
    let end = idx.code.len();
    let mut p = Parser {
        idx: &mut idx,
        regions,
        i: 0,
    };
    p.items(end, None);
    idx
}

/// Record identifiers declared with a `Mutex<…>` / `RwLock<…>` type or
/// initialised with `Mutex::new` / `RwLock::new`.
fn collect_lock_names(idx: &mut FileIndex) {
    for j in 0..idx.code.len() {
        let t = &idx.code[j];
        if t.kind != TokKind::Ident || (t.text != "Mutex" && t.text != "RwLock") {
            continue;
        }
        let is_type = matches!(idx.code.get(j + 1), Some(n) if n.text == "<");
        let is_ctor = matches!(idx.code.get(j + 1), Some(n) if n.text == "::")
            && matches!(idx.code.get(j + 2), Some(n) if n.text == "new");
        if !is_type && !is_ctor {
            continue;
        }
        // Walk back over the path prefix (`std::sync::Mutex`) to the `:` of
        // a field/binding type or the `=` of an initialiser, then take the
        // identifier before it.
        let mut k = j;
        while k >= 2 && idx.code[k - 1].text == "::" && idx.code[k - 2].kind == TokKind::Ident {
            k -= 2;
        }
        if k == 0 {
            continue;
        }
        let sep = &idx.code[k - 1];
        if sep.text != ":" && sep.text != "=" {
            continue;
        }
        if k < 2 {
            continue;
        }
        // Skip `mut` in `let mut name = Mutex::new(...)`.
        let mut n = k - 2;
        if idx.code[n].text == "mut" && n > 0 {
            n -= 1;
        }
        let name = &idx.code[n];
        if name.kind == TokKind::Ident {
            idx.lock_names.insert(name.text.clone());
            if t.text == "RwLock" {
                idx.rwlock_names.insert(name.text.clone());
            }
        }
    }
}

/// Item keywords whose next identifier is the declared name.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "union", "const", "static", "mod",
];

/// Record bare-`pub` item declarations and the identifier tokens that are
/// not mentions: every declared name, each item-position `impl` header's
/// self type, and every token of a `pub use` statement.
fn collect_declarations(idx: &mut FileIndex, regions: &TestRegions) {
    let code = &idx.code;
    let text = |i: usize| code.get(i).map_or("", |t| t.text.as_str());
    for j in 0..code.len() {
        let t = &code[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "pub" => {
                // `pub(crate) use …` re-exports are re-exports too.
                let mut k = j + 1;
                if text(k) == "(" {
                    while k < code.len() && text(k) != ")" {
                        k += 1;
                    }
                    k += 1;
                }
                if text(k) == "use" {
                    while k < code.len() && text(k) != ";" {
                        idx.non_mentions.insert(k);
                        k += 1;
                    }
                    continue;
                }
                if text(j + 1) == "(" || regions.is_test_line(t.line) {
                    continue;
                }
                let item = declared_item(code, j + 1);
                if let Some((kind, name_at)) = item {
                    if kind != "mod" {
                        idx.pub_items.push(PubItem {
                            kind,
                            name: code[name_at].text.clone(),
                            line: code[name_at].line,
                        });
                    }
                }
                idx.signatures
                    .extend(j..public_signature_end(code, j, item));
            }
            "impl" if j == 0 || matches!(text(j - 1), "}" | ";" | "]" | "{" | "unsafe") => {
                let (self_type, signatures) = impl_header(code, j);
                idx.non_mentions.extend(self_type);
                if !regions.is_test_line(t.line) {
                    idx.signatures.extend(signatures);
                }
            }
            kw if ITEM_KEYWORDS.contains(&kw) => {
                if let Some((_, name_at)) = declared_item(code, j) {
                    idx.non_mentions.insert(name_at);
                }
            }
            _ => {}
        }
    }
}

/// If an item declaration starts at `k` (after any `pub`), its keyword and
/// the code-token index of its name. Qualifiers (`const fn`, `unsafe`,
/// `async`, `extern "C"`) and `static mut` are skipped; `const _` and
/// function-pointer types (`fn(u8)`) declare nothing.
fn declared_item(code: &[Tok], mut k: usize) -> Option<(&'static str, usize)> {
    let text = |i: usize| code.get(i).map_or("", |t| t.text.as_str());
    loop {
        match text(k) {
            "unsafe" | "async" | "extern" => k += 1,
            "const" if matches!(text(k + 1), "fn" | "unsafe" | "async" | "extern") => k += 1,
            _ if code.get(k).is_some_and(|t| t.kind == TokKind::Str) => k += 1,
            _ => break,
        }
    }
    let kind = ITEM_KEYWORDS.iter().find(|kw| **kw == text(k))?;
    let mut name_at = k + 1;
    if *kind == "static" && text(name_at) == "mut" {
        name_at += 1;
    }
    let name = code.get(name_at)?;
    (name.kind == TokKind::Ident && name.text != "_").then_some((kind, name_at))
}

/// One past the last code token of the public signature opened by the
/// `pub` at `start`. For an item (`item` as [`declared_item`] found it)
/// that is its header up to a depth-0 `{` or `;` (or the `=` of a `const`
/// or `static`), taking in the braced body of an `enum` or `trait`; for a
/// field it is the field's type, up to a depth-0 `,` or the closing
/// bracket.
fn public_signature_end(code: &[Tok], start: usize, item: Option<(&str, usize)>) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(start + 1) {
        match (t.text.as_str(), item) {
            ("{", Some((kind, _))) if depth == 0 => {
                if !matches!(kind, "enum" | "trait") {
                    return k;
                }
                depth += 1;
            }
            (";", Some(_)) if depth == 0 => return k,
            ("=", Some(("const" | "static", _))) if depth == 0 => return k,
            (",", None) if depth == 0 => return k,
            ("(" | "[" | "<" | "{", _) => depth += 1,
            (")" | "]" | ">" | "}", _) => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
                if depth == 0 && t.text == "}" && item.is_some() {
                    return k + 1;
                }
            }
            (">>", _) => depth -= 2,
            _ => {}
        }
    }
    code.len()
}

/// The `impl` header at `start`, as two sets of code-token indexes: its
/// self-type path (the depth-0 identifiers after `for`, or all of them
/// without one, up to `where` or the body), and for a trait impl the
/// signatures it exposes: the header and each associated item's signature.
/// A type named there (`type Err = ParseError;`) is as public as the
/// trait. Generic arguments and the trait name stay mentions.
fn impl_header(code: &[Tok], start: usize) -> (Vec<usize>, Vec<usize>) {
    let mut self_type = Vec::new();
    let mut trait_impl = false;
    let mut in_where = false;
    let mut depth = 0i32;
    let mut open = start + 1;
    while let Some(t) = code.get(open) {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "{" | ";" if depth <= 0 => break,
            "where" if depth <= 0 => in_where = true,
            "for" if depth <= 0 && !in_where => {
                trait_impl = true;
                self_type.clear();
            }
            name if depth <= 0
                && !in_where
                && t.kind == TokKind::Ident
                && !KEYWORDS.contains(&name) =>
            {
                self_type.push(open)
            }
            _ => {}
        }
        open += 1;
    }
    let mut signatures = Vec::new();
    if trait_impl && code.get(open).is_some_and(|t| t.text == "{") {
        signatures.extend(start..open);
        let mut braces = 0i32;
        for k in open..code.len() {
            match code[k].text.as_str() {
                "{" => braces += 1,
                "}" => {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                }
                _ if braces == 1 => {
                    if let Some(item) = declared_item(code, k) {
                        signatures.extend(k..public_signature_end(code, k - 1, Some(item)));
                    }
                }
                _ => {}
            }
        }
    }
    (self_type, signatures)
}

struct Parser<'a> {
    idx: &'a mut FileIndex,
    regions: &'a TestRegions,
    i: usize,
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.idx.code.get(i)
    }
    fn text(&self, i: usize) -> &str {
        self.tok(i).map_or("", |t| t.text.as_str())
    }

    /// Index of the token closing the group opened at `open` (same-text
    /// depth counting, good for `{}`, `[]`, `()`).
    fn matching(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.text(open) {
            "{" => ("{", "}"),
            "[" => ("[", "]"),
            "(" => ("(", ")"),
            _ => return None,
        };
        let mut depth = 0usize;
        let mut j = open;
        while j < self.idx.code.len() {
            let t = self.text(j);
            if t == o {
                depth += 1;
            } else if t == c {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            j += 1;
        }
        None
    }

    /// Skip a balanced `<…>` generic group starting at `i` (which must be
    /// `<`). Returns the index just past the closing `>`. `->`, `>=` and
    /// shifts inside are handled textually.
    fn skip_generics(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        while i < self.idx.code.len() {
            match self.text(i) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                ">=" => depth -= 1,
                _ => {}
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
        i
    }

    /// Parse items until `end`, attributing methods to `owner`.
    fn items(&mut self, end: usize, owner: Option<&str>) {
        while self.i < end {
            match self.text(self.i) {
                "#" if self.text(self.i + 1) == "[" => {
                    self.i = self.matching(self.i + 1).map_or(end, |c| c + 1);
                }
                "fn" => self.parse_fn(owner, end),
                "impl" => self.parse_impl_or_trait(end, false),
                "trait" => self.parse_impl_or_trait(end, true),
                "mod" => {
                    // `mod name { … }` — recurse; `mod name;` — skip.
                    let mut j = self.i + 1;
                    while j < end && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        let close = self.matching(j).unwrap_or(end);
                        self.i = j + 1;
                        self.items(close.min(end), owner);
                        self.i = close.saturating_add(1).min(end);
                    } else {
                        self.i = j + 1;
                    }
                }
                "use" => self.parse_use(end),
                _ => self.i += 1,
            }
        }
        self.i = end;
    }

    /// Parse `impl …` / `trait …`, determine the owner type, recurse into
    /// the body.
    fn parse_impl_or_trait(&mut self, end: usize, is_trait: bool) {
        self.i += 1;
        // Collect top-level identifiers between the keyword and `{`;
        // `impl Trait for Type` owns as `Type`, `impl Type` as `Type`,
        // `trait Name` as `Name`. A `for` clause resets the collection so
        // only the implementing type's path remains.
        let mut idents: Vec<String> = Vec::new();
        while self.i < end {
            match self.text(self.i) {
                "{" => break,
                ";" => {
                    // `trait Alias = …;` or similar — no body.
                    self.i += 1;
                    return;
                }
                "<" => self.i = self.skip_generics(self.i),
                "for" => {
                    idents.clear();
                    self.i += 1;
                }
                _ => {
                    if let Some(t) = self.tok(self.i) {
                        if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
                            idents.push(t.text.clone());
                        }
                    }
                    self.i += 1;
                }
            }
        }
        let owner = if is_trait {
            idents.first().cloned()
        } else {
            // The *last* path segment is the type name (`impl foo::Bar`).
            idents.last().cloned()
        };
        if self.text(self.i) != "{" {
            self.i = self.i.min(end);
            return;
        }
        let close = self.matching(self.i).unwrap_or(end);
        self.i += 1;
        self.items(close.min(end), owner.as_deref());
        self.i = close.saturating_add(1).min(end);
    }

    /// Parse `use root::path::{a, b as c, *};` into the import maps.
    fn parse_use(&mut self, end: usize) {
        self.i += 1; // past `use`
        let mut root: Option<String> = None;
        let mut prev_ident: Option<String> = None;
        while self.i < end {
            let t = match self.tok(self.i) {
                Some(t) => t.clone(),
                None => break,
            };
            match t.text.as_str() {
                ";" => {
                    self.i += 1;
                    break;
                }
                "as" => {
                    // The alias that follows is the importable leaf; the
                    // original name (prev_ident) is not visible.
                    prev_ident = None;
                    self.i += 1;
                    if let Some(a) = self.tok(self.i) {
                        if a.kind == TokKind::Ident {
                            if let (Some(r), alias) = (root.clone(), a.text.clone()) {
                                self.idx.imports.insert(alias, r);
                            }
                        }
                    }
                    self.i += 1;
                }
                "*" => {
                    if let Some(r) = &root {
                        self.idx.glob_imports.insert(r.clone());
                    }
                    self.i += 1;
                }
                "," | "}" | "{" | "::" => {
                    // A leaf ends at `,`, `}` or `;` — `::` means the
                    // previous ident was a path segment, not a leaf.
                    if t.text != "::" {
                        if let (Some(r), Some(leaf)) = (root.clone(), prev_ident.take()) {
                            self.idx.imports.insert(leaf, r);
                        }
                    } else {
                        prev_ident = None;
                    }
                    self.i += 1;
                }
                _ => {
                    if t.kind == TokKind::Ident {
                        if root.is_none() {
                            root = normalize_crate_root(&t.text, &self.idx.crate_name);
                            if root.is_none() {
                                // External crate: skip the whole statement.
                                while self.i < end && self.text(self.i) != ";" {
                                    self.i += 1;
                                }
                                continue;
                            }
                        } else {
                            prev_ident = Some(t.text.clone());
                        }
                    }
                    self.i += 1;
                }
            }
        }
        // `use foo::bar;` — the final ident before `;` is a leaf.
        if let (Some(r), Some(leaf)) = (root, prev_ident) {
            self.idx.imports.insert(leaf, r);
        }
    }

    /// Parse one `fn` item starting at `self.i` (which is `fn`).
    fn parse_fn(&mut self, owner: Option<&str>, end: usize) {
        let fn_line = self.tok(self.i).map_or(0, |t| t.line);
        self.i += 1;
        let name = match self.tok(self.i) {
            Some(t) if t.kind == TokKind::Ident => t.text.clone(),
            _ => {
                return;
            }
        };
        self.i += 1;
        if self.text(self.i) == "<" {
            self.i = self.skip_generics(self.i);
        }
        if self.text(self.i) != "(" {
            return;
        }
        let params_close = match self.matching(self.i) {
            Some(c) => c,
            None => {
                self.i = end;
                return;
            }
        };
        self.i = params_close + 1;
        // Return type + where clause: scan to `{` or `;`, noting guard types.
        let mut returns_guard = false;
        while self.i < end {
            match self.text(self.i) {
                "{" | ";" => break,
                "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard" => {
                    returns_guard = true;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        if self.text(self.i) != "{" {
            // Bodyless signature (trait method decl).
            self.i = (self.i + 1).min(end);
            return;
        }
        let open = self.i;
        let close = match self.matching(open) {
            Some(c) => c,
            None => {
                self.i = end;
                return;
            }
        };
        let open_line = self.idx.code[open].line;
        let close_line = self.idx.code[close].line;
        let is_test = self.regions.is_test_line(fn_line)
            && self.regions.is_test_line(open_line)
            && self.regions.is_test_line(close_line);

        let mut item = FnItem {
            name,
            owner: owner.map(|s| s.to_string()),
            line: fn_line,
            body: (open, close),
            is_test,
            returns_guard,
            calls: Vec::new(),
            facts: Vec::new(),
        };
        self.i = open + 1;
        self.scan_body(close, &mut item);
        self.idx.fns.push(item);
        self.i = close + 1;
    }

    /// Scan a function body for calls and facts; recurse on nested `fn`
    /// items (they register as their own functions, and their tokens do
    /// not count against the enclosing one).
    fn scan_body(&mut self, close: usize, item: &mut FnItem) {
        while self.i < close {
            let j = self.i;
            let t = match self.tok(j) {
                Some(t) => t.clone(),
                None => break,
            };
            if t.text == "fn" && t.kind == TokKind::Ident {
                self.parse_fn(None, close);
                continue;
            }
            if t.text == "#" && self.text(j + 1) == "[" {
                self.i = self.matching(j + 1).map_or(close, |c| c + 1).min(close);
                continue;
            }
            if t.kind == TokKind::Ident && !self.regions.is_test_line(t.line) {
                self.fact_at(j, &t, item);
                self.call_at(j, &t, item);
            }
            self.i = j + 1;
        }
        self.i = close;
    }

    /// Record a sink fact if the token at `j` starts one.
    fn fact_at(&self, j: usize, t: &Tok, item: &mut FnItem) {
        let push = |item: &mut FnItem, kind: FactKind, what: &str| {
            // One fact per (kind, what, line) keeps chains stable.
            if !item
                .facts
                .iter()
                .any(|f| f.kind == kind && f.what == what && f.line == t.line)
            {
                item.facts.push(Fact {
                    kind,
                    what: what.to_string(),
                    line: t.line,
                });
            }
        };
        match t.text.as_str() {
            "SystemTime" => push(item, FactKind::WallClock, "SystemTime"),
            "Instant" if self.text(j + 1) == "::" && self.text(j + 2) == "now" => {
                push(item, FactKind::WallClock, "Instant::now")
            }
            "thread_rng" => push(item, FactKind::Rng, "thread_rng"),
            "HashMap" | "HashSet" => push(item, FactKind::Hash, &t.text.clone()),
            "panic" | "unreachable" if self.text(j + 1) == "!" => {
                push(item, FactKind::Panic, &format!("{}!", t.text))
            }
            "unwrap" | "expect"
                if j > 0 && self.text(j - 1) == "." && self.text(j + 1) == "(" =>
            {
                push(item, FactKind::Panic, &format!(".{}()", t.text))
            }
            _ => {}
        }
    }

    /// Record a call expression if the token at `j` is a callee name.
    fn call_at(&self, j: usize, t: &Tok, item: &mut FnItem) {
        if self.text(j + 1) != "(" {
            return;
        }
        let prev = if j > 0 { self.text(j - 1) } else { "" };
        if prev == "." {
            if METHOD_STOPLIST.contains(&t.text.as_str()) {
                return;
            }
            item.calls.push(Call {
                path: vec![t.text.clone()],
                method: true,
                line: t.line,
                tok: j,
            });
        } else if prev == "::" {
            // Walk the whole `a::b::c(` path back to its first segment.
            let mut segs = vec![t.text.clone()];
            let mut k = j;
            while k >= 2 && self.text(k - 1) == "::" {
                let s = self.tok(k - 2);
                match s {
                    Some(s) if s.kind == TokKind::Ident => {
                        segs.push(s.text.clone());
                        k -= 2;
                    }
                    _ => break,
                }
            }
            segs.reverse();
            item.calls.push(Call {
                path: segs,
                method: false,
                line: t.line,
                tok: j,
            });
        } else {
            if KEYWORDS.contains(&t.text.as_str())
                || SIMPLE_STOPLIST.contains(&t.text.as_str())
                || t.text.chars().next().is_some_and(|c| c.is_uppercase())
            {
                return; // keyword, std staple, or tuple-struct/variant ctor
            }
            item.calls.push(Call {
                path: vec![t.text.clone()],
                method: false,
                line: t.line,
                tok: j,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_regions;

    fn index(path: &str, src: &str) -> FileIndex {
        let toks = lex(src);
        let regions = test_regions(path, &toks);
        index_file(path, &toks, &regions)
    }

    #[test]
    fn fns_impls_and_calls_are_extracted() {
        let src = "\
use thrifty_video::nal::write_annex_b;
pub struct S;
impl S {
    pub fn go(&self) {
        helper();
        write_annex_b(&[]);
        Other::make();
        self.step();
    }
}
fn helper() {}
";
        let idx = index("crates/sim/src/fixture.rs", src);
        assert_eq!(idx.crate_name, "sim");
        assert_eq!(idx.module, "fixture");
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["go", "helper"]);
        assert_eq!(idx.fns[0].owner.as_deref(), Some("S"));
        let calls: Vec<String> = idx.fns[0].calls.iter().map(|c| c.path.join("::")).collect();
        assert_eq!(calls, ["helper", "write_annex_b", "Other::make", "step"]);
        assert_eq!(idx.imports.get("write_annex_b").map(String::as_str), Some("video"));
    }

    #[test]
    fn facts_cover_clock_rng_hash_and_panic() {
        let src = "\
fn f() {
    let t = Instant::now();
    let r = thread_rng();
    let m: HashMap<u8, u8> = HashMap::new();
    let v = x.unwrap();
    panic!(\"boom\");
}
";
        let idx = index("crates/net/src/helper.rs", src);
        let kinds: Vec<FactKind> = idx.fns[0].facts.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&FactKind::WallClock));
        assert!(kinds.contains(&FactKind::Rng));
        assert!(kinds.contains(&FactKind::Hash));
        assert!(kinds.contains(&FactKind::Panic));
    }

    #[test]
    fn test_regions_are_excluded_from_facts() {
        let src = "\
fn shipped() {}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
";
        let idx = index("crates/net/src/helper.rs", src);
        let t = idx.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.is_test);
        assert!(t.facts.is_empty());
    }

    #[test]
    fn impl_trait_for_type_owns_methods_by_type() {
        let src = "impl Display for Wire { fn fmt(&self) { helper(); } }";
        let idx = index("crates/net/src/wire.rs", src);
        assert_eq!(idx.fns[0].owner.as_deref(), Some("Wire"));
    }

    #[test]
    fn guard_returning_fn_is_marked() {
        let src = "\
impl P {
    fn lock_free(&self) -> MutexGuard<'_, Vec<u8>> {
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }
}
";
        let idx = index("crates/fleet/src/cache.rs", src);
        assert!(idx.fns[0].returns_guard);
    }

    #[test]
    fn lock_names_are_collected_from_field_types() {
        let src = "struct I { free: Mutex<Vec<u8>>, meta: RwLock<u8> } fn f() {}";
        let idx = index("crates/fleet/src/cache.rs", src);
        assert!(idx.lock_names.contains("free"));
        assert!(idx.rwlock_names.contains("meta"));
        assert!(!idx.rwlock_names.contains("free"));
    }
}
