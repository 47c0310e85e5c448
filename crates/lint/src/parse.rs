//! Item-level parsing for the cross-procedural concurrency analysis.
//!
//! The lexer ([`crate::lexer`]) gives a flat token stream; this module
//! recovers just enough *structure* for the v2 rules without pulling in a
//! real Rust parser: `impl` blocks (so methods know their receiver type),
//! `fn` items with parameter names and base types (so `shared.queues` can
//! be resolved to `PoolShared.queues`), and `struct`/`enum` field types
//! (so `self.state` resolves through `RwLock<State>` and `ShardHandle.tx`
//! is known to be a channel `Sender`).
//!
//! Everything here is heuristic-by-design, like the token rules: the goal
//! is resolving the patterns this workspace actually writes, with the
//! inline-allow escape hatch covering anything the heuristics misjudge.

use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeMap;

/// One function parameter: binding name and *base* type (references,
/// `mut`, and smart-pointer wrappers stripped — `&Arc<PoolShared>` →
/// `PoolShared`).
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name.
    pub name: String,
    /// Base type name (final path segment, wrappers stripped).
    pub ty: String,
}

/// One parsed function (free or method), with its body token range.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Qualified name: `Type::name` for methods, `name` for free fns.
    pub qual: String,
    /// Receiver type for methods (the `impl` target).
    pub self_ty: Option<String>,
    /// Parameters (excluding `self`).
    pub params: Vec<Param>,
    /// Token-index range of the body: `[open_brace, close_brace]`.
    pub body: (usize, usize),
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Whether every body token is test-only code.
    pub in_test: bool,
}

/// A named field of a struct or enum variant.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Base type of the field with wrappers stripped (`Arc<RwLock<State>>`
    /// → `State`).
    pub base_ty: String,
    /// `Some(inner)` when the field type contains `Mutex<inner>` /
    /// `RwLock<inner>` — the field is a lock.
    pub is_lock: bool,
    /// `Some("Sender"|"Receiver")` when the field is a channel endpoint.
    pub chan_endpoint: Option<&'static str>,
}

/// Parsed view of one file: its functions plus workspace-relevant field
/// type information, keyed `(owner type, field name)`.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Functions in source order.
    pub fns: Vec<FnItem>,
    /// `(type name, field name)` → field info, for structs *and* enum
    /// variants (variant fields are keyed by the enum name).
    pub fields: BTreeMap<(String, String), FieldInfo>,
}

fn txt(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Index just past a balanced `<...>` group starting at `open` (which must
/// be `<`). Tolerates `>>`-style closers being lexed as single tokens.
fn skip_generics(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        match txt(toks, i) {
            "<" => depth += 1,
            ">" => depth -= 1,
            ">=" => depth -= 1,
            "->" | ";" | "{" => {
                // A stray arrow/semicolon/brace means this `<` was a
                // comparison, not generics — bail out where we started.
                return open + 1;
            }
            _ => {}
        }
        i += 1;
        if depth == 0 {
            return i;
        }
    }
    i
}

/// Index of the token after the balanced bracket group opening at `open`.
fn skip_group(toks: &[Tok], open: usize) -> usize {
    let close = crate::rules::matching_idx(toks, open);
    close.saturating_add(1)
}

/// Extracts the base type name from a type token slice: strips `&`,
/// `mut`, `dyn`, `impl`, and descends through `Arc<..>` / `Rc<..>` /
/// `Box<..>` / `Option<..>` wrappers; returns the final path segment of
/// what remains (before any `<`).
pub fn base_type(toks: &[Tok], start: usize, end: usize) -> String {
    let mut i = start;
    loop {
        while i < end && matches!(txt(toks, i), "&" | "&&" | "mut" | "dyn" | "impl" | "'") {
            i += 1;
        }
        // Skip a lifetime token if present.
        if i < end && toks[i].kind == TokKind::Lifetime {
            i += 1;
            continue;
        }
        if i < end
            && matches!(txt(toks, i), "Arc" | "Rc" | "Box" | "Option")
            && txt(toks, i + 1) == "<"
        {
            i += 2;
            continue;
        }
        break;
    }
    // Walk the path `a::b::C`, keeping the last segment.
    let mut last = String::new();
    while i < end {
        if toks[i].kind == TokKind::Ident {
            last = toks[i].text.clone();
            i += 1;
            if txt(toks, i) == "::" {
                i += 1;
                continue;
            }
        }
        break;
    }
    last
}

/// Scans a type token slice for `Mutex<` / `RwLock<` and channel
/// endpoints.
fn field_info(toks: &[Tok], start: usize, end: usize) -> FieldInfo {
    let mut is_lock = false;
    let mut chan_endpoint = None;
    for i in start..end {
        if toks[i].kind == TokKind::Ident && txt(toks, i + 1) == "<" {
            match txt(toks, i) {
                "Mutex" | "RwLock" => is_lock = true,
                "Sender" | "SyncSender" => chan_endpoint = Some("Sender"),
                "Receiver" => chan_endpoint = Some("Receiver"),
                _ => {}
            }
        }
    }
    FieldInfo {
        base_ty: base_type(toks, start, end),
        is_lock,
        chan_endpoint,
    }
}

/// Parses `lexed` into functions and field tables.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let toks = &lexed.toks[..];
    let mut out = ParsedFile::default();
    parse_items(toks, 0, toks.len(), None, &mut out);
    out
}

/// Parses items in `[i, end)`; `self_ty` is the enclosing impl target.
fn parse_items(
    toks: &[Tok],
    mut i: usize,
    end: usize,
    self_ty: Option<&str>,
    out: &mut ParsedFile,
) {
    while i < end {
        match txt(toks, i) {
            "impl" => {
                let mut j = i + 1;
                if txt(toks, j) == "<" {
                    j = skip_generics(toks, j);
                }
                // Type path; may be `Trait for Type`.
                let (mut ty, mut k) = read_type_name(toks, j);
                if txt(toks, k) == "for" {
                    let (t2, k2) = read_type_name(toks, k + 1);
                    ty = t2;
                    k = k2;
                }
                // Skip a where clause to the opening brace.
                while k < end && txt(toks, k) != "{" && txt(toks, k) != ";" {
                    k += 1;
                }
                if txt(toks, k) == "{" {
                    let close = crate::rules::matching_idx(toks, k);
                    parse_items(toks, k + 1, close, Some(&ty), out);
                    i = close + 1;
                } else {
                    i = k + 1;
                }
            }
            "struct" | "union" => {
                let name = txt(toks, i + 1).to_string();
                let mut j = i + 2;
                if txt(toks, j) == "<" {
                    j = skip_generics(toks, j);
                }
                while j < end && !matches!(txt(toks, j), "{" | "(" | ";") {
                    j += 1;
                }
                if txt(toks, j) == "{" {
                    let close = crate::rules::matching_idx(toks, j);
                    parse_fields(toks, j + 1, close, &name, out);
                    i = close + 1;
                } else if txt(toks, j) == "(" {
                    i = skip_group(toks, j);
                } else {
                    i = j + 1;
                }
            }
            "enum" => {
                let name = txt(toks, i + 1).to_string();
                let mut j = i + 2;
                if txt(toks, j) == "<" {
                    j = skip_generics(toks, j);
                }
                while j < end && txt(toks, j) != "{" {
                    j += 1;
                }
                if txt(toks, j) == "{" {
                    let close = crate::rules::matching_idx(toks, j);
                    // Variants: named-field groups contribute to the enum's
                    // field table (how `ShardCmd::Query { reply }` resolves).
                    let mut v = j + 1;
                    while v < close {
                        if txt(toks, v) == "{" {
                            let vc = crate::rules::matching_idx(toks, v);
                            parse_fields(toks, v + 1, vc, &name, out);
                            v = vc + 1;
                        } else if txt(toks, v) == "(" {
                            v = skip_group(toks, v);
                        } else {
                            v += 1;
                        }
                    }
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            "fn" => {
                if let Some((item, next)) = parse_fn(toks, i, self_ty) {
                    out.fns.push(item);
                    i = next;
                } else {
                    i += 1;
                }
            }
            "mod" => {
                // Inline module: recurse into its body with no impl target.
                let mut j = i + 1;
                while j < end && !matches!(txt(toks, j), "{" | ";") {
                    j += 1;
                }
                if txt(toks, j) == "{" {
                    let close = crate::rules::matching_idx(toks, j);
                    parse_items(toks, j + 1, close, None, out);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            _ => i += 1,
        }
    }
}

/// Reads a type path at `i`, returning its final segment and the index
/// after the path (generics skipped).
fn read_type_name(toks: &[Tok], mut i: usize) -> (String, usize) {
    let mut last = String::new();
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && !matches!(txt(toks, i), "for" | "where") {
            last = toks[i].text.clone();
            i += 1;
            if txt(toks, i) == "<" {
                i = skip_generics(toks, i);
            }
            if txt(toks, i) == "::" {
                i += 1;
                continue;
            }
        }
        break;
    }
    (last, i)
}

/// Parses named fields `name: Type, ...` in `[i, end)` into `out.fields`.
fn parse_fields(toks: &[Tok], mut i: usize, end: usize, owner: &str, out: &mut ParsedFile) {
    while i < end {
        // Field name is an ident directly followed by `:` (skip
        // attributes and visibility).
        if txt(toks, i) == "#" && txt(toks, i + 1) == "[" {
            i = skip_group(toks, i + 1);
            continue;
        }
        if txt(toks, i) == "pub" {
            i += 1;
            if txt(toks, i) == "(" {
                i = skip_group(toks, i);
            }
            continue;
        }
        if toks[i].kind == TokKind::Ident && txt(toks, i + 1) == ":" {
            let name = toks[i].text.clone();
            let ty_start = i + 2;
            // Type runs to the next top-level comma.
            let mut j = ty_start;
            let mut depth = 0i64;
            while j < end {
                match txt(toks, j) {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "(" | "[" | "{" => {
                        j = crate::rules::matching_idx(toks, j);
                    }
                    "," if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            out.fields
                .insert((owner.to_string(), name), field_info(toks, ty_start, j));
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// Parses one `fn` starting at the `fn` keyword; returns the item and the
/// index after its body (or signature, for trait methods without one).
fn parse_fn(toks: &[Tok], at: usize, self_ty: Option<&str>) -> Option<(FnItem, usize)> {
    let name = toks.get(at + 1)?.text.clone();
    if toks.get(at + 1)?.kind != TokKind::Ident {
        return None;
    }
    let line = toks[at].line;
    let mut j = at + 2;
    if txt(toks, j) == "<" {
        j = skip_generics(toks, j);
    }
    if txt(toks, j) != "(" {
        return None;
    }
    let params_close = crate::rules::matching_idx(toks, j);
    let params = parse_params(toks, j + 1, params_close);
    // Scan to the body `{` or a `;` (trait method signature).
    let mut k = params_close + 1;
    while k < toks.len() && !matches!(txt(toks, k), "{" | ";") {
        if txt(toks, k) == "<" {
            k = skip_generics(toks, k);
            continue;
        }
        k += 1;
    }
    if txt(toks, k) != "{" {
        let item = FnItem {
            name: name.clone(),
            qual: qualify(self_ty, &name),
            self_ty: self_ty.map(str::to_string),
            params,
            body: (k, k),
            line,
            in_test: toks[at].in_test,
        };
        return Some((item, k + 1));
    }
    let close = crate::rules::matching_idx(toks, k);
    let item = FnItem {
        name: name.clone(),
        qual: qualify(self_ty, &name),
        self_ty: self_ty.map(str::to_string),
        params,
        body: (k, close),
        line,
        in_test: toks[at].in_test,
    };
    Some((item, close + 1))
}

fn qualify(self_ty: Option<&str>, name: &str) -> String {
    match self_ty {
        Some(t) => format!("{t}::{name}"),
        None => name.to_string(),
    }
}

/// Parses a parameter list `[i, end)` into `(name, base type)` pairs,
/// skipping `self` receivers and pattern parameters it cannot name.
fn parse_params(toks: &[Tok], mut i: usize, end: usize) -> Vec<Param> {
    let mut out = Vec::new();
    while i < end {
        // One parameter runs to the next top-level comma.
        let mut j = i;
        let mut depth = 0i64;
        while j < end {
            match txt(toks, j) {
                "<" => depth += 1,
                ">" => depth -= 1,
                "(" | "[" | "{" => {
                    j = crate::rules::matching_idx(toks, j);
                }
                "," if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        // Pattern: `[mut] name : Type` (skip `self` in any form).
        let mut p = i;
        while p < j && matches!(txt(toks, p), "&" | "&&" | "mut") {
            p += 1;
        }
        if p < j && toks[p].kind == TokKind::Lifetime {
            p += 1;
            while p < j && txt(toks, p) == "mut" {
                p += 1;
            }
        }
        if p < j
            && txt(toks, p) != "self"
            && toks[p].kind == TokKind::Ident
            && txt(toks, p + 1) == ":"
        {
            out.push(Param {
                name: toks[p].text.clone(),
                ty: base_type(toks, p + 2, j),
            });
        }
        i = j + 1;
    }
    out
}
