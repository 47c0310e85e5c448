//! Per-function lock summaries: acquisition sites, guard lifetimes, and
//! what happens *while a guard is live* — further acquisitions, blocking
//! operations, calls into other functions.
//!
//! Guard-lifetime tracking is lexical, mirroring Rust's drop rules at the
//! fidelity a token-level analysis can support:
//!
//! * `let g = path.lock();` (optionally through `.unwrap()` / `.expect()`
//!   / `.unwrap_or_else(..)`) — the guard lives to the end of the
//!   enclosing block, or to an explicit `drop(g)`;
//! * `if let Ok(g) = path.lock() { .. }` / `while let` / `match` arms —
//!   the guard lives for the bound block;
//! * a lock call whose result keeps being method-chained
//!   (`path.read().len()`) or that is never bound — a temporary, dropped
//!   at the end of its statement.

use crate::lexer::{Tok, TokKind};
use crate::parse::{FieldInfo, FnItem};
use crate::rules::matching_idx;
use std::collections::BTreeMap;

/// Methods that acquire a lock by blocking until it is available.
const BLOCKING_ACQUIRE: &[&str] = &["lock", "read", "write"];
/// Methods that acquire a lock without blocking (still produce a guard).
const TRY_ACQUIRE: &[&str] = &["try_lock", "try_read", "try_write"];

/// The operations the `guard-across-blocking` rule treats as blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlockKind {
    /// `.send(..)` on a *bounded* channel sender (blocks when full).
    SendBounded,
    /// `.recv()` / `.recv_timeout(..)` on any channel receiver.
    Recv,
    /// `.join()` on a thread handle.
    Join,
    /// `.flush()` / `.sync_all()` — synchronous I/O barriers.
    Flush,
    /// `Server::poll()` — the serving readiness loop.
    Poll,
}

impl BlockKind {
    /// Human name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            BlockKind::SendBounded => "send on a bounded channel",
            BlockKind::Recv => "recv",
            BlockKind::Join => "join",
            BlockKind::Flush => "flush/sync_all",
            BlockKind::Poll => "Server::poll",
        }
    }
}

/// One lock acquisition inside a function.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Canonical lock identity (see [`LockResolver::resolve`]).
    pub lock: String,
    /// Token index of the method name (`lock`/`read`/...).
    pub tok: usize,
    /// 1-indexed source line.
    pub line: u32,
    /// 1-indexed source column.
    pub col: u32,
    /// Whether the acquisition blocks (`lock()` vs `try_lock()`).
    pub blocking: bool,
    /// Token range `[start, end]` the guard is live over.
    pub extent: (usize, usize),
}

/// A potentially-blocking operation site.
#[derive(Debug, Clone)]
pub struct BlockSite {
    /// What kind of operation.
    pub kind: BlockKind,
    /// Receiver path segments (`["h", "tx"]` for `h.tx.send(..)`) — used
    /// to resolve the channel behind sends and recvs.
    pub recv_path: Vec<String>,
    /// Token index of the op.
    pub tok: usize,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee method/function name.
    pub name: String,
    /// Receiver base type, when resolvable (`self.archive.flush()` →
    /// `StorageBackend`); `None` for free calls or unresolved receivers.
    pub recv_ty: Option<String>,
    /// Explicit path qualifier for `Type::method(..)` calls.
    pub qual_ty: Option<String>,
    /// Token index of the callee name.
    pub tok: usize,
    /// 1-indexed line.
    pub line: u32,
}

/// Everything the concurrency rules need to know about one function.
#[derive(Debug, Default, Clone)]
pub struct FnSummary {
    /// Lock acquisitions with guard extents.
    pub acquires: Vec<Acquire>,
    /// Blocking-operation sites.
    pub blocks: Vec<BlockSite>,
    /// Call sites.
    pub calls: Vec<CallSite>,
}

/// Resolves receiver paths to canonical lock identities and base types
/// using the parsed field tables.
pub struct LockResolver<'a> {
    /// `(owner type, field)` → field info, merged across the workspace.
    pub fields: &'a BTreeMap<(String, String), FieldInfo>,
}

impl LockResolver<'_> {
    /// Base type of `path`'s root within `item`: `self` → the impl type,
    /// a parameter → its declared base type, else unknown.
    fn root_type(&self, item: &FnItem, root: &str) -> Option<String> {
        if root == "self" {
            return item.self_ty.clone();
        }
        item.params
            .iter()
            .find(|p| p.name == root)
            .map(|p| p.ty.clone())
    }

    /// Walks `path` segments through the field tables, returning the base
    /// type at the end, as far as it can be followed.
    pub fn type_of_path(&self, item: &FnItem, segs: &[String]) -> Option<String> {
        let mut ty = self.root_type(item, segs.first()?)?;
        for seg in &segs[1..] {
            let seg = seg.trim_end_matches("[_]");
            match self.fields.get(&(ty.clone(), seg.to_string())) {
                Some(info) => ty = info.base_ty.clone(),
                None => return None,
            }
        }
        Some(ty)
    }

    /// Canonical identity for the lock behind `segs` (the receiver path of
    /// a `.lock()`-style call) inside `item`.
    ///
    /// `self.state` in `impl ClusterCoordinator` → `ClusterCoordinator.state`;
    /// `shared.queues[_]` with `shared: Arc<PoolShared>` →
    /// `PoolShared.queues[_]`; unresolvable roots are qualified by the
    /// function so distinct locals never alias across functions.
    pub fn resolve(&self, item: &FnItem, segs: &[String]) -> String {
        if segs.len() >= 2 {
            // Resolve the owner of the *last* segment (the lock field).
            let owner_segs = &segs[..segs.len() - 1];
            if let Some(owner_ty) = self.type_of_path(item, owner_segs) {
                return format!("{}.{}", owner_ty, segs[segs.len() - 1]);
            }
        }
        if segs.len() == 1 {
            if let Some(ty) = self.root_type(item, &segs[0]) {
                return format!("{}.{}", ty, segs[0]);
            }
        }
        format!("{}::{}", item.qual, segs.join("."))
    }
}

fn txt(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Reads the receiver path ending just before token `dot` (which must be
/// the `.` of a method call): returns path segments, innermost-first
/// reversed into source order. Indexing groups collapse to `[_]`; a call
/// group `(..)` ends the walk (method-call results are not named paths).
pub(crate) fn receiver_path(toks: &[Tok], dot: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut i = dot; // points at `.`
    loop {
        // Before the `.` there may be an index group to fold into the
        // previous segment.
        let mut suffix = String::new();
        let mut j = i; // token index just before `.`
        loop {
            if j == 0 {
                break;
            }
            let prev = j - 1;
            if txt(toks, prev) == "]" {
                // Scan back to the matching `[`.
                let mut depth = 1i64;
                let mut k = prev;
                while k > 0 && depth > 0 {
                    k -= 1;
                    match txt(toks, k) {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
                suffix = format!("[_]{suffix}");
                j = k;
                continue;
            }
            break;
        }
        if j == 0 {
            break;
        }
        let name_idx = j - 1;
        let t = &toks[name_idx];
        if t.kind != TokKind::Ident || t.text == "await" {
            break;
        }
        segs.push(format!("{}{}", t.text, suffix));
        if name_idx == 0 {
            break;
        }
        match txt(toks, name_idx - 1) {
            "." => i = name_idx - 1,
            "::" => {
                // A path-qualified root (`Type::CONST.lock()`): fold the
                // qualifier into the root segment and stop.
                if name_idx >= 2 && toks[name_idx - 2].kind == TokKind::Ident {
                    let root = segs.pop().unwrap_or_default();
                    segs.push(format!("{}::{}", toks[name_idx - 2].text, root));
                }
                break;
            }
            _ => break,
        }
    }
    segs.reverse();
    segs
}

/// True when the token at `i` opens an *empty* argument list `()`.
fn empty_args(toks: &[Tok], i: usize) -> bool {
    txt(toks, i) == "(" && txt(toks, i + 1) == ")"
}

/// Statement end: the next `;` at the current brace depth, or the end of
/// the enclosing block.
fn statement_end(toks: &[Tok], from: usize, block_end: usize) -> usize {
    let mut depth = 0i64;
    let mut i = from;
    while i < block_end {
        match txt(toks, i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    block_end
}

/// Statement start: walk back to just after the previous `;`, `{` or `}`
/// at the current depth.
pub(crate) fn statement_start(toks: &[Tok], from: usize, block_start: usize) -> usize {
    let mut depth = 0i64;
    let mut i = from;
    while i > block_start {
        let prev = i - 1;
        match txt(toks, prev) {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" if depth > 0 => depth -= 1,
            "(" | "[" | "{" => return i,
            ";" if depth == 0 => return i,
            _ => {}
        }
        i = prev;
    }
    block_start
}

/// End index of the block enclosing token `at` within the body
/// `[body_open, body_close]`: the matching `}` of the innermost `{`
/// containing `at`.
fn enclosing_block_end(toks: &[Tok], at: usize, body_open: usize, body_close: usize) -> usize {
    // Walk outward: find the innermost unmatched `{` before `at`.
    let mut depth = 0i64;
    let mut i = at;
    while i > body_open {
        let prev = i - 1;
        match txt(toks, prev) {
            "}" => depth += 1,
            "{" if depth > 0 => depth -= 1,
            "{" => return matching_idx(toks, prev).min(body_close),
            _ => {}
        }
        i = prev;
    }
    body_close
}

/// Computes the guard extent for a lock call at `[dot, close_paren]`.
///
/// Returns `(start, end)` token indexes the guard is live over.
fn guard_extent(
    toks: &[Tok],
    dot: usize,
    close_paren: usize,
    body_open: usize,
    body_close: usize,
) -> (usize, usize) {
    // Follow the method chain after the call: `.unwrap()`, `.expect(..)`,
    // `.unwrap_or_else(..)` preserve the guard; anything else consumes it
    // into a temporary.
    let mut chain_end = close_paren;
    let mut preserved = true;
    loop {
        if txt(toks, chain_end + 1) != "." {
            break;
        }
        let m = txt(toks, chain_end + 2);
        if txt(toks, chain_end + 3) != "(" {
            preserved = false;
            break;
        }
        let c = matching_idx(toks, chain_end + 3);
        if matches!(m, "unwrap" | "expect" | "unwrap_or_else") {
            chain_end = c;
        } else {
            preserved = false;
            break;
        }
    }

    let stmt_start = statement_start(toks, dot, body_open);
    let stmt_end = statement_end(toks, close_paren, body_close);

    // Binding detection.
    let mut bound: Option<String> = None;
    let mut binding_block_end = body_close;
    if txt(toks, stmt_start) == "let" {
        // `let [pattern] = ...` — find the bound name: the last ident
        // before `=` that is not a pattern keyword.
        let mut j = stmt_start + 1;
        let mut name = None;
        while j < dot && txt(toks, j) != "=" {
            if toks[j].kind == TokKind::Ident
                && !matches!(txt(toks, j), "mut" | "ref" | "Ok" | "Some" | "Err" | "None")
            {
                name = Some(toks[j].text.clone());
            }
            j += 1;
        }
        // The guard escapes into the binding when the chain preserved it,
        // or when the initializer is a block form (`match`/`if`) that the
        // lock call sits inside (e.g. the try-then-block-on upgrade
        // pattern in `TelemetryBus::publish`).
        let init_is_block = matches!(txt(toks, j + 1), "match" | "if");
        if preserved || init_is_block {
            bound = name;
            binding_block_end = enclosing_block_end(toks, stmt_start, body_open, body_close);
        }
    } else {
        // `if let Ok(g) = path.lock() {` / `while let ...` — guard lives
        // for the conditional's block.
        let is_cond_let =
            matches!(txt(toks, stmt_start), "if" | "while") && txt(toks, stmt_start + 1) == "let";
        if is_cond_let && preserved {
            // Find the block opened by this conditional: first `{` after
            // the chain at depth 0.
            let mut j = chain_end + 1;
            let mut depth = 0i64;
            while j < body_close {
                match txt(toks, j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth <= 0 => {
                        return (dot, matching_idx(toks, j).min(body_close));
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }

    match bound {
        Some(name) => {
            // Live until `drop(name)` in the same block, else block end.
            let mut j = stmt_end;
            while j < binding_block_end {
                if txt(toks, j) == "drop"
                    && txt(toks, j + 1) == "("
                    && txt(toks, j + 2) == name.as_str()
                    && txt(toks, j + 3) == ")"
                {
                    return (dot, j);
                }
                j += 1;
            }
            (dot, binding_block_end)
        }
        None => (dot, stmt_end),
    }
}

/// Builds the [`FnSummary`] for one function.
///
/// Argument groups of calls named `spawn` are skipped entirely: a closure
/// handed to `thread::Builder::spawn` runs on *another* thread, so its
/// blocking ops and calls must not be attributed to the spawning
/// function (the spawn call itself is still recorded).
pub fn summarize(toks: &[Tok], item: &FnItem, resolver: &LockResolver<'_>) -> FnSummary {
    let (open, close) = item.body;
    let mut out = FnSummary::default();
    if open >= close {
        return out;
    }
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.kind == TokKind::Ident && t.text == "spawn" && txt(toks, i + 1) == "(" {
            if txt(toks, i.wrapping_sub(1)) == "." {
                let segs = receiver_path(toks, i - 1);
                let recv_ty = if segs.is_empty() {
                    None
                } else {
                    resolver.type_of_path(item, &segs)
                };
                out.calls.push(CallSite {
                    name: t.text.clone(),
                    recv_ty,
                    qual_ty: None,
                    tok: i,
                    line: t.line,
                });
            } else {
                let qual_ty = if txt(toks, i.wrapping_sub(1)) == "::"
                    && toks.get(i.wrapping_sub(2)).map(|t| t.kind) == Some(TokKind::Ident)
                {
                    Some(toks[i - 2].text.clone())
                } else {
                    None
                };
                out.calls.push(CallSite {
                    name: t.text.clone(),
                    recv_ty: None,
                    qual_ty,
                    tok: i,
                    line: t.line,
                });
            }
            i = matching_idx(toks, i + 1) + 1;
            continue;
        }
        if t.kind == TokKind::Ident && txt(toks, i.wrapping_sub(1)) == "." {
            let name = t.text.as_str();
            let is_blocking_acq = BLOCKING_ACQUIRE.contains(&name);
            let is_try_acq = TRY_ACQUIRE.contains(&name);
            if (is_blocking_acq || is_try_acq) && empty_args(toks, i + 1) {
                let segs = receiver_path(toks, i - 1);
                if !segs.is_empty() {
                    let lock = resolver.resolve(item, &segs);
                    let extent = guard_extent(toks, i - 1, i + 2, open, close);
                    out.acquires.push(Acquire {
                        lock,
                        tok: i,
                        line: t.line,
                        col: t.col,
                        blocking: is_blocking_acq,
                        extent,
                    });
                    i += 1;
                    continue;
                }
            }
            // Blocking operations.
            let block = match name {
                "send" if txt(toks, i + 1) == "(" && !empty_args(toks, i + 1) => {
                    Some(BlockKind::SendBounded)
                }
                "recv" if empty_args(toks, i + 1) => Some(BlockKind::Recv),
                "recv_timeout" if txt(toks, i + 1) == "(" => Some(BlockKind::Recv),
                "join" if empty_args(toks, i + 1) => Some(BlockKind::Join),
                "flush" if empty_args(toks, i + 1) => Some(BlockKind::Flush),
                "sync_all" if empty_args(toks, i + 1) => Some(BlockKind::Flush),
                "poll" if empty_args(toks, i + 1) => Some(BlockKind::Poll),
                _ => None,
            };
            if let Some(kind) = block {
                out.blocks.push(BlockSite {
                    kind,
                    recv_path: receiver_path(toks, i - 1),
                    tok: i,
                    line: t.line,
                    col: t.col,
                });
            }
            // Method call site.
            if txt(toks, i + 1) == "(" {
                let segs = receiver_path(toks, i - 1);
                let recv_ty = if segs.is_empty() {
                    None
                } else {
                    resolver.type_of_path(item, &segs)
                };
                out.calls.push(CallSite {
                    name: t.text.clone(),
                    recv_ty,
                    qual_ty: None,
                    tok: i,
                    line: t.line,
                });
            }
        } else if t.kind == TokKind::Ident
            && txt(toks, i + 1) == "("
            && txt(toks, i.wrapping_sub(1)) != "fn"
        {
            // Free or path-qualified call `foo(..)` / `Type::foo(..)`.
            let qual_ty = if txt(toks, i.wrapping_sub(1)) == "::"
                && toks.get(i.wrapping_sub(2)).map(|t| t.kind) == Some(TokKind::Ident)
            {
                Some(toks[i - 2].text.clone())
            } else {
                None
            };
            out.calls.push(CallSite {
                name: t.text.clone(),
                recv_ty: None,
                qual_ty,
                tok: i,
                line: t.line,
            });
        }
        i += 1;
    }
    out
}
