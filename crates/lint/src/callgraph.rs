//! The intra-workspace call graph and the cross-procedural concurrency
//! rules built on top of it.
//!
//! Call edges are resolved heuristically, in strictness order: receiver
//! type + method name (from the field/param tables), explicit
//! `Type::method` qualifiers, same-file free functions, then a
//! workspace-unique bare name. An ambiguous callee resolves to *nothing*
//! — a missing edge can only lose a finding, never invent one.
//!
//! Two interprocedural fixpoints feed the rules:
//!
//! * `locks_in(f)` — every lock `f` may blocking-acquire, transitively,
//!   with a witness call chain (drives `lock-order` edges and cycles);
//! * `blocks_in(f)` — every blocking operation `f` may perform,
//!   transitively (drives `guard-across-blocking` through calls).

use crate::channels::{self, ChannelMap, ChannelSite, Role};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::locks::{self, BlockKind, FnSummary, LockResolver};
use crate::parse::{FieldInfo, FnItem, ParsedFile};
use crate::rules::{matching_idx, Finding};
use std::collections::BTreeMap;

/// One edge of the interprocedural lock-acquisition-order graph:
/// a guard on `from` was live while `to` was acquired.
#[derive(Debug, Clone)]
pub struct LockOrderEdge {
    /// Lock held.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// File of the acquisition site (direct) or call site (indirect).
    pub file: String,
    /// 1-indexed line of that site.
    pub line: u32,
    /// Witness call chain, `holder -> callee -> acquirer`.
    pub via: String,
}

/// Everything the concurrency analysis produces.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Rule findings, keyed by the caller-supplied file id.
    pub findings: Vec<(usize, Finding)>,
    /// The full lock-order edge list (reported even when acyclic).
    pub edges: Vec<LockOrderEdge>,
    /// Channel inventory.
    pub channels: Vec<ChannelSite>,
}

/// A blocking-op witness: where it happens and through which calls.
#[derive(Debug, Clone)]
struct Witness {
    /// Call chain of fn quals, caller first.
    chain: Vec<String>,
    /// File of the ultimate site.
    file: String,
    /// 1-indexed line of the ultimate site.
    line: u32,
}

struct Node<'a> {
    /// Caller-supplied file id (for finding attribution).
    file_id: usize,
    /// Position in the input slice (for channel-alias scoping).
    file_pos: usize,
    rel: &'a str,
    toks: &'a [Tok],
    item: &'a FnItem,
    summary: FnSummary,
}

fn uniq(v: Option<&Vec<usize>>) -> Option<usize> {
    match v {
        Some(v) if v.len() == 1 => v.first().copied(),
        _ => None,
    }
}

struct Index {
    by_method: BTreeMap<(String, String), Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
    free_in_file: BTreeMap<(usize, String), Vec<usize>>,
}

impl Index {
    fn build(nodes: &[Node<'_>]) -> Index {
        let mut by_method: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free_in_file: BTreeMap<(usize, String), Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name.entry(n.item.name.clone()).or_default().push(i);
            match &n.item.self_ty {
                Some(ty) => by_method
                    .entry((ty.clone(), n.item.name.clone()))
                    .or_default()
                    .push(i),
                None => free_in_file
                    .entry((n.file_pos, n.item.name.clone()))
                    .or_default()
                    .push(i),
            }
        }
        Index {
            by_method,
            by_name,
            free_in_file,
        }
    }

    /// Resolves a call site from `caller_pos` to a node index, or `None`
    /// when ambiguous/unknown.
    fn resolve(
        &self,
        caller_pos: usize,
        name: &str,
        recv_ty: Option<&str>,
        qual_ty: Option<&str>,
    ) -> Option<usize> {
        if let Some(ty) = recv_ty {
            return uniq(self.by_method.get(&(ty.to_string(), name.to_string())));
        }
        if let Some(ty) = qual_ty {
            return uniq(self.by_method.get(&(ty.to_string(), name.to_string())));
        }
        if let Some(i) = uniq(self.free_in_file.get(&(caller_pos, name.to_string()))) {
            return Some(i);
        }
        uniq(self.by_name.get(name))
    }
}

fn txt(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Propagates channel-endpoint aliases through call arguments:
/// `run(id, &rx, ..)` gives `run`'s second parameter the alias of `rx`.
/// Scans raw body tokens (closures handed to `spawn` included — that is
/// exactly how worker loops receive their receivers).
fn propagate_call_args(nodes: &[Node<'_>], index: &Index, chans: &mut ChannelMap) {
    for _round in 0..3 {
        let mut changed = false;
        for n in nodes {
            let (open, close) = n.item.body;
            if open >= close {
                continue;
            }
            let toks = n.toks;
            let mut i = open + 1;
            while i < close {
                let is_call = toks[i].kind == TokKind::Ident
                    && txt(toks, i + 1) == "("
                    && txt(toks, i.wrapping_sub(1)) != "fn"
                    && txt(toks, i.wrapping_sub(1)) != ".";
                if !is_call {
                    i += 1;
                    continue;
                }
                let qual_ty = if txt(toks, i.wrapping_sub(1)) == "::"
                    && toks.get(i.wrapping_sub(2)).map(|t| t.kind) == Some(TokKind::Ident)
                {
                    Some(toks[i - 2].text.clone())
                } else {
                    None
                };
                let Some(callee) =
                    index.resolve(n.file_pos, &toks[i].text, None, qual_ty.as_deref())
                else {
                    i += 1;
                    continue;
                };
                let args_close = matching_idx(toks, i + 1);
                // Split the argument list on top-level commas.
                let mut arg_pos = 0usize;
                let mut j = i + 2;
                let mut arg_start = j;
                while j <= args_close {
                    let end_of_arg = j == args_close || {
                        match txt(toks, j) {
                            "(" | "[" | "{" => {
                                j = matching_idx(toks, j);
                                false
                            }
                            "," => true,
                            _ => false,
                        }
                    };
                    if end_of_arg {
                        // `[&[mut]] name` exactly.
                        let mut p = arg_start;
                        while p < j && matches!(txt(toks, p), "&" | "&&" | "mut") {
                            p += 1;
                        }
                        if p + 1 == j && toks[p].kind == TokKind::Ident {
                            if let Some(ep) =
                                chans.local_of(n.file_pos, &n.item.qual, &toks[p].text)
                            {
                                let cn = &nodes[callee];
                                if let Some(param) = cn.item.params.get(arg_pos) {
                                    if chans
                                        .local_of(cn.file_pos, &cn.item.qual, &param.name)
                                        .is_none()
                                    {
                                        chans.add_local(
                                            cn.file_pos,
                                            &cn.item.qual,
                                            &param.name,
                                            ep,
                                        );
                                        changed = true;
                                    }
                                }
                            }
                        }
                        arg_pos += 1;
                        arg_start = j + 1;
                    }
                    j += 1;
                }
                i += 1;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Kind set of a blocks_in entry rendered for diagnostics.
fn kinds_of(map: &BTreeMap<BlockKind, Witness>) -> String {
    map.keys().map(|k| k.name()).collect::<Vec<_>>().join(", ")
}

/// Runs the whole concurrency analysis over the eligible files.
///
/// Input tuples are `(file id, rel path, lexed, parsed)`; the file id is
/// echoed back on findings so the driver can route them to the right
/// file's allow handling.
pub fn analyze(files: &[(usize, &str, &Lexed, &ParsedFile)]) -> Analysis {
    // Merged field tables: `(type, field)` collisions across files are
    // last-writer-wins, which is fine for a heuristic resolver.
    let mut fields: BTreeMap<(String, String), FieldInfo> = BTreeMap::new();
    for (_, _, _, parsed) in files {
        for (k, v) in &parsed.fields {
            fields.insert(k.clone(), v.clone());
        }
    }
    let resolver = LockResolver { fields: &fields };

    let mut nodes: Vec<Node<'_>> = Vec::new();
    for (pos, &(file_id, rel, lexed, parsed)) in files.iter().enumerate() {
        for item in &parsed.fns {
            if item.in_test {
                continue;
            }
            nodes.push(Node {
                file_id,
                file_pos: pos,
                rel,
                toks: &lexed.toks,
                item,
                summary: locks::summarize(&lexed.toks, item, &resolver),
            });
        }
    }
    let index = Index::build(&nodes);

    // Channel topology: ctor scan + struct-literal promotion, then
    // call-argument propagation over the call graph.
    let inputs: Vec<(usize, &str, &Lexed, &ParsedFile)> = files
        .iter()
        .enumerate()
        .map(|(pos, &(_, rel, lexed, parsed))| (pos, rel, lexed, parsed))
        .collect();
    let mut chans = channels::build(&inputs);
    propagate_call_args(&nodes, &index, &mut chans);

    // Resolve every call site once.
    let resolved: Vec<Vec<(usize, usize)>> = nodes
        .iter()
        .map(|n| {
            n.summary
                .calls
                .iter()
                .enumerate()
                .filter_map(|(ci, c)| {
                    index
                        .resolve(
                            n.file_pos,
                            &c.name,
                            c.recv_ty.as_deref(),
                            c.qual_ty.as_deref(),
                        )
                        .map(|callee| (ci, callee))
                })
                .collect()
        })
        .collect();

    // Resolve every send/recv block site to a channel endpoint.
    let block_endpoints: Vec<Vec<Option<channels::Endpoint>>> = nodes
        .iter()
        .map(|n| {
            n.summary
                .blocks
                .iter()
                .map(|b| {
                    if b.recv_path.is_empty() {
                        return None;
                    }
                    let owner_ty = if b.recv_path.len() >= 2 {
                        resolver.type_of_path(n.item, &b.recv_path[..b.recv_path.len() - 1])
                    } else {
                        None
                    };
                    chans.resolve(n.file_pos, &n.item.qual, &b.recv_path, owner_ty.as_deref())
                })
                .collect()
        })
        .collect();

    // A direct block site "counts" when it can actually block: sends only
    // on channels proven bounded, everything else unconditionally.
    let site_blocks = |ni: usize, bi: usize| -> Option<BlockKind> {
        let b = &nodes[ni].summary.blocks[bi];
        match b.kind {
            BlockKind::SendBounded => match block_endpoints[ni][bi] {
                Some(ep) if chans.is_bounded(ep) => Some(BlockKind::SendBounded),
                _ => None,
            },
            k => Some(k),
        }
    };

    // ---- fixpoint: transitive blocking lock acquisitions ----------------
    let mut locks_in: Vec<BTreeMap<String, Witness>> = nodes
        .iter()
        .map(|n| {
            let mut m = BTreeMap::new();
            for a in &n.summary.acquires {
                if a.blocking {
                    m.entry(a.lock.clone()).or_insert(Witness {
                        chain: vec![n.item.qual.clone()],
                        file: n.rel.to_string(),
                        line: a.line,
                    });
                }
            }
            m
        })
        .collect();
    loop {
        let mut changed = false;
        for ni in 0..nodes.len() {
            for &(_, callee) in &resolved[ni] {
                if callee == ni {
                    continue;
                }
                let additions: Vec<(String, Witness)> = locks_in[callee]
                    .iter()
                    .filter(|(lock, _)| !locks_in[ni].contains_key(*lock))
                    .map(|(lock, w)| {
                        let mut chain = vec![nodes[ni].item.qual.clone()];
                        chain.extend(w.chain.iter().cloned());
                        (
                            lock.clone(),
                            Witness {
                                chain,
                                file: w.file.clone(),
                                line: w.line,
                            },
                        )
                    })
                    .collect();
                if !additions.is_empty() {
                    changed = true;
                    locks_in[ni].extend(additions);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- fixpoint: transitive blocking operations -----------------------
    let mut blocks_in: Vec<BTreeMap<BlockKind, Witness>> = nodes
        .iter()
        .enumerate()
        .map(|(ni, n)| {
            let mut m = BTreeMap::new();
            for bi in 0..n.summary.blocks.len() {
                if let Some(kind) = site_blocks(ni, bi) {
                    let b = &n.summary.blocks[bi];
                    m.entry(kind).or_insert(Witness {
                        chain: vec![n.item.qual.clone()],
                        file: n.rel.to_string(),
                        line: b.line,
                    });
                }
            }
            m
        })
        .collect();
    loop {
        let mut changed = false;
        for ni in 0..nodes.len() {
            for &(_, callee) in &resolved[ni] {
                if callee == ni {
                    continue;
                }
                let additions: Vec<(BlockKind, Witness)> = blocks_in[callee]
                    .iter()
                    .filter(|(kind, _)| !blocks_in[ni].contains_key(*kind))
                    .map(|(kind, w)| {
                        let mut chain = vec![nodes[ni].item.qual.clone()];
                        chain.extend(w.chain.iter().cloned());
                        (
                            *kind,
                            Witness {
                                chain,
                                file: w.file.clone(),
                                line: w.line,
                            },
                        )
                    })
                    .collect();
                if !additions.is_empty() {
                    changed = true;
                    blocks_in[ni].extend(additions);
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Analysis {
        channels: chans.sites.clone(),
        ..Analysis::default()
    };

    // ---- lock-order edges ----------------------------------------------
    // Self-edges are skipped by design: indexed lock arrays
    // (`shards[_]`) normalize to one identity, so `A -> A` would flag
    // every sharded structure that touches two slots.
    struct EdgeInfo {
        file_id: usize,
        file: String,
        line: u32,
        col: u32,
        via: String,
    }
    let mut edges: BTreeMap<(String, String), EdgeInfo> = BTreeMap::new();
    for (ni, n) in nodes.iter().enumerate() {
        for a in &n.summary.acquires {
            let (start, end) = a.extent;
            for b in &n.summary.acquires {
                if b.tok > a.tok && b.tok > start && b.tok < end && b.lock != a.lock {
                    edges
                        .entry((a.lock.clone(), b.lock.clone()))
                        .or_insert(EdgeInfo {
                            file_id: n.file_id,
                            file: n.rel.to_string(),
                            line: b.line,
                            col: b.col,
                            via: n.item.qual.clone(),
                        });
                }
            }
            for (ci, callee) in &resolved[ni] {
                let c = &n.summary.calls[*ci];
                if c.tok <= a.tok || c.tok <= start || c.tok >= end {
                    continue;
                }
                for (lock, w) in &locks_in[*callee] {
                    if *lock == a.lock {
                        continue;
                    }
                    let mut chain = vec![n.item.qual.clone()];
                    chain.extend(w.chain.iter().cloned());
                    edges
                        .entry((a.lock.clone(), lock.clone()))
                        .or_insert(EdgeInfo {
                            file_id: n.file_id,
                            file: n.rel.to_string(),
                            line: c.line,
                            col: n.toks.get(c.tok).map(|t| t.col).unwrap_or(1),
                            via: chain.join(" -> "),
                        });
                }
            }
        }
    }
    for ((from, to), info) in &edges {
        out.edges.push(LockOrderEdge {
            from: from.clone(),
            to: to.clone(),
            file: info.file.clone(),
            line: info.line,
            via: info.via.clone(),
        });
    }

    // ---- rule: lock-order (cycle detection) -----------------------------
    let adj: BTreeMap<&String, Vec<&String>> = {
        let mut m: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            m.entry(from).or_default().push(to);
        }
        m
    };
    // BFS path from -> to over edges; returns the edge sequence.
    let path = |from: &String, to: &String| -> Option<Vec<(String, String)>> {
        let mut prev: BTreeMap<&String, &String> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            if u == to {
                let mut rev = Vec::new();
                let mut cur = u;
                while cur != from {
                    let p = prev[cur];
                    rev.push((p.clone(), cur.clone()));
                    cur = p;
                }
                rev.reverse();
                return Some(rev);
            }
            for &v in adj.get(u).into_iter().flatten() {
                if v != from && !prev.contains_key(v) {
                    prev.insert(v, u);
                    queue.push_back(v);
                }
            }
        }
        None
    };
    let describe = |seq: &[(String, String)]| -> String {
        seq.iter()
            .map(|k| {
                let e = &edges[k];
                format!("{} -> {} at {}:{} (in {})", k.0, k.1, e.file, e.line, e.via)
            })
            .collect::<Vec<_>>()
            .join("; ")
    };
    for (from, to) in edges.keys() {
        if from >= to {
            continue; // one violation per unordered lock pair
        }
        if let Some(back) = path(to, from) {
            let fwd = vec![(from.clone(), to.clone())];
            let info = &edges[&(from.clone(), to.clone())];
            out.findings.push((
                info.file_id,
                Finding {
                    rule: "lock-order",
                    line: info.line,
                    col: info.col,
                    message: format!(
                        "lock-order cycle between `{from}` and `{to}`: forward witness \
                         {f}; reverse witness {b} — these paths deadlock when \
                         interleaved",
                        f = describe(&fwd),
                        b = describe(&back),
                    ),
                },
            ));
        }
    }

    // ---- rule: guard-across-blocking ------------------------------------
    for (ni, n) in nodes.iter().enumerate() {
        for a in &n.summary.acquires {
            let (start, end) = a.extent;
            let mut seen_sites: Vec<usize> = Vec::new();
            for bi in 0..n.summary.blocks.len() {
                let b = &n.summary.blocks[bi];
                if b.tok <= start || b.tok >= end {
                    continue;
                }
                if let Some(kind) = site_blocks(ni, bi) {
                    seen_sites.push(b.tok);
                    out.findings.push((
                        n.file_id,
                        Finding {
                            rule: "guard-across-blocking",
                            line: b.line,
                            col: b.col,
                            message: format!(
                                "guard on `{}` (acquired line {}) is live across a \
                                 blocking {}",
                                a.lock,
                                a.line,
                                kind.name()
                            ),
                        },
                    ));
                }
            }
            for (ci, callee) in &resolved[ni] {
                let c = &n.summary.calls[*ci];
                if c.tok <= start || c.tok >= end || seen_sites.contains(&c.tok) {
                    continue;
                }
                let Some((_, w)) = blocks_in[*callee].iter().next() else {
                    continue;
                };
                let mut chain = vec![n.item.qual.clone()];
                chain.extend(w.chain.iter().cloned());
                out.findings.push((
                    n.file_id,
                    Finding {
                        rule: "guard-across-blocking",
                        line: c.line,
                        col: n.toks.get(c.tok).map(|t| t.col).unwrap_or(1),
                        message: format!(
                            "guard on `{}` (acquired line {}) is live across a call to \
                             `{}`, which may block on {} ({} at {}:{})",
                            a.lock,
                            a.line,
                            nodes[*callee].item.qual,
                            kinds_of(&blocks_in[*callee]),
                            chain.join(" -> "),
                            w.file,
                            w.line,
                        ),
                    },
                ));
            }
        }
    }

    // ---- rule: channel-cycle --------------------------------------------
    // For each bounded channel: a send reachable (via calls) from the
    // channel's own consumer means the consumer can block on its own
    // queue and never drain it.
    let call_adj: Vec<Vec<usize>> = resolved
        .iter()
        .map(|calls| calls.iter().map(|&(_, callee)| callee).collect())
        .collect();
    for chan in 0..chans.sites.len() {
        if !chans.sites[chan].bounded {
            continue;
        }
        let mut consumers: Vec<usize> = Vec::new();
        let mut senders: Vec<(usize, usize)> = Vec::new(); // (node, block idx)
        for (ni, n) in nodes.iter().enumerate() {
            for (bi, b) in n.summary.blocks.iter().enumerate() {
                let Some(ep) = block_endpoints[ni][bi] else {
                    continue;
                };
                if ep.chan != chan {
                    continue;
                }
                match b.kind {
                    BlockKind::Recv if ep.role == Role::Receiver => consumers.push(ni),
                    BlockKind::SendBounded if ep.role == Role::Sender => senders.push((ni, bi)),
                    _ => {}
                }
            }
        }
        if consumers.is_empty() || senders.is_empty() {
            continue;
        }
        for &(si, bi) in &senders {
            // BFS from each consumer to the sending fn (reflexive).
            let mut witness: Option<Vec<String>> = None;
            for &start in &consumers {
                let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
                let mut queue = std::collections::VecDeque::new();
                queue.push_back(start);
                let mut found = start == si;
                while let Some(u) = queue.pop_front() {
                    if u == si {
                        found = true;
                        break;
                    }
                    for &v in &call_adj[u] {
                        if v != start && !prev.contains_key(&v) {
                            prev.insert(v, u);
                            queue.push_back(v);
                        }
                    }
                }
                if found {
                    let mut rev = vec![si];
                    let mut cur = si;
                    while cur != start {
                        match prev.get(&cur) {
                            Some(&p) => {
                                rev.push(p);
                                cur = p;
                            }
                            None => break,
                        }
                    }
                    rev.reverse();
                    witness = Some(rev.iter().map(|&i| nodes[i].item.qual.clone()).collect());
                    break;
                }
            }
            if let Some(chain) = witness {
                let n = &nodes[si];
                let b = &n.summary.blocks[bi];
                let site = &chans.sites[chan];
                out.findings.push((
                    n.file_id,
                    Finding {
                        rule: "channel-cycle",
                        line: b.line,
                        col: b.col,
                        message: format!(
                            "send on the bounded channel created at {}:{} is reachable \
                             from its own consumer ({}): when the queue fills, the \
                             consumer blocks on itself",
                            site.file,
                            site.line,
                            chain.join(" -> "),
                        ),
                    },
                ));
            }
        }
    }

    out
}
