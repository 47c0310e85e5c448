//! The odalint rule catalogue.
//!
//! Every rule is a deny-by-default token-pattern pass over one lexed file.
//! Rules are deliberately conservative-textual (no type inference): each
//! one matches a pattern that is either always suspect in its scope, or
//! cheap for a human to justify with an inline
//! `// odalint: allow(<rule>) -- <why>` when the pattern is intentional.

use crate::lexer::{Lexed, Tok, TokKind};

/// Scope classification of one file, derived from [`crate::Config`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// File belongs to a digest-bearing crate (core/analytics/telemetry):
    /// its outputs feed `output_digest` replay, so ambient inputs and
    /// unordered iteration are banned.
    pub digest: bool,
    /// File is on the capability-execution / bus / store hot path:
    /// panicking operators are banned.
    pub hot: bool,
    /// File is test-only (under a `tests/` directory).
    pub test_file: bool,
    /// File is a vendored shim (mirror of an external crate's API): only
    /// the unsafe-audit rules apply.
    pub shim: bool,
}

/// A raw rule hit, before allow processing.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Human-readable diagnostic.
    pub message: String,
}

/// One `unsafe` occurrence, for the report's unsafe inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Whether a `// SAFETY:` comment covers the block.
    pub safety_comment: bool,
}

/// Static description of a rule, surfaced in `LINT_report.json` and by
/// `odalint --explain <rule>`.
pub struct RuleMeta {
    /// Stable rule id, used in allows and the report.
    pub id: &'static str,
    /// What the rule bans and why.
    pub description: &'static str,
    /// Which files the rule applies to.
    pub scope: &'static str,
    /// A minimal flagged snippet, printed by `--explain`.
    pub example: &'static str,
}

/// The full catalogue, in report order.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        id: "wall-clock",
        description: "no SystemTime::now()/Instant::now() in digest-bearing crates; \
                      ambient time breaks bit-identical replay — thread time through \
                      CapabilityContext / the simulated clock",
        scope: "digest crates (core, analytics, telemetry), non-test code",
        example: "let t = Instant::now();   // ambient clock feeds a digest",
    },
    RuleMeta {
        id: "ambient-env",
        description: "no env!()/option_env!()/std::env::var-style ambient inputs in \
                      digest-bearing crates",
        scope: "digest crates, non-test code",
        example: "let path = std::env::var(\"ODA_DIR\");   // ambient input",
    },
    RuleMeta {
        id: "unseeded-rng",
        description: "no thread_rng()/from_entropy()/OsRng/rand::random() — all \
                      randomness must come from an explicit seed",
        scope: "digest crates, non-test code",
        example: "let jitter: f64 = rand::random();   // entropy outside the seed chain",
    },
    RuleMeta {
        id: "hash-iter",
        description: "no HashMap/HashSet in digest-bearing crates: iteration order is \
                      nondeterministic and silently feeds ordered output — use \
                      BTreeMap/BTreeSet, or justify pure-membership use with an allow",
        scope: "digest crates, non-test code",
        example: "let mut by_name: HashMap<String, u64> = HashMap::new();",
    },
    RuleMeta {
        id: "panic-unwrap",
        description: "no .unwrap()/.expect() on the capability-execution / bus / store \
                      hot paths — convert to typed errors or justify the invariant",
        scope: "hot-path files, non-test code",
        example: "let v = series.last().unwrap();   // panics on an empty series",
    },
    RuleMeta {
        id: "panic-index",
        description: "no direct slice/array indexing on hot paths — use get()/get_mut() \
                      or justify the bound (e.g. index is modulo-capacity)",
        scope: "hot-path files, non-test code",
        example: "let r = readings[i];   // panics when i is out of bounds",
    },
    RuleMeta {
        id: "float-eq",
        description: "no ==/!= against float literals — exact float equality is almost \
                      always a bug; use an epsilon or justify the exact-zero guard",
        scope: "workspace (non-shim), non-test code",
        example: "if mean == 0.5 { .. }   // exact float equality",
    },
    RuleMeta {
        id: "float-ord",
        description: "no partial_cmp().unwrap()/.expect() — panics on NaN, and NaN \
                      bursts are a first-class fault here; use f64::total_cmp",
        scope: "workspace (non-shim), non-test code",
        example: "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());   // panics on NaN",
    },
    RuleMeta {
        id: "unsafe-block",
        description: "every `unsafe` requires a `// SAFETY:` comment on or within three \
                      lines above it",
        scope: "workspace including shims and tests",
        example: "unsafe { ptr.read() }   // no // SAFETY: comment above",
    },
    RuleMeta {
        id: "forbid-unsafe",
        description: "a crate containing no unsafe code must declare \
                      #![forbid(unsafe_code)] in its lib.rs; a crate with audited \
                      unsafe must declare #![deny(unsafe_code)]",
        scope: "every workspace crate root (including shims)",
        example: "// lib.rs without #![forbid(unsafe_code)] in an unsafe-free crate",
    },
    RuleMeta {
        id: "deprecated-api",
        description: "the pre-0.2 delegate APIs (QueryEngine method zoo, positional \
                      TelemetryBus::subscribe) are removed — no #[deprecated] shims, \
                      no #[allow(deprecated)], no calls to the removed names",
        scope: "workspace (non-shim)",
        example: "bus.subscribe(pattern, 64);   // removed positional API",
    },
    RuleMeta {
        id: "lock-order",
        description: "cycle in the interprocedural lock-acquisition-order graph: two \
                      paths acquire the same locks in opposite orders, a classic \
                      deadlock. Both witness acquisition paths are printed; break the \
                      cycle by scoping one guard or imposing a global order",
        scope: "workspace (non-shim), non-test code",
        example: "fn a(&self) { let g = self.x.lock(); self.take_y(); }\n\
                  fn b(&self) { let g = self.y.lock(); self.take_x(); }",
    },
    RuleMeta {
        id: "guard-across-blocking",
        description: "a lock guard is live across a blocking operation (send on a \
                      bounded channel, recv, join, flush/sync_all, or Server::poll), \
                      directly or through a call chain — the collector-holding-a-lock-\
                      while-its-consumer-needs-it deadlock shape. Drop or scope the \
                      guard before blocking, or justify why the blocked-on party can \
                      never need the lock",
        scope: "workspace (non-shim), non-test code",
        example: "let state = self.state.read();\n\
                  tx.send(cmd);   // bounded: blocks while holding `state`",
    },
    RuleMeta {
        id: "channel-cycle",
        description: "a send on a bounded channel is reachable (via the call graph) \
                      from that channel's own consumer: when the channel fills, the \
                      consumer blocks on its own queue and can never drain it — the \
                      push/pull hierarchy feedback deadlock",
        scope: "workspace (non-shim), non-test code",
        example: "fn consume(rx: &Receiver<Job>, tx: &Sender<Job>) {\n\
                      while let Ok(j) = rx.recv() { tx.send(retry(j)); }\n\
                  }",
    },
    RuleMeta {
        id: "allow-hygiene",
        description: "every odalint allow must carry a justification and suppress at \
                      least one real finding; stale or malformed allows are violations",
        scope: "workspace",
        example: "// odalint: allow(wall-clock) -- (on a line that no longer fires)",
    },
];

/// Keywords that legitimately precede `[` (slice patterns, array types in
/// expressions) and must not count as indexing.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "return", "match", "if", "while", "loop", "for", "else", "mut", "ref", "move",
    "as", "box", "yield", "static", "const", "dyn", "impl", "where",
];

fn t(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Index of the matching close for the open delimiter at `open` (which
/// must be `(`, `[` or `{`); `toks.len()` when unbalanced. Shared with
/// the item parser and the concurrency analysis.
pub fn matching_idx(toks: &[Tok], open: usize) -> usize {
    matching(toks, open)
}

/// Index of the matching close for the open delimiter at `open` (which
/// must be `(`, `[` or `{`); `toks.len()` when unbalanced.
fn matching(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match t(toks, open) {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => ("{", "}"),
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct {
            if toks[i].text == o {
                depth += 1;
            } else if toks[i].text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    toks.len()
}

/// Runs every pattern rule applicable to `class` over `lexed`, returning
/// raw findings plus the file's unsafe inventory.
pub fn scan(lexed: &Lexed, class: FileClass) -> (Vec<Finding>, Vec<UnsafeSite>) {
    let mut out = Vec::new();
    let toks = &lexed.toks[..];
    let determinism = class.digest && !class.test_file && !class.shim;
    let hot = class.hot && !class.test_file && !class.shim;
    let float = !class.shim && !class.test_file;
    let hygiene = !class.shim;

    for i in 0..toks.len() {
        let tok = &toks[i];
        let here = |rule: &'static str, message: String| Finding {
            rule,
            line: tok.line,
            col: tok.col,
            message,
        };
        let skip_test_tok = tok.in_test;

        if tok.kind == TokKind::Ident {
            match tok.text.as_str() {
                // ---- determinism rules ------------------------------------
                "Instant" | "SystemTime"
                    if determinism
                        && !skip_test_tok
                        && t(toks, i + 1) == "::"
                        && t(toks, i + 2) == "now" =>
                {
                    out.push(here(
                        "wall-clock",
                        format!("`{}::now()` is ambient wall-clock input", tok.text),
                    ));
                }
                "env" | "option_env" if determinism && !skip_test_tok => {
                    if t(toks, i + 1) == "!" {
                        out.push(here(
                            "ambient-env",
                            format!("`{}!` reads the build/ambient environment", tok.text),
                        ));
                    } else if tok.text == "env"
                        && t(toks, i + 1) == "::"
                        && matches!(
                            t(toks, i + 2),
                            "var" | "var_os" | "vars" | "args" | "args_os"
                        )
                    {
                        out.push(here(
                            "ambient-env",
                            format!("`env::{}` reads the process environment", t(toks, i + 2)),
                        ));
                    }
                }
                "thread_rng" | "from_entropy" | "OsRng" | "ThreadRng"
                    if determinism && !skip_test_tok =>
                {
                    out.push(here(
                        "unseeded-rng",
                        format!("`{}` draws entropy outside the seed chain", tok.text),
                    ));
                }
                "rand"
                    if determinism
                        && !skip_test_tok
                        && t(toks, i + 1) == "::"
                        && t(toks, i + 2) == "random" =>
                {
                    out.push(here(
                        "unseeded-rng",
                        "`rand::random` draws entropy outside the seed chain".to_owned(),
                    ));
                }
                "HashMap" | "HashSet" if determinism && !skip_test_tok => {
                    out.push(here(
                        "hash-iter",
                        format!(
                            "`{}` has nondeterministic iteration order in a digest-bearing \
                             crate; use the BTree equivalent or justify membership-only use",
                            tok.text
                        ),
                    ));
                }
                // ---- float-ord --------------------------------------------
                "partial_cmp" if float && !skip_test_tok && t(toks, i + 1) == "(" => {
                    let close = matching(toks, i + 1);
                    if t(toks, close + 1) == "."
                        && matches!(t(toks, close + 2), "unwrap" | "expect")
                    {
                        out.push(here(
                            "float-ord",
                            format!(
                                "`partial_cmp().{}()` panics on NaN; use f64::total_cmp",
                                t(toks, close + 2)
                            ),
                        ));
                    }
                }
                // ---- deprecated-api ---------------------------------------
                "aggregate_many" if hygiene => {
                    out.push(here(
                        "deprecated-api",
                        "`aggregate_many` was a pre-0.2 QueryEngine delegate; use \
                         `Query::sensors(..).aggregate(..).run(..).scalars()`"
                            .to_owned(),
                    ));
                }
                // Positional legacy call `.subscribe(pattern, buffer)`;
                // the builder finisher `.subscribe()` is fine.
                "subscribe"
                    if hygiene && t(toks, i.wrapping_sub(1)) == "." && t(toks, i + 1) == "(" =>
                {
                    let close = matching(toks, i + 1);
                    if close > i + 2 {
                        out.push(here(
                            "deprecated-api",
                            "positional `subscribe(pattern, buffer)` was removed; use \
                             `bus.subscription(pattern).capacity(n).subscribe()`"
                                .to_owned(),
                        ));
                    }
                }
                // `#[deprecated ...]` — introducing new deprecated shims
                // is banned; delete the API instead.
                "deprecated"
                    if hygiene
                        && t(toks, i.wrapping_sub(1)) == "["
                        && t(toks, i.wrapping_sub(2)) == "#" =>
                {
                    out.push(here(
                        "deprecated-api",
                        "do not add #[deprecated] delegate shims; delete the old API \
                         and migrate callers in the same PR"
                            .to_owned(),
                    ));
                }
                // `#[allow(deprecated)]` silences the rustc gate.
                "allow" if hygiene && t(toks, i + 1) == "(" => {
                    let close = matching(toks, i + 1);
                    let in_attr = t(toks, i.wrapping_sub(1)) == "[";
                    if in_attr
                        && toks[i + 1..close]
                            .iter()
                            .any(|x| x.kind == TokKind::Ident && x.text == "deprecated")
                    {
                        out.push(here(
                            "deprecated-api",
                            "#[allow(deprecated)] defeats the deprecation gate".to_owned(),
                        ));
                    }
                }
                _ => {}
            }
        }

        if tok.kind == TokKind::Punct {
            match tok.text.as_str() {
                // ---- panic-unwrap -----------------------------------------
                "." if hot
                    && !skip_test_tok
                    && matches!(t(toks, i + 1), "unwrap" | "expect")
                    && t(toks, i + 2) == "(" =>
                {
                    out.push(Finding {
                        rule: "panic-unwrap",
                        line: toks[i + 1].line,
                        col: toks[i + 1].col,
                        message: format!(
                            "`.{}()` can panic on a hot path; return a typed error or \
                             justify the invariant",
                            t(toks, i + 1)
                        ),
                    });
                }
                // ---- panic-index ------------------------------------------
                "[" if hot && !skip_test_tok && i > 0 => {
                    let prev = &toks[i - 1];
                    let indexes = match prev.kind {
                        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                        TokKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
                        _ => false,
                    };
                    if indexes {
                        out.push(here(
                            "panic-index",
                            "direct indexing can panic on a hot path; use get()/get_mut() \
                             or justify the bound"
                                .to_owned(),
                        ));
                    }
                }
                // ---- float-eq ---------------------------------------------
                "==" | "!=" if float && !skip_test_tok => {
                    let prev_float = i > 0 && toks[i - 1].kind == TokKind::Float;
                    let next_float = toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Float)
                        || (t(toks, i + 1) == "-"
                            && toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Float));
                    if prev_float || next_float {
                        out.push(here(
                            "float-eq",
                            format!(
                                "`{}` against a float literal; use an epsilon or justify \
                                 the exact comparison",
                                tok.text
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }

    // ---- unsafe-audit ---------------------------------------------------
    let mut inventory = Vec::new();
    for tok in toks.iter() {
        if tok.kind == TokKind::Ident && tok.text == "unsafe" {
            let safety = lexed.comments.iter().any(|c| {
                c.line + 3 >= tok.line && c.line <= tok.line && c.text.contains("SAFETY:")
            });
            if !safety {
                out.push(Finding {
                    rule: "unsafe-block",
                    line: tok.line,
                    col: tok.col,
                    message: "`unsafe` without a `// SAFETY:` comment within three lines above"
                        .to_owned(),
                });
            }
            inventory.push(UnsafeSite {
                line: tok.line,
                col: tok.col,
                safety_comment: safety,
            });
        }
    }

    (out, inventory)
}
