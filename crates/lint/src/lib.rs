#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # odalint — workspace static analysis for the ODA determinism contract
//!
//! The runtime's core guarantee — bit-identical `PipelineRun` /
//! `output_digest` replay at any worker count — is enforced dynamically by
//! replay digests and proptests. Those can only catch a nondeterminism
//! source once a seed happens to hit it. `odalint` enforces the invariants
//! *statically*, at the source level, before any test runs:
//!
//! * **determinism** — no wall-clock, ambient environment, unseeded RNG,
//!   or `HashMap`/`HashSet` in the digest-bearing crates;
//! * **panic-safety** — no `unwrap()`/`expect()`/direct indexing on the
//!   capability-execution, bus, and store hot paths;
//! * **float-soundness** — no `==`/`!=` against float literals, no
//!   `partial_cmp().unwrap()`;
//! * **unsafe-audit** — every `unsafe` carries a `// SAFETY:` comment and
//!   every crate without unsafe declares `#![forbid(unsafe_code)]`;
//! * **API-hygiene** — the removed pre-0.2 delegate APIs stay removed.
//!
//! Rules are deny-by-default. Intentional exceptions use the inline escape
//! hatch on (or on the line above) the flagged line:
//!
//! ```text
//! // odalint: allow(wall-clock) -- feeds scheduling telemetry only
//! ```
//!
//! or a file-scoped entry in the committed `odalint.allow` at the repo
//! root. Both *must* carry a justification and *must* suppress at least
//! one real finding — stale allows are themselves violations
//! (`allow-hygiene`), so the allowlist can only shrink or stay honest.

pub mod callgraph;
pub mod channels;
pub mod lexer;
pub mod locks;
pub mod parse;
pub mod report;
pub mod rules;

use rules::{FileClass, Finding};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the committed file-scoped allowlist at the workspace root.
pub const ALLOWLIST_FILE: &str = "odalint.allow";
/// Default report path, relative to the workspace root.
pub const REPORT_FILE: &str = "LINT_report.json";
/// Tool version stamped into the report (kept literal for byte-stability).
pub const VERSION: &str = "0.1.0";

/// Scope configuration: which files the per-scope rule families apply to.
///
/// Paths are workspace-root-relative with `/` separators.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes of digest-bearing code (determinism rules).
    pub digest_prefixes: Vec<String>,
    /// Exact files forming the capability/bus/store hot paths (panic rules).
    pub hot_path_files: Vec<String>,
    /// Path prefixes of vendored shims (only unsafe-audit rules apply).
    pub shim_prefixes: Vec<String>,
    /// Path prefixes never scanned at all.
    pub skip_prefixes: Vec<String>,
    /// File-scoped allow entries (usually parsed from [`ALLOWLIST_FILE`]).
    pub allowlist: Vec<AllowEntry>,
}

impl Config {
    /// The scope map for this workspace.
    pub fn workspace_default() -> Self {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            digest_prefixes: s(&[
                "crates/core/src/",
                "crates/analytics/src/",
                "crates/telemetry/src/",
            ]),
            hot_path_files: s(&[
                "crates/core/src/capability.rs",
                "crates/core/src/pipeline.rs",
                "crates/core/src/runtime.rs",
                "crates/telemetry/src/bus.rs",
                "crates/telemetry/src/cluster/coordinator.rs",
                "crates/telemetry/src/cluster/placement.rs",
                "crates/telemetry/src/cluster/shard.rs",
                "crates/telemetry/src/plane.rs",
                "crates/telemetry/src/query.rs",
                "crates/telemetry/src/store.rs",
                "crates/telemetry/src/storage/mod.rs",
                "crates/telemetry/src/storage/engine.rs",
                "crates/telemetry/src/storage/wal.rs",
                "crates/serve/src/cache.rs",
                "crates/serve/src/fanout.rs",
                "crates/serve/src/http.rs",
                "crates/serve/src/net.rs",
                "crates/serve/src/server.rs",
                "crates/serve/src/tenant.rs",
            ]),
            shim_prefixes: s(&["shims/"]),
            skip_prefixes: s(&[
                "target/",
                ".git/",
                "crates/lint/tests/fixtures/",
                "experiments_out/",
            ]),
            allowlist: Vec::new(),
        }
    }

    fn classify(&self, rel: &str) -> FileClass {
        FileClass {
            digest: self.digest_prefixes.iter().any(|p| rel.starts_with(p)),
            hot: self.hot_path_files.iter().any(|p| p == rel),
            test_file: rel.starts_with("tests/") || rel.contains("/tests/"),
            shim: self.shim_prefixes.iter().any(|p| rel.starts_with(p)),
        }
    }
}

/// One file-scoped allowlist entry: `<rule> <path> -- <justification>`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id being allowed.
    pub rule: String,
    /// Workspace-relative file the allow applies to.
    pub file: String,
    /// Mandatory human justification.
    pub justification: String,
    /// Line in [`ALLOWLIST_FILE`] (for allow-hygiene diagnostics).
    pub line: u32,
}

/// A confirmed violation (no allow matched).
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Human-readable diagnostic.
    pub message: String,
}

/// A finding that an inline or file-scoped allow suppressed.
#[derive(Debug, Clone)]
pub struct Allowed {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// Qualified name of the innermost function spanning the finding
    /// (`Type::method` or `free_fn`), or [`MODULE_ITEM`] outside any.
    pub item: String,
    /// 1-indexed line of the suppressed finding.
    pub line: u32,
    /// Justification carried by the allow.
    pub justification: String,
}

/// The [`Allowed::item`] of a finding outside every function.
pub const MODULE_ITEM: &str = "(module)";

/// Qualified name of the innermost function of `parsed` whose signature or
/// body spans `line`; [`MODULE_ITEM`] when none does.
fn enclosing_item(parsed: &parse::ParsedFile, toks: &[lexer::Tok], line: u32) -> String {
    parsed
        .fns
        .iter()
        .filter(|f| f.line <= line && toks.get(f.body.1).is_some_and(|t| line <= t.line))
        .min_by_key(|f| f.body.1 - f.body.0)
        .map_or_else(|| MODULE_ITEM.to_string(), |f| f.qual.clone())
}

/// An `unsafe` occurrence, workspace-qualified.
#[derive(Debug, Clone)]
pub struct InventoryEntry {
    /// Workspace-relative file.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Whether a `// SAFETY:` comment covers it.
    pub safety_comment: bool,
}

/// The cross-procedural analysis artifacts exported in the v2 report's
/// `concurrency` section.
#[derive(Debug, Default)]
pub struct ConcurrencySummary {
    /// The full lock-acquisition-order edge list (cycles are violations;
    /// the acyclic remainder documents the workspace's lock hierarchy).
    pub lock_order_edges: Vec<callgraph::LockOrderEdge>,
    /// Every channel creation site with boundedness.
    pub channels: Vec<channels::ChannelSite>,
}

/// Result of linting a whole workspace (or one file via [`lint_source`]).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Unallowed findings, sorted by (file, line, col, rule).
    pub violations: Vec<Violation>,
    /// Findings suppressed by a justified allow.
    pub allowed: Vec<Allowed>,
    /// Every `unsafe` in the tree.
    pub unsafe_inventory: Vec<InventoryEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Allowlist entries with their used-flag resolved.
    pub allowlist_used: Vec<(AllowEntry, bool)>,
    /// [`ALLOWLIST_FILE`] line numbers of entries that fired.
    pub allowlist_hits: Vec<u32>,
    /// Lock-order edges and channel inventory from the concurrency pass.
    pub concurrency: ConcurrencySummary,
}

impl Outcome {
    fn sort(&mut self) {
        let key = |v: &Violation| (v.file.clone(), v.line, v.col, v.rule.clone());
        self.violations.sort_by_key(key);
        self.allowed
            .sort_by_key(|a| (a.file.clone(), a.line, a.rule.clone()));
        self.unsafe_inventory
            .sort_by_key(|u| (u.file.clone(), u.line, u.col));
    }
}

/// An inline `// odalint: allow(<rule>) -- <justification>` comment.
#[derive(Debug)]
struct InlineAllow {
    rule: String,
    justification: String,
    /// Line the comment sits on.
    line: u32,
    /// Lines a finding may sit on for this allow to apply.
    targets: Vec<u32>,
    used: bool,
    malformed: Option<&'static str>,
}

/// Parses inline allows out of a file's comments.
fn parse_inline_allows(lexed: &lexer::Lexed) -> Vec<InlineAllow> {
    let code_lines = lexed.code_lines();
    let mut out = Vec::new();
    for c in &lexed.comments {
        // Doc comments are prose (rule documentation quotes the allow
        // syntax); only plain `//` / `/*` comments can carry an allow.
        if c.text.starts_with("///") || c.text.starts_with("//!") || c.text.starts_with("/**") {
            continue;
        }
        let Some(at) = c.text.find("odalint:") else {
            continue;
        };
        let rest = c.text[at + "odalint:".len()..].trim_start();
        let mut allow = InlineAllow {
            rule: String::new(),
            justification: String::new(),
            line: c.line,
            targets: vec![c.line],
            used: false,
            malformed: None,
        };
        if !c.trailing {
            // A whole-line allow covers the next line that has code.
            if let Some(&next) = code_lines.iter().find(|&&l| l > c.line) {
                allow.targets.push(next);
            }
        }
        let ok = rest.strip_prefix("allow(").and_then(|r| {
            let close = r.find(')')?;
            let rule = r[..close].trim().to_string();
            let tail = r[close + 1..].trim();
            let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
            Some((rule, justification.to_string()))
        });
        match ok {
            Some((rule, j)) if !rule.is_empty() && !j.is_empty() => {
                allow.rule = rule;
                allow.justification = j;
            }
            Some(_) => allow.malformed = Some("missing rule or `-- <justification>`"),
            None => allow.malformed = Some("expected `odalint: allow(<rule>) -- <justification>`"),
        }
        out.push(allow);
    }
    out
}

/// Lints one in-memory source file. Inline allows are honoured; the
/// file-scoped allowlist in `cfg` is honoured too. This is the unit the
/// fixture tests drive directly. The concurrency rules run over the
/// single file (a one-file workspace).
pub fn lint_source(rel: &str, src: &str, cfg: &Config) -> Outcome {
    lint_sources(&[(rel, src)], cfg)
}

/// Lints a set of in-memory source files as one workspace: per-file
/// pattern rules, then the cross-procedural concurrency analysis over
/// every non-shim, non-test file, then allow application over the merged
/// findings (so an inline allow can suppress an interprocedural finding
/// landing on its line).
pub fn lint_sources(files: &[(&str, &str)], cfg: &Config) -> Outcome {
    let mut out = Outcome {
        files_scanned: files.len(),
        ..Outcome::default()
    };

    // Pass 1: lex, classify, pattern-scan, parse.
    let mut lexed_files = Vec::with_capacity(files.len());
    for (rel, src) in files {
        let lexed = lexer::lex(src);
        let class = cfg.classify(rel);
        lexed_files.push((*rel, lexed, class));
    }
    let mut findings_per_file: Vec<Vec<Finding>> = Vec::with_capacity(files.len());
    let mut unsafe_per_file = Vec::with_capacity(files.len());
    for (_, lexed, class) in &lexed_files {
        let (findings, unsafe_sites) = rules::scan(lexed, *class);
        findings_per_file.push(findings);
        unsafe_per_file.push(unsafe_sites);
    }

    // Pass 2: concurrency analysis over the eligible files.
    let parsed: Vec<Option<parse::ParsedFile>> = lexed_files
        .iter()
        .map(|(_, lexed, class)| {
            if class.shim || class.test_file {
                None
            } else {
                Some(parse::parse(lexed))
            }
        })
        .collect();
    let inputs: Vec<(usize, &str, &lexer::Lexed, &parse::ParsedFile)> = lexed_files
        .iter()
        .zip(parsed.iter())
        .enumerate()
        .filter_map(|(i, ((rel, lexed, _), p))| p.as_ref().map(|p| (i, *rel, lexed, p)))
        .collect();
    let analysis = callgraph::analyze(&inputs);
    for (file_id, f) in analysis.findings {
        findings_per_file[file_id].push(f);
    }
    out.concurrency = ConcurrencySummary {
        lock_order_edges: analysis.edges,
        channels: analysis.channels,
    };

    // Pass 3: allow application and allow hygiene, per file.
    for (i, (rel, lexed, _)) in lexed_files.iter().enumerate() {
        let mut allows = parse_inline_allows(lexed);
        let findings = std::mem::take(&mut findings_per_file[i]);
        // Shim and test files skip the concurrency pass; parse them here.
        let reparsed;
        let items = match &parsed[i] {
            Some(p) => p,
            None => {
                reparsed = parse::parse(lexed);
                &reparsed
            }
        };
        let item_of = |line| enclosing_item(items, &lexed.toks, line);
        let hits = apply_allows(rel, findings, &mut allows, cfg, &item_of, &mut out);
        out.allowlist_hits.extend(hits);
        for a in &allows {
            if let Some(why) = a.malformed {
                out.violations.push(Violation {
                    rule: "allow-hygiene".into(),
                    file: (*rel).into(),
                    line: a.line,
                    col: 1,
                    message: format!("malformed odalint allow: {why}"),
                });
            } else if !a.used {
                out.violations.push(Violation {
                    rule: "allow-hygiene".into(),
                    file: (*rel).into(),
                    line: a.line,
                    col: 1,
                    message: format!("allow({}) suppresses nothing — remove it", a.rule),
                });
            }
        }
        for u in std::mem::take(&mut unsafe_per_file[i]) {
            out.unsafe_inventory.push(InventoryEntry {
                file: (*rel).into(),
                line: u.line,
                col: u.col,
                safety_comment: u.safety_comment,
            });
        }
    }
    out.sort();
    out
}

/// Routes each finding to violations or allowed, consuming allows.
/// Returns the [`ALLOWLIST_FILE`] line numbers of entries that fired.
fn apply_allows(
    rel: &str,
    findings: Vec<Finding>,
    allows: &mut [InlineAllow],
    cfg: &Config,
    item_of: &dyn Fn(u32) -> String,
    out: &mut Outcome,
) -> Vec<u32> {
    let mut hits = Vec::new();
    for f in findings {
        if let Some(a) = allows
            .iter_mut()
            .find(|a| a.malformed.is_none() && a.rule == f.rule && a.targets.contains(&f.line))
        {
            a.used = true;
            out.allowed.push(Allowed {
                rule: f.rule.into(),
                file: rel.into(),
                item: item_of(f.line),
                line: f.line,
                justification: a.justification.clone(),
            });
            continue;
        }
        if let Some(e) = cfg
            .allowlist
            .iter()
            .find(|e| e.rule == f.rule && e.file == rel)
        {
            hits.push(e.line);
            out.allowed.push(Allowed {
                rule: f.rule.into(),
                file: rel.into(),
                item: item_of(f.line),
                line: f.line,
                justification: e.justification.clone(),
            });
            continue;
        }
        out.violations.push(Violation {
            rule: f.rule.into(),
            file: rel.into(),
            line: f.line,
            col: f.col,
            message: f.message,
        });
    }
    hits
}

/// Parses [`ALLOWLIST_FILE`] content. Format, one entry per line:
///
/// ```text
/// # comment
/// <rule> <path> -- <justification>
/// ```
pub fn parse_allowlist(content: &str) -> Result<Vec<AllowEntry>, String> {
    let known: Vec<&str> = rules::RULES.iter().map(|r| r.id).collect();
    let mut out = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = (i + 1) as u32;
        let (head, justification) = line
            .split_once(" -- ")
            .ok_or_else(|| format!("{ALLOWLIST_FILE}:{lineno}: missing ` -- <justification>`"))?;
        let mut parts = head.split_whitespace();
        let (rule, file) = match (parts.next(), parts.next(), parts.next()) {
            (Some(r), Some(f), None) => (r, f),
            _ => {
                return Err(format!(
                    "{ALLOWLIST_FILE}:{lineno}: expected `<rule> <path> -- <justification>`"
                ))
            }
        };
        if !known.contains(&rule) {
            return Err(format!("{ALLOWLIST_FILE}:{lineno}: unknown rule `{rule}`"));
        }
        if justification.trim().is_empty() {
            return Err(format!("{ALLOWLIST_FILE}:{lineno}: empty justification"));
        }
        out.push(AllowEntry {
            rule: rule.to_string(),
            file: file.to_string(),
            justification: justification.trim().to_string(),
            line: lineno,
        });
    }
    Ok(out)
}

/// Collects every `.rs` file under `root` (sorted, workspace-relative,
/// `/`-separated), honouring `skip_prefixes`.
fn collect_rs_files(root: &Path, cfg: &Config) -> io::Result<Vec<(String, PathBuf)>> {
    let mut stack = vec![root.to_path_buf()];
    let mut out = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let is_dir = entry.file_type()?.is_dir();
            let prefix_probe = if is_dir {
                format!("{rel}/")
            } else {
                rel.clone()
            };
            if cfg
                .skip_prefixes
                .iter()
                .any(|p| prefix_probe.starts_with(p))
            {
                continue;
            }
            if is_dir {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The crate dir a file belongs to: longest `<dir>` with `<dir>/src/lib.rs`
/// among `lib_roots` that prefixes the file, else the root crate `""`.
fn crate_of<'a>(rel: &str, crate_dirs: &'a [String]) -> &'a str {
    crate_dirs
        .iter()
        .filter(|d| !d.is_empty() && rel.starts_with(&format!("{d}/")))
        .max_by_key(|d| d.len())
        .map(String::as_str)
        .unwrap_or("")
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Outcome> {
    let files = collect_rs_files(root, cfg)?;
    let mut out = Outcome::default();
    let mut crate_dirs: Vec<String> = files
        .iter()
        .filter_map(|(rel, _)| rel.strip_suffix("/src/lib.rs").map(str::to_string))
        .collect();
    if files.iter().any(|(rel, _)| rel == "src/lib.rs") {
        crate_dirs.push(String::new());
    }
    crate_dirs.sort();

    let mut crate_unsafe: BTreeMap<String, bool> = BTreeMap::new();
    let mut crate_root_toks: BTreeMap<String, lexer::Lexed> = BTreeMap::new();
    let mut allowlist_hits: BTreeMap<u32, bool> = BTreeMap::new();
    for e in &cfg.allowlist {
        allowlist_hits.insert(e.line, false);
    }

    // Read everything up front: the concurrency pass needs the whole
    // workspace at once (call edges and channel aliases cross files).
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for (rel, path) in &files {
        sources.push((rel.clone(), fs::read_to_string(path)?));
    }
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.as_str()))
        .collect();
    let mut all = lint_sources(&refs, cfg);
    for line in &all.allowlist_hits {
        allowlist_hits.insert(*line, true);
    }
    for (rel, src) in &sources {
        let crate_dir = crate_of(rel, &crate_dirs).to_string();
        let has_unsafe = all.unsafe_inventory.iter().any(|u| &u.file == rel);
        *crate_unsafe.entry(crate_dir.clone()).or_insert(false) |= has_unsafe;
        let lib_rel = if crate_dir.is_empty() {
            "src/lib.rs".to_string()
        } else {
            format!("{crate_dir}/src/lib.rs")
        };
        if *rel == lib_rel {
            crate_root_toks.insert(crate_dir, lexer::lex(src));
        }
    }
    out.files_scanned = all.files_scanned;
    out.violations.append(&mut all.violations);
    out.allowed.append(&mut all.allowed);
    out.unsafe_inventory.append(&mut all.unsafe_inventory);
    out.concurrency = all.concurrency;

    // forbid-unsafe: crate-level policy check on each crate root.
    for (crate_dir, lexed) in &crate_root_toks {
        let has_unsafe = crate_unsafe.get(crate_dir).copied().unwrap_or(false);
        let texts: Vec<&str> = lexed.toks.iter().map(|t| t.text.as_str()).collect();
        let has_attr = |word: &str| {
            texts
                .windows(3)
                .any(|w| w[0] == word && w[1] == "(" && w[2] == "unsafe_code")
        };
        let lib_rel = if crate_dir.is_empty() {
            "src/lib.rs".to_string()
        } else {
            format!("{crate_dir}/src/lib.rs")
        };
        let finding = if !has_unsafe && !has_attr("forbid") {
            Some("crate has no unsafe code but lib.rs lacks #![forbid(unsafe_code)]")
        } else if has_unsafe && !has_attr("deny") && !has_attr("forbid") {
            Some("crate contains unsafe code but lib.rs lacks #![deny(unsafe_code)]")
        } else {
            None
        };
        if let Some(msg) = finding {
            let f = Finding {
                rule: "forbid-unsafe",
                line: 1,
                col: 1,
                message: msg.to_owned(),
            };
            // File-scoped allowlist still applies (no inline form here).
            let module = |_| MODULE_ITEM.to_string();
            for line in apply_allows(&lib_rel, vec![f], &mut [], cfg, &module, &mut out) {
                allowlist_hits.insert(line, true);
            }
        }
    }

    // allow-hygiene over the file-scoped allowlist: stale entries fail.
    for e in &cfg.allowlist {
        let used = allowlist_hits.get(&e.line).copied().unwrap_or(false);
        out.allowlist_used.push((e.clone(), used));
        if !used {
            out.violations.push(Violation {
                rule: "allow-hygiene".into(),
                file: ALLOWLIST_FILE.into(),
                line: e.line,
                col: 1,
                message: format!(
                    "allowlist entry `{} {}` suppresses nothing — remove it",
                    e.rule, e.file
                ),
            });
        }
    }

    out.sort();
    Ok(out)
}
