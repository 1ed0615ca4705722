//! `buffalo-lint` — the workspace invariant linter.
//!
//! Buffalo's headline guarantees — bit-identical replay across thread
//! counts, crash/resume, and fault injection — are dynamic properties
//! enforced by `ci.sh`. This crate adds the *static* half: a
//! deny-by-default pass over the workspace source that rejects the code
//! patterns which historically erode those guarantees before they can
//! show up as a flaky golden file. See `DESIGN.md` § "Static invariants"
//! for the rationale behind each rule.
//!
//! One walk per file (`parser.rs`) splits it into items, skipping
//! test-only ones, and records both the `fn` items with their calls and
//! hazards and the sites the four *intra-file* rules judge
//! (`rules.rs`). The three *interprocedural* rules run through one
//! reachability driver over the workspace-wide call graph
//! (`callgraph.rs` → `analyses/`), and their diagnostics carry the full
//! call chain from a declared root to the offending site:
//!
//! * `nondet-iteration` — `HashMap`/`HashSet` banned in decision crates
//!   (plans and schedules must not depend on hash-iteration order or
//!   `RandomState`).
//! * `panic-reachability` — no `unwrap`/`expect`/`panic!`-family site
//!   may be transitively reachable from the recovery/serve/checkpoint
//!   roots; the strict roots also ban reachable `[]`-indexing. Failures
//!   there must surface as `TrainError`.
//! * `wallclock-taint` — `Instant::now`/`SystemTime::now` reads that a
//!   numeric/decision crate can reach; wall-clock feeding numerics would
//!   break replay. Telemetry reads carry per-site waivers.
//! * `rng-stream-discipline` — fault-RNG draws on `Device::alloc` paths
//!   must be unconditional and unlooped, or crash/resume fast-forward
//!   desynchronizes (the static half of the stream-exactness contract).
//! * `undocumented-unsafe` — every `unsafe` block carries a `// SAFETY:`
//!   justification within the three preceding lines.
//! * `undocumented-simd` — every `#[target_feature]` function documents
//!   its SAFETY contract *and* how callers feature-detect before calling
//!   it; raw `std::arch` intrinsics (`_mm*`) outside such functions are
//!   errors — vector kernels are only reachable through detected
//!   dispatch.
//! * `unaccounted-alloc` — types that hold device state (`AllocId` /
//!   `dyn Device`) must not side-allocate with `vec!`/`with_capacity`/
//!   `reserve`/`resize` in their impls; device memory flows through the
//!   memsim accounting API so the OOM simulation stays truthful.
//!
//! Waivers are inline and must justify themselves:
//!
//! ```text
//! // lint:allow(wallclock-taint): reporting-only timestamp
//! ```
//!
//! A waiver is a plain `//` comment (doc comments never waive) placed on
//! the offending line or the line above it. It is line-scoped: for the
//! chain rules it suppresses both hazards *at* that line and chains
//! *through* call edges on that line (a waiver on any frame of a chain
//! suppresses the chain — pruned before traversal, so alternate paths to
//! the same site still surface). A waiver without a reason, naming an
//! unknown rule, or suppressing nothing is itself reported
//! (`invalid-waiver` / `unused-waiver`) — deny-by-default applies to the
//! escape hatch too.

#![forbid(unsafe_code)]

mod analyses;
pub mod callgraph;
pub mod lexer;
pub mod parser;
mod rules;

use callgraph::CallGraph;
use lexer::{lex, Tok, TokKind};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The seven substantive rules. Waiver comments may only name these.
pub const RULES: [&str; 7] = [
    "nondet-iteration",
    "panic-reachability",
    "wallclock-taint",
    "rng-stream-discipline",
    "undocumented-unsafe",
    "undocumented-simd",
    "unaccounted-alloc",
];

/// One frame of an interprocedural call chain: `func` (display name)
/// defined in `file`, with `line` the call site into the next frame —
/// except the last frame, where it is the function's declaration line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub func: String,
    pub file: String,
    pub line: u32,
}

/// One reported violation, with a span into the offending file. The
/// interprocedural rules also attach the root-to-site call chain;
/// intra-file rules leave it empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    pub chain: Vec<Frame>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {}:{}:{}: {}",
            self.rule, self.file, self.line, self.col, self.message
        )
    }
}

/// Per-rule scoping. All path entries are *prefix* matches against the
/// `/`-normalized path relative to the scan root; an empty string matches
/// every file (used by [`Config::all_files`] in fixture tests).
#[derive(Debug, Clone)]
pub struct Config {
    /// `nondet-iteration` applies to files matching any of these.
    pub decision_paths: Vec<String>,
    /// `panic-reachability` roots: every function *defined* in a
    /// matching file is a root, and the analysis follows the call graph
    /// from there — helpers in unlisted files are covered automatically.
    pub panic_roots: Vec<String>,
    /// Root files whose reachable code additionally bans `[]`-indexing
    /// (they parse possibly-torn bytes or run inside the recovery
    /// ladder itself).
    pub strict_roots: Vec<String>,
    /// Files whose functions are *eligible* for the strict indexing
    /// check when reached from a strict root. Keeps the rule honest
    /// without flagging every hot-loop index in the numeric kernels,
    /// which operate on shape-validated data and are gated dynamically
    /// by the golden tests.
    pub strict_scope_paths: Vec<String>,
    /// `wallclock-taint` sinks: functions defined here must not reach a
    /// wall-clock read, even through helpers in other files.
    pub wallclock_sink_paths: Vec<String>,
    /// Files exempt from `unaccounted-alloc` (the accounting API itself,
    /// and the bench harness that measures it).
    pub alloc_exempt_paths: Vec<String>,
}

impl Config {
    /// The scoping used for the real workspace — the contract `ci.sh`
    /// enforces. Keep these lists in sync with DESIGN.md.
    pub fn workspace() -> Self {
        let own = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            // Every crate whose output feeds a plan, a schedule, or the
            // training trail. Iterating a hash container there would tie
            // numerics to RandomState.
            decision_paths: own(&[
                "crates/graph/",
                "crates/blocks/",
                "crates/sampling/",
                "crates/memsim/",
                "crates/bucketing/",
                "crates/partition/",
                "crates/core/",
                "src/",
            ]),
            // The recovery ladder, the serve dispatch loop, and
            // everything checkpoint-adjacent: a panic reachable from
            // here turns a recoverable OOM, device loss, or truncated
            // ring file into an abort.
            panic_roots: own(&[
                "crates/core/src/train/recovery.rs",
                "crates/core/src/checkpoint/",
                "crates/core/src/train/engine.rs",
                "crates/core/src/train/epoch.rs",
                "crates/core/src/train/pipeline.rs",
                "crates/memsim/src/pool.rs",
                "crates/core/src/serve/",
                "crates/bucketing/src/scheduler.rs",
            ]),
            // The strict tier additionally bans reachable indexing:
            // these roots parse bytes from disk (possibly torn) or run
            // inside the recovery ladder itself.
            strict_roots: own(&[
                "crates/core/src/train/recovery.rs",
                "crates/core/src/checkpoint/",
            ]),
            strict_scope_paths: own(&["crates/core/"]),
            // The numeric/decision surface: everything except the bench
            // harness (which exists to measure wall time) and this
            // linter.
            wallclock_sink_paths: own(&[
                "crates/graph/",
                "crates/blocks/",
                "crates/sampling/",
                "crates/memsim/",
                "crates/bucketing/",
                "crates/partition/",
                "crates/tensor/",
                "crates/simd/",
                "crates/par/",
                "crates/core/",
                "src/",
            ]),
            alloc_exempt_paths: own(&["crates/memsim/", "crates/bench/"]),
        }
    }

    /// Every rule applies to every file, no exemptions, every function a
    /// root and a sink. Used by the fixture tests so a one-file snippet
    /// exercises exactly one rule.
    pub fn all_files() -> Self {
        Config {
            decision_paths: vec![String::new()],
            panic_roots: vec![String::new()],
            strict_roots: vec![String::new()],
            strict_scope_paths: vec![String::new()],
            wallclock_sink_paths: vec![String::new()],
            alloc_exempt_paths: Vec::new(),
        }
    }
}

pub(crate) fn path_matches(path: &str, patterns: &[String]) -> bool {
    patterns.iter().any(|p| path.starts_with(p.as_str()))
}

/// A parsed `lint:allow` comment.
#[derive(Debug)]
struct Waiver {
    file: String,
    line: u32,
    col: u32,
    rule: String,
    /// `None` when well-formed; otherwise why the waiver is invalid.
    problem: Option<&'static str>,
}

/// Every waiver in the scanned source set, with usage tracking. The
/// interprocedural analyses consult it directly (site suppression and
/// call-edge pruning both count as *uses*); whatever ends up unused is
/// reported by [`WaiverSet::finish`].
pub(crate) struct WaiverSet {
    waivers: Vec<Waiver>,
    used: Vec<bool>,
}

impl WaiverSet {
    fn new() -> Self {
        WaiverSet {
            waivers: Vec::new(),
            used: Vec::new(),
        }
    }

    fn collect(&mut self, path: &str, toks: &[Tok], skip: &[(usize, usize)]) {
        for mut w in parse_waivers(toks, skip) {
            w.file = path.to_string();
            self.waivers.push(w);
            self.used.push(false);
        }
    }

    /// Index of a well-formed waiver for `rule` covering `line` in
    /// `file` — the waiver's own line (trailing comment) or the line
    /// below it (comment above the offense).
    pub(crate) fn find(&self, rule: &str, file: &str, line: u32) -> Option<usize> {
        self.waivers.iter().position(|w| {
            w.problem.is_none()
                && w.rule == rule
                && w.file == file
                && (w.line == line || w.line + 1 == line)
        })
    }

    pub(crate) fn mark_used(&mut self, ix: usize) {
        self.used[ix] = true;
    }

    /// Emits `invalid-waiver` / `unused-waiver` diagnostics for what is
    /// left over.
    fn finish(self, out: &mut Vec<Diagnostic>) {
        for (w, was_used) in self.waivers.iter().zip(self.used) {
            if let Some(problem) = w.problem {
                out.push(Diagnostic {
                    rule: "invalid-waiver",
                    file: w.file.clone(),
                    line: w.line,
                    col: w.col,
                    message: format!("{problem} (rule: `{}`)", w.rule),
                    chain: Vec::new(),
                });
            } else if !was_used {
                out.push(Diagnostic {
                    rule: "unused-waiver",
                    file: w.file.clone(),
                    line: w.line,
                    col: w.col,
                    message: format!(
                        "waiver for `{}` suppresses nothing on this or the next line — remove it",
                        w.rule
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
}

fn parse_waivers(toks: &[Tok], skip: &[(usize, usize)]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::LineComment || skip.iter().any(|&(s, e)| (s..e).contains(&i)) {
            continue;
        }
        // Waivers are plain `//` comments whose first word is the marker.
        // Doc comments (`///`, `//!`) never waive — an example in rustdoc
        // must not silence a real diagnostic.
        let Some(body) = t.text.strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let Some(rest) = body.trim_start().strip_prefix("lint:allow(") else {
            continue;
        };
        let (rule, problem) = match rest.find(')') {
            None => (String::new(), Some("malformed waiver: missing `)`")),
            Some(close) => {
                let rule = rest[..close].trim().to_string();
                let tail = &rest[close + 1..];
                if !RULES.contains(&rule.as_str()) {
                    (rule, Some("waiver names an unknown rule"))
                } else if !tail.trim_start().starts_with(':')
                    || tail.trim_start()[1..].trim().is_empty()
                {
                    (
                        rule,
                        Some("waiver has no reason — write `lint:allow(<rule>): <why>`"),
                    )
                } else {
                    (rule, None)
                }
            }
        };
        out.push(Waiver {
            file: String::new(),
            line: t.line,
            col: t.col,
            rule,
            problem,
        });
    }
    out
}

/// Call-graph size counters, surfaced by `ci.sh` so resolver
/// regressions (an alias rule silently matching nothing, ambiguity
/// exploding) show up in CI logs instead of as missing diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct GraphStats {
    pub functions: usize,
    pub edges: usize,
    pub ambiguous_sites: usize,
}

/// Lints a set of sources as one program: intra-file rules per file,
/// then the interprocedural analyses over the combined call graph, then
/// waiver resolution. `sources` holds `(path, text)` pairs, the path
/// being what diagnostics report and [`Config`] scoping matches.
pub fn check_sources(sources: &[(String, String)], cfg: &Config) -> (Vec<Diagnostic>, GraphStats) {
    let mut raw = Vec::new();
    let mut ws = WaiverSet::new();
    let mut all_fns = Vec::new();
    for (path, src) in sources {
        let toks = lex(src);
        let items = parser::parse(path, &toks);
        rules::check(path, &toks, &items, cfg, &mut raw);
        ws.collect(path, &toks, &items.gated);
        all_fns.extend(items.fns);
    }

    let g = CallGraph::build(all_fns);
    analyses::run(&g, cfg, &mut ws, &mut raw);
    let stats = GraphStats {
        functions: g.fns.len(),
        edges: g.n_edges,
        ambiguous_sites: g.ambiguous_sites,
    };

    // Site-waiver application for the intra-file rules (the analyses
    // already consulted the set themselves), then the leftovers.
    let mut kept = Vec::new();
    for d in raw {
        match ws.find(d.rule, &d.file, d.line) {
            Some(ix) => ws.mark_used(ix),
            None => kept.push(d),
        }
    }
    ws.finish(&mut kept);
    kept.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    (kept, stats)
}

/// Lints a single file's source in isolation (fixture tests; every
/// function is its own interprocedural universe).
pub fn check_file(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    check_sources(&[(path.to_string(), src.to_string())], cfg).0
}

/// Scan summary returned by [`run_check`].
#[derive(Debug)]
pub struct Report {
    pub diags: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub graph: GraphStats,
}

/// Directory names never descended into: build output, integration tests
/// and fixtures (test code is rule-exempt), bench harness dirs, vendored
/// shims (third-party API surface, not Buffalo code), and VCS metadata.
const SKIP_DIRS: [&str; 6] = ["target", "tests", "benches", "shims", ".git", ".claude"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    // Sorted traversal keeps diagnostic order (and the JSON golden file)
    // independent of readdir order.
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                collect_rs_files(&p, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root` (minus the skipped build/VCS
/// directories) as one program and returns the surviving diagnostics
/// sorted by (file, line, col).
pub fn run_check(root: &Path, cfg: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel, fs::read_to_string(f)?));
    }
    let (diags, graph) = check_sources(&sources, cfg);
    Ok(Report {
        diags,
        files_scanned: files.len(),
        graph,
    })
}

/// Renders diagnostics as a JSON array — stable field order, sorted
/// input preserved — for machine consumption (`--json`). Every object
/// carries a `chain` array (empty for intra-file rules); see DESIGN.md
/// § "Static invariants" for the schema.
pub fn to_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    if diags.is_empty() {
        return String::from("[]");
    }
    let mut s = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        let chain = d
            .chain
            .iter()
            .map(|f| {
                format!(
                    "{{\"fn\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
                    esc(&f.func),
                    esc(&f.file),
                    f.line
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        s.push_str(&format!(
            "  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"chain\":[{}]}}{}\n",
            esc(d.rule),
            esc(&d.file),
            d.line,
            d.col,
            esc(&d.message),
            chain,
            if i + 1 == diags.len() { "" } else { "," }
        ));
    }
    s.push_str("]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(path: &str, src: &str) -> (String, String) {
        (path.to_string(), src.to_string())
    }

    /// A Config with no scoping except the given panic roots.
    fn roots_cfg(panic_roots: &[&str]) -> Config {
        Config {
            decision_paths: Vec::new(),
            panic_roots: panic_roots.iter().map(|s| s.to_string()).collect(),
            strict_roots: Vec::new(),
            strict_scope_paths: Vec::new(),
            wallclock_sink_paths: Vec::new(),
            alloc_exempt_paths: Vec::new(),
        }
    }

    #[test]
    fn waiver_requires_reason() {
        let src = "// lint:allow(nondet-iteration)\nuse std::collections::HashMap;\n";
        let d = check_file("f.rs", src, &Config::all_files());
        assert!(d.iter().any(|d| d.rule == "invalid-waiver"));
        assert!(d.iter().any(|d| d.rule == "nondet-iteration"));
    }

    #[test]
    fn waiver_with_reason_suppresses_and_is_used() {
        let src =
            "// lint:allow(nondet-iteration): fixture container, never iterated\nuse std::collections::HashMap;\n";
        assert!(check_file("f.rs", src, &Config::all_files()).is_empty());
    }

    #[test]
    fn unknown_rule_in_waiver_is_invalid() {
        let src = "// lint:allow(made-up-rule): whatever\nfn f() {}\n";
        let d = check_file("f.rs", src, &Config::all_files());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "invalid-waiver");
    }

    #[test]
    fn retired_rule_names_no_longer_waive() {
        // The pre-interprocedural rule names are gone; a stale waiver
        // neither suppresses the new rule nor passes validation.
        let src = "// lint:allow(no-panic-in-recovery): stale\nfn g(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = check_file("f.rs", src, &Config::all_files());
        assert!(d.iter().any(|d| d.rule == "invalid-waiver"), "{d:?}");
        assert!(d.iter().any(|d| d.rule == "panic-reachability"), "{d:?}");
    }

    #[test]
    fn unused_waiver_is_reported() {
        let src = "// lint:allow(undocumented-unsafe): nothing unsafe here\nfn f() {}\n";
        let d = check_file("f.rs", src, &Config::all_files());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unused-waiver");
    }

    #[test]
    fn doc_comments_never_waive() {
        // A rustdoc example mentioning the waiver syntax must neither
        // suppress anything nor count as an unused waiver.
        let src = "/// Example: `// lint:allow(nondet-iteration): reason`\n//! lint:allow(nondet-iteration): also not a waiver\nfn f() {}\n";
        assert!(check_file("f.rs", src, &Config::all_files()).is_empty());
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert!(check_file("f.rs", src, &Config::all_files()).is_empty());
    }

    #[test]
    fn rule_scoping_respects_paths() {
        let cfg = Config::workspace();
        let src = "use std::collections::HashMap;\n";
        assert!(!check_file("crates/graph/src/lib.rs", src, &cfg).is_empty());
        assert!(check_file("crates/tensor/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn unwrap_gets_single_frame_chain() {
        let d = check_file(
            "f.rs",
            "fn g(x: Option<u32>) -> u32 { x.unwrap() }\n",
            &Config::all_files(),
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "panic-reachability");
        assert_eq!(d[0].chain.len(), 1);
        assert_eq!(d[0].chain[0].func, "g");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn g(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n";
        assert!(check_file("f.rs", src, &Config::all_files()).is_empty());
    }

    #[test]
    fn indexing_flagged_only_in_expressions() {
        let ok = "fn f() { let [a, b] = [1u8, 2]; let _t: [u8; 2] = [a, b]; }\n";
        assert!(check_file("f.rs", ok, &Config::all_files()).is_empty());
        let d = check_file(
            "f.rs",
            "fn f(v: &[u8]) -> u8 { v[0] }\n",
            &Config::all_files(),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "panic-reachability");
    }

    #[test]
    fn wallclock_read_flagged_at_the_read_site() {
        assert!(check_file(
            "f.rs",
            "fn f(t: std::time::Instant) -> std::time::Instant { t }\n",
            &Config::all_files()
        )
        .is_empty());
        let d = check_file(
            "f.rs",
            "fn f() { let _ = std::time::Instant::now(); }\n",
            &Config::all_files(),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "wallclock-taint");
    }

    #[test]
    fn cross_file_chain_reported_from_root() {
        let sources = [
            pair("root.rs", "pub fn ladder() { relay(); }\n"),
            pair(
                "helper.rs",
                "pub fn relay() { finishing(None); }\npub fn finishing(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
        ];
        let (d, stats) = check_sources(&sources, &roots_cfg(&["root.rs"]));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "panic-reachability");
        assert_eq!(d[0].file, "helper.rs");
        let names: Vec<&str> = d[0].chain.iter().map(|f| f.func.as_str()).collect();
        assert_eq!(names, ["ladder", "relay", "finishing"]);
        assert_eq!(stats.functions, 3);
        assert!(stats.edges >= 2);
    }

    #[test]
    fn unreachable_hazard_is_not_flagged() {
        let sources = [
            pair("root.rs", "pub fn ladder() -> u32 { 0 }\n"),
            pair(
                "helper.rs",
                "pub fn stray(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
        ];
        let (d, _) = check_sources(&sources, &roots_cfg(&["root.rs"]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn frame_waiver_prunes_the_chain_and_is_used() {
        let sources = [
            pair(
                "root.rs",
                "pub fn ladder() {\n    // lint:allow(panic-reachability): probe runs under catch_unwind in the ladder\n    relay(None);\n}\n",
            ),
            pair(
                "helper.rs",
                "pub fn relay(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
        ];
        let (d, _) = check_sources(&sources, &roots_cfg(&["root.rs"]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn frame_waiver_keeps_alternate_paths_alive() {
        // Waiving one call edge must not hide the same site reached
        // through a different, unwaived path.
        let sources = [
            pair(
                "root.rs",
                "pub fn ladder() {\n    // lint:allow(panic-reachability): left edge is sandboxed\n    relay(None);\n    other(None);\n}\n",
            ),
            pair(
                "helper.rs",
                "pub fn relay(x: Option<u32>) -> u32 { finishing(x) }\npub fn other(x: Option<u32>) -> u32 { finishing(x) }\npub fn finishing(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
        ];
        let (d, _) = check_sources(&sources, &roots_cfg(&["root.rs"]));
        assert_eq!(d.len(), 1, "{d:?}");
        let names: Vec<&str> = d[0].chain.iter().map(|f| f.func.as_str()).collect();
        assert_eq!(names, ["ladder", "other", "finishing"]);
    }

    #[test]
    fn unused_frame_waiver_is_reported() {
        let sources = [
            pair(
                "root.rs",
                "pub fn ladder() {\n    // lint:allow(panic-reachability): nothing down there panics\n    relay();\n}\n",
            ),
            pair("helper.rs", "pub fn relay() {}\n"),
        ];
        let (d, _) = check_sources(&sources, &roots_cfg(&["root.rs"]));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unused-waiver");
    }

    #[test]
    fn wallclock_taint_crosses_files() {
        let mut cfg = roots_cfg(&[]);
        cfg.wallclock_sink_paths = vec!["sink.rs".to_string()];
        let sources = [
            pair("sink.rs", "pub fn decide() -> u64 { clock_helper() }\n"),
            pair(
                "util.rs",
                "pub fn clock_helper() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ];
        let (d, _) = check_sources(&sources, &cfg);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "wallclock-taint");
        assert_eq!(d[0].file, "util.rs");
        let names: Vec<&str> = d[0].chain.iter().map(|f| f.func.as_str()).collect();
        assert_eq!(names, ["decide", "clock_helper"]);
        // Waiving the read as telemetry clears the board.
        let waived = [
            sources[0].clone(),
            pair(
                "util.rs",
                "pub fn clock_helper() -> u64 {\n    // lint:allow(wallclock-taint): reporting-only timestamp\n    Instant::now().elapsed().as_nanos() as u64\n}\n",
            ),
        ];
        let (d, _) = check_sources(&waived, &cfg);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn conditional_rng_draw_on_alloc_path_is_flagged() {
        let src = "struct F;\nimpl Device for F {\n    fn alloc(&self, c: bool) -> u64 {\n        if c { next_u64() } else { 0 }\n    }\n}\n";
        let d = check_file("f.rs", src, &Config::all_files());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "rng-stream-discipline");
    }

    #[test]
    fn rng_draw_in_helper_called_from_loop_is_flagged() {
        let src = "struct F;\nimpl Device for F {\n    fn alloc(&self) {\n        for _ in 0..3 { helper(); }\n    }\n}\nfn helper() { next_u64(); }\n";
        let d = check_file("f.rs", src, &Config::all_files());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "rng-stream-discipline");
        let names: Vec<&str> = d[0].chain.iter().map(|f| f.func.as_str()).collect();
        assert_eq!(names, ["F::alloc", "helper"]);
    }

    #[test]
    fn single_unconditional_rng_draw_is_clean() {
        let src = "struct F;\nimpl Device for F {\n    fn alloc(&self) -> u64 { next_u64() }\n}\n";
        assert!(check_file("f.rs", src, &Config::all_files()).is_empty());
    }

    #[test]
    fn double_unconditional_rng_draw_is_flagged() {
        let src = "struct F;\nimpl Device for F {\n    fn alloc(&self) -> u64 { next_u64() + next_u64() }\n}\n";
        let d = check_file("f.rs", src, &Config::all_files());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "rng-stream-discipline");
        assert!(d[0].message.contains("second unconditional draw"));
    }

    #[test]
    fn json_escapes_terminates_and_carries_chains() {
        let d = vec![Diagnostic {
            rule: "nondet-iteration",
            file: "a\"b.rs".into(),
            line: 1,
            col: 2,
            message: "tab\there".into(),
            chain: vec![Frame {
                func: "Pool::get".into(),
                file: "pool.rs".into(),
                line: 7,
            }],
        }];
        let j = to_json(&d);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("tab\\there"));
        assert!(j.contains("\"chain\":[{\"fn\":\"Pool::get\",\"file\":\"pool.rs\",\"line\":7}]"));
        assert!(j.ends_with("]\n"));
        // A clean scan renders the bare empty array — what the ci.sh
        // machine-readable gate compares against.
        assert_eq!(to_json(&[]), "[]");
    }
}
