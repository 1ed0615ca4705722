//! Interprocedural analyses over the workspace call graph.
//!
//! Three rules live here, each reporting diagnostics that carry the full
//! call chain from a declared root to the offending site:
//!
//! * `panic-reachability` — no panic-capable site may be transitively
//!   reachable from the recovery/serve/checkpoint roots. Every function
//!   *defined* in a root file is a root and the analysis follows the call
//!   graph wherever it goes, so a helper in an unlisted file that the
//!   recovery ladder calls is covered automatically. Two tiers:
//!   `.unwrap()` / `.expect(..)` / `panic!`-family macros are errors when
//!   reachable from *any* root; expression-position `[]` indexing is an
//!   error when reachable from a *strict* root (the checkpoint codec/ring
//!   and the recovery ladder, which parse possibly-torn bytes) **and**
//!   the containing function is defined inside `strict_scope_paths`. The
//!   scope cut keeps the rule honest: once validated data reaches the
//!   numeric kernels, indexing is bounds-proven by shape construction and
//!   gated dynamically by the golden tests.
//! * `wallclock-taint` — a function whose return value can derive from
//!   `Instant::now()` / `SystemTime::now()` is *tainted*, and calling it
//!   from a numeric/decision crate (`wallclock_sink_paths`) taints the
//!   caller's computation. "Derives from" is over-approximated as
//!   "calls, transitively": a clock read reachable from a sink function is
//!   reported at the *read site*, so telemetry waivers stay on the line
//!   that actually touches the clock.
//! * [`rng`] — `rng-stream-discipline`: fault-RNG draws on
//!   `Device::alloc` paths that are conditional, looped, or duplicated —
//!   the static half of the `fast_forward` stream-exactness contract.
//!
//! The first two are plain reachability: each is one [`ChainRule`] — its
//! roots, which sites count, its message — run by [`run_chain_rule`]. The
//! RNG rule keeps its own walk, which carries branch/loop flags, and
//! shares the pruning, chain and waiver-settling pieces.
//!
//! Waiver semantics shared by all three: a waiver on the *site* line (or
//! the line above) suppresses every chain ending at that site, and counts
//! as used only when the site is reachable. A waiver on a *call-site*
//! line along a chain prunes that call edge before the traversal runs, so
//! alternate paths to the same site still surface. Pruned edges that
//! never mattered (the callee reaches no hazard, or the caller is
//! unreachable) leave their waiver unused, and `unused-waiver` reports
//! it.

pub(crate) mod rng;

use crate::callgraph::{CallGraph, Edge};
use crate::parser::{FnItem, HazardKind, HazardSite};
use crate::{path_matches, Config, Diagnostic, Frame, WaiverSet};
use std::collections::VecDeque;

/// Runs the three interprocedural rules.
pub(crate) fn run(g: &CallGraph, cfg: &Config, ws: &mut WaiverSet, out: &mut Vec<Diagnostic>) {
    run_chain_rule(
        g,
        &ChainRule {
            rule: "panic-reachability",
            roots: vec![
                g.fns_in_paths(&cfg.panic_roots),
                g.fns_in_paths(&cfg.strict_roots),
            ],
            tier_of: &|f, h| match h.kind {
                HazardKind::Panic => Some(0),
                HazardKind::Index if path_matches(&f.file, &cfg.strict_scope_paths) => Some(1),
                _ => None,
            },
            head: &|tier, h, frames| {
                let (root_kind, advice) = if tier == 0 {
                    (
                        "recovery",
                        "convert to `TrainError` (or waive with a proof of infallibility)",
                    )
                } else {
                    (
                        "strict recovery",
                        "use `.get()` and surface `TrainError` (or waive with a bounds proof)",
                    )
                };
                format!(
                    "`{}` reachable from {root_kind} root `{}` — {advice}",
                    h.what, frames[0].func
                )
            },
        },
        ws,
        out,
    );
    run_chain_rule(
        g,
        &ChainRule {
            rule: "wallclock-taint",
            roots: vec![g.fns_in_paths(&cfg.wallclock_sink_paths)],
            tier_of: &|_, h| (h.kind == HazardKind::Wallclock).then_some(0),
            head: &|_, h, frames| {
                format!(
                    "`{}` taints numeric/decision code: `{}` (in {}) reaches the read — \
                     thread a logical counter instead, or waive the read as telemetry",
                    h.what, frames[0].func, frames[0].file
                )
            },
        },
        ws,
        out,
    );
    rng::run(g, ws, out);
}

/// A reachability rule: every hazard site that counts for it and is
/// reachable from its roots is an error.
struct ChainRule<'a> {
    rule: &'static str,
    /// One root set per tier.
    roots: Vec<Vec<usize>>,
    /// The tier a hazard site of a function counts in, if any.
    tier_of: &'a dyn Fn(&FnItem, &HazardSite) -> Option<usize>,
    /// The message for a reachable site, given its tier and exemplar
    /// chain; [`chain_diag`] appends the chain itself.
    head: &'a dyn Fn(usize, &HazardSite, &[Frame]) -> String,
}

/// Prunes waived edges, walks from each tier's roots, reports every
/// reachable unwaived site with its exemplar chain, and settles the
/// waivers.
fn run_chain_rule(g: &CallGraph, r: &ChainRule, ws: &mut WaiverSet, out: &mut Vec<Diagnostic>) {
    let pruned = prune(g, r.rule, ws);
    let walks: Vec<_> = r
        .roots
        .iter()
        .map(|roots| bfs(&pruned.adj, roots))
        .collect();
    let mut hazard_fns = vec![false; g.fns.len()];
    for (i, f) in g.fns.iter().enumerate() {
        for h in &f.hazards {
            let Some(tier) = (r.tier_of)(f, h) else {
                continue;
            };
            let (reach, parent) = &walks[tier];
            // A site waiver suppresses every chain ending here; it only
            // counts as used when it actually silenced a reachable site,
            // so a waiver on dead code still fails as `unused-waiver`.
            if let Some(w) = ws.find(r.rule, &f.file, h.line) {
                if reach[i] {
                    ws.mark_used(w);
                }
                continue;
            }
            hazard_fns[i] = true;
            if reach[i] {
                let frames = chain_to(g, parent, i);
                let head = (r.head)(tier, h, &frames);
                out.push(chain_diag(r.rule, f, h.line, h.col, &h.what, head, frames));
            }
        }
    }
    let reachable: Vec<bool> = (0..g.fns.len())
        .map(|i| walks.iter().any(|(reach, _)| reach[i]))
        .collect();
    settle(ws, &pruned, &reachable, &hazard_fns);
}

/// Adjacency with waived call edges removed, plus the claims each pruned
/// edge makes on its waiver (resolved to used/unused after traversal).
pub(crate) struct Pruned {
    pub adj: Vec<Vec<Edge>>,
    /// (waiver index, from fn, to fn) for every pruned edge.
    pub claims: Vec<(usize, usize, usize)>,
}

/// Removes every call edge whose call-site line carries a well-formed
/// waiver for `rule` in the caller's file.
pub(crate) fn prune(g: &CallGraph, rule: &str, ws: &WaiverSet) -> Pruned {
    let mut adj: Vec<Vec<Edge>> = Vec::with_capacity(g.edges.len());
    let mut claims = Vec::new();
    for (from, out) in g.edges.iter().enumerate() {
        let mut kept = Vec::with_capacity(out.len());
        for e in out {
            match ws.find(rule, &g.fns[from].file, e.line) {
                Some(w) => claims.push((w, from, e.to)),
                None => kept.push(e.clone()),
            }
        }
        adj.push(kept);
    }
    Pruned { adj, claims }
}

/// Breadth-first reachability from `roots` (visited in the given order,
/// which the caller keeps sorted for determinism). Returns the reachable
/// set and, per function, the `(parent, call line)` of its first
/// discovery — the exemplar shortest chain.
fn bfs(adj: &[Vec<Edge>], roots: &[usize]) -> (Vec<bool>, Vec<Option<(usize, u32)>>) {
    let mut seen = vec![false; adj.len()];
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; adj.len()];
    let mut q = VecDeque::new();
    for &r in roots {
        if !seen[r] {
            seen[r] = true;
            q.push_back(r);
        }
    }
    while let Some(i) = q.pop_front() {
        for e in &adj[i] {
            if !seen[e.to] {
                seen[e.to] = true;
                parent[e.to] = Some((i, e.line));
                q.push_back(e.to);
            }
        }
    }
    (seen, parent)
}

/// Marks every pruned-edge waiver that actually suppressed something: the
/// caller was reachable and the callee can reach (or is) a function with
/// an unwaived hazard — found by BFS over the reversed pruned graph.
pub(crate) fn settle(ws: &mut WaiverSet, pruned: &Pruned, reachable: &[bool], hazard_fns: &[bool]) {
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); pruned.adj.len()];
    for (from, out) in pruned.adj.iter().enumerate() {
        for e in out {
            rev[e.to].push(from);
        }
    }
    let mut leads = hazard_fns.to_vec();
    let mut q: VecDeque<usize> = (0..leads.len()).filter(|&i| leads[i]).collect();
    while let Some(i) = q.pop_front() {
        for &p in &rev[i] {
            if !leads[p] {
                leads[p] = true;
                q.push_back(p);
            }
        }
    }
    for &(w, from, to) in &pruned.claims {
        if reachable[from] && leads[to] {
            ws.mark_used(w);
        }
    }
}

/// Builds the exemplar chain for `target` from a parent map whose root
/// has no parent: root first, each frame carrying the line where it
/// calls the next frame; the final frame (the function containing the
/// site) carries its own declaration line.
pub(crate) fn chain_to(
    g: &CallGraph,
    parent: &[Option<(usize, u32)>],
    target: usize,
) -> Vec<Frame> {
    let mut frames = vec![Frame {
        func: g.fns[target].display_name(),
        file: g.fns[target].file.clone(),
        line: g.fns[target].line,
    }];
    let mut cur = target;
    while let Some((p, line)) = parent[cur] {
        frames.push(Frame {
            func: g.fns[p].display_name(),
            file: g.fns[p].file.clone(),
            line,
        });
        cur = p;
    }
    frames.reverse();
    frames
}

/// The diagnostic for site `what` at `line:col` in `f`: `head`, then the
/// chain rendered as `; chain: a → b → what at file:line`.
pub(crate) fn chain_diag(
    rule: &'static str,
    f: &FnItem,
    line: u32,
    col: u32,
    what: &str,
    head: String,
    chain: Vec<Frame>,
) -> Diagnostic {
    let names: Vec<&str> = chain.iter().map(|fr| fr.func.as_str()).collect();
    Diagnostic {
        rule,
        file: f.file.clone(),
        line,
        col,
        message: format!(
            "{head}; chain: {} → {what} at {}:{line}",
            names.join(" → "),
            f.file
        ),
        chain,
    }
}
