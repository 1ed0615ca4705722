//! `rng-stream-discipline`: the static half of the `fast_forward`
//! stream-exactness contract (PR 8).
//!
//! Crash/resume replays the fault RNG by *fast-forwarding* it the exact
//! number of draws the original run consumed. That only works if every
//! `Device::alloc` consumes a statically predictable number of draws —
//! so on every path from an `alloc` implementing the `Device` trait into
//! the fault RNG (`next_u64` / `next_f64`), a draw that sits under a
//! data-dependent branch or inside a loop would desynchronize replay,
//! and more than one unconditional draw per alloc path means the
//! fast-forward arithmetic must account for all of them.
//!
//! Roots are found structurally, not by path list: every function named
//! `alloc` inside an `impl Device for _` block. Draws are recognized by
//! callee name at the call site (the RNG helpers are leaf functions; we
//! do not traverse into them). Branch/loop context accumulates along the
//! chain: a draw inside an unconditional helper still counts as
//! conditional when the helper is *called* conditionally from `alloc`.
//!
//! A draw whose guard is provably balanced (e.g. a plan-constant
//! condition mirrored exactly by `fast_forward`) carries a site waiver
//! whose reason must say how replay stays in sync.

use crate::analyses::{chain_diag, chain_to, prune, settle};
use crate::callgraph::CallGraph;
use crate::{Diagnostic, WaiverSet};
use std::collections::{BTreeSet, VecDeque};

const RULE: &str = "rng-stream-discipline";

/// Leaf draw functions of the fault RNG stream.
const DRAW_FNS: [&str; 2] = ["next_u64", "next_f64"];

pub(crate) fn run(g: &CallGraph, ws: &mut WaiverSet, out: &mut Vec<Diagnostic>) {
    let pruned = prune(g, RULE, ws);
    let roots: Vec<usize> = (0..g.fns.len())
        .filter(|&i| g.fns[i].name == "alloc" && g.fns[i].trait_name.as_deref() == Some("Device"))
        .collect();

    // One draw site may be reachable from several allocs (every impl of
    // the trait is a root); report it once, from the first root that
    // reaches it in sorted order.
    let mut emitted: BTreeSet<(u32, u32, String)> = BTreeSet::new();
    let mut any_reach = vec![false; g.fns.len()];
    let mut hazard_fns = vec![false; g.fns.len()];

    for &root in &roots {
        // Forward BFS carrying accumulated (conditional, looped) flags.
        // A function is re-expanded when a path adds a flag it has not
        // been seen with, so the flags converge to the union over paths.
        let mut state: Vec<Option<(bool, bool)>> = vec![None; g.fns.len()];
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; g.fns.len()];
        let mut q = VecDeque::new();
        state[root] = Some((false, false));
        q.push_back(root);
        while let Some(i) = q.pop_front() {
            let (c0, l0) = state[i].unwrap();
            for e in &pruned.adj[i] {
                let next = (c0 || e.conditional, l0 || e.looped);
                let merged = match state[e.to] {
                    None => next,
                    Some((c, l)) => (c || next.0, l || next.1),
                };
                if state[e.to] != Some(merged) {
                    if state[e.to].is_none() {
                        parent[e.to] = Some((i, e.line));
                    }
                    state[e.to] = Some(merged);
                    q.push_back(e.to);
                }
            }
        }

        let mut unconditional: Vec<(usize, u32, u32, String)> = Vec::new();
        for i in 0..g.fns.len() {
            let Some((c0, l0)) = state[i] else { continue };
            any_reach[i] = true;
            // The draw helpers themselves are the stream implementation —
            // a draw *inside* `next_f64` is how the RNG works, not a
            // second draw on the alloc path.
            if DRAW_FNS.contains(&g.fns[i].name.as_str()) {
                continue;
            }
            for c in &g.fns[i].calls {
                if !DRAW_FNS.contains(&c.name.as_str()) {
                    continue;
                }
                let what = format!("{}()", c.name);
                let (cond, looped) = (c0 || c.conditional, l0 || c.looped);
                if let Some(w) = ws.find(RULE, &g.fns[i].file, c.line) {
                    if cond || looped {
                        ws.mark_used(w);
                    }
                    continue;
                }
                hazard_fns[i] = true;
                if !cond && !looped {
                    unconditional.push((i, c.line, c.col, what));
                    continue;
                }
                if !emitted.insert((c.line, c.col, g.fns[i].file.clone())) {
                    continue;
                }
                let how = match (cond, looped) {
                    (_, true) => "inside a loop",
                    _ => "under a branch",
                };
                let frames = chain_to(g, &parent, i);
                let head = format!(
                    "fault RNG draw `{what}` {how} on the `{}` alloc path — replay \
                     fast-forward cannot count it; hoist the draw, or waive with \
                     the invariant that keeps the stream in sync",
                    frames[0].func
                );
                out.push(chain_diag(
                    RULE, &g.fns[i], c.line, c.col, &what, head, frames,
                ));
            }
        }

        // More than one always-taken draw per alloc: every one past the
        // first (in deterministic site order) is flagged.
        if unconditional.len() > 1 {
            for (i, line, col, what) in unconditional.into_iter().skip(1) {
                if !emitted.insert((line, col, g.fns[i].file.clone())) {
                    continue;
                }
                let frames = chain_to(g, &parent, i);
                let head = format!(
                    "fault RNG draw `{what}` is the second unconditional draw on the \
                     `{}` alloc path — replay assumes exactly one per alloc",
                    frames[0].func
                );
                out.push(chain_diag(RULE, &g.fns[i], line, col, &what, head, frames));
            }
        }
    }

    settle(ws, &pruned, &any_reach, &hazard_fns);
}
