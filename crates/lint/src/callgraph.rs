//! Workspace call graph over the parsed `fn` items.
//!
//! Resolution is conservative and name-based — no type information
//! exists at this layer, so the resolver follows *every* plausible
//! target instead of guessing one:
//!
//! * plain calls (`f(..)`) resolve to free functions named `f`,
//!   preferring same-file definitions (Rust's own scoping makes a
//!   same-file free fn the overwhelmingly likely target);
//! * qualified calls (`Type::f(..)`) resolve to functions named `f`
//!   whose namespace aliases — enclosing impl type, trait, inline
//!   modules, file stem, parent directory — contain `Type`;
//! * method calls (`.f(..)`) resolve to every impl/trait function named
//!   `f` in the workspace — the receiver's type is unknown, so all
//!   candidates are followed.
//!
//! A call site with more than one candidate is *ambiguous*: the edges
//! are all kept (reachability stays sound) and the site is counted in
//! [`CallGraph::ambiguous_sites`], which `ci.sh` prints so resolver
//! regressions show up in CI logs. A call site with no candidate is
//! external (std / vendored shims) and contributes no edge.
//!
//! Everything is keyed and ordered by `BTreeMap`/sorted vectors — the
//! linter has to pass its own `nondet-iteration` rule, and the analyses
//! built on top must emit byte-identical diagnostics run over run.

use crate::parser::{CallSite, FnItem};
use std::collections::BTreeMap;

/// One resolved call edge, carrying the call-site span (for chain
/// frames and frame waivers) and its control-flow flags (for the RNG
/// stream-discipline analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Index of the callee in [`CallGraph::fns`].
    pub to: usize,
    pub line: u32,
    pub col: u32,
    pub conditional: bool,
    pub looped: bool,
}

/// The workspace call graph. `fns` is sorted by (file, line, col), so
/// every index-derived ordering downstream is deterministic.
#[derive(Debug)]
pub struct CallGraph {
    pub fns: Vec<FnItem>,
    /// Outgoing edges per function, in call-site order.
    pub edges: Vec<Vec<Edge>>,
    /// Total resolved edges (counting one per (site, candidate) pair).
    pub n_edges: usize,
    /// Call sites that resolved to more than one candidate.
    pub ambiguous_sites: usize,
}

/// Namespace aliases a qualified call can use to reach a function:
/// impl type, trait, inline modules, file stem, parent directory.
fn aliases(f: &FnItem) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    if let Some(t) = &f.impl_type {
        out.push(t);
    }
    if let Some(t) = &f.trait_name {
        out.push(t);
    }
    for m in &f.modules {
        out.push(m);
    }
    let mut parts = f.file.rsplit('/');
    if let Some(name) = parts.next() {
        if let Some(stem) = name.strip_suffix(".rs") {
            out.push(stem);
        }
    }
    if let Some(dir) = parts.next() {
        out.push(dir);
    }
    out
}

impl CallGraph {
    /// Builds the graph from every parsed function in the workspace.
    pub(crate) fn build(mut fns: Vec<FnItem>) -> CallGraph {
        fns.sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        let mut n_edges = 0usize;
        let mut ambiguous_sites = 0usize;
        for i in 0..fns.len() {
            for c in &fns[i].calls {
                let cands = resolve(&fns, &by_name, &fns[i].file, c);
                if cands.len() > 1 {
                    ambiguous_sites += 1;
                }
                for t in cands {
                    edges[i].push(Edge {
                        to: t,
                        line: c.line,
                        col: c.col,
                        conditional: c.conditional,
                        looped: c.looped,
                    });
                    n_edges += 1;
                }
            }
        }
        CallGraph {
            fns,
            edges,
            n_edges,
            ambiguous_sites,
        }
    }

    /// Index of every fn whose file matches one of the path prefixes.
    pub(crate) fn fns_in_paths(&self, prefixes: &[String]) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| crate::path_matches(&self.fns[i].file, prefixes))
            .collect()
    }
}

fn resolve(
    fns: &[FnItem],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller_file: &str,
    c: &CallSite,
) -> Vec<usize> {
    let Some(all) = by_name.get(c.name.as_str()) else {
        return Vec::new();
    };
    if c.method {
        return all
            .iter()
            .copied()
            .filter(|&i| fns[i].impl_type.is_some() || fns[i].trait_name.is_some())
            .collect();
    }
    if let Some(q) = &c.qualifier {
        return all
            .iter()
            .copied()
            .filter(|&i| aliases(&fns[i]).contains(&q.as_str()))
            .collect();
    }
    // Plain call: free functions only; same-file definitions win.
    let free: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| fns[i].impl_type.is_none() && fns[i].trait_name.is_none())
        .collect();
    let local: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&i| fns[i].file == caller_file)
        .collect();
    if local.is_empty() {
        free
    } else {
        local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph(sources: &[(&str, &str)]) -> CallGraph {
        let fns = sources
            .iter()
            .flat_map(|(path, src)| parse(path, &lex(src)).fns)
            .collect();
        CallGraph::build(fns)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn plain_calls_prefer_same_file() {
        let g = graph(&[
            ("a.rs", "fn root() { helper(); }\nfn helper() {}\n"),
            ("b.rs", "fn helper() {}\n"),
        ]);
        let root = idx(&g, "root");
        let targets: Vec<&str> = g.edges[root]
            .iter()
            .map(|e| g.fns[e.to].file.as_str())
            .collect();
        assert_eq!(targets, ["a.rs"]);
        assert_eq!(g.ambiguous_sites, 0);
    }

    #[test]
    fn cross_file_plain_call_resolves_and_counts_ambiguity() {
        let g = graph(&[
            ("a.rs", "fn root() { helper(); }\n"),
            ("b.rs", "fn helper() {}\n"),
            ("c.rs", "fn helper() {}\n"),
        ]);
        let root = idx(&g, "root");
        assert_eq!(g.edges[root].len(), 2);
        assert_eq!(g.ambiguous_sites, 1);
    }

    #[test]
    fn qualified_calls_match_impl_type_and_file_stem() {
        let g = graph(&[
            ("a.rs", "fn root() { Pool::spawn(); codec::encode(); }\n"),
            ("pool.rs", "impl Pool { fn spawn() {} }\n"),
            ("codec.rs", "pub fn encode() {}\n"),
        ]);
        let root = idx(&g, "root");
        let names: Vec<&str> = g.edges[root]
            .iter()
            .map(|e| g.fns[e.to].name.as_str())
            .collect();
        assert_eq!(names, ["spawn", "encode"]);
    }

    #[test]
    fn method_calls_follow_every_impl_candidate() {
        let g = graph(&[
            ("a.rs", "fn root(d: &dyn Device) { d.alloc(4); }\n"),
            (
                "m.rs",
                "impl Device for Mem { fn alloc(&self, b: u64) {} }\nimpl Device for Faulty { fn alloc(&self, b: u64) {} }\nfn alloc() {}\n",
            ),
        ]);
        let root = idx(&g, "root");
        // Both impls, but not the free fn of the same name.
        assert_eq!(g.edges[root].len(), 2);
        assert_eq!(g.ambiguous_sites, 1);
        for e in &g.edges[root] {
            assert!(g.fns[e.to].impl_type.is_some());
        }
    }

    #[test]
    fn external_calls_make_no_edges() {
        let g = graph(&[(
            "a.rs",
            "fn root() { Vec::with_capacity(4); std::mem::drop(1); missing(); }\n",
        )]);
        let root = idx(&g, "root");
        assert!(g.edges[root].is_empty());
        assert_eq!(g.ambiguous_sites, 0);
    }

    #[test]
    fn graph_order_is_deterministic() {
        let srcs = [
            ("b.rs", "fn beta() { alpha(); }\n"),
            ("a.rs", "fn alpha() {}\n"),
        ];
        let g1 = graph(&srcs);
        let g2 = graph(&[srcs[1], srcs[0]]);
        let names1: Vec<&str> = g1.fns.iter().map(|f| f.name.as_str()).collect();
        let names2: Vec<&str> = g2.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names1, names2);
        assert_eq!(names1, ["alpha", "beta"]);
    }
}
