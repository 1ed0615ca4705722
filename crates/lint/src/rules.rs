//! The four *intra-file* invariant rules. The parser's one walk over a
//! file finds the sites each rule judges ([`FileItems`]), with
//! `#[cfg(test)]`/`#[cfg(loom)]` items already skipped, so test-only code
//! is exempt by construction; here live only the predicates and the
//! messages. (Panic sites, wall-clock reads, and RNG draws are handled
//! interprocedurally — see `analyses/`.) Diagnostics carry the span of
//! the offending token; the waiver layer in `lib.rs` decides what
//! survives.

use crate::lexer::Tok;
use crate::parser::FileItems;
use crate::{path_matches, Config, Diagnostic};

/// Runs the four rules over one file's sites.
pub(crate) fn check(
    path: &str,
    toks: &[Tok],
    items: &FileItems,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let mut diag = |rule: &'static str, i: usize, message: String| {
        out.push(Diagnostic {
            rule,
            file: path.to_string(),
            line: toks[i].line,
            col: toks[i].col,
            message,
            chain: Vec::new(),
        });
    };
    // Every comment counts, test items included: a `SAFETY:` comment is
    // valid wherever it sits.
    let comments: Vec<(u32, &str)> = toks
        .iter()
        .filter(|t| t.is_comment())
        .map(|t| (t.line, t.text.as_str()))
        .collect();

    // `nondet-iteration`: hash containers in decision crates. Even
    // lookup-only uses are banned — deny-by-default means the reviewer
    // never has to re-audit whether a `HashMap` quietly grew an
    // iteration.
    if path_matches(path, &cfg.decision_paths) {
        for &i in &items.hash_types {
            diag(
                "nondet-iteration",
                i,
                format!(
                    "`{}` in a decision crate — iteration order depends on RandomState; \
                     use BTreeMap/BTreeSet or a sorted Vec",
                    toks[i].text
                ),
            );
        }
    }

    // `undocumented-unsafe`: every `unsafe` *block* must carry a
    // `// SAFETY:` comment on the same line or within the three lines
    // above it, stating the invariant that makes it sound. `unsafe fn`
    // signatures are the caller's contract and are not flagged — only
    // block bodies, where the obligation is discharged.
    for &i in &items.unsafe_blocks {
        if !comment_run_documents(&comments, toks[i].line, &["SAFETY:"]) {
            diag(
                "undocumented-unsafe",
                i,
                "`unsafe` block without a `// SAFETY:` comment in the 3 preceding lines"
                    .to_string(),
            );
        }
    }

    // `undocumented-simd`: SIMD soundness is a pair of obligations. Every
    // `#[target_feature]` function must carry, within the 3 lines above
    // the attribute, a comment run stating both the `SAFETY:` contract
    // and how callers feature-*detect* before reaching it (mention of
    // `is_x86_feature_detected!` or the word "detect" satisfies this).
    // And raw `std::arch` intrinsics (`_mm*`) may only appear inside such
    // functions — an intrinsic in openly-callable code executes an
    // undetected instruction and faults on older hardware.
    for &i in &items.target_features {
        if !comment_run_documents(&comments, toks[i].line, &["SAFETY:", "detect"]) {
            diag(
                "undocumented-simd",
                i,
                "`#[target_feature]` function without a `// SAFETY:` comment noting how \
                 callers feature-detect (e.g. `is_x86_feature_detected!`) in the 3 \
                 preceding lines"
                    .to_string(),
            );
        }
    }
    for &i in &items.bare_intrinsics {
        diag(
            "undocumented-simd",
            i,
            format!(
                "`{}` std::arch intrinsic outside a `#[target_feature]` function — \
                 raw SIMD calls are only sound behind runtime-detected dispatch",
                toks[i].text
            ),
        );
    }

    // `unaccounted-alloc`: types that hold device state (a field
    // mentioning `AllocId` or `dyn Device`) must not raw-allocate in
    // their impls — device bytes flow through the memsim accounting API
    // or the OOM simulation under-counts. Heuristic and deliberately
    // per-file (struct + impl in the same file, the norm in this
    // workspace): an impl counts when any identifier of its header names
    // such a struct, wherever in the file the struct is declared.
    if !path_matches(path, &cfg.alloc_exempt_paths) {
        for (header, allocs) in &items.impls {
            if !header.iter().any(|id| items.device_structs.contains(id)) {
                continue;
            }
            for &i in allocs {
                diag(
                    "unaccounted-alloc",
                    i,
                    format!(
                        "raw allocation (`{}`) in the impl of a device-state type — \
                         route device memory through the memsim accounting API, or \
                         waive if this buffer is host-side",
                        toks[i].text
                    ),
                );
            }
        }
    }
}

/// True when a contiguous `//` comment run reaching into the 3 lines
/// above `line` (or trailing on `line` itself) contains every needle —
/// each needle may sit on a different line of the run, so a long
/// justification whose first line says `SAFETY:` still counts.
fn comment_run_documents(comment_lines: &[(u32, &str)], line: u32, needles: &[&str]) -> bool {
    let lo = line.saturating_sub(3);
    comment_lines.iter().any(|&(start, _)| {
        if start < lo || start > line {
            return false;
        }
        // Walk upward through contiguous comment lines from here,
        // accumulating which needles the run has shown so far.
        let mut found = vec![false; needles.len()];
        let mut cur = start;
        loop {
            for &(l, txt) in comment_lines {
                if l == cur {
                    for (n, needle) in needles.iter().enumerate() {
                        if txt.contains(needle) {
                            found[n] = true;
                        }
                    }
                }
            }
            if found.iter().all(|&f| f) {
                return true;
            }
            if cur > 1 && comment_lines.iter().any(|&(l, _)| l == cur - 1) {
                cur -= 1;
            } else {
                return false;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_file;

    fn run(src: &str) -> Vec<Diagnostic> {
        check_file("f.rs", src, &Config::all_files())
    }

    #[test]
    fn flags_hash_containers_but_not_in_strings() {
        let d = run("use std::collections::HashMap;\nconst S: &str = \"HashMap\";\n");
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("nondet-iteration", 1));
    }

    #[test]
    fn attribute_brackets_are_not_indexing() {
        assert!(run("#[derive(Debug)]\nstruct S;\n").is_empty());
    }

    #[test]
    fn safety_comment_within_three_lines_passes() {
        let ok = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(run(ok).is_empty());
        let far = "fn f(p: *const u8) -> u8 {\n    // SAFETY: too far away.\n\n\n\n    unsafe { *p }\n}\n";
        let d = run(far);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "undocumented-unsafe");
    }

    #[test]
    fn long_safety_comment_run_counts_from_its_first_line() {
        // SAFETY: on the first line of a 5-line contiguous comment whose
        // last line is adjacent to the unsafe block.
        let ok = "fn f(p: *const u8) -> u8 {\n    // SAFETY: the caller upholds the\n    // following chain of invariants,\n    // spelled out at length across\n    // several lines of justification\n    // ending right above the block.\n    unsafe { *p }\n}\n";
        assert!(run(ok).is_empty());
    }

    #[test]
    fn unsafe_fn_signature_is_not_a_block() {
        assert!(run("unsafe fn f() {}\n").is_empty());
    }

    #[test]
    fn target_feature_needs_safety_and_detection_note() {
        let ok = "// SAFETY: requires AVX2; callers reach this only after\n// is_x86_feature_detected! detection.\n#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}\n";
        assert!(run(ok).is_empty());
        // A SAFETY comment that never mentions detection is not enough.
        let no_detect =
            "// SAFETY: requires AVX2.\n#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}\n";
        let d = run(no_detect);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "undocumented-simd");
        let bare = "#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}\n";
        let d = run(bare);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "undocumented-simd");
    }

    #[test]
    fn intrinsics_allowed_only_inside_target_feature_fns() {
        let ok = "// SAFETY: requires AVX2; reached only after detection.\n#[target_feature(enable = \"avx2\")]\nunsafe fn k(a: f32) { let _ = _mm256_set1_ps(a); }\n";
        assert!(run(ok).is_empty());
        let bad = "fn k(a: f32) -> f32 { _mm256_cvtss_f32(_mm256_set1_ps(a)) }\n";
        let d = run(bad);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "undocumented-simd"));
    }

    #[test]
    fn alloc_rule_needs_device_state_struct() {
        let clean = "struct Plain { n: usize }\nimpl Plain { fn f(&self) -> Vec<u8> { Vec::with_capacity(self.n) } }\n";
        assert!(run(clean).is_empty());
        let bad = "struct Buf { id: AllocId }\nimpl Buf { fn f(&self) -> Vec<u8> { Vec::with_capacity(4) } }\n";
        let d = run(bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unaccounted-alloc");
    }

    #[test]
    fn dyn_device_field_also_marks_struct() {
        let bad = "struct R<'d> { dev: &'d dyn Device }\nimpl<'d> R<'d> { fn f(&self) { let _v = vec![0u8; 4]; } }\n";
        let d = run(bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unaccounted-alloc");
    }
}
