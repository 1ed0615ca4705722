//! Item-level parser on top of the lexer: the one structural walk over
//! a file. It skips `#[cfg(test)]` / `#[cfg(loom)]` items, extracts every
//! `fn` item with the evidence the interprocedural analyses need, and
//! records beside them the sites the intra-file rules judge
//! (`FileItems`).
//!
//! For each function this records
//!
//! * identity — name, enclosing `impl`/`trait`/`mod` context for
//!   disambiguation, and the declaration span;
//! * outgoing calls — plain calls (`f(..)`), qualified calls
//!   (`Type::f(..)`, with `Self` resolved against the enclosing impl),
//!   and method calls (`.f(..)`), each tagged with whether the call site
//!   sits inside a conditional (`if`/`else`/`match`) or looped
//!   (`while`/`for`/`loop`/closure) region of the body;
//! * hazard sites — the panic-capable and replay-hostile constructs the
//!   analyses report when reachable: `.unwrap()`/`.expect(..)`,
//!   `panic!`-family macros, expression-position `[]` indexing, and
//!   `Instant::now`/`SystemTime::now` reads.
//!
//! This is still not a type checker: resolution happens later, by name,
//! in `callgraph.rs`. The parser's job is only to segment the token
//! stream into items and classify what each body does. Known
//! approximations, all conservative for the rules built on top:
//!
//! * brace-less closure bodies (`.map(|x| draw(x))`) are treated as both
//!   conditional and looped until the enclosing argument list ends;
//! * `?`-early-returns are not modeled — a call after a `?` is treated
//!   as unconditional;
//! * hazards in `const`/`static` initializers (outside any `fn`) are
//!   compile-time evaluated by rustc and not recorded.

use crate::lexer::{Tok, TokKind};

/// Panicking macro names (matched when followed by `!`).
pub const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can legally precede a `[` without it being an index
/// expression (`let [a, b] = ..`, `return [x]`, `in [..]`, …).
const NON_INDEX_KEYWORDS: [&str; 18] = [
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "box", "dyn",
    "where", "while", "loop", "break", "continue", "const",
];

/// Keywords that look like `name(` but are not calls.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "let", "in", "as", "move", "where", "fn",
];

/// One outgoing call recorded inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (the last path segment).
    pub name: String,
    /// `Type` in `Type::name(..)` (`Self` already resolved to the
    /// enclosing impl type). `None` for plain and method calls.
    pub qualifier: Option<String>,
    /// `.name(..)` — receiver type unknown, resolved by name later.
    pub method: bool,
    pub line: u32,
    pub col: u32,
    /// Call site sits inside an `if`/`else`/`match` region (or closure).
    pub conditional: bool,
    /// Call site sits inside a `while`/`for`/`loop` region (or closure).
    pub looped: bool,
}

/// What a hazard site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// `.unwrap()` / `.expect(..)` / `panic!`-family macro.
    Panic,
    /// Expression-position `[]` indexing.
    Index,
    /// `Instant::now` / `SystemTime::now`.
    Wallclock,
}

/// One panic-capable or replay-hostile site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardSite {
    pub kind: HazardKind,
    /// Human-facing description of the construct (`unwrap`, `panic!`,
    /// `[]`, `Instant::now`, …).
    pub what: String,
    pub line: u32,
    pub col: u32,
}

/// One `fn` item with its body evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    pub name: String,
    /// `/`-normalized path of the defining file (filled by the caller).
    pub file: String,
    /// Declaration span (the name token).
    pub line: u32,
    pub col: u32,
    /// Self type of the enclosing `impl` block, when any.
    pub impl_type: Option<String>,
    /// Trait being implemented (`impl Trait for Type`) or declared
    /// (`trait Name { .. }`), when any.
    pub trait_name: Option<String>,
    /// Enclosing inline `mod` names, outermost first.
    pub modules: Vec<String>,
    /// Whether the first parameter is `self` — only such a function can
    /// be the target of a method call (`.f(..)`).
    pub takes_self: bool,
    pub calls: Vec<CallSite>,
    pub hazards: Vec<HazardSite>,
}

impl FnItem {
    /// `Type::name` / `Trait::name` / bare `name` — what diagnostics and
    /// chain frames print.
    pub(crate) fn display_name(&self) -> String {
        match (&self.impl_type, &self.trait_name) {
            (Some(ty), _) => format!("{ty}::{}", self.name),
            (None, Some(tr)) => format!("{tr}::{}", self.name),
            (None, None) => self.name.clone(),
        }
    }
}

/// One file's item structure: its `fn` items and every site the
/// intra-file rules judge, found by the same walk. Sites are token
/// indices into the file's token stream.
#[derive(Debug, Default)]
pub(crate) struct FileItems {
    pub fns: Vec<FnItem>,
    /// Token ranges of the `#[cfg(test)]` / `#[cfg(loom)]` items the walk
    /// skipped; waivers inside them are ignored too.
    pub gated: Vec<(usize, usize)>,
    /// Hash-container type names.
    pub hash_types: Vec<usize>,
    /// `unsafe` keywords that open a block.
    pub unsafe_blocks: Vec<usize>,
    /// The `#` of each `#[target_feature]` attribute that is not itself
    /// inside a target-feature fn (the outer fn's contract covers it).
    pub target_features: Vec<usize>,
    /// `_mm*` identifiers outside every target-feature fn body. Inside
    /// one means anywhere within its braces, nested items included.
    pub bare_intrinsics: Vec<usize>,
    /// Structs with a field mentioning `AllocId` or `dyn Device`.
    pub device_structs: Vec<String>,
    /// Per `impl` block: every identifier of its header, and the raw
    /// allocation sites in its body. A nested impl's sites belong to the
    /// outermost one.
    pub impls: Vec<(Vec<String>, Vec<usize>)>,
}

/// Hash-based container type names (`nondet-iteration`).
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods that grow a buffer outside the memsim accounting API.
const ALLOC_METHODS: [&str; 4] = ["with_capacity", "reserve", "reserve_exact", "resize"];

/// Enclosing-block classification for the scan stack.
#[derive(Debug, Clone)]
enum BlockKind {
    Mod(String),
    Impl {
        ty: Option<String>,
        tr: Option<String>,
        /// Index of this block's entry in [`FileItems::impls`].
        ix: usize,
    },
    Trait(String),
    /// Body of the `FnItem` at this index in the output vector.
    Fn(usize),
    /// `if`/`else`/`match` (and braced closures, which also set `looped`).
    Cond {
        looped: bool,
    },
    /// Struct literals, bare blocks, `unsafe { .. }` — inherits flags.
    Plain,
}

/// Whether the signature whose tokens (past the name) are `sig` takes
/// `self`: the parameter list opens at the first `(` outside the
/// generics, and its first token past `&`, a lifetime and `mut` is `self`.
fn takes_self(toks: &[Tok], sig: &[usize]) -> bool {
    let mut angle = 0usize;
    let mut prev_arrow = false;
    for (j, &i) in sig.iter().enumerate() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !prev_arrow => angle = angle.saturating_sub(1),
            TokKind::Punct('(') if angle == 0 => {
                return sig[j + 1..]
                    .iter()
                    .map(|&i| &toks[i])
                    .find(|t| {
                        !(t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_ident("mut"))
                    })
                    .is_some_and(|t| t.is_ident("self"));
            }
            TokKind::Punct('{') | TokKind::Punct(';') => return false,
            _ => {}
        }
        prev_arrow = t.is_punct('-');
    }
    false
}

/// Walks one file's tokens once: splits it into items, skips
/// `#[cfg(test)]` / `#[cfg(loom)]` items (test-only code is exempt from
/// every rule and stays out of the call graph), and records every `fn`
/// with its evidence beside the sites the intra-file rules judge.
pub(crate) fn parse(path: &str, toks: &[Tok]) -> FileItems {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let tok = |k: usize| -> &Tok { &toks[code[k]] };
    let mut items = FileItems::default();
    let mut stack: Vec<BlockKind> = Vec::new();
    // A `fn name` seen but its body `{` (or decl `;`) not yet reached.
    let mut pending_fn: Option<FnItem> = None;
    // Statement lookback window for classifying the next `{`.
    let mut stmt_start = 0usize;
    // Paren depth, for delimiting brace-less closure bodies.
    let mut paren_depth = 0usize;
    // Bracket depth: a `;` inside `[u8; 2]` is an array length, not a
    // statement terminator.
    let mut bracket_depth = 0usize;
    // Brace-less closure regions: pop when paren depth drops below the
    // recorded value or a `,`/`;` appears at it.
    let mut closure_until: Vec<usize> = Vec::new();
    // Tokens before `resume` were consumed by a lookahead (a fn name,
    // closure parameters, …): they only count as intra-file sites.
    let mut resume = 0usize;
    // Tokens before `gated_until` belong to a skipped test-only item.
    let mut gated_until = 0usize;
    // A `#[target_feature]` seen, its fn's body not yet opened; then the
    // stack depth of that body while the walk is inside it.
    let mut simd_pending = false;
    let mut simd_depth: Option<usize> = None;
    // A `struct Name` being scanned to its end: (name, stack depth,
    // mentions device state).
    let mut open_struct: Option<(String, usize, bool)> = None;

    let enclosing_fn = |stack: &[BlockKind]| -> Option<usize> {
        stack.iter().rev().find_map(|b| match b {
            BlockKind::Fn(ix) => Some(*ix),
            _ => None,
        })
    };
    let flags = |stack: &[BlockKind], closures: &[usize]| -> (bool, bool) {
        let mut conditional = !closures.is_empty();
        let mut looped = !closures.is_empty();
        // Only the region inside the *innermost* fn matters: an outer
        // fn's conditionals do not make a nested fn's body conditional.
        for b in stack.iter().rev() {
            match b {
                BlockKind::Fn(_) => break,
                BlockKind::Cond { looped: l } => {
                    conditional = true;
                    looped |= l;
                }
                _ => {}
            }
        }
        (conditional, looped)
    };

    for k in 0..code.len() {
        if k < gated_until {
            continue;
        }
        let t = tok(k);
        let next_is = |c: char| k + 1 < code.len() && tok(k + 1).is_punct(c);
        // Attributes: a test-gated item is skipped whole; a
        // `#[target_feature]` marks the next fn's body.
        if t.is_punct('#') && next_is('[') {
            if let Some(end) = gated_item_end(toks, &code, k) {
                let end_tok = if end < code.len() {
                    code[end - 1] + 1
                } else {
                    toks.len()
                };
                items.gated.push((code[k], end_tok));
                gated_until = end;
                stmt_start = end;
                continue;
            }
            let simd_attr = k + 2 < code.len() && tok(k + 2).is_ident("target_feature");
            if simd_attr && simd_depth.is_none() && !simd_pending {
                items.target_features.push(code[k]);
                simd_pending = true;
            }
        }

        // The intra-file rule sites: every identifier outside gated items
        // counts, including those a lookahead consumed.
        if t.kind == TokKind::Ident {
            let text = t.text.as_str();
            if HASH_TYPES.contains(&text) {
                items.hash_types.push(code[k]);
            }
            if text == "unsafe" && next_is('{') {
                items.unsafe_blocks.push(code[k]);
            }
            if text.starts_with("_mm") && simd_depth.is_none() {
                items.bare_intrinsics.push(code[k]);
            }
            if let Some((_, _, device)) = &mut open_struct {
                *device |= text == "AllocId"
                    || (text == "dyn" && k + 1 < code.len() && tok(k + 1).is_ident("Device"));
            }
            let outer_impl = stack.iter().find_map(|b| match b {
                BlockKind::Impl { ix, .. } => Some(*ix),
                _ => None,
            });
            if let Some(ix) = outer_impl {
                let raw_alloc = (text == "vec" && next_is('!'))
                    || (ALLOC_METHODS.contains(&text)
                        && k > 0
                        && (tok(k - 1).is_punct('.') || tok(k - 1).is_punct(':'))
                        && next_is('('));
                if raw_alloc {
                    items.impls[ix].1.push(code[k]);
                }
            }
        }
        if k < resume {
            continue;
        }

        match t.kind {
            TokKind::Punct('(') => {
                paren_depth += 1;
                continue;
            }
            TokKind::Punct(')') => {
                paren_depth = paren_depth.saturating_sub(1);
                while closure_until.last().is_some_and(|&d| paren_depth < d) {
                    closure_until.pop();
                }
                continue;
            }
            TokKind::Punct(',') => {
                while closure_until.last().is_some_and(|&d| paren_depth <= d) {
                    closure_until.pop();
                }
                continue;
            }
            TokKind::Punct(';') => {
                if paren_depth == 0 && bracket_depth == 0 {
                    closure_until.clear();
                    // `fn name(..);` — a body-less trait declaration.
                    if let Some(f) = pending_fn.take() {
                        items.fns.push(f);
                        simd_pending = false;
                    }
                    finish_struct(&mut open_struct, &mut items);
                    stmt_start = k + 1;
                }
                continue;
            }
            TokKind::Punct('{') => {
                let opens_fn = pending_fn.is_some();
                let kind = classify_block(toks, &code, stmt_start, k, &mut pending_fn, &mut items);
                stack.push(kind);
                if opens_fn && simd_pending {
                    simd_pending = false;
                    simd_depth = Some(stack.len());
                }
                stmt_start = k + 1;
                continue;
            }
            TokKind::Punct('}') => {
                stack.pop();
                if simd_depth.is_some_and(|d| stack.len() < d) {
                    simd_depth = None;
                }
                if open_struct.as_ref().is_some_and(|s| stack.len() <= s.1) {
                    finish_struct(&mut open_struct, &mut items);
                }
                stmt_start = k + 1;
                continue;
            }
            TokKind::Punct('|') => {
                // Closure start? The params end at the matching `|`; a
                // braced body is classified at its `{`, a brace-less one
                // is covered until the argument list ends.
                let starts_closure = k == 0
                    || matches!(
                        tok(k - 1).kind,
                        TokKind::Punct('(') | TokKind::Punct(',') | TokKind::Punct('=')
                    )
                    || tok(k - 1).is_ident("move")
                    || tok(k - 1).is_ident("return");
                if starts_closure {
                    let mut j = k + 1;
                    while j < code.len() && !tok(j).is_punct('|') {
                        j += 1;
                    }
                    if j + 1 < code.len() && !tok(j + 1).is_punct('{') {
                        closure_until.push(paren_depth);
                    }
                    // A braced body will hit the `{` arm; seed the
                    // lookback so it classifies as a closure block.
                    resume = j + 1;
                    stmt_start = stmt_start.min(j);
                }
                continue;
            }
            TokKind::Punct(']') => {
                bracket_depth = bracket_depth.saturating_sub(1);
                continue;
            }
            TokKind::Punct('[') => {
                bracket_depth += 1;
                // Expression-position indexing is a panic-capable site.
                if pending_fn.is_none() && k > 0 {
                    if let Some(ix) = enclosing_fn(&stack) {
                        let prev = tok(k - 1);
                        let is_index = match prev.kind {
                            TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('?') => true,
                            _ => false,
                        };
                        if is_index {
                            items.fns[ix].hazards.push(HazardSite {
                                kind: HazardKind::Index,
                                what: "[]".to_string(),
                                line: t.line,
                                col: t.col,
                            });
                        }
                    }
                }
                continue;
            }
            TokKind::Ident => {}
            _ => continue,
        }

        // Ident handling from here on.
        let text = t.text.as_str();

        // `struct Name` — scanned for device state until its item ends.
        if text == "struct" && k + 1 < code.len() && tok(k + 1).kind == TokKind::Ident {
            open_struct = Some((tok(k + 1).text.clone(), stack.len(), false));
        }

        // `fn name` — a new item begins; its signature tokens are
        // skipped until the body `{` or a terminating `;`.
        if text == "fn" && k + 1 < code.len() && tok(k + 1).kind == TokKind::Ident {
            let name_tok = tok(k + 1);
            let (impl_type, trait_name) = impl_context(&stack);
            let modules = stack
                .iter()
                .filter_map(|b| match b {
                    BlockKind::Mod(m) => Some(m.clone()),
                    _ => None,
                })
                .collect();
            pending_fn = Some(FnItem {
                name: name_tok.text.clone(),
                file: path.to_string(),
                line: name_tok.line,
                col: name_tok.col,
                impl_type,
                trait_name,
                modules,
                takes_self: takes_self(toks, &code[k + 2..]),
                calls: Vec::new(),
                hazards: Vec::new(),
            });
            resume = k + 2;
            continue;
        }

        // Evidence is only collected inside a function body (and not in
        // the signature of a pending nested declaration).
        let Some(fn_ix) = enclosing_fn(&stack).filter(|_| pending_fn.is_none()) else {
            continue;
        };
        let (conditional, looped) = flags(&stack, &closure_until);
        let out = &mut items.fns;

        // `Instant::now` / `SystemTime::now` — wall-clock read.
        if (text == "Instant" || text == "SystemTime")
            && k + 3 < code.len()
            && tok(k + 1).is_punct(':')
            && tok(k + 2).is_punct(':')
            && tok(k + 3).is_ident("now")
        {
            out[fn_ix].hazards.push(HazardSite {
                kind: HazardKind::Wallclock,
                what: format!("{text}::now"),
                line: t.line,
                col: t.col,
            });
            resume = k + 4;
            continue;
        }

        // Panic-family macro.
        if PANIC_MACROS.contains(&text) && k + 1 < code.len() && tok(k + 1).is_punct('!') {
            out[fn_ix].hazards.push(HazardSite {
                kind: HazardKind::Panic,
                what: format!("{text}!"),
                line: t.line,
                col: t.col,
            });
            resume = k + 2;
            continue;
        }

        // `.unwrap()` / `.expect(..)`.
        if (text == "unwrap" || text == "expect")
            && k > 0
            && tok(k - 1).is_punct('.')
            && k + 1 < code.len()
            && tok(k + 1).is_punct('(')
        {
            out[fn_ix].hazards.push(HazardSite {
                kind: HazardKind::Panic,
                what: format!(".{text}()"),
                line: t.line,
                col: t.col,
            });
            continue;
        }

        // Calls: `name(` with the macro form `name!(` excluded.
        let called = k + 1 < code.len() && tok(k + 1).is_punct('(');
        if called && !NON_CALL_KEYWORDS.contains(&text) {
            let after_dot = k > 0 && tok(k - 1).is_punct('.');
            let qualified = k > 1 && tok(k - 1).is_punct(':') && tok(k - 2).is_punct(':') && k >= 3;
            let qualifier = if after_dot {
                None
            } else if qualified {
                match tok(k - 3).kind {
                    TokKind::Ident => {
                        let q = tok(k - 3).text.clone();
                        match q.as_str() {
                            "Self" => self_type(&stack),
                            // Relative-path prefixes carry no type info.
                            "self" | "crate" | "super" => None,
                            _ => Some(q),
                        }
                    }
                    // `<T as Trait>::f(..)` and friends: unresolvable by
                    // name — recorded so the resolver can count it as
                    // external rather than guessing.
                    _ => Some("<unresolved>".to_string()),
                }
            } else {
                None
            };
            out[fn_ix].calls.push(CallSite {
                name: text.to_string(),
                qualifier,
                method: after_dot,
                line: t.line,
                col: t.col,
                conditional,
                looped,
            });
        }
    }
    if let Some(f) = pending_fn.take() {
        items.fns.push(f);
    }
    finish_struct(&mut open_struct, &mut items);
    items
}

/// Closes the struct being scanned, keeping its name when it holds
/// device state.
fn finish_struct(open: &mut Option<(String, usize, bool)>, items: &mut FileItems) {
    if let Some((name, _, true)) = open.take() {
        items.device_structs.push(name);
    }
}

/// When the attribute opening at code position `k` is a `cfg` naming
/// `test` or `loom` anywhere inside (`cfg(all(test, ..))` included),
/// the code position just past the item it gates: through any further
/// attributes to the first brace-matched `{..}` or a top-level `;`.
fn gated_item_end(toks: &[Tok], code: &[usize], k: usize) -> Option<usize> {
    let tok = |j: usize| -> &Tok { &toks[code[j]] };
    let mut depth = 0usize;
    let mut is_cfg = false;
    let mut gated = false;
    let mut j = k + 1;
    loop {
        let t = code.get(j).map(|&i| &toks[i])?;
        match t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident => {
                is_cfg |= t.text == "cfg";
                gated |= t.text == "test" || t.text == "loom";
            }
            _ => {}
        }
        j += 1;
    }
    if !(is_cfg && gated) {
        return None;
    }
    let mut brace = 0usize;
    for j in j + 1..code.len() {
        match tok(j).kind {
            TokKind::Punct('{') => brace += 1,
            // A stray `}` closes the enclosing block: the item ends before it.
            TokKind::Punct('}') if brace == 0 => return Some(j),
            TokKind::Punct('}') => {
                brace -= 1;
                if brace == 0 {
                    return Some(j + 1);
                }
            }
            TokKind::Punct(';') if brace == 0 => return Some(j + 1),
            _ => {}
        }
    }
    Some(code.len())
}

/// Self type a `Self::` path refers to inside a body: the innermost
/// enclosing impl, looked up *through* fn frames (a method body's
/// `Self` is still the impl's type).
fn self_type(stack: &[BlockKind]) -> Option<String> {
    for b in stack.iter().rev() {
        match b {
            BlockKind::Impl { ty, .. } => return ty.clone(),
            BlockKind::Trait(_) => return None,
            _ => {}
        }
    }
    None
}

/// Innermost enclosing impl/trait context for a `fn` *declaration* —
/// stops at a fn frame, so a nested fn is a free item, not a method.
fn impl_context(stack: &[BlockKind]) -> (Option<String>, Option<String>) {
    for b in stack.iter().rev() {
        match b {
            BlockKind::Impl { ty, tr, .. } => return (ty.clone(), tr.clone()),
            BlockKind::Trait(name) => return (None, Some(name.clone())),
            BlockKind::Fn(_) => return (None, None),
            _ => {}
        }
    }
    (None, None)
}

/// Classifies the `{` at `open` by the statement tokens since
/// `stmt_start`. Consumes `pending_fn` when the brace opens a function
/// body.
fn classify_block(
    toks: &[Tok],
    code: &[usize],
    stmt_start: usize,
    open: usize,
    pending_fn: &mut Option<FnItem>,
    items: &mut FileItems,
) -> BlockKind {
    let tok = |k: usize| -> &Tok { &toks[code[k]] };
    if let Some(f) = pending_fn.take() {
        items.fns.push(f);
        return BlockKind::Fn(items.fns.len() - 1);
    }
    // A closure body: `| .. | {`.
    if open > 0 && tok(open - 1).is_punct('|') {
        return BlockKind::Cond { looped: true };
    }
    let mut saw_impl = None;
    let mut saw_kw: Option<BlockKind> = None;
    for k in stmt_start..open {
        let t = tok(k);
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "impl" => saw_impl = Some(k),
            "trait" if saw_impl.is_none() && k + 1 < open && tok(k + 1).kind == TokKind::Ident => {
                saw_kw = Some(BlockKind::Trait(tok(k + 1).text.clone()));
            }
            "mod" if k + 1 < open && tok(k + 1).kind == TokKind::Ident => {
                saw_kw = Some(BlockKind::Mod(tok(k + 1).text.clone()));
            }
            "while" | "for" | "loop" => {
                saw_kw.get_or_insert(BlockKind::Cond { looped: true });
            }
            "if" | "else" | "match" => {
                saw_kw.get_or_insert(BlockKind::Cond { looped: false });
            }
            _ => {}
        }
    }
    if let Some(k) = saw_impl {
        let (ty, tr) = parse_impl_header(toks, code, k + 1, open);
        let header = (k + 1..open)
            .filter(|&j| tok(j).kind == TokKind::Ident)
            .map(|j| tok(j).text.clone())
            .collect();
        items.impls.push((header, Vec::new()));
        return BlockKind::Impl {
            ty,
            tr,
            ix: items.impls.len() - 1,
        };
    }
    saw_kw.unwrap_or(BlockKind::Plain)
}

/// Extracts `(self_type, trait)` from an `impl` header spanning
/// `[from, open)`: `impl<G> Trait<X> for path::Type<T> where ..`.
fn parse_impl_header(
    toks: &[Tok],
    code: &[usize],
    from: usize,
    open: usize,
) -> (Option<String>, Option<String>) {
    let tok = |k: usize| -> &Tok { &toks[code[k]] };
    let mut k = from;
    // Skip the generic parameter list, minding `->` inside bounds.
    if k < open && tok(k).is_punct('<') {
        let mut depth = 0i32;
        while k < open {
            match tok(k).kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    if k > 0 && tok(k - 1).is_punct('-') {
                        // `->` in a bound, not a closing angle.
                    } else {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }
    // First path = trait (if `for` follows) or the self type.
    let mut first_last: Option<String> = None;
    let mut second_last: Option<String> = None;
    let mut saw_for = false;
    let mut angle = 0i32;
    while k < open {
        let t = tok(k);
        match t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Ident if angle == 0 => match t.text.as_str() {
                "for" => saw_for = true,
                "where" => break,
                _ => {
                    if saw_for {
                        second_last = Some(t.text.clone());
                    } else {
                        first_last = Some(t.text.clone());
                    }
                }
            },
            _ => {}
        }
        k += 1;
    }
    if saw_for {
        (second_last, first_last)
    } else {
        (first_last, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        super::parse("f.rs", &lex(src)).fns
    }

    #[test]
    fn free_fn_with_calls_and_hazards() {
        let fns = parse("fn a(x: Option<u32>) -> u32 { helper(1); x.unwrap() }\nfn helper(n: u32) -> u32 { n }\n");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        assert_eq!(fns[0].calls.len(), 1);
        assert_eq!(fns[0].calls[0].name, "helper");
        assert!(!fns[0].calls[0].method);
        assert_eq!(fns[0].hazards.len(), 1);
        assert_eq!(fns[0].hazards[0].kind, HazardKind::Panic);
        assert!(fns[1].calls.is_empty());
    }

    #[test]
    fn impl_and_trait_context_is_recorded() {
        let src = "struct S;\nimpl Device for S {\n    fn alloc(&self) -> u32 { self.inner_alloc() }\n}\nimpl S {\n    fn inner_alloc(&self) -> u32 { 1 }\n}\ntrait Device { fn alloc(&self) -> u32; }\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].impl_type.as_deref(), Some("S"));
        assert_eq!(fns[0].trait_name.as_deref(), Some("Device"));
        assert!(fns[0].calls[0].method);
        assert_eq!(fns[1].impl_type.as_deref(), Some("S"));
        assert_eq!(fns[1].trait_name, None);
        // The body-less trait declaration is still an item.
        assert_eq!(fns[2].trait_name.as_deref(), Some("Device"));
        assert!(fns[2].calls.is_empty());
    }

    #[test]
    fn self_qualifier_resolves_to_impl_type() {
        let src =
            "impl Pool {\n    fn run(&self) { Self::helper(); Other::helper(); plain(); }\n}\n";
        let fns = parse(src);
        let calls = &fns[0].calls;
        assert_eq!(calls[0].qualifier.as_deref(), Some("Pool"));
        assert_eq!(calls[1].qualifier.as_deref(), Some("Other"));
        assert_eq!(calls[2].qualifier, None);
    }

    #[test]
    fn conditional_and_loop_flags() {
        let src = "fn f(c: bool) {\n    top();\n    if c { in_if(); }\n    for i in 0..3 { in_loop(i); }\n    while c { in_while(); }\n    match c { true => in_match(), false => {} }\n}\n";
        let fns = parse(src);
        let find = |name: &str| fns[0].calls.iter().find(|c| c.name == name).unwrap();
        assert!(!find("top").conditional && !find("top").looped);
        assert!(find("in_if").conditional && !find("in_if").looped);
        assert!(find("in_loop").looped);
        assert!(find("in_while").looped);
        assert!(find("in_match").conditional);
    }

    #[test]
    fn closures_are_conditional_and_looped() {
        let src = "fn f(v: &[u32]) -> Vec<u32> {\n    v.iter().map(|x| draw(*x)).collect()\n}\nfn g(v: &[u32]) {\n    v.iter().for_each(|x| { braced_draw(*x); });\n}\n";
        let fns = parse(src);
        let draw = fns[0].calls.iter().find(|c| c.name == "draw").unwrap();
        assert!(draw.conditional && draw.looped, "{draw:?}");
        let braced = fns[1]
            .calls
            .iter()
            .find(|c| c.name == "braced_draw")
            .unwrap();
        assert!(braced.conditional && braced.looped, "{braced:?}");
    }

    #[test]
    fn index_expressions_are_hazards_but_types_are_not() {
        let src = "fn f(v: &[u8], t: [u8; 2]) -> u8 { let [a, _b] = t; v[0] + a }\n";
        let fns = parse(src);
        let idx: Vec<_> = fns[0]
            .hazards
            .iter()
            .filter(|h| h.kind == HazardKind::Index)
            .collect();
        assert_eq!(idx.len(), 1, "{:?}", fns[0].hazards);
    }

    #[test]
    fn wallclock_and_macros_recorded() {
        let src = "fn f() -> f64 {\n    let t = std::time::Instant::now();\n    if t.elapsed().as_secs() > 1 { panic!(\"slow\") }\n    0.0\n}\n";
        let fns = parse(src);
        let kinds: Vec<_> = fns[0].hazards.iter().map(|h| h.kind).collect();
        assert!(kinds.contains(&HazardKind::Wallclock));
        assert!(kinds.contains(&HazardKind::Panic));
    }

    #[test]
    fn nested_fn_evidence_stays_with_the_inner_item() {
        let src = "fn outer(c: bool) {\n    if c {\n        fn inner(x: Option<u32>) -> u32 { x.unwrap() }\n        let _ = inner(None);\n    }\n}\n";
        let fns = parse(src);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.hazards.is_empty());
        assert_eq!(inner.hazards.len(), 1);
        // The unwrap in `inner` is unconditional *within inner*, even
        // though inner's definition sits under an `if`.
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn struct_literals_and_unsafe_blocks_stay_unconditional() {
        let src = "struct P { a: u32 }\nfn f() -> P {\n    let p = P { a: helper() };\n    unsafe { other() };\n    p\n}\n";
        let fns = parse(src);
        for c in &fns[0].calls {
            assert!(!c.conditional, "{c:?}");
        }
    }

    #[test]
    fn generic_impl_header_parses() {
        let src = "impl<'d, T: Iterator<Item = u64>> Scheduler<T> for Pool<'d> {\n    fn plan(&self) { go(); }\n}\n";
        let fns = parse(src);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Pool"));
        assert_eq!(fns[0].trait_name.as_deref(), Some("Scheduler"));
    }

    #[test]
    fn modules_are_tracked() {
        let src = "mod inner {\n    pub fn f() { g(); }\n}\nfn g() {}\n";
        let fns = parse(src);
        assert_eq!(fns[0].modules, vec!["inner".to_string()]);
        assert!(fns[1].modules.is_empty());
    }
}
