//! A minimal Rust lexer for the invariant linter.
//!
//! Produces a flat token stream — identifiers, single-char punctuation,
//! literals, lifetimes, and comments — each carrying a 1-based line/column
//! span. This is deliberately *not* a full parser: every rule the linter
//! enforces is expressible as a pattern over this stream plus light brace
//! matching, which keeps the pass dependency-free (no `syn`, no registry).
//!
//! The properties the rules rely on:
//!
//! * string/char/raw-string contents never leak tokens (a `{` inside a
//!   string cannot confuse brace matching, a `HashMap` inside a string
//!   cannot trip `nondet-iteration`);
//! * comments are preserved as tokens so waivers (`lint:allow`) and
//!   `// SAFETY:` justifications can be located by line;
//! * `::` arrives as two adjacent `:` punct tokens, which path-pattern
//!   rules match explicitly.

/// Token classification. `Literal` covers strings, chars, and numbers —
/// the rules never need to distinguish them, only to skip them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct(char),
    LineComment,
    BlockComment,
    Literal,
    Lifetime,
}

/// One lexed token with its source span.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based column (in chars).
    pub col: u32,
}

impl Tok {
    pub(crate) fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src` into a token stream. Unterminated constructs (string or
/// block comment running to EOF) terminate the enclosing token at EOF
/// rather than erroring — a linter should degrade, not crash, on files
/// that `rustc` itself will reject.
pub(crate) fn lex(src: &str) -> Vec<Tok> {
    let mut lx = Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut toks = Vec::new();

    while let Some(mut c) = lx.peek(0) {
        let (line, col) = (lx.line, lx.col);
        if c.is_whitespace() {
            lx.bump();
            continue;
        }
        if c == '/' && lx.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = lx.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                lx.bump();
            }
            toks.push(Tok {
                kind: TokKind::LineComment,
                text,
                line,
                col,
            });
            continue;
        }
        if c == '/' && lx.peek(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0usize;
            while let Some(ch) = lx.peek(0) {
                if ch == '/' && lx.peek(1) == Some('*') {
                    depth += 1;
                    text.push('/');
                    text.push('*');
                    lx.bump();
                    lx.bump();
                } else if ch == '*' && lx.peek(1) == Some('/') {
                    depth -= 1;
                    text.push('*');
                    text.push('/');
                    lx.bump();
                    lx.bump();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(ch);
                    lx.bump();
                }
            }
            toks.push(Tok {
                kind: TokKind::BlockComment,
                text,
                line,
                col,
            });
            continue;
        }
        // Raw strings and byte strings need a lookahead before the ident
        // path claims the `r`/`b` prefix: `r"C:\x"` must not go through
        // escape-aware string lexing.
        if (c == 'r' || c == 'b') && raw_string_ahead(&lx) {
            lex_raw_string(&mut lx);
            toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line,
                col,
            });
            continue;
        }
        if c == 'b' && lx.peek(1) == Some('"') {
            lx.bump(); // consume the b prefix, fall through to the string
            lex_string(&mut lx);
            toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line,
                col,
            });
            continue;
        }
        // Byte literal `b'x'`: consume the prefix so the `b` is not
        // claimed as an ident; the char-literal path below does the rest.
        if c == 'b' && lx.peek(1) == Some('\'') && lx.peek(2) != Some('\'') {
            lx.bump();
            c = '\'';
        }
        if c == '"' {
            lex_string(&mut lx);
            toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line,
                col,
            });
            continue;
        }
        if c == '\'' {
            // Disambiguate char literal from lifetime/label: a lifetime is
            // `'` + ident not closed by another `'`.
            let one = lx.peek(1);
            let two = lx.peek(2);
            let is_lifetime = one.is_some_and(is_ident_start) && two != Some('\'')
                || one == Some('_') && two != Some('\'');
            if is_lifetime {
                lx.bump(); // '
                let mut text = String::from("'");
                while let Some(ch) = lx.peek(0) {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch);
                    lx.bump();
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text,
                    line,
                    col,
                });
            } else {
                lx.bump(); // opening '
                if lx.peek(0) == Some('\\') {
                    lx.bump();
                    lx.bump(); // the escaped char
                               // multi-char escapes (\x41, \u{...}) run until the quote
                    while let Some(ch) = lx.peek(0) {
                        if ch == '\'' {
                            break;
                        }
                        lx.bump();
                    }
                } else {
                    lx.bump(); // the char itself
                }
                lx.bump(); // closing '
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                    col,
                });
            }
            continue;
        }
        if is_ident_start(c) {
            let mut text = String::new();
            while let Some(ch) = lx.peek(0) {
                if !is_ident_continue(ch) {
                    break;
                }
                text.push(ch);
                lx.bump();
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }
        if c.is_ascii_digit() {
            // Numbers: digits plus alphanumeric suffixes (0u64, 0xFF). A
            // `.` is consumed only when a digit follows, so `0..n` lexes
            // as `0` `.` `.` `n` and range punctuation survives.
            while let Some(ch) = lx.peek(0) {
                let in_number = is_ident_continue(ch)
                    || ch == '.' && lx.peek(1).is_some_and(|d| d.is_ascii_digit());
                if !in_number {
                    break;
                }
                lx.bump();
            }
            toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line,
                col,
            });
            continue;
        }
        lx.bump();
        toks.push(Tok {
            kind: TokKind::Punct(c),
            text: c.to_string(),
            line,
            col,
        });
    }
    toks
}

/// True when the cursor sits on `r"`, `r#`, `br"`, or `br#` — the start of
/// a raw (byte) string rather than an identifier.
fn raw_string_ahead(lx: &Lexer) -> bool {
    let mut k = 1;
    if lx.peek(0) == Some('b') {
        if lx.peek(1) != Some('r') {
            return false;
        }
        k = 2;
    }
    matches!(lx.peek(k), Some('"') | Some('#')) && {
        // skip over any #s; a raw string must then open with a quote
        let mut j = k;
        while lx.peek(j) == Some('#') {
            j += 1;
        }
        lx.peek(j) == Some('"')
    }
}

fn lex_raw_string(lx: &mut Lexer) {
    if lx.peek(0) == Some('b') {
        lx.bump();
    }
    lx.bump(); // r
    let mut hashes = 0usize;
    while lx.peek(0) == Some('#') {
        hashes += 1;
        lx.bump();
    }
    lx.bump(); // opening "
    'scan: while let Some(ch) = lx.bump() {
        if ch == '"' {
            for k in 0..hashes {
                if lx.peek(k) != Some('#') {
                    continue 'scan;
                }
            }
            for _ in 0..hashes {
                lx.bump();
            }
            break;
        }
    }
}

fn lex_string(lx: &mut Lexer) {
    lx.bump(); // opening "
    while let Some(ch) = lx.bump() {
        match ch {
            '\\' => {
                lx.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"let x = "HashMap { unsafe"; /* HashMap */ // HashMap
let y = r#"unwrap()"#;"##;
        assert_eq!(idents(src), ["let", "x", "let", "y"]);
    }

    #[test]
    fn ranges_survive_number_lexing() {
        let toks = lex("for i in 0..10 {}");
        let dots = toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Literal).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    #[test]
    fn spans_are_one_based_and_accurate() {
        let toks = lex("a\n  bb");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn escaped_quote_in_string_does_not_end_it() {
        assert_eq!(
            idents(r#"let s = "a\"unwrap\"b"; done"#),
            ["let", "s", "done"]
        );
    }

    #[test]
    fn raw_string_with_hashes_ends_only_at_matching_delimiter() {
        // The `"#` inside must not close an `r##"…"##` string.
        let src = "let s = r##\"inner \"# unwrap() still string\"##; done";
        assert_eq!(idents(src), ["let", "s", "done"]);
    }

    #[test]
    fn nested_block_comments_track_depth() {
        let src = "before /* outer /* inner unwrap() */ still comment */ after";
        assert_eq!(idents(src), ["before", "after"]);
    }

    #[test]
    fn char_and_byte_literals_hide_brace_and_bracket() {
        // A `{` or `[` inside a char/byte literal must not unbalance the
        // brace tracking the parser builds on.
        let src = "let a = '{'; let b = b'['; let c = ']'; end";
        let toks = lex(src);
        assert_eq!(idents(src), ["let", "a", "let", "b", "let", "c", "end"]);
        let braces = toks
            .iter()
            .filter(|t| t.is_punct('{') || t.is_punct('}') || t.is_punct('[') || t.is_punct(']'))
            .count();
        assert_eq!(braces, 0);
    }

    #[test]
    fn multiline_string_swallows_unwrap_across_lines() {
        let src = "let s = \"line one\n  .unwrap()\n  line three\";\nreal_call();";
        let toks = lex(src);
        assert_eq!(idents(src), ["let", "s", "real_call"]);
        // The token after the literal carries the post-string line number.
        let real = toks.iter().find(|t| t.text == "real_call").unwrap();
        assert_eq!(real.line, 4);
    }
}
