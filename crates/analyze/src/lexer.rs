//! A comment-, string- and raw-string-aware Rust tokenizer.
//!
//! This is not a full Rust lexer: it produces exactly the token stream the
//! rule engine needs — identifiers, numeric literals split into int/float,
//! string/char literals, comments (kept, since pragmas live in them), and
//! operator/punctuation tokens with the handful of two-character operators
//! the rules inspect (`==`, `!=`, `::`, `->`, `=>`, `&&`, `||`, `..`)
//! fused. Everything carries a 1-based line number so diagnostics point at
//! source.
//!
//! The tricky parts it does handle, because naive scanners get them wrong:
//! nested block comments, raw strings with arbitrary `#` fences (and their
//! byte/raw-byte cousins), raw identifiers (`r#fn`), char literals versus
//! lifetimes (`'a'` vs `'a`), and float literals versus range expressions
//! (`1.5` vs `0..10`).

/// What a token is, with the payload rules care about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (keywords are not distinguished).
    Ident,
    /// Integer literal (any base, any suffix except a float suffix).
    Int,
    /// Float literal (`1.5`, `1e-9`, `2f64`, …).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`, `br"…"`).
    Str,
    /// Char or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`), loop label included.
    Lifetime,
    /// `// …` comment, text includes the slashes.
    LineComment,
    /// `/* … */` comment (possibly nested), text includes delimiters.
    BlockComment,
    /// Operator or punctuation: single char, or one of the fused pairs.
    Punct,
}

/// One token: kind, verbatim text, and the 1-based line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Verbatim source text of the token.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Tok {
    /// Whether this is an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this is punctuation with exactly this text.
    #[must_use]
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }

    /// Whether the token is a comment (line or block).
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Two-character operators kept as single tokens (checked in order).
const FUSED: [&str; 8] = ["==", "!=", "::", "->", "=>", "&&", "||", ".."];

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Advances one byte, counting newlines. Saturates at end of input so
    /// a truncated literal (`"\` at EOF) can never push `pos` past the
    /// buffer and panic the slice in [`Lexer::slice_from`].
    fn bump(&mut self) {
        if self.pos >= self.src.len() {
            return;
        }
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn slice_from(&self, start: usize) -> String {
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    /// Consumes `//` to end of line.
    fn line_comment(&mut self) -> (TokKind, usize) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == b'\n' {
                break;
            }
            self.bump();
        }
        (TokKind::LineComment, start)
    }

    /// Consumes `/* … */` honouring nesting.
    fn block_comment(&mut self) -> (TokKind, usize) {
        let start = self.pos;
        self.bump_n(2);
        let mut depth = 1u32;
        while depth > 0 {
            if self.starts_with("/*") {
                depth += 1;
                self.bump_n(2);
            } else if self.starts_with("*/") {
                depth -= 1;
                self.bump_n(2);
            } else if self.peek(0).is_none() {
                break; // unterminated: tolerate, we are a linter not a compiler
            } else {
                self.bump();
            }
        }
        (TokKind::BlockComment, start)
    }

    /// Consumes a `"…"` string body after the opening quote position.
    fn quoted(&mut self, quote: u8) {
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            if c == b'\\' {
                self.bump();
                self.bump();
            } else if c == quote {
                self.bump();
                return;
            } else {
                self.bump();
            }
        }
    }

    /// Consumes a raw string starting at `r`/`br` (pos on the `r`'s hash
    /// run start). Returns false if it was not actually a raw string.
    fn raw_string(&mut self) -> bool {
        let mut ahead = 0;
        let mut hashes = 0;
        while self.peek(ahead) == Some(b'#') {
            hashes += 1;
            ahead += 1;
        }
        if self.peek(ahead) != Some(b'"') {
            return false;
        }
        self.bump_n(ahead + 1); // hashes + opening quote
        let fence: String = format!("\"{}", "#".repeat(hashes));
        while self.peek(0).is_some() {
            if self.starts_with(&fence) {
                self.bump_n(fence.len());
                return true;
            }
            self.bump();
        }
        true // unterminated: tolerate
    }

    fn ident_tail(&mut self) {
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
    }

    /// Consumes a numeric literal, deciding int vs float.
    fn number(&mut self) -> TokKind {
        let hex_ish = self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'));
        if hex_ish {
            self.bump_n(2);
            while let Some(c) = self.peek(0) {
                if c.is_ascii_alphanumeric() || c == b'_' {
                    self.bump();
                } else {
                    break;
                }
            }
            return TokKind::Int;
        }
        let mut is_float = false;
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        // `1.5` is a float; `0..10` and `1.method()` are not.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() || c == b'_' {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // Exponent: `1e9`, `1.5e-9`.
        if matches!(self.peek(0), Some(b'e' | b'E')) {
            let mut ahead = 1;
            if matches!(self.peek(1), Some(b'+' | b'-')) {
                ahead = 2;
            }
            if self.peek(ahead).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                self.bump_n(ahead);
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == b'_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Type suffix: `1u64` stays int, `1f64` becomes float.
        if self.starts_with("f32") || self.starts_with("f64") {
            is_float = true;
            self.bump_n(3);
        } else {
            let before = self.pos;
            self.ident_tail();
            let _ = before;
        }
        if is_float {
            TokKind::Float
        } else {
            TokKind::Int
        }
    }
}

/// Tokenizes `src`. Never fails: malformed input degrades to punct tokens.
#[must_use]
pub fn tokenize(src: &str) -> Vec<Tok> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut toks = Vec::new();
    while let Some(c) = lx.peek(0) {
        let line = lx.line;
        let start = lx.pos;
        let kind = match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                lx.bump();
                continue;
            }
            b'/' if lx.peek(1) == Some(b'/') => lx.line_comment().0,
            b'/' if lx.peek(1) == Some(b'*') => lx.block_comment().0,
            b'"' => {
                lx.quoted(b'"');
                TokKind::Str
            }
            b'r' | b'b' => {
                // Raw strings, byte strings, raw idents — or a plain ident.
                let (skip, could_raw) = match (c, lx.peek(1)) {
                    (b'r', Some(b'"' | b'#')) => (1, true),
                    (b'b', Some(b'"')) => (1, false), // b"…"
                    (b'b', Some(b'r')) if matches!(lx.peek(2), Some(b'"' | b'#')) => (2, true),
                    (b'b', Some(b'\'')) => {
                        lx.bump();
                        lx.quoted(b'\'');
                        toks.push(Tok {
                            kind: TokKind::Char,
                            text: lx.slice_from(start),
                            line,
                        });
                        continue;
                    }
                    _ => {
                        lx.ident_tail();
                        toks.push(Tok {
                            kind: TokKind::Ident,
                            text: lx.slice_from(start),
                            line,
                        });
                        continue;
                    }
                };
                if could_raw {
                    lx.bump_n(skip);
                    if lx.raw_string() {
                        toks.push(Tok {
                            kind: TokKind::Str,
                            text: lx.slice_from(start),
                            line,
                        });
                        continue;
                    }
                    // `r#ident`: raw identifier.
                    if lx.peek(0) == Some(b'#') {
                        lx.bump();
                    }
                    lx.ident_tail();
                    toks.push(Tok {
                        kind: TokKind::Ident,
                        text: lx.slice_from(start),
                        line,
                    });
                    continue;
                }
                // b"…"
                lx.bump_n(skip);
                lx.quoted(b'"');
                TokKind::Str
            }
            b'\'' => {
                // Lifetime vs char literal.
                let is_lifetime = lx
                    .peek(1)
                    .is_some_and(|c2| c2.is_ascii_alphabetic() || c2 == b'_')
                    && lx.peek(2) != Some(b'\'');
                if is_lifetime {
                    lx.bump();
                    lx.ident_tail();
                    TokKind::Lifetime
                } else {
                    lx.quoted(b'\'');
                    TokKind::Char
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                lx.ident_tail();
                TokKind::Ident
            }
            c if c.is_ascii_digit() => lx.number(),
            _ => {
                let fused = FUSED.iter().find(|op| lx.starts_with(op));
                match fused {
                    Some(op) => lx.bump_n(op.len()),
                    None => lx.bump(),
                }
                TokKind::Punct
            }
        };
        toks.push(Tok {
            kind,
            text: lx.slice_from(start),
            line,
        });
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("let x = a.unwrap();");
        assert_eq!(toks[0], (TokKind::Ident, "let".into()));
        assert_eq!(toks[3], (TokKind::Ident, "a".into()));
        assert_eq!(toks[4], (TokKind::Punct, ".".into()));
        assert_eq!(toks[5], (TokKind::Ident, "unwrap".into()));
    }

    #[test]
    fn fused_operators() {
        let toks = kinds("a == b != c :: d -> e .. f");
        let ops: Vec<String> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(ops, ["==", "!=", "::", "->", ".."]);
    }

    #[test]
    fn numbers_int_vs_float() {
        assert_eq!(kinds("1")[0].0, TokKind::Int);
        assert_eq!(kinds("0x1f")[0].0, TokKind::Int);
        assert_eq!(kinds("1u64")[0].0, TokKind::Int);
        assert_eq!(kinds("1.5")[0].0, TokKind::Float);
        assert_eq!(kinds("1e-9")[0].0, TokKind::Float);
        assert_eq!(kinds("2f64")[0].0, TokKind::Float);
        // Range is two ints and a `..`, not a float.
        let r = kinds("0..10");
        assert_eq!(r[0].0, TokKind::Int);
        assert_eq!(r[1], (TokKind::Punct, "..".into()));
        assert_eq!(r[2].0, TokKind::Int);
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"f("a.unwrap() // not a comment")"#);
        assert_eq!(toks[2].0, TokKind::Str);
        assert_eq!(toks.len(), 4); // f ( str )
    }

    #[test]
    fn raw_strings_with_fences() {
        let toks = kinds(r###"let s = r#"quote " inside"#;"###);
        assert_eq!(toks[3].0, TokKind::Str);
        assert!(toks[3].1.contains("quote"));
        let toks = kinds("let s = br#\"bytes\"#;");
        assert_eq!(toks[3].0, TokKind::Str);
    }

    #[test]
    fn raw_identifier() {
        let toks = kinds("r#fn");
        assert_eq!(toks[0], (TokKind::Ident, "r#fn".into()));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(c: char) { let x = 'x'; let n = '\\n'; }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "'x'"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Char && t == "'\\n'"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still */ x");
        assert_eq!(toks[0].0, TokKind::BlockComment);
        assert!(toks[0].1.contains("inner"));
        assert_eq!(toks[1], (TokKind::Ident, "x".into()));
    }

    #[test]
    fn line_numbers() {
        let toks = tokenize("a\nb\n\nc");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn nested_raw_string_fences() {
        // An `r#"…"#` fence closing quote inside an `r##"…"##` body must
        // not terminate the outer string early.
        let toks = kinds("let s = r##\"outer r#\"inner\"# rest\"##; x");
        assert_eq!(toks[3].0, TokKind::Str);
        assert!(toks[3].1.contains("inner"), "{:?}", toks[3].1);
        assert!(toks[3].1.contains("rest"), "{:?}", toks[3].1);
        assert_eq!(toks.last().unwrap(), &(TokKind::Ident, "x".into()));
        // Quotes inside a single-hash raw string.
        let toks = kinds("r#\"say \"hi\" loud\"#");
        assert_eq!(toks.len(), 1);
        assert!(toks[0].1.contains("\"hi\""));
    }

    #[test]
    fn byte_string_literals() {
        let toks = kinds("let b = b\"bytes \\\" escaped\"; y");
        assert_eq!(toks[3].0, TokKind::Str);
        assert!(toks[3].1.starts_with("b\""));
        assert_eq!(toks.last().unwrap(), &(TokKind::Ident, "y".into()));
        let toks = kinds("br##\"raw bytes \"# inside\"##");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].0, TokKind::Str);
        assert!(toks[0].1.contains("inside"));
    }

    #[test]
    fn truncated_literals_do_not_panic() {
        // A trailing escape at EOF used to push the cursor past the buffer.
        for src in ["\"\\", "'\\", "b\"\\", "r#\"open", "/* open", "\"open"] {
            let toks = tokenize(src);
            assert!(!toks.is_empty(), "{src:?}");
        }
    }

    #[test]
    fn doc_comment_code_fences_stay_comments() {
        // Attribute-looking text inside `///` code fences must remain part
        // of the comment token: test-region masking walks punct tokens, so
        // a `#[test]` that leaked out of the comment would mask live code.
        let src = "/// ```\n/// #[test]\n/// fn case() { x.unwrap(); }\n/// ```\nfn live() {}\n";
        let toks = tokenize(src);
        let comments: Vec<_> = toks.iter().filter(|t| t.is_comment()).collect();
        assert_eq!(comments.len(), 4);
        assert!(comments[1].text.contains("#[test]"));
        // No punct `#` escaped the comments.
        assert!(!toks.iter().any(|t| t.is_punct("#")), "{toks:?}");
        assert!(toks.iter().any(|t| t.is_ident("live")));
    }

    #[test]
    fn comment_text_preserved_for_pragmas() {
        let toks = tokenize("x(); // bshm-allow(no-raw-metric): test fixture\n");
        let c = toks.iter().find(|t| t.is_comment()).unwrap();
        assert!(c.text.contains("bshm-allow(no-raw-metric)"));
        assert_eq!(c.line, 1);
    }
}
