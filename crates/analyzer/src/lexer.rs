//! A hand-rolled Rust lexer — just enough to classify every byte of a
//! source file as *code*, *comment*, or *literal*.
//!
//! The passes in [`crate::passes`] are textual: they look for tokens like
//! `Ordering::Relaxed` or `.unwrap()` and must never fire on occurrences
//! inside string literals or comments (`SNIPPETS.md` quotes, doc examples,
//! regression-test notes). Conversely, the ordering audit must *find*
//! `// ORDERING:` comments. So the lexer produces three views of one
//! file:
//!
//! * [`Lexed::scrubbed`] — the source with every comment and every literal
//!   *content* replaced by spaces (delimiters and newlines kept), so code
//!   searches are literal-proof and line numbers still line up;
//! * [`Lexed::comments`] — every comment with its line range and text;
//! * [`Lexed::strings`] — every string literal with its line, value, and
//!   byte span *in the scrubbed text* (so passes can inspect the code
//!   around a literal).
//!
//! Handled correctly (and covered by the tests at the bottom): nested
//! block comments, `//` inside string literals, raw strings with any hash
//! depth (`r"…"`, `r#"…"#`, `br##"…"##`, `c"…"`), escaped quotes, char
//! literals (including `'\''` and `'"'`), and lifetimes (`'a`, `'_`) which
//! must *not* be parsed as unterminated char literals.

/// One comment (line `//…` or block `/* … */`, doc variants included).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the first character of the comment.
    pub line: usize,
    /// 1-based line of the last character of the comment.
    pub end_line: usize,
    /// Full comment text, delimiters included.
    pub text: String,
}

/// One string literal (cooked, raw, byte, or C variants).
#[derive(Debug, Clone)]
pub struct StrLit {
    /// 1-based line of the opening delimiter.
    pub line: usize,
    /// Literal content between the delimiters, escapes left as written.
    pub value: String,
    /// Byte offset of the opening delimiter in [`Lexed::scrubbed`].
    pub start: usize,
    /// Byte offset one past the closing delimiter in [`Lexed::scrubbed`].
    pub end: usize,
}

/// The lexer's output: a scrubbed code view plus comment/string side tables.
#[derive(Debug)]
pub struct Lexed {
    /// Source with comments and literal contents blanked to spaces.
    /// Newlines are preserved, so line numbers match the original file.
    pub scrubbed: String,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
    /// All string literals, in source order.
    pub strings: Vec<StrLit>,
}

impl Lexed {
    /// 1-based line number of byte `offset` in [`Lexed::scrubbed`].
    #[must_use]
    pub fn line_of(&self, offset: usize) -> usize {
        self.scrubbed.as_bytes()[..offset.min(self.scrubbed.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// Lexes `input`, classifying every character. Never fails: malformed
/// input (unterminated literals/comments) is consumed to end-of-file,
/// which is the right behavior for an auditor that must not crash on the
/// code it polices.
#[must_use]
pub fn lex(input: &str) -> Lexed {
    Lexer::new(input).run()
}

struct Lexer {
    src: Vec<char>,
    i: usize,
    line: usize,
    scrubbed: String,
    comments: Vec<Comment>,
    strings: Vec<StrLit>,
}

impl Lexer {
    fn new(input: &str) -> Self {
        Self {
            src: input.chars().collect(),
            i: 0,
            line: 1,
            scrubbed: String::with_capacity(input.len()),
            comments: Vec::new(),
            strings: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.src.get(self.i + ahead).copied()
    }

    /// Copies the current char into the scrubbed view verbatim.
    fn keep(&mut self) {
        let c = self.src[self.i];
        if c == '\n' {
            self.line += 1;
        }
        self.scrubbed.push(c);
        self.i += 1;
    }

    /// Blanks the current char in the scrubbed view (newlines survive so
    /// line numbers stay aligned).
    fn blank(&mut self) {
        let c = self.src[self.i];
        if c == '\n' {
            self.line += 1;
            self.scrubbed.push('\n');
        } else {
            self.scrubbed.push(' ');
        }
        self.i += 1;
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.cooked_string(0),
                '\'' => self.char_or_lifetime(),
                c if is_ident_start(c) => self.ident_or_prefixed_literal(),
                _ => self.keep(),
            }
        }
        Lexed {
            scrubbed: self.scrubbed,
            comments: self.comments,
            strings: self.strings,
        }
    }

    fn line_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.blank();
        }
        self.comments.push(Comment {
            line: start_line,
            end_line: start_line,
            text,
        });
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.blank();
                self.blank();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.blank();
                self.blank();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.blank();
            }
        }
        self.comments.push(Comment {
            line: start_line,
            end_line: self.line,
            text,
        });
    }

    /// A `"…"` string whose opening delimiter spans `prefix_len` extra
    /// chars already consumed by the caller (`b"`, `c"`). Handles `\`
    /// escapes; content is blanked, delimiters kept.
    fn cooked_string(&mut self, _prefix_len: usize) {
        let start_line = self.line;
        let start = self.scrubbed.len();
        self.keep(); // opening quote
        let mut value = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                value.push(c);
                self.blank();
                if let Some(esc) = self.peek(0) {
                    value.push(esc);
                    self.blank();
                }
            } else if c == '"' {
                self.keep(); // closing quote
                break;
            } else {
                value.push(c);
                self.blank();
            }
        }
        self.strings.push(StrLit {
            line: start_line,
            value,
            start,
            end: self.scrubbed.len(),
        });
    }

    /// A raw string starting at the current `r` (possibly after a `b`/`c`
    /// the caller already kept): `r"…"`, `r#"…"#`, any hash depth.
    fn raw_string(&mut self) {
        let start_line = self.line;
        let start = self.scrubbed.len();
        self.keep(); // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.keep();
        }
        if self.peek(0) != Some('"') {
            return; // not actually a raw string (e.g. `r#ident`); leave as code
        }
        self.keep(); // opening quote
        let mut value = String::new();
        'scan: while let Some(c) = self.peek(0) {
            if c == '"' {
                // Close only when followed by exactly `hashes` hash marks.
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.keep(); // closing quote
                    for _ in 0..hashes {
                        self.keep();
                    }
                    break 'scan;
                }
            }
            value.push(c);
            self.blank();
        }
        self.strings.push(StrLit {
            line: start_line,
            value,
            start,
            end: self.scrubbed.len(),
        });
    }

    /// Char literal, byte-char literal, or lifetime/loop-label.
    fn char_or_lifetime(&mut self) {
        match (self.peek(1), self.peek(2)) {
            // '\…' — escaped char literal: consume through the closing quote.
            (Some('\\'), _) => {
                let start_line = self.line;
                let start = self.scrubbed.len();
                self.keep(); // opening quote
                let mut value = String::new();
                while let Some(c) = self.peek(0) {
                    if c == '\\' {
                        value.push(c);
                        self.blank();
                        if let Some(esc) = self.peek(0) {
                            value.push(esc);
                            self.blank();
                        }
                    } else if c == '\'' {
                        self.keep();
                        break;
                    } else {
                        value.push(c);
                        self.blank();
                    }
                }
                self.strings.push(StrLit {
                    line: start_line,
                    value,
                    start,
                    end: self.scrubbed.len(),
                });
            }
            // 'x' — single-char literal (covers '"', '_', unicode chars).
            (Some(_), Some('\'')) => {
                let start_line = self.line;
                let start = self.scrubbed.len();
                self.keep(); // opening quote
                let mut value = String::new();
                if let Some(c) = self.peek(0) {
                    value.push(c);
                    self.blank();
                }
                self.keep(); // closing quote
                self.strings.push(StrLit {
                    line: start_line,
                    value,
                    start,
                    end: self.scrubbed.len(),
                });
            }
            // 'ident — lifetime or loop label: keep the quote, the
            // identifier is consumed as ordinary code.
            _ => self.keep(),
        }
    }

    /// An identifier — or a literal with an identifier-like prefix
    /// (`r"…"`, `br#"…"#, `b"…"`, `c"…"`, `b'x'`). Identifiers are
    /// consumed atomically so `for"x"`-style false raw-string matches
    /// cannot happen mid-identifier.
    fn ident_or_prefixed_literal(&mut self) {
        let c = self.src[self.i];
        let next = self.peek(1);
        // Raw string: r" r# — possibly after b/c (br" cr#").
        if c == 'r' && matches!(next, Some('"') | Some('#')) {
            self.raw_string();
            return;
        }
        if (c == 'b' || c == 'c')
            && next == Some('r')
            && matches!(self.peek(2), Some('"') | Some('#'))
        {
            self.keep(); // 'b' / 'c'
            self.raw_string();
            return;
        }
        if (c == 'b' || c == 'c') && next == Some('"') {
            self.keep(); // 'b' / 'c'
            self.cooked_string(1);
            return;
        }
        if c == 'b' && next == Some('\'') {
            self.keep(); // 'b'
            self.char_or_lifetime();
            return;
        }
        // Plain identifier.
        while let Some(c) = self.peek(0) {
            if is_ident_char(c) {
                self.keep();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_passes_through_unchanged() {
        let src = "fn main() { let x = 1 + 2; }";
        let lexed = lex(src);
        assert_eq!(lexed.scrubbed, src);
        assert!(lexed.comments.is_empty());
        assert!(lexed.strings.is_empty());
    }

    #[test]
    fn line_comment_is_blanked_and_recorded() {
        let src = "let x = 1; // Ordering::Relaxed here is just prose\nlet y = 2;";
        let lexed = lex(src);
        assert!(!lexed.scrubbed.contains("Ordering"));
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(lexed.comments[0].text.contains("Ordering::Relaxed"));
        assert!(lexed.scrubbed.contains("let y = 2;"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let lexed = lex(src);
        // One comment covering the whole nested span: `still comment` is
        // part of it, and the trailing ` b` survives as code.
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("inner"));
        assert!(lexed.comments[0].text.contains("still comment"));
        assert!(!lexed.scrubbed.contains("still"));
        assert!(lexed.scrubbed.starts_with("a "));
        assert!(lexed.scrubbed.ends_with(" b"));
    }

    #[test]
    fn multiline_block_comment_tracks_lines() {
        let src = "x\n/* one\ntwo\nthree */\ny";
        let lexed = lex(src);
        assert_eq!(lexed.comments[0].line, 2);
        assert_eq!(lexed.comments[0].end_line, 4);
        // Newlines survive blanking: 'y' is still on line 5.
        assert_eq!(lexed.line_of(lexed.scrubbed.rfind('y').unwrap()), 5);
    }

    #[test]
    fn slashes_inside_string_are_not_comments() {
        let src = r#"let url = "http://example.com/a"; let z = 1;"#;
        let lexed = lex(src);
        assert!(lexed.comments.is_empty());
        assert_eq!(lexed.strings.len(), 1);
        assert_eq!(lexed.strings[0].value, "http://example.com/a");
        assert!(lexed.scrubbed.contains("let z = 1;"));
        assert!(!lexed.scrubbed.contains("example"));
    }

    #[test]
    fn ordering_token_inside_plain_string_is_blanked() {
        let src = r#"let s = "Ordering::Relaxed";"#;
        let lexed = lex(src);
        assert!(!lexed.scrubbed.contains("Ordering"));
        assert_eq!(lexed.strings[0].value, "Ordering::Relaxed");
    }

    #[test]
    fn raw_string_containing_ordering_relaxed() {
        let src = r###"let s = r#"load(Ordering::Relaxed) // not code"#; let t = 3;"###;
        let lexed = lex(src);
        assert!(!lexed.scrubbed.contains("Ordering"));
        assert!(
            lexed.comments.is_empty(),
            "// inside raw string is not a comment"
        );
        assert_eq!(
            lexed.strings[0].value,
            "load(Ordering::Relaxed) // not code"
        );
        assert!(lexed.scrubbed.contains("let t = 3;"));
    }

    #[test]
    fn raw_string_with_inner_quote_hash_mismatch() {
        // The "# inside must not close a ##-delimited raw string.
        let src = r####"let s = r##"a "# b"##; done"####;
        let lexed = lex(src);
        assert_eq!(lexed.strings[0].value, r##"a "# b"##);
        assert!(lexed.scrubbed.contains("done"));
    }

    #[test]
    fn byte_and_c_strings() {
        let src = r##"let a = b"bytes//x"; let b = c"cstr"; let c = br#"raw"#;"##;
        let lexed = lex(src);
        assert_eq!(lexed.strings.len(), 3);
        assert!(lexed.comments.is_empty());
        assert_eq!(lexed.strings[0].value, "bytes//x");
    }

    #[test]
    fn escaped_quote_does_not_terminate() {
        let src = r#"let s = "he said \"hi\" // ok"; let u = 9;"#;
        let lexed = lex(src);
        assert_eq!(lexed.strings.len(), 1);
        assert!(lexed.comments.is_empty());
        assert!(lexed.scrubbed.contains("let u = 9;"));
    }

    #[test]
    fn char_literals_including_quote_and_escape() {
        let src = r#"let a = '"'; let b = '\''; let c = '\\'; let d = 'x';"#;
        let lexed = lex(src);
        assert_eq!(lexed.strings.len(), 4);
        assert!(lexed.comments.is_empty());
        // The double-quote char literal must not open a string.
        assert!(lexed.scrubbed.contains("let b ="));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } // done";
        let lexed = lex(src);
        assert!(lexed.strings.is_empty());
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.scrubbed.contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn comment_marker_inside_char_literal() {
        let src = "let slash = '/'; let quote = '\\''; // trailing";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("trailing"));
    }

    #[test]
    fn string_span_offsets_point_into_scrubbed() {
        let src = r#"serde::map_field(map, "store")?"#;
        let lexed = lex(src);
        let lit = &lexed.strings[0];
        assert_eq!(&lexed.scrubbed[lit.start..lit.start + 1], "\"");
        assert_eq!(lit.value, "store");
        // Code before the literal is intact in the scrubbed view.
        assert!(lexed.scrubbed[..lit.start].contains("map_field"));
    }

    #[test]
    fn unterminated_string_consumes_to_eof_without_panicking() {
        let src = "let s = \"never closed...";
        let lexed = lex(src);
        assert_eq!(lexed.strings.len(), 1);
        assert!(!lexed.scrubbed.contains("never"));
    }
}
