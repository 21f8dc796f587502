//! A small, dependency-free Rust lexer feeding the source-lint analysis.
//!
//! The line-regex lints of earlier revisions matched inside string literals
//! and comments; the `SL0xx` checks now consume this token stream instead,
//! so prose like "call `.unwrap()` here" can never fire a lint again.
//!
//! The lexer handles the parts of the grammar that matter for *not
//! mis-tokenizing*: line and (nested) block comments, string / raw-string /
//! byte-string literals with escapes, char literals vs. lifetimes
//! (`'a'` vs. `'a`), numeric literals with suffixes, raw identifiers, and
//! multi-character operators. It is deliberately lossy about everything
//! else — downstream passes see identifiers, literals, and punctuation
//! with 1-based line numbers, which is all the checks need.
//!
//! Comments are not discarded: they are scanned for `mpicheck:allow(...)`
//! suppression directives (see [`AllowDirective`]), which since this
//! revision must carry a trailing justification.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `wait`, `r#match`, …).
    Ident,
    /// Lifetime (`'a`, `'static`), quote stripped.
    Lifetime,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`); text is
    /// not retained.
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Integer literal, original text retained (`42`, `0xfe_u32`).
    Int,
    /// Float literal, original text retained (`1.0`, `2e-3`).
    Float,
    /// Punctuation; multi-character operators the checks care about
    /// (`::`, `==`, `!=`, `=>`, `->`, `..`) are fused into one token.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Source text (empty for `Str`/`Char`, whose content is irrelevant).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Token {
    /// `true` for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` for punctuation with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A `mpicheck:allow(...)` directive found in a comment.
///
/// Syntax: `mpicheck:allow(SL0xx)` or `mpicheck:allow(SL0xx, SL0yy):
/// justification text` (with real lint codes — placeholders here keep this
/// doc comment from parsing as a directive). The justification is whatever non-empty text
/// follows the closing parenthesis (leading `:`, `—`, `-`, `.` separators
/// stripped); an allow without one is itself reported (`SL013`). A
/// directive suppresses matching findings on its own line and the line
/// below. Comments whose parenthesised list contains no well-formed
/// `SLnnn` code (prose like `SL00x`) are not directives at all.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The `SLnnn` codes listed, e.g. `["SL001", "SL015"]`.
    pub codes: Vec<String>,
    /// 1-based line the directive text sits on.
    pub line: usize,
    /// Trailing justification, if any.
    pub justification: Option<String>,
}

/// Output of [`lex`]: the token stream plus the comment-derived metadata
/// the lint driver needs.
#[derive(Debug)]
pub struct Lexed {
    /// Every token, in source order.
    pub tokens: Vec<Token>,
    /// Every well-formed suppression directive found in comments.
    pub allows: Vec<AllowDirective>,
    /// 1-based line of the file's first `#[cfg(test)]` line (the repo
    /// convention keeps test modules at the end of a file); everything at
    /// or below it is test code. `usize::MAX` when absent.
    pub test_boundary: usize,
}

impl Lexed {
    /// `true` when `line` is at or below the test-module boundary.
    pub fn in_test(&self, line: usize) -> bool {
        line >= self.test_boundary
    }
}

/// Two-character operators fused into a single `Punct` token.
const TWO_CHAR_OPS: &[&str] = &["::", "==", "!=", "=>", "->", "..", "&&", "||", "<=", ">="];

/// Lexes `src` into tokens, allow directives, and the test boundary.
/// Malformed input (unterminated strings/comments) never panics; the lexer
/// consumes to end-of-file and returns what it has.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut allows = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;

    let test_boundary = src
        .lines()
        .position(|l| l.trim() == "#[cfg(test)]")
        .map(|p| p + 1)
        .unwrap_or(usize::MAX);

    while i < chars.len() {
        let c = chars[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            scan_comment(&text, line, &mut allows);
            continue;
        }
        // Block comment (nested).
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = i;
            let start_line = line;
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let text: String = chars[start..i.min(chars.len())].iter().collect();
            scan_comment(&text, start_line, &mut allows);
            continue;
        }
        // String literals, including raw/byte prefixes. A prefix ident
        // (`r`, `b`, `br`, `c`, `cr`) is only a prefix when hashes/quote
        // follow directly.
        if c == '"' {
            i = consume_string(&chars, i, &mut line);
            tokens.push(Token {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
            continue;
        }
        if (c == 'r' || c == 'b' || c == 'c') && is_string_prefix(&chars, i) {
            let start_line = line;
            i = consume_prefixed_string(&chars, i, &mut line);
            tokens.push(Token {
                kind: TokKind::Str,
                text: String::new(),
                line: start_line,
            });
            continue;
        }
        // Byte-char literal b'x'.
        if c == 'b' && chars.get(i + 1) == Some(&'\'') {
            i = consume_char_literal(&chars, i + 1);
            tokens.push(Token {
                kind: TokKind::Char,
                text: String::new(),
                line,
            });
            continue;
        }
        // Raw identifier r#ident.
        if c == 'r' && chars.get(i + 1) == Some(&'#') && ident_start(chars.get(i + 2)) {
            let start = i + 2;
            i = start;
            while i < chars.len() && ident_continue(chars[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Identifier / keyword.
        if ident_start(Some(&c)) {
            let start = i;
            while i < chars.len() && ident_continue(chars[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if chars.get(i + 1) == Some(&'\\')
                || (chars.get(i + 1).is_some() && chars.get(i + 2) == Some(&'\''))
            {
                i = consume_char_literal(&chars, i);
                tokens.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
            } else {
                let start = i + 1;
                i = start;
                while i < chars.len() && ident_continue(chars[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            continue;
        }
        // Numeric literal.
        if c.is_ascii_digit() {
            let (end, kind) = consume_number(&chars, i);
            tokens.push(Token {
                kind,
                text: chars[i..end].iter().collect(),
                line,
            });
            i = end;
            continue;
        }
        // Punctuation; fuse the two-char operators the checks match on.
        let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
        if TWO_CHAR_OPS.contains(&two.as_str()) {
            // `..=` — extend the range token so `=` isn't orphaned.
            let text = if two == ".." && chars.get(i + 2) == Some(&'=') {
                i += 3;
                "..=".to_owned()
            } else {
                i += 2;
                two
            };
            tokens.push(Token {
                kind: TokKind::Punct,
                text,
                line,
            });
            continue;
        }
        tokens.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }

    Lexed {
        tokens,
        allows,
        test_boundary,
    }
}

fn ident_start(c: Option<&char>) -> bool {
    c.is_some_and(|&c| c.is_alphabetic() || c == '_')
}

fn ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `true` when the ident starting at `i` is a string prefix (`r"`, `r#"`,
/// `b"`, `br"`, `c"`, …) rather than a plain identifier.
fn is_string_prefix(chars: &[char], i: usize) -> bool {
    let mut j = i;
    while j < chars.len() && matches!(chars[j], 'r' | 'b' | 'c') && j - i < 2 {
        j += 1;
    }
    while j < chars.len() && chars[j] == '#' {
        j += 1;
    }
    // At least one of r/b/c consumed, then optional hashes, then a quote —
    // and raw strings require the hashes to belong to an r/br/cr prefix.
    chars.get(j) == Some(&'"') && j > i
}

/// Consumes a plain `"…"` string starting at the opening quote; returns
/// the index past the closing quote. Tracks newlines in `line`.
fn consume_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1; // opening quote
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            c => {
                if c == '\n' {
                    *line += 1;
                }
                i += 1;
            }
        }
    }
    i
}

/// Consumes a prefixed string (`r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, …)
/// starting at the prefix; returns the index past the closing delimiter.
fn consume_prefixed_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    let mut raw = false;
    while i < chars.len() && matches!(chars[i], 'r' | 'b' | 'c') {
        raw |= chars[i] == 'r';
        i += 1;
    }
    let mut hashes = 0usize;
    while i < chars.len() && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return i; // not actually a string; give up gracefully
    }
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' if !raw => i += 2,
            '"' => {
                let mut j = i + 1;
                let mut seen = 0usize;
                while seen < hashes && chars.get(j) == Some(&'#') {
                    seen += 1;
                    j += 1;
                }
                if seen == hashes {
                    return j;
                }
                i += 1;
            }
            c => {
                if c == '\n' {
                    *line += 1;
                }
                i += 1;
            }
        }
    }
    i
}

/// Consumes a char literal starting at the opening `'`; returns the index
/// past the closing `'`.
fn consume_char_literal(chars: &[char], mut i: usize) -> usize {
    i += 1; // opening quote
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Consumes a numeric literal starting at a digit; returns (end index,
/// Int/Float classification). Handles `0x…`, separators, `1.5`, `2e-3`,
/// and type suffixes (`1.0f32`, `42u64`).
fn consume_number(chars: &[char], start: usize) -> (usize, TokKind) {
    let mut i = start;
    let mut float = false;
    // Radix prefix: everything after it is ident-class.
    if chars[i] == '0' && matches!(chars.get(i + 1), Some('x') | Some('o') | Some('b')) {
        i += 2;
        while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        return (i, TokKind::Int);
    }
    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
        i += 1;
    }
    // Fractional part — but not `1..2` (range) or `1.method()`.
    if chars.get(i) == Some(&'.')
        && chars.get(i + 1) != Some(&'.')
        && chars.get(i + 1).is_none_or(|c| !ident_start(Some(c)))
    {
        float = true;
        i += 1;
        while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
            i += 1;
        }
    }
    // Exponent.
    if matches!(chars.get(i), Some('e') | Some('E')) {
        let mut j = i + 1;
        if matches!(chars.get(j), Some('+') | Some('-')) {
            j += 1;
        }
        if chars.get(j).is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            i = j;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
        }
    }
    // Type suffix (`u32`, `f64`, …).
    let suffix_start = i;
    while i < chars.len() && ident_continue(chars[i]) {
        i += 1;
    }
    let suffix: String = chars[suffix_start..i].iter().collect();
    if suffix.starts_with('f') {
        float = true;
    }
    (i, if float { TokKind::Float } else { TokKind::Int })
}

/// Scans one comment's text for `mpicheck:allow(...)` directives. The
/// directive's line accounts for newlines inside block comments.
fn scan_comment(text: &str, first_line: usize, out: &mut Vec<AllowDirective>) {
    let mut rest = text;
    let mut consumed = 0usize;
    const MARKER: &str = "mpicheck:allow(";
    while let Some(pos) = rest.find(MARKER) {
        let abs = consumed + pos;
        let line = first_line + text[..abs].matches('\n').count();
        let after = &rest[pos + MARKER.len()..];
        let Some(close) = after.find(')') else {
            break;
        };
        let codes: Vec<String> = after[..close]
            .split(',')
            .map(|c| c.trim().to_owned())
            .filter(|c| is_lint_code(c))
            .collect();
        if !codes.is_empty() {
            let tail = after[close + 1..]
                .lines()
                .next()
                .unwrap_or("")
                .trim_start_matches(|c: char| {
                    c.is_whitespace() || matches!(c, ':' | '-' | '.' | '—' | '–')
                })
                .trim();
            let justification = if tail.is_empty() {
                None
            } else {
                Some(tail.to_owned())
            };
            out.push(AllowDirective {
                codes,
                line,
                justification,
            });
        }
        let advance = pos + MARKER.len() + close + 1;
        consumed += advance;
        rest = &rest[advance..];
    }
}

/// `true` for a well-formed `SLnnn` lint code.
fn is_lint_code(s: &str) -> bool {
    s.len() == 5 && s.starts_with("SL") && s[2..].chars().all(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn comments_and_strings_produce_no_idents() {
        let src = "// prose .unwrap() here\nlet s = \".unwrap()\"; /* nested /* .unwrap() */ */";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s"]);
    }

    #[test]
    fn raw_strings_and_hashes_are_opaque() {
        let src = "let s = r#\"contains \" and .unwrap()\"#; f();";
        assert!(idents(src).contains(&"f".to_owned()));
        assert!(!idents(src).contains(&"unwrap".to_owned()));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }";
        let lx = lex(src);
        let lifetimes: Vec<_> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let lx = lex("let a = 42u32; let b = 1.5; let c = 2e-3; let d = 0..n; let e = 1f64;");
        let kinds: Vec<TokKind> = lx
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Int,
                TokKind::Float,
                TokKind::Float,
                TokKind::Int,
                TokKind::Float
            ]
        );
    }

    #[test]
    fn operators_fuse() {
        let lx = lex("a == b != c => d -> e :: f .. g ..= h");
        let puncts: Vec<String> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "=>", "->", "::", "..", "..="]);
    }

    #[test]
    fn lines_track_through_comments_and_strings() {
        let src = "a\n/* two\nlines */ b\n\"str\nacross\" c";
        let lx = lex(src);
        let find = |name: &str| {
            lx.tokens
                .iter()
                .find(|t| t.is_ident(name))
                .map(|t| t.line)
                .expect("token present")
        };
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 3);
        assert_eq!(find("c"), 5);
    }

    #[test]
    fn allow_directive_with_and_without_justification() {
        let lx = lex("// mpicheck:allow(SL001): fixture pattern\nx();\n// mpicheck:allow(SL002)\n");
        assert_eq!(lx.allows.len(), 2);
        assert_eq!(lx.allows[0].codes, vec!["SL001"]);
        assert_eq!(
            lx.allows[0].justification.as_deref(),
            Some("fixture pattern")
        );
        assert_eq!(lx.allows[0].line, 1);
        assert_eq!(lx.allows[1].line, 3);
        assert!(lx.allows[1].justification.is_none());
    }

    #[test]
    fn prose_codes_are_not_directives() {
        let lx = lex("//! suppressed with `mpicheck:allow(SL00x)` on the line\n");
        assert!(lx.allows.is_empty());
    }

    #[test]
    fn multi_code_directive_parses() {
        let lx = lex("// mpicheck:allow(SL001, SL015): both are fixture literals\n");
        assert_eq!(lx.allows[0].codes, vec!["SL001", "SL015"]);
    }

    #[test]
    fn test_boundary_is_found() {
        let lx = lex("fn a() {}\n#[cfg(test)]\nmod tests {}\n");
        assert_eq!(lx.test_boundary, 2);
        assert!(!lx.in_test(1));
        assert!(lx.in_test(2));
    }
}
