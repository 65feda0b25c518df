//! A minimal Rust lexer for the token rules in [`crate::rules`], which
//! match short sequences (`== 1.5`, `.sum::<f64>()`, `acc +=`) under
//! bracket tracking. It gets right what would otherwise produce false
//! positives: comments, (raw) strings, char literals vs. lifetimes, and
//! float vs. integer literals. Comments are kept apart because they carry
//! the `lint:allow` escape-hatch directives.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (including hex/oct/bin).
    Int,
    /// Float literal (has a fractional part, an exponent, or an `f32`/`f64`
    /// suffix).
    Float,
    /// String literal (regular, raw, or byte); content is not retained.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Operator or punctuation. Multi-character operators relevant to the
    /// lint rules (`==`, `!=`, `::`, `->`, `..`, …) are single tokens.
    Op,
}

/// One lexed token with its source line (1-based) and byte span.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token text (empty for `Str`).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
    /// Byte offset of the first byte of the token.
    pub start: u32,
    /// Byte offset one past the last byte of the token.
    pub end: u32,
}

/// A comment (line or block), captured for `lint:allow` directive parsing.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text, excluding the `//` / `/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (same as `line` for line comments).
    pub end_line: u32,
}

/// Result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character operators the rules care about, longest first so greedy
/// matching is unambiguous.
const MULTI_OPS: &[&str] = &[
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Lexes `source` into tokens and comments. Never panics: malformed input
/// (unterminated strings, stray bytes) degrades into best-effort tokens,
/// which is acceptable for linting code that `rustc` already accepts.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    // Byte offset of each char index (plus one-past-the-end), so tokens can
    // carry byte spans while the scanner works in char indices.
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut byte = 0u32;
    for c in &chars {
        offsets.push(byte);
        byte += c.len_utf8() as u32;
    }
    offsets.push(byte);
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // String and char literals keep no text: no rule reads inside them.
    let token = |kind: TokenKind, from: usize, to: usize, line: u32| Token {
        kind,
        text: match kind {
            TokenKind::Str | TokenKind::Char => String::new(),
            _ => chars[from..to].iter().collect(),
        },
        line,
        start: offsets[from],
        end: offsets[to],
    };

    let count_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count() as u32;

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n {
            if chars[i + 1] == '/' {
                let start = i + 2;
                let mut j = start;
                while j < n && chars[j] != '\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    text: chars[start..j].iter().collect(),
                    line,
                    end_line: line,
                });
                i = j;
                continue;
            }
            if chars[i + 1] == '*' {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1u32;
                let mut j = start;
                while j < n && depth > 0 {
                    if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                line += count_lines(&chars[i..j]);
                out.comments.push(Comment {
                    text: chars[start..end].iter().collect(),
                    line: start_line,
                    end_line: line,
                });
                i = j;
                continue;
            }
        }
        // Raw / byte string prefixes and raw identifiers.
        if c == 'r' || c == 'b' {
            if let Some((j, lines, kind)) = lex_prefixed_literal(&chars, i) {
                out.tokens.push(token(kind, i, j, line));
                line += lines;
                i = j;
                continue;
            }
        }
        // Regular string.
        if c == '"' {
            let (j, lines) = skip_string(&chars, i);
            out.tokens.push(token(TokenKind::Str, i, j, line));
            line += lines;
            i = j;
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let (kind, j) = lex_quote(&chars, i);
            out.tokens.push(token(kind, i, j, line));
            i = j;
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let (kind, j) = lex_number(&chars, i);
            out.tokens.push(token(kind, i, j, line));
            i = j;
            continue;
        }
        // Identifiers / keywords.
        if c == '_' || c.is_alphabetic() {
            let mut j = i + 1;
            while j < n && (chars[j] == '_' || chars[j].is_alphanumeric()) {
                j += 1;
            }
            out.tokens.push(token(TokenKind::Ident, i, j, line));
            i = j;
            continue;
        }
        // Multi-char operators, longest first.
        let mut matched = false;
        for op in MULTI_OPS {
            let len = op.len();
            if i + len <= n && chars[i..i + len].iter().collect::<String>() == **op {
                out.tokens.push(token(TokenKind::Op, i, i + len, line));
                i += len;
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        out.tokens.push(token(TokenKind::Op, i, i + 1, line));
        i += 1;
    }
    out
}

/// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'` and raw identifiers
/// (`r#match`). Returns `(next_index, newlines_consumed, kind)` when the
/// position really starts such a literal / identifier, `None` when the `r` /
/// `b` is just the start of a plain identifier.
fn lex_prefixed_literal(chars: &[char], i: usize) -> Option<(usize, u32, TokenKind)> {
    let n = chars.len();
    let mut j = i + 1;
    if chars[i] == 'b' && j < n && chars[j] == 'r' {
        j += 1;
    }
    if chars[i] == 'b' && j == i + 1 && j < n && chars[j] == '\'' {
        // Byte char literal b'x'.
        let (_, end) = lex_quote(chars, j);
        return Some((end, 0, TokenKind::Char));
    }
    // Count hashes (raw strings only make sense when an `r` is present).
    let has_r = chars[i] == 'r' || (j > i + 1);
    let mut hashes = 0usize;
    while has_r && j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if has_r && hashes > 0 && j < n && (chars[j] == '_' || chars[j].is_alphabetic()) {
        // Raw identifier r#ident.
        let mut k = j;
        while k < n && (chars[k] == '_' || chars[k].is_alphanumeric()) {
            k += 1;
        }
        return Some((k, 0, TokenKind::Ident));
    }
    if j < n && chars[j] == '"' {
        // (Raw) string: scan for closing quote followed by `hashes` hashes.
        let mut k = j + 1;
        let mut newlines = 0u32;
        while k < n {
            if chars[k] == '\n' {
                newlines += 1;
            }
            if chars[k] == '\\' && hashes == 0 {
                k += 2;
                continue;
            }
            if chars[k] == '"' {
                let mut h = 0usize;
                while h < hashes && k + 1 + h < n && chars[k + 1 + h] == '#' {
                    h += 1;
                }
                if h == hashes {
                    return Some((k + 1 + hashes, newlines, TokenKind::Str));
                }
            }
            k += 1;
        }
        return Some((n, newlines, TokenKind::Str));
    }
    None
}

/// Skips a regular `"…"` string starting at `i`. Returns `(next_index,
/// newlines_consumed)`.
fn skip_string(chars: &[char], i: usize) -> (usize, u32) {
    let n = chars.len();
    let mut j = i + 1;
    let mut newlines = 0u32;
    while j < n {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                newlines += 1;
                j += 1;
            }
            '"' => return (j + 1, newlines),
            _ => j += 1,
        }
    }
    (n, newlines)
}

/// Disambiguates a `'` into a lifetime or a char literal; returns the
/// kind and the index after it.
fn lex_quote(chars: &[char], i: usize) -> (TokenKind, usize) {
    let n = chars.len();
    // Lifetime: 'ident not followed by a closing quote.
    if i + 1 < n && (chars[i + 1] == '_' || chars[i + 1].is_alphabetic()) {
        let mut j = i + 2;
        while j < n && (chars[j] == '_' || chars[j].is_alphanumeric()) {
            j += 1;
        }
        if j >= n || chars[j] != '\'' {
            return (TokenKind::Lifetime, j);
        }
    }
    // Char literal, possibly escaped ('\n', '\'', '\u{1F600}').
    let mut j = i + 1;
    if j < n && chars[j] == '\\' {
        j += 2;
        if j <= n && j >= 2 && chars[j - 1] == 'u' {
            while j < n && chars[j] != '}' {
                j += 1;
            }
            j += 1;
        }
    } else if j < n {
        j += 1;
    }
    if j < n && chars[j] == '\'' {
        j += 1;
    }
    (TokenKind::Char, j)
}

/// Lexes a numeric literal starting at a digit. Distinguishes floats from
/// integers: a float has a consumed `.`, an exponent, or an `f32`/`f64`
/// suffix. A `.` is consumed only when followed by a digit, so `1.max(2)`
/// and range expressions (`0..n`) lex as integers. Returns the kind and
/// the index after the literal.
fn lex_number(chars: &[char], i: usize) -> (TokenKind, usize) {
    let n = chars.len();
    let mut j = i;
    let mut is_float = false;
    // Radix prefixes never start floats.
    if chars[i] == '0' && i + 1 < n && matches!(chars[i + 1], 'x' | 'o' | 'b') {
        j = i + 2;
        while j < n && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return (TokenKind::Int, j);
    }
    while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
        j += 1;
    }
    if j < n && chars[j] == '.' && j + 1 < n && chars[j + 1].is_ascii_digit() {
        is_float = true;
        j += 1;
        while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
            j += 1;
        }
    }
    if j < n && (chars[j] == 'e' || chars[j] == 'E') {
        let mut k = j + 1;
        if k < n && (chars[k] == '+' || chars[k] == '-') {
            k += 1;
        }
        if k < n && chars[k].is_ascii_digit() {
            is_float = true;
            j = k;
            while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
    }
    // Type suffix (f64, u32, usize, …).
    let suffix_start = j;
    while j < n && (chars[j] == '_' || chars[j].is_alphanumeric()) {
        j += 1;
    }
    let suffix: String = chars[suffix_start..j].iter().collect();
    if suffix == "f32" || suffix == "f64" {
        is_float = true;
    }
    let kind = if is_float {
        TokenKind::Float
    } else {
        TokenKind::Int
    };
    (kind, j)
}

/// Whether a float-literal token text denotes exactly zero (`0.0`, `0.`,
/// `0e3`, `0.000f64`). Used by the F2 rule's exact-zero exemption.
pub fn float_literal_is_zero(text: &str) -> bool {
    let cleaned: String = text
        .chars()
        .filter(|c| *c != '_')
        .collect::<String>()
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .to_string();
    // Strip an exponent: the mantissa alone decides zero-ness.
    let mantissa = match cleaned.split_once(['e', 'E']) {
        Some((m, _)) => m,
        None => cleaned.as_str(),
    };
    mantissa.chars().all(|c| c == '0' || c == '.') && mantissa.contains('0')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let lexed = lex("let a = 1; // HashMap here\n/* HashSet\ntoo */ let b;");
        assert!(lexed.tokens.iter().all(|t| t.text != "HashMap"));
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("HashMap"));
        assert!(lexed.comments[1].text.contains("HashSet"));
    }

    #[test]
    fn strings_do_not_leak_identifiers() {
        assert_eq!(idents(r#"let s = "unwrap partial_cmp";"#), vec!["let", "s"]);
        assert_eq!(idents(r##"let s = r#"panic!"#;"##), vec!["let", "s"]);
        assert_eq!(idents(r#"let s = b"expect";"#), vec!["let", "s"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn float_vs_int_literals() {
        let kinds: Vec<TokenKind> = lex("1 1.5 2e3 0x1F 3f64 4usize 0..n 1.max(2)")
            .tokens
            .into_iter()
            .map(|t| t.kind)
            .collect();
        assert_eq!(kinds[0], TokenKind::Int);
        assert_eq!(kinds[1], TokenKind::Float);
        assert_eq!(kinds[2], TokenKind::Float);
        assert_eq!(kinds[3], TokenKind::Int);
        assert_eq!(kinds[4], TokenKind::Float);
        assert_eq!(kinds[5], TokenKind::Int);
        // `0..n` must lex as Int, Op(..), Ident.
        assert_eq!(kinds[6], TokenKind::Int);
        // `1.max(2)` must lex the 1 as Int (method call, not float).
        let texts: Vec<String> = lex("1.max(2)").tokens.into_iter().map(|t| t.text).collect();
        assert_eq!(texts[0], "1");
        assert_eq!(texts[1], ".");
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        let ops: Vec<String> = lex("a == b != c && d .. e ..= f :: g -> h => i")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Op)
            .map(|t| t.text)
            .collect();
        assert_eq!(ops, vec!["==", "!=", "&&", "..", "..=", "::", "->", "=>"]);
    }

    #[test]
    fn assignment_with_negation_is_not_ne() {
        let ops: Vec<String> = lex("a = !b;")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Op)
            .map(|t| t.text)
            .collect();
        assert_eq!(ops, vec!["=", "!", ";"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let lexed = lex("a\nb\n\nc /* x\ny */ d");
        let lines: Vec<u32> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.line)
            .collect();
        assert_eq!(lines, vec![1, 2, 4, 5]);
    }

    #[test]
    fn byte_spans_slice_back_to_source() {
        let src = "let \u{3b1} = 1.5; // note\nfoo == bar";
        let lexed = lex(src);
        for t in &lexed.tokens {
            let slice = &src[t.start as usize..t.end as usize];
            if !t.text.is_empty() {
                assert_eq!(slice, t.text, "token {t:?}");
            }
            assert!(t.end >= t.start);
        }
        let c = &lexed.comments[0];
        assert_eq!(c.text, " note");
        assert_eq!(c.line, 1);
        assert_eq!(c.end_line, 1);
    }

    #[test]
    fn zero_float_detection() {
        for z in ["0.0", "0.", "0.000", "0e3", "0.0f64", "0_0.0"] {
            assert!(float_literal_is_zero(z), "{z} should be zero");
        }
        for nz in ["1.0", "0.1", "1e-9", "10.0f32"] {
            assert!(!float_literal_is_zero(nz), "{nz} should be nonzero");
        }
    }
}
