//! A lightweight Rust lexer: comment-, string-, and lifetime-aware token
//! stream with line numbers. No AST — the rule engine works on token
//! patterns plus two structural overlays computed here: which tokens live
//! inside `#[cfg(test)]` / `#[test]` regions, and the span of every `fn`
//! item.
//!
//! The lexer only needs to be right about *boundaries*: a `partial_cmp`
//! inside a string literal or a comment must not become an identifier
//! token, and a `'a` lifetime must not open a char literal that swallows
//! the rest of the file. Numeric literal values are never interpreted.

/// Token classes the rules distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `partial_cmp`, ...).
    Ident,
    /// Punctuation; multi-char operators from `TWO_CHAR_OPS` arrive as
    /// one token (`::`, `+=`, `->`, ...).
    Punct,
    /// String/char/byte/numeric literal. Content is not interpreted.
    Literal,
    /// A lifetime such as `'a` (text keeps the leading quote).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: usize,
}

impl Token {
    fn new(kind: TokenKind, text: impl Into<String>, line: usize) -> Self {
        Token {
            kind,
            text: text.into(),
            line,
        }
    }

    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True for a punctuation token with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// Two-character operators lexed as single punctuation tokens. Longest
/// match wins; everything else is a single-char punct.
const TWO_CHAR_OPS: [&str; 20] = [
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "^=", "&=",
    "|=", "<<", ">>", "..",
];

/// Lexes `src` into a token stream, skipping whitespace and comments.
/// Comments are dropped from the stream; rules that need them (the SAFETY
/// rule) read the raw source lines instead.
pub fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
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
        // Line comment (//, ///, //!).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, nested per Rust rules.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // String-ish prefixes: r"", r#""#, b"", br#""#, b'', and raw
        // idents r#ident. Fall through to plain ident lexing when the
        // leading r/b starts an ordinary identifier.
        if c == 'r' || c == 'b' {
            if let Some((tok, next_i, next_line)) = lex_prefixed(&chars, i, line) {
                toks.push(tok);
                i = next_i;
                line = next_line;
                continue;
            }
        }
        if c == '"' {
            let (text, next_i, next_line) = scan_string(&chars, i + 1, line);
            toks.push(Token::new(TokenKind::Literal, text, line));
            i = next_i;
            line = next_line;
            continue;
        }
        if c == '\'' {
            // Lifetime vs char literal: `'x` followed by another `'` is a
            // char literal; `'\...'` always is; otherwise a lifetime.
            let next = chars.get(i + 1).copied();
            let after = chars.get(i + 2).copied();
            let is_char = match next {
                Some('\\') => true,
                Some(ch) if ch.is_alphanumeric() || ch == '_' => after == Some('\''),
                Some(_) => true, // 'x' where x is punctuation, e.g. '+'
                None => false,
            };
            if is_char {
                let (text, next_i, next_line) = scan_char(&chars, i, line);
                toks.push(Token::new(TokenKind::Literal, text, line));
                i = next_i;
                line = next_line;
            } else {
                let start = i;
                i += 1;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                toks.push(Token::new(TokenKind::Lifetime, text, line));
            }
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            toks.push(Token::new(TokenKind::Ident, text, line));
            continue;
        }
        if c.is_ascii_digit() {
            let (text, next_i) = scan_number(&chars, i);
            toks.push(Token::new(TokenKind::Literal, text, line));
            i = next_i;
            continue;
        }
        // Punctuation: longest-match against the two-char operator table.
        if let Some(d) = chars.get(i + 1) {
            let pair: String = [c, *d].iter().collect();
            if TWO_CHAR_OPS.contains(&pair.as_str()) {
                toks.push(Token::new(TokenKind::Punct, pair, line));
                i += 2;
                continue;
            }
        }
        toks.push(Token::new(TokenKind::Punct, c.to_string(), line));
        i += 1;
    }
    toks
}

/// Lexes the r/b-prefixed forms at `i`, or `None` if this is a plain
/// identifier start. Returns `(token, next_index, next_line)`.
fn lex_prefixed(chars: &[char], i: usize, line: usize) -> Option<(Token, usize, usize)> {
    let c = chars[i];
    let next = chars.get(i + 1).copied();
    // b'x' byte char.
    if c == 'b' && next == Some('\'') {
        let (text, next_i, next_line) = scan_char(chars, i + 1, line);
        return Some((
            Token::new(TokenKind::Literal, text, line),
            next_i,
            next_line,
        ));
    }
    // b"..." byte string.
    if c == 'b' && next == Some('"') {
        let (text, next_i, next_line) = scan_string(chars, i + 2, line);
        return Some((
            Token::new(TokenKind::Literal, text, line),
            next_i,
            next_line,
        ));
    }
    // br#"..."# / br"..."
    if c == 'b' && next == Some('r') {
        let mut j = i + 2;
        let mut hashes = 0;
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        if chars.get(j) == Some(&'"') {
            let (text, next_i, next_line) = scan_raw_string(chars, j + 1, hashes, line);
            return Some((
                Token::new(TokenKind::Literal, text, line),
                next_i,
                next_line,
            ));
        }
        return None;
    }
    if c == 'r' {
        let mut j = i + 1;
        let mut hashes = 0;
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        if chars.get(j) == Some(&'"') {
            let (text, next_i, next_line) = scan_raw_string(chars, j + 1, hashes, line);
            return Some((
                Token::new(TokenKind::Literal, text, line),
                next_i,
                next_line,
            ));
        }
        // r#ident: a raw identifier — emit the bare name so rules see it.
        if hashes == 1 {
            if let Some(ch) = chars.get(j) {
                if ch.is_alphabetic() || *ch == '_' {
                    let start = j;
                    let mut k = j;
                    while k < chars.len() && (chars[k].is_alphanumeric() || chars[k] == '_') {
                        k += 1;
                    }
                    let text: String = chars[start..k].iter().collect();
                    return Some((Token::new(TokenKind::Ident, text, line), k, line));
                }
            }
        }
        return None;
    }
    None
}

/// Scans a normal (escaped) string body starting just past the opening
/// quote; returns `(text_with_quotes, next_index, next_line)`.
fn scan_string(chars: &[char], mut i: usize, mut line: usize) -> (String, usize, usize) {
    let mut out = String::from("\"");
    while i < chars.len() {
        let c = chars[i];
        if c == '\\' {
            out.push(c);
            if let Some(e) = chars.get(i + 1) {
                out.push(*e);
                if *e == '\n' {
                    line += 1;
                }
            }
            i += 2;
            continue;
        }
        if c == '\n' {
            line += 1;
        }
        out.push(c);
        i += 1;
        if c == '"' {
            break;
        }
    }
    (out, i, line)
}

/// Scans a raw string body starting just past the opening quote, closed by
/// `"` followed by `hashes` `#`s.
fn scan_raw_string(
    chars: &[char],
    mut i: usize,
    hashes: usize,
    mut line: usize,
) -> (String, usize, usize) {
    let mut out = String::from("\"");
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
        }
        if c == '"' {
            let closed = (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#'));
            if closed {
                out.push('"');
                return (out, i + 1 + hashes, line);
            }
        }
        out.push(c);
        i += 1;
    }
    (out, i, line)
}

/// Scans a char literal starting at the opening quote.
fn scan_char(chars: &[char], mut i: usize, line: usize) -> (String, usize, usize) {
    let mut out = String::new();
    out.push(chars[i]); // opening '
    i += 1;
    while i < chars.len() {
        let c = chars[i];
        out.push(c);
        if c == '\\' {
            if let Some(e) = chars.get(i + 1) {
                out.push(*e);
            }
            i += 2;
            continue;
        }
        i += 1;
        if c == '\'' {
            break;
        }
    }
    (out, i, line)
}

/// Scans a numeric literal (ints, floats, hex, suffixes). Must not eat a
/// trailing `..` or a method call after an integer (`0..n`, `1.max(2)`).
fn scan_number(chars: &[char], mut i: usize) -> (String, usize) {
    let start = i;
    while i < chars.len() {
        let c = chars[i];
        if c.is_alphanumeric() || c == '_' {
            i += 1;
            continue;
        }
        if c == '.' {
            // Part of the number only if followed by a digit and not `..`.
            match chars.get(i + 1) {
                Some(d) if d.is_ascii_digit() => {
                    i += 2;
                    continue;
                }
                _ => break,
            }
        }
        // Exponent sign: 1e-3 / 1E+9 (only directly after e/E).
        if (c == '+' || c == '-')
            && matches!(chars.get(i.wrapping_sub(1)), Some('e') | Some('E'))
            && matches!(chars.get(i + 1), Some(d) if d.is_ascii_digit())
        {
            i += 2;
            continue;
        }
        break;
    }
    (chars[start..i].iter().collect(), i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // partial_cmp in a comment
            /* unsafe in /* nested */ block */
            let s = "partial_cmp unsafe";
            let r = r#"SystemTime::now"#;
            let c = 'u';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"partial_cmp".to_string()));
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
    }

    #[test]
    fn lifetimes_do_not_swallow_source() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { partial_cmp(); x }";
        assert!(idents(src).contains(&"partial_cmp".to_string()));
        let lifetimes: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "let a = 'x'; let b: &'static str = \"s\"; let c = '\\n'; foo();";
        let toks = lex(src);
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Literal && t.text.starts_with('\''))
            .collect();
        assert_eq!(chars.len(), 2);
        assert!(toks.iter().any(|t| t.kind == TokenKind::Lifetime));
        assert!(toks.iter().any(|t| t.is_ident("foo")));
    }

    #[test]
    fn ranges_and_float_methods_tokenize() {
        let toks = lex("for i in 0..n { let x = 1.5e-3; let y = 1.max(2); }");
        assert!(toks.iter().any(|t| t.is_punct("..")));
        assert!(toks.iter().any(|t| t.is_ident("max")));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text == "1.5e-3"));
    }

    #[test]
    fn two_char_ops_fuse() {
        let toks = lex("sum += x; a::b; f() -> y;");
        assert!(toks.iter().any(|t| t.is_punct("+=")));
        assert!(toks.iter().any(|t| t.is_punct("::")));
        assert!(toks.iter().any(|t| t.is_punct("->")));
    }

    #[test]
    fn lines_track_through_multiline_constructs() {
        let src = "let a = \"one\ntwo\";\nlet b = 1;";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.is_ident("b")).expect("b");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn raw_idents_surface_bare() {
        assert!(idents("let r#match = 1;").contains(&"match".to_string()));
    }
}
