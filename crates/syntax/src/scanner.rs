//! A specification-driven scanner — the lexical half of the `aic`/SYNTAX
//! substrate (paper §3.3).
//!
//! `aic` "generates abstract tree constructors which run in parallel with,
//! and are driven by, parsers constructed by the SYNTAX system". Our
//! reproduction provides a table-free scanner configured by a
//! [`ScannerSpec`]: keyword and operator literals plus the standard lexeme
//! classes (identifiers, integers, reals, strings), with line comments.

use std::fmt;
use std::sync::Arc;

/// The class of a scanned token.
#[derive(Clone, Debug, PartialEq)]
pub enum Lexeme {
    /// A keyword (exact identifier match from the spec).
    Keyword(String),
    /// An operator/punctuation literal from the spec.
    Op(String),
    /// An identifier, in the one allocation a token value can share.
    Ident(Arc<str>),
    /// An integer literal.
    Int(i64),
    /// A real literal.
    Real(f64),
    /// A string literal.
    Str(String),
    /// End of input.
    Eof,
}

impl Lexeme {
    /// The terminal name used by grammar specifications: keywords and
    /// operators are their literal text; classes are `IDENT`, `INT`,
    /// `REAL`, `STRING`, `EOF`.
    pub fn terminal(&self) -> &str {
        match self {
            Lexeme::Keyword(k) | Lexeme::Op(k) => k,
            Lexeme::Ident(_) => "IDENT",
            Lexeme::Int(_) => "INT",
            Lexeme::Real(_) => "REAL",
            Lexeme::Str(_) => "STRING",
            Lexeme::Eof => "EOF",
        }
    }
}

impl fmt::Display for Lexeme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lexeme::Keyword(k) => write!(f, "`{k}`"),
            Lexeme::Op(o) => write!(f, "`{o}`"),
            Lexeme::Ident(s) => write!(f, "identifier `{s}`"),
            Lexeme::Int(i) => write!(f, "integer `{i}`"),
            Lexeme::Real(r) => write!(f, "real `{r}`"),
            Lexeme::Str(s) => write!(f, "string {s:?}"),
            Lexeme::Eof => write!(f, "end of input"),
        }
    }
}

/// A scanned token with 1-based line/column.
#[derive(Clone, Debug, PartialEq)]
pub struct Scanned {
    /// The lexeme.
    pub lexeme: Lexeme,
    /// Line.
    pub line: u32,
    /// Column.
    pub col: u32,
}

/// Scanner configuration.
#[derive(Clone, Debug, Default)]
pub struct ScannerSpec {
    /// Reserved identifiers.
    pub keywords: Vec<String>,
    /// Operator literals (longest match wins).
    pub operators: Vec<String>,
    /// Line-comment introducer (e.g. `"--"` or `"//"`), if any.
    pub line_comment: Option<String>,
    /// Whether the language has real literals (`12.5`).
    pub reals: bool,
}

impl ScannerSpec {
    /// Spec with the given keywords and operators, `--` comments, reals on.
    pub fn new<K: Into<String> + Clone, O: Into<String> + Clone>(
        keywords: &[K],
        operators: &[O],
    ) -> ScannerSpec {
        let mut operators: Vec<String> = operators.iter().cloned().map(Into::into).collect();
        operators.sort_by_key(|o| std::cmp::Reverse(o.len()));
        ScannerSpec {
            keywords: keywords.iter().cloned().map(Into::into).collect(),
            operators,
            line_comment: Some("--".into()),
            reals: true,
        }
    }
}

/// A scan error.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanError {
    /// Description.
    pub message: String,
    /// Line.
    pub line: u32,
    /// Column.
    pub col: u32,
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: scan error: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ScanError {}

/// Scans `src` under `spec`, walking it by byte offset: a token's text is
/// a slice of `src`, and columns count characters.
///
/// # Errors
///
/// Fails on stray characters or unterminated strings.
pub fn scan(spec: &ScannerSpec, src: &str) -> Result<Vec<Scanned>, ScanError> {
    let mut out = Vec::new();
    let (mut i, mut line, mut col) = (0, 1u32, 1u32);
    while let Some(c) = src[i..].chars().next() {
        let rest = &src[i..];
        let error = |message: String| ScanError { message, line, col };
        let mut push = |lexeme: Lexeme| out.push(Scanned { lexeme, line, col });
        let comment = spec.line_comment.as_deref();
        // The length in bytes of what starts at `i`.
        let len = if c.is_whitespace() {
            c.len_utf8()
        } else if comment.is_some_and(|cm| rest.starts_with(cm)) {
            rest.find('\n').unwrap_or(rest.len())
        } else if c.is_ascii_alphabetic() || c == '_' {
            let n = rest
                .find(|d: char| !d.is_ascii_alphanumeric() && d != '_')
                .unwrap_or(rest.len());
            let word = &rest[..n];
            push(if spec.keywords.iter().any(|k| k == word) {
                Lexeme::Keyword(word.to_string())
            } else {
                Lexeme::Ident(Arc::from(word))
            });
            n
        } else if c.is_ascii_digit() {
            let digits = |s: &str| s.bytes().take_while(u8::is_ascii_digit).count();
            let mut n = digits(rest);
            let b = rest.as_bytes();
            let real = spec.reals
                && b.get(n) == Some(&b'.')
                && b.get(n + 1).is_some_and(u8::is_ascii_digit);
            if real {
                n += 1 + digits(&rest[n + 1..]);
            }
            let text = &rest[..n];
            push(if real {
                Lexeme::Real(
                    text.parse()
                        .map_err(|_| error(format!("malformed real `{text}`")))?,
                )
            } else {
                Lexeme::Int(
                    text.parse()
                        .map_err(|_| error(format!("integer `{text}` out of range")))?,
                )
            });
            n
        } else if c == '\'' || c == '"' {
            let Some(n) = rest[1..].find(c) else {
                return Err(error("unterminated string".into()));
            };
            push(Lexeme::Str(rest[1..=n].to_string()));
            n + 2
        } else if let Some(op) = spec
            .operators
            .iter()
            .find(|op| rest.starts_with(op.as_str()))
        {
            // Longest first: the spec's operators are sorted by length.
            push(Lexeme::Op(op.clone()));
            op.len()
        } else {
            return Err(error(format!("unexpected character `{c}`")));
        };
        for d in rest[..len].chars() {
            if d == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        i += len;
    }
    out.push(Scanned {
        lexeme: Lexeme::Eof,
        line,
        col,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScannerSpec {
        ScannerSpec::new(
            &["program", "begin", "end", "if", "then"],
            &[":=", "+", "-", "*", "(", ")", ";", "<=", "<"],
        )
    }

    #[test]
    fn scans_program_fragment() {
        let toks = scan(&spec(), "begin x := 1 + 2; end").unwrap();
        let kinds: Vec<&str> = toks.iter().map(|t| t.lexeme.terminal()).collect();
        assert_eq!(
            kinds,
            vec!["begin", "IDENT", ":=", "INT", "+", "INT", ";", "end", "EOF"]
        );
    }

    #[test]
    fn longest_operator_wins() {
        let toks = scan(&spec(), "a <= b < c").unwrap();
        let kinds: Vec<&str> = toks.iter().map(|t| t.lexeme.terminal()).collect();
        assert_eq!(kinds, vec!["IDENT", "<=", "IDENT", "<", "IDENT", "EOF"]);
    }

    #[test]
    fn comments_and_positions() {
        let toks = scan(&spec(), "x -- rest\ny").unwrap();
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[1].col, 1);
    }

    #[test]
    fn strings_single_or_double_quote() {
        let toks = scan(&spec(), "'abc' \"d\"").unwrap();
        assert_eq!(toks[0].lexeme, Lexeme::Str("abc".into()));
        assert_eq!(toks[1].lexeme, Lexeme::Str("d".into()));
        assert!(scan(&spec(), "'oops").is_err());
    }

    #[test]
    fn stray_character_is_an_error() {
        let e = scan(&spec(), "a ? b").unwrap_err();
        assert!(e.message.contains('?'));
    }

    #[test]
    fn reals_toggle() {
        let mut s = spec();
        let toks = scan(&s, "1.5").unwrap();
        assert_eq!(toks[0].lexeme, Lexeme::Real(1.5));
        s.reals = false;
        // With reals off `1.5` is INT `.`-op? `.` is not an operator in
        // the spec, so it errors.
        assert!(scan(&s, "1.5").is_err());
    }
}
