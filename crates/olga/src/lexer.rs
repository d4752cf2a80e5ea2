//! The OLGA lexer.
//!
//! OLGA is FNC-2's specially designed AG-description language (paper §2.4).
//! This reproduction implements a faithful subset: strongly typed,
//! purely applicative, block-structured, with modules, attribute grammars
//! as tree-to-tree mappings, pattern matching and automatic copy rules.
//! Comments run from `--` to end of line.

use std::fmt;

/// A source position (1-based line and column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal (unescaped).
    Str(String),
    /// A reserved word of the OLGA subset.
    Kw(&'static str),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(i) => write!(f, "integer `{i}`"),
            Tok::Real(r) => write!(f, "real `{r}`"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            Tok::Kw(k) => write!(f, "keyword `{k}`"),
            Tok::Punct(p) => write!(f, "`{p}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its position.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// The reserved words of the OLGA subset.
pub const KEYWORDS: &[&str] = &[
    "module",
    "end",
    "attribute",
    "grammar",
    "phylum",
    "root",
    "operator",
    "synthesized",
    "inherited",
    "of",
    "phase",
    "for",
    "local",
    "function",
    "const",
    "type",
    "import",
    "from",
    "export",
    "opaque",
    "if",
    "then",
    "else",
    "let",
    "in",
    "case",
    "and",
    "or",
    "not",
    "true",
    "threaded",
    "with",
    "false",
    "int",
    "real",
    "bool",
    "string",
    "unit",
    "list",
    "map",
    "tree",
    "tuple",
];

/// Multi-character punctuation, longest first.
const PUNCTS: &[&str] = &[
    "::=", ":=", "=>", "<>", "<=", ">=", "::", "++", "(", ")", "{", "}", "[", "]", ",", ";", ":",
    ".", "$", "@", "+", "-", "*", "/", "%", "=", "<", ">", "|", "_",
];

/// A lexical error.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: lexical error: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`, walking it by byte offset; columns count characters.
///
/// # Errors
///
/// Fails on unterminated strings, malformed numbers, or stray characters.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let (mut i, mut line, mut col) = (0, 1u32, 1u32);
    while let Some(c) = src[i..].chars().next() {
        let rest = &src[i..];
        let pos = Pos { line, col };
        let error = |message: String| LexError { message, pos };
        let mut push = |tok: Tok| out.push(Token { tok, pos });
        // The length in bytes of what starts at `i`.
        let len = if c.is_whitespace() {
            c.len_utf8()
        } else if rest.starts_with("--") {
            // Comment: -- to end of line.
            rest.find('\n').unwrap_or(rest.len())
        } else if c.is_ascii_alphabetic() {
            let n = rest
                .find(|d: char| !d.is_ascii_alphanumeric() && d != '_')
                .unwrap_or(rest.len());
            let word = &rest[..n];
            push(match KEYWORDS.iter().find(|&&k| k == word) {
                Some(&k) => Tok::Kw(k),
                None => Tok::Ident(word.to_string()),
            });
            n
        } else if c.is_ascii_digit() {
            let digits = |s: &str| s.bytes().take_while(u8::is_ascii_digit).count();
            let mut n = digits(rest);
            let b = rest.as_bytes();
            let real = b.get(n) == Some(&b'.') && b.get(n + 1).is_some_and(u8::is_ascii_digit);
            if real {
                n += 1 + digits(&rest[n + 1..]);
            }
            let text = &rest[..n];
            push(if real {
                Tok::Real(
                    text.parse()
                        .map_err(|_| error(format!("malformed real literal `{text}`")))?,
                )
            } else {
                Tok::Int(
                    text.parse()
                        .map_err(|_| error(format!("integer literal `{text}` out of range")))?,
                )
            });
            n
        } else if c == '"' {
            let (text, n) = string(rest).map_err(error)?;
            push(Tok::Str(text));
            n
        } else if let Some(&p) = PUNCTS.iter().find(|&&p| rest.starts_with(p)) {
            push(Tok::Punct(p));
            p.len()
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
    out.push(Token {
        tok: Tok::Eof,
        pos: Pos { line, col },
    });
    Ok(out)
}

/// The text of the string literal `src` starts with, escapes replaced, and
/// the literal's length in bytes, quotes included.
fn string(src: &str) -> Result<(String, usize), String> {
    let mut text = String::new();
    let mut chars = src.char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        text.push(match c {
            '"' => return Ok((text, i + 1)),
            '\\' => match chars.next() {
                None => return Err("unterminated escape".into()),
                Some((_, 'n')) => '\n',
                Some((_, 't')) => '\t',
                Some((_, e @ ('\\' | '"'))) => e,
                Some((_, other)) => return Err(format!("unknown escape `\\{other}`")),
            },
            other => other,
        });
    }
    Err("unterminated string literal".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("phylum Number;"),
            vec![
                Tok::Kw("phylum"),
                Tok::Ident("Number".into()),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 3.25"),
            vec![Tok::Int(42), Tok::Real(3.25), Tok::Eof]
        );
        // `1.` without digits is Int then Punct.
        assert_eq!(kinds("1."), vec![Tok::Int(1), Tok::Punct("."), Tok::Eof]);
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            kinds(r#""a\nb\"c""#),
            vec![Tok::Str("a\nb\"c".into()), Tok::Eof]
        );
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("1 -- comment ::= junk\n2"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Eof]
        );
    }

    #[test]
    fn longest_punct_wins() {
        assert_eq!(
            kinds("::= := :: : <> <="),
            vec![
                Tok::Punct("::="),
                Tok::Punct(":="),
                Tok::Punct("::"),
                Tok::Punct(":"),
                Tok::Punct("<>"),
                Tok::Punct("<="),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn minus_is_not_comment() {
        assert_eq!(
            kinds("1 - 2"),
            vec![Tok::Int(1), Tok::Punct("-"), Tok::Int(2), Tok::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }
}
