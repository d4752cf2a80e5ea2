//! The OLGA lexer.
//!
//! OLGA is FNC-2's specially designed AG-description language (paper §2.4).
//! This reproduction implements a faithful subset: strongly typed,
//! purely applicative, block-structured, with modules, attribute grammars
//! as tree-to-tree mappings, pattern matching and automatic copy rules.
//! Comments run from `--` to end of line.

use std::borrow::Cow;
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

/// Token kinds. An identifier or string literal borrows its text from the
/// source, so a token is `Copy` and lexing allocates only the token vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tok<'a> {
    /// Identifier.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal: the text between the quotes, its escapes checked
    /// but not yet replaced (the parser replaces them).
    Str(&'a str),
    /// A reserved word of the OLGA subset.
    Kw(&'static str),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(i) => write!(f, "integer `{i}`"),
            Tok::Real(r) => write!(f, "real `{r}`"),
            Tok::Str(s) => write!(f, "string {:?}", unescape(s)),
            Tok::Kw(k) => write!(f, "keyword `{k}`"),
            Tok::Punct(p) => write!(f, "`{p}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Token<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Where it starts.
    pub pos: Pos,
}

/// The reserved word `word` is, if it is one.
fn keyword(word: &str) -> Option<&'static str> {
    macro_rules! keywords {
        ($($k:literal)*) => { match word { $($k => Some($k),)* _ => None } };
    }
    keywords!(
        "module" "end" "attribute" "grammar" "phylum" "root" "operator" "synthesized"
        "inherited" "of" "phase" "for" "local" "function" "const" "type" "import" "from"
        "export" "opaque" "if" "then" "else" "let" "in" "case" "and" "or" "not" "true"
        "threaded" "with" "false" "int" "real" "bool" "string" "unit" "list" "map" "tree"
        "tuple"
    )
}

/// The punctuation `rest` starts with, the longest that matches.
fn punct(rest: &[u8]) -> Option<&'static str> {
    const SINGLE: &str = "(){}[],;:.$@+-*/%=<>|_";
    Some(match rest {
        [b':', b':', b'=', ..] => "::=",
        [b':', b'=', ..] => ":=",
        [b'=', b'>', ..] => "=>",
        [b'<', b'>', ..] => "<>",
        [b'<', b'=', ..] => "<=",
        [b'>', b'=', ..] => ">=",
        [b':', b':', ..] => "::",
        [b'+', b'+', ..] => "++",
        [c, ..] => {
            let k = SINGLE.bytes().position(|s| s == *c)?;
            &SINGLE[k..k + 1]
        }
        [] => return None,
    })
}

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
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let b = src.as_bytes();
    // The corpus sources average 3.5–3.8 bytes per token.
    let mut out = Vec::with_capacity(src.len() / 4);
    let (mut i, mut line, mut col) = (0, 1u32, 1u32);
    while i < b.len() {
        let pos = Pos { line, col };
        let error = |message: String| LexError { message, pos };
        let start = i;
        let tok = match b[i] {
            b'\n' => {
                (i, line, col) = (i + 1, line + 1, 1);
                continue;
            }
            // Blanks in a run: the ASCII whitespace other than newline.
            b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c' => {
                i += b[i..]
                    .iter()
                    .take_while(|c| matches!(c, b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c'))
                    .count();
                col += (i - start) as u32;
                continue;
            }
            // Comment: -- to end of line. The newline resets the column, so
            // only a comment that ends the source counts its characters.
            b'-' if b.get(i + 1) == Some(&b'-') => {
                match b[i..].iter().position(|&c| c == b'\n') {
                    Some(n) => i += n,
                    None => {
                        col += src[i..].chars().count() as u32;
                        i = b.len();
                    }
                }
                continue;
            }
            b'a'..=b'z' | b'A'..=b'Z' => {
                i += b[i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphanumeric() || **c == b'_')
                    .count();
                let word = &src[start..i];
                keyword(word).map_or(Tok::Ident(word), Tok::Kw)
            }
            b'0'..=b'9' => {
                let digits =
                    |from: usize| b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
                i += digits(i);
                let real = b.get(i) == Some(&b'.') && b.get(i + 1).is_some_and(u8::is_ascii_digit);
                if real {
                    i += 1 + digits(i + 1);
                }
                let text = &src[start..i];
                if real {
                    Tok::Real(
                        text.parse()
                            .map_err(|_| error(format!("malformed real literal `{text}`")))?,
                    )
                } else {
                    Tok::Int(
                        text.parse()
                            .map_err(|_| error(format!("integer literal `{text}` out of range")))?,
                    )
                }
            }
            b'"' => {
                i += string(&src[i..]).map_err(error)?;
                // A literal may span lines and hold any character.
                for d in src[start..i].chars() {
                    (line, col) = if d == '\n' {
                        (line + 1, 1)
                    } else {
                        (line, col + 1)
                    };
                }
                out.push(Token {
                    tok: Tok::Str(&src[start + 1..i - 1]),
                    pos,
                });
                continue;
            }
            c if c.is_ascii() => match punct(&b[i..]) {
                Some(p) => {
                    i += p.len();
                    Tok::Punct(p)
                }
                None => return Err(error(format!("unexpected character `{}`", char::from(c)))),
            },
            _ => {
                let c = src[i..].chars().next().expect("`i` is a char boundary");
                if !c.is_whitespace() {
                    return Err(error(format!("unexpected character `{c}`")));
                }
                i += c.len_utf8();
                col += 1;
                continue;
            }
        };
        // Every other token is ASCII: one column per byte.
        col += (i - start) as u32;
        out.push(Token { tok, pos });
    }
    out.push(Token {
        tok: Tok::Eof,
        pos: Pos { line, col },
    });
    Ok(out)
}

/// The length in bytes, quotes included, of the string literal `src`
/// starts with, after checking its escapes.
fn string(src: &str) -> Result<usize, String> {
    let mut chars = src.char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok(i + 1),
            '\\' => match chars.next() {
                None => return Err("unterminated escape".into()),
                Some((_, 'n' | 't' | '\\' | '"')) => {}
                Some((_, other)) => return Err(format!("unknown escape `\\{other}`")),
            },
            _ => {}
        }
    }
    Err("unterminated string literal".into())
}

/// The text of a string literal's [`Tok::Str`], escapes replaced; borrowed
/// when it has none.
pub(crate) fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut text = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        text.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                // `\\` or `\"`: the lexer checked every escape.
                e => e.unwrap_or(c),
            },
            c => c,
        });
    }
    Cow::Owned(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("phylum Number;"),
            vec![
                Tok::Kw("phylum"),
                Tok::Ident("Number"),
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
            vec![Tok::Str(r#"a\nb\"c"#), Tok::Eof]
        );
        assert_eq!(unescape(r#"a\nb\"c\\"#), "a\nb\"c\\");
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
