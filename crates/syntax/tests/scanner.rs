//! Pins the scanner's observable behaviour: token classes, lines and
//! columns (counted in characters), comments and error positions.

use fnc2_syntax::{scan, Lexeme, ScanError, Scanned, ScannerSpec};

fn spec() -> ScannerSpec {
    ScannerSpec::new(
        &["begin", "end", "if"],
        &[":=", ":", "-", "<", "<=", "<<", "=", ".", ";"],
    )
}

/// `(terminal, line, col)` of every token.
fn toks(src: &str) -> Vec<(String, u32, u32)> {
    scan(&spec(), src)
        .unwrap()
        .iter()
        .map(|t: &Scanned| (t.lexeme.terminal().to_string(), t.line, t.col))
        .collect()
}

fn err(src: &str) -> ScanError {
    scan(&spec(), src).unwrap_err()
}

fn t(term: &str, line: u32, col: u32) -> (String, u32, u32) {
    (term.to_string(), line, col)
}

#[test]
fn non_ascii_strings_keep_their_text_and_count_characters() {
    let scanned = scan(&spec(), "x := 'héllo' y").unwrap();
    assert_eq!(scanned[2].lexeme, Lexeme::Str("héllo".into()));
    assert_eq!((scanned[2].line, scanned[2].col), (1, 6));
    assert_eq!(
        (scanned[3].line, scanned[3].col),
        (1, 14),
        "y after 7 characters"
    );
    let scanned = scan(&spec(), "\"日本\"z").unwrap();
    assert_eq!(scanned[0].lexeme, Lexeme::Str("日本".into()));
    assert_eq!((scanned[1].line, scanned[1].col), (1, 5));
}

#[test]
fn non_ascii_comments_are_skipped_and_counted() {
    assert_eq!(
        toks("a -- ünïcödé ✓\nb"),
        vec![t("IDENT", 1, 1), t("IDENT", 2, 1), t("EOF", 2, 2)]
    );
    assert_eq!(toks("x -- é"), vec![t("IDENT", 1, 1), t("EOF", 1, 7)]);
}

#[test]
fn non_ascii_whitespace_separates_tokens() {
    assert_eq!(
        toks("a\u{a0}b"),
        vec![t("IDENT", 1, 1), t("IDENT", 1, 3), t("EOF", 1, 4)]
    );
}

#[test]
fn unexpected_characters_are_placed_after_multi_byte_ones() {
    let e = err("'é' ?");
    assert_eq!((e.line, e.col), (1, 5));
    assert_eq!(e.message, "unexpected character `?`");
    let e = err("a\n  é");
    assert_eq!((e.line, e.col), (2, 3));
    assert_eq!(e.message, "unexpected character `é`");
    assert_eq!(e.to_string(), "2:3: scan error: unexpected character `é`");
}

#[test]
fn tabs_are_one_column_and_crlf_ends_a_line() {
    assert_eq!(
        toks("\tx\t:= 1"),
        vec![
            t("IDENT", 1, 2),
            t(":=", 1, 4),
            t("INT", 1, 7),
            t("EOF", 1, 8)
        ]
    );
    assert_eq!(
        toks("a\r\nb\r\n"),
        vec![t("IDENT", 1, 1), t("IDENT", 2, 1), t("EOF", 3, 1)]
    );
    assert_eq!(
        toks("a -- c\r\nb"),
        vec![t("IDENT", 1, 1), t("IDENT", 2, 1), t("EOF", 2, 2)]
    );
}

#[test]
fn double_dash_starts_a_comment_where_dash_is_an_operator() {
    assert_eq!(
        toks("a - b -- c - d\ne"),
        vec![
            t("IDENT", 1, 1),
            t("-", 1, 3),
            t("IDENT", 1, 5),
            t("IDENT", 2, 1),
            t("EOF", 2, 2)
        ]
    );
    assert_eq!(
        toks("a-b"),
        vec![
            t("IDENT", 1, 1),
            t("-", 1, 2),
            t("IDENT", 1, 3),
            t("EOF", 1, 4)
        ]
    );
    assert_eq!(toks("a--b"), vec![t("IDENT", 1, 1), t("EOF", 1, 5)]);
}

#[test]
fn the_longest_operator_wins() {
    assert_eq!(
        toks("a<=b<c<<=d:=e:f"),
        vec![
            t("IDENT", 1, 1),
            t("<=", 1, 2),
            t("IDENT", 1, 4),
            t("<", 1, 5),
            t("IDENT", 1, 6),
            t("<<", 1, 7),
            t("=", 1, 9),
            t("IDENT", 1, 10),
            t(":=", 1, 11),
            t("IDENT", 1, 13),
            t(":", 1, 14),
            t("IDENT", 1, 15),
            t("EOF", 1, 16)
        ]
    );
}

#[test]
fn keywords_numbers_and_reals() {
    let scanned = scan(&spec(), "begin x1 12 3.25 4. end").unwrap();
    let lexemes: Vec<&Lexeme> = scanned.iter().map(|t| &t.lexeme).collect();
    assert_eq!(
        lexemes,
        [
            &Lexeme::Keyword("begin".into()),
            &Lexeme::Ident("x1".into()),
            &Lexeme::Int(12),
            &Lexeme::Real(3.25),
            &Lexeme::Int(4),
            &Lexeme::Op(".".into()),
            &Lexeme::Keyword("end".into()),
            &Lexeme::Eof
        ]
    );
    let e = err("99999999999999999999");
    assert_eq!(e.message, "integer `99999999999999999999` out of range");
    assert_eq!((e.line, e.col), (1, 1));
}

#[test]
fn unterminated_strings_are_placed_at_their_quote() {
    let e = err("x 'abc");
    assert_eq!(
        (e.line, e.col, e.message.as_str()),
        (1, 3, "unterminated string")
    );
    let e = err("-- é\n  \"ab\ncd");
    assert_eq!((e.line, e.col), (2, 3));
    let scanned = scan(&spec(), "'a\nb' c").unwrap();
    assert_eq!(scanned[0].lexeme, Lexeme::Str("a\nb".into()));
    assert_eq!(
        (scanned[1].line, scanned[1].col),
        (2, 4),
        "lines count inside strings"
    );
}
