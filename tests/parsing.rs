//! mini-Pascal text into trees: `parse_minipascal` builds pinned trees,
//! survives mutated input without panicking, and parses long and deeply
//! nested programs without recursing once per operand or level.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fnc2::vfs::fnv1a;
use fnc2::{Compiled, Pipeline};
use fnc2_ag::Tree;
use fnc2_corpus::rng::Rng;
use fnc2_corpus::{minipascal, parse_minipascal, sample_program};
use fnc2_visit::RootInputs;

/// FNV-1a over `tree`'s preorder: each node's production, token and arena
/// index.
fn digest(tree: &Tree) -> u64 {
    let mut bytes = Vec::new();
    for (id, _) in tree.preorder() {
        let node = tree.node(id);
        bytes.extend_from_slice(&(node.production().index() as u32).to_le_bytes());
        bytes.extend_from_slice(format!("{:?};", node.token()).as_bytes());
        bytes.extend_from_slice(&(id.index() as u32).to_le_bytes());
    }
    fnv1a(&[&bytes])
}

/// A program declaring integers `a`–`d` and the boolean `f`.
fn with_vars(body: &str) -> String {
    format!(
        "program p;\nvar a : integer;\nvar b : integer;\nvar c : integer;\n\
         var d : integer;\nvar f : boolean;\nbegin\n{body}\nend.\n"
    )
}

/// The digests were taken with the hand-written recursive-descent parser
/// this repository had before its LL(1) driver took over: the trees are
/// the same node for node, in the same arena order.
#[test]
fn parsed_trees_match_their_pinned_digests() {
    let (g, _) = minipascal();
    let cases = [
        (sample_program(1), 0x79bfd7f8954ce5ec),
        (sample_program(32), 0xd6ce427061e31ebd),
        (with_vars("  a := a - b - c + d"), 0xd5daea03977d999e),
        (with_vars("  f := a * b * c < d"), 0xafcda9fc8c68925c),
        (with_vars("  f := not not f"), 0xa04b603c3f827163),
        (with_vars("  a := ((a))"), 0x8bb8919988eb79e6),
        (
            with_vars("  if a < b then else end;\n  while f do end;\n  if f then a := 1 else end"),
            0x9c909a1063417f2a,
        ),
        (
            "program p;\nbegin\n  write 1 = 2\nend.\n".to_string(),
            0x68532424e90f64de,
        ),
    ];
    let got: Vec<u64> = cases
        .iter()
        .map(|(src, _)| digest(&parse_minipascal(&g, src).unwrap()))
        .collect();
    let want: Vec<u64> = cases.iter().map(|&(_, d)| d).collect();
    assert_eq!(got, want, "{got:#x?}");
}

/// Token-ish spans of `src`: words, `:=`, and single other characters.
fn token_spans(src: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut chars = src.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let mut end = i + c.len_utf8();
        if c.is_whitespace() {
            continue;
        } else if c.is_ascii_alphanumeric() {
            while let Some(&(j, d)) = chars.peek() {
                if !d.is_ascii_alphanumeric() {
                    break;
                }
                end = j + d.len_utf8();
                chars.next();
            }
        } else if c == ':' && src[end..].starts_with('=') {
            end += 1;
            chars.next();
        }
        spans.push((i, end));
    }
    spans
}

/// One mutant of `src`: truncated at a char, a token deleted, duplicated
/// or swapped with another, or a char replaced by NUL, a tab, `é` or `🦀`.
fn mutate(src: &str, rng: &mut Rng) -> String {
    let chars: Vec<usize> = src.char_indices().map(|(i, _)| i).collect();
    let spans = token_spans(src);
    let (s, e) = *rng.choose(&spans);
    match rng.gen_usize(0, 4) {
        0 => src[..*rng.choose(&chars)].to_string(),
        1 => format!("{}{}", &src[..s], &src[e..]),
        2 => format!("{}{} {}", &src[..e], &src[s..e], &src[e..]),
        3 => {
            let (s2, e2) = *rng.choose(&spans);
            let ((a, b), (c, d)) = if s <= s2 {
                ((s, e), (s2, e2))
            } else {
                ((s2, e2), (s, e))
            };
            if b > c {
                return src.to_string();
            }
            format!(
                "{}{}{}{}{}",
                &src[..a],
                &src[c..d],
                &src[b..c],
                &src[a..b],
                &src[d..]
            )
        }
        _ => {
            let at = *rng.choose(&chars);
            let len = src[at..].chars().next().map_or(0, char::len_utf8);
            let with = *rng.choose(&['\0', '\t', 'é', '🦀']);
            format!("{}{with}{}", &src[..at], &src[at + len..])
        }
    }
}

/// True if `msg` starts with `line:col:`.
fn has_position(msg: &str) -> bool {
    let mut parts = msg.splitn(3, ':');
    let mut number = || parts.next().is_some_and(|p| p.parse::<u32>().is_ok());
    number() && number()
}

/// Input text never panics the parser: every mutant of a sample program
/// gives a tree or a positioned error, and every tree evaluates (to values
/// or a classified error) under the default budget.
#[test]
fn mutated_programs_parse_or_fail_with_a_position() {
    let (g, _) = minipascal();
    let compiled: Compiled = Pipeline::new().compile(g).unwrap();
    let g = &compiled.grammar;
    let src = sample_program(8);
    let (mut parsed, mut rejected) = (0, 0);
    for seed in 0..400 {
        let mut rng = Rng::seed_from_u64(seed);
        let mutant = mutate(&src, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| parse_minipascal(g, &mutant)));
        match outcome {
            Ok(Ok(tree)) => {
                parsed += 1;
                let evaluated = catch_unwind(AssertUnwindSafe(|| {
                    compiled.evaluate(&tree, &RootInputs::new()).is_ok()
                }));
                assert!(
                    evaluated.is_ok(),
                    "seed {seed}: evaluation panicked on\n{mutant}"
                );
            }
            Ok(Err(e)) => {
                rejected += 1;
                assert!(has_position(&e), "seed {seed}: {e}");
            }
            Err(_) => panic!("seed {seed}: the parser panicked on\n{mutant}"),
        }
    }
    // Both counts were pinned with the hand-written parser: the language
    // did not change.
    assert_eq!((parsed, rejected), (55, 345));
}

/// Long and deep programs parse on a 2 MiB thread: a 20,000-term sum folds
/// in a loop, and neither 20,000 statements nor 20,000 nested `not`s or
/// brackets take a machine-stack frame each.
#[test]
fn long_and_deep_programs_parse_on_a_small_stack() {
    const N: usize = 20_000;
    let program = |body: String| format!("program p;\nvar x : integer;\nbegin\n{body}\nend.\n");
    let sources = [
        program(format!("x := {}", vec!["1"; N].join(" + "))),
        program(vec!["x := 1"; N].join(";\n")),
        program(format!("x := {}x", "not ".repeat(N))),
        program(format!("x := {}1{}", "(".repeat(N), ")".repeat(N))),
    ];
    let worker = std::thread::Builder::new().stack_size(2 << 20);
    let sizes = worker
        .spawn(move || {
            let (g, _) = minipascal();
            let parse = |src: &String| parse_minipascal(&g, src).unwrap().size();
            sources.iter().map(parse).collect::<Vec<_>>()
        })
        .unwrap()
        .join()
        .unwrap();
    // The program node and its declaration's 4 take 5; each statement a
    // list cell, an assignment and its expression; the list's end 1.
    assert_eq!(sizes, [8 + N + (N - 1), 6 + 3 * N, 8 + N + 1, 9]);
}
