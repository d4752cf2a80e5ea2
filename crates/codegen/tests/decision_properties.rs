//! Property test: decision-tree compilation preserves linear first-match
//! semantics, on random pattern matrices and random scrutinees drawn
//! from a seeded inline generator (same cases every run).

use fnc2_ag::Value;
use fnc2_codegen::{compile_arms, run_decision};
use fnc2_olga::ast::Pat;
use fnc2_olga::Pos;

fn p0() -> Pos {
    Pos { line: 0, col: 0 }
}

/// Inline SplitMix64 (this crate sits below the corpus, which hosts the
/// shared test PRNG, so a local copy avoids a dependency cycle).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Random patterns over ints, bools, lists and pairs, depth-bounded.
fn random_pat(rng: &mut Rng, depth: usize) -> Pat {
    let leaf_only = depth == 0;
    match rng.below(if leaf_only { 5 } else { 7 }) {
        0 => Pat::Wild(p0()),
        1 => Pat::Int(rng.below(4) as i64, p0()),
        2 => Pat::Bool(rng.below(2) == 0, p0()),
        3 => Pat::Nil(p0()),
        4 => {
            let name = ["a", "b", "c"][rng.below(3)];
            Pat::Bind(name.to_string(), p0())
        }
        5 => Pat::Cons(
            Box::new(random_pat(rng, depth - 1)),
            Box::new(random_pat(rng, depth - 1)),
            p0(),
        ),
        _ => Pat::Tuple((0..2).map(|_| random_pat(rng, depth - 1)).collect(), p0()),
    }
}

/// Random values in the same space.
fn random_value(rng: &mut Rng, depth: usize) -> Value {
    let leaf_only = depth == 0;
    match rng.below(if leaf_only { 3 } else { 5 }) {
        0 => Value::Int(rng.below(4) as i64),
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::list([]),
        3 => {
            let n = rng.below(3);
            Value::list((0..n).map(|_| random_value(rng, depth - 1)))
        }
        _ => Value::tuple((0..2).map(|_| random_value(rng, depth - 1))),
    }
}

/// Reference: linear first-match with structural semantics.
fn linear_match(pats: &[Pat], v: &Value) -> Option<usize> {
    fn matches(p: &Pat, v: &Value) -> bool {
        match (p, v) {
            (Pat::Wild(_) | Pat::Bind(..), _) => true,
            (Pat::Int(i, _), Value::Int(j)) => i == j,
            (Pat::Bool(b, _), Value::Bool(c)) => b == c,
            (Pat::Str(s, _), Value::Str(t)) => s.as_str() == &**t,
            (Pat::Nil(_), Value::List(l)) => l.is_empty(),
            (Pat::Cons(h, t, _), Value::List(l)) => {
                l.first().is_some_and(|x| matches(h, x))
                    && matches(t, &Value::list(l.iter().skip(1).cloned()))
            }
            (Pat::Tuple(ps, _), Value::Tuple(items)) => {
                ps.len() == items.len() && ps.iter().zip(items.iter()).all(|(p, v)| matches(p, v))
            }
            (Pat::Term { op, args, .. }, Value::Term(t)) => {
                *op == t.op
                    && args.len() == t.children.len()
                    && args.iter().zip(&t.children).all(|(p, v)| matches(p, v))
            }
            _ => false,
        }
    }
    pats.iter().position(|p| matches(p, v))
}

#[test]
fn decision_tree_equals_linear_match() {
    let mut rng = Rng(0xdec1);
    for _ in 0..256 {
        let n_pats = 1 + rng.below(5);
        let pats: Vec<Pat> = (0..n_pats).map(|_| random_pat(&mut rng, 3)).collect();
        let n_vals = 1 + rng.below(5);
        let values: Vec<Value> = (0..n_vals).map(|_| random_value(&mut rng, 3)).collect();
        let tree = compile_arms(&pats);
        for v in &values {
            let got = run_decision(&tree, v).map(|(arm, _)| arm);
            let want = linear_match(&pats, v);
            assert_eq!(got, want, "patterns {pats:?} value {v:?}");
        }
    }
}
