//! Shape independence of persistent lists: random programs of
//! `Value::list`, `++`, `::`, `tl` and `x :: xs` matches run against a
//! `Vec<Value>` model, and everything observable — `len`, `cell_count`,
//! `==` in both directions, `as_slice` and `Display` — depends only on
//! the element sequence, never on how the concatenations are nested.

use fnc2_ag::{List, Value, FLAT_MAX};

/// SplitMix64 (the corpus crate's generator sits above this one).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// A small element: mostly integers, sometimes a string, a signed zero or
/// a short list.
fn element(rng: &mut Rng) -> Value {
    match rng.below(9) {
        0 => Value::str(format!("s{}", rng.below(3))),
        1 => Value::list((0..rng.below(3)).map(|i| Value::Int(i as i64))),
        2 => Value::Real(if rng.below(2) == 0 { 0.0 } else { -0.0 }),
        _ => Value::Int(rng.below(5) as i64),
    }
}

/// Rebuilds `items` as a random tree of concatenations of flat pieces.
fn reshape(rng: &mut Rng, items: &[Value]) -> List {
    if items.len() <= 1 || rng.below(4) == 0 {
        return List::new(items.to_vec());
    }
    let at = rng.below(items.len() as u64 + 1) as usize;
    reshape(rng, &items[..at]).concat(&reshape(rng, &items[at..]))
}

/// Checks every observable of `l` against the model `want`.
fn check(l: &List, want: &[Value], rng: &mut Rng) {
    let flat = Value::list(want.to_vec());
    let v = Value::List(l.clone());
    assert_eq!(l.len(), want.len());
    assert_eq!(l.is_empty(), want.is_empty());
    assert_eq!(v.cell_count(), flat.cell_count(), "{flat}");
    assert!(v == flat, "{flat}");
    assert!(flat == v, "{flat}");
    let other = Value::List(reshape(rng, want));
    assert!(v == other, "{flat}");
    assert!(other == v, "{flat}");
    // `0.0 == -0.0`: equal lists whatever the zeros' signs.
    let flipped: Vec<Value> = want
        .iter()
        .map(|x| match x {
            Value::Real(r) => Value::Real(-r),
            x => x.clone(),
        })
        .collect();
    let flipped = Value::List(reshape(rng, &flipped));
    assert!(v == flipped, "{flat}");
    assert!(flipped == v, "{flat}");
    assert_eq!(l.first(), want.first());
    assert!(l.iter().eq(want.iter()));
    assert_eq!(v.to_string(), flat.to_string());
    assert_eq!(format!("{v:?}"), format!("{flat:?}"));
    if let Some((last, init)) = want.split_last() {
        let mut unequal = init.to_vec();
        unequal.push(Value::Int(last.cell_count() as i64 + 7));
        let unequal = Value::List(reshape(rng, &unequal));
        assert!(v != unequal, "{flat}");
        assert!(unequal != v, "{flat}");
    }
}

#[test]
fn random_list_programs_match_the_vector_model() {
    let mut longest = 0;
    for seed in 0..40 {
        let mut rng = Rng(seed);
        let mut pool: Vec<(List, Vec<Value>)> = vec![(List::new(Vec::new()), Vec::new())];
        for _ in 0..60 {
            let pick = |rng: &mut Rng, n: usize| rng.below(n as u64) as usize;
            let (l, m) = pool[pick(&mut rng, pool.len())].clone();
            let next = match rng.below(5) {
                0 => {
                    let items: Vec<Value> = (0..rng.below(40)).map(|_| element(&mut rng)).collect();
                    (List::new(items.clone()), items)
                }
                1 => {
                    let (k, n) = pool[pick(&mut rng, pool.len())].clone();
                    (l.concat(&k), m.iter().chain(&n).cloned().collect())
                }
                2 => {
                    let x = element(&mut rng);
                    let cons = List::new(vec![x.clone()]).concat(&l);
                    (cons, [x].into_iter().chain(m).collect())
                }
                3 => (l.tail(), m.iter().skip(1).cloned().collect()),
                _ => {
                    // `x :: xs`: the head, then the shared tail.
                    assert_eq!(l.first(), m.first());
                    match l.first() {
                        Some(_) => (l.tail(), m[1..].to_vec()),
                        None => (l, m),
                    }
                }
            };
            check(&next.0, &next.1, &mut rng);
            longest = longest.max(next.1.len());
            pool.push(next);
        }
    }
    assert!(longest > 4 * FLAT_MAX, "programs reach concatenation nodes");
}
