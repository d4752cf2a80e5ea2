//! A deterministic allocation gate on the mini-Pascal compile path: scan,
//! parse, evaluation and single rule firings. Heap traffic, not name
//! lookup, bounds that path, and unlike timings the counts repeat exactly,
//! so a change that allocates per token or per call again fails here.
//!
//! The global allocator counts each thread's allocations (`alloc`,
//! `alloc_zeroed` and `realloc`), so tests running in parallel do not see
//! each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fnc2::ag::{Arg, Occ, RuleBody, Value};
use fnc2::{Compiled, Pipeline};
use fnc2_corpus::{minipascal_scanner, parse_minipascal, sample_program, MINIPASCAL_OLGA};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialized `Cell` has no destructor, so this never fails,
    // not even while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments, so it keeps the system allocator's contract.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` hold for `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc_zeroed` hold for `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made while it ran.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn compiled() -> Compiled {
    Pipeline::new()
        .compile_olga(MINIPASCAL_OLGA)
        .expect("the mini-Pascal AG compiles")
}

#[test]
fn scanning_allocates_at_most_once_per_token() {
    let (src, spec) = (sample_program(32), minipascal_scanner());
    let (toks, n) = allocations(|| fnc2::syntax::scan(&spec, &src).unwrap());
    println!("scan: {n} allocations for {} tokens", toks.len());
    assert_eq!(toks.len(), 1697);
    // 561 when the bound was set, plus about 10%: an identifier or string
    // token allocates its text, a keyword or operator token shares the
    // spec's, and the token vector grows by doubling.
    assert!(n <= 620, "{n} allocations");
}

#[test]
fn parsing_and_evaluation_stay_within_their_allocations() {
    let c = compiled();
    let src = sample_program(32);
    // The first run grows the thread's interpreter stack and the parser's
    // scanner spec; the counted ones are in the steady state.
    let tree = parse_minipascal(&c.grammar, &src).unwrap();
    c.evaluate(&tree, &Default::default()).unwrap();
    let (tree, parse) = allocations(|| parse_minipascal(&c.grammar, &src).unwrap());
    let (_, eval) = allocations(|| c.evaluate(&tree, &Default::default()).unwrap());
    println!("scan + parse: {parse} allocations; evaluation: {eval}");
    // 1,416 and 7,937 when the bounds were set, plus about 10%: scanning
    // allocates once per identifier or string token, parsing once per
    // interior node (its children), and a token value shares its lexeme's
    // text.
    assert!(parse <= 1560, "scan + parse: {parse} allocations");
    assert!(eval <= 8750, "evaluation: {eval} allocations");
}

/// Fires the `code` rule of `op` on `args` twice and returns the second
/// firing's allocations.
fn code_firing(c: &Compiled, op: &str, args: &[Value]) -> u64 {
    let g = &c.grammar;
    let p = g.production_by_name(op).unwrap();
    let expr = g.production(p).lhs();
    let code = Occ::lhs(g.attr_by_name(expr, "code").unwrap());
    let RuleBody::Call { func, args: reads } = g.rule_for(p, code.into()).unwrap().body() else {
        panic!("`{op}`'s code rule is a call");
    };
    assert_eq!(reads.len(), args.len(), "{reads:?}");
    assert!(reads.contains(&Arg::Token));
    let f = g.function(*func);
    let first = f.apply(args).unwrap();
    let (again, n) = allocations(|| f.apply(args).unwrap());
    assert_eq!(first, again);
    println!("{op} code: {first} in {n} allocations");
    n
}

#[test]
fn one_code_firing_allocates_a_handful() {
    let c = compiled();
    // `itoa`'s string, the `++` chain's string, and the list's chunk and
    // node.
    let elit = code_firing(&c, "elit", &[Value::Int(42)]);
    assert!(elit <= 4, "elit: {elit} allocations");
    let entry = Value::tuple(vec![Value::Int(3), Value::str("int")]);
    let env = Value::empty_map().map_insert("x".to_string(), entry);
    let evar = code_firing(&c, "evar", &[env, Value::str("x")]);
    assert!(evar <= 4, "evar: {evar} allocations");
}
