//! A deterministic allocation gate on the mini-Pascal compile path: the
//! OLGA front end and a cached start, scan, parse, evaluation, repeated
//! evaluations on one compiled grammar and single rule firings, plus one
//! evaluation of a synthetic tree, and on the evaluator generator's class
//! cascade and space planner. Heap traffic, not name lookup, bounds that path, and
//! unlike timings the counts repeat exactly, so a change that allocates per
//! token, per call or per node again fails here.
//!
//! The global allocator counts each thread's allocations (`alloc`,
//! `alloc_zeroed` and `realloc`), so tests running in parallel do not see
//! each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fnc2::ag::{Arg, Grammar, Occ, RuleBody, Value};
use fnc2::analysis::{classify, Inclusion};
use fnc2::artifact::{emit_tables, load_tables};
use fnc2::guard::EvalBudget;
use fnc2::obs::NoopRecorder;
use fnc2::olga::compile_ag_source;
use fnc2::space::analyze_space;
use fnc2::visit::{build_visit_seqs, Evaluator, RootInputs};
use fnc2::{smoke_tree, Compiled, Pipeline, SmokeOutcome};
use fnc2_corpus::{
    minipascal, minipascal_scanner, parse_minipascal, partition_blowup, sample_program, synthetic,
    synthetic_tree, MINIPASCAL_OLGA, TABLE1_PROFILES,
};

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
fn the_front_end_allocates_once_per_name() {
    let pipeline = Pipeline::new();
    let bytes = emit_tables(&compiled(), &pipeline, MINIPASCAL_OLGA);
    let (_, front) = allocations(|| compile_ag_source(MINIPASCAL_OLGA).unwrap());
    let (_, load) = allocations(|| load_tables(&bytes, MINIPASCAL_OLGA, &pipeline).unwrap());
    println!("front end: {front} allocations; table load: {load}");
    // 1,978 and 2,764 when the bounds were set, plus about 10% and 4%. The
    // lexer allocates only its token vector, the parser each name of the
    // AST once, and neither the checker nor the lowering copies an
    // attribute row, a rule body or a function or constant body (copying
    // those took 75 more); a load runs the front end again, but
    // slot-compiles nothing (that took 197 more).
    assert!(front <= 2175, "front end: {front} allocations");
    assert!(load <= 2875, "table load: {load} allocations");
}

/// One `Compiled` builds its evaluators once: the first optimized
/// evaluation slot-compiles the rules and lowers the node-storage and the
/// plan's op streams over them, and every later call, plain, optimized or
/// smoke, allocates only its own run.
#[test]
fn each_evaluator_is_built_once() {
    let c = compiled();
    let tree = smoke_tree(&c.grammar).unwrap();
    let inputs: RootInputs = c
        .grammar
        .inherited(c.grammar.root())
        .into_iter()
        .map(|a| (a, Value::Int(0)))
        .collect();
    let budget = EvalBudget::default();
    c.evaluate_optimized(&tree, &inputs).unwrap();
    let (_, plain) = allocations(|| c.evaluate(&tree, &inputs).unwrap());
    let (_, optimized) = allocations(|| c.evaluate_optimized(&tree, &inputs).unwrap());
    let (smoked, smoke) = allocations(|| c.smoke_evaluate(&budget, &mut NoopRecorder));
    assert_eq!(smoked, SmokeOutcome::Ok);
    println!("plain: {plain}, optimized: {optimized}, smoke: {smoke} allocations");
    // 13, 19 and 94 when the bounds were set, plus 2 or about 5%: each
    // run's stores, and for the smoke run the 3-node smoke tree it builds
    // (62) and both evaluators' stores. Building the plan's evaluator
    // again costs about 540 more, the node-storage one about 280.
    assert!(plain <= 15, "plain: {plain} allocations");
    assert!(optimized <= 21, "optimized: {optimized} allocations");
    assert!(smoke <= 100, "smoke: {smoke} allocations");
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
    // 1,416 and 7,908 when the bounds were set, plus about 10%: scanning
    // allocates once per identifier or string token, parsing once per
    // interior node (its children), and a token value shares its lexeme's
    // text.
    assert!(parse <= 1560, "scan + parse: {parse} allocations");
    assert!(eval <= 8700, "evaluation: {eval} allocations");
}

#[test]
fn one_tree_allocates_its_stores_once() {
    for p in [&TABLE1_PROFILES[0], &TABLE1_PROFILES[6]] {
        let c = Pipeline::new().compile(synthetic(p)).unwrap();
        let ev = Evaluator::new(&c.grammar, &c.seqs);
        let counts = [100, 800].map(|target| {
            let tree = synthetic_tree(&c.grammar, p, target, 7);
            ev.evaluate(&tree, &RootInputs::new()).unwrap();
            let (_, n) = allocations(|| ev.evaluate(&tree, &RootInputs::new()).unwrap());
            println!("{}: {} nodes, {n} allocations", p.name, tree.size());
            n
        });
        // 11 and 14 when the bounds were set, plus 2. The stores take three
        // (`AttrValues`' cells and offsets, `LocalFrames`' offsets: these
        // grammars have no locals), the argument buffer one, and the root
        // visit's frame stack the rest, doubling up to the tree's depth
        // (both trees are chains, 65 and 693 deep). Stores that grow per
        // node again make a dozen more calls on the bigger tree.
        let [small, big] = counts;
        assert!(small <= 13, "{}: {small} allocations", p.name);
        assert!(big <= 16, "{}: {big} allocations", p.name);
        assert!(big <= small + 4, "{}: {small} then {big}", p.name);
    }
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

/// The allocations of `g`'s class cascade and of its space analysis, as
/// the pipeline runs them.
fn generator_allocations(g: &Grammar) -> (u64, u64) {
    let (c, classify) = allocations(|| classify(g, 1, Inclusion::Long).unwrap());
    let seqs = build_visit_seqs(g, c.l_ordered.as_ref().unwrap());
    let (_, space) = allocations(|| analyze_space(g, &seqs));
    (classify, space)
}

/// The class cascade builds each production's `D(p)` once and pastes onto
/// one reused workspace, and the space planner indexes each sequence's
/// instances once and reuses its test buffers, so neither allocates per
/// fixpoint step or per candidate group. Debug builds re-run every
/// fixpoint step on the same buffers, so the counts hold in both profiles.
#[test]
fn the_generator_allocates_per_production_not_per_step() {
    let (pascal, ag5) = (minipascal().0, synthetic(&TABLE1_PROFILES[4]));
    let [(pc, ps), (ac, asp)] = [&pascal, &ag5].map(generator_allocations);
    println!("mini-Pascal: classify {pc}, analyze_space {ps} allocations");
    println!("AG5: classify {ac}, analyze_space {asp} allocations");
    // 886 and 1,369 on mini-Pascal, 5,226 and 8,277 on AG5 when the bounds
    // were set, plus about 10%; rebuilding `D(p)` and a digraph on every
    // step, and the planner's per-call buffers, took 5,417 and 5,457, and
    // 29,324 and 46,488.
    assert!(pc <= 975, "mini-Pascal classify: {pc} allocations");
    assert!(ps <= 1505, "mini-Pascal analyze_space: {ps} allocations");
    assert!(ac <= 5750, "AG5 classify: {ac} allocations");
    assert!(asp <= 9100, "AG5 analyze_space: {asp} allocations");
}

/// The generator's reused buffers live no longer than one run: compiling
/// other grammars in between, on the same thread, changes nothing in a
/// grammar's artifact.
#[test]
fn generator_runs_share_no_state() {
    let pipeline = Pipeline::new();
    let artifact = || emit_tables(&compiled(), &pipeline, MINIPASCAL_OLGA);
    let first = artifact();
    for g in [synthetic(&TABLE1_PROFILES[4]), partition_blowup(4, 3)] {
        pipeline.compile(g).unwrap();
    }
    assert!(first == artifact(), "mini-Pascal's artifact changed");
}
