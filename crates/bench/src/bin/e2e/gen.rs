//! Seeded input generators. Every input is a pure function of the
//! workload seed and an index (op, session, edit or tree), so a run can
//! replay any prefix of another run exactly and the program under test
//! never sees the seed itself.

use fnc2::ag::{Grammar, NodeId, Tree, TreeBuilder, Value};
use fnc2::analysis::AgClass;
use fnc2_corpus::rng::Rng;
use fnc2_corpus::{SynthProfile, TargetClass, TABLE1_PROFILES};

/// An independent generator for `(seed, a, b)`.
pub fn rng_for(seed: u64, a: u64, b: u64) -> Rng {
    let mut r = Rng::seed_from_u64(seed ^ 0x5eed_0e2e_0000_0000);
    let x = r.next_u64() ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut r = Rng::seed_from_u64(x);
    Rng::seed_from_u64(r.next_u64() ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
}

/// The `i`-th of `n` points of a log-uniform ladder over `lo..=hi`,
/// visited in bit-reversed order so that any prefix of the ladder spans
/// the whole range. Sizes come from this fixed schedule rather than from
/// the seed, so every seed sees the same size mix.
pub fn log_ladder(i: usize, n: usize, lo: f64, hi: f64) -> f64 {
    let bits = (usize::BITS - (n - 1).leading_zeros()).max(1);
    // Bit-reversed slots past `n` are skipped, so the order stays a
    // permutation of the ladder.
    let j = (0..n.next_power_of_two())
        .map(|k| k.reverse_bits() >> (usize::BITS - bits))
        .filter(|&j| j < n)
        .nth(i % n)
        .expect("n slots survive the filter");
    lo * (hi / lo).powf((j as f64 + 0.5) / n as f64)
}

// ---------------------------------------------------------------------------
// Mini-Pascal programs
// ---------------------------------------------------------------------------

/// A mini-Pascal type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ty {
    /// `integer`.
    Int,
    /// `boolean`.
    Bool,
}

/// A mini-Pascal expression; binary operators are `+ - * < =`.
#[derive(Clone, Debug)]
pub enum Expr {
    Lit(i64),
    True,
    False,
    Var(String),
    Not(Box<Expr>),
    Bin(char, Box<Expr>, Box<Expr>),
}

/// A mini-Pascal statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    Assign(String, Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    While(Expr, Vec<Stmt>),
    Write(Expr),
}

/// A mini-Pascal program: declarations and a statement list.
#[derive(Clone, Debug)]
pub struct Program {
    pub decls: Vec<(String, Ty)>,
    pub body: Vec<Stmt>,
}

const MAX_EXPR_DEPTH: u32 = 4;
const MAX_NESTING: u32 = 3;

/// Draws expressions and statements over a fixed set of declared
/// variables. Assignment targets are always declared: the AG reports an
/// extra `assignment to x: expected ?` error for undeclared targets that
/// the hand-written compiler does not.
pub struct ProgramGen<'a> {
    rng: Rng,
    decls: &'a [(String, Ty)],
}

impl<'a> ProgramGen<'a> {
    pub fn new(rng: Rng, decls: &'a [(String, Ty)]) -> Self {
        ProgramGen { rng, decls }
    }

    fn var_of(&mut self, ty: Ty) -> Option<String> {
        let n = self.decls.iter().filter(|(_, t)| *t == ty).count();
        if n == 0 {
            return None;
        }
        let k = self.rng.gen_usize(0, n - 1);
        self.decls
            .iter()
            .filter(|(_, t)| *t == ty)
            .nth(k)
            .map(|(name, _)| name.clone())
    }

    /// A well-typed expression of type `ty` and depth at most `depth`.
    pub fn expr(&mut self, ty: Ty, depth: u32) -> Expr {
        let leaf = depth == 0 || self.rng.gen_bool(0.5);
        match (ty, leaf) {
            (Ty::Int, true) => match self.var_of(Ty::Int) {
                Some(v) if self.rng.gen_bool(0.5) => Expr::Var(v),
                _ => Expr::Lit(self.rng.gen_range(0, 999)),
            },
            (Ty::Int, false) => {
                let op = *self.rng.choose(&['+', '-', '*']);
                let a = self.expr(Ty::Int, depth - 1);
                let b = self.expr(Ty::Int, depth - 1);
                Expr::Bin(op, Box::new(a), Box::new(b))
            }
            (Ty::Bool, true) => match self.rng.gen_usize(0, 2) {
                0 => Expr::True,
                1 => Expr::False,
                _ => self.var_of(Ty::Bool).map_or(Expr::True, Expr::Var),
            },
            (Ty::Bool, false) => match self.rng.gen_usize(0, 2) {
                0 => Expr::Not(Box::new(self.expr(Ty::Bool, depth - 1))),
                1 => {
                    let a = self.expr(Ty::Int, depth - 1);
                    let b = self.expr(Ty::Int, depth - 1);
                    Expr::Bin('<', Box::new(a), Box::new(b))
                }
                _ => {
                    let t = if self.rng.gen_bool(0.5) {
                        Ty::Int
                    } else {
                        Ty::Bool
                    };
                    let a = self.expr(t, depth - 1);
                    let b = self.expr(t, depth - 1);
                    Expr::Bin('=', Box::new(a), Box::new(b))
                }
            },
        }
    }

    /// A well-typed statement whose if/while nesting is at most `nesting`.
    pub fn stmt(&mut self, nesting: u32) -> Stmt {
        let roll = self.rng.gen_usize(0, 99);
        match roll {
            0..=39 => self.assign(),
            40..=59 if nesting > 0 => {
                let c = self.expr(Ty::Bool, MAX_EXPR_DEPTH);
                let a = self.stmt(nesting - 1);
                let b = self.stmt(nesting - 1);
                Stmt::If(c, vec![a], vec![b])
            }
            60..=74 if nesting > 0 => {
                let c = self.expr(Ty::Bool, MAX_EXPR_DEPTH);
                Stmt::While(c, vec![self.stmt(nesting - 1)])
            }
            _ => {
                let ty = if self.rng.gen_bool(0.7) {
                    Ty::Int
                } else {
                    Ty::Bool
                };
                Stmt::Write(self.expr(ty, MAX_EXPR_DEPTH))
            }
        }
    }

    fn assign(&mut self) -> Stmt {
        let (name, ty) = self.rng.choose(self.decls).clone();
        Stmt::Assign(name, self.expr(ty, MAX_EXPR_DEPTH))
    }

    /// One top-level block: an assignment and one more statement. Blocks
    /// have a fixed statement count and nested bodies hold one statement,
    /// so program size varies little from seed to seed.
    pub fn block(&mut self) -> Vec<Stmt> {
        vec![self.assign(), self.stmt(MAX_NESTING)]
    }

    /// A statement with one error: an undeclared read or a mistyped
    /// assignment, never an assignment to an undeclared name.
    pub fn faulty_stmt(&mut self) -> Stmt {
        if self.rng.gen_bool(0.5) {
            let read = Expr::Var(format!("u{}", self.rng.gen_usize(0, 9)));
            let e = Expr::Bin('+', Box::new(read), Box::new(self.expr(Ty::Int, 2)));
            Stmt::Write(e)
        } else {
            let (name, ty) = self.rng.choose(self.decls).clone();
            let wrong = if ty == Ty::Int { Ty::Bool } else { Ty::Int };
            Stmt::Assign(name, self.expr(wrong, 2))
        }
    }
}

/// Declarations for a program of `blocks` blocks: `v0` is an integer and
/// `v1` a boolean, the rest are integers with probability 0.7.
pub fn decls_for(rng: &mut Rng, blocks: usize) -> Vec<(String, Ty)> {
    (0..blocks.max(1) + 3)
        .map(|i| {
            let ty = match i {
                0 => Ty::Int,
                1 => Ty::Bool,
                _ if rng.gen_bool(0.7) => Ty::Int,
                _ => Ty::Bool,
            };
            (format!("v{i}"), ty)
        })
        .collect()
}

/// A program of `blocks` top-level blocks; with probability `p_faulty`
/// one faulty statement is inserted at a random position.
pub fn program(mut rng: Rng, blocks: usize, p_faulty: f64) -> Program {
    let decls = decls_for(&mut rng, blocks);
    let faulty = rng.gen_bool(p_faulty);
    let mut g = ProgramGen::new(rng, &decls);
    let mut body: Vec<Stmt> = (0..blocks).flat_map(|_| g.block()).collect();
    if faulty {
        let at = g.rng.gen_usize(0, body.len());
        let s = g.faulty_stmt();
        body.insert(at, s);
    }
    Program { decls, body }
}

/// Block counts of `pascal-compile` programs: log-uniform in 4..=64.
pub const COMPILE_BLOCKS: (f64, f64) = (4.0, 64.0);
/// Ladder length of the `pascal-compile` size schedule.
pub const COMPILE_LADDER: usize = 20;
/// Share of `pascal-compile` programs that contain one error.
pub const COMPILE_FAULTY: f64 = 0.05;

/// The source text of `pascal-compile` op `op`.
pub fn compile_program(seed: u64, op: usize) -> String {
    let blocks = log_ladder(op, COMPILE_LADDER, COMPILE_BLOCKS.0, COMPILE_BLOCKS.1).round();
    render(&program(
        rng_for(seed, 1, op as u64),
        blocks as usize,
        COMPILE_FAULTY,
    ))
}

/// Renders a program as mini-Pascal source. Every binary operation is
/// parenthesized, so the parsed tree has exactly the generated shape.
pub fn render(p: &Program) -> String {
    let mut out = String::from("program p;\n");
    for (name, ty) in &p.decls {
        let t = match ty {
            Ty::Int => "integer",
            Ty::Bool => "boolean",
        };
        out.push_str(&format!("var {name} : {t};\n"));
    }
    out.push_str("begin\n");
    render_stmts(&p.body, 1, &mut out);
    out.push_str("\nend.\n");
    out
}

fn render_stmts(stmts: &[Stmt], indent: usize, out: &mut String) {
    for (i, s) in stmts.iter().enumerate() {
        if i > 0 {
            out.push_str(";\n");
        }
        out.push_str(&"  ".repeat(indent));
        match s {
            Stmt::Assign(name, e) => out.push_str(&format!("{name} := {}", render_expr(e))),
            Stmt::Write(e) => out.push_str(&format!("write {}", render_expr(e))),
            Stmt::If(c, a, b) => {
                out.push_str(&format!("if {} then\n", render_expr(c)));
                render_stmts(a, indent + 1, out);
                out.push_str(&format!("\n{}else\n", "  ".repeat(indent)));
                render_stmts(b, indent + 1, out);
                out.push_str(&format!("\n{}end", "  ".repeat(indent)));
            }
            Stmt::While(c, body) => {
                out.push_str(&format!("while {} do\n", render_expr(c)));
                render_stmts(body, indent + 1, out);
                out.push_str(&format!("\n{}end", "  ".repeat(indent)));
            }
        }
    }
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Lit(n) => n.to_string(),
        Expr::True => "true".into(),
        Expr::False => "false".into(),
        Expr::Var(v) => v.clone(),
        Expr::Not(a) => format!("not ({})", render_expr(a)),
        Expr::Bin(op, a, b) => format!("({} {op} {})", render_expr(a), render_expr(b)),
    }
}

// ---------------------------------------------------------------------------
// Edit scripts (structure-editor replacements for `pascal-edit`)
// ---------------------------------------------------------------------------

/// Blocks of every `pascal-edit` session program.
pub const EDIT_BLOCKS: usize = 32;

/// The program a `pascal-edit` session starts from.
pub fn edit_program(seed: u64, session: usize) -> Program {
    program(rng_for(seed, 2, session as u64), EDIT_BLOCKS, 0.0)
}

/// What one edit replaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// An `Expr` subtree by a fresh expression of the same type.
    Expr,
    /// A `Stmt` subtree by a fresh statement.
    Stmt,
    /// A declaration's `Type` (int ↔ bool), which changes `env` everywhere.
    Decl,
}

/// The kind of edit `j` of a session: a fixed 6:3:1 pattern, so every
/// seed and every prefix of ten edits has the same mix.
pub fn edit_kind(j: usize) -> EditKind {
    const PATTERN: [EditKind; 10] = [
        EditKind::Expr,
        EditKind::Stmt,
        EditKind::Expr,
        EditKind::Expr,
        EditKind::Stmt,
        EditKind::Expr,
        EditKind::Decl,
        EditKind::Expr,
        EditKind::Stmt,
        EditKind::Expr,
    ];
    PATTERN[j % PATTERN.len()]
}

/// Builds one edit of a session: the node to replace in `tree` and its
/// replacement subtree. `expr_ty` reports the current static type of an
/// `Expr` node (an editor keeps replacements well typed when it can).
pub fn edit(
    seed: u64,
    session: usize,
    j: usize,
    g: &Grammar,
    tree: &Tree,
    decls: &[(String, Ty)],
    expr_ty: impl Fn(NodeId) -> Ty,
) -> (NodeId, Tree) {
    let mut rng = rng_for(seed, 3 + ((session as u64) << 20), j as u64);
    let kind = edit_kind(j);
    let phylum = match kind {
        EditKind::Expr => "Expr",
        EditKind::Stmt => "Stmt",
        EditKind::Decl => "Type",
    };
    let ph = g.phylum_by_name(phylum).expect("mini-Pascal phylum");
    let nodes: Vec<NodeId> = tree
        .preorder()
        .map(|(n, _)| n)
        .filter(|&n| tree.phylum(g, n) == ph)
        .collect();
    let at = nodes[rng.gen_usize(0, nodes.len() - 1)];
    let mut b = TreeBuilder::new(g);
    let root = match kind {
        EditKind::Expr => {
            let ty = expr_ty(at);
            let e = ProgramGen::new(rng, decls).expr(ty, 3);
            build_expr(&mut b, g, &e)
        }
        EditKind::Stmt => {
            let s = ProgramGen::new(rng, decls).stmt(1);
            build_stmt(&mut b, g, &s)
        }
        EditKind::Decl => {
            let flipped = match g.production(tree.node(at).production()).name() {
                "tint" => "tbool",
                _ => "tint",
            };
            b.op(flipped, &[]).expect("type node")
        }
    };
    (at, b.finish(root))
}

fn build_expr(b: &mut TreeBuilder<'_>, g: &Grammar, e: &Expr) -> NodeId {
    let tok = |b: &mut TreeBuilder<'_>, op: &str, v: Value| {
        let p = g.production_by_name(op).expect("mini-Pascal operator");
        b.node_with_token(p, &[], Some(v)).expect("leaf builds")
    };
    match e {
        Expr::Lit(n) => tok(b, "elit", Value::Int(*n)),
        Expr::Var(v) => tok(b, "evar", Value::str(v)),
        Expr::True => b.op("etrue", &[]).expect("leaf builds"),
        Expr::False => b.op("efalse", &[]).expect("leaf builds"),
        Expr::Not(a) => {
            let a = build_expr(b, g, a);
            b.op("enot", &[a]).expect("node builds")
        }
        Expr::Bin(op, l, r) => {
            let l = build_expr(b, g, l);
            let r = build_expr(b, g, r);
            let name = match op {
                '+' => "eadd",
                '-' => "esub",
                '*' => "emul",
                '<' => "elt",
                _ => "eeq",
            };
            b.op(name, &[l, r]).expect("node builds")
        }
    }
}

fn build_stmts(b: &mut TreeBuilder<'_>, g: &Grammar, stmts: &[Stmt]) -> NodeId {
    let mut rest = b.op("stmts_nil", &[]).expect("leaf builds");
    for s in stmts.iter().rev() {
        let s = build_stmt(b, g, s);
        rest = b.op("stmts_cons", &[s, rest]).expect("node builds");
    }
    rest
}

fn build_stmt(b: &mut TreeBuilder<'_>, g: &Grammar, s: &Stmt) -> NodeId {
    match s {
        Stmt::Assign(name, e) => {
            let e = build_expr(b, g, e);
            let p = g.production_by_name("assign").expect("assign");
            b.node_with_token(p, &[e], Some(Value::str(name)))
                .expect("node builds")
        }
        Stmt::Write(e) => {
            let e = build_expr(b, g, e);
            b.op("swrite", &[e]).expect("node builds")
        }
        Stmt::If(c, t, f) => {
            let c = build_expr(b, g, c);
            let t = build_stmts(b, g, t);
            let f = build_stmts(b, g, f);
            b.op("sif", &[c, t, f]).expect("node builds")
        }
        Stmt::While(c, body) => {
            let c = build_expr(b, g, c);
            let body = build_stmts(b, g, body);
            b.op("swhile", &[c, body]).expect("node builds")
        }
    }
}

// ---------------------------------------------------------------------------
// Synthetic grammars and batch trees (`batch-decorate`, `grammar-build`)
// ---------------------------------------------------------------------------

/// The class a profile's grammar must land in.
pub fn target_class(class: TargetClass) -> AgClass {
    match class {
        TargetClass::Oag0 => AgClass::Oag0,
        TargetClass::Oag1 => AgClass::OagK(1),
        TargetClass::Dnc => AgClass::Dnc,
        TargetClass::SncOnly => AgClass::Snc,
    }
}

/// Draws of each Table 1 profile in a `grammar-build` run. Several draws
/// per profile keep one unlucky draw from setting a run's tail latency.
pub const PROFILE_DRAWS: usize = 4;

/// [`PROFILE_DRAWS`] draws of the seven Table 1 profiles with seeds
/// derived from `seed`, ordered draw by draw. A draw whose grammar misses
/// its target class is redrawn with the next seed, so the result is still
/// a pure function of `seed`.
pub fn profiles(seed: u64) -> Vec<SynthProfile> {
    (0..PROFILE_DRAWS * TABLE1_PROFILES.len())
        .map(|i| {
            let base = TABLE1_PROFILES[i % TABLE1_PROFILES.len()];
            let mut rng = rng_for(seed, 4, i as u64);
            loop {
                let p = SynthProfile {
                    seed: rng.next_u64(),
                    ..base
                };
                let g = fnc2_corpus::synthetic(&p);
                let class = fnc2::analysis::classify(&g, 1, fnc2::analysis::Inclusion::Long);
                if class.is_ok_and(|c| c.class == target_class(p.class)) {
                    return p;
                }
            }
        })
        .collect()
}

/// Trees per `batch-decorate` batch.
pub const BATCH_TREES: usize = 64;
/// Ladder length of the batch size schedule.
pub const BATCH_LADDER: usize = 8;

/// The trees of `batch-decorate` op `op` over profile grammar `g`. Target
/// sizes are drawn from 100 nodes up to a cap that climbs a fixed
/// log ladder from 150 to 800, one step per round of the seven grammars.
/// With one range for every batch, each grammar's batches would cost
/// nearly the same, and the median op would sit on the edge between two
/// grammars' costs; the ladder spreads batch costs out.
pub fn batch_trees(seed: u64, op: usize, g: &Grammar, p: &SynthProfile) -> Vec<Tree> {
    let round = op / TABLE1_PROFILES.len();
    let cap = log_ladder(round, BATCH_LADDER, 150.0, 800.0).round() as usize;
    let mut rng = rng_for(seed, 5, op as u64);
    (0..BATCH_TREES)
        .map(|_| {
            let target = rng.gen_usize(100, cap);
            fnc2_corpus::synthetic_tree(g, p, target, rng.next_u64())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Grammar sources (`grammar-build`)
// ---------------------------------------------------------------------------

/// One `grammar-build` input.
#[derive(Clone, Debug)]
pub enum GrammarInput {
    /// OLGA source text and the class it must classify as.
    Olga { source: String, class: AgClass },
    /// The index of a synthetic profile draw (see [`profiles`]).
    Synthetic(usize),
}

/// The corpus OLGA sources `grammar-build` builds: mini-Pascal, blocks
/// and desk, all OAG(0).
pub const CORPUS_OLGA: [&str; 3] = [
    fnc2_corpus::MINIPASCAL_OLGA,
    fnc2_corpus::BLOCKS_OLGA_LIST,
    fnc2_corpus::DESK_OLGA,
];

/// Line counts of the sized OLGA sources: log-uniform in 300..=3000.
pub const SIZED_LINES: (f64, f64) = (300.0, 3000.0);
/// Ladder length of the sized-source schedule.
pub const SIZED_LADDER: usize = 16;

/// `grammar-build` op `op`: even ops build OLGA sources (the three corpus
/// AGs and sized AGs, alternating), odd ops cycle through the synthetic
/// profile draws of [`profiles`]. A trailing comment naming the seed and
/// op makes every OLGA source, and so every artifact fingerprint,
/// distinct.
pub fn grammar_input(seed: u64, op: usize) -> GrammarInput {
    if op % 2 == 1 {
        return GrammarInput::Synthetic((op / 2) % (PROFILE_DRAWS * TABLE1_PROFILES.len()));
    }
    let k = op / 2;
    let (base, class) = if k % 2 == 1 {
        let lines = log_ladder(k / 2, SIZED_LADDER, SIZED_LINES.0, SIZED_LINES.1).round();
        let mut rng = rng_for(seed, 6, op as u64);
        let name = format!("sized{}", rng.gen_usize(0, 9999));
        (
            fnc2_corpus::sized_ag_source(&name, lines as usize),
            AgClass::Oag0,
        )
    } else {
        let src = CORPUS_OLGA[(k / 2) % CORPUS_OLGA.len()];
        (src.to_string(), AgClass::Oag0)
    };
    GrammarInput::Olga {
        source: format!("{base}\n-- e2e seed {seed} op {op}\n"),
        class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grammar() -> Grammar {
        fnc2_corpus::minipascal().0
    }

    #[test]
    fn same_seed_same_inputs_other_seed_different() {
        for op in [0, 7, 19] {
            assert_eq!(compile_program(3, op), compile_program(3, op));
            assert_ne!(compile_program(3, op), compile_program(4, op));
        }
        assert_eq!(render(&edit_program(3, 1)), render(&edit_program(3, 1)));
        assert_ne!(render(&edit_program(3, 1)), render(&edit_program(4, 1)));
        let a: Vec<u64> = profiles(3).iter().map(|p| p.seed).collect();
        assert_eq!(a, profiles(3).iter().map(|p| p.seed).collect::<Vec<_>>());
        assert_ne!(a, profiles(4).iter().map(|p| p.seed).collect::<Vec<_>>());
        let src = |seed| match grammar_input(seed, 2) {
            GrammarInput::Olga { source, .. } => source,
            GrammarInput::Synthetic(_) => unreachable!("even ops are OLGA"),
        };
        assert_eq!(src(3), src(3));
        assert_ne!(src(3), src(4));
    }

    #[test]
    fn batch_trees_are_pure_in_seed_and_op() {
        let p = TABLE1_PROFILES[0];
        let g = fnc2_corpus::synthetic(&p);
        let sizes = |seed, op| {
            batch_trees(seed, op, &g, &p)
                .iter()
                .map(Tree::size)
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(1, 2), sizes(1, 2));
        assert_ne!(sizes(1, 2), sizes(2, 2));
    }

    #[test]
    fn log_ladder_is_a_permutation_spanning_the_range() {
        let mut xs: Vec<f64> = (0..20).map(|i| log_ladder(i, 20, 4.0, 64.0)).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        assert_eq!(xs.len(), 20);
        assert!(xs[0] > 4.0 && xs[0] < 4.6, "{}", xs[0]);
        assert!(xs[19] < 64.0 && xs[19] > 55.0, "{}", xs[19]);
        // The first half of the schedule already covers both ends.
        let first: Vec<f64> = (0..10).map(|i| log_ladder(i, 20, 4.0, 64.0)).collect();
        assert!(first.iter().any(|&x| x < 8.0) && first.iter().any(|&x| x > 32.0));
    }

    #[test]
    fn every_generated_program_parses() {
        let g = grammar();
        for op in 0..200 {
            let src = compile_program(11, op);
            fnc2_corpus::parse_minipascal(&g, &src)
                .unwrap_or_else(|e| panic!("op {op}: {e}\n{src}"));
        }
    }

    #[test]
    fn no_program_assigns_to_an_undeclared_name() {
        fn check(stmts: &[Stmt], declared: &[&str]) {
            for s in stmts {
                match s {
                    Stmt::Assign(name, _) => assert!(declared.contains(&name.as_str()), "{name}"),
                    Stmt::If(_, a, b) => {
                        check(a, declared);
                        check(b, declared);
                    }
                    Stmt::While(_, body) => check(body, declared),
                    Stmt::Write(_) => {}
                }
            }
        }
        for op in 0..500 {
            let p = program(rng_for(5, 1, op), 8, 0.5);
            let declared: Vec<&str> = p.decls.iter().map(|(n, _)| n.as_str()).collect();
            check(&p.body, &declared);
        }
    }

    #[test]
    fn handwritten_compiler_agrees_with_the_ag() {
        let compiled = fnc2::Pipeline::new()
            .compile_olga(fnc2_corpus::MINIPASCAL_OLGA)
            .unwrap();
        let g = &compiled.grammar;
        let prog = g.phylum_by_name("Prog").unwrap();
        let code = g.attr_by_name(prog, "code").unwrap();
        let errs = g.attr_by_name(prog, "errs").unwrap();
        let strings = |v: Option<&Value>| -> Vec<String> {
            v.unwrap()
                .as_list()
                .iter()
                .map(|s| s.as_str().to_string())
                .collect()
        };
        let mut faulty = 0;
        for op in 0..200 {
            // Small programs keep the debug-build test fast; half carry an
            // error so both error paths are compared.
            let blocks = 1 + op % 6;
            let src = render(&program(rng_for(9, 1, op as u64), blocks, 0.5));
            let tree = fnc2_corpus::parse_minipascal(g, &src).unwrap();
            let (vals, _) = compiled.evaluate(&tree, &Default::default()).unwrap();
            let (want_code, want_errs) = fnc2_bench::handwritten_minipascal(g, &tree);
            let got_errs = strings(vals.get(g, tree.root(), errs));
            faulty += usize::from(!got_errs.is_empty());
            assert_eq!(strings(vals.get(g, tree.root(), code)), want_code, "{src}");
            assert_eq!(got_errs, want_errs, "{src}");
        }
        assert!(
            faulty > 50,
            "only {faulty} programs exercised the error paths"
        );
    }

    #[test]
    fn edits_replace_nodes_of_the_drawn_phylum() {
        let g = grammar();
        let p = edit_program(0, 0);
        let tree = fnc2_corpus::parse_minipascal(&g, &render(&p)).unwrap();
        for j in 0..10 {
            let (at, sub) = edit(0, 0, j, &g, &tree, &p.decls, |_| Ty::Int);
            assert_eq!(tree.phylum(&g, at), sub.phylum(&g, sub.root()), "edit {j}");
        }
    }
}
