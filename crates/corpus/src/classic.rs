//! The classic attribute grammars every AG paper exercises.

use fnc2_ag::{Arg, Grammar, GrammarBuilder, Occ, Tree, TreeBuilder, Value};

/// Knuth's binary-number grammar (the 1968 original, with fractions):
/// `Number ::= Seq | Seq '.' Seq`, `value` synthesized, `scale` inherited.
pub fn binary() -> Grammar {
    let mut g = GrammarBuilder::new("binary");
    let number = g.phylum("Number");
    let seq = g.phylum("Seq");
    let bit = g.phylum("Bit");

    let n_value = g.syn(number, "value");
    let s_value = g.syn(seq, "value");
    let s_len = g.syn(seq, "length");
    let s_scale = g.inh(seq, "scale");
    let b_value = g.syn(bit, "value");
    let b_scale = g.inh(bit, "scale");

    g.func("add", 2, |a| Value::Real(a[0].as_real() + a[1].as_real()));
    g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
    g.func("neg", 1, |a| Value::Int(-a[0].as_int()));
    g.func("sub_len", 1, |a| Value::Int(-a[0].as_int()));
    g.func("pow2", 1, |a| Value::Real(2f64.powi(a[0].as_int() as i32)));

    // number : Number ::= Seq
    let number_p = g.production("number", number, &[seq]);
    g.copy(number_p, Occ::lhs(n_value), Occ::new(1, s_value));
    g.constant(number_p, Occ::new(1, s_scale), Value::Int(0));

    // fraction : Number ::= Seq Seq   ("b1…bn . c1…cm")
    let fraction = g.production("fraction", number, &[seq, seq]);
    g.call(
        fraction,
        Occ::lhs(n_value),
        "add",
        [Occ::new(1, s_value).into(), Occ::new(2, s_value).into()],
    );
    g.constant(fraction, Occ::new(1, s_scale), Value::Int(0));
    // The fractional part's scale is -length.
    g.call(
        fraction,
        Occ::new(2, s_scale),
        "sub_len",
        [Occ::new(2, s_len).into()],
    );

    // pair : Seq ::= Seq Bit
    let pair = g.production("pair", seq, &[seq, bit]);
    g.call(
        pair,
        Occ::lhs(s_value),
        "add",
        [Occ::new(1, s_value).into(), Occ::new(2, b_value).into()],
    );
    g.call(pair, Occ::lhs(s_len), "succ", [Occ::new(1, s_len).into()]);
    g.call(
        pair,
        Occ::new(1, s_scale),
        "succ",
        [Occ::lhs(s_scale).into()],
    );
    g.copy(pair, Occ::new(2, b_scale), Occ::lhs(s_scale));

    // single : Seq ::= Bit
    let single = g.production("single", seq, &[bit]);
    g.copy(single, Occ::lhs(s_value), Occ::new(1, b_value));
    g.constant(single, Occ::lhs(s_len), Value::Int(1));
    g.copy(single, Occ::new(1, b_scale), Occ::lhs(s_scale));

    let zero = g.production("zero", bit, &[]);
    g.constant(zero, Occ::lhs(b_value), Value::Real(0.0));
    let one = g.production("one", bit, &[]);
    g.call(one, Occ::lhs(b_value), "pow2", [Occ::lhs(b_scale).into()]);

    g.finish().expect("binary grammar is well-defined")
}

/// The two-pass grammar of the generator's unit tests: `S ::= A`,
/// `A ::= mid(A) | leaf`. The inherited `A.down` is threaded down the
/// chain from a constant at the root, and the synthesized `A.up` copies it
/// back up from the leaf. It is l-ordered and OAG(0), with the one
/// partition `[down | up]` on `A`.
pub fn two_pass() -> Grammar {
    let mut g = GrammarBuilder::new("two_pass");
    let s = g.phylum("S");
    let a = g.phylum("A");
    let out = g.syn(s, "out");
    let down = g.inh(a, "down");
    let up = g.syn(a, "up");
    let root = g.production("root", s, &[a]);
    g.copy(root, Occ::lhs(out), Occ::new(1, up));
    g.constant(root, Occ::new(1, down), Value::Int(0));
    let mid = g.production("mid", a, &[a]);
    g.copy(mid, Occ::new(1, down), Occ::lhs(down));
    g.copy(mid, Occ::lhs(up), Occ::new(1, up));
    let leaf = g.production("leaf", a, &[]);
    g.copy(leaf, Occ::lhs(up), Occ::lhs(down));
    g.finish().expect("two_pass is well-formed")
}

/// Builds the tree of a binary literal like `"1101"` or `"110.01"`.
///
/// # Panics
///
/// Panics on characters other than `0`, `1` and at most one `.`.
pub fn binary_tree(g: &Grammar, text: &str) -> Tree {
    fn seq(tb: &mut TreeBuilder, bits: &str) -> fnc2_ag::NodeId {
        let mut it = bits.chars();
        let first = it.next().expect("nonempty bit string");
        let mut cur = {
            let b = tb
                .op(if first == '1' { "one" } else { "zero" }, &[])
                .unwrap();
            tb.op("single", &[b]).unwrap()
        };
        for c in it {
            let b = tb.op(if c == '1' { "one" } else { "zero" }, &[]).unwrap();
            cur = tb.op("pair", &[cur, b]).unwrap();
        }
        cur
    }
    let mut tb = TreeBuilder::new(g);
    let root = match text.split_once('.') {
        None => {
            let s = seq(&mut tb, text);
            tb.op("number", &[s]).unwrap()
        }
        Some((int, frac)) => {
            let a = seq(&mut tb, int);
            let b = seq(&mut tb, frac);
            tb.op("fraction", &[a, b]).unwrap()
        }
    };
    tb.finish_root(root).expect("root phylum")
}

/// A desk calculator with an environment of variables: `let`-bound names
/// threaded down as an inherited map — the canonical L-attributed AG.
pub fn desk() -> Grammar {
    let mut g = GrammarBuilder::new("desk");
    let prog = g.phylum("Prog");
    let expr = g.phylum("Expr");

    let p_value = g.syn(prog, "value");
    let e_value = g.syn(expr, "value");
    let e_env = g.inh(expr, "env");

    g.func("add", 2, |a| {
        Value::Int(a[0].as_int().wrapping_add(a[1].as_int()))
    });
    g.func("mul", 2, |a| {
        Value::Int(a[0].as_int().wrapping_mul(a[1].as_int()))
    });
    g.func("bind", 3, |a| a[0].map_insert(a[1].as_str(), a[2].clone()));
    g.func("deref", 2, |a| {
        a[0].map_get(a[1].as_str())
            .cloned()
            .unwrap_or(Value::Int(0))
    });

    // prog : Prog ::= Expr
    let prog_p = g.production("prog", prog, &[expr]);
    g.copy(prog_p, Occ::lhs(p_value), Occ::new(1, e_value));
    g.constant(prog_p, Occ::new(1, e_env), Value::empty_map());

    // add : Expr ::= Expr Expr
    let add = g.production("add", expr, &[expr, expr]);
    g.call(
        add,
        Occ::lhs(e_value),
        "add",
        [Occ::new(1, e_value).into(), Occ::new(2, e_value).into()],
    );
    g.copy(add, Occ::new(1, e_env), Occ::lhs(e_env));
    g.copy(add, Occ::new(2, e_env), Occ::lhs(e_env));

    // mul : Expr ::= Expr Expr
    let mul = g.production("mul", expr, &[expr, expr]);
    g.call(
        mul,
        Occ::lhs(e_value),
        "mul",
        [Occ::new(1, e_value).into(), Occ::new(2, e_value).into()],
    );
    g.copy(mul, Occ::new(1, e_env), Occ::lhs(e_env));
    g.copy(mul, Occ::new(2, e_env), Occ::lhs(e_env));

    // let : Expr ::= Expr Expr   (token = name; env of body is extended)
    let let_p = g.production("letx", expr, &[expr, expr]);
    g.copy(let_p, Occ::new(1, e_env), Occ::lhs(e_env));
    g.call(
        let_p,
        Occ::new(2, e_env),
        "bind",
        [
            Occ::lhs(e_env).into(),
            Arg::Token,
            Occ::new(1, e_value).into(),
        ],
    );
    g.copy(let_p, Occ::lhs(e_value), Occ::new(2, e_value));

    // var : Expr ::=   (token = name)
    let var = g.production("var", expr, &[]);
    g.call(
        var,
        Occ::lhs(e_value),
        "deref",
        [Occ::lhs(e_env).into(), Arg::Token],
    );

    // lit : Expr ::=   (token = value)
    let lit = g.production("lit", expr, &[]);
    g.copy(lit, Occ::lhs(e_value), Arg::Token);

    g.finish().expect("desk grammar is well-defined")
}

/// A block-structured scope checker: declarations anywhere in a block are
/// visible throughout it, so every block takes **two visits** — collect the
/// declarations bottom-up, then distribute the environment and check uses.
/// The classic OAG example whose phyla genuinely need 2-visit partitions.
pub fn blocks() -> Grammar {
    let mut g = GrammarBuilder::new("blocks");
    let prog = g.phylum("Prog");
    let items = g.phylum("Items");
    let item = g.phylum("Item");

    let p_errors = g.syn(prog, "errors");
    // Visit 1: collect declared names (synthesized).
    let is_decls = g.syn(items, "decls");
    let i_decls = g.syn(item, "decls");
    // Visit 2: the complete environment comes down, errors go up.
    let is_env = g.inh(items, "env");
    let i_env = g.inh(item, "env");
    let is_errors = g.syn(items, "errors");
    let i_errors = g.syn(item, "errors");

    g.func("union", 2, |a| {
        let mut m = a[0].as_map().clone();
        for (k, v) in a[1].as_map() {
            m.insert(k.clone(), v.clone());
        }
        Value::map(m)
    });
    g.func("decl1", 1, |a| {
        Value::empty_map().map_insert(a[0].as_str(), Value::Bool(true))
    });
    g.func("check_use", 2, |a| {
        if a[0].map_get(a[1].as_str()).is_some() {
            Value::list([])
        } else {
            Value::list([Value::str(format!("undeclared `{}`", a[1].as_str()))])
        }
    });
    g.func("cat", 2, |a| {
        Value::list(a[0].as_list().iter().chain(a[1].as_list()).cloned())
    });

    // prog : Prog ::= Items — env of the block = its own declarations.
    let prog_p = g.production("prog", prog, &[items]);
    g.copy(prog_p, Occ::lhs(p_errors), Occ::new(1, is_errors));
    g.copy(prog_p, Occ::new(1, is_env), Occ::new(1, is_decls));

    // cons : Items ::= Item Items
    let cons = g.production("cons", items, &[item, items]);
    g.call(
        cons,
        Occ::lhs(is_decls),
        "union",
        [Occ::new(1, i_decls).into(), Occ::new(2, is_decls).into()],
    );
    g.copy(cons, Occ::new(1, i_env), Occ::lhs(is_env));
    g.copy(cons, Occ::new(2, is_env), Occ::lhs(is_env));
    g.call(
        cons,
        Occ::lhs(is_errors),
        "cat",
        [Occ::new(1, i_errors).into(), Occ::new(2, is_errors).into()],
    );

    // nil : Items ::=
    let nil = g.production("nil", items, &[]);
    g.constant(nil, Occ::lhs(is_decls), Value::empty_map());
    g.constant(nil, Occ::lhs(is_errors), Value::list([]));

    // decl : Item ::=   (token = declared name)
    let decl = g.production("decl", item, &[]);
    g.call(decl, Occ::lhs(i_decls), "decl1", [Arg::Token]);
    g.constant(decl, Occ::lhs(i_errors), Value::list([]));

    // use : Item ::=    (token = used name)
    let use_p = g.production("use", item, &[]);
    g.constant(use_p, Occ::lhs(i_decls), Value::empty_map());
    g.call(
        use_p,
        Occ::lhs(i_errors),
        "check_use",
        [Occ::lhs(i_env).into(), Arg::Token],
    );

    // nested : Item ::= Items — an inner block: its declarations are
    // private (nothing exported), and it sees the outer environment
    // extended with its own declarations.
    let nested = g.production("nested", item, &[items]);
    g.constant(nested, Occ::lhs(i_decls), Value::empty_map());
    g.call(
        nested,
        Occ::new(1, is_env),
        "union",
        [Occ::lhs(i_env).into(), Occ::new(1, is_decls).into()],
    );
    g.copy(nested, Occ::lhs(i_errors), Occ::new(1, is_errors));

    g.finish().expect("blocks grammar is well-defined")
}

/// Builds a `blocks` tree from a tiny spec string: `d:x` declares x,
/// `u:x` uses x, `[ … ]` opens a nested block. Items are whitespace
/// separated.
///
/// # Panics
///
/// Panics on malformed specs.
pub fn blocks_tree(g: &Grammar, spec: &str) -> Tree {
    blocks_tree_generic(g, spec)
}

/// Generic spec-driven tree builder shared by the builder-API `blocks`
/// grammar and the OLGA `blocks2` grammar (identical operator names).
///
/// # Panics
///
/// Panics on malformed specs.
pub fn blocks_tree_generic(g: &Grammar, spec: &str) -> Tree {
    #[derive(Debug)]
    enum ItemSpec {
        Decl(String),
        Use(String),
        Block(Vec<ItemSpec>),
    }
    fn parse(tokens: &mut std::iter::Peekable<std::str::SplitWhitespace>) -> Vec<ItemSpec> {
        let mut out = Vec::new();
        while let Some(&t) = tokens.peek() {
            match t {
                "]" => {
                    tokens.next();
                    break;
                }
                "[" => {
                    tokens.next();
                    out.push(ItemSpec::Block(parse(tokens)));
                }
                t if t.starts_with("d:") => {
                    out.push(ItemSpec::Decl(t[2..].to_string()));
                    tokens.next();
                }
                t if t.starts_with("u:") => {
                    out.push(ItemSpec::Use(t[2..].to_string()));
                    tokens.next();
                }
                other => panic!("bad item spec `{other}`"),
            }
        }
        out
    }
    fn build_items(g: &Grammar, tb: &mut TreeBuilder, items: &[ItemSpec]) -> fnc2_ag::NodeId {
        match items.split_first() {
            None => tb.op("nil", &[]).unwrap(),
            Some((first, rest)) => {
                let item = match first {
                    ItemSpec::Decl(n) => tb
                        .node_with_token(
                            g.production_by_name("decl").unwrap(),
                            &[],
                            Some(Value::str(n)),
                        )
                        .unwrap(),
                    ItemSpec::Use(n) => tb
                        .node_with_token(
                            g.production_by_name("use").unwrap(),
                            &[],
                            Some(Value::str(n)),
                        )
                        .unwrap(),
                    ItemSpec::Block(inner) => {
                        let body = build_items(g, tb, inner);
                        tb.op("nested", &[body]).unwrap()
                    }
                };
                let tail = build_items(g, tb, rest);
                tb.op("cons", &[item, tail]).unwrap()
            }
        }
    }
    let mut tokens = spec.split_whitespace().peekable();
    let items = parse(&mut tokens);
    let mut tb = TreeBuilder::new(g);
    let body = build_items(g, &mut tb, &items);
    let root = tb.op("prog", &[body]).unwrap();
    tb.finish_root(root).expect("root phylum")
}

#[cfg(test)]
mod tests {
    use fnc2_ag::AttrValues;

    use super::*;

    fn evaluate(g: &Grammar, tree: &Tree) -> AttrValues {
        let ev = fnc2_visit::DynamicEvaluator::new(g);
        let (values, _) = ev
            .evaluate(tree, &fnc2_visit::RootInputs::new())
            .expect("evaluation succeeds");
        values
    }

    #[test]
    fn binary_values() {
        let g = binary();
        for (text, want) in [("1101", 13.0), ("110.01", 6.25), ("0", 0.0), ("1.1", 1.5)] {
            let tree = binary_tree(&g, text);
            let vals = evaluate(&g, &tree);
            let number = g.phylum_by_name("Number").unwrap();
            let value = g.attr_by_name(number, "value").unwrap();
            assert_eq!(
                vals.get(&g, tree.root(), value),
                Some(&Value::Real(want)),
                "value of {text}"
            );
        }
    }

    #[test]
    fn desk_evaluates_lets() {
        let g = desk();
        // let x = 2+3 in x * x
        let mut tb = TreeBuilder::new(&g);
        let lit2 = tb
            .node_with_token(
                g.production_by_name("lit").unwrap(),
                &[],
                Some(Value::Int(2)),
            )
            .unwrap();
        let lit3 = tb
            .node_with_token(
                g.production_by_name("lit").unwrap(),
                &[],
                Some(Value::Int(3)),
            )
            .unwrap();
        let sum = tb.op("add", &[lit2, lit3]).unwrap();
        let x1 = tb
            .node_with_token(
                g.production_by_name("var").unwrap(),
                &[],
                Some(Value::str("x")),
            )
            .unwrap();
        let x2 = tb
            .node_with_token(
                g.production_by_name("var").unwrap(),
                &[],
                Some(Value::str("x")),
            )
            .unwrap();
        let body = tb.op("mul", &[x1, x2]).unwrap();
        let letx = tb
            .node_with_token(
                g.production_by_name("letx").unwrap(),
                &[sum, body],
                Some(Value::str("x")),
            )
            .unwrap();
        let root = tb.op("prog", &[letx]).unwrap();
        let tree = tb.finish_root(root).unwrap();
        let vals = evaluate(&g, &tree);
        let prog = g.phylum_by_name("Prog").unwrap();
        let value = g.attr_by_name(prog, "value").unwrap();
        assert_eq!(vals.get(&g, tree.root(), value), Some(&Value::Int(25)));
    }

    #[test]
    fn blocks_scoping() {
        let g = blocks();
        // x declared after use is still fine; y is undeclared; inner block
        // sees outer declarations.
        let tree = blocks_tree(&g, "u:x d:x u:y [ u:x d:z u:z ]");
        let vals = evaluate(&g, &tree);
        let prog = g.phylum_by_name("Prog").unwrap();
        let errors = g.attr_by_name(prog, "errors").unwrap();
        let errs = vals
            .get(&g, tree.root(), errors)
            .unwrap()
            .as_list()
            .iter()
            .collect::<Vec<_>>();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].as_str(), "undeclared `y`");
    }

    #[test]
    fn blocks_needs_two_visits() {
        let g = blocks();
        let c = fnc2_analysis::classify(&g, 1, fnc2_analysis::Inclusion::Long).unwrap();
        assert_eq!(c.class, fnc2_analysis::AgClass::Oag0);
        let lo = c.l_ordered.unwrap();
        let items = g.phylum_by_name("Items").unwrap();
        assert_eq!(lo.partitions_of(items)[0].visit_count(), 2);
    }

    #[test]
    fn classics_classify() {
        for (g, want) in [
            (binary(), fnc2_analysis::AgClass::Oag0),
            (desk(), fnc2_analysis::AgClass::Oag0),
        ] {
            let c = fnc2_analysis::classify(&g, 1, fnc2_analysis::Inclusion::Long).unwrap();
            assert_eq!(c.class, want, "grammar {}", g.name());
        }
    }
}
