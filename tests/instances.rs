//! The instance model of `fnc2-ag`: the instance an occurrence names at a
//! node, the rule application that defines an instance, and the order in
//! which `Tree::attr_instances` yields a tree's attribute instances.

use fnc2::ag::{Grammar, Inst, Tree, TreeBuilder};
use fnc2::fuzz::{build_tree, gen::build_grammar, CaseParams};
use fnc2_corpus as corpus;

fn check(g: &Grammar, tree: &Tree, what: &str) {
    // Each rule of a node's production defines the instance its target
    // names there, and nothing else does.
    for (n, _) in tree.preorder() {
        for rule in g.production(tree.node(n).production()).rules() {
            let inst = tree.instance(n, rule.target());
            let def = Some((n, rule.target()));
            assert_eq!(tree.definition(g, inst), def, "{what}: {inst:?}");
        }
    }
    let root = tree.root();
    for a in g.inherited(tree.phylum(g, root)) {
        assert_eq!(tree.definition(g, Inst::Attr(root, a)), None, "{what}");
    }
    let mut nested = Vec::new();
    for (n, _) in tree.preorder() {
        for &a in g.phylum(tree.phylum(g, n)).attrs() {
            nested.push((n, a));
        }
    }
    assert_eq!(tree.attr_instances(g).collect::<Vec<_>>(), nested, "{what}");
}

#[test]
fn occurrences_name_the_instances_their_rules_define() {
    let g = corpus::binary();
    check(&g, &corpus::binary_tree(&g, "1101.011"), "binary");
    // A `Seq` subtree: its root's `scale` is an input.
    let mut tb = TreeBuilder::new(&g);
    let bits = [tb.op("one", &[]).unwrap(), tb.op("zero", &[]).unwrap()];
    let single = tb.op("single", &bits[..1]).unwrap();
    let pair = tb.op("pair", &[single, bits[1]]).unwrap();
    let seq = tb.finish(pair);
    assert!(!g.inherited(seq.phylum(&g, seq.root())).is_empty());
    check(&g, &seq, "binary Seq");

    let g = corpus::desk();
    check(&g, &fnc2::smoke_tree(&g).unwrap(), "desk");
    let g = corpus::blocks();
    let tree = corpus::blocks_tree(&g, "d:v1 u:v2 [ d:v2 u:v1 ]");
    check(&g, &tree, "blocks");
    let g = corpus::minipascal().0;
    let tree = corpus::parse_minipascal(&g, &corpus::sample_program(3)).unwrap();
    check(&g, &tree, "mini-Pascal");
    let g = corpus::snc_only();
    for ctx in ["ctx_a", "ctx_b"] {
        let mut tb = TreeBuilder::new(&g);
        let leaf = tb.op("leafx", &[]).unwrap();
        let root = tb.op(ctx, &[leaf]).unwrap();
        check(&g, &tb.finish_root(root).unwrap(), ctx);
    }
    for case in 0..8 {
        let params = CaseParams::for_case(0x1257, case);
        let gg = build_grammar(&params);
        let tree = build_tree(&gg, &params);
        check(&gg.grammar, &tree, &format!("case {case}"));
    }
}
