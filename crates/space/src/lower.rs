//! Lowering a [`SpacePlan`] into the visit-sequence interpreter's op
//! stream.
//!
//! `fnc2_visit::Evaluator` runs every visit-sequence; node storage is its
//! trivial plan. [`plan_lowering`] lowers each step with the plan's access
//! tables instead, over the same slot-compiled rules: an `EVAL`'s reads
//! become global-variable reads or stack reads at the statically computed
//! depths, its write a variable write or a stack push, an eliminated copy
//! rule a `Skip`, and every step carries its scheduled delayed pops. The
//! run then keeps attributes in global variables and stacks, and at tree
//! nodes only as a last resort, and tracks the high-water mark of live
//! storage cells — the dynamic measure behind the paper's "decrease of the
//! number of attribute storage cells by a factor of 4 to 8" (§4.1).

use std::borrow::Cow;
use std::sync::Arc;

use fnc2_ag::{Grammar, ProductionId};
use fnc2_visit::{
    CBody, CompiledProgram, Evaluator, FetchOp, Instr, Lowered, Op, SlotRef, VisitSeqs,
};

use crate::alloc::{ReadPath, SpacePlan, StepAccess, WritePath};
use crate::flat::{FlatItem, FlatProgram};

/// The op streams that run `seqs` with the storage `plan` decided for them
/// (`fp` is the flattening the plan's access tables index), over
/// `program`, `grammar`'s slot-compiled rules, which the lowering shares.
pub fn plan_lowering(
    grammar: &Grammar,
    program: Arc<CompiledProgram>,
    seqs: &VisitSeqs,
    fp: &FlatProgram,
    plan: &SpacePlan,
) -> Lowered {
    let streams: Vec<_> = (seqs.iter().zip(&fp.seqs).zip(&plan.access))
        .map(|((seq, fs), access)| {
            let key = fs.key;
            let mut visits = vec![Vec::new(); seq.segments.len()];
            for (item, step) in fs.items.iter().zip(&access.steps) {
                if let FlatItem::Op { visit, instr } = item {
                    visits[visit - 1].push(lower_step(grammar, &program, key.0, instr, step));
                }
            }
            (key, visits)
        })
        .collect();
    Lowered::planned(program, streams, plan.n_variables, plan.n_stacks)
}

/// An evaluator that runs `seqs` with the storage `plan` decided for them
/// ([`plan_lowering`] over a fresh slot-compile of `grammar`). It runs the
/// same interpreter and rule executor as the trivial plan's
/// [`Evaluator::new`]; its stats report the `space.*` counters.
pub fn plan_evaluator<'g>(
    grammar: &'g Grammar,
    seqs: &'g VisitSeqs,
    fp: &FlatProgram,
    plan: &SpacePlan,
) -> Evaluator<'g> {
    let program = Arc::new(CompiledProgram::new(grammar));
    let code = plan_lowering(grammar, program, seqs, fp, plan);
    Evaluator::with_lowered(grammar, seqs, Cow::Owned(code))
}

/// Lowers one instruction of production `p` with the plan's decisions for
/// its position, rewriting the trivial lowering's reads and write.
fn lower_step(
    grammar: &Grammar,
    program: &CompiledProgram,
    p: ProductionId,
    instr: &Instr,
    step: &StepAccess,
) -> Op {
    let pops: Box<[u32]> = step.pops_after.iter().map(|&s| s as u32).collect();
    match program.lower(grammar, p, instr) {
        Op::Visit {
            child,
            visit,
            partition,
            ..
        } => Op::Visit {
            child,
            visit,
            partition,
            pops,
        },
        Op::Eval { rule, mut code, .. } => {
            let slot = match step.write.as_ref().expect("eval step has a write") {
                WritePath::SkipVariable | WritePath::SkipStackTop => return Op::Skip { pops },
                WritePath::Variable(id) => SlotRef::Variable(*id as u32),
                WritePath::Stack(id) => SlotRef::Stack(*id as u32),
                WritePath::Node => code.slot,
            };
            let rewritten = Arc::make_mut(&mut code);
            rewritten.slot = slot;
            let reads = match &mut rewritten.body {
                CBody::Copy(read) => std::slice::from_mut(read),
                CBody::Call { args, .. } => args.as_mut_slice(),
            };
            debug_assert_eq!(reads.len(), step.args.len());
            for (read, path) in reads.iter_mut().zip(&step.args) {
                match *path {
                    ReadPath::Variable(id) => *read = FetchOp::Variable(id as u32),
                    ReadPath::Stack(id, depth) => {
                        *read = FetchOp::Stack {
                            id: id as u32,
                            depth: depth as u32,
                        }
                    }
                    // Constants, tokens and node-resident occurrences keep
                    // the rule's own fetch.
                    ReadPath::Immediate | ReadPath::Node => {}
                }
            }
            Op::Eval { rule, code, pops }
        }
        Op::Skip { .. } => unreachable!("the trivial lowering eliminates nothing"),
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, Tree, TreeBuilder, Value};
    use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2_visit::{build_visit_seqs, EvalStats, RootInputs};

    use crate::flat::FlatProgram;
    use crate::lifetime::Lifetimes;
    use crate::object::ObjectIndex;

    use super::*;

    /// Builds everything for a grammar and runs both evaluators on a tree,
    /// asserting identical tree-visible results for the given attributes.
    fn assert_equivalent(g: &Grammar, tree: &Tree, inputs: &RootInputs) -> (EvalStats, usize) {
        let snc = snc_test(g);
        assert!(snc.is_snc());
        let lo = snc_to_l_ordered(g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(g, &lo);
        let fp = FlatProgram::new(g, &seqs);
        let objects = ObjectIndex::new(g);
        let lt = Lifetimes::analyze(g, &seqs, &fp, &objects);
        let plan = crate::alloc::plan_storage(g, &seqs, &fp, &objects, &lt);

        let plain = Evaluator::new(g, &seqs);
        let (want, _) = plain.evaluate(tree, inputs).unwrap();
        let (got, stats) = plan_evaluator(g, &seqs, &fp, &plan)
            .evaluate(tree, inputs)
            .unwrap();

        // Root synthesized attributes must agree (they are node-stored).
        let root_ph = g.production(tree.node(tree.root()).production()).lhs();
        for attr in g.synthesized(root_ph) {
            assert_eq!(
                got.get(g, tree.root(), attr),
                want.get(g, tree.root(), attr),
                "root attribute {}",
                g.attr(attr).name()
            );
        }
        // Total instance count for the ÷4–8 comparison.
        let total_instances = want.live_count();
        (stats, total_instances)
    }

    fn two_pass() -> Grammar {
        let mut g = GrammarBuilder::new("two_pass");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let down = g.inh(a, "down");
        let up = g.syn(a, "up");
        g.func("succ", 1, |v| Value::Int(v[0].as_int() + 1));
        let root = g.production("root", s, &[a]);
        g.copy(root, fnc2_ag::Occ::lhs(out), fnc2_ag::Occ::new(1, up));
        g.constant(root, fnc2_ag::Occ::new(1, down), Value::Int(0));
        let mid = g.production("mid", a, &[a]);
        g.call(
            mid,
            fnc2_ag::Occ::new(1, down),
            "succ",
            [fnc2_ag::Occ::lhs(down).into()],
        );
        g.call(
            mid,
            fnc2_ag::Occ::lhs(up),
            "succ",
            [fnc2_ag::Occ::new(1, up).into()],
        );
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, fnc2_ag::Occ::lhs(up), fnc2_ag::Occ::lhs(down));
        g.finish().unwrap()
    }

    #[test]
    fn equivalence_and_cell_reduction_on_chain() {
        let g = two_pass();
        let mut tb = TreeBuilder::new(&g);
        let mut cur = tb.op("leaf", &[]).unwrap();
        for _ in 0..40 {
            cur = tb.op("mid", &[cur]).unwrap();
        }
        let root = tb.op("root", &[cur]).unwrap();
        let tree = tb.finish_root(root).unwrap();

        let (stats, total_instances) = assert_equivalent(&g, &tree, &RootInputs::new());
        // The chain has ~84 instances but the stacks hold at most a couple
        // of cells at a time: the dynamic high-water mark must be far
        // smaller than tree storage.
        assert!(
            stats.max_live_cells * 4 <= total_instances,
            "max_live {} vs instances {total_instances}",
            stats.max_live_cells
        );
        assert!(stats.copies_skipped > 0 || stats.evals > 0);
    }

    #[test]
    fn stacks_drain_completely() {
        let g = two_pass();
        let mut tb = TreeBuilder::new(&g);
        let mut cur = tb.op("leaf", &[]).unwrap();
        for _ in 0..5 {
            cur = tb.op("mid", &[cur]).unwrap();
        }
        let root = tb.op("root", &[cur]).unwrap();
        let tree = tb.finish_root(root).unwrap();

        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let fp = FlatProgram::new(&g, &seqs);
        let objects = ObjectIndex::new(&g);
        let lt = Lifetimes::analyze(&g, &seqs, &fp, &objects);
        let plan = crate::alloc::plan_storage(&g, &seqs, &fp, &objects, &lt);
        let (_, stats) = plan_evaluator(&g, &seqs, &fp, &plan)
            .evaluate(&tree, &RootInputs::new())
            .unwrap();
        // Nothing but node-resident cells remains live at the end: the
        // final count equals root in+out plus any node-class attributes.
        assert!(stats.final_node_cells <= tree.size());
    }
}
