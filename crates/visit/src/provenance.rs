//! Dynamic dependency slices reconstructed from evaluation events.
//!
//! The AG-debugging literature (Sasaki & Sassa; Ikezoe et al.) argues
//! that the right substrate for explaining an attribute's value is the
//! *dynamic* dependency slice: which instances fed it, through which
//! semantic rules, in which visit. This module rebuilds that slice from
//! the `RuleFired`/`VisitEnter`/`VisitLeave` event stream any recorded
//! evaluation produces (exhaustive, dynamic, or incremental — for
//! incremental runs, later re-firings of the same instance supersede
//! earlier ones, so the slice reflects the final wave).
//!
//! The rule that fired tells us the static read set
//! ([`read_nodes`](fnc2_ag::SemRule::read_nodes)); the tree names the
//! instance each read occurrence means at the firing node
//! ([`Tree::instance`]), and chasing definitions backwards from the
//! target instance yields the slice. `fnc2c explain` and the fuzz
//! oracle's divergence reports both render these.

use std::collections::{HashMap, VecDeque};

use fnc2_ag::{AttrId, Grammar, Inst, NodeId, ProductionId, Tree};
use fnc2_obs::{Event, Json};

/// One step of a dependency slice: the rule firing that (last) defined
/// `inst`, plus the instances that firing read.
#[derive(Clone, Debug)]
pub struct SliceStep {
    /// The defined instance.
    pub inst: Inst,
    /// Event sequence number of the defining firing.
    pub seq: u64,
    /// The node the rule ran at (for inherited attributes: the parent).
    pub node: NodeId,
    /// The production the rule belongs to.
    pub production: ProductionId,
    /// Rule index within the production.
    pub rule: u32,
    /// 1-based visit number the firing happened in, when the stream had
    /// visit structure (exhaustive runs; `None` for demand-driven and
    /// incremental firings).
    pub visit: Option<u16>,
    /// The instances the firing read, in rule-argument order.
    pub inputs: Vec<Inst>,
}

/// A dynamic dependency slice: the firings that fed one target instance.
#[derive(Clone, Debug)]
pub struct Slice {
    /// The instance being explained.
    pub target: Inst,
    /// Slice steps, target first, then breadth-first through the inputs.
    pub steps: Vec<SliceStep>,
    /// Instances the slice depends on that no recorded firing defined —
    /// root inputs, or instances evaluated before the trace window.
    pub undefined: Vec<Inst>,
}

impl Slice {
    /// Every distinct instance in the slice (defined + undefined).
    pub fn instances(&self) -> Vec<Inst> {
        let mut v: Vec<Inst> = self.steps.iter().map(|s| s.inst).collect();
        v.extend(self.undefined.iter().copied());
        v
    }

    /// Renders the slice for a human, one step per line.
    pub fn render(&self, grammar: &Grammar, tree: &Tree) -> String {
        let mut out = format!("slice for {}:\n", self.target.display(grammar, tree));
        if self.steps.is_empty() {
            out.push_str("  (no recorded firing defines the target)\n");
        }
        for s in &self.steps {
            let visit = s
                .visit
                .map(|v| format!(" in visit {v}"))
                .unwrap_or_default();
            let reads = if s.inputs.is_empty() {
                String::new()
            } else {
                format!(
                    " <- {}",
                    s.inputs
                        .iter()
                        .map(|i| i.display(grammar, tree))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            out.push_str(&format!(
                "  {} := {} at node {}{}{}  [seq {}]\n",
                s.inst.display(grammar, tree),
                grammar.occ_name(
                    s.production,
                    grammar.production(s.production).rules()[s.rule as usize].target()
                ),
                s.node.index(),
                visit,
                reads,
                s.seq
            ));
        }
        for u in &self.undefined {
            out.push_str(&format!(
                "  {} — input (no recorded definition)\n",
                u.display(grammar, tree)
            ));
        }
        out
    }

    /// The slice as a JSON document.
    pub fn to_json(&self, grammar: &Grammar, tree: &Tree) -> Json {
        let inst_json = |i: &Inst| Json::str(i.display(grammar, tree));
        Json::obj([
            ("target", inst_json(&self.target)),
            (
                "steps",
                Json::Arr(
                    self.steps
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("inst", inst_json(&s.inst)),
                                ("seq", Json::Int(s.seq as i64)),
                                ("node", Json::Int(s.node.index() as i64)),
                                (
                                    "production",
                                    Json::str(grammar.production(s.production).name()),
                                ),
                                ("rule", Json::Int(s.rule as i64)),
                                (
                                    "visit",
                                    s.visit.map(|v| Json::Int(v as i64)).unwrap_or(Json::Null),
                                ),
                                (
                                    "inputs",
                                    Json::Arr(s.inputs.iter().map(inst_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "undefined",
                Json::Arr(self.undefined.iter().map(inst_json).collect()),
            ),
        ])
    }
}

/// Reconstructs the dynamic dependency slice of `attr@node` from an
/// evaluation event stream (as produced by any recorded run; pass
/// [`TraceBuffer::iter`](fnc2_obs::TraceBuffer::iter)).
///
/// When the same instance was defined several times (incremental waves),
/// the **last** firing wins — the slice explains the final value. A
/// firing whose node is not in `tree`, whose production is not the one
/// applied at that node, or whose rule the production lacks (a foreign
/// stream, say) is skipped rather than trusted.
pub fn dependency_slice<'a>(
    grammar: &Grammar,
    tree: &Tree,
    events: impl IntoIterator<Item = (u64, &'a Event)>,
    node: NodeId,
    attr: AttrId,
) -> Slice {
    struct Def {
        seq: u64,
        node: NodeId,
        production: ProductionId,
        rule: u32,
        visit: Option<u16>,
    }
    let mut defs: HashMap<Inst, Def> = HashMap::new();
    // (node, visit) stack rebuilt from the visit events.
    let mut visit_stack: Vec<u16> = Vec::new();
    for (seq, event) in events {
        match *event {
            Event::VisitEnter { visit, .. } => visit_stack.push(visit),
            Event::VisitLeave { .. } => {
                visit_stack.pop();
            }
            Event::RuleFired {
                node,
                production,
                rule,
            } => {
                let (at, p) = (NodeId::from_raw(node), ProductionId::from_raw(production));
                if node as usize >= tree.arena_len() || tree.node(at).production() != p {
                    continue;
                }
                let Some(r) = grammar.production(p).rules().get(rule as usize) else {
                    continue;
                };
                let inst = tree.instance(at, r.target());
                defs.insert(
                    inst,
                    Def {
                        seq,
                        node: at,
                        production: p,
                        rule,
                        visit: visit_stack.last().copied(),
                    },
                );
            }
            Event::AttrRead { .. } | Event::AttrStored { .. } | Event::StatusComputed { .. } => {}
        }
    }

    let target = Inst::Attr(node, attr);
    let mut steps = Vec::new();
    let mut undefined = Vec::new();
    let mut seen: HashMap<Inst, ()> = HashMap::new();
    let mut queue: VecDeque<Inst> = VecDeque::new();
    queue.push_back(target);
    seen.insert(target, ());
    while let Some(inst) = queue.pop_front() {
        let Some(def) = defs.get(&inst) else {
            // Expected for root inherited inputs (supplied, not
            // computed); otherwise the firing fell out of the trace
            // window.
            undefined.push(inst);
            continue;
        };
        let rule = &grammar.production(def.production).rules()[def.rule as usize];
        let inputs: Vec<Inst> = rule
            .read_nodes()
            .map(|r| tree.instance(def.node, r))
            .collect();
        for i in &inputs {
            if seen.insert(*i, ()).is_none() {
                queue.push_back(*i);
            }
        }
        steps.push(SliceStep {
            inst,
            seq: def.seq,
            node: def.node,
            production: def.production,
            rule: def.rule,
            visit: def.visit,
            inputs,
        });
    }
    Slice {
        target,
        steps,
        undefined,
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, Occ, TreeBuilder, Value};
    use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2_obs::Obs;

    use crate::exhaustive::{Evaluator, RootInputs};
    use crate::seq::build_visit_seqs;

    use super::*;

    #[test]
    fn slice_of_a_chain_walks_back_to_the_leaf() {
        let mut g = GrammarBuilder::new("count");
        let s = g.phylum("S");
        let n = g.syn(s, "n");
        let leaf = g.production("leaf", s, &[]);
        g.constant(leaf, Occ::lhs(n), Value::Int(0));
        let node = g.production("node", s, &[s]);
        g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
        g.call(node, Occ::lhs(n), "succ", [Occ::new(1, n).into()]);
        let g = g.finish().unwrap();

        let mut tb = TreeBuilder::new(&g);
        let mut cur = tb.op("leaf", &[]).unwrap();
        for _ in 0..3 {
            cur = tb.op("node", &[cur]).unwrap();
        }
        let tree = tb.finish_root(cur).unwrap();

        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let ev = Evaluator::new(&g, &seqs);
        let mut obs = Obs::with_trace(1 << 12);
        ev.evaluate_with(&tree, &RootInputs::new(), &Default::default(), &mut obs)
            .unwrap();

        let buf = obs.events.as_ref().unwrap();
        let slice = dependency_slice(&g, &tree, buf.iter(), tree.root(), n);
        // n@root <- n@child <- n@grandchild <- n@leaf: 4 steps, no
        // undefined leaves.
        assert_eq!(slice.steps.len(), 4);
        assert!(slice.undefined.is_empty(), "{:?}", slice.undefined);
        assert_eq!(slice.steps[0].inst, Inst::Attr(tree.root(), n));
        // Every exhaustive firing carries its visit number.
        assert!(slice.steps.iter().all(|s| s.visit.is_some()));
        let txt = slice.render(&g, &tree);
        assert!(txt.contains("slice for n@"), "{txt}");
    }

    /// A firing reported at a node that applies another production names
    /// no instance of the tree, so the slicer skips it: resolving `root`'s
    /// child occurrence among the leaf's children would index past them.
    #[test]
    fn firing_of_another_production_is_skipped() {
        let mut g = GrammarBuilder::new("mismatch");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let i = g.inh(a, "i");
        let v = g.syn(a, "v");
        let root = g.production("root", s, &[a]);
        g.constant(root, Occ::new(1, i), Value::Int(1));
        g.copy(root, Occ::lhs(out), Occ::new(1, v));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(v), Occ::lhs(i));
        let g = g.finish().unwrap();
        let mut tb = TreeBuilder::new(&g);
        let l = tb.op("leaf", &[]).unwrap();
        let r = tb.op("root", &[l]).unwrap();
        let tree = tb.finish_root(r).unwrap();

        let (rules, target) = (g.production(root).rules(), Occ::new(1, i).into());
        let rule = rules.iter().position(|rl| rl.target() == target);
        let event = Event::RuleFired {
            node: l.index() as u32,
            production: root.index() as u32,
            rule: rule.unwrap() as u32,
        };
        let slice = dependency_slice(&g, &tree, [(0, &event)], l, i);
        assert!(slice.steps.is_empty());
        assert_eq!(slice.undefined, vec![Inst::Attr(l, i)]);
    }
}
