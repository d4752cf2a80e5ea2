//! Codecs for every structure the compiled-table artifact carries.
//!
//! Encoding is canonical: hash maps and sets are written in sorted key
//! order, so the same analysis results always produce the same bytes —
//! which is what lets the loader verify a deserialized artifact against a
//! freshly computed structure by plain byte comparison, and what makes
//! the re-encode-idempotence check in the fuzz oracle meaningful.

use std::collections::{HashMap, HashSet};

use fnc2_ag::{
    Arg, AttrId, AttrKind, FuncId, Grammar, LocalId, ONode, Occ, PhylumId, ProductionId, RuleBody,
    Value,
};
use fnc2_analysis::{
    AgClass, CircWitness, Classification, DncResult, LOrdered, OagResult, PhylumRels, Plan,
    SncResult, TotalOrder, TransformStats, VisitSlot,
};
use fnc2_gfa::{BitMatrix, FixpointStats};
use fnc2_lint::{Code as LintCode, Diagnostic, Severity as LintSeverity, Span};
use fnc2_space::{
    FlatItem, FlatProgram, FlatSeq, Instance, InstanceKind, Lifetimes, Object, ObjectSet, ReadPath,
    SeqAccess, SpacePlan, SpaceStats, StepAccess, Storage, WritePath,
};
use fnc2_visit::{CBody, CompiledProgram, FetchOp, Instr, SlotRef, VisitSeq, VisitSeqs};

use crate::wire::{Dec, Enc, WireError, WireResult};

fn invalid(what: &'static str, d: &Dec<'_>) -> WireError {
    WireError::Invalid { what, at: d.pos() }
}

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

fn enc_phylum(e: &mut Enc, v: PhylumId) {
    e.u32(v.index() as u32);
}
fn dec_phylum(d: &mut Dec<'_>) -> WireResult<PhylumId> {
    Ok(PhylumId::from_raw(d.u32()?))
}
fn enc_production(e: &mut Enc, v: ProductionId) {
    e.u32(v.index() as u32);
}
fn dec_production(d: &mut Dec<'_>) -> WireResult<ProductionId> {
    Ok(ProductionId::from_raw(d.u32()?))
}
fn enc_attr(e: &mut Enc, v: AttrId) {
    e.u32(v.index() as u32);
}
fn dec_attr(d: &mut Dec<'_>) -> WireResult<AttrId> {
    Ok(AttrId::from_raw(d.u32()?))
}
fn enc_local(e: &mut Enc, v: LocalId) {
    e.u32(v.index() as u32);
}
fn dec_local(d: &mut Dec<'_>) -> WireResult<LocalId> {
    Ok(LocalId::from_raw(d.u32()?))
}
fn enc_func(e: &mut Enc, v: FuncId) {
    e.u32(v.index() as u32);
}
#[cfg_attr(not(test), allow(dead_code))] // decode side exercised by the codec tests
fn dec_func(d: &mut Dec<'_>) -> WireResult<FuncId> {
    Ok(FuncId::from_raw(d.u32()?))
}

fn enc_onode(e: &mut Enc, v: ONode) {
    match v {
        ONode::Attr(Occ { pos, attr }) => {
            e.u8(0);
            e.u16(pos);
            enc_attr(e, attr);
        }
        ONode::Local(l) => {
            e.u8(1);
            enc_local(e, l);
        }
    }
}
fn dec_onode(d: &mut Dec<'_>) -> WireResult<ONode> {
    match d.u8()? {
        0 => {
            let pos = d.u16()?;
            let attr = dec_attr(d)?;
            Ok(ONode::Attr(Occ { pos, attr }))
        }
        1 => Ok(ONode::Local(dec_local(d)?)),
        _ => Err(invalid("ONode tag", d)),
    }
}

// ---------------------------------------------------------------------------
// Generic shapes
// ---------------------------------------------------------------------------

fn enc_option<T>(e: &mut Enc, v: Option<&T>, f: impl FnOnce(&mut Enc, &T)) {
    match v {
        Some(x) => {
            e.bool(true);
            f(e, x);
        }
        None => e.bool(false),
    }
}
fn dec_option<T>(
    d: &mut Dec<'_>,
    f: impl FnOnce(&mut Dec<'_>) -> WireResult<T>,
) -> WireResult<Option<T>> {
    if d.bool()? {
        Ok(Some(f(d)?))
    } else {
        Ok(None)
    }
}

fn enc_vec<T>(e: &mut Enc, v: &[T], mut f: impl FnMut(&mut Enc, &T)) {
    e.usize(v.len());
    for x in v {
        f(e, x);
    }
}
fn dec_vec<T>(
    d: &mut Dec<'_>,
    mut f: impl FnMut(&mut Dec<'_>) -> WireResult<T>,
) -> WireResult<Vec<T>> {
    let n = d.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f(d)?);
    }
    Ok(out)
}

fn enc_usizes(e: &mut Enc, v: &[usize]) {
    enc_vec(e, v, |e, &x| e.usize(x));
}
fn dec_usizes(d: &mut Dec<'_>) -> WireResult<Vec<usize>> {
    dec_vec(d, |d| d.usize())
}

/// Encodes a map in sorted key order, so identical contents yield
/// identical bytes regardless of hash iteration order.
fn enc_map<K: Ord + Copy + std::hash::Hash, V>(
    e: &mut Enc,
    map: &HashMap<K, V>,
    mut key: impl FnMut(&mut Enc, K),
    mut val: impl FnMut(&mut Enc, &V),
) {
    let mut keys: Vec<K> = map.keys().copied().collect();
    keys.sort();
    e.usize(keys.len());
    for k in keys {
        key(e, k);
        val(e, &map[&k]);
    }
}
fn dec_map<K: std::hash::Hash + Eq, V>(
    d: &mut Dec<'_>,
    mut key: impl FnMut(&mut Dec<'_>) -> WireResult<K>,
    mut val: impl FnMut(&mut Dec<'_>) -> WireResult<V>,
) -> WireResult<HashMap<K, V>> {
    let n = d.seq_len()?;
    let mut out = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = key(d)?;
        let v = val(d)?;
        out.insert(k, v);
    }
    Ok(out)
}

fn enc_seq_key(e: &mut Enc, k: (ProductionId, usize)) {
    enc_production(e, k.0);
    e.usize(k.1);
}
fn dec_seq_key(d: &mut Dec<'_>) -> WireResult<(ProductionId, usize)> {
    Ok((dec_production(d)?, d.usize()?))
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

pub(crate) fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Unit => e.u8(0),
        Value::Bool(b) => {
            e.u8(1);
            e.bool(*b);
        }
        Value::Int(i) => {
            e.u8(2);
            e.i64(*i);
        }
        Value::Real(r) => {
            e.u8(3);
            e.f64(*r);
        }
        Value::Str(s) => {
            e.u8(4);
            e.str(s);
        }
        Value::List(items) => {
            e.u8(5);
            e.usize(items.len());
            for x in items.iter() {
                enc_value(e, x);
            }
        }
        Value::Tuple(items) => {
            e.u8(6);
            enc_vec(e, items, enc_value);
        }
        Value::Map(m) => {
            e.u8(7);
            e.usize(m.len());
            for (k, v) in m.iter() {
                e.str(k);
                enc_value(e, v);
            }
        }
        Value::Term(t) => {
            e.u8(8);
            e.str(&t.op);
            enc_vec(e, &t.children, enc_value);
        }
    }
}

#[cfg_attr(not(test), allow(dead_code))] // decode side exercised by the codec tests
pub(crate) fn dec_value(d: &mut Dec<'_>) -> WireResult<Value> {
    match d.u8()? {
        0 => Ok(Value::Unit),
        1 => Ok(Value::Bool(d.bool()?)),
        2 => Ok(Value::Int(d.i64()?)),
        3 => Ok(Value::Real(d.f64()?)),
        4 => Ok(Value::str(d.str()?)),
        5 => Ok(Value::list(dec_vec(d, dec_value)?)),
        6 => Ok(Value::tuple(dec_vec(d, dec_value)?)),
        7 => {
            let n = d.seq_len()?;
            let mut m = std::collections::BTreeMap::new();
            for _ in 0..n {
                let k = d.str()?;
                let v = dec_value(d)?;
                m.insert(k, v);
            }
            Ok(Value::map(m))
        }
        8 => {
            let op = d.str()?;
            let children = dec_vec(d, dec_value)?;
            Ok(Value::term(op, children))
        }
        _ => Err(invalid("Value tag", d)),
    }
}

// ---------------------------------------------------------------------------
// Analysis results
// ---------------------------------------------------------------------------

fn enc_bitmatrix(e: &mut Enc, m: &BitMatrix) {
    e.usize(m.len());
    enc_vec(e, m.raw_words(), |e, &w| e.u64(w));
}
fn dec_bitmatrix(d: &mut Dec<'_>) -> WireResult<BitMatrix> {
    let n = d.usize()?;
    let at_words = d.pos();
    let words = dec_vec(d, |d| d.u64())?;
    BitMatrix::from_raw_words(n, words).ok_or(WireError::Invalid {
        what: "BitMatrix word count",
        at: at_words,
    })
}

fn enc_rels(e: &mut Enc, r: &PhylumRels) {
    enc_vec(e, r.rels(), enc_bitmatrix);
}
fn dec_rels(d: &mut Dec<'_>) -> WireResult<PhylumRels> {
    Ok(PhylumRels::from_rels(dec_vec(d, dec_bitmatrix)?))
}

fn enc_fixpoint(e: &mut Enc, s: &FixpointStats) {
    e.usize(s.steps);
    e.usize(s.changes);
}
fn dec_fixpoint(d: &mut Dec<'_>) -> WireResult<FixpointStats> {
    Ok(FixpointStats {
        steps: d.usize()?,
        changes: d.usize()?,
    })
}

fn enc_witness(e: &mut Enc, w: &CircWitness) {
    enc_production(e, w.production);
    enc_vec(e, &w.cycle, |e, &n| enc_onode(e, n));
}
fn dec_witness(d: &mut Dec<'_>) -> WireResult<CircWitness> {
    Ok(CircWitness {
        production: dec_production(d)?,
        cycle: dec_vec(d, dec_onode)?,
    })
}

fn enc_total_order(e: &mut Enc, t: &TotalOrder) {
    enc_phylum(e, t.phylum);
    enc_vec(e, &t.visits, |e, v| {
        enc_vec(e, &v.inh, |e, &a| enc_attr(e, a));
        enc_vec(e, &v.syn, |e, &a| enc_attr(e, a));
    });
}
fn dec_total_order(d: &mut Dec<'_>) -> WireResult<TotalOrder> {
    let phylum = dec_phylum(d)?;
    let visits = dec_vec(d, |d| {
        Ok(VisitSlot {
            inh: dec_vec(d, dec_attr)?,
            syn: dec_vec(d, dec_attr)?,
        })
    })?;
    // Construct literally: the stored partitions are already canonical,
    // and `TotalOrder::new`'s re-canonicalization must not run again (it
    // would merge differently on round-trip if upstream ever changes).
    Ok(TotalOrder { phylum, visits })
}

fn enc_partitions(e: &mut Enc, p: &[Vec<TotalOrder>]) {
    enc_vec(e, p, |e, per| enc_vec(e, per, enc_total_order));
}
fn dec_partitions(d: &mut Dec<'_>) -> WireResult<Vec<Vec<TotalOrder>>> {
    dec_vec(d, |d| dec_vec(d, dec_total_order))
}

fn enc_transform_stats(e: &mut Enc, s: &TransformStats) {
    enc_usizes(e, &s.partitions_per_phylum);
    e.usize(s.plans);
    e.usize(s.reuses);
    e.usize(s.fresh);
}
fn dec_transform_stats(d: &mut Dec<'_>) -> WireResult<TransformStats> {
    Ok(TransformStats {
        partitions_per_phylum: dec_usizes(d)?,
        plans: d.usize()?,
        reuses: d.usize()?,
        fresh: d.usize()?,
    })
}

fn enc_l_ordered(e: &mut Enc, lo: &LOrdered) {
    enc_partitions(e, &lo.partitions);
    enc_map(e, &lo.plans, enc_seq_key, |e, plan| {
        enc_usizes(e, &plan.rhs_partitions);
        enc_vec(e, &plan.linear, |e, &n| enc_onode(e, n));
    });
    enc_transform_stats(e, &lo.stats);
}
fn dec_l_ordered(d: &mut Dec<'_>) -> WireResult<LOrdered> {
    Ok(LOrdered {
        partitions: dec_partitions(d)?,
        plans: dec_map(d, dec_seq_key, |d| {
            Ok(Plan {
                rhs_partitions: dec_usizes(d)?,
                linear: dec_vec(d, dec_onode)?,
            })
        })?,
        stats: dec_transform_stats(d)?,
    })
}

fn enc_class(e: &mut Enc, c: AgClass) {
    match c {
        AgClass::Oag0 => e.u8(0),
        AgClass::OagK(k) => {
            e.u8(1);
            e.usize(k);
        }
        AgClass::Dnc => e.u8(2),
        AgClass::Snc => e.u8(3),
        AgClass::NotSnc => e.u8(4),
    }
}
fn dec_class(d: &mut Dec<'_>) -> WireResult<AgClass> {
    match d.u8()? {
        0 => Ok(AgClass::Oag0),
        1 => Ok(AgClass::OagK(d.usize()?)),
        2 => Ok(AgClass::Dnc),
        3 => Ok(AgClass::Snc),
        4 => Ok(AgClass::NotSnc),
        _ => Err(invalid("AgClass tag", d)),
    }
}

pub(crate) fn enc_classification(e: &mut Enc, c: &Classification) {
    enc_class(e, c.class);
    enc_rels(e, &c.snc.io);
    enc_option(e, c.snc.witness.as_ref(), enc_witness);
    enc_fixpoint(e, &c.snc.stats);
    enc_option(e, c.dnc.as_ref(), |e, dnc| {
        enc_rels(e, &dnc.oi);
        enc_option(e, dnc.witness.as_ref(), enc_witness);
        enc_fixpoint(e, &dnc.stats);
    });
    enc_option(e, c.oag.as_ref(), |e, oag| {
        enc_rels(e, &oag.ds);
        enc_option(e, oag.partitions.as_ref(), |e, p| {
            enc_vec(e, p, enc_total_order);
        });
        enc_option(e, oag.witness.as_ref(), enc_witness);
        e.usize(oag.repairs_used);
        enc_fixpoint(e, &oag.stats);
    });
    enc_option(e, c.l_ordered.as_ref(), enc_l_ordered);
}

pub(crate) fn dec_classification(d: &mut Dec<'_>) -> WireResult<Classification> {
    let class = dec_class(d)?;
    let snc = SncResult {
        io: dec_rels(d)?,
        witness: dec_option(d, dec_witness)?,
        stats: dec_fixpoint(d)?,
    };
    let dnc = dec_option(d, |d| {
        Ok(DncResult {
            oi: dec_rels(d)?,
            witness: dec_option(d, dec_witness)?,
            stats: dec_fixpoint(d)?,
        })
    })?;
    let oag = dec_option(d, |d| {
        Ok(OagResult {
            ds: dec_rels(d)?,
            partitions: dec_option(d, |d| dec_vec(d, dec_total_order))?,
            witness: dec_option(d, dec_witness)?,
            repairs_used: d.usize()?,
            stats: dec_fixpoint(d)?,
        })
    })?;
    let l_ordered = dec_option(d, dec_l_ordered)?;
    Ok(Classification {
        class,
        snc,
        dnc,
        oag,
        l_ordered,
    })
}

// ---------------------------------------------------------------------------
// Visit sequences
// ---------------------------------------------------------------------------

fn enc_instr(e: &mut Enc, i: &Instr) {
    match i {
        Instr::Eval(n) => {
            e.u8(0);
            enc_onode(e, *n);
        }
        Instr::Visit {
            child,
            visit,
            partition,
        } => {
            e.u8(1);
            e.u16(*child);
            e.usize(*visit);
            e.usize(*partition);
        }
    }
}
fn dec_instr(d: &mut Dec<'_>) -> WireResult<Instr> {
    match d.u8()? {
        0 => Ok(Instr::Eval(dec_onode(d)?)),
        1 => Ok(Instr::Visit {
            child: d.u16()?,
            visit: d.usize()?,
            partition: d.usize()?,
        }),
        _ => Err(invalid("Instr tag", d)),
    }
}

pub(crate) fn enc_visit_seqs(e: &mut Enc, seqs: &VisitSeqs) {
    let keys = seqs.keys();
    e.usize(keys.len());
    for &(p, part) in &keys {
        enc_seq_key(e, (p, part));
        let s = seqs.seq(p, part);
        enc_vec(e, &s.segments, |e, seg| enc_vec(e, seg, enc_instr));
    }
    enc_partitions(e, seqs.partitions());
}

pub(crate) fn dec_visit_seqs(d: &mut Dec<'_>) -> WireResult<VisitSeqs> {
    let n = d.seq_len()?;
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        let (p, part) = dec_seq_key(d)?;
        let segments = dec_vec(d, |d| dec_vec(d, dec_instr))?;
        map.insert(
            (p, part),
            VisitSeq {
                production: p,
                lhs_partition: part,
                segments,
            },
        );
    }
    let partitions = dec_partitions(d)?;
    Ok(VisitSeqs::from_parts(map, partitions))
}

// ---------------------------------------------------------------------------
// Space optimization
// ---------------------------------------------------------------------------

fn enc_object(e: &mut Enc, o: Object) {
    match o {
        Object::Attr(a) => {
            e.u8(0);
            enc_attr(e, a);
        }
        Object::Local(p, l) => {
            e.u8(1);
            enc_production(e, p);
            enc_local(e, l);
        }
    }
}
fn dec_object(d: &mut Dec<'_>) -> WireResult<Object> {
    match d.u8()? {
        0 => Ok(Object::Attr(dec_attr(d)?)),
        1 => Ok(Object::Local(dec_production(d)?, dec_local(d)?)),
        _ => Err(invalid("Object tag", d)),
    }
}

fn enc_flat_item(e: &mut Enc, i: &FlatItem) {
    match i {
        FlatItem::Begin(v) => {
            e.u8(0);
            e.usize(*v);
        }
        FlatItem::Op { visit, instr } => {
            e.u8(1);
            e.usize(*visit);
            enc_instr(e, instr);
        }
        FlatItem::Leave(v) => {
            e.u8(2);
            e.usize(*v);
        }
    }
}
fn dec_flat_item(d: &mut Dec<'_>) -> WireResult<FlatItem> {
    match d.u8()? {
        0 => Ok(FlatItem::Begin(d.usize()?)),
        1 => Ok(FlatItem::Op {
            visit: d.usize()?,
            instr: dec_instr(d)?,
        }),
        2 => Ok(FlatItem::Leave(d.usize()?)),
        _ => Err(invalid("FlatItem tag", d)),
    }
}

fn enc_instance_kind(e: &mut Enc, k: InstanceKind) {
    e.u8(match k {
        InstanceKind::LhsInh => 0,
        InstanceKind::LhsSyn => 1,
        InstanceKind::ChildInh => 2,
        InstanceKind::ChildSyn => 3,
        InstanceKind::Local => 4,
    });
}
fn dec_instance_kind(d: &mut Dec<'_>) -> WireResult<InstanceKind> {
    match d.u8()? {
        0 => Ok(InstanceKind::LhsInh),
        1 => Ok(InstanceKind::LhsSyn),
        2 => Ok(InstanceKind::ChildInh),
        3 => Ok(InstanceKind::ChildSyn),
        4 => Ok(InstanceKind::Local),
        _ => Err(invalid("InstanceKind tag", d)),
    }
}

fn enc_instance(e: &mut Enc, i: &Instance) {
    enc_onode(e, i.node);
    enc_object(e, i.object);
    enc_instance_kind(e, i.kind);
    e.usize(i.def_pos);
    enc_usizes(e, &i.uses);
}
fn dec_instance(d: &mut Dec<'_>) -> WireResult<Instance> {
    Ok(Instance {
        node: dec_onode(d)?,
        object: dec_object(d)?,
        kind: dec_instance_kind(d)?,
        def_pos: d.usize()?,
        uses: dec_usizes(d)?,
    })
}

fn enc_visit_key(e: &mut Enc, k: (PhylumId, usize, AttrId)) {
    enc_phylum(e, k.0);
    e.usize(k.1);
    enc_attr(e, k.2);
}
fn dec_visit_key(d: &mut Dec<'_>) -> WireResult<(PhylumId, usize, AttrId)> {
    Ok((dec_phylum(d)?, d.usize()?, dec_attr(d)?))
}

pub(crate) fn enc_flat_program(e: &mut Enc, fp: &FlatProgram) {
    enc_map(e, &fp.seqs, enc_seq_key, |e, s| {
        enc_seq_key(e, s.key);
        enc_vec(e, &s.items, enc_flat_item);
    });
    enc_map(e, &fp.instances, enc_seq_key, |e, is| {
        enc_vec(e, is, enc_instance);
    });
    enc_map(e, &fp.last_read_visit, enc_visit_key, |e, &v| e.usize(v));
}
pub(crate) fn dec_flat_program(d: &mut Dec<'_>) -> WireResult<FlatProgram> {
    Ok(FlatProgram {
        seqs: dec_map(d, dec_seq_key, |d| {
            Ok(FlatSeq {
                key: dec_seq_key(d)?,
                items: dec_vec(d, dec_flat_item)?,
            })
        })?,
        instances: dec_map(d, dec_seq_key, |d| dec_vec(d, dec_instance))?,
        last_read_visit: dec_map(d, dec_visit_key, |d| d.usize())?,
    })
}

fn enc_may_eval_key(e: &mut Enc, k: (PhylumId, usize, usize)) {
    enc_phylum(e, k.0);
    e.usize(k.1);
    e.usize(k.2);
}
fn dec_may_eval_key(d: &mut Dec<'_>) -> WireResult<(PhylumId, usize, usize)> {
    Ok((dec_phylum(d)?, d.usize()?, d.usize()?))
}

pub(crate) fn enc_lifetimes(e: &mut Enc, lt: &Lifetimes) {
    enc_vec(e, &lt.temporary, |e, &b| e.bool(b));
    enc_map(e, &lt.may_eval, enc_may_eval_key, |e, set| {
        enc_vec(e, set.raw_words(), |e, &w| e.u64(w));
    });
}
pub(crate) fn dec_lifetimes(d: &mut Dec<'_>) -> WireResult<Lifetimes> {
    Ok(Lifetimes {
        temporary: dec_vec(d, |d| d.bool())?,
        may_eval: dec_map(d, dec_may_eval_key, |d| {
            Ok(ObjectSet::from_raw_words(dec_vec(d, |d| d.u64())?))
        })?,
    })
}

fn enc_storage(e: &mut Enc, s: Storage) {
    match s {
        Storage::Variable(i) => {
            e.u8(0);
            e.usize(i);
        }
        Storage::Stack(i) => {
            e.u8(1);
            e.usize(i);
        }
        Storage::Node => e.u8(2),
    }
}
fn dec_storage(d: &mut Dec<'_>) -> WireResult<Storage> {
    match d.u8()? {
        0 => Ok(Storage::Variable(d.usize()?)),
        1 => Ok(Storage::Stack(d.usize()?)),
        2 => Ok(Storage::Node),
        _ => Err(invalid("Storage tag", d)),
    }
}

fn enc_read_path(e: &mut Enc, r: &ReadPath) {
    match r {
        ReadPath::Immediate => e.u8(0),
        ReadPath::Variable(i) => {
            e.u8(1);
            e.usize(*i);
        }
        ReadPath::Stack(i, depth) => {
            e.u8(2);
            e.usize(*i);
            e.usize(*depth);
        }
        ReadPath::Node => e.u8(3),
    }
}
fn dec_read_path(d: &mut Dec<'_>) -> WireResult<ReadPath> {
    match d.u8()? {
        0 => Ok(ReadPath::Immediate),
        1 => Ok(ReadPath::Variable(d.usize()?)),
        2 => Ok(ReadPath::Stack(d.usize()?, d.usize()?)),
        3 => Ok(ReadPath::Node),
        _ => Err(invalid("ReadPath tag", d)),
    }
}

fn enc_write_path(e: &mut Enc, w: &WritePath) {
    match w {
        WritePath::Variable(i) => {
            e.u8(0);
            e.usize(*i);
        }
        WritePath::Stack(i) => {
            e.u8(1);
            e.usize(*i);
        }
        WritePath::Node => e.u8(2),
        WritePath::SkipVariable => e.u8(3),
        WritePath::SkipStackTop => e.u8(4),
    }
}
fn dec_write_path(d: &mut Dec<'_>) -> WireResult<WritePath> {
    match d.u8()? {
        0 => Ok(WritePath::Variable(d.usize()?)),
        1 => Ok(WritePath::Stack(d.usize()?)),
        2 => Ok(WritePath::Node),
        3 => Ok(WritePath::SkipVariable),
        4 => Ok(WritePath::SkipStackTop),
        _ => Err(invalid("WritePath tag", d)),
    }
}

fn enc_space_stats(e: &mut Enc, s: &SpaceStats) {
    e.usize(s.occ_variables);
    e.usize(s.occ_stacks);
    e.usize(s.occ_node);
    e.usize(s.variables_before);
    e.usize(s.variables_after);
    e.usize(s.stacks_before);
    e.usize(s.stacks_after);
    e.usize(s.copies_total);
    e.usize(s.copies_eliminated);
    e.usize(s.copies_eliminable);
    e.f64(s.temporary_ratio);
}
fn dec_space_stats(d: &mut Dec<'_>) -> WireResult<SpaceStats> {
    Ok(SpaceStats {
        occ_variables: d.usize()?,
        occ_stacks: d.usize()?,
        occ_node: d.usize()?,
        variables_before: d.usize()?,
        variables_after: d.usize()?,
        stacks_before: d.usize()?,
        stacks_after: d.usize()?,
        copies_total: d.usize()?,
        copies_eliminated: d.usize()?,
        copies_eliminable: d.usize()?,
        temporary_ratio: d.f64()?,
    })
}

pub(crate) fn enc_space_plan(e: &mut Enc, p: &SpacePlan) {
    enc_vec(e, &p.storage, |e, &s| enc_storage(e, s));
    e.usize(p.n_variables);
    e.usize(p.n_stacks);
    let mut eliminated: Vec<(ProductionId, ONode)> = p.eliminated.iter().copied().collect();
    eliminated.sort();
    enc_vec(e, &eliminated, |e, &(prod, n)| {
        enc_production(e, prod);
        enc_onode(e, n);
    });
    enc_map(e, &p.access, enc_seq_key, |e, sa| {
        enc_vec(e, &sa.steps, |e, step| {
            enc_vec(e, &step.args, enc_read_path);
            enc_option(e, step.write.as_ref(), enc_write_path);
            enc_usizes(e, &step.pops_after);
        });
    });
    enc_space_stats(e, &p.stats);
}
pub(crate) fn dec_space_plan(d: &mut Dec<'_>) -> WireResult<SpacePlan> {
    let storage = dec_vec(d, dec_storage)?;
    let n_variables = d.usize()?;
    let n_stacks = d.usize()?;
    let eliminated: HashSet<(ProductionId, ONode)> = dec_vec(d, |d| {
        let p = dec_production(d)?;
        let n = dec_onode(d)?;
        Ok((p, n))
    })?
    .into_iter()
    .collect();
    let access = dec_map(d, dec_seq_key, |d| {
        Ok(SeqAccess {
            steps: dec_vec(d, |d| {
                Ok(StepAccess {
                    args: dec_vec(d, dec_read_path)?,
                    write: dec_option(d, dec_write_path)?,
                    pops_after: dec_usizes(d)?,
                })
            })?,
        })
    })?;
    let stats = dec_space_stats(d)?;
    Ok(SpacePlan {
        storage,
        n_variables,
        n_stacks,
        eliminated,
        access,
        stats,
    })
}

// ---------------------------------------------------------------------------
// Lint diagnostics
// ---------------------------------------------------------------------------

pub(crate) fn enc_lint(e: &mut Enc, diags: &[Diagnostic]) {
    enc_vec(e, diags, |e, d| {
        e.str(d.code.as_str());
        e.u8(match d.severity {
            LintSeverity::Warning => 0,
            LintSeverity::Error => 1,
        });
        e.u32(d.span.line);
        e.u32(d.span.col);
        e.str(&d.span.anchor);
        e.str(&d.message);
        enc_vec(e, &d.notes, |e, n| e.str(n));
    });
}

pub(crate) fn dec_lint(d: &mut Dec<'_>) -> WireResult<Vec<Diagnostic>> {
    dec_vec(d, |d| {
        let code_str = d.str()?;
        let code = LintCode::from_code_str(&code_str).ok_or_else(|| invalid("lint code", d))?;
        let severity = match d.u8()? {
            0 => LintSeverity::Warning,
            1 => LintSeverity::Error,
            _ => return Err(invalid("lint severity", d)),
        };
        let line = d.u32()?;
        let col = d.u32()?;
        let anchor = d.str()?;
        let message = d.str()?;
        let notes = dec_vec(d, |d| d.str())?;
        Ok(Diagnostic {
            code,
            severity,
            span: Span { line, col, anchor },
            message,
            notes,
        })
    })
}

// ---------------------------------------------------------------------------
// Grammar shape and compiled programs (verification sections)
// ---------------------------------------------------------------------------

fn enc_arg(e: &mut Enc, a: &Arg) {
    match a {
        Arg::Node(n) => {
            e.u8(0);
            enc_onode(e, *n);
        }
        Arg::Const(v) => {
            e.u8(1);
            enc_value(e, v);
        }
        Arg::Token => e.u8(2),
    }
}

/// Canonical encoding of everything about a [`Grammar`] except the
/// semantic-function *bodies* (closures cannot be serialized; they are
/// rebuilt by re-running the front end, and this shape encoding is what
/// proves the rebuilt grammar is the one the artifact was compiled from).
pub fn encode_grammar_shape(g: &Grammar) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(g.name());
    enc_phylum(&mut e, g.root());
    e.usize(g.phylum_count());
    for ph in g.phyla() {
        let p = g.phylum(ph);
        e.str(p.name());
        enc_vec(&mut e, p.attrs(), |e, &a| enc_attr(e, a));
        enc_vec(&mut e, p.productions(), |e, &pr| enc_production(e, pr));
    }
    e.usize(g.attr_count());
    for i in 0..g.attr_count() as u32 {
        let a = g.attr(AttrId::from_raw(i));
        e.str(a.name());
        e.u8(match a.kind() {
            AttrKind::Inherited => 0,
            AttrKind::Synthesized => 1,
        });
        enc_phylum(&mut e, a.phylum());
        e.usize(a.offset());
    }
    e.usize(g.production_count());
    for pid in g.productions() {
        let p = g.production(pid);
        e.str(p.name());
        enc_phylum(&mut e, p.lhs());
        enc_vec(&mut e, p.rhs(), |e, &ph| enc_phylum(e, ph));
        enc_vec(&mut e, p.locals(), |e, l| e.str(l.name()));
        e.usize(p.rules().len());
        for rule in p.rules() {
            enc_onode(&mut e, rule.target());
            match rule.body() {
                RuleBody::Copy(arg) => {
                    e.u8(0);
                    enc_arg(&mut e, arg);
                }
                RuleBody::Call { func, args } => {
                    e.u8(1);
                    enc_func(&mut e, *func);
                    enc_vec(&mut e, args, enc_arg);
                }
            }
        }
    }
    // Semantic functions: name, arity, and declared cost pin the calling
    // convention; the bodies come from the re-run front end.
    let nfuncs = g.function_count();
    e.usize(nfuncs);
    for i in 0..nfuncs as u32 {
        let f = g.function(FuncId::from_raw(i));
        e.str(f.name());
        e.usize(f.arity());
        e.u32(f.cost());
    }
    e.into_bytes()
}

fn enc_fetch(e: &mut Enc, f: &FetchOp) {
    match f {
        FetchOp::Const(i) => {
            e.u8(0);
            e.u32(*i);
        }
        FetchOp::Token => e.u8(1),
        FetchOp::Attr { child, attr, off } => {
            e.u8(2);
            e.u16(*child);
            enc_attr(e, *attr);
            e.u32(*off);
        }
        FetchOp::Local(l) => {
            e.u8(3);
            enc_local(e, *l);
        }
        FetchOp::Variable(_) | FetchOp::Stack { .. } => unreachable!("plans lower at load"),
    }
}

fn enc_slot(e: &mut Enc, s: &SlotRef) {
    match s {
        SlotRef::Attr { child, attr, off } => {
            e.u8(0);
            e.u16(*child);
            enc_attr(e, *attr);
            e.u32(*off);
        }
        SlotRef::Local(l) => {
            e.u8(1);
            enc_local(e, *l);
        }
        SlotRef::Variable(_) | SlotRef::Stack(_) => unreachable!("plans lower at load"),
    }
}

/// Canonical encoding of a slot-compiled program. The loader does not
/// decode this: [`CompiledProgram::new`] is a cheap deterministic function
/// of the grammar, so the artifact's copy serves as a verification section
/// — a byte mismatch against a fresh compile means the artifact was built
/// by an incompatible slot-compiler and must be rejected.
pub fn encode_compiled_program(g: &Grammar, prog: &CompiledProgram) -> Vec<u8> {
    let mut e = Enc::new();
    e.usize(g.production_count());
    for pid in g.productions() {
        let cp = prog.production(pid);
        e.usize(cp.rules.len());
        for r in &cp.rules {
            enc_onode(&mut e, r.target);
            enc_slot(&mut e, &r.slot);
            match &r.body {
                CBody::Copy(f) => {
                    e.u8(0);
                    enc_fetch(&mut e, f);
                }
                CBody::Call { func, args } => {
                    e.u8(1);
                    enc_func(&mut e, *func);
                    enc_vec(&mut e, args, enc_fetch);
                }
            }
            e.bool(r.is_copy);
        }
    }
    enc_vec(&mut e, prog.consts(), enc_value);
    e.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoding sees a list's element sequence only: a flat list, its
    /// concatenations and a tail view of a longer chunk encode alike.
    #[test]
    fn list_encoding_ignores_shape() {
        use fnc2_ag::List;

        let bytes = |v: &Value| {
            let mut e = Enc::new();
            enc_value(&mut e, v);
            e.into_bytes()
        };
        let items: Vec<Value> = (0..80).map(|i| Value::str(format!("x{}", i % 5))).collect();
        let one = |x: &Value| List::new(vec![x.clone()]);
        let left = items
            .iter()
            .fold(List::new(Vec::new()), |acc, x| acc.concat(&one(x)));
        let right = items
            .iter()
            .rev()
            .fold(List::new(Vec::new()), |acc, x| one(x).concat(&acc));
        let (a, b) = items.split_at(33);
        let halves = List::new(a.to_vec()).concat(&List::new(b.to_vec()));
        let tail = List::new([Value::Unit].iter().chain(&items).cloned().collect()).tail();
        let flat = Value::list(items);
        let want = bytes(&flat);
        for shape in [left, right, halves, tail] {
            let v = Value::List(shape);
            assert_eq!(bytes(&v), want);
            assert_eq!(dec_value(&mut Dec::new(&want)).unwrap(), v);
        }
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        let vals = [
            Value::Unit,
            Value::Bool(true),
            Value::Int(-7),
            Value::Real(f64::NEG_INFINITY),
            Value::Real(-0.0),
            Value::str("σ"),
            Value::list([Value::Int(1), Value::str("x")]),
            Value::tuple([Value::Unit, Value::Bool(false)]),
            Value::map([("k".to_string(), Value::Int(3))].into_iter().collect()),
            Value::term("node", [Value::term("leaf", []), Value::Int(9)]),
        ];
        for v in &vals {
            let mut e = Enc::new();
            enc_value(&mut e, v);
            enc_func(&mut e, FuncId::from_raw(4));
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(&dec_value(&mut d).unwrap(), v);
            assert_eq!(dec_func(&mut d).unwrap(), FuncId::from_raw(4));
            d.finish().unwrap();
        }
    }

    #[test]
    fn negative_zero_and_nan_are_preserved() {
        let mut e = Enc::new();
        enc_value(&mut e, &Value::Real(-0.0));
        enc_value(&mut e, &Value::Real(f64::NAN));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        match dec_value(&mut d).unwrap() {
            Value::Real(r) => assert_eq!(r.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected Real, got {other:?}"),
        }
        match dec_value(&mut d).unwrap() {
            Value::Real(r) => assert!(r.is_nan()),
            other => panic!("expected Real, got {other:?}"),
        }
    }
}
