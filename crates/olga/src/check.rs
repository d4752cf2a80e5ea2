//! Type- and well-formedness checking of OLGA units.
//!
//! OLGA "is strongly typed, with polymorphism, overloading and type
//! inference" (paper §2.4). The checker resolves imports, types every
//! expression (operators are overloaded over int/real/string, list/map
//! primitives are polymorphic through [`Ty::Any`]), marks in place what
//! every variable and call denotes ([`VarRef`], [`Callee`]) for everything
//! after it to read, resolves attribute occurrences `Phylum$k.attr` inside
//! rule blocks, and verifies that rules only define output occurrences. Exactly-once definition (after automatic
//! copy-rule insertion) is enforced by the lowering step.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::ast::*;
use crate::lexer::Pos;
use crate::types::{resolve_type, Ty};

/// A semantic error with position.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckError {
    /// Description.
    pub message: String,
    /// Position.
    pub pos: Pos,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: error: {}", self.pos, self.message)
    }
}

impl std::error::Error for CheckError {}

fn err<T>(message: impl Into<String>, pos: Pos) -> Result<T, CheckError> {
    Err(CheckError {
        message: message.into(),
        pos,
    })
}

/// A function as a unit sees it: its id in the [`Program`] and its
/// signature under the unit's view of opaque types.
#[derive(Clone, Debug)]
pub struct FunSig {
    /// The function's id.
    pub id: usize,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
}

/// A checked function.
#[derive(Clone, Debug)]
pub struct Function {
    /// Its name in its unit.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// The body, resolved by the checker of its unit.
    pub body: Expr,
}

/// Every function and constant a [`Compiler`] checked, indexed by the ids
/// the checker marks calls and constant reads with, so an imported body
/// keeps the names of its own module.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Functions by id.
    pub funcs: Vec<Function>,
    /// Constants by id: name and defining expression.
    pub consts: Vec<(String, Expr)>,
}

/// The entities visible inside one unit (own + imported).
#[derive(Clone, Debug, Default)]
pub struct UnitEnv {
    /// Named types.
    pub types: HashMap<String, Ty>,
    /// Constants: id and type.
    pub consts: HashMap<String, (usize, Ty)>,
    /// Functions.
    pub funcs: HashMap<String, FunSig>,
    /// The bodies of these and of every unit checked before this one.
    pub program: Arc<Program>,
}

impl UnitEnv {
    /// The ids of the functions and of the constants the unit reaches: the
    /// ones it can name and, transitively, those their bodies read; each
    /// list in increasing order.
    pub fn reach(&self) -> (Vec<usize>, Vec<usize>) {
        let prog = &*self.program;
        let mut funcs: BTreeSet<usize> = self.funcs.values().map(|f| f.id).collect();
        let mut consts: BTreeSet<usize> = self.consts.values().map(|c| c.0).collect();
        let mut bodies: Vec<&Expr> = funcs.iter().map(|&f| &prog.funcs[f].body).collect();
        bodies.extend(consts.iter().map(|&c| &prog.consts[c].1));
        while let Some(body) = bodies.pop() {
            body.walk(&mut |e| match e {
                Expr::Var {
                    var: VarRef::Const(c),
                    ..
                } if consts.insert(*c) => bodies.push(&prog.consts[*c].1),
                Expr::Call {
                    callee: Callee::User(f),
                    ..
                } if funcs.insert(*f) => bodies.push(&prog.funcs[*f].body),
                _ => {}
            });
        }
        (funcs.into_iter().collect(), consts.into_iter().collect())
    }
}

/// A checked module, with its export surface.
#[derive(Clone, Debug)]
pub struct CheckedModule {
    /// The source AST.
    pub ast: Module,
    /// Everything visible inside the module.
    pub env: UnitEnv,
    /// What importers see (opaque types are abstracted).
    pub exports: UnitEnv,
}

/// Attribute information per phylum of an AG.
#[derive(Clone, Debug)]
pub struct AgAttrTable {
    /// `attrs[phylum][attr] = (synthesized, type, k)`, where `k` numbers
    /// the (attribute, phylum) pairs in declaration order.
    pub attrs: HashMap<String, HashMap<String, (bool, Ty, usize)>>,
}

/// A threaded attribute pair after expansion.
#[derive(Clone, Debug)]
pub struct ThreadInfo {
    /// Base name (`lab` → attributes `lab_in`, `lab_out`).
    pub base: String,
    /// Phyla carrying the pair.
    pub phyla: Vec<String>,
}

/// A checked attribute grammar, ready for lowering.
#[derive(Clone, Debug)]
pub struct CheckedAg {
    /// The source AST.
    pub ast: AgDef,
    /// Visible entities (imports + AG-local).
    pub env: UnitEnv,
    /// Attribute table.
    pub attr_table: AgAttrTable,
    /// Rule models per attribute name (`with concat` / `with sum`).
    pub classes: BTreeMap<String, AttrClass>,
    /// Threaded pairs (the threading rule model).
    pub threads: Vec<ThreadInfo>,
}

/// The multi-unit compiler: checked modules by name, in dependency order
/// (paper §2.3's modularity: an application is a set of modules and AGs).
#[derive(Debug, Default)]
pub struct Compiler {
    modules: HashMap<String, CheckedModule>,
    program: Arc<Program>,
}

impl Compiler {
    /// An empty compiler.
    pub fn new() -> Self {
        Compiler::default()
    }

    /// The checked module `name`, if present.
    pub fn module(&self, name: &str) -> Option<&CheckedModule> {
        self.modules.get(name)
    }

    /// Checks and registers a module.
    ///
    /// # Errors
    ///
    /// Returns the first semantic error.
    pub fn add_module(&mut self, m: Module) -> Result<(), CheckError> {
        let checked = self.check_module(m)?;
        self.program = Arc::clone(&checked.env.program);
        self.modules.insert(checked.ast.name.clone(), checked);
        Ok(())
    }

    /// Checks an attribute grammar against the registered modules.
    ///
    /// # Errors
    ///
    /// Returns the first semantic error.
    pub fn check_ag(&self, ag: AgDef) -> Result<CheckedAg, CheckError> {
        let mut ag = ag;
        // Expand threaded pairs into ordinary attribute declarations; the
        // threading rules themselves are instantiated by the lowering.
        let mut threads = Vec::new();
        for t in std::mem::take(&mut ag.threads) {
            ag.attrs.push(AttrDef {
                synthesized: false,
                name: format!("{}_in", t.name),
                ty: t.ty.clone(),
                phyla: t.phyla.clone(),
                class: AttrClass::Plain,
                pos: t.pos,
            });
            ag.attrs.push(AttrDef {
                synthesized: true,
                name: format!("{}_out", t.name),
                ty: t.ty.clone(),
                phyla: t.phyla.clone(),
                class: AttrClass::Plain,
                pos: t.pos,
            });
            threads.push(ThreadInfo {
                base: t.name,
                phyla: t.phyla,
            });
        }
        let mut env = self.unit_env(&ag.imports)?;
        declare_unit(&ag.types, &mut ag.funcs, &mut ag.consts, &mut env)?;

        // Phyla, each with its (still empty) row of the attribute table.
        let mut attr_table = AgAttrTable {
            attrs: HashMap::with_capacity(ag.phyla.len()),
        };
        for p in &ag.phyla {
            if attr_table.attrs.insert(p.clone(), HashMap::new()).is_some() {
                return err(format!("duplicate phylum `{p}`"), Pos { line: 1, col: 1 });
            }
        }
        let phyla = &attr_table.attrs;
        if phyla.is_empty() {
            return err(
                format!("attribute grammar `{}` declares no phyla", ag.name),
                Pos { line: 1, col: 1 },
            );
        }
        if let Some(root) = &ag.root {
            if !phyla.contains_key(root) {
                return err(
                    format!("unknown root phylum `{root}`"),
                    Pos { line: 1, col: 1 },
                );
            }
        }
        // Operators.
        let mut op_by_name: HashMap<&str, &OpDef> = HashMap::new();
        for op in &ag.operators {
            if op_by_name.insert(&op.name, op).is_some() {
                return err(format!("duplicate operator `{}`", op.name), op.pos);
            }
            if !phyla.contains_key(&op.lhs) {
                return err(format!("unknown phylum `{}`", op.lhs), op.pos);
            }
            for r in &op.rhs {
                if !phyla.contains_key(r) {
                    return err(format!("unknown phylum `{r}`"), op.pos);
                }
            }
        }
        // Attributes.
        let mut classes: BTreeMap<String, AttrClass> = BTreeMap::new();
        let mut declared = 0;
        for a in &ag.attrs {
            let ty = type_of(&a.ty, &env.types, a.pos)?;
            match a.class {
                AttrClass::Plain => {}
                AttrClass::Concat => {
                    if !a.synthesized {
                        return err("`with concat` applies to synthesized attributes", a.pos);
                    }
                    if !ty.is_list() && !ty.compatible(&Ty::Str) {
                        return err(
                            format!("`with concat` needs a list or string attribute, found `{ty}`"),
                            a.pos,
                        );
                    }
                    classes.insert(a.name.clone(), a.class);
                }
                AttrClass::Sum => {
                    if !a.synthesized {
                        return err("`with sum` applies to synthesized attributes", a.pos);
                    }
                    if !ty.compatible(&Ty::Int) {
                        return err(
                            format!("`with sum` needs an int attribute, found `{ty}`"),
                            a.pos,
                        );
                    }
                    classes.insert(a.name.clone(), a.class);
                }
            }
            for p in &a.phyla {
                let Some(per) = attr_table.attrs.get_mut(p) else {
                    return err(format!("unknown phylum `{p}`"), a.pos);
                };
                let decl = (a.synthesized, ty.clone(), declared);
                declared += 1;
                if per.insert(a.name.clone(), decl).is_some() {
                    return err(
                        format!("attribute `{}` declared twice on `{p}`", a.name),
                        a.pos,
                    );
                }
            }
        }

        // Rule blocks, resolved in place.
        for phase in &mut ag.phases {
            for block in &mut phase.blocks {
                let Some(op) = op_by_name.get(block.operator.as_str()) else {
                    return err(format!("unknown operator `{}`", block.operator), block.pos);
                };
                let ctx = OpCtx::new(op, &attr_table);
                let mut locals: HashMap<String, Ty> = HashMap::new();
                for l in &mut block.locals {
                    let ty = type_of(&l.ty, &env.types, l.pos)?;
                    let got = check_expr(
                        &mut l.body,
                        &env,
                        &mut Scope::default(),
                        Some(&CtxWithLocals {
                            ctx: &ctx,
                            locals: &locals,
                        }),
                    )?;
                    if !got.compatible(&ty) {
                        return err(
                            format!(
                                "local `{}` declared `{ty}` but defined with `{got}`",
                                l.name
                            ),
                            l.pos,
                        );
                    }
                    if locals.insert(l.name.clone(), ty).is_some() {
                        return err(format!("duplicate local `{}`", l.name), l.pos);
                    }
                }
                for rule in &mut block.rules {
                    let want = match &rule.target {
                        RuleTarget::Occ(occ) => {
                            let (pos_idx, &(syn, ref ty, _)) = ctx.resolve(occ)?;
                            // Output occurrences only: synthesized on the
                            // LHS, inherited on the RHS.
                            let is_output = (pos_idx == 0) == syn;
                            if !is_output {
                                return err(
                                    format!(
                                        "rule defines input occurrence `{}.{}` (a production may only define LHS synthesized and RHS inherited attributes)",
                                        occ.name, occ.attr
                                    ),
                                    occ.pos,
                                );
                            }
                            ty.clone()
                        }
                        RuleTarget::Local(name, pos) => match locals.get(name) {
                            Some(t) => t.clone(),
                            None => return err(format!("unknown local `{name}`"), *pos),
                        },
                    };
                    let got = check_expr(
                        &mut rule.body,
                        &env,
                        &mut Scope::default(),
                        Some(&CtxWithLocals {
                            ctx: &ctx,
                            locals: &locals,
                        }),
                    )?;
                    if !got.compatible(&want) {
                        return err(
                            format!("rule has type `{got}`, target expects `{want}`"),
                            rule.pos,
                        );
                    }
                }
            }
        }

        Ok(CheckedAg {
            ast: ag,
            env,
            attr_table,
            classes,
            threads,
        })
    }

    fn check_module(&self, mut m: Module) -> Result<CheckedModule, CheckError> {
        let mut env = self.unit_env(&m.imports)?;
        declare_unit(&m.types, &mut m.funcs, &mut m.consts, &mut env)?;

        // Export surface. Opaque type exports abstract the representation,
        // so exported signatures are re-resolved from their *syntactic*
        // types under the abstracted view.
        let mut exports = UnitEnv {
            program: Arc::clone(&env.program),
            ..UnitEnv::default()
        };
        if m.exports.is_empty() {
            exports = env.clone();
        } else {
            let mut view = env.types.clone();
            for e in &m.exports {
                if e.opaque && env.types.contains_key(&e.name) {
                    view.insert(e.name.clone(), Ty::Opaque(e.name.clone()));
                }
            }
            let reresolve = |te: &TypeExpr, pos: Pos| type_of(te, &view, pos);
            for e in &m.exports {
                let mut found = false;
                if let Some(t) = view.get(&e.name) {
                    exports.types.insert(e.name.clone(), t.clone());
                    found = true;
                }
                if let Some((id, ty)) = env.consts.get(&e.name) {
                    // Defined here: re-resolve from the syntactic type under
                    // the abstracted view. Imported: re-export as checked.
                    let ty = match m.consts.iter().find(|c| c.name == e.name) {
                        Some(def) => reresolve(&def.ty, def.pos)?,
                        None => ty.clone(),
                    };
                    exports.consts.insert(e.name.clone(), (*id, ty));
                    found = true;
                }
                if let Some(sig) = env.funcs.get(&e.name) {
                    let sig = match m.funcs.iter().find(|f| f.name == e.name) {
                        Some(def) => FunSig {
                            id: sig.id,
                            params: def
                                .params
                                .iter()
                                .map(|(_, te)| reresolve(te, def.pos))
                                .collect::<Result<_, _>>()?,
                            ret: reresolve(&def.ret, def.pos)?,
                        },
                        None => sig.clone(),
                    };
                    exports.funcs.insert(e.name.clone(), sig);
                    found = true;
                }
                if !found {
                    return err(
                        format!(
                            "exported `{}` is not defined in module `{}`",
                            e.name, m.name
                        ),
                        Pos { line: 1, col: 1 },
                    );
                }
            }
        }
        Ok(CheckedModule {
            ast: m,
            env,
            exports,
        })
    }

    /// The environment a unit starts from: the compiler's program and what
    /// `imports` name, each under its id.
    fn unit_env(&self, imports: &[Import]) -> Result<UnitEnv, CheckError> {
        let mut env = UnitEnv {
            program: Arc::clone(&self.program),
            ..UnitEnv::default()
        };
        for imp in imports {
            let Some(module) = self.modules.get(&imp.from) else {
                return err(format!("unknown module `{}`", imp.from), imp.pos);
            };
            for name in &imp.names {
                let mut found = false;
                if let Some(t) = module.exports.types.get(name) {
                    env.types.insert(name.clone(), t.clone());
                    found = true;
                }
                if let Some(c) = module.exports.consts.get(name) {
                    env.consts.insert(name.clone(), c.clone());
                    found = true;
                }
                if let Some(f) = module.exports.funcs.get(name) {
                    env.funcs.insert(name.clone(), f.clone());
                    found = true;
                }
                if !found {
                    return err(
                        format!("module `{}` does not export `{name}`", imp.from),
                        imp.pos,
                    );
                }
            }
        }
        Ok(env)
    }
}

/// Resolves a type expression against the named types in scope.
fn type_of(te: &TypeExpr, types: &HashMap<String, Ty>, pos: Pos) -> Result<Ty, CheckError> {
    resolve_type(te, types, pos).map_err(|(n, pos)| CheckError {
        message: format!("unknown type `{n}`"),
        pos,
    })
}

fn declare_types(types: &[TypeDef], env: &mut UnitEnv) -> Result<(), CheckError> {
    for t in types {
        let ty = type_of(&t.ty, &env.types, t.pos)?;
        if env.types.insert(t.name.clone(), ty).is_some() {
            return err(format!("duplicate type `{}`", t.name), t.pos);
        }
    }
    Ok(())
}

/// Declares a unit's types, function signatures and constant types, then
/// checks the function and constant bodies, which may call any function
/// of the unit and read any of its constants (cycles are caught at
/// evaluation time). Each body is resolved in place and then moved to the
/// program under the id it was declared with.
fn declare_unit(
    types: &[TypeDef],
    funcs: &mut [FunDef],
    consts: &mut [ConstDef],
    env: &mut UnitEnv,
) -> Result<(), CheckError> {
    declare_types(types, env)?;
    let (first_fun, first_const) = (env.program.funcs.len(), env.program.consts.len());
    for (i, f) in funcs.iter().enumerate() {
        let params = f
            .params
            .iter()
            .map(|(_, te)| type_of(te, &env.types, f.pos))
            .collect::<Result<_, _>>()?;
        let ret = type_of(&f.ret, &env.types, f.pos)?;
        let sig = FunSig {
            id: first_fun + i,
            params,
            ret,
        };
        if env.funcs.insert(f.name.clone(), sig).is_some() {
            return err(format!("duplicate function `{}`", f.name), f.pos);
        }
    }
    for (i, c) in consts.iter().enumerate() {
        let ty = type_of(&c.ty, &env.types, c.pos)?;
        if env
            .consts
            .insert(c.name.clone(), (first_const + i, ty))
            .is_some()
        {
            return err(format!("duplicate constant `{}`", c.name), c.pos);
        }
    }
    for f in funcs.iter_mut() {
        let sig = &env.funcs[&f.name];
        let names = f.params.iter().map(|(n, _)| n.clone());
        let mut scope = Scope {
            stack: names.zip(sig.params.iter().cloned()).collect(),
        };
        let got = check_expr(&mut f.body, env, &mut scope, None)?;
        let ret = &env.funcs[&f.name].ret;
        if !got.compatible(ret) {
            return err(
                format!(
                    "function `{}` declared to return `{ret}` but body has type `{got}`",
                    f.name
                ),
                f.pos,
            );
        }
    }
    for c in consts.iter_mut() {
        let got = check_expr(&mut c.body, env, &mut Scope::default(), None)?;
        let (_, ty) = &env.consts[&c.name];
        if !got.compatible(ty) {
            return err(
                format!(
                    "constant `{}` declared `{ty}` but defined with `{got}`",
                    c.name
                ),
                c.pos,
            );
        }
    }
    // Nothing reads the AST's bodies after checking: move them.
    let take = |body: &mut Expr, pos| std::mem::replace(body, Expr::Bool(false, pos));
    let program = Arc::make_mut(&mut env.program);
    program.funcs.extend(funcs.iter_mut().map(|f| Function {
        name: f.name.clone(),
        params: f.params.iter().map(|(n, _)| n.clone()).collect(),
        body: take(&mut f.body, f.pos),
    }));
    (program.consts).extend(
        consts
            .iter_mut()
            .map(|c| (c.name.clone(), take(&mut c.body, c.pos))),
    );
    Ok(())
}

/// A phylum's row of the attribute table.
type Row = HashMap<String, (bool, Ty, usize)>;

/// Occurrence resolution for one operator: a borrowed view of its phyla
/// and of their rows of the attribute table.
#[derive(Clone, Debug)]
pub(crate) struct OpCtx<'a> {
    op: &'a OpDef,
    rows: Vec<Option<&'a Row>>,
}

impl<'a> OpCtx<'a> {
    /// The view of `op`.
    pub fn new(op: &'a OpDef, table: &'a AgAttrTable) -> OpCtx<'a> {
        let positions = std::iter::once(&op.lhs).chain(&op.rhs);
        let rows = positions.map(|p| table.attrs.get(p)).collect();
        OpCtx { op, rows }
    }

    /// The phylum at each position, the LHS (position 0) first.
    pub fn positions(&self) -> impl Iterator<Item = &'a str> + Clone {
        std::iter::once(&self.op.lhs)
            .chain(&self.op.rhs)
            .map(String::as_str)
    }

    /// Resolves `occ` to its position and its attribute's table entry.
    ///
    /// # Errors
    ///
    /// Reports unknown phyla/attributes and missing/invalid `$k` indices.
    pub fn resolve(&self, occ: &OccRef) -> Result<(u16, &'a (bool, Ty, usize)), CheckError> {
        let mut hits = self.positions().enumerate().filter(|(_, p)| *p == occ.name);
        let k = match (occ.index, hits.clone().count()) {
            (_, 0) => {
                return err(
                    format!("phylum `{}` does not occur in this production", occ.name),
                    occ.pos,
                )
            }
            (None, 1) => 1,
            (None, n) => {
                return err(
                    format!(
                        "phylum `{}` occurs {n} times; use `{}$k.{}`",
                        occ.name, occ.name, occ.attr
                    ),
                    occ.pos,
                )
            }
            (Some(k), n) if (k as usize) <= n => k as usize,
            (Some(k), n) => {
                return err(
                    format!(
                        "occurrence index ${k} out of range (phylum `{}` occurs {n} times)",
                        occ.name
                    ),
                    occ.pos,
                )
            }
        };
        let (pos, _) = hits.nth(k - 1).expect("the count covers the index");
        match self.rows[pos].and_then(|row| row.get(&occ.attr)) {
            Some(decl) => Ok((pos as u16, decl)),
            None => err(
                format!("attribute `{}` is not declared on `{}`", occ.attr, occ.name),
                occ.pos,
            ),
        }
    }
}

/// Context passed into rule-body checking.
struct CtxWithLocals<'a> {
    ctx: &'a OpCtx<'a>,
    locals: &'a HashMap<String, Ty>,
}

/// Lexical scope of binders: a function's parameters, then the `let` and
/// `case` binders in scope. A binder's index is its frame slot.
#[derive(Default)]
struct Scope {
    stack: Vec<(String, Ty)>,
}

impl Scope {
    fn bind(&mut self, name: String, ty: Ty) {
        self.stack.push((name, ty));
    }
    fn unbind(&mut self, n: usize) {
        self.stack.truncate(self.stack.len() - n);
    }
    fn lookup(&self, name: &str) -> Option<(usize, &Ty)> {
        let slot = self.stack.iter().rposition(|(n, _)| n == name)?;
        Some((slot, &self.stack[slot].1))
    }
}

/// Types an expression and marks what each of its variables and calls
/// denotes.
fn check_expr(
    e: &mut Expr,
    env: &UnitEnv,
    scope: &mut Scope,
    rule_ctx: Option<&CtxWithLocals>,
) -> Result<Ty, CheckError> {
    match e {
        Expr::Int(..) => Ok(Ty::Int),
        Expr::Real(..) => Ok(Ty::Real),
        Expr::Bool(..) => Ok(Ty::Bool),
        Expr::Str(..) => Ok(Ty::Str),
        Expr::Var { name, var, pos } => {
            let (denotes, t) = if let Some((slot, t)) = scope.lookup(name) {
                (VarRef::Binder(slot), t)
            } else if let Some(t) = rule_ctx.and_then(|ctx| ctx.locals.get(name.as_str())) {
                (VarRef::Local, t)
            } else if let Some((id, t)) = env.consts.get(name.as_str()) {
                (VarRef::Const(*id), t)
            } else {
                return err(format!("unknown name `{name}`"), *pos);
            };
            *var = denotes;
            Ok(t.clone())
        }
        Expr::Arg(_) => err(
            "rule argument outside a lowered rule",
            Pos { line: 0, col: 0 },
        ),
        Expr::Occ(occ) => match rule_ctx {
            Some(ctx) => ctx.ctx.resolve(occ).map(|(_, (_, t, _))| t.clone()),
            None => err(
                "attribute occurrences are only allowed in semantic rules",
                occ.pos,
            ),
        },
        Expr::Call {
            name,
            args,
            callee,
            pos,
        } => check_call(name, args, callee, *pos, env, scope, rule_ctx),
        Expr::Unop { op, expr, pos } => {
            let t = check_expr(expr, env, scope, rule_ctx)?;
            match (*op, &t) {
                (UnOp::Neg, Ty::Int | Ty::Real | Ty::Any) => Ok(t),
                (UnOp::Not, Ty::Bool | Ty::Any) => Ok(Ty::Bool),
                _ => err(format!("operator `{op}` does not apply to `{t}`"), *pos),
            }
        }
        Expr::Binop { op, lhs, rhs, pos } => {
            let lt = check_expr(lhs, env, scope, rule_ctx)?;
            let rt = check_expr(rhs, env, scope, rule_ctx)?;
            check_binop(*op, &lt, &rt, *pos)
        }
        Expr::If {
            cond,
            then,
            els,
            pos,
        } => {
            let ct = check_expr(cond, env, scope, rule_ctx)?;
            if !ct.compatible(&Ty::Bool) {
                return err(format!("if condition must be bool, found `{ct}`"), *pos);
            }
            let tt = check_expr(then, env, scope, rule_ctx)?;
            let et = check_expr(els, env, scope, rule_ctx)?;
            if !tt.compatible(&et) {
                return err(format!("if branches disagree: `{tt}` vs `{et}`"), *pos);
            }
            Ok(tt.join(&et))
        }
        Expr::Let {
            name, value, body, ..
        } => {
            let vt = check_expr(value, env, scope, rule_ctx)?;
            scope.bind(name.clone(), vt);
            let bt = check_expr(body, env, scope, rule_ctx)?;
            scope.unbind(1);
            Ok(bt)
        }
        Expr::Case {
            scrutinee,
            arms,
            pos,
        } => {
            let st = check_expr(scrutinee, env, scope, rule_ctx)?;
            let mut result: Option<Ty> = None;
            for (pat, body) in arms {
                let n = bind_pattern(pat, &st, scope)?;
                let bt = check_expr(body, env, scope, rule_ctx)?;
                scope.unbind(n);
                result = Some(match result {
                    None => bt,
                    Some(prev) => {
                        if !prev.compatible(&bt) {
                            return err(format!("case arms disagree: `{prev}` vs `{bt}`"), *pos);
                        }
                        prev.join(&bt)
                    }
                });
            }
            result.ok_or(CheckError {
                message: "case expression has no arms".into(),
                pos: *pos,
            })
        }
        Expr::ListLit(items, _, _) => {
            let mut elem = Ty::Any;
            for (i, it) in items.iter_mut().enumerate() {
                let t = check_expr(it, env, scope, rule_ctx)?;
                if !t.compatible(&elem) {
                    return err(
                        format!("list element {i} has type `{t}`, expected `{elem}`"),
                        it.pos(),
                    );
                }
                elem = elem.join(&t);
            }
            Ok(Ty::List(Arc::new(elem)))
        }
        Expr::TupleLit(items, _) => {
            let ts = items
                .iter_mut()
                .map(|it| check_expr(it, env, scope, rule_ctx))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Ty::Tuple(ts.into()))
        }
        Expr::TreeCons { args, .. } => {
            for a in args {
                check_expr(a, env, scope, rule_ctx)?;
            }
            Ok(Ty::Tree)
        }
    }
}

/// Types a call: built-ins first, then user functions.
fn check_call(
    name: &str,
    args: &mut [Expr],
    callee: &mut Callee,
    pos: Pos,
    env: &UnitEnv,
    scope: &mut Scope,
    rule_ctx: Option<&CtxWithLocals>,
) -> Result<Ty, CheckError> {
    let builtin = Builtin::from_name(name);
    let mut tys = Vec::with_capacity(args.len());
    for a in args.iter_mut() {
        tys.push(check_expr(a, env, scope, rule_ctx)?);
        if builtin.is_none() {
            // The interpreter keeps a user function's evaluated arguments
            // in the frame while it evaluates the next ones.
            scope.bind(String::new(), Ty::Any);
        }
    }
    if builtin.is_none() {
        scope.unbind(args.len());
    }
    let arity = |n: usize| -> Result<(), CheckError> {
        if tys.len() != n {
            err(
                format!("`{name}` expects {n} argument(s), got {}", tys.len()),
                pos,
            )
        } else {
            Ok(())
        }
    };
    let want = |i: usize, t: Ty| -> Result<(), CheckError> {
        if !tys[i].compatible(&t) {
            err(
                format!(
                    "argument {} of `{name}` has type `{}`, expected `{t}`",
                    i + 1,
                    tys[i]
                ),
                pos,
            )
        } else {
            Ok(())
        }
    };
    let Some(b) = builtin else {
        let Some(sig) = env.funcs.get(name) else {
            return err(format!("unknown function `{name}`"), pos);
        };
        *callee = Callee::User(sig.id);
        arity(sig.params.len())?;
        for (i, pt) in sig.params.iter().enumerate() {
            want(i, pt.clone())?;
        }
        return Ok(sig.ret.clone());
    };
    *callee = Callee::Builtin(b);
    use Builtin::*;
    use Ty::{Any, Bool, Int, Real, Str};
    let (list, map) = (Ty::List(Arc::new(Any)), Ty::Map(Arc::new(Any)));
    let params = match b {
        Token | EmptyMap => vec![],
        ToReal | Abs | Itoa => vec![Int],
        ToInt | Rtoa => vec![Real],
        Min | Max => vec![Int, Int],
        Len | Null | Hd | Tl | Rev => vec![list.clone()],
        Size => vec![map.clone()],
        Lookup | Bound | Remove => vec![map.clone(), Str],
        Insert => vec![map.clone(), Str, Any],
        Strlen | Error => vec![Str],
    };
    arity(params.len())?;
    for (i, t) in params.into_iter().enumerate() {
        want(i, t)?;
    }
    let map_elem = || match &tys[0] {
        Ty::Map(t) => (**t).clone(),
        _ => Any,
    };
    Ok(match b {
        Token if rule_ctx.is_none() => {
            return err("`token()` is only available in semantic rules", pos);
        }
        Token | Error => Any,
        ToReal => Real,
        ToInt | Abs | Min | Max | Len | Size | Strlen => Int,
        Null | Bound => Bool,
        Hd => tys[0].elem().unwrap_or(Any),
        Tl | Rev => tys[0].clone().join(&list),
        EmptyMap => map,
        Insert => {
            let elem = map_elem();
            if !tys[2].compatible(&elem) {
                return err(format!("inserting `{}` into `map of {elem}`", tys[2]), pos);
            }
            Ty::Map(Arc::new(elem.join(&tys[2])))
        }
        Lookup => map_elem(),
        Remove => tys[0].clone(),
        Itoa | Rtoa => Str,
    })
}

fn check_binop(op: BinOp, lt: &Ty, rt: &Ty, pos: Pos) -> Result<Ty, CheckError> {
    use Ty::*;
    let both = |t: &Ty| lt.compatible(t) && rt.compatible(t);
    match op {
        BinOp::Add => {
            if both(&Int) {
                Ok(Int)
            } else if both(&Real) {
                Ok(Real)
            } else if both(&Str) {
                Ok(Str)
            } else {
                err(format!("`+` does not apply to `{lt}` and `{rt}`"), pos)
            }
        }
        BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if both(&Int) {
                Ok(Int)
            } else if both(&Real) {
                Ok(Real)
            } else {
                err(format!("`{op}` does not apply to `{lt}` and `{rt}`"), pos)
            }
        }
        BinOp::Rem => {
            if both(&Int) {
                Ok(Int)
            } else {
                err(format!("`%` does not apply to `{lt}` and `{rt}`"), pos)
            }
        }
        BinOp::Eq | BinOp::Ne => {
            if lt.compatible(rt) {
                Ok(Bool)
            } else {
                err(format!("cannot compare `{lt}` with `{rt}`"), pos)
            }
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            if both(&Int) || both(&Real) || both(&Str) {
                Ok(Bool)
            } else {
                err(format!("`{op}` does not apply to `{lt}` and `{rt}`"), pos)
            }
        }
        BinOp::And | BinOp::Or => {
            if both(&Bool) {
                Ok(Bool)
            } else {
                err(
                    format!("`{op}` needs booleans, found `{lt}` and `{rt}`"),
                    pos,
                )
            }
        }
        BinOp::Cons => {
            let want = Ty::List(Arc::new(lt.clone()));
            if rt.compatible(&want) {
                Ok(rt.join(&want))
            } else {
                err(format!("cannot cons `{lt}` onto `{rt}`"), pos)
            }
        }
        BinOp::Concat => {
            if both(&Str) {
                Ok(Str)
            } else if lt.is_list() && lt.compatible(rt) {
                Ok(lt.join(rt))
            } else {
                err(format!("`++` does not apply to `{lt}` and `{rt}`"), pos)
            }
        }
    }
}

/// Binds a pattern against the scrutinee type; returns the number of
/// binders pushed.
fn bind_pattern(pat: &Pat, scrutinee: &Ty, scope: &mut Scope) -> Result<usize, CheckError> {
    match pat {
        Pat::Wild(_) => Ok(0),
        Pat::Bind(n, _) => {
            scope.bind(n.clone(), scrutinee.clone());
            Ok(1)
        }
        Pat::Int(_, p) => {
            if scrutinee.compatible(&Ty::Int) {
                Ok(0)
            } else {
                err(format!("integer pattern against `{scrutinee}`"), *p)
            }
        }
        Pat::Bool(_, p) => {
            if scrutinee.compatible(&Ty::Bool) {
                Ok(0)
            } else {
                err(format!("boolean pattern against `{scrutinee}`"), *p)
            }
        }
        Pat::Str(_, p) => {
            if scrutinee.compatible(&Ty::Str) {
                Ok(0)
            } else {
                err(format!("string pattern against `{scrutinee}`"), *p)
            }
        }
        Pat::Nil(p) => {
            if scrutinee.is_list() {
                Ok(0)
            } else {
                err(format!("list pattern against `{scrutinee}`"), *p)
            }
        }
        Pat::Cons(h, t, p) => {
            if !scrutinee.is_list() {
                return err(format!("list pattern against `{scrutinee}`"), *p);
            }
            let elem = scrutinee.elem().unwrap_or(Ty::Any);
            let n1 = bind_pattern(h, &elem, scope)?;
            let n2 = bind_pattern(t, &Ty::List(Arc::new(elem)), scope)?;
            Ok(n1 + n2)
        }
        Pat::Tuple(ps, p) => {
            let elems = match scrutinee {
                Ty::Tuple(ts) if ts.len() == ps.len() => Some(ts),
                Ty::Any => None,
                other => {
                    return err(
                        format!("tuple pattern of {} against `{other}`", ps.len()),
                        *p,
                    )
                }
            };
            let mut n = 0;
            for (i, q) in ps.iter().enumerate() {
                n += bind_pattern(q, elems.map_or(&Ty::Any, |ts| &ts[i]), scope)?;
            }
            Ok(n)
        }
        Pat::Term { args, pos, .. } => {
            if !scrutinee.compatible(&Ty::Tree) {
                return err(format!("tree pattern against `{scrutinee}`"), *pos);
            }
            let mut n = 0;
            for q in args {
                n += bind_pattern(q, &Ty::Any, scope)?;
            }
            Ok(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::Unit;
    use crate::parser::parse_unit;

    use super::*;

    fn check_module_src(src: &str) -> Result<(), CheckError> {
        let Unit::Module(m) = parse_unit(src).unwrap() else {
            panic!("expected module")
        };
        Compiler::new().add_module(m)
    }

    fn check_ag_src(src: &str) -> Result<CheckedAg, CheckError> {
        let Unit::Ag(ag) = parse_unit(src).unwrap() else {
            panic!("expected AG")
        };
        Compiler::new().check_ag(ag)
    }

    #[test]
    fn well_typed_module() {
        check_module_src(
            r#"
            module m;
              type env = map of int;
              const empty : env = empty_map();
              function get(e : env, k : string) : int =
                if bound(e, k) then lookup(e, k) else 0 end;
              function suml(l : list of int) : int =
                case l of [] => 0 | x :: r => x + suml(r) end;
            end
            "#,
        )
        .unwrap();
    }

    #[test]
    fn type_errors_are_reported() {
        let e =
            check_module_src("module m; function f(x : int) : int = x + \"a\"; end").unwrap_err();
        assert!(e.message.contains("`+`"), "{e}");

        let e = check_module_src("module m; function f(x : int) : string = x; end").unwrap_err();
        assert!(e.message.contains("declared to return"), "{e}");

        let e = check_module_src("module m; const c : int = nope; end").unwrap_err();
        assert!(e.message.contains("unknown name"), "{e}");
    }

    #[test]
    fn overloading_and_polymorphism() {
        check_module_src(
            r#"
            module m;
              const a : int = 1 + 2;
              const b : real = 1.5 + 2.5;
              const c : string = "x" + "y";
              const d : list of int = 1 :: [];
              const e : list of string = ["a"] ++ ["b"];
            end
            "#,
        )
        .unwrap();
    }

    #[test]
    fn imports_and_opacity() {
        let mut c = Compiler::new();
        let Unit::Module(m) = parse_unit(
            r#"
            module base;
              export opaque handle;
              export mk, use_it;
              type handle = int;
              function mk() : handle = 42;
              function use_it(h : handle) : int = 1;
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        c.add_module(m).unwrap();
        // Importer can pass handles around but not exploit int-ness.
        let Unit::Module(m2) = parse_unit(
            r#"
            module client;
              import handle, mk, use_it from base;
              const h : handle = mk();
              const ok : int = use_it(mk());
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        c.add_module(m2).unwrap();
        let Unit::Module(m3) =
            parse_unit("module bad; import handle, mk from base; const x : int = mk(); end")
                .unwrap()
        else {
            panic!()
        };
        let e = c.add_module(m3).unwrap_err();
        assert!(e.message.contains("declared `int`"), "{e}");
    }

    #[test]
    fn ag_occurrence_resolution() {
        let ag = check_ag_src(
            r#"
            attribute grammar g;
              phylum S, A;
              operator mk : S ::= A A;
              operator leaf : A ::= ;
              synthesized v : int of S, A;
              for mk { S.v := A$1.v + A$2.v; }
              for leaf { A.v := 1; }
            end
            "#,
        )
        .unwrap();
        assert_eq!(ag.ast.operators.len(), 2);

        // Ambiguous occurrence without $k.
        let e = check_ag_src(
            r#"
            attribute grammar g;
              phylum S, A;
              operator mk : S ::= A A;
              operator leaf : A ::= ;
              synthesized v : int of S, A;
              for mk { S.v := A.v; }
              for leaf { A.v := 1; }
            end
            "#,
        )
        .unwrap_err();
        assert!(e.message.contains("occurs 2 times"), "{e}");
    }

    #[test]
    fn rule_must_define_outputs() {
        let e = check_ag_src(
            r#"
            attribute grammar g;
              phylum S, A;
              operator mk : S ::= A;
              operator leaf : A ::= ;
              synthesized v : int of S, A;
              for mk { A.v := 1; }
            end
            "#,
        )
        .unwrap_err();
        assert!(e.message.contains("input occurrence"), "{e}");
    }

    #[test]
    fn rule_type_mismatch() {
        let e = check_ag_src(
            r#"
            attribute grammar g;
              phylum S;
              operator leaf : S ::= ;
              synthesized v : int of S;
              for leaf { S.v := "nope"; }
            end
            "#,
        )
        .unwrap_err();
        assert!(e.message.contains("expects `int`"), "{e}");
    }

    #[test]
    fn token_only_in_rules() {
        let e = check_module_src("module m; const c : int = token(); end").unwrap_err();
        assert!(
            e.message.contains("only available in semantic rules"),
            "{e}"
        );
    }

    #[test]
    fn locals_are_visible_in_rules() {
        check_ag_src(
            r#"
            attribute grammar g;
              phylum S;
              operator leaf : S ::= ;
              synthesized v : int of S;
              for leaf {
                local t : int := 20;
                S.v := t + t + 2;
              }
            end
            "#,
        )
        .unwrap();
    }

    #[test]
    fn reexporting_imported_names_is_not_a_panic() {
        // `hub` exports entities it only imported; the export loop used to
        // expect a local definition and aborted the process.
        let mut c = Compiler::new();
        let Unit::Module(m) = parse_unit(
            r#"
            module base;
              export k, twice;
              const k : int = 21;
              function twice(n : int) : int = n * 2;
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        c.add_module(m).unwrap();
        let Unit::Module(m2) = parse_unit(
            r#"
            module hub;
              import k, twice from base;
              export k, twice;
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        c.add_module(m2).unwrap();
        let Unit::Module(m3) = parse_unit(
            r#"
            module user;
              import k, twice from hub;
              const answer : int = twice(k);
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        c.add_module(m3).unwrap();
    }

    #[test]
    fn functions_see_their_units_constants() {
        check_module_src("module m; const b : int = 41; function f(x : int) : int = x + b; end")
            .unwrap();
    }

    #[test]
    fn shadowed_binders_do_not_pull_false_deps() {
        // Dependency pulling reads the resolved bodies, so a binder is no
        // reference: `helper` binds `secret` with a `let` and `bump` as a
        // parameter, and `secret` is also a private const of `base` that
        // neither body reads.
        let mut c = Compiler::new();
        let Unit::Module(m) = parse_unit(
            r#"
            module base;
              export helper, bump;
              const secret : int = 7;
              function helper(n : int) : int = let secret = n in secret + 1 end;
              function bump(secret : int) : int = secret + 1;
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        c.add_module(m).unwrap();
        let Unit::Module(m2) = parse_unit(
            r#"
            module user;
              import helper, bump from base;
              const out : int = helper(1) + bump(1);
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        c.add_module(m2).unwrap();
        let env = &c.module("user").unwrap().env;
        let (_, consts) = env.reach();
        assert!(
            consts.iter().all(|&k| env.program.consts[k].0 != "secret"),
            "a shadowed binder is no read of the unrelated private const"
        );
    }
}
