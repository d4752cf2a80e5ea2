//! Type- and well-formedness checking of OLGA units.
//!
//! OLGA "is strongly typed, with polymorphism, overloading and type
//! inference" (paper §2.4). The checker resolves imports, types every
//! expression (operators are overloaded over int/real/string, list/map
//! primitives are polymorphic through [`Ty::Any`]), resolves attribute
//! occurrences `Phylum$k.attr` inside rule blocks, and verifies that rules
//! only define output occurrences. Exactly-once definition (after automatic
//! copy-rule insertion) is enforced by the lowering step.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

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

/// A checked function: resolved signature plus retained body.
#[derive(Clone, Debug)]
pub struct FunSig {
    /// Parameter names and types.
    pub params: Vec<(String, Ty)>,
    /// Return type.
    pub ret: Ty,
    /// The body, evaluated by the interpreter.
    pub body: Expr,
}

/// The entities visible inside one unit (own + imported).
#[derive(Clone, Debug, Default)]
pub struct UnitEnv {
    /// Named types.
    pub types: HashMap<String, Ty>,
    /// Constants: type and defining expression.
    pub consts: HashMap<String, (Ty, Expr)>,
    /// Functions.
    pub funcs: HashMap<String, FunSig>,
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
    /// `attrs[phylum][attr] = (synthesized, type)`.
    pub attrs: HashMap<String, HashMap<String, (bool, Ty)>>,
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
        let ag = ag;
        let mut env = UnitEnv::default();
        self.apply_imports(&ag.imports, &mut env)?;
        declare_types(&ag.types, &mut env)?;
        declare_functions(&ag.funcs, &mut env)?;
        declare_consts(&ag.consts, &mut env)?;

        // Phyla.
        let mut phyla: Vec<&str> = Vec::new();
        for p in &ag.phyla {
            if phyla.contains(&p.as_str()) {
                return err(format!("duplicate phylum `{p}`"), Pos { line: 1, col: 1 });
            }
            phyla.push(p);
        }
        if phyla.is_empty() {
            return err(
                format!("attribute grammar `{}` declares no phyla", ag.name),
                Pos { line: 1, col: 1 },
            );
        }
        if let Some(root) = &ag.root {
            if !phyla.contains(&root.as_str()) {
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
            if !phyla.contains(&op.lhs.as_str()) {
                return err(format!("unknown phylum `{}`", op.lhs), op.pos);
            }
            for r in &op.rhs {
                if !phyla.contains(&r.as_str()) {
                    return err(format!("unknown phylum `{r}`"), op.pos);
                }
            }
        }
        // Attributes.
        let mut attr_table = AgAttrTable {
            attrs: phyla
                .iter()
                .map(|&p| (p.to_string(), HashMap::new()))
                .collect(),
        };
        let mut classes: BTreeMap<String, AttrClass> = BTreeMap::new();
        for a in &ag.attrs {
            let ty = resolve_type(&a.ty, &env.types, a.pos).map_err(|(n, pos)| CheckError {
                message: format!("unknown type `{n}`"),
                pos,
            })?;
            match a.class {
                AttrClass::Plain => {}
                AttrClass::Concat => {
                    if !a.synthesized {
                        return err("`with concat` applies to synthesized attributes", a.pos);
                    }
                    if !ty.compatible(&Ty::List(Box::new(Ty::Any))) && !ty.compatible(&Ty::Str) {
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
                if per
                    .insert(a.name.clone(), (a.synthesized, ty.clone()))
                    .is_some()
                {
                    return err(
                        format!("attribute `{}` declared twice on `{p}`", a.name),
                        a.pos,
                    );
                }
            }
        }

        // Rule blocks.
        for phase in &ag.phases {
            for block in &phase.blocks {
                let Some(op) = op_by_name.get(block.operator.as_str()) else {
                    return err(format!("unknown operator `{}`", block.operator), block.pos);
                };
                let ctx = OpCtx::new(op, &attr_table);
                let mut locals: HashMap<String, Ty> = HashMap::new();
                for l in &block.locals {
                    let ty =
                        resolve_type(&l.ty, &env.types, l.pos).map_err(|(n, pos)| CheckError {
                            message: format!("unknown type `{n}`"),
                            pos,
                        })?;
                    let mut scope = Scope::new();
                    let got = check_expr(
                        &l.body,
                        &env,
                        &mut scope,
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
                for rule in &block.rules {
                    let want = match &rule.target {
                        RuleTarget::Occ(occ) => {
                            let (pos_idx, syn, ty) = ctx.resolve(occ)?;
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
                            ty
                        }
                        RuleTarget::Local(name, pos) => match locals.get(name) {
                            Some(t) => t.clone(),
                            None => return err(format!("unknown local `{name}`"), *pos),
                        },
                    };
                    let mut scope = Scope::new();
                    let got = check_expr(
                        &rule.body,
                        &env,
                        &mut scope,
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

    fn check_module(&self, m: Module) -> Result<CheckedModule, CheckError> {
        let mut env = UnitEnv::default();
        self.apply_imports(&m.imports, &mut env)?;
        declare_types(&m.types, &mut env)?;
        declare_functions(&m.funcs, &mut env)?;
        declare_consts(&m.consts, &mut env)?;

        // Export surface. Opaque type exports abstract the representation,
        // so exported signatures are re-resolved from their *syntactic*
        // types under the abstracted view.
        let mut exports = UnitEnv::default();
        if m.exports.is_empty() {
            exports = env.clone();
        } else {
            let mut view = env.types.clone();
            for e in &m.exports {
                if e.opaque && env.types.contains_key(&e.name) {
                    view.insert(e.name.clone(), Ty::Opaque(e.name.clone()));
                }
            }
            let reresolve = |te: &crate::ast::TypeExpr, pos: Pos| {
                resolve_type(te, &view, pos).map_err(|(n, pos)| CheckError {
                    message: format!("unknown type `{n}`"),
                    pos,
                })
            };
            for e in &m.exports {
                let mut found = false;
                if let Some(t) = view.get(&e.name) {
                    exports.types.insert(e.name.clone(), t.clone());
                    found = true;
                }
                if let Some(imported) = env.consts.get(&e.name) {
                    // Defined here: re-resolve from the syntactic type under
                    // the abstracted view. Imported: re-export as checked.
                    match m.consts.iter().find(|c| c.name == e.name) {
                        Some(def) => {
                            let ty = reresolve(&def.ty, def.pos)?;
                            exports
                                .consts
                                .insert(e.name.clone(), (ty, def.body.clone()));
                        }
                        None => {
                            exports.consts.insert(e.name.clone(), imported.clone());
                        }
                    }
                    found = true;
                }
                if let Some(imported) = env.funcs.get(&e.name) {
                    match m.funcs.iter().find(|f| f.name == e.name) {
                        Some(def) => {
                            let params = def
                                .params
                                .iter()
                                .map(|(n, te)| reresolve(te, def.pos).map(|t| (n.clone(), t)))
                                .collect::<Result<Vec<_>, _>>()?;
                            let ret = reresolve(&def.ret, def.pos)?;
                            exports.funcs.insert(
                                e.name.clone(),
                                FunSig {
                                    params,
                                    ret,
                                    body: def.body.clone(),
                                },
                            );
                        }
                        None => {
                            exports.funcs.insert(e.name.clone(), imported.clone());
                        }
                    }
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

    fn apply_imports(&self, imports: &[Import], env: &mut UnitEnv) -> Result<(), CheckError> {
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
                    pull_private_deps(&c.1, &module.env, env);
                    found = true;
                }
                if let Some(f) = module.exports.funcs.get(name) {
                    env.funcs.insert(name.clone(), f.clone());
                    pull_private_deps(&f.body, &module.env, env);
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
        Ok(())
    }
}

/// Imported bodies may reference entities of their defining module that the
/// importer never named (private helpers, transitive constants). Pull the
/// transitive closure of those dependencies into the importing environment
/// so the interpreter (and the translators) can resolve them.
fn pull_private_deps(body: &Expr, src: &UnitEnv, dst: &mut UnitEnv) {
    let mut queue: Vec<String> = Vec::new();
    collect_refs(body, &mut queue);
    while let Some(n) = queue.pop() {
        if let Some(c) = src.consts.get(&n) {
            if !dst.consts.contains_key(&n) {
                dst.consts.insert(n.clone(), c.clone());
                collect_refs(&c.1, &mut queue);
            }
        }
        if let Some(f) = src.funcs.get(&n) {
            if !dst.funcs.contains_key(&n) {
                let f = f.clone();
                collect_refs(&f.body, &mut queue);
                dst.funcs.insert(n.clone(), f);
            }
        }
    }
}

/// Names an expression references as free variables or calls. The scan is
/// binder-aware: `let`- and `case`-bound names shadow outer constants, so
/// a shadowed occurrence is not a reference (a naive scan would pull — or
/// later cycle-check — entities the body never uses). Call names are always
/// collected: value binders never shadow the function namespace.
fn collect_refs(e: &Expr, out: &mut Vec<String>) {
    let mut bound = Vec::new();
    collect_refs_bound(e, &mut bound, out);
}

fn collect_refs_bound(e: &Expr, bound: &mut Vec<String>, out: &mut Vec<String>) {
    match e {
        Expr::Var(n, _) if !bound.iter().any(|b| b == n) => out.push(n.clone()),
        Expr::Var(..) => {}
        Expr::Call { name, args, .. } => {
            out.push(name.clone());
            for a in args {
                collect_refs_bound(a, bound, out);
            }
        }
        Expr::Unop { expr, .. } => collect_refs_bound(expr, bound, out),
        Expr::Binop { lhs, rhs, .. } => {
            collect_refs_bound(lhs, bound, out);
            collect_refs_bound(rhs, bound, out);
        }
        Expr::If {
            cond, then, els, ..
        } => {
            collect_refs_bound(cond, bound, out);
            collect_refs_bound(then, bound, out);
            collect_refs_bound(els, bound, out);
        }
        Expr::Let {
            name, value, body, ..
        } => {
            collect_refs_bound(value, bound, out);
            bound.push(name.clone());
            collect_refs_bound(body, bound, out);
            bound.pop();
        }
        Expr::Case {
            scrutinee, arms, ..
        } => {
            collect_refs_bound(scrutinee, bound, out);
            for (p, b) in arms {
                let before = bound.len();
                bound.extend(p.binders().into_iter().map(String::from));
                collect_refs_bound(b, bound, out);
                bound.truncate(before);
            }
        }
        Expr::ListLit(items, _) | Expr::TupleLit(items, _) => {
            for i in items {
                collect_refs_bound(i, bound, out);
            }
        }
        Expr::TreeCons { args, .. } => {
            for a in args {
                collect_refs_bound(a, bound, out);
            }
        }
        _ => {}
    }
}

fn declare_types(types: &[TypeDef], env: &mut UnitEnv) -> Result<(), CheckError> {
    for t in types {
        let ty = resolve_type(&t.ty, &env.types, t.pos).map_err(|(n, pos)| CheckError {
            message: format!("unknown type `{n}`"),
            pos,
        })?;
        if env.types.insert(t.name.clone(), ty).is_some() {
            return err(format!("duplicate type `{}`", t.name), t.pos);
        }
    }
    Ok(())
}

fn declare_functions(funcs: &[FunDef], env: &mut UnitEnv) -> Result<(), CheckError> {
    // Two passes: signatures first so functions can be mutually recursive.
    for f in funcs {
        let params: Vec<(String, Ty)> = f
            .params
            .iter()
            .map(|(n, te)| {
                resolve_type(te, &env.types, f.pos)
                    .map(|t| (n.clone(), t))
                    .map_err(|(n, pos)| CheckError {
                        message: format!("unknown type `{n}`"),
                        pos,
                    })
            })
            .collect::<Result<_, _>>()?;
        let ret = resolve_type(&f.ret, &env.types, f.pos).map_err(|(n, pos)| CheckError {
            message: format!("unknown type `{n}`"),
            pos,
        })?;
        if env
            .funcs
            .insert(
                f.name.clone(),
                FunSig {
                    params,
                    ret,
                    body: f.body.clone(),
                },
            )
            .is_some()
        {
            return err(format!("duplicate function `{}`", f.name), f.pos);
        }
    }
    for f in funcs {
        let sig = env.funcs[&f.name].clone();
        let mut scope = Scope::new();
        for (n, t) in &sig.params {
            scope.bind(n.clone(), t.clone());
        }
        let got = check_expr(&f.body, env, &mut scope, None)?;
        if !got.compatible(&sig.ret) {
            return err(
                format!(
                    "function `{}` declared to return `{}` but body has type `{got}`",
                    f.name, sig.ret
                ),
                f.pos,
            );
        }
    }
    Ok(())
}

fn declare_consts(consts: &[ConstDef], env: &mut UnitEnv) -> Result<(), CheckError> {
    // Two passes so constants may reference each other regardless of
    // declaration order (cycles are caught at evaluation time).
    for c in consts {
        let ty = resolve_type(&c.ty, &env.types, c.pos).map_err(|(n, pos)| CheckError {
            message: format!("unknown type `{n}`"),
            pos,
        })?;
        if env
            .consts
            .insert(c.name.clone(), (ty, c.body.clone()))
            .is_some()
        {
            return err(format!("duplicate constant `{}`", c.name), c.pos);
        }
    }
    for c in consts {
        let ty = env.consts[&c.name].0.clone();
        let mut scope = Scope::new();
        let got = check_expr(&c.body, env, &mut scope, None)?;
        if !got.compatible(&ty) {
            return err(
                format!(
                    "constant `{}` declared `{ty}` but defined with `{got}`",
                    c.name
                ),
                c.pos,
            );
        }
    }
    Ok(())
}

/// Occurrence-resolution context for one operator.
#[derive(Clone, Debug)]
pub(crate) struct OpCtx {
    /// Phylum name at each position (0 = LHS).
    pub positions: Vec<String>,
    /// Attribute table reference (cloned rows for the phyla involved).
    attrs: HashMap<String, HashMap<String, (bool, Ty)>>,
}

impl OpCtx {
    /// Builds the context of `op`.
    pub fn new(op: &OpDef, table: &AgAttrTable) -> OpCtx {
        let mut positions = vec![op.lhs.clone()];
        positions.extend(op.rhs.iter().cloned());
        let attrs = positions
            .iter()
            .map(|p| (p.clone(), table.attrs.get(p).cloned().unwrap_or_default()))
            .collect();
        OpCtx { positions, attrs }
    }

    /// Resolves `occ` to `(position, synthesized?, type)`.
    ///
    /// # Errors
    ///
    /// Reports unknown phyla/attributes and missing/invalid `$k` indices.
    pub fn resolve(&self, occ: &OccRef) -> Result<(u16, bool, Ty), CheckError> {
        let hits: Vec<u16> = self
            .positions
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == occ.name)
            .map(|(i, _)| i as u16)
            .collect();
        if hits.is_empty() {
            return err(
                format!("phylum `{}` does not occur in this production", occ.name),
                occ.pos,
            );
        }
        let pos_idx = match occ.index {
            None if hits.len() == 1 => hits[0],
            None => {
                return err(
                    format!(
                        "phylum `{}` occurs {} times; use `{}$k.{}`",
                        occ.name,
                        hits.len(),
                        occ.name,
                        occ.attr
                    ),
                    occ.pos,
                )
            }
            Some(k) if (k as usize) <= hits.len() => hits[k as usize - 1],
            Some(k) => {
                return err(
                    format!(
                        "occurrence index ${k} out of range (phylum `{}` occurs {} times)",
                        occ.name,
                        hits.len()
                    ),
                    occ.pos,
                )
            }
        };
        match self.attrs[&occ.name].get(&occ.attr) {
            Some((syn, ty)) => Ok((pos_idx, *syn, ty.clone())),
            None => err(
                format!("attribute `{}` is not declared on `{}`", occ.attr, occ.name),
                occ.pos,
            ),
        }
    }
}

/// Context passed into rule-body checking.
struct CtxWithLocals<'a> {
    ctx: &'a OpCtx,
    locals: &'a HashMap<String, Ty>,
}

/// Lexical scope of binders.
#[derive(Default)]
struct Scope {
    stack: Vec<(String, Ty)>,
}

impl Scope {
    fn new() -> Self {
        Scope::default()
    }
    fn bind(&mut self, name: String, ty: Ty) {
        self.stack.push((name, ty));
    }
    fn unbind(&mut self, n: usize) {
        self.stack.truncate(self.stack.len() - n);
    }
    fn lookup(&self, name: &str) -> Option<&Ty> {
        self.stack
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }
}

/// Types an expression.
fn check_expr(
    e: &Expr,
    env: &UnitEnv,
    scope: &mut Scope,
    rule_ctx: Option<&CtxWithLocals>,
) -> Result<Ty, CheckError> {
    match e {
        Expr::Int(..) => Ok(Ty::Int),
        Expr::Real(..) => Ok(Ty::Real),
        Expr::Bool(..) => Ok(Ty::Bool),
        Expr::Str(..) => Ok(Ty::Str),
        Expr::Var(name, pos) => {
            if let Some(t) = scope.lookup(name) {
                return Ok(t.clone());
            }
            if let Some(ctx) = rule_ctx {
                if let Some(t) = ctx.locals.get(name) {
                    return Ok(t.clone());
                }
            }
            if let Some((t, _)) = env.consts.get(name) {
                return Ok(t.clone());
            }
            err(format!("unknown name `{name}`"), *pos)
        }
        Expr::Occ(occ) => match rule_ctx {
            Some(ctx) => ctx.ctx.resolve(occ).map(|(_, _, t)| t),
            None => err(
                "attribute occurrences are only allowed in semantic rules",
                occ.pos,
            ),
        },
        Expr::Call { name, args, pos } => check_call(name, args, *pos, env, scope, rule_ctx),
        Expr::Unop { op, expr, pos } => {
            let t = check_expr(expr, env, scope, rule_ctx)?;
            match (*op, &t) {
                ("-", Ty::Int) | ("-", Ty::Real) | ("-", Ty::Any) => Ok(t),
                ("not", Ty::Bool) | ("not", Ty::Any) => Ok(Ty::Bool),
                _ => err(format!("operator `{op}` does not apply to `{t}`"), *pos),
            }
        }
        Expr::Binop { op, lhs, rhs, pos } => {
            let lt = check_expr(lhs, env, scope, rule_ctx)?;
            let rt = check_expr(rhs, env, scope, rule_ctx)?;
            check_binop(op, &lt, &rt, *pos)
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
        Expr::ListLit(items, _) => {
            let mut elem = Ty::Any;
            for (i, it) in items.iter().enumerate() {
                let t = check_expr(it, env, scope, rule_ctx)?;
                if !t.compatible(&elem) {
                    return err(
                        format!("list element {i} has type `{t}`, expected `{elem}`"),
                        it.pos(),
                    );
                }
                elem = elem.join(&t);
            }
            Ok(Ty::List(Box::new(elem)))
        }
        Expr::TupleLit(items, _) => {
            let ts = items
                .iter()
                .map(|it| check_expr(it, env, scope, rule_ctx))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Ty::Tuple(ts))
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
    args: &[Expr],
    pos: Pos,
    env: &UnitEnv,
    scope: &mut Scope,
    rule_ctx: Option<&CtxWithLocals>,
) -> Result<Ty, CheckError> {
    let tys: Vec<Ty> = args
        .iter()
        .map(|a| check_expr(a, env, scope, rule_ctx))
        .collect::<Result<_, _>>()?;
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
    match name {
        "token" => {
            arity(0)?;
            if rule_ctx.is_none() {
                return err("`token()` is only available in semantic rules", pos);
            }
            Ok(Ty::Any)
        }
        "to_real" => {
            arity(1)?;
            want(0, Ty::Int)?;
            Ok(Ty::Real)
        }
        "to_int" => {
            arity(1)?;
            want(0, Ty::Real)?;
            Ok(Ty::Int)
        }
        "abs" => {
            arity(1)?;
            want(0, Ty::Int)?;
            Ok(Ty::Int)
        }
        "min" | "max" => {
            arity(2)?;
            want(0, Ty::Int)?;
            want(1, Ty::Int)?;
            Ok(Ty::Int)
        }
        "len" => {
            arity(1)?;
            want(0, Ty::List(Box::new(Ty::Any)))?;
            Ok(Ty::Int)
        }
        "null" => {
            arity(1)?;
            want(0, Ty::List(Box::new(Ty::Any)))?;
            Ok(Ty::Bool)
        }
        "hd" => {
            arity(1)?;
            want(0, Ty::List(Box::new(Ty::Any)))?;
            Ok(tys[0].elem().unwrap_or(Ty::Any))
        }
        "tl" | "rev" => {
            arity(1)?;
            want(0, Ty::List(Box::new(Ty::Any)))?;
            Ok(tys[0].clone().join(&Ty::List(Box::new(Ty::Any))))
        }
        "empty_map" => {
            arity(0)?;
            Ok(Ty::Map(Box::new(Ty::Any)))
        }
        "size" => {
            arity(1)?;
            want(0, Ty::Map(Box::new(Ty::Any)))?;
            Ok(Ty::Int)
        }
        "insert" => {
            arity(3)?;
            want(0, Ty::Map(Box::new(Ty::Any)))?;
            want(1, Ty::Str)?;
            let elem = match &tys[0] {
                Ty::Map(t) => (**t).clone(),
                _ => Ty::Any,
            };
            if !tys[2].compatible(&elem) {
                return err(format!("inserting `{}` into `map of {elem}`", tys[2]), pos);
            }
            Ok(Ty::Map(Box::new(elem.join(&tys[2]))))
        }
        "lookup" => {
            arity(2)?;
            want(0, Ty::Map(Box::new(Ty::Any)))?;
            want(1, Ty::Str)?;
            Ok(match &tys[0] {
                Ty::Map(t) => (**t).clone(),
                _ => Ty::Any,
            })
        }
        "bound" => {
            arity(2)?;
            want(0, Ty::Map(Box::new(Ty::Any)))?;
            want(1, Ty::Str)?;
            Ok(Ty::Bool)
        }
        "remove" => {
            arity(2)?;
            want(0, Ty::Map(Box::new(Ty::Any)))?;
            want(1, Ty::Str)?;
            Ok(tys[0].clone())
        }
        "itoa" => {
            arity(1)?;
            want(0, Ty::Int)?;
            Ok(Ty::Str)
        }
        "rtoa" => {
            arity(1)?;
            want(0, Ty::Real)?;
            Ok(Ty::Str)
        }
        "strlen" => {
            arity(1)?;
            want(0, Ty::Str)?;
            Ok(Ty::Int)
        }
        "error" => {
            arity(1)?;
            want(0, Ty::Str)?;
            Ok(Ty::Any)
        }
        _ => match env.funcs.get(name) {
            Some(sig) => {
                arity(sig.params.len())?;
                for (i, (_, pt)) in sig.params.iter().enumerate() {
                    want(i, pt.clone())?;
                }
                Ok(sig.ret.clone())
            }
            None => err(format!("unknown function `{name}`"), pos),
        },
    }
}

fn check_binop(op: &str, lt: &Ty, rt: &Ty, pos: Pos) -> Result<Ty, CheckError> {
    use Ty::*;
    let both = |t: &Ty| lt.compatible(t) && rt.compatible(t);
    match op {
        "+" => {
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
        "-" | "*" | "/" => {
            if both(&Int) {
                Ok(Int)
            } else if both(&Real) {
                Ok(Real)
            } else {
                err(format!("`{op}` does not apply to `{lt}` and `{rt}`"), pos)
            }
        }
        "%" => {
            if both(&Int) {
                Ok(Int)
            } else {
                err(format!("`%` does not apply to `{lt}` and `{rt}`"), pos)
            }
        }
        "=" | "<>" => {
            if lt.compatible(rt) {
                Ok(Bool)
            } else {
                err(format!("cannot compare `{lt}` with `{rt}`"), pos)
            }
        }
        "<" | "<=" | ">" | ">=" => {
            if both(&Int) || both(&Real) || both(&Str) {
                Ok(Bool)
            } else {
                err(format!("`{op}` does not apply to `{lt}` and `{rt}`"), pos)
            }
        }
        "and" | "or" => {
            if both(&Bool) {
                Ok(Bool)
            } else {
                err(
                    format!("`{op}` needs booleans, found `{lt}` and `{rt}`"),
                    pos,
                )
            }
        }
        "::" => {
            let want = Ty::List(Box::new(lt.clone()));
            if rt.compatible(&want) {
                Ok(rt.join(&want))
            } else {
                err(format!("cannot cons `{lt}` onto `{rt}`"), pos)
            }
        }
        "++" => {
            if both(&Str) {
                Ok(Str)
            } else if lt.compatible(&Ty::List(Box::new(Ty::Any))) && lt.compatible(rt) {
                Ok(lt.join(rt))
            } else {
                err(format!("`++` does not apply to `{lt}` and `{rt}`"), pos)
            }
        }
        other => err(format!("unknown operator `{other}`"), pos),
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
            if scrutinee.compatible(&Ty::List(Box::new(Ty::Any))) {
                Ok(0)
            } else {
                err(format!("list pattern against `{scrutinee}`"), *p)
            }
        }
        Pat::Cons(h, t, p) => {
            if !scrutinee.compatible(&Ty::List(Box::new(Ty::Any))) {
                return err(format!("list pattern against `{scrutinee}`"), *p);
            }
            let elem = scrutinee.elem().unwrap_or(Ty::Any);
            let n1 = bind_pattern(h, &elem, scope)?;
            let n2 = bind_pattern(t, &Ty::List(Box::new(elem)), scope)?;
            Ok(n1 + n2)
        }
        Pat::Tuple(ps, p) => {
            let elems: Vec<Ty> = match scrutinee {
                Ty::Tuple(ts) if ts.len() == ps.len() => ts.clone(),
                Ty::Any => vec![Ty::Any; ps.len()],
                other => {
                    return err(
                        format!("tuple pattern of {} against `{other}`", ps.len()),
                        *p,
                    )
                }
            };
            let mut n = 0;
            for (q, t) in ps.iter().zip(&elems) {
                n += bind_pattern(q, t, scope)?;
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
    fn shadowed_binders_do_not_pull_false_deps() {
        // The free-variable scan that drives dependency pulling must not
        // report `let`/`case`-bound names: `helper`'s body binds `secret`,
        // which shares its name with a private const of `base` that the
        // body never actually references.
        let mut c = Compiler::new();
        let Unit::Module(m) = parse_unit(
            r#"
            module base;
              export helper;
              const secret : int = 7;
              function helper(n : int) : int = let secret = n in secret + 1 end;
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
              import helper from base;
              const out : int = helper(1);
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        c.add_module(m2).unwrap();
        let env = &c.module("user").unwrap().env;
        assert!(
            !env.consts.contains_key("secret"),
            "shadowed binder must not pull the unrelated private const"
        );
    }
}
