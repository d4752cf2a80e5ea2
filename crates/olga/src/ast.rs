//! Abstract syntax of the OLGA subset.

use fnc2_ag::Value;

use crate::lexer::Pos;

/// A compilation unit: a module or an attribute grammar (paper §2.4:
/// "compilation units are declaration and definition modules … and AGs").
#[derive(Clone, Debug)]
pub enum Unit {
    /// A module of types, constants and functions.
    Module(Module),
    /// An attribute grammar (a tree-to-tree mapping).
    Ag(AgDef),
}

impl Unit {
    /// The unit's name.
    pub fn name(&self) -> &str {
        match self {
            Unit::Module(m) => &m.name,
            Unit::Ag(a) => &a.name,
        }
    }
}

/// `import a, b from M;`
#[derive(Clone, Debug)]
pub struct Import {
    /// Imported entity names.
    pub names: Vec<String>,
    /// Source module.
    pub from: String,
    /// Position of the `import`.
    pub pos: Pos,
}

/// `export x;` or `export opaque T;`
#[derive(Clone, Debug)]
pub struct Export {
    /// Exported name.
    pub name: String,
    /// Opaque exports hide a type's representation.
    pub opaque: bool,
}

/// `type T = <type>;`
#[derive(Clone, Debug)]
pub struct TypeDef {
    /// The type's name.
    pub name: String,
    /// Its definition.
    pub ty: TypeExpr,
    /// Position.
    pub pos: Pos,
}

/// `const c : T = e;`
#[derive(Clone, Debug)]
pub struct ConstDef {
    /// The constant's name.
    pub name: String,
    /// Declared type.
    pub ty: TypeExpr,
    /// Defining expression; the checker moves it, resolved, into the
    /// unit's [`Program`](crate::Program) and leaves a placeholder.
    pub body: Expr,
    /// Position.
    pub pos: Pos,
}

/// `function f(x : T, …) : R = e;`
#[derive(Clone, Debug)]
pub struct FunDef {
    /// The function's name.
    pub name: String,
    /// Parameters with declared types.
    pub params: Vec<(String, TypeExpr)>,
    /// Return type.
    pub ret: TypeExpr,
    /// Body expression; the checker moves it, resolved, into the unit's
    /// [`Program`](crate::Program) and leaves a placeholder.
    pub body: Expr,
    /// Position.
    pub pos: Pos,
}

/// A module.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Imports.
    pub imports: Vec<Import>,
    /// Exports (empty = export everything).
    pub exports: Vec<Export>,
    /// Type definitions.
    pub types: Vec<TypeDef>,
    /// Constants.
    pub consts: Vec<ConstDef>,
    /// Functions.
    pub funcs: Vec<FunDef>,
}

/// `op : Lhs ::= Rhs…;`
#[derive(Clone, Debug)]
pub struct OpDef {
    /// Operator name.
    pub name: String,
    /// LHS phylum.
    pub lhs: String,
    /// RHS phyla.
    pub rhs: Vec<String>,
    /// Position.
    pub pos: Pos,
}

/// The semantic-rule model attached to an attribute declaration (paper
/// §2.4 / \[35\]: "attribute classes and semantic rules models … the
/// system will automatically instantiate these models into actual semantic
/// rules whenever necessary and applicable").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AttrClass {
    /// No model: only the default same-name copy rules are generated.
    #[default]
    Plain,
    /// Synthesized collection: a missing LHS rule concatenates the
    /// same-named attribute of every child that has it (`[]` if none).
    Concat,
    /// Synthesized collection: a missing LHS rule sums the same-named
    /// attribute over the children (`0` if none).
    Sum,
}

/// `synthesized value : real of Number, Seq;`
#[derive(Clone, Debug)]
pub struct AttrDef {
    /// True for synthesized, false for inherited.
    pub synthesized: bool,
    /// Attribute name.
    pub name: String,
    /// Value type.
    pub ty: TypeExpr,
    /// Phyla carrying the attribute.
    pub phyla: Vec<String>,
    /// The rule model (`with concat` / `with sum`).
    pub class: AttrClass,
    /// Position.
    pub pos: Pos,
}

/// `threaded lab : int of Stmts, Stmt;` — declares the inherited `lab_in`
/// and synthesized `lab_out` pair and instantiates the *threading* rule
/// model: the state snakes left-to-right through the children that carry
/// the pair, entering at `lab_in` and leaving at `lab_out`.
#[derive(Clone, Debug)]
pub struct ThreadDef {
    /// Base name (`lab` → `lab_in` / `lab_out`).
    pub name: String,
    /// Value type.
    pub ty: TypeExpr,
    /// Phyla carrying the pair.
    pub phyla: Vec<String>,
    /// Position.
    pub pos: Pos,
}

/// `local tmp : T := e;` inside a rule block.
#[derive(Clone, Debug)]
pub struct LocalDef {
    /// Local attribute name.
    pub name: String,
    /// Type.
    pub ty: TypeExpr,
    /// Defining expression.
    pub body: Expr,
    /// Position.
    pub pos: Pos,
}

/// An attribute-occurrence reference `Phylum.attr` / `Phylum$2.attr`.
#[derive(Clone, Debug, PartialEq)]
pub struct OccRef {
    /// Phylum name (or, after resolution, a local/variable name when
    /// `attr` is `None`).
    pub name: String,
    /// The `$k` disambiguator for repeated phyla (1-based among the
    /// occurrences of that phylum, LHS first).
    pub index: Option<u32>,
    /// Attribute name.
    pub attr: String,
    /// Position.
    pub pos: Pos,
}

/// `Target := expr;`
#[derive(Clone, Debug)]
pub struct Rule {
    /// Defined occurrence (`name` may be a local attribute, with no dot).
    pub target: RuleTarget,
    /// Defining expression.
    pub body: Expr,
    /// Position.
    pub pos: Pos,
}

/// The left-hand side of a rule.
#[derive(Clone, Debug)]
pub enum RuleTarget {
    /// An attribute occurrence.
    Occ(OccRef),
    /// A production-local attribute.
    Local(String, Pos),
}

/// `for op { … }` — the semantic rules of one operator.
#[derive(Clone, Debug)]
pub struct RuleBlock {
    /// The operator name.
    pub operator: String,
    /// Production-local attributes.
    pub locals: Vec<LocalDef>,
    /// The semantic rules.
    pub rules: Vec<Rule>,
    /// Position.
    pub pos: Pos,
}

/// A phase: a named group of rule blocks (paper §2.4: "an AG can be
/// structured into phases… a given production may appear in several phases
/// or not at all").
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase name ("" for the anonymous top-level phase).
    pub name: String,
    /// Rule blocks.
    pub blocks: Vec<RuleBlock>,
}

/// An attribute-grammar definition.
#[derive(Clone, Debug, Default)]
pub struct AgDef {
    /// AG name.
    pub name: String,
    /// Imports.
    pub imports: Vec<Import>,
    /// Declared phyla.
    pub phyla: Vec<String>,
    /// The root phylum (default: the first declared).
    pub root: Option<String>,
    /// Operators (productions).
    pub operators: Vec<OpDef>,
    /// Attribute declarations.
    pub attrs: Vec<AttrDef>,
    /// Threaded attribute pairs.
    pub threads: Vec<ThreadDef>,
    /// AG-local functions.
    pub funcs: Vec<FunDef>,
    /// AG-local constants.
    pub consts: Vec<ConstDef>,
    /// AG-local types.
    pub types: Vec<TypeDef>,
    /// Phases (including the anonymous one).
    pub phases: Vec<Phase>,
}

/// A type expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeExpr {
    /// `int`
    Int,
    /// `real`
    Real,
    /// `bool`
    Bool,
    /// `string`
    Str,
    /// `unit`
    Unit,
    /// `tree` — a constructed output-tree term.
    Tree,
    /// `list of T`
    List(Box<TypeExpr>),
    /// `map of T` (string keys).
    Map(Box<TypeExpr>),
    /// `tuple (T, …)`
    Tuple(Vec<TypeExpr>),
    /// A named (user-defined, possibly opaque) type.
    Named(String),
}

/// What a variable denotes. The parser leaves every variable unresolved;
/// the checker marks it, and everything after the checker reads the mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarRef {
    /// Not resolved yet.
    Unresolved,
    /// A function parameter, `let` or `case` binder: its slot in the
    /// frame, which holds a function's parameters first and then, outermost
    /// first, every binder in scope and every argument already evaluated
    /// for an enclosing call of a user function; a pattern's binders are in
    /// left-to-right order.
    Binder(usize),
    /// A production-local attribute of the enclosing rule block.
    Local,
    /// A constant: its id in the compiler's [`Program`](crate::Program).
    Const(usize),
}

/// What a call invokes, as the checker resolved it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callee {
    /// Not resolved yet.
    Unresolved,
    /// A builtin.
    Builtin(Builtin),
    /// A function of the unit, its own or imported: its id in the
    /// compiler's [`Program`](crate::Program).
    User(usize),
}

/// Declares a fieldless enum of OLGA names, with its spelling both ways.
macro_rules! named {
    ($(#[$doc:meta])* $ty:ident { $($v:ident = $s:literal,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $ty { $(#[doc = concat!("`", $s, "`")] $v,)* }

        impl $ty {
            /// The OLGA spelling.
            pub fn name(self) -> &'static str {
                match self { $($ty::$v => $s,)* }
            }

            /// The value spelled `name`, if any.
            pub fn from_name(name: &str) -> Option<$ty> {
                match name { $($s => Some($ty::$v),)* _ => None }
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

named! {
    /// A builtin function.
    Builtin {
        Token = "token", ToReal = "to_real", ToInt = "to_int", Abs = "abs", Min = "min",
        Max = "max", Len = "len", Null = "null", Hd = "hd", Tl = "tl", Rev = "rev",
        EmptyMap = "empty_map", Size = "size", Insert = "insert", Lookup = "lookup",
        Bound = "bound", Remove = "remove", Itoa = "itoa", Rtoa = "rtoa", Strlen = "strlen",
        Error = "error",
    }
}

named! {
    /// A binary operator.
    BinOp {
        Or = "or", And = "and", Eq = "=", Ne = "<>", Lt = "<", Le = "<=", Gt = ">", Ge = ">=",
        Cons = "::", Concat = "++", Add = "+", Sub = "-", Mul = "*", Div = "/", Rem = "%",
    }
}

named! {
    /// A unary operator.
    UnOp { Neg = "-", Not = "not", }
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Pos),
    /// Real literal.
    Real(f64, Pos),
    /// Boolean literal.
    Bool(bool, Pos),
    /// String literal, built once.
    Str(Value, Pos),
    /// A variable: a parameter, `let` or `case` binder, production-local
    /// attribute or constant, as the checker resolved it.
    Var {
        /// The name.
        name: String,
        /// What the name denotes.
        var: VarRef,
        /// Position.
        pos: Pos,
    },
    /// Argument `k` of a lowered rule: one of the occurrence, local and
    /// `token()` reads that the lowering takes out of a rule body.
    Arg(usize),
    /// An attribute occurrence.
    Occ(OccRef),
    /// Function call.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// What the name calls.
        callee: Callee,
        /// Position.
        pos: Pos,
    },
    /// Unary operator (`-`, `not`).
    Unop {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Position.
        pos: Pos,
    },
    /// Binary operator.
    Binop {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Position.
        pos: Pos,
    },
    /// `if c then t else e end`
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then branch.
        then: Box<Expr>,
        /// Else branch.
        els: Box<Expr>,
        /// Position.
        pos: Pos,
    },
    /// `let x = v in body end`
    Let {
        /// Binder.
        name: String,
        /// Bound value.
        value: Box<Expr>,
        /// Body.
        body: Box<Expr>,
        /// Position.
        pos: Pos,
    },
    /// `case e of p => e | … end`
    Case {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms.
        arms: Vec<(Pat, Expr)>,
        /// Position.
        pos: Pos,
    },
    /// `[e, …]`, and its value, built once, when every item is a literal.
    ListLit(Vec<Expr>, Option<Value>, Pos),
    /// `(e, e, …)` (2+ elements).
    TupleLit(Vec<Expr>, Pos),
    /// `@op(e, …)` — output-tree construction (tree-to-tree mapping).
    TreeCons {
        /// Constructor (operator) name.
        op: String,
        /// Children.
        args: Vec<Expr>,
        /// Position.
        pos: Pos,
    },
}

impl Expr {
    /// The expression's source position.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Int(_, p)
            | Expr::Real(_, p)
            | Expr::Bool(_, p)
            | Expr::Str(_, p)
            | Expr::ListLit(_, _, p)
            | Expr::TupleLit(_, p) => *p,
            Expr::Arg(_) => Pos { line: 0, col: 0 },
            Expr::Occ(o) => o.pos,
            Expr::Var { pos, .. }
            | Expr::Call { pos, .. }
            | Expr::Unop { pos, .. }
            | Expr::Binop { pos, .. }
            | Expr::If { pos, .. }
            | Expr::Let { pos, .. }
            | Expr::Case { pos, .. }
            | Expr::TreeCons { pos, .. } => *pos,
        }
    }

    /// The value of a literal: a number, boolean or string, or a list of
    /// literals.
    pub fn literal(&self) -> Option<Value> {
        match self {
            Expr::Int(i, _) => Some(Value::Int(*i)),
            Expr::Real(r, _) => Some(Value::Real(*r)),
            Expr::Bool(b, _) => Some(Value::Bool(*b)),
            Expr::Str(v, _) | Expr::ListLit(_, Some(v), _) => Some(v.clone()),
            _ => None,
        }
    }

    /// Calls `f` on this expression and then on each of its
    /// sub-expressions, in source order.
    pub(crate) fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Call { args: es, .. }
            | Expr::TreeCons { args: es, .. }
            | Expr::ListLit(es, _, _)
            | Expr::TupleLit(es, _) => es.iter().for_each(|e| e.walk(f)),
            Expr::Unop { expr, .. } => expr.walk(f),
            Expr::Binop { lhs: a, rhs: b, .. }
            | Expr::Let {
                value: a, body: b, ..
            } => {
                a.walk(f);
                b.walk(f);
            }
            Expr::If {
                cond, then, els, ..
            } => [cond, then, els].into_iter().for_each(|e| e.walk(f)),
            Expr::Case {
                scrutinee, arms, ..
            } => {
                scrutinee.walk(f);
                arms.iter().for_each(|(_, b)| b.walk(f));
            }
            _ => {}
        }
    }

    /// Calls `f` on this expression and then on each sub-expression of
    /// what `f` left in its place, in source order, stopping at the first
    /// error.
    pub(crate) fn try_walk_mut<E>(
        &mut self,
        f: &mut impl FnMut(&mut Expr) -> Result<(), E>,
    ) -> Result<(), E> {
        f(self)?;
        match self {
            Expr::Call { args: es, .. }
            | Expr::TreeCons { args: es, .. }
            | Expr::ListLit(es, _, _)
            | Expr::TupleLit(es, _) => es.iter_mut().try_for_each(|e| e.try_walk_mut(f)),
            Expr::Unop { expr, .. } => expr.try_walk_mut(f),
            Expr::Binop { lhs: a, rhs: b, .. }
            | Expr::Let {
                value: a, body: b, ..
            } => {
                a.try_walk_mut(f)?;
                b.try_walk_mut(f)
            }
            Expr::If {
                cond, then, els, ..
            } => [cond, then, els]
                .into_iter()
                .try_for_each(|e| e.try_walk_mut(f)),
            Expr::Case {
                scrutinee, arms, ..
            } => {
                scrutinee.try_walk_mut(f)?;
                arms.iter_mut().try_for_each(|(_, b)| b.try_walk_mut(f))
            }
            _ => Ok(()),
        }
    }
}

/// A pattern.
#[derive(Clone, Debug, PartialEq)]
pub enum Pat {
    /// `_`
    Wild(Pos),
    /// A binder.
    Bind(String, Pos),
    /// Integer literal pattern.
    Int(i64, Pos),
    /// Boolean literal pattern.
    Bool(bool, Pos),
    /// String literal pattern.
    Str(String, Pos),
    /// `[]` — the empty list.
    Nil(Pos),
    /// `p :: p`
    Cons(Box<Pat>, Box<Pat>, Pos),
    /// `(p, p, …)`
    Tuple(Vec<Pat>, Pos),
    /// `@op(p, …)` — output-tree pattern.
    Term {
        /// Constructor name.
        op: String,
        /// Child patterns.
        args: Vec<Pat>,
        /// Position.
        pos: Pos,
    },
}
