//! Expression evaluation: SPARQL builtins and strdf spatial functions.
//!
//! `eval::prepare` lowers each expression of a statement once
//! ([`lower`]): a variable becomes its slot, a function name a [`Func`],
//! a constant a [`Constant`] holding its numeric view and geometry.
//! [`eval`] walks the lowered form under a binding to a [`Value`] that
//! borrows the dictionary's, the binding's or the constant's term where
//! one exists; a term is built only for a new value (CONCAT, buffer, …)
//! or one that is stored (a BIND target, a projected alias, an
//! aggregate).
//!
//! Per the SPARQL semantics, errors inside FILTER expressions are not
//! fatal: they produce an *error value* that makes the filter reject the
//! solution. [`eval`] therefore returns an `Option`, with `None`
//! standing for the SPARQL error value.

use crate::ast::{BinaryOp, Expression};
use crate::eval::Element;
use crate::spatial::SpatialSidecar;
use crate::StrabonConfig;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use teleios_geo::algorithm::{area, buffer, clip, distance as geodist, predicates};
use teleios_geo::Geometry;
use teleios_rdf::dictionary::TermId;
use teleios_rdf::store::TripleStore;
use teleios_rdf::strdf;
use teleios_rdf::term::Term;
use teleios_rdf::vocab;

/// A bound value: a dictionary id or a computed term.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Bound {
    /// Term interned in the store dictionary.
    Id(TermId),
    /// Computed term (BIND results, function outputs).
    Computed(Term),
}

impl Bound {
    /// Resolve to a term reference.
    pub(crate) fn term<'a>(&'a self, store: &'a TripleStore) -> &'a Term {
        match self {
            Bound::Id(id) => store.term(*id),
            Bound::Computed(t) => t,
        }
    }
}

/// A solution binding: one slot per variable of the query.
pub(crate) type Binding = Vec<Option<Bound>>;

/// Maps variable names to binding slots.
#[derive(Debug, Default, Clone)]
pub(crate) struct VarTable {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl VarTable {
    /// Slot of `name`, creating it if new.
    pub(crate) fn slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    /// Slot of `name` if it exists.
    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Variable names in slot order.
    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }

    /// Fresh all-unbound binding.
    pub(crate) fn empty_binding(&self) -> Binding {
        vec![None; self.names.len()]
    }
}

/// Evaluation environment of one statement, built once by
/// `eval::prepare`. Nothing in it changes while the statement runs.
pub(crate) struct Env<'a> {
    /// The triple store.
    pub store: &'a TripleStore,
    /// Spatial sidecar (caught up with the store's dictionary).
    pub spatial: &'a SpatialSidecar,
    /// The statement's variables.
    pub vars: VarTable,
    /// The engine's toggles: join ordering, spatial joins, RDFS
    /// expansion of `rdf:type` patterns.
    pub config: StrabonConfig,
    /// The WHERE clause, its FILTER and BIND expressions lowered.
    pub pattern: Vec<Element<'a>>,
    /// SELECT's `(expr AS ?v)` items: `?v`'s slot and the lowered
    /// expression, in order.
    pub projected: Vec<(usize, Lowered)>,
    /// SELECT's ORDER BY keys, lowered, each with its DESC flag.
    pub order_by: Vec<(Lowered, bool)>,
}

impl Env<'_> {
    /// Parse (or fetch from cache) the geometry of a bound value.
    pub(crate) fn geometry_of(&self, b: &Bound) -> Option<Arc<Geometry>> {
        let cached = match b {
            Bound::Id(id) => self.spatial.geometry(*id),
            Bound::Computed(_) => None,
        };
        cached.or_else(|| strdf::parse_geometry(b.term(self.store)).ok().map(|(g, _)| Arc::new(g)))
    }
}

/// An expression lowered once per statement: a variable is its slot, a
/// function its [`Func`], a constant a [`Constant`].
#[derive(Debug)]
pub(crate) enum Lowered {
    Slot(usize),
    Const(Constant),
    Not(Box<Lowered>),
    Neg(Box<Lowered>),
    Binary(BinaryOp, Box<Lowered>, Box<Lowered>),
    Call(Func, Vec<Lowered>),
}

/// A constant term, with its numeric view and, for WKT, its geometry.
#[derive(Debug)]
pub(crate) struct Constant {
    term: Term,
    number: Option<f64>,
    geometry: Option<Arc<Geometry>>,
}

/// A builtin, an aggregate, or an strdf (or GeoSPARQL `geof:`)
/// function; `Unknown` names none and always errs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Func {
    Bound,
    Str,
    Datatype,
    Lang,
    IsIri,
    IsLiteral,
    IsBlank,
    IsNumeric,
    Abs,
    Ceil,
    Floor,
    Round,
    Sqrt,
    Strlen,
    Ucase,
    Lcase,
    Contains,
    StrStarts,
    StrEnds,
    Concat,
    Regex,
    If,
    Coalesce,
    Aggregate(Aggregate),
    Topological(SpatialFn),
    Disjoint,
    Distance,
    Area,
    PeriodOverlaps,
    /// `periodContains(period, instant)`, or `during(instant, period)`
    /// when `during`.
    PeriodContains {
        during: bool,
    },
    PeriodStart,
    PeriodEnd,
    Buffer,
    Envelope,
    Overlay(clip::OverlayOp),
    Unknown,
}

/// The SPARQL aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Aggregate {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Sample,
}

impl Aggregate {
    pub(crate) fn named(name: &str) -> Option<Aggregate> {
        Some(match name {
            "COUNT" => Aggregate::Count,
            "SUM" => Aggregate::Sum,
            "AVG" => Aggregate::Avg,
            "MIN" => Aggregate::Min,
            "MAX" => Aggregate::Max,
            "SAMPLE" => Aggregate::Sample,
            _ => return None,
        })
    }
}

impl Func {
    /// The function a call names: an upper-case builtin or aggregate,
    /// or an strdf or `geof:` IRI.
    fn named(name: &str) -> Func {
        let spatial = name
            .strip_prefix(vocab::strdf::NS)
            .or_else(|| name.strip_prefix("http://www.opengis.net/def/function/geosparql/"));
        if let Some(local) = spatial {
            return match local {
                "disjoint" | "sfDisjoint" => Func::Disjoint,
                "distance" => Func::Distance,
                "area" => Func::Area,
                "periodOverlaps" | "overlapsPeriod" => Func::PeriodOverlaps,
                "periodContains" => Func::PeriodContains { during: false },
                "during" => Func::PeriodContains { during: true },
                "periodStart" => Func::PeriodStart,
                "periodEnd" => Func::PeriodEnd,
                "buffer" => Func::Buffer,
                "envelope" => Func::Envelope,
                "intersection" => Func::Overlay(clip::OverlayOp::Intersection),
                "difference" => Func::Overlay(clip::OverlayOp::Difference),
                "union2" => Func::Overlay(clip::OverlayOp::Union),
                _ => SpatialFn::topological(local).map_or(Func::Unknown, Func::Topological),
            };
        }
        match name {
            "BOUND" => Func::Bound,
            "STR" => Func::Str,
            "DATATYPE" => Func::Datatype,
            "LANG" => Func::Lang,
            "ISIRI" | "ISURI" => Func::IsIri,
            "ISLITERAL" => Func::IsLiteral,
            "ISBLANK" => Func::IsBlank,
            "ISNUMERIC" => Func::IsNumeric,
            "ABS" => Func::Abs,
            "CEIL" => Func::Ceil,
            "FLOOR" => Func::Floor,
            "ROUND" => Func::Round,
            "SQRT" => Func::Sqrt,
            "STRLEN" => Func::Strlen,
            "UCASE" => Func::Ucase,
            "LCASE" => Func::Lcase,
            "CONTAINS" => Func::Contains,
            "STRSTARTS" => Func::StrStarts,
            "STRENDS" => Func::StrEnds,
            "CONCAT" => Func::Concat,
            "REGEX" => Func::Regex,
            "IF" => Func::If,
            "COALESCE" => Func::Coalesce,
            _ => Aggregate::named(name).map_or(Func::Unknown, Func::Aggregate),
        }
    }

    /// The leading arguments a builtin reads; the rest are evaluated
    /// for their errors only. `None`: the function evaluates its
    /// arguments itself, lazily or all of them.
    fn reads(self) -> Option<usize> {
        match self {
            Func::Str | Func::Datatype | Func::Lang | Func::IsIri | Func::IsLiteral => Some(1),
            Func::IsBlank | Func::IsNumeric | Func::Abs | Func::Ceil | Func::Floor => Some(1),
            Func::Round | Func::Sqrt | Func::Strlen | Func::Ucase | Func::Lcase => Some(1),
            Func::Contains | Func::StrStarts | Func::StrEnds | Func::Regex => Some(2),
            _ => None,
        }
    }
}

/// Lower `e` over the statement's variables (all registered already).
pub(crate) fn lower(e: &Expression, vars: &mut VarTable) -> Lowered {
    let boxed = |e: &Expression, vars: &mut VarTable| Box::new(lower(e, vars));
    match e {
        Expression::Var(name) => Lowered::Slot(vars.slot(name)),
        Expression::Const(t) => Lowered::Const(Constant {
            term: t.clone(),
            number: t.as_f64(),
            geometry: strdf::parse_geometry(t).ok().map(|(g, _)| Arc::new(g)),
        }),
        Expression::Not(e) => Lowered::Not(boxed(e, vars)),
        Expression::Neg(e) => Lowered::Neg(boxed(e, vars)),
        Expression::Binary { op, left, right } => {
            Lowered::Binary(*op, boxed(left, vars), boxed(right, vars))
        }
        Expression::Call { name, args } => {
            Lowered::Call(Func::named(name), args.iter().map(|a| lower(a, vars)).collect())
        }
    }
}

impl Lowered {
    /// The slots the expression reads, repeats included.
    pub(crate) fn slots(&self) -> Vec<usize> {
        fn visit(e: &Lowered, out: &mut Vec<usize>) {
            match e {
                Lowered::Slot(s) => out.push(*s),
                Lowered::Const(_) => {}
                Lowered::Not(e) | Lowered::Neg(e) => visit(e, out),
                Lowered::Binary(_, l, r) => {
                    visit(l, out);
                    visit(r, out);
                }
                Lowered::Call(_, args) => args.iter().for_each(|a| visit(a, out)),
            }
        }
        let mut out = Vec::new();
        visit(self, &mut out);
        out
    }

    /// A spatial FILTER's argument as a sidecar operand: a variable's
    /// slot or a constant geometry.
    pub(crate) fn operand(&self) -> Option<Operand> {
        match self {
            Lowered::Slot(s) => Some(Operand::Var(*s)),
            Lowered::Const(c) => c.geometry.clone().map(Operand::Const),
            _ => None,
        }
    }

    /// The numeric view of a constant.
    pub(crate) fn number(&self) -> Option<f64> {
        match self {
            Lowered::Const(c) => c.number,
            _ => None,
        }
    }
}

/// What an expression evaluates to, borrowed wherever the term exists
/// already. Each variant reads exactly like the term it stands for.
#[derive(Debug, Clone)]
pub(crate) enum Value<'a> {
    /// A term of the dictionary or the binding.
    Term(&'a Term),
    Const(&'a Constant),
    /// A plain literal: what `STR` yields.
    Str(Cow<'a, str>),
    /// `Term::boolean`'s value.
    Bool(bool),
    /// `Term::int`'s value.
    Int(i64),
    /// `Term::double`'s value.
    Double(f64),
    /// A term built by the expression.
    Owned(Box<Term>),
}

fn bool_lexical(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

impl<'a> Value<'a> {
    fn term(&self) -> Option<&Term> {
        match self {
            Value::Term(t) => Some(t),
            Value::Const(c) => Some(&c.term),
            Value::Owned(t) => Some(t),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Const(c) => c.number,
            Value::Str(s) => s.parse().ok(),
            Value::Bool(_) => None,
            Value::Int(i) => Some(*i as f64),
            Value::Double(v) => Some(*v),
            _ => self.lexical()?.parse().ok(),
        }
    }

    fn lexical(&self) -> Option<Cow<'_, str>> {
        match self {
            Value::Str(s) => Some(Cow::Borrowed(s)),
            Value::Bool(b) => Some(Cow::Borrowed(bool_lexical(*b))),
            Value::Int(i) => Some(Cow::Owned(i.to_string())),
            Value::Double(v) => Some(Cow::Owned(v.to_string())),
            _ => match self.term()? {
                Term::Literal { lexical, .. } => Some(Cow::Borrowed(lexical)),
                _ => None,
            },
        }
    }

    fn datatype(&self) -> Option<&str> {
        match self {
            Value::Str(_) => None,
            Value::Bool(_) => Some(vocab::xsd::BOOLEAN),
            Value::Int(_) => Some(vocab::xsd::INTEGER),
            Value::Double(_) => Some(vocab::xsd::DOUBLE),
            _ => match self.term()? {
                Term::Literal { datatype, .. } => datatype.as_deref(),
                _ => None,
            },
        }
    }

    fn lang(&self) -> Option<&str> {
        match self.term()? {
            Term::Literal { lang, .. } => lang.as_deref(),
            _ => None,
        }
    }

    fn is_literal(&self) -> bool {
        !matches!(self.term(), Some(Term::Iri(_) | Term::Blank(_)))
    }

    /// SPARQL's effective boolean value.
    pub(crate) fn ebv(&self) -> Option<bool> {
        if let Value::Bool(b) = self {
            return Some(*b);
        }
        if !self.is_literal() {
            return None;
        }
        let datatype = self.datatype();
        if datatype == Some(vocab::xsd::BOOLEAN) {
            return match self.lexical()?.as_ref() {
                "true" | "1" => Some(true),
                "false" | "0" => Some(false),
                _ => None,
            };
        }
        if let Some(n) = self.as_f64() {
            return Some(n != 0.0 && !n.is_nan());
        }
        datatype.is_none().then(|| self.lexical().is_some_and(|l| !l.is_empty()))
    }

    /// The term this value reads as.
    pub(crate) fn into_term(self) -> Term {
        match self {
            Value::Term(t) => t.clone(),
            Value::Const(c) => c.term.clone(),
            Value::Str(s) => Term::literal(s.into_owned()),
            Value::Bool(b) => Term::boolean(b),
            Value::Int(i) => Term::int(i),
            Value::Double(v) => Term::double(v),
            Value::Owned(t) => *t,
        }
    }

    fn into_cow(self) -> Cow<'a, Term> {
        match self {
            Value::Term(t) => Cow::Borrowed(t),
            Value::Const(c) => Cow::Borrowed(&c.term),
            v => Cow::Owned(v.into_term()),
        }
    }

    /// `STR`: an IRI's text, a literal's lexical form, `_:label` for a
    /// blank node.
    fn into_str(self) -> Cow<'a, str> {
        let blank = |b: &str| Cow::Owned(format!("_:{b}"));
        match self {
            Value::Term(t) | Value::Const(Constant { term: t, .. }) => match t {
                Term::Iri(s) | Term::Literal { lexical: s, .. } => Cow::Borrowed(s),
                Term::Blank(b) => blank(b),
            },
            Value::Owned(t) => match *t {
                Term::Iri(s) | Term::Literal { lexical: s, .. } => Cow::Owned(s),
                Term::Blank(b) => blank(&b),
            },
            Value::Str(s) => s,
            Value::Bool(b) => Cow::Borrowed(bool_lexical(b)),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Double(v) => Cow::Owned(v.to_string()),
        }
    }

    fn owned(t: Term) -> Value<'a> {
        Value::Owned(Box::new(t))
    }

    /// A literal's lexical form.
    fn into_lexical(self) -> Option<Cow<'a, str>> {
        self.is_literal().then(|| self.into_str())
    }

    fn is_integer(&self) -> bool {
        self.datatype() == Some(vocab::xsd::INTEGER)
    }

    /// `v` as an integer when this value is one and `v` is whole.
    fn number_like(&self, v: f64) -> Value<'static> {
        if self.is_integer() && v.fract() == 0.0 {
            Value::Int(v as i64)
        } else {
            Value::Double(v)
        }
    }
}

/// Evaluate a lowered expression under a binding; `None` is the SPARQL
/// error value.
pub(crate) fn eval<'a>(
    env: &'a Env<'_>,
    b: &'a [Option<Bound>],
    e: &'a Lowered,
) -> Option<Value<'a>> {
    match e {
        Lowered::Slot(slot) => b.get(*slot)?.as_ref().map(|x| Value::Term(x.term(env.store))),
        Lowered::Const(c) => Some(Value::Const(c)),
        Lowered::Not(e) => Some(Value::Bool(!eval(env, b, e)?.ebv()?)),
        Lowered::Neg(e) => {
            let v = eval(env, b, e)?;
            Some(v.number_like(-v.as_f64()?))
        }
        Lowered::Binary(op, l, r) => binary(*op, eval(env, b, l), || eval(env, b, r)),
        Lowered::Call(f, args) => call(env, b, *f, args),
    }
}

/// `l op r`, with `r` evaluated only when AND/OR need it: `deciding`
/// settles the result alone (false for AND, true for OR), and an error
/// only matters without it.
fn binary<'a>(
    op: BinaryOp,
    l: Option<Value<'a>>,
    r: impl FnOnce() -> Option<Value<'a>>,
) -> Option<Value<'a>> {
    if let BinaryOp::And | BinaryOp::Or = op {
        let deciding = op == BinaryOp::Or;
        let l = l.and_then(|v| v.ebv());
        if l == Some(deciding) {
            return Some(Value::Bool(deciding));
        }
        return match (l, r().and_then(|v| v.ebv())) {
            (_, Some(r)) if r == deciding => Some(Value::Bool(deciding)),
            (Some(_), Some(_)) => Some(Value::Bool(!deciding)),
            _ => None,
        };
    }
    let (l, r) = (l?, r()?);
    let ordered = |test: fn(Ordering) -> bool| Some(Value::Bool(test(compare(&l, &r)?)));
    match op {
        BinaryOp::Eq => Some(Value::Bool(equal(&l, &r))),
        BinaryOp::Ne => Some(Value::Bool(!equal(&l, &r))),
        BinaryOp::Lt => ordered(Ordering::is_lt),
        BinaryOp::Le => ordered(Ordering::is_le),
        BinaryOp::Gt => ordered(Ordering::is_gt),
        BinaryOp::Ge => ordered(Ordering::is_ge),
        _ => {
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            let v = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                _ if b == 0.0 => return None,
                _ => return Some(Value::Double(a / b)),
            };
            // Integer-preserving arithmetic when both are integers.
            Some(if l.is_integer() && r.is_integer() {
                Value::Int(v as i64)
            } else {
                Value::Double(v)
            })
        }
    }
}

fn call<'a>(
    env: &'a Env<'_>,
    b: &'a [Option<Bound>],
    f: Func,
    args: &'a [Lowered],
) -> Option<Value<'a>> {
    let arg = |i: usize| eval(env, b, args.get(i)?);
    let lexical = |i: usize| arg(i)?.into_lexical();
    let number = |i: usize| arg(i)?.as_f64();
    if let Some(reads) = f.reads() {
        for extra in args.iter().skip(reads) {
            eval(env, b, extra)?;
        }
    }
    Some(match f {
        Func::Bound => match args.first()? {
            Lowered::Slot(slot) => Value::Bool(b.get(*slot)?.is_some()),
            _ => return None,
        },
        Func::Str => Value::Str(arg(0)?.into_str()),
        Func::Datatype => {
            let v = arg(0)?;
            match (v.is_literal(), v.datatype(), v.lang()) {
                (true, Some(dt), _) => Value::owned(Term::iri(dt)),
                (true, None, None) => Value::owned(Term::iri(vocab::xsd::STRING)),
                _ => return None,
            }
        }
        Func::Lang => {
            let v = arg(0)?;
            if !v.is_literal() {
                return None;
            }
            Value::Str(Cow::Owned(v.lang().unwrap_or_default().to_string()))
        }
        Func::IsIri => Value::Bool(arg(0)?.term().is_some_and(Term::is_iri)),
        Func::IsLiteral => Value::Bool(arg(0)?.is_literal()),
        Func::IsBlank => Value::Bool(arg(0)?.term().is_some_and(Term::is_blank)),
        Func::IsNumeric => Value::Bool(arg(0)?.as_f64().is_some()),
        Func::Abs => {
            let v = arg(0)?;
            v.number_like(v.as_f64()?.abs())
        }
        Func::Ceil => Value::Double(number(0)?.ceil()),
        Func::Floor => Value::Double(number(0)?.floor()),
        Func::Round => Value::Double(number(0)?.round()),
        Func::Sqrt => Value::Double(number(0)?.sqrt()),
        Func::Strlen => Value::Int(lexical(0)?.chars().count() as i64),
        Func::Ucase => Value::Str(Cow::Owned(lexical(0)?.to_uppercase())),
        Func::Lcase => Value::Str(Cow::Owned(lexical(0)?.to_lowercase())),
        Func::Contains => Value::Bool(lexical(0)?.contains(&*lexical(1)?)),
        Func::StrStarts => Value::Bool(lexical(0)?.starts_with(&*lexical(1)?)),
        Func::StrEnds => Value::Bool(lexical(0)?.ends_with(&*lexical(1)?)),
        Func::Concat => {
            let mut s = String::new();
            for i in 0..args.len() {
                s.push_str(&lexical(i)?);
            }
            Value::Str(Cow::Owned(s))
        }
        // Substring-match approximation of REGEX: supports the plain
        // patterns used in the demo (no metacharacters).
        Func::Regex => {
            let (text, pattern) = (lexical(0)?, lexical(1)?);
            let insensitive = args.len() > 2 && lexical(2).is_some_and(|f| f.contains('i'));
            Value::Bool(if insensitive {
                text.to_lowercase().contains(&pattern.to_lowercase())
            } else {
                text.contains(&*pattern)
            })
        }
        // SPARQL 1.1 §17.4.1: IF evaluates only the branch it takes,
        // COALESCE returns its first argument that is no error.
        Func::If => return arg(if arg(0)?.ebv()? { 1 } else { 2 }),
        Func::Coalesce => return args.iter().find_map(|a| eval(env, b, a)),
        Func::Aggregate(_) | Func::Unknown => return None,
        f => return strdf_call(env, b, f, args),
    })
}

/// The strdf functions: spatial, temporal and constructive.
fn strdf_call<'a>(
    env: &'a Env<'_>,
    b: &'a [Option<Bound>],
    f: Func,
    args: &'a [Lowered],
) -> Option<Value<'a>> {
    let arg = |i: usize| eval(env, b, args.get(i)?);
    let geometry = |i: usize| -> Option<Arc<Geometry>> {
        match args.get(i)? {
            Lowered::Slot(slot) => env.geometry_of(b.get(*slot)?.as_ref()?),
            Lowered::Const(c) => c.geometry.clone(),
            e => strdf::parse_geometry(&eval(env, b, e)?.into_cow()).ok().map(|(g, _)| Arc::new(g)),
        }
    };
    let period = |i: usize| strdf::parse_period(&arg(i)?.into_cow()).ok();
    Some(match f {
        Func::Topological(f) => Value::Bool(f.holds(&*geometry(0)?, &*geometry(1)?, 0.0)),
        Func::Disjoint => Value::Bool(predicates::disjoint(&*geometry(0)?, &*geometry(1)?)),
        // Metric functions (planar, in coordinate units).
        Func::Distance => Value::Double(geodist::distance(&*geometry(0)?, &*geometry(1)?)),
        Func::Area => Value::Double(area::area(&*geometry(0)?)),
        // Temporal functions over strdf:period valid-time literals.
        Func::PeriodOverlaps => Value::Bool(period(0)?.overlaps(&period(1)?)),
        Func::PeriodContains { during } => {
            let (p, instant) = if during { (1, 0) } else { (0, 1) };
            let p = period(p)?;
            Value::Bool(p.contains(&arg(instant)?.into_lexical()?))
        }
        Func::PeriodStart => Value::owned(Term::date_time(period(0)?.start)),
        Func::PeriodEnd => Value::owned(Term::date_time(period(0)?.end)),
        // Constructive functions return new strdf:WKT literals.
        Func::Buffer => {
            let g = geometry(0)?;
            let d = arg(1)?.as_f64()?;
            if d <= 0.0 {
                return None;
            }
            Value::owned(strdf::geometry_literal_wgs84(&buffer::buffer(
                &g,
                d,
                buffer::DEFAULT_CIRCLE_SEGMENTS,
            )))
        }
        Func::Envelope => {
            let e = geometry(0)?.envelope();
            if e.is_empty() {
                return None;
            }
            let polygon = teleios_geo::geometry::Polygon::from_envelope(&e);
            Value::owned(strdf::geometry_literal_wgs84(&Geometry::Polygon(polygon)))
        }
        Func::Overlay(op) => {
            let (a, b) = (geometry(0)?, geometry(1)?);
            let (Geometry::Polygon(pa), Geometry::Polygon(pb)) = (&*a, &*b) else {
                return None;
            };
            let result = clip::overlay(pa, pb, op);
            Value::owned(strdf::geometry_literal_wgs84(&Geometry::MultiPolygon(result.polygons)))
        }
        _ => return None,
    })
}

/// Evaluate a projected expression over a group of solutions: an
/// aggregate folds its argument's values (errors skipped), arithmetic
/// and comparisons combine aggregate results, and anything else reads
/// the group's first solution.
pub(crate) fn eval_group<'a>(
    env: &'a Env<'_>,
    e: &'a Lowered,
    group: &[&'a Binding],
) -> Option<Value<'a>> {
    match e {
        Lowered::Call(Func::Aggregate(f), args) => {
            // COUNT(*): every solution counts.
            let Some(arg) = args.first() else {
                return Some(Value::Int(group.len() as i64));
            };
            let values: Vec<Value<'a>> = group.iter().filter_map(|&b| eval(env, b, arg)).collect();
            match f {
                Aggregate::Count => Some(Value::Int(values.len() as i64)),
                Aggregate::Sample => values.into_iter().next(),
                Aggregate::Sum | Aggregate::Avg => {
                    let nums: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
                    if nums.is_empty() {
                        return (*f == Aggregate::Sum).then_some(Value::Int(0));
                    }
                    let sum: f64 = nums.iter().sum();
                    Some(if *f == Aggregate::Avg {
                        Value::Double(sum / nums.len() as f64)
                    } else if values.iter().all(Value::is_integer) {
                        Value::Int(sum as i64)
                    } else {
                        Value::Double(sum)
                    })
                }
                // The first of equal values stays.
                Aggregate::Min | Aggregate::Max => {
                    let wanted =
                        if *f == Aggregate::Min { Ordering::Less } else { Ordering::Greater };
                    values.into_iter().reduce(|best, v| {
                        if order(Some(&v), Some(&best)) == wanted {
                            v
                        } else {
                            best
                        }
                    })
                }
            }
        }
        Lowered::Binary(op, l, r) => {
            let l = eval_group(env, l, group)?;
            let r = eval_group(env, r, group)?;
            binary(*op, Some(l), || Some(r))
        }
        e => eval(env, group.first()?, e),
    }
}

/// The spatial predicates the sidecar serves: each holds only for
/// geometries whose envelopes meet — for `distance`, once one of them
/// is grown by the bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SpatialFn {
    Intersects,
    Contains,
    Within,
    Touches,
    Equals,
    /// `distance(a, b) < bound`, or `<=` when inclusive.
    Distance {
        inclusive: bool,
    },
}

impl SpatialFn {
    /// The topological predicate a local name spells (GeoSPARQL's `sf*`
    /// spellings included).
    pub(crate) fn topological(local: &str) -> Option<SpatialFn> {
        Some(match local {
            "intersects" | "sfIntersects" | "anyInteract" => SpatialFn::Intersects,
            "contains" | "sfContains" => SpatialFn::Contains,
            "within" | "sfWithin" => SpatialFn::Within,
            "touches" | "sfTouches" => SpatialFn::Touches,
            "equals" | "sfEquals" => SpatialFn::Equals,
            _ => return None,
        })
    }

    /// The exact predicate on `(a, b)`, in the order the FILTER writes
    /// them; a distance is compared with `bound` as an `f64`.
    pub(crate) fn holds(self, a: &Geometry, b: &Geometry, bound: f64) -> bool {
        match self {
            SpatialFn::Intersects => predicates::intersects(a, b),
            SpatialFn::Contains => predicates::contains(a, b),
            SpatialFn::Within => predicates::within(a, b),
            SpatialFn::Touches => predicates::touches(a, b),
            SpatialFn::Equals => predicates::equals(a, b),
            // Envelopes apart by more than the bound: no exact work.
            SpatialFn::Distance { inclusive } => {
                crate::spatial::window(&a.envelope(), bound).intersects(&b.envelope()) && {
                    let d = geodist::distance(a, b);
                    if inclusive {
                        d <= bound
                    } else {
                        d < bound
                    }
                }
            }
        }
    }
}

/// An argument of a spatial FILTER: a variable's slot or a constant
/// geometry.
#[derive(Clone)]
pub(crate) enum Operand {
    Var(usize),
    Const(Arc<Geometry>),
}

/// A spatial FILTER the sidecar serves: `func(args[0], args[1])`, with
/// `bound` the distance bound (0 for the topological predicates).
#[derive(Clone)]
pub(crate) struct SpatialTest {
    pub func: SpatialFn,
    pub args: [Operand; 2],
    pub bound: f64,
}

impl SpatialTest {
    /// The exact predicate under `b`: false, as the FILTER would be,
    /// when an argument is unbound or no geometry.
    pub(crate) fn holds(&self, env: &Env<'_>, b: &Binding) -> bool {
        let geometry = |a: &Operand| match a {
            Operand::Var(slot) => env.geometry_of(b[*slot].as_ref()?),
            Operand::Const(g) => Some(g.clone()),
        };
        let (Some(x), Some(y)) = (geometry(&self.args[0]), geometry(&self.args[1])) else {
            return false;
        };
        self.func.holds(&x, &y, self.bound)
    }
}

/// Both values' numeric views, if both have one.
fn numbers(a: &Value<'_>, b: &Value<'_>) -> Option<(f64, f64)> {
    let y = b.as_f64()?;
    Some((a.as_f64()?, y))
}

/// SPARQL value equality: numeric literals compare by value, everything
/// else by strict term equality.
fn equal(a: &Value<'_>, b: &Value<'_>) -> bool {
    if let Some((x, y)) = numbers(a, b) {
        return x == y;
    }
    match (a.term(), b.term()) {
        (Some(x), Some(y)) => x == y,
        _ => {
            a.is_literal()
                && b.is_literal()
                && a.lexical() == b.lexical()
                && a.datatype() == b.datatype()
                && a.lang() == b.lang()
        }
    }
}

/// SPARQL ordering for `<`/`>` comparisons: numeric or string.
fn compare(a: &Value<'_>, b: &Value<'_>) -> Option<Ordering> {
    if let Some((x, y)) = numbers(a, b) {
        return x.partial_cmp(&y);
    }
    Some(a.lexical()?.cmp(&b.lexical()?))
}

/// Total order for ORDER BY: unbound and erroring keys first.
pub(crate) fn order(a: Option<&Value<'_>>, b: Option<&Value<'_>>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => {
            compare(x, y).unwrap_or_else(|| x.clone().into_cow().cmp(&y.clone().into_cow()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_fixture() -> (TripleStore, SpatialSidecar, VarTable) {
        let store = TripleStore::new();
        let spatial = SpatialSidecar::default();
        let vars = VarTable::default();
        (store, spatial, vars)
    }

    fn eval_const(expr: &Expression) -> Option<Term> {
        let (store, spatial, mut vars) = env_fixture();
        let lowered = lower(expr, &mut vars);
        let env = Env {
            store: &store,
            spatial: &spatial,
            vars,
            config: StrabonConfig::default(),
            pattern: Vec::new(),
            projected: Vec::new(),
            order_by: Vec::new(),
        };
        eval(&env, &[], &lowered).map(Value::into_term)
    }

    fn effective_boolean(t: &Term) -> Option<bool> {
        Value::Term(t).ebv()
    }

    fn order_terms(a: &Option<Term>, b: &Option<Term>) -> Ordering {
        order(a.as_ref().map(Value::Term).as_ref(), b.as_ref().map(Value::Term).as_ref())
    }

    fn call(name: &str, args: Vec<Expression>) -> Expression {
        Expression::Call { name: name.into(), args }
    }

    fn bin(op: BinaryOp, left: Expression, right: Expression) -> Expression {
        Expression::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    fn lit(t: Term) -> Expression {
        Expression::Const(t)
    }

    fn wkt(s: &str) -> Expression {
        lit(Term::typed_literal(s, vocab::strdf::WKT))
    }

    #[test]
    fn arithmetic_and_types() {
        let e = bin(BinaryOp::Add, lit(Term::int(2)), lit(Term::int(3)));
        assert_eq!(eval_const(&e), Some(Term::int(5)));
        let e2 = bin(BinaryOp::Mul, lit(Term::int(2)), lit(Term::double(1.5)));
        assert_eq!(eval_const(&e2), Some(Term::double(3.0)));
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = bin(BinaryOp::Div, lit(Term::int(1)), lit(Term::int(0)));
        assert_eq!(eval_const(&e), None);
    }

    #[test]
    fn comparisons_numeric_cross_type() {
        let e = bin(BinaryOp::Lt, lit(Term::int(2)), lit(Term::double(2.5)));
        assert_eq!(eval_const(&e), Some(Term::boolean(true)));
    }

    #[test]
    fn equality_numeric_vs_strict() {
        let e = bin(BinaryOp::Eq, lit(Term::int(2)), lit(Term::double(2.0)));
        assert_eq!(eval_const(&e), Some(Term::boolean(true)));
        let e2 = bin(BinaryOp::Eq, lit(Term::iri("http://a")), lit(Term::iri("http://a")));
        assert_eq!(eval_const(&e2), Some(Term::boolean(true)));
    }

    #[test]
    fn logic_short_circuit_with_errors() {
        // error || true = true
        let e = bin(BinaryOp::Or, call("NOPE", vec![]), lit(Term::boolean(true)));
        assert_eq!(eval_const(&e), Some(Term::boolean(true)));
        // error && false = false
        let e2 = bin(BinaryOp::And, call("NOPE", vec![]), lit(Term::boolean(false)));
        assert_eq!(eval_const(&e2), Some(Term::boolean(false)));
        // error && true = error
        let e3 = bin(BinaryOp::And, call("NOPE", vec![]), lit(Term::boolean(true)));
        assert_eq!(eval_const(&e3), None);
    }

    #[test]
    fn string_builtins() {
        assert_eq!(
            eval_const(&call("UCASE", vec![lit(Term::literal("fire"))])),
            Some(Term::literal("FIRE"))
        );
        assert_eq!(
            eval_const(&call("STRLEN", vec![lit(Term::literal("abc"))])),
            Some(Term::int(3))
        );
        assert_eq!(
            eval_const(&call(
                "CONTAINS",
                vec![lit(Term::literal("hotspot")), lit(Term::literal("spot"))]
            )),
            Some(Term::boolean(true))
        );
        assert_eq!(
            eval_const(&call("CONCAT", vec![lit(Term::literal("a")), lit(Term::literal("b"))])),
            Some(Term::literal("ab"))
        );
    }

    #[test]
    fn str_and_datatype() {
        assert_eq!(
            eval_const(&call("STR", vec![lit(Term::iri("http://x/"))])),
            Some(Term::literal("http://x/"))
        );
        assert_eq!(
            eval_const(&call("DATATYPE", vec![lit(Term::int(1))])),
            Some(Term::iri(vocab::xsd::INTEGER))
        );
    }

    #[test]
    fn spatial_intersects_and_distance() {
        let name = format!("{}intersects", vocab::strdf::NS);
        let e = Expression::Call {
            name,
            args: vec![wkt("POINT (5 5)"), wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")],
        };
        assert_eq!(eval_const(&e), Some(Term::boolean(true)));
        let dist = call(
            &format!("{}distance", vocab::strdf::NS),
            vec![wkt("POINT (0 0)"), wkt("POINT (3 4)")],
        );
        assert_eq!(eval_const(&dist), Some(Term::double(5.0)));
    }

    #[test]
    fn spatial_area_and_buffer() {
        let a = call(
            &format!("{}area", vocab::strdf::NS),
            vec![wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")],
        );
        assert_eq!(eval_const(&a), Some(Term::double(16.0)));
        let b = call(
            &format!("{}buffer", vocab::strdf::NS),
            vec![wkt("POINT (0 0)"), lit(Term::double(1.0))],
        );
        let t = eval_const(&b).unwrap();
        assert!(strdf::is_geometry_literal(&t));
    }

    #[test]
    fn spatial_overlay_functions() {
        let i = Expression::Call {
            name: format!("{}intersection", vocab::strdf::NS),
            args: vec![
                wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"),
                wkt("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))"),
            ],
        };
        let t = eval_const(&i).unwrap();
        let (g, _) = strdf::parse_geometry(&t).unwrap();
        assert!((area::area(&g) - 25.0).abs() < 1e-6);
    }

    #[test]
    fn geosparql_spelling_accepted() {
        let e = call(
            "http://www.opengis.net/def/function/geosparql/sfIntersects",
            vec![wkt("POINT (1 1)"), wkt("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")],
        );
        assert_eq!(eval_const(&e), Some(Term::boolean(true)));
    }

    #[test]
    fn spatial_on_non_geometry_is_error() {
        let e = call(
            &format!("{}intersects", vocab::strdf::NS),
            vec![lit(Term::literal("nope")), wkt("POINT (0 0)")],
        );
        assert_eq!(eval_const(&e), None);
    }

    #[test]
    fn effective_boolean_values() {
        assert_eq!(effective_boolean(&Term::boolean(true)), Some(true));
        assert_eq!(effective_boolean(&Term::int(0)), Some(false));
        assert_eq!(effective_boolean(&Term::double(2.5)), Some(true));
        assert_eq!(effective_boolean(&Term::literal("")), Some(false));
        assert_eq!(effective_boolean(&Term::literal("x")), Some(true));
        assert_eq!(effective_boolean(&Term::iri("http://x/")), None);
    }

    #[test]
    fn if_and_coalesce() {
        let e = call("IF", vec![lit(Term::boolean(false)), lit(Term::int(1)), lit(Term::int(2))]);
        assert_eq!(eval_const(&e), Some(Term::int(2)));
        let c = call("COALESCE", vec![lit(Term::int(7))]);
        assert_eq!(eval_const(&c), Some(Term::int(7)));
        // Lazy: the error value in the branch not taken, or before the
        // first argument that is no error, does not count.
        let e = call("IF", vec![lit(Term::boolean(true)), lit(Term::int(1)), call("NOPE", vec![])]);
        assert_eq!(eval_const(&e), Some(Term::int(1)));
        let c = call("COALESCE", vec![call("NOPE", vec![]), lit(Term::int(7))]);
        assert_eq!(eval_const(&c), Some(Term::int(7)));
        assert_eq!(eval_const(&call("COALESCE", vec![])), None);
    }

    #[test]
    fn var_table_slots() {
        let mut vt = VarTable::default();
        let a = vt.slot("a");
        let b = vt.slot("b");
        assert_eq!(vt.slot("a"), a);
        assert_ne!(a, b);
        assert_eq!(vt.get("b"), Some(b));
        assert_eq!(vt.get("zzz"), None);
        assert_eq!(vt.names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn order_terms_unbound_first() {
        assert_eq!(order_terms(&None, &Some(Term::int(1))), Ordering::Less);
        assert_eq!(order_terms(&Some(Term::int(1)), &Some(Term::int(2))), Ordering::Less);
        assert_eq!(
            order_terms(&Some(Term::literal("a")), &Some(Term::literal("b"))),
            Ordering::Less
        );
    }
}
