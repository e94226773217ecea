//! Expression evaluation: SPARQL builtins and strdf spatial functions.
//!
//! Per the SPARQL semantics, errors inside FILTER expressions are not
//! fatal: they produce an *error value* that makes the filter reject the
//! solution. `eval_expression` therefore returns `Option<Term>`, with
//! `None` standing for the SPARQL error value.

use crate::ast::{BinaryOp, Expression};
use crate::spatial::SpatialSidecar;
use crate::StrabonConfig;
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
    /// The WHERE clause's constant geometries, parsed once: keyed by
    /// the address of their `Expression::Const` node in the statement's
    /// syntax tree, which outlives the `Env`.
    pub constants: HashMap<usize, Arc<Geometry>>,
}

impl Env<'_> {
    /// The parsed geometry of a constant WKT expression of the WHERE
    /// clause.
    pub(crate) fn constant_geometry(&self, e: &Expression) -> Option<Arc<Geometry>> {
        match e {
            Expression::Const(_) => self.constants.get(&std::ptr::from_ref(e).addr()).cloned(),
            _ => None,
        }
    }

    /// Parse (or fetch from cache) the geometry of a bound value.
    pub(crate) fn geometry_of(&self, b: &Bound) -> Option<Arc<Geometry>> {
        let cached = match b {
            Bound::Id(id) => self.spatial.geometry(*id),
            Bound::Computed(_) => None,
        };
        cached.or_else(|| strdf::parse_geometry(b.term(self.store)).ok().map(|(g, _)| Arc::new(g)))
    }
}

/// Evaluate an expression to a term; `None` is the SPARQL error value.
pub(crate) fn eval_expression(env: &Env<'_>, binding: &Binding, expr: &Expression) -> Option<Term> {
    match expr {
        Expression::Var(name) => {
            let slot = env.vars.get(name)?;
            binding.get(slot)?.as_ref().map(|b| b.term(env.store).clone())
        }
        Expression::Const(t) => Some(t.clone()),
        Expression::Not(e) => {
            let v = effective_boolean(&eval_expression(env, binding, e)?)?;
            Some(Term::boolean(!v))
        }
        Expression::Neg(e) => {
            let v = eval_expression(env, binding, e)?;
            Some(number_term(-v.as_f64()?, &v))
        }
        Expression::Binary { op, left, right } => {
            // Short-circuit logical operators.
            match op {
                // `deciding` settles the result alone: false for AND,
                // true for OR; an error only matters without it.
                BinaryOp::And | BinaryOp::Or => {
                    let deciding = *op == BinaryOp::Or;
                    let ebv = |e: &Expression| {
                        eval_expression(env, binding, e).and_then(|t| effective_boolean(&t))
                    };
                    let l = ebv(left);
                    if l == Some(deciding) {
                        return Some(Term::boolean(deciding));
                    }
                    return match (l, ebv(right)) {
                        (_, Some(r)) if r == deciding => Some(Term::boolean(deciding)),
                        (Some(_), Some(_)) => Some(Term::boolean(!deciding)),
                        _ => None,
                    };
                }
                _ => {}
            }
            let l = eval_expression(env, binding, left)?;
            let r = eval_expression(env, binding, right)?;
            match op {
                BinaryOp::Eq => Some(Term::boolean(terms_equal(&l, &r)?)),
                BinaryOp::Ne => Some(Term::boolean(!terms_equal(&l, &r)?)),
                BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
                    let ord = compare_terms(&l, &r)?;
                    Some(Term::boolean(match op {
                        BinaryOp::Lt => ord == Ordering::Less,
                        BinaryOp::Le => ord != Ordering::Greater,
                        BinaryOp::Gt => ord == Ordering::Greater,
                        BinaryOp::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    }))
                }
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
                    let a = l.as_f64()?;
                    let b = r.as_f64()?;
                    let v = match op {
                        BinaryOp::Add => a + b,
                        BinaryOp::Sub => a - b,
                        BinaryOp::Mul => a * b,
                        BinaryOp::Div => {
                            if b == 0.0 {
                                return None;
                            }
                            a / b
                        }
                        _ => unreachable!(),
                    };
                    // Integer-preserving arithmetic when both are integers.
                    if is_integer(&l) && is_integer(&r) && op != &BinaryOp::Div {
                        Some(Term::int(v as i64))
                    } else {
                        Some(Term::double(v))
                    }
                }
                BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
            }
        }
        Expression::Call { name, args } => eval_call(env, binding, name, args),
    }
}

/// Evaluate an expression as a FILTER condition (error → false).
pub(crate) fn eval_filter(env: &Env<'_>, binding: &Binding, expr: &Expression) -> bool {
    // BOUND needs unbound-tolerant handling, done inside eval_call.
    eval_expression(env, binding, expr).and_then(|t| effective_boolean(&t)).unwrap_or(false)
}

/// The local name of a spatial function: the strdf namespace, or
/// GeoSPARQL's geof: spelling of it.
pub(crate) fn spatial_function(name: &str) -> Option<&str> {
    name.strip_prefix(vocab::strdf::NS)
        .or_else(|| name.strip_prefix("http://www.opengis.net/def/function/geosparql/"))
}

fn eval_call(env: &Env<'_>, binding: &Binding, name: &str, args: &[Expression]) -> Option<Term> {
    // BOUND is special: it inspects bindings, not values.
    if name == "BOUND" {
        let Some(Expression::Var(v)) = args.first() else {
            return None;
        };
        let slot = env.vars.get(v)?;
        return Some(Term::boolean(binding.get(slot)?.is_some()));
    }

    if let Some(local) = spatial_function(name) {
        return eval_spatial(env, binding, local, args);
    }

    let vals: Vec<Term> =
        args.iter().map(|a| eval_expression(env, binding, a)).collect::<Option<_>>()?;
    match name {
        "STR" => Some(Term::literal(match &vals[0] {
            Term::Iri(i) => i.clone(),
            Term::Literal { lexical, .. } => lexical.clone(),
            Term::Blank(b) => format!("_:{b}"),
        })),
        "DATATYPE" => match &vals[0] {
            Term::Literal { datatype: Some(dt), .. } => Some(Term::iri(dt.clone())),
            Term::Literal { lang: None, .. } => Some(Term::iri(vocab::xsd::STRING)),
            _ => None,
        },
        "LANG" => match &vals[0] {
            Term::Literal { lang, .. } => Some(Term::literal(lang.clone().unwrap_or_default())),
            _ => None,
        },
        "ISIRI" | "ISURI" => Some(Term::boolean(vals[0].is_iri())),
        "ISLITERAL" => Some(Term::boolean(vals[0].is_literal())),
        "ISBLANK" => Some(Term::boolean(vals[0].is_blank())),
        "ISNUMERIC" => Some(Term::boolean(vals[0].as_f64().is_some())),
        "ABS" => Some(number_term(vals[0].as_f64()?.abs(), &vals[0])),
        "CEIL" => Some(Term::double(vals[0].as_f64()?.ceil())),
        "FLOOR" => Some(Term::double(vals[0].as_f64()?.floor())),
        "ROUND" => Some(Term::double(vals[0].as_f64()?.round())),
        "SQRT" => Some(Term::double(vals[0].as_f64()?.sqrt())),
        "STRLEN" => Some(Term::int(vals[0].lexical()?.chars().count() as i64)),
        "UCASE" => Some(Term::literal(vals[0].lexical()?.to_uppercase())),
        "LCASE" => Some(Term::literal(vals[0].lexical()?.to_lowercase())),
        "CONTAINS" => Some(Term::boolean(vals[0].lexical()?.contains(vals[1].lexical()?))),
        "STRSTARTS" => Some(Term::boolean(vals[0].lexical()?.starts_with(vals[1].lexical()?))),
        "STRENDS" => Some(Term::boolean(vals[0].lexical()?.ends_with(vals[1].lexical()?))),
        "CONCAT" => {
            let mut s = String::new();
            for v in &vals {
                s.push_str(v.lexical()?);
            }
            Some(Term::literal(s))
        }
        "REGEX" => {
            // Substring-match approximation of REGEX: supports the plain
            // patterns used in the demo (no metacharacters).
            let text = vals[0].lexical()?;
            let pat = vals[1].lexical()?;
            let ci = vals.get(2).and_then(|f| f.lexical()).is_some_and(|f| f.contains('i'));
            Some(Term::boolean(if ci {
                text.to_lowercase().contains(&pat.to_lowercase())
            } else {
                text.contains(pat)
            }))
        }
        "IF" => {
            let c = effective_boolean(&vals[0])?;
            Some(if c { vals[1].clone() } else { vals[2].clone() })
        }
        "COALESCE" => vals.into_iter().next(),
        _ => None,
    }
}

fn eval_spatial(
    env: &Env<'_>,
    binding: &Binding,
    local: &str,
    args: &[Expression],
) -> Option<Term> {
    // Resolve arguments to Bound values so geometry caching can apply.
    let bound_of = |e: &Expression| -> Option<Bound> {
        match e {
            Expression::Var(v) => binding.get(env.vars.get(v)?)?.clone(),
            _ => eval_expression(env, binding, e).map(Bound::Computed),
        }
    };
    let geom = |e: &Expression| -> Option<Arc<Geometry>> {
        env.constant_geometry(e).or_else(|| env.geometry_of(&bound_of(e)?))
    };
    if let Some(f) = SpatialFn::topological(local) {
        let (a, b) = (geom(&args[0])?, geom(&args[1])?);
        return Some(Term::boolean(f.holds(&a, &b, 0.0)));
    }
    match local {
        "disjoint" | "sfDisjoint" => {
            Some(Term::boolean(predicates::disjoint(&*geom(&args[0])?, &*geom(&args[1])?)))
        }
        // Metric functions (planar, in coordinate units).
        "distance" => Some(Term::double(geodist::distance(&*geom(&args[0])?, &*geom(&args[1])?))),
        "area" => Some(Term::double(area::area(geom(&args[0])?.as_ref()))),
        // Temporal functions over strdf:period valid-time literals.
        "periodOverlaps" | "overlapsPeriod" => {
            let a = strdf::parse_period(&eval_expression(env, binding, &args[0])?).ok()?;
            let b = strdf::parse_period(&eval_expression(env, binding, &args[1])?).ok()?;
            Some(Term::boolean(a.overlaps(&b)))
        }
        "periodContains" | "during" => {
            // periodContains(period, instant) / during(instant, period).
            let (p_arg, i_arg) =
                if local == "during" { (&args[1], &args[0]) } else { (&args[0], &args[1]) };
            let p = strdf::parse_period(&eval_expression(env, binding, p_arg)?).ok()?;
            let instant = eval_expression(env, binding, i_arg)?;
            let lex = instant.lexical()?;
            Some(Term::boolean(p.contains(lex)))
        }
        "periodStart" | "periodEnd" => {
            let p = strdf::parse_period(&eval_expression(env, binding, &args[0])?).ok()?;
            Some(Term::date_time(if local == "periodStart" { p.start } else { p.end }))
        }
        // Constructive functions return new strdf:WKT literals.
        "buffer" => {
            let g = geom(&args[0])?;
            let d = eval_expression(env, binding, &args[1])?.as_f64()?;
            if d <= 0.0 {
                return None;
            }
            let b = buffer::buffer(&g, d, buffer::DEFAULT_CIRCLE_SEGMENTS);
            Some(strdf::geometry_literal_wgs84(&b))
        }
        "envelope" => {
            let g = geom(&args[0])?;
            let e = g.envelope();
            if e.is_empty() {
                return None;
            }
            Some(strdf::geometry_literal_wgs84(&Geometry::Polygon(
                teleios_geo::geometry::Polygon::from_envelope(&e),
            )))
        }
        "intersection" | "difference" | "union2" => {
            let (a, b) = (geom(&args[0])?, geom(&args[1])?);
            let op = match local {
                "intersection" => clip::OverlayOp::Intersection,
                "difference" => clip::OverlayOp::Difference,
                _ => clip::OverlayOp::Union,
            };
            let (Geometry::Polygon(pa), Geometry::Polygon(pb)) = (&*a, &*b) else {
                return None;
            };
            let result = clip::overlay(pa, pb, op);
            Some(strdf::geometry_literal_wgs84(&Geometry::MultiPolygon(result.polygons)))
        }
        _ => None,
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

/// SPARQL effective boolean value.
pub(crate) fn effective_boolean(t: &Term) -> Option<bool> {
    match t {
        Term::Literal { lexical, datatype, .. } => {
            if datatype.as_deref() == Some(vocab::xsd::BOOLEAN) {
                return t.as_bool();
            }
            if let Some(n) = t.as_f64() {
                return Some(n != 0.0 && !n.is_nan());
            }
            if datatype.is_none() {
                return Some(!lexical.is_empty());
            }
            None
        }
        _ => None,
    }
}

fn is_integer(t: &Term) -> bool {
    t.datatype() == Some(vocab::xsd::INTEGER)
}

fn number_term(v: f64, like: &Term) -> Term {
    if is_integer(like) && v.fract() == 0.0 {
        Term::int(v as i64)
    } else {
        Term::double(v)
    }
}

/// SPARQL value equality: numeric literals compare by value, everything
/// else by strict term equality.
fn terms_equal(a: &Term, b: &Term) -> Option<bool> {
    if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
        return Some(x == y);
    }
    Some(a == b)
}

/// SPARQL ordering for `<`/`>` comparisons: numeric or string.
fn compare_terms(a: &Term, b: &Term) -> Option<Ordering> {
    if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
        return x.partial_cmp(&y);
    }
    match (a, b) {
        (Term::Literal { lexical: la, .. }, Term::Literal { lexical: lb, .. }) => Some(la.cmp(lb)),
        _ => None,
    }
}

/// Total order for ORDER BY (unbound < everything; errors sort last).
pub(crate) fn order_terms(a: &Option<Term>, b: &Option<Term>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => compare_terms(x, y).unwrap_or_else(|| x.cmp(y)),
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
        let (store, spatial, vars) = env_fixture();
        let env = Env {
            store: &store,
            spatial: &spatial,
            vars,
            config: StrabonConfig::default(),
            constants: HashMap::new(),
        };
        eval_expression(&env, &vec![], expr)
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
