//! Differential tests of the SciQL evaluator. Generated slice, map,
//! filtered-aggregate and UPDATE statements over seeded arrays are
//! checked against plain cell-at-a-time loops written here; beside
//! them, 119 statements are pinned, bit for bit, to what the
//! cell-at-a-time interpreter the run walker / bind-once evaluator
//! replaced produced on the same seeded arrays.

use teleios_check::{forall, Gen};
use teleios_monet::array::{Dim, NdArray};
use teleios_monet::Catalog;
use teleios_sciql::{execute, SciqlResult};

/// A cell expression, rendered as SciQL text and evaluated directly.
#[derive(Debug, Clone)]
enum E {
    Num(f64),
    Cell,
    Dim(usize),
    Bin(&'static str, Box<E>, Box<E>),
    Neg(Box<E>),
    Func(&'static str, Vec<E>),
}

impl E {
    fn sciql(&self, dims: &[&str]) -> String {
        match self {
            E::Num(n) if *n < 0.0 => format!("(-{})", -n),
            E::Num(n) => format!("{n}"),
            E::Cell => "v".to_string(),
            E::Dim(k) => dims[*k].to_string(),
            E::Bin(op, l, r) => format!("({} {op} {})", l.sciql(dims), r.sciql(dims)),
            E::Neg(e) => format!("(-{})", e.sciql(dims)),
            E::Func(f, args) => {
                let args: Vec<String> = args.iter().map(|a| a.sciql(dims)).collect();
                format!("{f}({})", args.join(", "))
            }
        }
    }

    /// The cell value `v` at coordinate `at`: arithmetic is IEEE,
    /// a comparison is 1 or 0, and any non-zero operand (NaN too) is
    /// true to AND / OR.
    fn eval(&self, v: f64, at: &[usize]) -> f64 {
        let truth = |b: bool| if b { 1.0 } else { 0.0 };
        match self {
            E::Num(n) => *n,
            E::Cell => v,
            E::Dim(k) => at[*k] as f64,
            E::Neg(e) => -e.eval(v, at),
            E::Func(f, args) => {
                let x: Vec<f64> = args.iter().map(|a| a.eval(v, at)).collect();
                match *f {
                    "ABS" => x[0].abs(),
                    "FLOOR" => x[0].floor(),
                    "MIN" => x[0].min(x[1]),
                    _ => x[0].max(x[1]),
                }
            }
            E::Bin(op, l, r) => {
                let (l, r) = (l.eval(v, at), r.eval(v, at));
                match *op {
                    "+" => l + r,
                    "-" => l - r,
                    "*" => l * r,
                    "/" => l / r,
                    "%" => l % r,
                    "=" => truth(l == r),
                    "<>" => truth(l != r),
                    "<" => truth(l < r),
                    "<=" => truth(l <= r),
                    ">" => truth(l > r),
                    ">=" => truth(l >= r),
                    "AND" => truth(l != 0.0 && r != 0.0),
                    _ => truth(l != 0.0 || r != 0.0),
                }
            }
        }
    }
}

fn expr(g: &mut Gen, rank: usize, depth: usize) -> E {
    if depth == 0 || g.below(3) == 0 {
        return match g.below(5) {
            0 => E::Num(g.int(-6..7) as f64 / 2.0),
            1 => E::Dim(g.below(rank)),
            _ => E::Cell,
        };
    }
    let sub = |g: &mut Gen| Box::new(expr(g, rank, depth - 1));
    match g.below(7) {
        0 => E::Neg(sub(g)),
        1 => E::Func(["ABS", "FLOOR"][g.below(2)], vec![*sub(g)]),
        2 => E::Func(["MIN", "MAX"][g.below(2)], vec![*sub(g), *sub(g)]),
        _ => E::Bin(["+", "-", "*", "/", "%"][g.below(5)], sub(g), sub(g)),
    }
}

fn condition(g: &mut Gen, rank: usize, depth: usize) -> E {
    if depth == 0 || g.bool() {
        let op = ["=", "<>", "<", "<=", ">", ">="][g.below(6)];
        return E::Bin(op, Box::new(expr(g, rank, 1)), Box::new(expr(g, rank, 0)));
    }
    let op = ["AND", "OR"][g.below(2)];
    E::Bin(op, Box::new(condition(g, rank, depth - 1)), Box::new(condition(g, rank, depth - 1)))
}

#[derive(Debug)]
enum Stmt {
    Map(E),
    Reduce(&'static str, E, Option<E>),
    Update(E, Option<E>),
}

/// A seeded array (2-D `y, x` or 3-D `band, y, x`, NaN and -0.0
/// among its cells), a slice of it, and one statement over the slice.
#[derive(Debug)]
struct Case {
    shape: Vec<usize>,
    cells: Vec<f64>,
    slice: Option<Vec<(usize, usize)>>,
    stmt: Stmt,
}

fn case(g: &mut Gen) -> Case {
    let rank = 2 + g.below(2);
    let shape: Vec<usize> = (0..rank).map(|_| g.size(1..7)).collect();
    let cells = (0..shape.iter().product())
        .map(|_| match g.below(16) {
            0 => f64::NAN,
            1 => -0.0,
            _ => g.int(-8..9) as f64 / 2.0,
        })
        .collect();
    let slice = g.bool().then(|| {
        shape
            .iter()
            .map(|&n| {
                let lo = g.below(n);
                (lo, lo + 1 + g.below(n - lo))
            })
            .collect()
    });
    let filter = |g: &mut Gen| g.bool().then(|| condition(g, rank, 1));
    let stmt = match g.below(3) {
        0 => Stmt::Map(expr(g, rank, 2)),
        1 => {
            let agg = ["SUM", "AVG", "MIN", "MAX", "COUNT", "STDDEV"][g.below(6)];
            Stmt::Reduce(agg, expr(g, rank, 2), filter(g))
        }
        _ => Stmt::Update(expr(g, rank, 2), filter(g)),
    };
    Case { shape, cells, slice, stmt }
}

/// Equal as values, NaN equal to NaN and the sign of zero ignored (an
/// empty sum's zero may come out either way).
fn same(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// The row-major coordinate of cell `i` of `shape`.
fn coordinate(mut i: usize, shape: &[usize]) -> Vec<usize> {
    let mut at = vec![0; shape.len()];
    for k in (0..shape.len()).rev() {
        at[k] = i % shape[k];
        i /= shape[k];
    }
    at
}

/// The plain loops: every cell in row-major order, kept when it lies in
/// the slice and passes the WHERE.
fn reference(c: &Case) -> Result<Vec<f64>, f64> {
    let mut region = Vec::new();
    let mut updated = c.cells.clone();
    for (i, &v) in c.cells.iter().enumerate() {
        let at = coordinate(i, &c.shape);
        let inside = c.slice.as_ref().is_none_or(|s| at.iter().zip(s).all(|(&x, &(lo, hi))| lo <= x && x < hi));
        if !inside {
            continue;
        }
        match &c.stmt {
            Stmt::Map(e) => region.push(e.eval(v, &at)),
            Stmt::Reduce(_, e, filter) | Stmt::Update(e, filter) => {
                if filter.as_ref().is_none_or(|f| f.eval(v, &at) != 0.0) {
                    region.push(e.eval(v, &at));
                    updated[i] = e.eval(v, &at);
                }
            }
        }
    }
    let n = region.len() as f64;
    let mut sum = 0.0;
    for v in &region {
        sum += v;
    }
    let mean = sum / n;
    let mut squares = 0.0;
    for v in &region {
        squares += (v - mean) * (v - mean);
    }
    let real = region.iter().copied().filter(|v| !v.is_nan());
    match &c.stmt {
        Stmt::Map(_) => Ok(region),
        Stmt::Update(..) => Ok(updated),
        Stmt::Reduce(agg, ..) => Err(match *agg {
            "SUM" => sum,
            "COUNT" => n,
            "AVG" => mean,
            "STDDEV" => (squares / n).sqrt(),
            "MIN" => real.reduce(f64::min).unwrap_or(f64::NAN),
            _ => real.reduce(f64::max).unwrap_or(f64::NAN),
        }),
    }
}

#[test]
fn generated_statements_match_cell_at_a_time_loops() {
    forall(case, |c| {
        let names: &[&str] = if c.shape.len() == 2 { &["y", "x"] } else { &["band", "y", "x"] };
        let dims = c.shape.iter().zip(names).map(|(&n, name)| Dim::new(*name, n)).collect();
        let cat = Catalog::new();
        cat.put_array("a", NdArray::from_vec(dims, c.cells.clone()).unwrap());
        let slice = c.slice.as_ref().map_or(String::new(), |s| {
            let parts: Vec<String> = s.iter().map(|(lo, hi)| format!("{lo}..{hi}")).collect();
            format!("[{}]", parts.join(", "))
        });
        let filter = |f: &Option<E>| f.as_ref().map_or(String::new(), |f| format!(" WHERE {}", f.sciql(names)));
        let sql = match &c.stmt {
            // Parenthesized: a map that opens with `MIN(` / `MAX(` would
            // read as the aggregate.
            Stmt::Map(e) => format!("SELECT ({}) FROM a{slice}", e.sciql(names)),
            Stmt::Reduce(agg, e, f) => format!("SELECT {agg}({}) FROM a{slice}{}", e.sciql(names), filter(f)),
            Stmt::Update(e, f) => format!("UPDATE a{slice} SET v = {}{}", e.sciql(names), filter(f)),
        };
        let got = match execute(&cat, &sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
            SciqlResult::Array(a) => Ok(a.data().to_vec()),
            SciqlResult::Scalar(x) => Err(x),
            SciqlResult::Done => Ok(cat.array("a").unwrap().data().to_vec()),
        };
        let want = reference(&c);
        let agree = match (&got, &want) {
            (Ok(g), Ok(w)) => g.len() == w.len() && g.iter().zip(w).all(|(&a, &b)| same(a, b)),
            (Err(g), Err(w)) => same(*g, *w),
            _ => false,
        };
        assert!(agree, "{sql}: got {got:?}, the loops give {want:?}");
    });
}

/// `big` (y 300, x 290: two reduction chunks) and `cube` (band 3, y 20,
/// x 17), filled from one multiplicative congruential stream mapped
/// into [-1, 1).
fn catalog() -> Catalog {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut cells = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    };
    let cat = Catalog::new();
    cat.put_array("big", NdArray::matrix(300, 290, cells(300 * 290)).unwrap());
    let dims = vec![Dim::new("band", 3), Dim::new("y", 20), Dim::new("x", 17)];
    cat.put_array("cube", NdArray::from_vec(dims, cells(3 * 20 * 17)).unwrap());
    cat
}

/// FNV-1a over the cells' bit patterns and the shape.
fn digest(a: &NdArray) -> u64 {
    let words = a.shape().into_iter().map(|n| n as u64).chain(a.data().iter().map(|v| v.to_bits()));
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Every aggregate × {no slice, slice, WHERE, dimension-variable
/// expression, bare cell value}, on both arrays.
fn statements() -> Vec<String> {
    let mut out = Vec::new();
    for agg in ["SUM", "AVG", "MIN", "MAX", "COUNT", "STDDEV"] {
        for (array, slice, dims) in [("big", "[3..200, 10..150]", "y * 0.5 - x"), ("cube", "[1..3, *, 2..9]", "band * 7 + y - x / 3")] {
            out.push(format!("SELECT {agg}(v) FROM {array}"));
            out.push(format!("SELECT {agg}(v) FROM {array}{slice}"));
            out.push(format!("SELECT {agg}(v * 1.5 - 2) FROM {array}"));
            out.push(format!("SELECT {agg}(ABS(v) * 1.5 - 2) FROM {array}{slice}"));
            out.push(format!("SELECT {agg}(v + {dims}) FROM {array}"));
            out.push(format!("SELECT {agg}(v + {dims}) FROM {array}{slice}"));
            out.push(format!("SELECT {agg}(v) FROM {array} WHERE v > 0.25"));
            out.push(format!("SELECT {agg}(v * x) FROM {array}{slice} WHERE x % 3 = 0 AND v < 0.5"));
            out.push(format!("SELECT {agg}(v) FROM {array}{slice} WHERE v > 5"));
        }
    }
    out.push("SELECT COUNT(*) FROM big".into());
    out.push("SELECT COUNT(*) FROM cube[*, 0..5, *] WHERE y = 4".into());
    out
}

/// Statements whose answer is an array (or a stored array after an
/// UPDATE), pinned by digest.
const ARRAY_STATEMENTS: [&str; 9] = [
    "SELECT v FROM big",
    "SELECT v FROM cube[0..2, 5..20, *]",
    "SELECT CASE WHEN v > 0.3 THEN 1 ELSE 0 END FROM big[*, 100..290]",
    "SELECT POW(v, 2) + x - MIN(y, band) FROM cube",
    "SELECT AVG(v) FROM big GROUP BY TILES [16, 16]",
    "SELECT MAX(v * y) FROM cube GROUP BY TILES [1, 4, 5]",
    "UPDATE big SET v = v * x + y WHERE v < 0.5 AND y % 2 = 0",
    "UPDATE cube[1..2, *, 3..17] SET v = -v WHERE band + x > v * 20",
    "UPDATE cube[*, 0..10, *] SET v = CASE WHEN v > 0 THEN SQRT(v) ELSE y END",
];

fn answers() -> Vec<String> {
    let cat = catalog();
    // The array statements run first: their UPDATEs spread the cells
    // well beyond [-1, 1), so every WHERE below keeps some cells.
    let arrays: Vec<String> = ARRAY_STATEMENTS
        .iter()
        .map(|q| {
            let got = match execute(&cat, q).unwrap() {
                SciqlResult::Array(a) => a,
                // An UPDATE: the stored array, which the next one builds on.
                _ => cat.array(q.split([' ', '[']).nth(1).unwrap()).unwrap(),
            };
            format!("    (\"{q}\", 0x{:016x}),", digest(&got))
        })
        .collect();
    let scalars = statements().into_iter().map(|q| {
        let got = execute(&cat, &q).unwrap().scalar().unwrap();
        format!("    (\"{q}\", 0x{:016x}),", got.to_bits())
    });
    scalars.chain(arrays).collect()
}

#[test]
fn every_answer_equals_the_cell_at_a_time_interpreters() {
    let pinned: Vec<String> = PINNED.iter().map(|(q, bits)| format!("    (\"{q}\", 0x{bits:016x}),")).collect();
    let got = answers();
    assert!(got == pinned, "answers differ from the pinned ones; this build's are:\n{}", got.join("\n"));
}

/// A SciQL UPDATE replaces the stored array; arrays read before it keep
/// their cells, and the array it read from is not written through.
#[test]
fn update_never_changes_another_holders_cells() {
    let cat = catalog();
    let before = cat.array("cube").unwrap();
    let copy = before.data().to_vec();
    execute(&cat, "UPDATE cube SET v = 42").unwrap();
    assert_eq!(before.data(), copy);
    assert!(cat.array("cube").unwrap().data().iter().all(|&v| v == 42.0));
    // A map's result is the caller's: writing to it leaves the source alone.
    let mut mapped = execute(&cat, "SELECT v FROM cube").unwrap().array().unwrap();
    mapped.data_mut()[0] = -1.0;
    assert_eq!(cat.array("cube").unwrap().data()[0], 42.0);
}

/// (statement, answer bits or array digest) from the parent build.
const PINNED: &[(&str, u64)] = &[
    ("SELECT SUM(v) FROM big", 0x414c1ee938ffb043),
    ("SELECT SUM(v) FROM big[3..200, 10..150]", 0x41294e2588bc8ecb),
    ("SELECT SUM(v * 1.5 - 2) FROM big", 0x41546d42eabfc452),
    ("SELECT SUM(ABS(v) * 1.5 - 2) FROM big[3..200, 10..150]", 0x41345c99304b9778),
    ("SELECT SUM(v + y * 0.5 - x) FROM big", 0xc1422d23c7004f42),
    ("SELECT SUM(v + y * 0.5 - x) FROM big[3..200, 10..150]", 0x40dcb1b11791d8f7),
    ("SELECT SUM(v) FROM big WHERE v > 0.25", 0x414edb034191e4b9),
    ("SELECT SUM(v * x) FROM big[3..200, 10..150] WHERE x % 3 = 0 AND v < 0.5", 0xc1386d93382950ec),
    ("SELECT SUM(v) FROM big[3..200, 10..150] WHERE v > 5", 0x412a976ef98c4126),
    ("SELECT SUM(v) FROM cube", 0x4095073a01073bdc),
    ("SELECT SUM(v) FROM cube[1..3, *, 2..9]", 0x40753da473eff244),
    ("SELECT SUM(v * 1.5 - 2) FROM cube", 0xc0354a3f9d498f8e),
    ("SELECT SUM(ABS(v) * 1.5 - 2) FROM cube[1..3, *, 2..9]", 0x403fa84af64a6dd2),
    ("SELECT SUM(v + band * 7 + y - x / 3) FROM cube", 0x40ce2fe74020e771),
    ("SELECT SUM(v + band * 7 + y - x / 3) FROM cube[1..3, *, 2..9]", 0x40b5612f9c94547a),
    ("SELECT SUM(v) FROM cube WHERE v > 0.25", 0x40968917f825b67f),
    ("SELECT SUM(v * x) FROM cube[1..3, *, 2..9] WHERE x % 3 = 0 AND v < 0.5", 0xc014f9347e8bf542),
    ("SELECT SUM(v) FROM cube[1..3, *, 2..9] WHERE v > 5", 0x4067200000000000),
    ("SELECT AVG(v) FROM big", 0x40452ed94176e708),
    ("SELECT AVG(v) FROM big[3..200, 10..150]", 0x403e10bbc2f1ec39),
    ("SELECT AVG(v * 1.5 - 2) FROM big", 0x404ec645e2325abc),
    ("SELECT AVG(ABS(v) * 1.5 - 2) FROM big[3..200, 10..150]", 0x4048312057152923),
    ("SELECT AVG(v + y * 0.5 - x) FROM big", 0xc03b624d7d123136),
    ("SELECT AVG(v + y * 0.5 - x) FROM big[3..200, 10..150]", 0x3ff10bbc2f1ec359),
    ("SELECT AVG(v) FROM big WHERE v > 0.25", 0x40529119c3f1a50c),
    ("SELECT AVG(v * x) FROM big[3..200, 10..150] WHERE x % 3 = 0 AND v < 0.5", 0xc079fb6d3019dcf3),
    ("SELECT AVG(v) FROM big[3..200, 10..150] WHERE v > 5", 0x4058bfa96bf28252),
    ("SELECT AVG(v) FROM cube", 0x3ff51c56575e9a76),
    ("SELECT AVG(v) FROM cube[1..3, *, 2..9]", 0x3ff36b8f0aea0212),
    ("SELECT AVG(v * 1.5 - 2) FROM cube", 0xbf955f9f3c8615a4),
    ("SELECT AVG(ABS(v) * 1.5 - 2) FROM cube[1..3, *, 2..9]", 0x3fbcf1a39f59fe02),
    ("SELECT AVG(v + band * 7 + y - x / 3) FROM cube", 0x402e4e3575967def),
    ("SELECT AVG(v + band * 7 + y - x / 3) FROM cube[1..3, *, 2..9]", 0x40338c0e4603f577),
    ("SELECT AVG(v) FROM cube WHERE v > 0.25", 0x40008dd793640f0e),
    ("SELECT AVG(v * x) FROM cube[1..3, *, 2..9] WHERE x % 3 = 0 AND v < 0.5", 0xbfc65f26ed6216ad),
    ("SELECT AVG(v) FROM cube[1..3, *, 2..9] WHERE v > 5", 0x401d99999999999a),
    ("SELECT MIN(v) FROM big", 0xc07193fb33af6543),
    ("SELECT MIN(v) FROM big[3..200, 10..150]", 0xc060cbf80f37909c),
    ("SELECT MIN(v * 1.5 - 2) FROM big", 0xc07a7df8cd8717e4),
    ("SELECT MIN(ABS(v) * 1.5 - 2) FROM big[3..200, 10..150]", 0xbffffed4156b5a1c),
    ("SELECT MIN(v + y * 0.5 - x) FROM big", 0xc081a9fd99d7b2a2),
    ("SELECT MIN(v + y * 0.5 - x) FROM big[3..200, 10..150]", 0xc07185fc079bc84e),
    ("SELECT MIN(v) FROM big WHERE v > 0.25", 0x3fd00149d71dd99c),
    ("SELECT MIN(v * x) FROM big[3..200, 10..150] WHERE x % 3 = 0 AND v < 0.5", 0xc0d05f50471c3fca),
    ("SELECT MIN(v) FROM big[3..200, 10..150] WHERE v > 5", 0x4014168321ed8540),
    ("SELECT MIN(v) FROM cube", 0xbfeffdef710aec22),
    ("SELECT MIN(v) FROM cube[1..3, *, 2..9]", 0xbfeffdef710aec22),
    ("SELECT MIN(v * 1.5 - 2) FROM cube", 0xc00bff39ca64188d),
    ("SELECT MIN(ABS(v) * 1.5 - 2) FROM cube[1..3, *, 2..9]", 0xc000000000000000),
    ("SELECT MIN(v + band * 7 + y - x / 3) FROM cube", 0xc015555555555555),
    ("SELECT MIN(v + band * 7 + y - x / 3) FROM cube[1..3, *, 2..9]", 0x4012dc3bdbcffaf6),
    ("SELECT MIN(v) FROM cube WHERE v > 0.25", 0x3fd00be31439142c),
    ("SELECT MIN(v * x) FROM cube[1..3, *, 2..9] WHERE x % 3 = 0 AND v < 0.5", 0xc017fe7394c8311a),
    ("SELECT MIN(v) FROM cube[1..3, *, 2..9] WHERE v > 5", 0x4018000000000000),
    ("SELECT MAX(v) FROM big", 0x407b5089842fc2be),
    ("SELECT MAX(v) FROM big[3..200, 10..150]", 0x4070084040cea1f8),
    ("SELECT MAX(v * 1.5 - 2) FROM big", 0x40846c672323d20e),
    ("SELECT MAX(ABS(v) * 1.5 - 2) FROM big[3..200, 10..150]", 0x4077ec606135f2f4),
    ("SELECT MAX(v + y * 0.5 - x) FROM big", 0x407bf00000000000),
    ("SELECT MAX(v + y * 0.5 - x) FROM big[3..200, 10..150]", 0x4072092e2ca5a9d0),
    ("SELECT MAX(v) FROM big WHERE v > 0.25", 0x407b5089842fc2be),
    ("SELECT MAX(v * x) FROM big[3..200, 10..150] WHERE x % 3 = 0 AND v < 0.5", 0x40523bbc3aea0a95),
    ("SELECT MAX(v) FROM big[3..200, 10..150] WHERE v > 5", 0x4070084040cea1f8),
    ("SELECT MAX(v) FROM cube", 0x4022000000000000),
    ("SELECT MAX(v) FROM cube[1..3, *, 2..9]", 0x4022000000000000),
    ("SELECT MAX(v * 1.5 - 2) FROM cube", 0x4027000000000000),
    ("SELECT MAX(ABS(v) * 1.5 - 2) FROM cube[1..3, *, 2..9]", 0x4027000000000000),
    ("SELECT MAX(v + band * 7 + y - x / 3) FROM cube", 0x40403fe41ef19725),
    ("SELECT MAX(v + band * 7 + y - x / 3) FROM cube[1..3, *, 2..9]", 0x40401ecee1818672),
    ("SELECT MAX(v) FROM cube WHERE v > 0.25", 0x4022000000000000),
    ("SELECT MAX(v * x) FROM cube[1..3, *, 2..9] WHERE x % 3 = 0 AND v < 0.5", 0x40064cb43d1cd839),
    ("SELECT MAX(v) FROM cube[1..3, *, 2..9] WHERE v > 5", 0x4022000000000000),
    ("SELECT COUNT(v) FROM big", 0x40f53d8000000000),
    ("SELECT COUNT(v) FROM big[3..200, 10..150]", 0x40daef0000000000),
    ("SELECT COUNT(v * 1.5 - 2) FROM big", 0x40f53d8000000000),
    ("SELECT COUNT(ABS(v) * 1.5 - 2) FROM big[3..200, 10..150]", 0x40daef0000000000),
    ("SELECT COUNT(v + y * 0.5 - x) FROM big", 0x40f53d8000000000),
    ("SELECT COUNT(v + y * 0.5 - x) FROM big[3..200, 10..150]", 0x40daef0000000000),
    ("SELECT COUNT(v) FROM big WHERE v > 0.25", 0x40ea970000000000),
    ("SELECT COUNT(v * x) FROM big[3..200, 10..150] WHERE x % 3 = 0 AND v < 0.5", 0x40ae160000000000),
    ("SELECT COUNT(v) FROM big[3..200, 10..150] WHERE v > 5", 0x40c1310000000000),
    ("SELECT COUNT(v) FROM cube", 0x408fe00000000000),
    ("SELECT COUNT(v) FROM cube[1..3, *, 2..9]", 0x4071800000000000),
    ("SELECT COUNT(v * 1.5 - 2) FROM cube", 0x408fe00000000000),
    ("SELECT COUNT(ABS(v) * 1.5 - 2) FROM cube[1..3, *, 2..9]", 0x4071800000000000),
    ("SELECT COUNT(v + band * 7 + y - x / 3) FROM cube", 0x408fe00000000000),
    ("SELECT COUNT(v + band * 7 + y - x / 3) FROM cube[1..3, *, 2..9]", 0x4071800000000000),
    ("SELECT COUNT(v) FROM cube WHERE v > 0.25", 0x4085c80000000000),
    ("SELECT COUNT(v * x) FROM cube[1..3, *, 2..9] WHERE x % 3 = 0 AND v < 0.5", 0x403e000000000000),
    ("SELECT COUNT(v) FROM cube[1..3, *, 2..9] WHERE v > 5", 0x4039000000000000),
    ("SELECT STDDEV(v) FROM big", 0x40564814347dc84f),
    ("SELECT STDDEV(v) FROM big[3..200, 10..150]", 0x404cc576bb0b182d),
    ("SELECT STDDEV(v * 1.5 - 2) FROM big", 0x4060b60f275e5639),
    ("SELECT STDDEV(ABS(v) * 1.5 - 2) FROM big[3..200, 10..150]", 0x4054d5b50e2775ef),
    ("SELECT STDDEV(v + y * 0.5 - x) FROM big", 0x406210e14046bda3),
    ("SELECT STDDEV(v + y * 0.5 - x) FROM big[3..200, 10..150]", 0x40553cdfd5341a42),
    ("SELECT STDDEV(v) FROM big WHERE v > 0.25", 0x405828994b7fc301),
    ("SELECT STDDEV(v * x) FROM big[3..200, 10..150] WHERE x % 3 = 0 AND v < 0.5", 0x4098cd293532b05f),
    ("SELECT STDDEV(v) FROM big[3..200, 10..150] WHERE v > 5", 0x404bf995dc47f1b3),
    ("SELECT STDDEV(v) FROM cube", 0x4002d5de5ba5b0d1),
    ("SELECT STDDEV(v) FROM cube[1..3, *, 2..9]", 0x4001b56590f9b823),
    ("SELECT STDDEV(v * 1.5 - 2) FROM cube", 0x400c40cd89788946),
    ("SELECT STDDEV(ABS(v) * 1.5 - 2) FROM cube[1..3, *, 2..9]", 0x4009239209045475),
    ("SELECT STDDEV(v + band * 7 + y - x / 3) FROM cube", 0x4020644c18cd134f),
    ("SELECT STDDEV(v + band * 7 + y - x / 3) FROM cube[1..3, *, 2..9]", 0x401b18fade12ebfe),
    ("SELECT STDDEV(v) FROM cube WHERE v > 0.25", 0x40040afe526876ef),
    ("SELECT STDDEV(v * x) FROM cube[1..3, *, 2..9] WHERE x % 3 = 0 AND v < 0.5", 0x4001270e1787f3ce),
    ("SELECT STDDEV(v) FROM cube[1..3, *, 2..9] WHERE v > 5", 0x3ff2a8b73e294fb5),
    ("SELECT COUNT(*) FROM big", 0x40f53d8000000000),
    ("SELECT COUNT(*) FROM cube[*, 0..5, *] WHERE y = 4", 0x4049800000000000),
    ("SELECT v FROM big", 0x0ffb06f90127b9d8),
    ("SELECT v FROM cube[0..2, 5..20, *]", 0x60a240176caf41b2),
    ("SELECT CASE WHEN v > 0.3 THEN 1 ELSE 0 END FROM big[*, 100..290]", 0x845f8e8a9e8bd670),
    ("SELECT POW(v, 2) + x - MIN(y, band) FROM cube", 0xb661c31780977fa6),
    ("SELECT AVG(v) FROM big GROUP BY TILES [16, 16]", 0x492ae4818bbf55ea),
    ("SELECT MAX(v * y) FROM cube GROUP BY TILES [1, 4, 5]", 0x8a688791d228323e),
    ("UPDATE big SET v = v * x + y WHERE v < 0.5 AND y % 2 = 0", 0xecc54b91151b4803),
    ("UPDATE cube[1..2, *, 3..17] SET v = -v WHERE band + x > v * 20", 0x1951029f2e481555),
    ("UPDATE cube[*, 0..10, *] SET v = CASE WHEN v > 0 THEN SQRT(v) ELSE y END", 0x72eb014d0d474958),
];

#[test]
fn parser_answers_every_mangled_statement_with_ok_or_err() {
    let seeds: Vec<String> = statements().into_iter().chain(ARRAY_STATEMENTS.map(String::from)).collect();
    let seeds: Vec<&str> = seeds.iter().map(String::as_str).collect();
    assert_eq!(seeds.len(), 119);
    teleios_check::fuzz_text(&seeds, teleios_sciql::parser::parse);
}

#[test]
fn deeply_nested_sciql_is_rejected_not_overflowed() {
    const DEEP: usize = 100_000;
    for bomb in [
        format!("SELECT {}v FROM big", "(".repeat(DEEP)),
        format!("SELECT {}v FROM big", "-".repeat(DEEP)),
        format!("SELECT {}1 FROM big", "CASE WHEN v > 0 THEN ".repeat(DEEP)),
        format!("SELECT SUM({}v) FROM big GROUP BY TILES [2, 2]", "ABS(".repeat(DEEP)),
    ] {
        let parsed = std::thread::spawn(move || teleios_sciql::parser::parse(&bomb).is_ok())
            .join()
            .expect("the parser returns instead of overflowing its stack");
        assert!(!parsed);
    }
}
