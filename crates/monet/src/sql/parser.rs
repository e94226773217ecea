//! Recursive-descent SQL parser.

use crate::sql::ast::*;
use crate::sql::lexer::{Cursor, Symbol, TokenKind};
use crate::value::{DataType, Value};
use crate::Result;

/// Parse one SQL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut c = Cursor::new(sql)?;
    let stmt = c.statement()?;
    c.accept_symbol(Symbol::Semicolon);
    c.expect_eof()?;
    Ok(stmt)
}

/// The SQL grammar, over the cursor SciQL's grammar shares.
impl Cursor<'_> {
    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.accept_kw("CREATE") {
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            self.expect_symbol(Symbol::LParen)?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let ty_name = self.ident()?;
                let ty = DataType::parse(&ty_name)
                    .ok_or_else(|| self.err(format!("unknown type: {ty_name}")))?;
                columns.push((col, ty));
                if !self.accept_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Statement::CreateTable { name, columns });
        }
        if self.accept_kw("DROP") {
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            return Ok(Statement::DropTable { name });
        }
        if self.accept_kw("INSERT") {
            self.expect_kw("INTO")?;
            let table = self.ident()?;
            let columns = if self.accept_symbol(Symbol::LParen) {
                let mut cols = vec![self.ident()?];
                while self.accept_symbol(Symbol::Comma) {
                    cols.push(self.ident()?);
                }
                self.expect_symbol(Symbol::RParen)?;
                Some(cols)
            } else {
                None
            };
            self.expect_kw("VALUES")?;
            let mut rows = Vec::new();
            loop {
                self.expect_symbol(Symbol::LParen)?;
                let mut row = vec![self.expr()?];
                while self.accept_symbol(Symbol::Comma) {
                    row.push(self.expr()?);
                }
                self.expect_symbol(Symbol::RParen)?;
                rows.push(row);
                if !self.accept_symbol(Symbol::Comma) {
                    break;
                }
            }
            return Ok(Statement::Insert { table, columns, rows });
        }
        if self.accept_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let where_clause = if self.accept_kw("WHERE") { Some(self.expr()?) } else { None };
            return Ok(Statement::Delete { table, where_clause });
        }
        if self.accept_kw("UPDATE") {
            let table = self.ident()?;
            self.expect_kw("SET")?;
            let mut assignments = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect_symbol(Symbol::Eq)?;
                assignments.push((col, self.expr()?));
                if !self.accept_symbol(Symbol::Comma) {
                    break;
                }
            }
            let where_clause = if self.accept_kw("WHERE") { Some(self.expr()?) } else { None };
            return Ok(Statement::Update { table, assignments, where_clause });
        }
        Err(self.err("expected SELECT, CREATE, DROP, INSERT, DELETE or UPDATE"))
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.accept_kw("DISTINCT");
        let mut items = vec![self.select_item()?];
        while self.accept_symbol(Symbol::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw("FROM")?;
        let mut from = vec![self.table_ref()?];
        let mut joins = Vec::new();
        loop {
            if self.accept_symbol(Symbol::Comma) {
                from.push(self.table_ref()?);
            } else if self.accept_kw("JOIN") || {
                if self.peek_kw("INNER") {
                    self.advance();
                    self.expect_kw("JOIN")?;
                    true
                } else {
                    false
                }
            } {
                let tr = self.table_ref()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                joins.push((tr, on));
            } else {
                break;
            }
        }
        let where_clause = if self.accept_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.accept_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expr()?);
            while self.accept_symbol(Symbol::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.accept_kw("HAVING") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.accept_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.accept_kw("DESC") {
                    true
                } else {
                    self.accept_kw("ASC");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.accept_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let limit = if self.accept_kw("LIMIT") { Some(self.usize_lit()?) } else { None };
        Ok(Select { distinct, items, from, joins, where_clause, group_by, having, order_by, limit })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = if self.accept_kw("AS") {
            Some(self.ident()?)
        } else if let TokenKind::Ident(s) = self.peek() {
            // Bare alias, unless it is a clause keyword.
            const CLAUSE_KWS: &[&str] =
                &["WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "FROM"];
            if CLAUSE_KWS.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.accept_symbol(Symbol::Star) {
            return Ok(SelectItem::Wildcard);
        }
        if let Some((func, expr)) = self.aggregate()? {
            let alias = self.alias()?;
            return Ok(SelectItem::Aggregate { func, expr, alias });
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// The aggregate call `AGG(*)` or `AGG(expr)` (`*` is `None`), if one
    /// comes next: SQL's select list and SciQL's reductions spell their
    /// aggregates alike.
    pub fn aggregate(&mut self) -> Result<Option<(AggFunc, Option<Expr>)>> {
        let func = match self.peek() {
            TokenKind::Ident(name) if self.lookahead(1) == &TokenKind::Symbol(Symbol::LParen) => {
                AggFunc::parse(name)
            }
            _ => None,
        };
        let Some(func) = func else {
            return Ok(None);
        };
        self.advance(); // name
        self.advance(); // (
        let expr = if self.accept_symbol(Symbol::Star) { None } else { Some(self.expr()?) };
        self.expect_symbol(Symbol::RParen)?;
        Ok(Some((func, expr)))
    }

    fn alias(&mut self) -> Result<Option<String>> {
        if self.accept_kw("AS") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    /// One expression: the SQL family's one grammar, which SciQL's
    /// statements parse their cell expressions with too. Precedence:
    /// OR > AND > NOT > comparison > additive > term.
    pub fn expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.accept_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.accept_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    /// Every nested expression passes through here (a parenthesis, an
    /// argument list, an IN list, a CASE arm or a NOT), so the nesting
    /// bound is charged here and on unary signs.
    fn not_expr(&mut self) -> Result<Expr> {
        self.nested(|c| {
            if c.accept_kw("NOT") {
                Ok(Expr::Not(Box::new(c.not_expr()?)))
            } else {
                c.comparison()
            }
        })
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // Postfix predicates.
        if self.accept_kw("IS") {
            let negated = self.accept_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        if self.accept_kw("BETWEEN") {
            let lo = self.additive()?;
            self.expect_kw("AND")?;
            let hi = self.additive()?;
            return Ok(Expr::Between { expr: Box::new(left), lo: Box::new(lo), hi: Box::new(hi) });
        }
        let negated_in = self.peek_kw("NOT")
            && matches!(self.lookahead(1), TokenKind::Ident(k) if k.eq_ignore_ascii_case("IN") || k.eq_ignore_ascii_case("LIKE"));
        if negated_in {
            self.advance();
        }
        if self.accept_kw("IN") {
            self.expect_symbol(Symbol::LParen)?;
            let mut list = vec![self.expr()?];
            while self.accept_symbol(Symbol::Comma) {
                list.push(self.expr()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated: negated_in });
        }
        if self.accept_kw("LIKE") {
            let pat = match self.advance() {
                TokenKind::Str(s) => s,
                _ => return Err(self.err("LIKE expects a string literal pattern")),
            };
            let like = Expr::Like { expr: Box::new(left), pattern: pat };
            return Ok(if negated_in { Expr::Not(Box::new(like)) } else { like });
        }
        if negated_in {
            return Err(self.err("expected IN or LIKE after NOT"));
        }
        let op = match self.peek() {
            TokenKind::Symbol(Symbol::Eq) => Some(BinOp::Eq),
            TokenKind::Symbol(Symbol::Ne) => Some(BinOp::Ne),
            TokenKind::Symbol(Symbol::Lt) => Some(BinOp::Lt),
            TokenKind::Symbol(Symbol::Le) => Some(BinOp::Le),
            TokenKind::Symbol(Symbol::Gt) => Some(BinOp::Gt),
            TokenKind::Symbol(Symbol::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.additive()?;
            return Ok(Expr::binary(op, left, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol(Symbol::Plus) => BinOp::Add,
                TokenKind::Symbol(Symbol::Minus) => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol(Symbol::Star) => BinOp::Mul,
                TokenKind::Symbol(Symbol::Slash) => BinOp::Div,
                TokenKind::Symbol(Symbol::Percent) => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.accept_symbol(Symbol::Minus) {
            return Ok(Expr::Neg(Box::new(self.nested(Cursor::unary)?)));
        }
        if self.accept_symbol(Symbol::Plus) {
            return self.nested(Cursor::unary);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.advance() {
            TokenKind::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            TokenKind::Float(f) => Ok(Expr::Literal(Value::Double(f))),
            TokenKind::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            TokenKind::Symbol(Symbol::LParen) => {
                let e = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => return Ok(Expr::Literal(Value::Null)),
                    "TRUE" => return Ok(Expr::Literal(Value::Bool(true))),
                    "FALSE" => return Ok(Expr::Literal(Value::Bool(false))),
                    "CASE" => return self.case(),
                    _ => {}
                }
                // Function call?
                if self.peek() == &TokenKind::Symbol(Symbol::LParen) {
                    self.advance();
                    let mut args = Vec::new();
                    // `COUNT(*)` in HAVING/ORDER BY positions: star argument.
                    if self.accept_symbol(Symbol::Star) {
                        args.push(Expr::Column("*".into()));
                    } else if self.peek() != &TokenKind::Symbol(Symbol::RParen) {
                        args.push(self.expr()?);
                        while self.accept_symbol(Symbol::Comma) {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect_symbol(Symbol::RParen)?;
                    return Ok(Expr::Func { name: upper, args });
                }
                // Qualified column reference?
                if self.accept_symbol(Symbol::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column(format!("{name}.{col}")));
                }
                Ok(Expr::Column(name))
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }

    /// `CASE WHEN c THEN r [WHEN …]* [ELSE e] END`, after its `CASE`.
    fn case(&mut self) -> Result<Expr> {
        let mut arms = Vec::new();
        while self.accept_kw("WHEN") {
            let cond = self.expr()?;
            self.expect_kw("THEN")?;
            arms.push((cond, self.expr()?));
        }
        if arms.is_empty() {
            return Err(self.err("CASE needs at least one WHEN arm"));
        }
        let otherwise = if self.accept_kw("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("END")?;
        Ok(Expr::Case { arms, otherwise })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;

    fn sel(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b FROM t");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from[0].name, "t");
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn select_star_with_where() {
        let s = sel("SELECT * FROM t WHERE a > 5 AND b = 'x'");
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        assert!(matches!(s.where_clause, Some(Expr::Binary { op: BinOp::And, .. })));
    }

    #[test]
    fn operator_precedence() {
        let s = sel("SELECT a + b * 2 FROM t");
        let SelectItem::Expr { expr, .. } = &s.items[0] else { panic!() };
        // a + (b * 2)
        match expr {
            Expr::Binary { op: BinOp::Add, right, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        match s.where_clause.unwrap() {
            Expr::Binary { op: BinOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn aggregates_and_group_by() {
        let s =
            sel("SELECT tag, COUNT(*), AVG(score) AS m FROM t GROUP BY tag HAVING COUNT(*) > 1");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(matches!(
            s.items[1],
            SelectItem::Aggregate { func: AggFunc::Count, expr: None, .. }
        ));
        assert!(matches!(
            &s.items[2],
            SelectItem::Aggregate { func: AggFunc::Avg, alias: Some(a), .. } if a == "m"
        ));
    }

    #[test]
    fn joins_comma_and_explicit() {
        let s = sel("SELECT * FROM a, b WHERE a.x = b.y");
        assert_eq!(s.from.len(), 2);
        let s2 = sel("SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.z = c.w");
        assert_eq!(s2.joins.len(), 2);
        let s3 = sel("SELECT * FROM a INNER JOIN b ON a.x = b.y");
        assert_eq!(s3.joins.len(), 1);
    }

    #[test]
    fn table_alias() {
        let s = sel("SELECT p.id FROM products p WHERE p.id = 1");
        assert_eq!(s.from[0].alias.as_deref(), Some("p"));
        let s2 = sel("SELECT x FROM products AS pr");
        assert_eq!(s2.from[0].alias.as_deref(), Some("pr"));
    }

    #[test]
    fn order_limit_distinct() {
        let s = sel("SELECT DISTINCT a FROM t ORDER BY a DESC, b LIMIT 10");
        assert!(s.distinct);
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn predicates() {
        let s = sel("SELECT * FROM t WHERE a IS NOT NULL AND b BETWEEN 1 AND 5 AND c IN (1, 2) AND d LIKE 'x%' AND e NOT IN (3)");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn create_table() {
        let st = parse_statement("CREATE TABLE t (a INT, b DOUBLE, c VARCHAR)").unwrap();
        match st {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[2].1, DataType::Str);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn insert_values() {
        let st = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap();
        match st {
            Statement::Insert { table, columns, rows } => {
                assert_eq!(table, "t");
                assert_eq!(columns, Some(vec!["a".to_string(), "b".to_string()]));
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], Expr::Literal(Value::Null));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn insert_negative_numbers() {
        let st = parse_statement("INSERT INTO t VALUES (-1, -2.5)").unwrap();
        match st {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows[0][0], Expr::Neg(Box::new(Expr::Literal(Value::Int(1)))));
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn delete_with_where() {
        let st = parse_statement("DELETE FROM t WHERE a = 1").unwrap();
        assert!(matches!(st, Statement::Delete { where_clause: Some(_), .. }));
        let st2 = parse_statement("DELETE FROM t").unwrap();
        assert!(matches!(st2, Statement::Delete { where_clause: None, .. }));
    }

    #[test]
    fn drop_table() {
        assert!(matches!(parse_statement("DROP TABLE t").unwrap(), Statement::DropTable { .. }));
    }

    #[test]
    fn error_positions_and_messages() {
        let e = parse_statement("SELECT FROM t").unwrap_err();
        assert!(matches!(e, DbError::Parse { .. }));
        // A three-line statement with its error on line 3.
        let e = parse_statement("SELECT a,\n       b\nFROM t WHERE a = 1 )").unwrap_err();
        assert_eq!(e.to_string(), "parse error at line 3, column 20: unexpected trailing input");
        assert!(parse_statement("SELECT a FROM").is_err());
        assert!(parse_statement("FOO BAR").is_err());
        assert!(parse_statement("SET THREADS 4").is_err());
        assert!(parse_statement("SELECT a FROM t LIMIT 'x'").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_statement("SELECT a FROM t;").is_ok());
        assert!(parse_statement("SELECT a FROM t; SELECT b FROM t").is_err());
    }

    #[test]
    fn function_calls() {
        let s = sel("SELECT ABS(a), UPPER(b) FROM t WHERE SQRT(a) > 2");
        assert!(
            matches!(&s.items[0], SelectItem::Expr { expr: Expr::Func { name, .. }, .. } if name == "ABS")
        );
    }

    #[test]
    fn case_arms_and_else() {
        let s = sel("SELECT CASE WHEN a > 1 THEN 'big' WHEN a IS NULL THEN NULL ELSE b END FROM t");
        let SelectItem::Expr { expr: Expr::Case { arms, otherwise }, .. } = &s.items[0] else {
            panic!("wrong shape: {:?}", s.items[0])
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].1, Expr::Literal(Value::Str("big".into())));
        assert!(matches!(arms[1].0, Expr::IsNull { negated: false, .. }));
        assert_eq!(otherwise.as_deref(), Some(&Expr::Column("b".into())));
        // A CASE is a primary: it binds tighter than the comparison.
        let s = sel("SELECT * FROM t WHERE CASE WHEN a > 1 THEN 1 END = 1");
        assert!(matches!(
            s.where_clause,
            Some(Expr::Binary { op: BinOp::Eq, ref left, .. }) if matches!(**left, Expr::Case { otherwise: None, .. })
        ));
        assert!(parse_statement("SELECT CASE ELSE 1 END FROM t").is_err());
        assert!(parse_statement("SELECT CASE WHEN a THEN 1 FROM t").is_err());
    }

    #[test]
    fn boolean_literals() {
        let s = sel("SELECT * FROM t WHERE flag = TRUE");
        assert!(s.where_clause.is_some());
    }
}
