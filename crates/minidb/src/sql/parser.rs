//! Recursive-descent SQL parser.

use super::ast::*;
use super::lexer::{tokenize, Token};
use crate::error::{DbError, Result};
use crate::types::{DbType, DbValue};

/// Parse one SQL statement.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    if p.pos != p.tokens.len() {
        return Err(DbError::Syntax(format!(
            "unexpected trailing tokens starting at {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, expected: &Token) -> Result<()> {
        match self.bump() {
            Some(t) if t == *expected => Ok(()),
            Some(t) => Err(DbError::Syntax(format!("expected {expected:?}, got {t:?}"))),
            None => Err(DbError::Syntax(format!(
                "expected {expected:?}, got end of input"
            ))),
        }
    }

    /// Consume a keyword (a lowercase identifier) if it matches.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Syntax(format!(
                "expected keyword {kw:?}, got {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(DbError::Syntax(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("create") {
            if self.eat_kw("index") {
                self.create_index()
            } else {
                self.create_table()
            }
        } else if self.eat_kw("insert") {
            self.insert()
        } else if self.eat_kw("select") {
            Ok(Statement::Select(self.select()?))
        } else if self.eat_kw("drop") {
            self.expect_kw("table")?;
            Ok(Statement::DropTable {
                name: self.ident()?,
            })
        } else if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let name = self.ident()?;
            let predicate = if self.eat_kw("where") {
                Some(self.expr()?)
            } else {
                None
            };
            Ok(Statement::Delete { name, predicate })
        } else {
            Err(DbError::Syntax(format!(
                "expected CREATE/INSERT/SELECT/DROP/DELETE, got {:?}",
                self.peek()
            )))
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("table")?;
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty = match self.ident()?.as_str() {
                "int" | "integer" | "bigint" => DbType::Int,
                "double" | "float" | "real" => DbType::Double,
                "text" | "varchar" | "char" => DbType::Text,
                other => return Err(DbError::Syntax(format!("unknown type {other:?}"))),
            };
            // Tolerate a parenthesized length, e.g. VARCHAR(32).
            if matches!(self.peek(), Some(Token::LParen)) {
                self.bump();
                match self.bump() {
                    Some(Token::Int(_)) => {}
                    other => {
                        return Err(DbError::Syntax(format!("expected length, got {other:?}")))
                    }
                }
                self.expect(&Token::RParen)?;
            }
            columns.push((col, ty));
            match self.bump() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => return Err(DbError::Syntax(format!("expected , or ), got {other:?}"))),
            }
        }
        Ok(Statement::CreateTable { name, columns })
    }

    fn create_index(&mut self) -> Result<Statement> {
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect(&Token::LParen)?;
        let column = self.ident()?;
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateIndex { table, column })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let name = self.ident()?;
        let columns = if matches!(self.peek(), Some(Token::LParen)) {
            self.bump();
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                match self.bump() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    other => {
                        return Err(DbError::Syntax(format!("expected , or ), got {other:?}")))
                    }
                }
            }
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                match self.bump() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    other => {
                        return Err(DbError::Syntax(format!("expected , or ), got {other:?}")))
                    }
                }
            }
            rows.push(row);
            if matches!(self.peek(), Some(Token::Comma)) {
                self.bump();
                continue;
            }
            break;
        }
        Ok(Statement::Insert {
            name,
            columns,
            rows,
        })
    }

    fn literal(&mut self) -> Result<DbValue> {
        if matches!(self.peek(), Some(Token::Minus)) {
            self.bump();
            return match self.bump() {
                Some(Token::Int(i)) => Ok(DbValue::Int(-i)),
                Some(Token::Double(d)) => Ok(DbValue::Double(-d)),
                other => Err(DbError::Syntax(format!(
                    "expected number after '-', got {other:?}"
                ))),
            };
        }
        match self.bump() {
            Some(Token::Int(i)) => Ok(DbValue::Int(i)),
            Some(Token::Double(d)) => Ok(DbValue::Double(d)),
            Some(Token::Str(s)) => Ok(DbValue::Text(s)),
            Some(Token::Ident(s)) if s == "null" => Ok(DbValue::Null),
            other => Err(DbError::Syntax(format!("expected literal, got {other:?}"))),
        }
    }

    fn select(&mut self) -> Result<SelectStmt> {
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if matches!(self.peek(), Some(Token::Comma)) {
                self.bump();
                continue;
            }
            break;
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        loop {
            let table = self.ident()?;
            let alias = if self.eat_kw("as") {
                self.ident()?
            } else if let Some(Token::Ident(next)) = self.peek() {
                // Bare alias, unless it's a clause keyword.
                if matches!(next.as_str(), "where" | "group" | "order" | "limit") {
                    table.clone()
                } else {
                    self.ident()?
                }
            } else {
                table.clone()
            };
            from.push(TableRef { table, alias });
            if matches!(self.peek(), Some(Token::Comma)) {
                self.bump();
                continue;
            }
            break;
        }
        let predicate = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.sum_expr()?);
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.bump();
                    continue;
                }
                break;
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.sum_expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.bump();
                    continue;
                }
                break;
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.bump() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => return Err(DbError::Syntax(format!("bad LIMIT {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            predicate,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if matches!(self.peek(), Some(Token::Star)) {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate?
        if let Some(Token::Ident(name)) = self.peek() {
            let func = match name.as_str() {
                "count" => Some(AggFunc::Count),
                "sum" => Some(AggFunc::Sum),
                "avg" => Some(AggFunc::Avg),
                "min" => Some(AggFunc::Min),
                "max" => Some(AggFunc::Max),
                _ => None,
            };
            if let Some(func) = func {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    let fname = name.clone();
                    self.bump(); // func name
                    self.bump(); // (
                    let arg = if matches!(self.peek(), Some(Token::Star)) {
                        self.bump();
                        if func != AggFunc::Count {
                            return Err(DbError::Syntax(format!("{fname}(*) is not valid")));
                        }
                        None
                    } else {
                        Some(self.sum_expr()?)
                    };
                    self.expect(&Token::RParen)?;
                    let label = if self.eat_kw("as") {
                        self.ident()?
                    } else {
                        match &arg {
                            Some(e) => format!("{fname}({})", e.default_label()),
                            None => format!("{fname}(*)"),
                        }
                    };
                    return Ok(SelectItem::Aggregate { func, arg, label });
                }
            }
        }
        let expr = self.sum_expr()?;
        let label = if self.eat_kw("as") {
            self.ident()?
        } else {
            expr.default_label()
        };
        Ok(SelectItem::Expr { expr, label })
    }

    /// Expression grammar: or_expr := and_expr (OR and_expr)* ;
    /// and_expr := not_expr (AND not_expr)* ; not_expr := [NOT] cmp_expr ;
    /// cmp_expr := primary ((= | <> | < | <= | > | >= | LIKE) primary
    ///           | IS [NOT] NULL | [NOT] IN (literal, ...))?
    fn expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.sum_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::NotEq) => Some(BinOp::NotEq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            Some(Token::Ident(s)) if s == "like" => Some(BinOp::Like),
            Some(Token::Ident(s)) if s == "is" => {
                self.bump();
                let negated = self.eat_kw("not");
                self.expect_kw("null")?;
                return Ok(Expr::IsNull {
                    expr: Box::new(left),
                    negated,
                });
            }
            Some(Token::Ident(s)) if s == "in" => {
                self.bump();
                return self.in_list(left, false);
            }
            Some(Token::Ident(s))
                if s == "not"
                    && matches!(self.tokens.get(self.pos + 1), Some(Token::Ident(n)) if n == "in") =>
            {
                self.bump(); // not
                self.bump(); // in
                return self.in_list(left, true);
            }
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let right = self.sum_expr()?;
                Ok(Expr::Binary {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
            None => Ok(left),
        }
    }

    /// The parenthesized literal set of `expr [NOT] IN (...)`. An empty set
    /// is a syntax error, as in standard SQL.
    fn in_list(&mut self, left: Expr, negated: bool) -> Result<Expr> {
        self.expect(&Token::LParen)?;
        let mut list = Vec::new();
        loop {
            list.push(self.literal()?);
            match self.bump() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => return Err(DbError::Syntax(format!("expected , or ), got {other:?}"))),
            }
        }
        Ok(Expr::InList {
            expr: Box::new(left),
            list,
            negated,
        })
    }

    /// sum := term ((+|-) term)*
    fn sum_expr(&mut self) -> Result<Expr> {
        let mut left = self.term_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.term_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    /// term := unary ((*|/) unary)*
    fn term_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.unary_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    /// unary := '-' unary | primary
    fn unary_expr(&mut self) -> Result<Expr> {
        if matches!(self.peek(), Some(Token::Minus)) {
            self.bump();
            return Ok(Expr::Neg(Box::new(self.unary_expr()?)));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Int(i)) => {
                self.bump();
                Ok(Expr::Literal(DbValue::Int(i)))
            }
            Some(Token::Double(d)) => {
                self.bump();
                Ok(Expr::Literal(DbValue::Double(d)))
            }
            Some(Token::Str(s)) => {
                self.bump();
                Ok(Expr::Literal(DbValue::Text(s)))
            }
            Some(Token::Ident(name)) if name == "null" => {
                self.bump();
                Ok(Expr::Literal(DbValue::Null))
            }
            Some(Token::Ident(name)) => {
                self.bump();
                if matches!(self.peek(), Some(Token::Dot)) {
                    self.bump();
                    let col = self.ident()?;
                    Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    })
                } else {
                    Ok(Expr::Column { table: None, name })
                }
            }
            other => Err(DbError::Syntax(format!(
                "expected expression, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_index() {
        assert_eq!(
            parse_statement("CREATE INDEX ON Events (ExecId)").unwrap(),
            Statement::CreateIndex {
                table: "events".into(),
                column: "execid".into(),
            }
        );
        for bad in [
            "CREATE INDEX events (execid)",
            "CREATE INDEX ON events execid",
            "CREATE INDEX ON events (execid, procid)",
            "CREATE INDEX ix ON events (execid)",
        ] {
            assert!(parse_statement(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn create_table() {
        let stmt = parse_statement("CREATE TABLE t (id INT, v DOUBLE, s VARCHAR(32))").unwrap();
        assert_eq!(
            stmt,
            Statement::CreateTable {
                name: "t".into(),
                columns: vec![
                    ("id".into(), DbType::Int),
                    ("v".into(), DbType::Double),
                    ("s".into(), DbType::Text),
                ],
            }
        );
    }

    #[test]
    fn insert_multi_row() {
        let stmt = parse_statement("INSERT INTO t (id, s) VALUES (1, 'a'), (2, NULL)").unwrap();
        match stmt {
            Statement::Insert {
                name,
                columns,
                rows,
            } => {
                assert_eq!(name, "t");
                assert_eq!(columns, Some(vec!["id".into(), "s".into()]));
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], DbValue::Null);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_full_clause_set() {
        let stmt = parse_statement(
            "SELECT DISTINCT a.x AS foo, COUNT(*) FROM t1 a, t2 \
             WHERE a.x = t2.y AND (v > 1 OR v <= -2) AND s LIKE '%mpi%' \
             GROUP BY a.x ORDER BY foo DESC, x LIMIT 10",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert!(sel.distinct);
        assert_eq!(sel.items.len(), 2);
        assert_eq!(sel.from.len(), 2);
        assert_eq!(sel.from[0].alias, "a");
        assert_eq!(sel.from[1].alias, "t2");
        assert!(sel.predicate.is_some());
        assert_eq!(sel.group_by.len(), 1);
        assert_eq!(sel.order_by.len(), 2);
        assert!(sel.order_by[0].desc);
        assert!(!sel.order_by[1].desc);
        assert_eq!(sel.limit, Some(10));
    }

    #[test]
    fn aggregates() {
        let stmt =
            parse_statement("SELECT SUM(v) AS total, MIN(v), MAX(v), AVG(v) FROM t").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(sel.items.len(), 4);
        match &sel.items[0] {
            SelectItem::Aggregate {
                func: AggFunc::Sum,
                label,
                ..
            } => assert_eq!(label, "total"),
            other => panic!("{other:?}"),
        }
        match &sel.items[1] {
            SelectItem::Aggregate {
                func: AggFunc::Min,
                label,
                ..
            } => assert_eq!(label, "min(v)"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_star_only() {
        assert!(parse_statement("SELECT SUM(*) FROM t").is_err());
        assert!(parse_statement("SELECT COUNT(*) FROM t").is_ok());
    }

    #[test]
    fn is_null_and_not() {
        let stmt =
            parse_statement("SELECT * FROM t WHERE a IS NULL AND NOT b IS NOT NULL").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert!(sel.predicate.is_some());
    }

    #[test]
    fn in_list_forms() {
        let stmt =
            parse_statement("SELECT * FROM t WHERE x IN (1, 2.5, 'a') AND y NOT IN (-3, NULL)")
                .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        let Some(Expr::Binary {
            op: BinOp::And,
            left,
            right,
        }) = sel.predicate
        else {
            panic!("expected AND of two IN lists")
        };
        assert_eq!(
            *left,
            Expr::InList {
                expr: Box::new(Expr::col("x")),
                list: vec![
                    DbValue::Int(1),
                    DbValue::Double(2.5),
                    DbValue::Text("a".into())
                ],
                negated: false,
            }
        );
        assert_eq!(
            *right,
            Expr::InList {
                expr: Box::new(Expr::col("y")),
                list: vec![DbValue::Int(-3), DbValue::Null],
                negated: true,
            }
        );
        // NOT (x IN ...) still parses: the prefix-NOT path is untouched.
        assert!(parse_statement("SELECT * FROM t WHERE NOT x IN (1)").is_ok());
        // Empty and malformed sets are syntax errors.
        assert!(parse_statement("SELECT * FROM t WHERE x IN ()").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE x IN (1, )").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE x IN 1").is_err());
        // IN takes literals, not arbitrary expressions.
        assert!(parse_statement("SELECT * FROM t WHERE x IN (y)").is_err());
    }

    #[test]
    fn delete_and_drop() {
        assert_eq!(
            parse_statement("DROP TABLE t").unwrap(),
            Statement::DropTable { name: "t".into() }
        );
        match parse_statement("DELETE FROM t WHERE id = 3").unwrap() {
            Statement::Delete { name, predicate } => {
                assert_eq!(name, "t");
                assert!(predicate.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("SELECT * FROM t exuberance!").is_err());
        assert!(parse_statement("DROP TABLE t t2").is_err());
    }

    #[test]
    fn errors_are_syntax() {
        for bad in [
            "",
            "SELEC * FROM t",
            "SELECT FROM t",
            "CREATE TABLE t (x BLOB)",
            "INSERT INTO t VALUES",
            "SELECT * FROM t LIMIT 'x'",
        ] {
            assert!(
                matches!(parse_statement(bad), Err(DbError::Syntax(_))),
                "should reject {bad:?}"
            );
        }
    }
}
