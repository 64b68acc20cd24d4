//! Differential tests: the bound-plan pipeline against the interpreter it
//! replaced ([`super::oracle`]), on generated schemas, rows and queries.
//!
//! Each case is grown from one `u64` (proptest prints it on failure): 1–3
//! tables of 2–4 typed columns and 0–12 rows with NULLs, wide integers and
//! Int-valued doubles; a SELECT over them with equi-joins (Int = Double and
//! Text = Int keys included), AND/OR/NOT/IN/LIKE/IS NULL, arithmetic that
//! overflows and divides by zero, GROUP BY, aggregates, ORDER BY, DISTINCT
//! and LIMIT. The statement is rendered to SQL and parsed back, so both
//! engines see what the parser produces. Results must be identical — same
//! rows in the same order — and failures must be of the same variant.
//!
//! Left out on purpose, because the new engine fixes them (asserted in
//! `tests/sql_integration.rs`): the text `'NULL'` and the `\u{1f}` joiner in
//! data (group/DISTINCT key aliasing) and `SUM`/`AVG` over integers past
//! 2^53. Unknown columns are never generated: binding reports them before
//! any row is read, which the interpreter could not. ORDER BY is the one
//! place the oracle was touched: it sorts with the new engine's total
//! [`super::order_cmp`], because `sort_by` may panic on the interpreter's
//! non-total `DbValue::compare` as soon as a key is NaN.

use super::oracle;
use crate::sql::{
    parse_statement, AggFunc, BinOp, Expr, OrderKey, SelectItem, SelectStmt, Statement, TableRef,
};
use crate::{sql_quote, Database, DbError, DbType, DbValue, TableSchema};
use proptest::prelude::*;

/// splitmix64.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())].clone()
    }
}

/// What a generated column holds; `IntWide` adds values near the i64 limits
/// (overflow widening) and stays out of `SUM`/`AVG`.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    IntSmall,
    IntWide,
    Double,
    Text,
}

struct GenTable {
    schema: TableSchema,
    kinds: Vec<Kind>,
    rows: Vec<Vec<DbValue>>,
}

const SMALL_INTS: &[i64] = &[-2, -1, 0, 1, 2, 3, 5];
const WIDE_INTS: &[i64] = &[1 << 62, -(1 << 62), i64::MAX, i64::MIN, i64::MIN + 1, 7];
const DOUBLES: &[f64] = &[0.0, -0.0, 1.0, 2.0, 2.5, -1.5, 3.0, 5.0];
const TEXTS: &[&str] = &["", "a", "b", "ab", "abc", "1", "a%", "x_y"];
const PATTERNS: &[&str] = &["%", "a%", "%b", "_", "a_c", "%b%", "", "ab", "%%", "_%_"];

fn gen_value(g: &mut Gen, kind: Kind) -> DbValue {
    if g.chance(15) {
        return DbValue::Null;
    }
    match kind {
        Kind::IntSmall => DbValue::Int(g.pick(SMALL_INTS)),
        Kind::IntWide => {
            if g.chance(50) {
                DbValue::Int(g.pick(WIDE_INTS))
            } else {
                DbValue::Int(g.pick(SMALL_INTS))
            }
        }
        Kind::Double => DbValue::Double(g.pick(DOUBLES)),
        Kind::Text => DbValue::Text(g.pick(TEXTS).to_owned()),
    }
}

fn gen_tables(g: &mut Gen) -> Vec<GenTable> {
    let count = 1 + g.below(3);
    (0..count)
        .map(|t| {
            let arity = 2 + g.below(3);
            let kinds: Vec<Kind> = (0..arity)
                .map(|_| {
                    g.pick(&[
                        Kind::IntSmall,
                        Kind::IntSmall,
                        Kind::IntWide,
                        Kind::Double,
                        Kind::Text,
                    ])
                })
                .collect();
            let columns = kinds
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    let ty = match k {
                        Kind::IntSmall | Kind::IntWide => DbType::Int,
                        Kind::Double => DbType::Double,
                        Kind::Text => DbType::Text,
                    };
                    (format!("c{i}"), ty)
                })
                .collect::<Vec<_>>();
            let schema = TableSchema::new(
                &format!("tab{t}"),
                columns.iter().map(|(n, ty)| (n.as_str(), *ty)).collect(),
            );
            let rows = (0..g.below(13))
                .map(|_| kinds.iter().map(|k| gen_value(g, *k)).collect())
                .collect();
            GenTable {
                schema,
                kinds,
                rows,
            }
        })
        .collect()
}

/// Statement generator over a fixed set of tables.
struct QueryGen<'t> {
    tables: &'t [GenTable],
    /// Qualify every column (always on for joins, where `c0` is ambiguous).
    qualify: bool,
}

impl QueryGen<'_> {
    fn column(&self, table: usize, col: usize) -> Expr {
        Expr::Column {
            table: self.qualify.then(|| format!("t{table}")),
            name: format!("c{col}"),
        }
    }

    fn any_column(&self, g: &mut Gen) -> Expr {
        let t = g.below(self.tables.len());
        self.column(t, g.below(self.tables[t].kinds.len()))
    }

    /// A column of one of `kinds`, if any table has one.
    fn column_of(&self, g: &mut Gen, kinds: &[Kind]) -> Option<Expr> {
        let mut found = Vec::new();
        for (t, table) in self.tables.iter().enumerate() {
            for (c, k) in table.kinds.iter().enumerate() {
                if kinds.contains(k) {
                    found.push((t, c));
                }
            }
        }
        (!found.is_empty()).then(|| {
            let (t, c) = g.pick(&found);
            self.column(t, c)
        })
    }

    fn literal(&self, g: &mut Gen) -> DbValue {
        match g.below(10) {
            0 => DbValue::Null,
            1..=4 => DbValue::Int(g.pick(SMALL_INTS)),
            5 => DbValue::Int(g.pick(&[1 << 62, i64::MAX, 7])),
            6 | 7 => DbValue::Double(g.pick(DOUBLES)),
            _ => DbValue::Text(g.pick(TEXTS).to_owned()),
        }
    }

    fn value(&self, g: &mut Gen, depth: usize) -> Expr {
        if depth == 0 || g.chance(45) {
            return if g.chance(65) {
                self.any_column(g)
            } else {
                Expr::Literal(self.literal(g))
            };
        }
        match g.below(8) {
            0 => Expr::Neg(Box::new(self.value(g, depth - 1))),
            1 => self.boolean(g, depth - 1),
            _ => Expr::Binary {
                op: g.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]),
                left: Box::new(self.value(g, depth - 1)),
                right: Box::new(self.value(g, depth - 1)),
            },
        }
    }

    fn boolean(&self, g: &mut Gen, depth: usize) -> Expr {
        let sub = depth.saturating_sub(1);
        match g.below(if depth == 0 { 6 } else { 10 }) {
            0..=2 => Expr::Binary {
                op: g.pick(&[
                    BinOp::Eq,
                    BinOp::NotEq,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                ]),
                left: Box::new(self.value(g, sub)),
                right: Box::new(self.value(g, sub)),
            },
            3 => Expr::InList {
                expr: Box::new(self.value(g, sub)),
                list: (0..1 + g.below(4)).map(|_| self.literal(g)).collect(),
                negated: g.chance(30),
            },
            4 => Expr::Binary {
                op: BinOp::Like,
                left: Box::new(if g.chance(80) {
                    self.column_of(g, &[Kind::Text])
                        .unwrap_or_else(|| self.value(g, sub))
                } else {
                    self.value(g, sub)
                }),
                right: Box::new(if g.chance(85) {
                    Expr::Literal(DbValue::Text(g.pick(PATTERNS).to_owned()))
                } else {
                    self.value(g, 0)
                }),
            },
            5 => Expr::IsNull {
                expr: Box::new(self.value(g, sub)),
                negated: g.chance(50),
            },
            6 => Expr::Not(Box::new(self.boolean(g, sub))),
            7 => self.value(g, sub), // a value in predicate position
            _ => Expr::Binary {
                op: g.pick(&[BinOp::And, BinOp::Or]),
                left: Box::new(self.boolean(g, sub)),
                right: Box::new(self.boolean(g, sub)),
            },
        }
    }

    /// `earlier = later` between two FROM entries, occasionally over
    /// expressions.
    fn equi_join(&self, g: &mut Gen) -> Expr {
        let a = g.below(self.tables.len());
        let mut b = g.below(self.tables.len());
        if a == b {
            b = (a + 1) % self.tables.len();
        }
        let side = |g: &mut Gen, t: usize| {
            let col = self.column(t, g.below(self.tables[t].kinds.len()));
            if g.chance(15) {
                Expr::Binary {
                    op: g.pick(&[BinOp::Add, BinOp::Mul, BinOp::Div]),
                    left: Box::new(col),
                    right: Box::new(Expr::Literal(DbValue::Int(g.pick(&[0, 1, 2])))),
                }
            } else {
                col
            }
        };
        Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(side(g, a)),
            right: Box::new(side(g, b)),
        }
    }

    fn predicate(&self, g: &mut Gen) -> Option<Expr> {
        let mut conjuncts = Vec::new();
        for _ in 0..g.below(5) {
            conjuncts.push(if self.tables.len() > 1 && g.chance(45) {
                self.equi_join(g)
            } else {
                self.boolean(g, 2)
            });
        }
        conjuncts.into_iter().reduce(|l, r| Expr::Binary {
            op: BinOp::And,
            left: Box::new(l),
            right: Box::new(r),
        })
    }

    /// An aggregate argument that keeps integer sums exact in an `f64`.
    fn summable(&self, g: &mut Gen) -> Expr {
        let kinds = [Kind::IntSmall, Kind::Double];
        let Some(col) = self.column_of(g, &kinds) else {
            return Expr::Literal(DbValue::Int(1));
        };
        match g.below(6) {
            0 => Expr::Binary {
                op: g.pick(&[BinOp::Add, BinOp::Mul, BinOp::Sub]),
                left: Box::new(col),
                right: Box::new(
                    self.column_of(g, &kinds)
                        .unwrap_or(Expr::Literal(DbValue::Int(2))),
                ),
            },
            1 => self.column_of(g, &[Kind::Text]).unwrap_or(col), // TypeError
            _ => col,
        }
    }

    fn statement(&self, g: &mut Gen) -> SelectStmt {
        let from = (0..self.tables.len())
            .map(|t| TableRef {
                table: format!("tab{t}"),
                alias: format!("t{t}"),
            })
            .collect();
        let mut stmt = SelectStmt {
            distinct: g.chance(25),
            items: Vec::new(),
            from,
            predicate: self.predicate(g),
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: g.chance(30).then(|| g.below(6)),
        };
        let mut orderable: Vec<Expr> = Vec::new();
        if g.chance(40) {
            // Grouped.
            for _ in 0..g.below(3) {
                let key = if g.chance(80) {
                    self.any_column(g)
                } else {
                    self.value(g, 1)
                };
                stmt.items.push(SelectItem::Expr {
                    expr: key.clone(),
                    label: format!("k{}", stmt.items.len()),
                });
                orderable.push(key.clone());
                stmt.group_by.push(key);
            }
            if g.chance(15) {
                // Not a group key: answered from the group's first row.
                stmt.items.push(SelectItem::Expr {
                    expr: self.any_column(g),
                    label: format!("f{}", stmt.items.len()),
                });
            }
            for _ in 0..1 + g.below(3) {
                let func = g.pick(&[
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Avg,
                    AggFunc::Min,
                    AggFunc::Max,
                ]);
                let arg = match func {
                    AggFunc::Count if g.chance(50) => None,
                    AggFunc::Sum | AggFunc::Avg => Some(self.summable(g)),
                    _ => Some(self.value(g, 1)),
                };
                stmt.items.push(SelectItem::Aggregate {
                    func,
                    arg,
                    label: format!("a{}", stmt.items.len()),
                });
            }
        } else {
            if g.chance(20) {
                stmt.items.push(SelectItem::Wildcard);
            }
            for _ in 0..g.below(3) + usize::from(stmt.items.is_empty()) {
                let expr = if g.chance(70) {
                    self.any_column(g)
                } else {
                    self.value(g, 2)
                };
                stmt.items.push(SelectItem::Expr {
                    expr,
                    label: format!("x{}", stmt.items.len()),
                });
            }
            orderable.push(self.any_column(g));
            orderable.push(self.any_column(g));
        }
        // Output labels are orderable too.
        for item in &stmt.items {
            if let SelectItem::Expr { label, .. } | SelectItem::Aggregate { label, .. } = item {
                orderable.push(Expr::Column {
                    table: None,
                    name: label.clone(),
                });
            }
        }
        for _ in 0..g.below(3) {
            stmt.order_by.push(OrderKey {
                expr: g.pick(&orderable),
                desc: g.chance(40),
            });
        }
        stmt
    }
}

// ------------------------------------------------------------- SQL rendering

fn render_literal(v: &DbValue) -> String {
    match v {
        DbValue::Null => "NULL".into(),
        DbValue::Int(i) => i.to_string(),
        DbValue::Double(d) => format!("{d:?}"),
        DbValue::Text(s) => sql_quote(s),
    }
}

fn render_expr(e: &Expr) -> String {
    match e {
        // A negative literal in expression position is lexed as unary
        // minus over the magnitude, which evaluates to the same value.
        Expr::Literal(v) => format!("({})", render_literal(v)),
        Expr::Column {
            table: Some(t),
            name,
        } => format!("{t}.{name}"),
        Expr::Column { table: None, name } => name.clone(),
        Expr::Neg(inner) => format!("(- {})", render_expr(inner)),
        Expr::Not(inner) => format!("(NOT {})", render_expr(inner)),
        Expr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            render_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => format!(
            "({} {}IN ({}))",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            list.iter()
                .map(render_literal)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Expr::Binary { op, left, right } => {
            let op = match op {
                BinOp::And => "AND",
                BinOp::Or => "OR",
                BinOp::Eq => "=",
                BinOp::NotEq => "<>",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::Like => "LIKE",
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!("({} {op} {})", render_expr(left), render_expr(right))
        }
    }
}

fn render_statement(stmt: &SelectStmt) -> String {
    let items: Vec<String> = stmt
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => "*".into(),
            SelectItem::Expr { expr, label } => format!("{} AS {label}", render_expr(expr)),
            SelectItem::Aggregate { func, arg, label } => {
                let func = match func {
                    AggFunc::Count => "COUNT",
                    AggFunc::Sum => "SUM",
                    AggFunc::Avg => "AVG",
                    AggFunc::Min => "MIN",
                    AggFunc::Max => "MAX",
                };
                match arg {
                    Some(arg) => format!("{func}({}) AS {label}", render_expr(arg)),
                    None => format!("{func}(*) AS {label}"),
                }
            }
        })
        .collect();
    let from: Vec<String> = stmt
        .from
        .iter()
        .map(|t| format!("{} {}", t.table, t.alias))
        .collect();
    let mut sql = format!(
        "SELECT {}{} FROM {}",
        if stmt.distinct { "DISTINCT " } else { "" },
        items.join(", "),
        from.join(", ")
    );
    if let Some(p) = &stmt.predicate {
        sql.push_str(&format!(" WHERE {}", render_expr(p)));
    }
    let list = |exprs: Vec<String>| exprs.join(", ");
    if !stmt.group_by.is_empty() {
        sql.push_str(&format!(
            " GROUP BY {}",
            list(stmt.group_by.iter().map(render_expr).collect())
        ));
    }
    if !stmt.order_by.is_empty() {
        sql.push_str(&format!(
            " ORDER BY {}",
            list(
                stmt.order_by
                    .iter()
                    .map(|k| format!(
                        "{}{}",
                        render_expr(&k.expr),
                        if k.desc { " DESC" } else { "" }
                    ))
                    .collect()
            )
        ));
    }
    if let Some(limit) = stmt.limit {
        sql.push_str(&format!(" LIMIT {limit}"));
    }
    sql
}

// ------------------------------------------------------------------ the test

fn load(tables: &[GenTable]) -> Database {
    let db = Database::new();
    let conn = db.connect();
    for t in tables {
        let columns: Vec<String> = t
            .schema
            .columns
            .iter()
            .map(|c| format!("{} {}", c.name, c.ty))
            .collect();
        conn.execute(&format!(
            "CREATE TABLE {} ({})",
            t.schema.name,
            columns.join(", ")
        ))
        .unwrap();
        db.bulk_insert(&t.schema.name, t.rows.clone()).unwrap();
    }
    db
}

/// `Debug` text tells `-0.0` from `0.0` and equates NaNs, which `==` on
/// rows does not.
fn exact(rows: &[Vec<DbValue>]) -> String {
    format!("{rows:?}")
}

fn variant(e: &DbError) -> std::mem::Discriminant<DbError> {
    std::mem::discriminant(e)
}

fn run_case(seed: u64) -> Result<(), String> {
    let g = &mut Gen(seed);
    let tables = gen_tables(g);
    let qualify = tables.len() > 1 || g.chance(50);
    let generated = QueryGen {
        tables: &tables,
        qualify,
    }
    .statement(g);
    let sql = render_statement(&generated);
    let Statement::Select(stmt) = parse_statement(&sql).map_err(|e| format!("{sql}: {e}"))? else {
        return Err(format!("{sql}: not a SELECT"));
    };

    let bound: Vec<(&TableSchema, &[Vec<DbValue>])> = tables
        .iter()
        .map(|t| (&t.schema, t.rows.as_slice()))
        .collect();
    let old = oracle::execute_select(&stmt, &bound);
    let db = load(&tables);
    let conn = db.connect();
    let new = conn.query(&sql);
    match (&old, &new) {
        (Ok(old), Ok(new)) => {
            if old.columns != new.columns() || exact(&old.rows) != exact(new.rows()) {
                return Err(format!(
                    "{sql}\n old {:?} {}\n new {:?} {}",
                    old.columns,
                    exact(&old.rows),
                    new.columns(),
                    exact(new.rows())
                ));
            }
        }
        (Err(old), Err(new)) if variant(old) == variant(new) => {}
        _ => return Err(format!("{sql}\n old {old:?}\n new {new:?}")),
    }

    // The lazy cursor hands out the same rows whatever the batch size. It
    // stops scanning once LIMIT is met, so with a LIMIT it may never meet
    // the row on which the full query fails.
    let lazy = stmt.from.len() == 1
        && stmt.group_by.is_empty()
        && stmt.order_by.is_empty()
        && !stmt.distinct
        && !stmt
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate { .. }));
    for batch in [1usize, 7, 256] {
        let drained = conn.query_cursor(&sql).and_then(|mut cursor| {
            let mut rows = Vec::new();
            loop {
                let next = cursor.next_batch(batch)?;
                if next.is_empty() {
                    return Ok(rows);
                }
                if next.len() > batch {
                    return Err(DbError::Execution(format!("batch of {}", next.len())));
                }
                rows.extend(next);
            }
        });
        match (&new, &drained) {
            (Ok(new), Ok(rows)) if exact(new.rows()) == exact(rows) => {}
            (Err(new), Err(e)) if variant(new) == variant(e) => {}
            (Err(_), Ok(_)) if lazy && stmt.limit.is_some() => {}
            _ => {
                return Err(format!(
                    "{sql}\n cursor({batch}) {drained:?}\n query {new:?}"
                ))
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn new_engine_matches_interpreter(seed in any::<u64>()) {
        if let Err(report) = run_case(seed) {
            prop_assert!(false, "seed {seed}: {report}");
        }
    }
}

/// The generator must actually reach the interesting corners; a differential
/// test over queries that all fail, or all return nothing, proves little.
#[test]
fn generator_covers_the_plan_space() {
    let (mut ok_rows, mut errors, mut joins, mut grouped) = (0, 0, 0, 0);
    for seed in 0..400u64 {
        let g = &mut Gen(seed);
        let tables = gen_tables(g);
        let qualify = tables.len() > 1 || g.chance(50);
        let stmt = QueryGen {
            tables: &tables,
            qualify,
        }
        .statement(g);
        let bound: Vec<(&TableSchema, &[Vec<DbValue>])> = tables
            .iter()
            .map(|t| (&t.schema, t.rows.as_slice()))
            .collect();
        joins += usize::from(tables.len() > 1);
        grouped += usize::from(!stmt.group_by.is_empty());
        match oracle::execute_select(&stmt, &bound) {
            Ok(out) => ok_rows += usize::from(!out.rows.is_empty()),
            Err(_) => errors += 1,
        }
    }
    assert!(ok_rows > 120, "non-empty answers: {ok_rows}/400");
    assert!(errors > 15, "failing statements: {errors}/400");
    assert!(
        joins > 150 && grouped > 60,
        "joins {joins}, grouped {grouped}"
    );
}

#[test]
fn like_matcher_agrees_with_recursive_matcher() {
    let g = &mut Gen(7);
    let alphabet = ['a', 'b', '%', '_', 'é'];
    for _ in 0..20_000 {
        let text: String = (0..g.below(7)).map(|_| g.pick(&alphabet[..2])).collect();
        let pattern: String = (0..g.below(6)).map(|_| g.pick(&alphabet)).collect();
        assert_eq!(
            super::expr::LikePattern::new(&pattern).matches(&text),
            oracle::like_match(&text, &pattern),
            "{text:?} LIKE {pattern:?}"
        );
    }
}
