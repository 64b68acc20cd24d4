//! The interpreter the bound-plan pipeline replaced, kept as the
//! differential tests' oracle: a nested-loop engine that resolves column
//! names per row, pushes each conjunct to the earliest join depth at which
//! its columns are bound, materializes the joined rows and then projects.

use crate::error::{DbError, Result};
use crate::schema::TableSchema;
use crate::sql::{AggFunc, BinOp, Expr, OrderKey, SelectItem, SelectStmt, TableRef};
use crate::types::DbValue;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A resolved column layout over the FROM list: `(alias, column)` pairs in
/// combined-row order.
pub struct Layout {
    entries: Vec<(String, String)>,
}

impl Layout {
    /// Build the layout for a FROM list given each table's schema.
    pub fn build(from: &[(TableRef, &TableSchema)]) -> Layout {
        let mut entries = Vec::new();
        for (tref, schema) in from {
            for col in &schema.columns {
                entries.push((tref.alias.clone(), col.name.clone()));
            }
        }
        Layout { entries }
    }

    /// Resolve a possibly-qualified column to its combined-row index.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let mut found = None;
        for (i, (alias, col)) in self.entries.iter().enumerate() {
            let table_ok = table.is_none_or(|t| t.eq_ignore_ascii_case(alias));
            if table_ok && col.eq_ignore_ascii_case(name) {
                if found.is_some() {
                    return Err(DbError::UnknownColumn(format!("{name} is ambiguous")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| match table {
            Some(t) => DbError::UnknownColumn(format!("{t}.{name}")),
            None => DbError::UnknownColumn(name.to_owned()),
        })
    }

    /// All entries (for wildcard projection).
    pub fn entries(&self) -> &[(String, String)] {
        &self.entries
    }
}

/// Three-valued SQL truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Truth {
    True,
    False,
    Unknown,
}

impl Truth {
    fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    fn is_true(self) -> bool {
        self == Truth::True
    }

    fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }
}

/// Evaluate an expression to a value against a combined row.
pub fn eval_value(expr: &Expr, layout: &Layout, row: &[&DbValue]) -> Result<DbValue> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { table, name } => {
            let idx = layout.resolve(table.as_deref(), name)?;
            Ok(row[idx].clone())
        }
        Expr::Neg(inner) => match eval_value(inner, layout, row)? {
            DbValue::Null => Ok(DbValue::Null),
            DbValue::Int(i) => Ok(DbValue::Int(i.checked_neg().unwrap_or(i64::MAX))),
            DbValue::Double(d) => Ok(DbValue::Double(-d)),
            DbValue::Text(_) => Err(DbError::TypeError("cannot negate text".into())),
        },
        Expr::Binary {
            op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div),
            left,
            right,
        } => {
            let l = eval_value(left, layout, row)?;
            let r = eval_value(right, layout, row)?;
            eval_arithmetic(*op, l, r)
        }
        // Boolean-valued expressions materialize as INT 1/0/NULL.
        other => Ok(match eval_truth(other, layout, row)? {
            Truth::True => DbValue::Int(1),
            Truth::False => DbValue::Int(0),
            Truth::Unknown => DbValue::Null,
        }),
    }
}

/// SQL arithmetic: NULL propagates; Int⊕Int stays Int (except division by
/// zero, which is an error, and overflow, which widens to Double); any
/// Double operand widens the result.
fn eval_arithmetic(op: BinOp, l: DbValue, r: DbValue) -> Result<DbValue> {
    if l.is_null() || r.is_null() {
        return Ok(DbValue::Null);
    }
    match (&l, &r) {
        (DbValue::Int(a), DbValue::Int(b)) => {
            let (a, b) = (*a, *b);
            let int_result = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(DbError::TypeError("integer division by zero".into()));
                    }
                    a.checked_div(b)
                }
                _ => unreachable!("non-arithmetic op"),
            };
            Ok(match int_result {
                Some(i) => DbValue::Int(i),
                None => DbValue::Double(apply_f64(op, a as f64, b as f64)),
            })
        }
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(DbError::TypeError(format!(
                    "arithmetic on non-numeric operands {l} and {r}"
                )));
            };
            Ok(DbValue::Double(apply_f64(op, a, b)))
        }
    }
}

fn apply_f64(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => unreachable!("non-arithmetic op"),
    }
}

fn eval_truth(expr: &Expr, layout: &Layout, row: &[&DbValue]) -> Result<Truth> {
    match expr {
        Expr::Not(inner) => Ok(eval_truth(inner, layout, row)?.not()),
        Expr::IsNull { expr, negated } => {
            let v = eval_value(expr, layout, row)?;
            let t = Truth::from_bool(v.is_null());
            Ok(if *negated { t.not() } else { t })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_value(expr, layout, row)?;
            if v.is_null() {
                return Ok(Truth::Unknown);
            }
            // SQL membership: TRUE on any match; with no match, a NULL in
            // the list makes the answer Unknown rather than FALSE.
            let mut saw_null = false;
            let mut t = Truth::False;
            for item in list {
                if item.is_null() {
                    saw_null = true;
                } else if v.sql_eq(item).unwrap_or(false) {
                    t = Truth::True;
                    break;
                }
            }
            if t == Truth::False && saw_null {
                t = Truth::Unknown;
            }
            Ok(if *negated { t.not() } else { t })
        }
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => Ok(eval_truth(left, layout, row)?.and(eval_truth(right, layout, row)?)),
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => Ok(eval_truth(left, layout, row)?.or(eval_truth(right, layout, row)?)),
        // Arithmetic in boolean position: evaluate, then apply truthiness.
        Expr::Binary {
            op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div,
            ..
        } => value_truthiness(eval_value(expr, layout, row)?),
        Expr::Binary { op, left, right } => {
            let l = eval_value(left, layout, row)?;
            let r = eval_value(right, layout, row)?;
            if l.is_null() || r.is_null() {
                return Ok(Truth::Unknown);
            }
            let result = match op {
                BinOp::Eq => l.sql_eq(&r).unwrap_or(false),
                BinOp::NotEq => !l.sql_eq(&r).unwrap_or(true),
                BinOp::Lt => l.compare(&r) == Ordering::Less,
                BinOp::Le => l.compare(&r) != Ordering::Greater,
                BinOp::Gt => l.compare(&r) == Ordering::Greater,
                BinOp::Ge => l.compare(&r) != Ordering::Less,
                BinOp::Like => {
                    let (DbValue::Text(s), DbValue::Text(pat)) = (&l, &r) else {
                        return Err(DbError::TypeError("LIKE requires text operands".into()));
                    };
                    like_match(s, pat)
                }
                BinOp::And | BinOp::Or | BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    unreachable!("handled above")
                }
            };
            Ok(Truth::from_bool(result))
        }
        // A bare value in predicate position: nonzero numbers are true.
        value_expr => value_truthiness(eval_value(value_expr, layout, row)?),
    }
}

fn value_truthiness(v: DbValue) -> Result<Truth> {
    match v {
        DbValue::Null => Ok(Truth::Unknown),
        DbValue::Int(i) => Ok(Truth::from_bool(i != 0)),
        DbValue::Double(d) => Ok(Truth::from_bool(d != 0.0)),
        DbValue::Text(_) => Err(DbError::TypeError("text used as a boolean".into())),
    }
}

/// SQL `LIKE` matching: `%` = any run, `_` = any single char.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Match zero or more characters.
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

/// Which aliases an expression references.
fn collect_aliases(expr: &Expr, layout: &Layout, out: &mut Vec<String>) {
    match expr {
        Expr::Column { table, name } => {
            match table {
                Some(t) => out.push(t.to_ascii_lowercase()),
                None => {
                    // Unqualified: find its owning alias (ignore errors here;
                    // binding is validated during evaluation).
                    if let Some((alias, _)) = layout
                        .entries()
                        .iter()
                        .find(|(_, col)| col.eq_ignore_ascii_case(name))
                    {
                        out.push(alias.clone());
                    }
                }
            }
        }
        Expr::Literal(_) => {}
        Expr::Not(e) | Expr::Neg(e) => collect_aliases(e, layout, out),
        Expr::IsNull { expr, .. } | Expr::InList { expr, .. } => collect_aliases(expr, layout, out),
        Expr::Binary { left, right, .. } => {
            collect_aliases(left, layout, out);
            collect_aliases(right, layout, out);
        }
    }
}

/// Split a predicate into AND-ed conjuncts.
fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut v = conjuncts(left);
            v.extend(conjuncts(right));
            v
        }
        other => vec![other],
    }
}

/// The output of a query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<DbValue>>,
}

/// Execute a SELECT against the given tables (`tables[i]` corresponds to
/// `stmt.from[i]`).
pub fn execute_select(
    stmt: &SelectStmt,
    tables: &[(&TableSchema, &[Vec<DbValue>])],
) -> Result<QueryOutput> {
    let from_with_schema: Vec<(TableRef, &TableSchema)> = stmt
        .from
        .iter()
        .cloned()
        .zip(tables.iter().map(|(s, _)| *s))
        .collect();
    let layout = Layout::build(&from_with_schema);

    // Predicate pushdown: assign each conjunct to the first join depth where
    // all referenced aliases are bound.
    let all_conjuncts: Vec<&Expr> = stmt.predicate.as_ref().map(conjuncts).unwrap_or_default();
    let mut per_depth: Vec<Vec<&Expr>> = vec![Vec::new(); stmt.from.len()];
    for c in &all_conjuncts {
        let mut aliases = Vec::new();
        collect_aliases(c, &layout, &mut aliases);
        let depth = stmt
            .from
            .iter()
            .enumerate()
            .rev()
            .find(|(_, tref)| aliases.iter().any(|a| a.eq_ignore_ascii_case(&tref.alias)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        per_depth[depth].push(c);
    }

    // Column offsets of each table within the combined row.
    let mut offsets = Vec::with_capacity(tables.len());
    let mut acc = 0;
    for (schema, _) in tables {
        offsets.push(acc);
        acc += schema.arity();
    }
    let total_cols = acc;

    // Nested-loop join with per-depth filtering.
    let mut matched: Vec<Vec<&DbValue>> = Vec::new();
    let mut current: Vec<&DbValue> = Vec::with_capacity(total_cols);
    let mut ticks = 0u32;
    join_rec(
        tables,
        &layout,
        &per_depth,
        0,
        &mut current,
        &mut matched,
        &mut ticks,
    )?;

    if stmt.group_by.is_empty()
        && !stmt
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate { .. }))
    {
        project_plain(stmt, &layout, matched)
    } else {
        project_grouped(stmt, &layout, matched)
    }
}

/// How many scanned rows pass between expiry checks of the scoped call
/// context. Cheap enough to keep scans responsive (sub-millisecond at any
/// realistic row cost), rare enough that the thread-local probe stays off
/// the per-row fast path.
const INTERRUPT_CHECK_EVERY: u32 = 256;

fn join_rec<'a>(
    tables: &[(&TableSchema, &'a [Vec<DbValue>])],
    layout: &Layout,
    per_depth: &[Vec<&Expr>],
    depth: usize,
    current: &mut Vec<&'a DbValue>,
    matched: &mut Vec<Vec<&'a DbValue>>,
    ticks: &mut u32,
) -> Result<()> {
    if depth == tables.len() {
        matched.push(current.clone());
        return Ok(());
    }
    let (_, rows) = tables[depth];
    let prefix_len = current.len();
    'rows: for row in rows {
        *ticks += 1;
        if ticks.is_multiple_of(INTERRUPT_CHECK_EVERY) && ppg_context::current_expired() {
            return Err(DbError::Interrupted);
        }
        current.truncate(prefix_len);
        current.extend(row.iter());
        // Pad with NULL placeholders for unbound deeper tables so that
        // resolve() indices are valid; conjuncts at this depth only reference
        // bound prefixes by construction.
        let pad_to = layout.entries().len();
        static NULL: DbValue = DbValue::Null;
        while current.len() < pad_to {
            current.push(&NULL);
        }
        for c in &per_depth[depth] {
            if !eval_truth_pub(c, layout, current)?.is_true() {
                continue 'rows;
            }
        }
        current.truncate(prefix_len + row.len());
        join_rec(
            tables,
            layout,
            per_depth,
            depth + 1,
            current,
            matched,
            ticks,
        )?;
        current.truncate(prefix_len);
    }
    Ok(())
}

fn eval_truth_pub(expr: &Expr, layout: &Layout, row: &[&DbValue]) -> Result<Truth> {
    eval_truth(expr, layout, row)
}

/// Non-aggregate projection: project, order, distinct, limit.
fn project_plain(
    stmt: &SelectStmt,
    layout: &Layout,
    matched: Vec<Vec<&DbValue>>,
) -> Result<QueryOutput> {
    let columns = output_columns(stmt, layout);
    let mut rows: Vec<(Vec<DbValue>, Vec<DbValue>)> = Vec::with_capacity(matched.len());
    for src in &matched {
        let mut out = Vec::with_capacity(columns.len());
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    out.extend(src.iter().map(|v| (*v).clone()));
                }
                SelectItem::Expr { expr, .. } => out.push(eval_value(expr, layout, src)?),
                SelectItem::Aggregate { .. } => unreachable!("plain path has no aggregates"),
            }
        }
        // Evaluate ORDER BY keys against the source row, falling back to
        // output labels.
        let mut keys = Vec::with_capacity(stmt.order_by.len());
        for k in &stmt.order_by {
            keys.push(order_key_value(k, layout, src, &columns, &out)?);
        }
        rows.push((keys, out));
    }
    if !stmt.order_by.is_empty() {
        let desc_flags: Vec<bool> = stmt.order_by.iter().map(|k| k.desc).collect();
        rows.sort_by(|(ka, _), (kb, _)| compare_keys(ka, kb, &desc_flags));
    }
    let mut out_rows: Vec<Vec<DbValue>> = rows.into_iter().map(|(_, r)| r).collect();
    if stmt.distinct {
        out_rows = dedupe(out_rows);
    }
    if let Some(limit) = stmt.limit {
        out_rows.truncate(limit);
    }
    Ok(QueryOutput {
        columns,
        rows: out_rows,
    })
}

/// Aggregate / GROUP BY projection.
fn project_grouped(
    stmt: &SelectStmt,
    layout: &Layout,
    matched: Vec<Vec<&DbValue>>,
) -> Result<QueryOutput> {
    let columns = output_columns(stmt, layout);
    // Group rows by rendered group-key tuple.
    let mut groups: Vec<(Vec<DbValue>, Vec<Vec<&DbValue>>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for src in matched {
        let mut key_vals = Vec::with_capacity(stmt.group_by.len());
        for g in &stmt.group_by {
            key_vals.push(eval_value(g, layout, &src)?);
        }
        let key_str = key_vals
            .iter()
            .map(DbValue::render)
            .collect::<Vec<_>>()
            .join("\u{1f}");
        match index.get(&key_str) {
            Some(&i) => groups[i].1.push(src),
            None => {
                index.insert(key_str, groups.len());
                groups.push((key_vals, vec![src]));
            }
        }
    }
    // With no GROUP BY, aggregates run over the whole input as one group —
    // even when it is empty (COUNT(*) of an empty table is 0).
    if stmt.group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut rows = Vec::with_capacity(groups.len());
    for (_, members) in &groups {
        let mut out = Vec::with_capacity(columns.len());
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(DbError::Execution(
                        "SELECT * cannot be combined with aggregates".into(),
                    ))
                }
                SelectItem::Expr { expr, .. } => {
                    // Must be functionally dependent on the group key; we
                    // evaluate on the first member (empty group ⇒ NULL).
                    match members.first() {
                        Some(first) => out.push(eval_value(expr, layout, first)?),
                        None => out.push(DbValue::Null),
                    }
                }
                SelectItem::Aggregate { func, arg, .. } => {
                    out.push(eval_aggregate(*func, arg.as_ref(), layout, members)?);
                }
            }
        }
        // ORDER BY for grouped output: label match, else group-key expression
        // evaluated on the first member.
        let mut keys = Vec::with_capacity(stmt.order_by.len());
        for k in &stmt.order_by {
            let v = match label_index(&k.expr, &columns) {
                Some(i) => out[i].clone(),
                None => match members.first() {
                    Some(first) => eval_value(&k.expr, layout, first)?,
                    None => DbValue::Null,
                },
            };
            keys.push(v);
        }
        rows.push((keys, out));
    }
    if !stmt.order_by.is_empty() {
        let desc_flags: Vec<bool> = stmt.order_by.iter().map(|k| k.desc).collect();
        rows.sort_by(|(ka, _), (kb, _)| compare_keys(ka, kb, &desc_flags));
    }
    let mut out_rows: Vec<Vec<DbValue>> = rows.into_iter().map(|(_, r)| r).collect();
    if stmt.distinct {
        out_rows = dedupe(out_rows);
    }
    if let Some(limit) = stmt.limit {
        out_rows.truncate(limit);
    }
    Ok(QueryOutput {
        columns,
        rows: out_rows,
    })
}

fn eval_aggregate(
    func: AggFunc,
    arg: Option<&Expr>,
    layout: &Layout,
    members: &[Vec<&DbValue>],
) -> Result<DbValue> {
    if func == AggFunc::Count && arg.is_none() {
        return Ok(DbValue::Int(members.len() as i64));
    }
    let arg = arg.ok_or_else(|| DbError::Execution("aggregate requires an argument".into()))?;
    let mut values = Vec::with_capacity(members.len());
    for m in members {
        let v = eval_value(arg, layout, m)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    Ok(match func {
        AggFunc::Count => DbValue::Int(values.len() as i64),
        AggFunc::Min => values
            .iter()
            .min_by(|a, b| a.compare(b))
            .cloned()
            .unwrap_or(DbValue::Null),
        AggFunc::Max => values
            .iter()
            .max_by(|a, b| a.compare(b))
            .cloned()
            .unwrap_or(DbValue::Null),
        AggFunc::Sum | AggFunc::Avg => {
            if values.is_empty() {
                return Ok(DbValue::Null);
            }
            let mut sum = 0.0;
            let mut all_int = true;
            for v in &values {
                match v {
                    DbValue::Int(i) => sum += *i as f64,
                    DbValue::Double(d) => {
                        all_int = false;
                        sum += d;
                    }
                    _ => return Err(DbError::TypeError("SUM/AVG over non-numeric".into())),
                }
            }
            if func == AggFunc::Avg {
                DbValue::Double(sum / values.len() as f64)
            } else if all_int {
                DbValue::Int(sum as i64)
            } else {
                DbValue::Double(sum)
            }
        }
    })
}

pub(crate) fn output_columns(stmt: &SelectStmt, layout: &Layout) -> Vec<String> {
    let mut columns = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                columns.extend(layout.entries().iter().map(|(_, c)| c.clone()));
            }
            SelectItem::Expr { label, .. } | SelectItem::Aggregate { label, .. } => {
                columns.push(label.clone());
            }
        }
    }
    columns
}

fn label_index(expr: &Expr, columns: &[String]) -> Option<usize> {
    if let Expr::Column { table: None, name } = expr {
        columns.iter().position(|c| c.eq_ignore_ascii_case(name))
    } else {
        None
    }
}

fn order_key_value(
    key: &OrderKey,
    layout: &Layout,
    src: &[&DbValue],
    columns: &[String],
    out: &[DbValue],
) -> Result<DbValue> {
    match eval_value(&key.expr, layout, src) {
        Ok(v) => Ok(v),
        Err(DbError::UnknownColumn(_)) => match label_index(&key.expr, columns) {
            Some(i) => Ok(out[i].clone()),
            None => Err(DbError::UnknownColumn(format!(
                "ORDER BY key {:?}",
                key.expr.default_label()
            ))),
        },
        Err(e) => Err(e),
    }
}

fn compare_keys(a: &[DbValue], b: &[DbValue], desc: &[bool]) -> Ordering {
    for ((x, y), &d) in a.iter().zip(b).zip(desc) {
        // The one edit to the interpreter: `x.compare(y)` is not a total
        // order (NaN), which `sort_by` may answer with a panic.
        let ord = super::order_cmp(x, y);
        let ord = if d { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn dedupe(rows: Vec<Vec<DbValue>>) -> Vec<Vec<DbValue>> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let key = row
            .iter()
            .map(DbValue::render)
            .collect::<Vec<_>>()
            .join("\u{1f}");
        if seen.insert(key) {
            out.push(row);
        }
    }
    out
}
