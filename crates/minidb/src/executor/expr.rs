//! Bound expressions: the statement's [`Expr`] trees with every column
//! reference resolved to a `(table, column)` slot, `IN` lists turned into
//! sorted probe sets and literal `LIKE` patterns prepared — all once per
//! statement. Evaluation borrows from the scanned rows and from the plan's
//! literals; only arithmetic produces a new (heap-free) value.

use crate::error::{DbError, Result};
use crate::schema::TableSchema;
use crate::sql::{BinOp, Expr};
use crate::types::{DbType, DbValue};
use std::borrow::Cow;
use std::cmp::Ordering;

/// The rows under evaluation: one base-table row per FROM entry. Slots of
/// tables the pipeline has not reached yet are empty; no expression is
/// evaluated before every table it names is in place.
pub(super) type Row<'a> = [&'a [DbValue]];

/// Three-valued SQL truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Truth {
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

    pub(super) fn is_true(self) -> bool {
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

/// The FROM list as the binder sees it: `(alias, schema)` per entry.
pub(super) struct Scope<'s> {
    tables: Vec<(&'s str, &'s TableSchema)>,
}

impl<'s> Scope<'s> {
    pub(super) fn new(tables: Vec<(&'s str, &'s TableSchema)>) -> Scope<'s> {
        Scope { tables }
    }

    /// Every `(table, column)` slot in FROM order (wildcard projection).
    pub(super) fn all_columns(&self) -> impl Iterator<Item = (BExpr, &'s str)> + '_ {
        self.tables
            .iter()
            .enumerate()
            .flat_map(|(table, (_, schema))| {
                schema.columns.iter().enumerate().map(move |(col, c)| {
                    (
                        BExpr::Column {
                            table,
                            col,
                            ty: c.ty,
                        },
                        c.name.as_str(),
                    )
                })
            })
    }

    /// Resolve a possibly-qualified column name to its slot. An unqualified
    /// name that two FROM entries carry is ambiguous.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<BExpr> {
        let mut found = None;
        for (table, (alias, schema)) in self.tables.iter().enumerate() {
            if qualifier.is_some_and(|q| !q.eq_ignore_ascii_case(alias)) {
                continue;
            }
            for (col, c) in schema.columns.iter().enumerate() {
                if c.name.eq_ignore_ascii_case(name) {
                    if found.is_some() {
                        return Err(DbError::UnknownColumn(format!("{name} is ambiguous")));
                    }
                    found = Some(BExpr::Column {
                        table,
                        col,
                        ty: c.ty,
                    });
                }
            }
        }
        found.ok_or_else(|| match qualifier {
            Some(q) => DbError::UnknownColumn(format!("{q}.{name}")),
            None => DbError::UnknownColumn(name.to_owned()),
        })
    }

    /// Bind an expression; unknown or ambiguous columns are errors here,
    /// whether or not any row would ever reach the expression.
    pub(super) fn bind(&self, expr: &Expr) -> Result<BExpr> {
        let boxed = |e: &Expr| self.bind(e).map(Box::new);
        Ok(match expr {
            Expr::Literal(v) => BExpr::Literal(v.clone()),
            Expr::Column { table, name } => self.resolve(table.as_deref(), name)?,
            Expr::Neg(inner) => BExpr::Neg(boxed(inner)?),
            Expr::Not(inner) => BExpr::Not(boxed(inner)?),
            Expr::IsNull { expr, negated } => BExpr::IsNull {
                expr: boxed(expr)?,
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BExpr::InList {
                expr: boxed(expr)?,
                set: InSet::new(list),
                negated: *negated,
            },
            Expr::Binary { op, left, right } => {
                let (left, right) = (boxed(left)?, boxed(right)?);
                match op {
                    BinOp::And => BExpr::And(left, right),
                    BinOp::Or => BExpr::Or(left, right),
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => BExpr::Arith {
                        op: *op,
                        left,
                        right,
                    },
                    BinOp::Like => {
                        let prepared = match &*right {
                            BExpr::Literal(DbValue::Text(p)) => Some(LikePattern::new(p)),
                            _ => None,
                        };
                        BExpr::Like {
                            value: left,
                            pattern: right,
                            prepared,
                        }
                    }
                    BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        BExpr::Compare {
                            op: *op,
                            left,
                            right,
                        }
                    }
                }
            }
        })
    }
}

/// A bound expression.
#[derive(Debug)]
pub(super) enum BExpr {
    Literal(DbValue),
    Column {
        table: usize,
        col: usize,
        ty: DbType,
    },
    Neg(Box<BExpr>),
    Arith {
        op: BinOp,
        left: Box<BExpr>,
        right: Box<BExpr>,
    },
    /// `= <> < <= > >=`
    Compare {
        op: BinOp,
        left: Box<BExpr>,
        right: Box<BExpr>,
    },
    Like {
        value: Box<BExpr>,
        pattern: Box<BExpr>,
        /// The matcher, when `pattern` is a text literal.
        prepared: Option<LikePattern>,
    },
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Not(Box<BExpr>),
    IsNull {
        expr: Box<BExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BExpr>,
        set: InSet,
        negated: bool,
    },
}

/// What an expression can evaluate to, as far as the schema tells
/// (any of them may also be NULL at run time).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ty {
    Null,
    Int,
    Double,
    /// Int or Double: integer arithmetic widens on overflow.
    Num,
    Text,
}

impl BExpr {
    /// A column or a literal: a value that is simply there.
    #[inline]
    fn leaf<'a>(&'a self, row: &Row<'a>) -> Option<&'a DbValue> {
        match self {
            BExpr::Literal(v) => Some(v),
            BExpr::Column { table, col, .. } => Some(&row[*table][*col]),
            _ => None,
        }
    }

    /// Evaluate to a value.
    #[inline]
    pub(super) fn value<'a>(&'a self, row: &Row<'a>) -> Result<Cow<'a, DbValue>> {
        match self.leaf(row) {
            Some(v) => Ok(Cow::Borrowed(v)),
            None => self.computed(row),
        }
    }

    fn computed<'a>(&'a self, row: &Row<'a>) -> Result<Cow<'a, DbValue>> {
        match self {
            BExpr::Literal(_) | BExpr::Column { .. } => unreachable!("leaves are not computed"),
            BExpr::Neg(inner) => Ok(Cow::Owned(match &*inner.value(row)? {
                DbValue::Null => DbValue::Null,
                DbValue::Int(i) => DbValue::Int(i.checked_neg().unwrap_or(i64::MAX)),
                DbValue::Double(d) => DbValue::Double(-d),
                DbValue::Text(_) => return Err(DbError::TypeError("cannot negate text".into())),
            })),
            BExpr::Arith { op, left, right } => {
                let l = left.value(row)?;
                let r = right.value(row)?;
                arithmetic(*op, &l, &r).map(Cow::Owned)
            }
            // Boolean-valued expressions materialize as INT 1/0/NULL.
            _ => Ok(Cow::Owned(match self.truth(row)? {
                Truth::True => DbValue::Int(1),
                Truth::False => DbValue::Int(0),
                Truth::Unknown => DbValue::Null,
            })),
        }
    }

    /// Evaluate in predicate position. `AND`/`OR` evaluate both sides (an
    /// error on the right is an error even when the left already decides).
    pub(super) fn truth(&self, row: &Row<'_>) -> Result<Truth> {
        match self {
            BExpr::Not(inner) => Ok(inner.truth(row)?.not()),
            BExpr::And(l, r) => Ok(l.truth(row)?.and(r.truth(row)?)),
            BExpr::Or(l, r) => Ok(l.truth(row)?.or(r.truth(row)?)),
            BExpr::IsNull { expr, negated } => {
                let t = Truth::from_bool(expr.value(row)?.is_null());
                Ok(if *negated { t.not() } else { t })
            }
            BExpr::InList { expr, set, negated } => {
                let v = expr.value(row)?;
                let t = set.probe(&v);
                Ok(if *negated { t.not() } else { t })
            }
            BExpr::Compare { op, left, right } => {
                // Column-vs-literal and column-vs-column carry most scans:
                // compare them as plain references, without the `Cow`.
                let (lc, rc);
                let (l, r) = match (left.leaf(row), right.leaf(row)) {
                    (Some(l), Some(r)) => (l, r),
                    _ => {
                        lc = left.value(row)?;
                        rc = right.value(row)?;
                        (&*lc, &*rc)
                    }
                };
                if l.is_null() || r.is_null() {
                    return Ok(Truth::Unknown);
                }
                Ok(Truth::from_bool(match op {
                    BinOp::Eq => l.sql_eq(r).unwrap_or(false),
                    BinOp::NotEq => !l.sql_eq(r).unwrap_or(true),
                    BinOp::Lt => l.compare(r) == Ordering::Less,
                    BinOp::Le => l.compare(r) != Ordering::Greater,
                    BinOp::Gt => l.compare(r) == Ordering::Greater,
                    BinOp::Ge => l.compare(r) != Ordering::Less,
                    _ => unreachable!("Compare holds comparison operators only"),
                }))
            }
            BExpr::Like {
                value,
                pattern,
                prepared,
            } => {
                let v = value.value(row)?;
                let p = pattern.value(row)?;
                if v.is_null() || p.is_null() {
                    return Ok(Truth::Unknown);
                }
                let (DbValue::Text(s), DbValue::Text(pat)) = (&*v, &*p) else {
                    return Err(DbError::TypeError("LIKE requires text operands".into()));
                };
                Ok(Truth::from_bool(match prepared {
                    Some(like) => like.matches(s),
                    None => LikePattern::new(pat).matches(s),
                }))
            }
            // A value in predicate position: nonzero numbers are true.
            BExpr::Literal(_) | BExpr::Column { .. } | BExpr::Neg(_) | BExpr::Arith { .. } => {
                match &*self.value(row)? {
                    DbValue::Null => Ok(Truth::Unknown),
                    DbValue::Int(i) => Ok(Truth::from_bool(*i != 0)),
                    DbValue::Double(d) => Ok(Truth::from_bool(*d != 0.0)),
                    DbValue::Text(_) => Err(DbError::TypeError("text used as a boolean".into())),
                }
            }
        }
    }

    /// The lowest and highest FROM index the expression names (`None` for a
    /// constant).
    pub(super) fn table_span(&self) -> Option<(usize, usize)> {
        let merge = |a: Option<(usize, usize)>, b: Option<(usize, usize)>| match (a, b) {
            (Some((lo, hi)), Some((lo2, hi2))) => Some((lo.min(lo2), hi.max(hi2))),
            (a, b) => a.or(b),
        };
        match self {
            BExpr::Literal(_) => None,
            BExpr::Column { table, .. } => Some((*table, *table)),
            BExpr::Neg(e) | BExpr::Not(e) => e.table_span(),
            BExpr::IsNull { expr, .. } | BExpr::InList { expr, .. } => expr.table_span(),
            BExpr::Arith { left, right, .. }
            | BExpr::Compare { left, right, .. }
            | BExpr::And(left, right)
            | BExpr::Or(left, right) => merge(left.table_span(), right.table_span()),
            BExpr::Like { value, pattern, .. } => merge(value.table_span(), pattern.table_span()),
        }
    }

    fn ty(&self) -> Ty {
        match self {
            BExpr::Literal(DbValue::Null) => Ty::Null,
            BExpr::Literal(DbValue::Int(_)) => Ty::Int,
            BExpr::Literal(DbValue::Double(_)) => Ty::Double,
            BExpr::Literal(DbValue::Text(_)) => Ty::Text,
            BExpr::Column { ty, .. } => match ty {
                DbType::Int => Ty::Int,
                DbType::Double => Ty::Double,
                DbType::Text => Ty::Text,
            },
            BExpr::Neg(e) => e.ty(),
            BExpr::Arith { left, right, .. } => match (left.ty(), right.ty()) {
                (Ty::Null, _) | (_, Ty::Null) => Ty::Null,
                (Ty::Double, _) | (_, Ty::Double) => Ty::Double,
                _ => Ty::Num,
            },
            _ => Ty::Int,
        }
    }

    /// Whether [`BExpr::value`] can return an error on some row. The planner
    /// only moves a conjunct ahead of its written position (into a table's
    /// own scan, or into a join key) when it cannot, so a query fails on the
    /// new pipeline exactly when the written evaluation order fails.
    fn value_fallible(&self) -> bool {
        match self {
            BExpr::Literal(_) | BExpr::Column { .. } => false,
            BExpr::Neg(e) => e.value_fallible() || e.ty() == Ty::Text,
            BExpr::Arith { op, left, right } => {
                let (lt, rt) = (left.ty(), right.ty());
                // Only Int / Int can divide by zero; any NULL or Double
                // operand takes the NULL or the float branch.
                let may_divide_by_zero = *op == BinOp::Div
                    && !matches!(lt, Ty::Null | Ty::Double)
                    && !matches!(rt, Ty::Null | Ty::Double)
                    && !matches!(**right, BExpr::Literal(DbValue::Int(n)) if n != 0);
                left.value_fallible()
                    || right.value_fallible()
                    || lt == Ty::Text
                    || rt == Ty::Text
                    || may_divide_by_zero
            }
            _ => self.truth_fallible(),
        }
    }

    /// Whether [`BExpr::truth`] can return an error on some row.
    pub(super) fn truth_fallible(&self) -> bool {
        match self {
            BExpr::Not(e) => e.truth_fallible(),
            BExpr::And(l, r) | BExpr::Or(l, r) => l.truth_fallible() || r.truth_fallible(),
            BExpr::IsNull { expr, .. } | BExpr::InList { expr, .. } => expr.value_fallible(),
            BExpr::Compare { left, right, .. } => left.value_fallible() || right.value_fallible(),
            BExpr::Like { value, pattern, .. } => {
                value.value_fallible()
                    || pattern.value_fallible()
                    || !matches!(value.ty(), Ty::Text | Ty::Null)
                    || !matches!(pattern.ty(), Ty::Text | Ty::Null)
            }
            BExpr::Literal(_) | BExpr::Column { .. } | BExpr::Neg(_) | BExpr::Arith { .. } => {
                self.value_fallible() || self.ty() == Ty::Text
            }
        }
    }

    /// For an `l = r` conjunct whose sides both evaluate without error, one
    /// over table `depth` alone and the other over earlier tables only:
    /// whether the `depth` side is the left one. `None` for anything else.
    pub(super) fn equi_join_at(&self, depth: usize) -> Option<bool> {
        let BExpr::Compare {
            op: BinOp::Eq,
            left,
            right,
        } = self
        else {
            return None;
        };
        if left.value_fallible() || right.value_fallible() {
            return None;
        }
        let here = |e: &BExpr| e.table_span() == Some((depth, depth));
        let earlier = |e: &BExpr| e.table_span().is_some_and(|(_, hi)| hi < depth);
        if here(left) && earlier(right) {
            Some(true)
        } else if here(right) && earlier(left) {
            Some(false)
        } else {
            None
        }
    }
}

/// SQL arithmetic: NULL propagates; Int⊕Int stays Int (except division by
/// zero, which is an error, and overflow, which widens to Double); any
/// Double operand widens the result.
fn arithmetic(op: BinOp, l: &DbValue, r: &DbValue) -> Result<DbValue> {
    if l.is_null() || r.is_null() {
        return Ok(DbValue::Null);
    }
    let apply_f64 = |a: f64, b: f64| match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => unreachable!("Arith holds arithmetic operators only"),
    };
    if let (DbValue::Int(a), DbValue::Int(b)) = (l, r) {
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
            _ => unreachable!("Arith holds arithmetic operators only"),
        };
        return Ok(match int_result {
            Some(i) => DbValue::Int(i),
            None => DbValue::Double(apply_f64(a as f64, b as f64)),
        });
    }
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(DbError::TypeError(format!(
            "arithmetic on non-numeric operands {l} and {r}"
        )));
    };
    Ok(DbValue::Double(apply_f64(a, b)))
}

/// The bits a number is matched by wherever matching follows
/// [`DbValue::sql_eq`] (join keys, `IN` lists): its `f64` value with the two
/// zeros folded together. NaN equals nothing, so it has no key.
pub(super) fn sql_eq_bits(f: f64) -> Option<u64> {
    if f.is_nan() {
        None
    } else if f == 0.0 {
        Some(0.0f64.to_bits())
    } else {
        Some(f.to_bits())
    }
}

/// A literal `IN` list prepared for probing: membership follows
/// [`DbValue::sql_eq`] (Int 4 is in `(4.0)`, text never equals a number).
#[derive(Debug)]
pub(super) struct InSet {
    /// Sorted [`sql_eq_bits`] of the numeric items.
    nums: Vec<u64>,
    /// Sorted text items.
    texts: Vec<String>,
    has_null: bool,
}

impl InSet {
    fn new(list: &[DbValue]) -> InSet {
        let mut set = InSet {
            nums: Vec::new(),
            texts: Vec::new(),
            has_null: false,
        };
        for item in list {
            match item {
                DbValue::Null => set.has_null = true,
                DbValue::Text(s) => set.texts.push(s.clone()),
                number => set.nums.extend(number.as_f64().and_then(sql_eq_bits)),
            }
        }
        set.nums.sort_unstable();
        set.texts.sort_unstable();
        set
    }

    /// SQL membership: TRUE on a match; with no match, a NULL in the list
    /// makes the answer Unknown rather than FALSE.
    fn probe(&self, v: &DbValue) -> Truth {
        let found = match v {
            DbValue::Null => return Truth::Unknown,
            DbValue::Text(s) => self
                .texts
                .binary_search_by(|t| t.as_str().cmp(s.as_str()))
                .is_ok(),
            number => number
                .as_f64()
                .and_then(sql_eq_bits)
                .is_some_and(|bits| self.nums.binary_search(&bits).is_ok()),
        };
        if found {
            Truth::True
        } else if self.has_null {
            Truth::Unknown
        } else {
            Truth::False
        }
    }
}

/// A `LIKE` pattern decoded once: `%` = any run, `_` = any single char.
#[derive(Debug)]
pub(super) struct LikePattern(Vec<char>);

impl LikePattern {
    pub(super) fn new(pattern: &str) -> LikePattern {
        LikePattern(pattern.chars().collect())
    }

    /// Two-pointer match: on a mismatch, go back to the last `%` and let it
    /// swallow one more character. O(|s| · |pattern|) at worst, no recursion,
    /// no allocation.
    pub(super) fn matches(&self, s: &str) -> bool {
        let p = &self.0;
        let mut pi = 0;
        let mut rest = s;
        // (pattern index after the last `%`, text that `%` had in front of it)
        let mut star: Option<(usize, &str)> = None;
        loop {
            if p.get(pi) == Some(&'%') {
                pi += 1;
                star = Some((pi, rest));
                continue;
            }
            let mut chars = rest.chars();
            let Some(c) = chars.next() else {
                // Text used up: only `%`s may remain in the pattern.
                return p[pi..].iter().all(|&pc| pc == '%');
            };
            if p.get(pi).is_some_and(|&pc| pc == '_' || pc == c) {
                pi += 1;
                rest = chars.as_str();
            } else if let Some((after_star, held)) = star {
                let mut held = held.chars();
                held.next();
                rest = held.as_str();
                pi = after_star;
                star = Some((after_star, rest));
            } else {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn like(s: &str, pattern: &str) -> bool {
        LikePattern::new(pattern).matches(s)
    }

    #[test]
    fn like_matching() {
        assert!(like("MPI_Allgather", "MPI%"));
        assert!(like("MPI_Allgather", "%gather"));
        assert!(like("MPI_Allgather", "%All%"));
        assert!(like("abc", "a_c"));
        assert!(!like("abc", "a_d"));
        assert!(like("", "%"));
        assert!(!like("", "_"));
        assert!(like("x%y", "x%y")); // literal chars still match
        assert!(like("anything", "%%"));
        assert!(like("é_x", "__x"), "`_` is one char, not one byte");
        assert!(!like("ab", "%c"));
        assert!(like("aXbXc", "a%X%c"));
    }

    #[test]
    fn like_pathological_pattern_is_polynomial() {
        // The recursive matcher explored every split of the run of `a`s
        // among the eight `%`s and did not return.
        let text = "a".repeat(10_000);
        let started = std::time::Instant::now();
        assert!(!like(&text, "%a%a%a%a%a%a%a%a%b"));
        assert!(like(&text, "%a%a%a%a%a%a%a%a%a"));
        assert!(
            started.elapsed() < std::time::Duration::from_millis(250),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn truth_table() {
        use Truth::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
    }

    #[test]
    fn in_set_follows_sql_eq() {
        let set = InSet::new(&[
            DbValue::Int(4),
            DbValue::Double(0.0),
            DbValue::Double(f64::NAN),
            DbValue::from("beta"),
        ]);
        assert_eq!(set.probe(&DbValue::Double(4.0)), Truth::True);
        assert_eq!(set.probe(&DbValue::Double(-0.0)), Truth::True);
        assert_eq!(set.probe(&DbValue::Int(0)), Truth::True);
        assert_eq!(set.probe(&DbValue::Double(f64::NAN)), Truth::False);
        assert_eq!(set.probe(&DbValue::from("beta")), Truth::True);
        assert_eq!(set.probe(&DbValue::from("4")), Truth::False);
        assert_eq!(set.probe(&DbValue::Null), Truth::Unknown);
        let with_null = InSet::new(&[DbValue::Int(1), DbValue::Null]);
        assert_eq!(with_null.probe(&DbValue::Int(1)), Truth::True);
        assert_eq!(with_null.probe(&DbValue::Int(2)), Truth::Unknown);
    }
}
