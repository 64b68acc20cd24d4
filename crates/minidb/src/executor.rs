//! Query execution: bind → filter → join → fold.
//!
//! A SELECT is compiled once into a [`Plan`] and run by one pipeline:
//!
//! * **bind** — every column reference becomes a `(table, column)` slot,
//!   `IN` lists become probe sets, literal `LIKE` patterns are prepared
//!   ([`expr`]); an unknown or ambiguous name fails here, before any row is
//!   read.
//! * **filter** — WHERE conjuncts that name a single table run during that
//!   table's own scan, so a later FROM entry is cut down before any pairing.
//! * **join** — `a.x = b.y` conjuncts between an earlier and a later FROM
//!   entry key a hash table over the filtered later table; the earlier side
//!   probes it in FROM order and matches come back in the later table's row
//!   order, which is the order a nested loop would have produced. Without
//!   such a conjunct the probe walks the whole filtered table; whatever is
//!   left of the predicate is a residual filter on each candidate pairing.
//! * **fold** — joined rows stream straight into the projection or into
//!   per-group aggregate accumulators; nothing in between is materialized.
//!
//! There are no indexes and no plan cache: every statement scans its tables.

#[cfg(test)]
mod differential_tests;
mod expr;
#[cfg(test)]
mod oracle;

use crate::error::{DbError, Result};
use crate::schema::TableSchema;
use crate::sql::{AggFunc, Expr, SelectItem, SelectStmt};
use crate::types::DbValue;
use expr::{sql_eq_bits, BExpr, Row, Scope};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};

/// How many rows (scanned, hashed or probed) pass between expiry checks of
/// the scoped call context. Cheap enough to keep scans responsive
/// (sub-millisecond at any realistic row cost), rare enough that the
/// thread-local probe stays off the per-row fast path.
const INTERRUPT_CHECK_EVERY: u32 = 256;

/// A base table's rows.
pub(crate) type TableRows = [Vec<DbValue>];

/// A WHERE predicate bound to one table (`DELETE`).
pub(crate) struct Predicate(BExpr);

impl Predicate {
    /// Bind `expr` against `schema`, addressed by `alias`.
    pub(crate) fn bind(expr: &Expr, alias: &str, schema: &TableSchema) -> Result<Predicate> {
        Scope::new(vec![(alias, schema)]).bind(expr).map(Predicate)
    }

    /// Whether the predicate is TRUE (not FALSE, not Unknown) for `row`.
    pub(crate) fn matches(&self, row: &[DbValue]) -> Result<bool> {
        Ok(self.0.truth(&[row])?.is_true())
    }
}

/// What the pipeline does with one FROM entry.
struct JoinStep {
    /// Conjuncts applied while scanning this table on its own. For the
    /// first table: every conjunct that names no later table, in written
    /// order. For a later table: the conjuncts naming it alone that cannot
    /// fail (see [`BExpr::truth_fallible`]).
    filter: Vec<BExpr>,
    /// Equi-join keys `(probe side over earlier tables, build side over this
    /// table)`. Empty ⇒ every filtered row is a candidate.
    keys: Vec<(BExpr, BExpr)>,
    /// The remaining conjuncts that become evaluable at this table, checked
    /// per candidate pairing in written order.
    residual: Vec<BExpr>,
}

/// Where an ORDER BY key comes from.
enum OrderSource {
    /// An expression over the source row (for a group: its first row).
    Source(BExpr),
    /// An output column, matched by label.
    Output(usize),
}

enum GroupItem {
    /// A plain expression: evaluated on the group's first row (it must be
    /// functionally dependent on the group key to mean anything).
    First(BExpr),
    Aggregate {
        func: AggFunc,
        /// `None` only for `COUNT(*)`.
        arg: Option<BExpr>,
    },
}

enum Shape {
    /// One output row per joined row.
    Plain { items: Vec<BExpr> },
    /// One output row per group (a single group without GROUP BY).
    Grouped {
        group_by: Vec<BExpr>,
        items: Vec<GroupItem>,
    },
}

/// A SELECT bound to the schemas of its FROM tables.
pub(crate) struct Plan {
    columns: Vec<String>,
    steps: Vec<JoinStep>,
    shape: Shape,
    order: Vec<(OrderSource, bool)>,
    distinct: bool,
    limit: Option<usize>,
}

impl Plan {
    /// Compile `stmt`; `schemas[i]` belongs to `stmt.from[i]`.
    pub(crate) fn bind(stmt: &SelectStmt, schemas: &[&TableSchema]) -> Result<Plan> {
        let scope = Scope::new(
            stmt.from
                .iter()
                .map(|tref| tref.alias.as_str())
                .zip(schemas.iter().copied())
                .collect(),
        );

        let mut columns = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    columns.extend(scope.all_columns().map(|(_, name)| name.to_owned()));
                }
                SelectItem::Expr { label, .. } | SelectItem::Aggregate { label, .. } => {
                    columns.push(label.clone());
                }
            }
        }

        let grouped = !stmt.group_by.is_empty()
            || stmt
                .items
                .iter()
                .any(|i| matches!(i, SelectItem::Aggregate { .. }));
        let shape = if grouped {
            let mut items = Vec::with_capacity(stmt.items.len());
            for item in &stmt.items {
                items.push(match item {
                    SelectItem::Wildcard => {
                        return Err(DbError::Execution(
                            "SELECT * cannot be combined with aggregates".into(),
                        ))
                    }
                    SelectItem::Expr { expr, .. } => GroupItem::First(scope.bind(expr)?),
                    SelectItem::Aggregate { func, arg, .. } => {
                        if arg.is_none() && *func != AggFunc::Count {
                            return Err(DbError::Execution(
                                "aggregate requires an argument".into(),
                            ));
                        }
                        GroupItem::Aggregate {
                            func: *func,
                            arg: arg.as_ref().map(|a| scope.bind(a)).transpose()?,
                        }
                    }
                });
            }
            let group_by = stmt
                .group_by
                .iter()
                .map(|g| scope.bind(g))
                .collect::<Result<_>>()?;
            Shape::Grouped { group_by, items }
        } else {
            let mut items = Vec::with_capacity(columns.len());
            for item in &stmt.items {
                match item {
                    SelectItem::Wildcard => items.extend(scope.all_columns().map(|(c, _)| c)),
                    SelectItem::Expr { expr, .. } => items.push(scope.bind(expr)?),
                    SelectItem::Aggregate { .. } => unreachable!("aggregates make it grouped"),
                }
            }
            Shape::Plain { items }
        };

        // ORDER BY names source columns or output labels. A plain query
        // prefers the source column and falls back to the label; a grouped
        // one prefers the label.
        let label_index = |e: &Expr| match e {
            Expr::Column { table: None, name } => {
                columns.iter().position(|c| c.eq_ignore_ascii_case(name))
            }
            _ => None,
        };
        let mut order = Vec::with_capacity(stmt.order_by.len());
        for key in &stmt.order_by {
            let source = match (grouped, label_index(&key.expr)) {
                (true, Some(i)) => OrderSource::Output(i),
                (true, None) => OrderSource::Source(scope.bind(&key.expr)?),
                (false, label) => match (scope.bind(&key.expr), label) {
                    (Ok(bound), _) => OrderSource::Source(bound),
                    (Err(DbError::UnknownColumn(_)), Some(i)) => OrderSource::Output(i),
                    (Err(DbError::UnknownColumn(_)), None) => {
                        return Err(DbError::UnknownColumn(format!(
                            "ORDER BY key {:?}",
                            key.expr.default_label()
                        )))
                    }
                    (Err(e), _) => return Err(e),
                },
            };
            order.push((source, key.desc));
        }

        let predicate = stmt.predicate.as_ref().map(|p| scope.bind(p)).transpose()?;
        Ok(Plan {
            columns,
            steps: plan_joins(predicate, stmt.from.len()),
            shape,
            order,
            distinct: stmt.distinct,
            limit: stmt.limit,
        })
    }

    /// Output column labels.
    pub(crate) fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Give up the plan for its column labels.
    pub(crate) fn into_columns(self) -> Vec<String> {
        self.columns
    }

    /// LIMIT, if any.
    pub(crate) fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Whether output rows can be handed out as the single table is scanned
    /// ([`Plan::scan_batch`]): nothing needs the whole input first.
    pub(crate) fn is_streamable(&self) -> bool {
        self.steps.len() == 1
            && matches!(self.shape, Shape::Plain { .. })
            && self.order.is_empty()
            && !self.distinct
    }

    /// Run the whole query; `tables[i]` holds the rows of `stmt.from[i]`.
    pub(crate) fn execute(&self, tables: &[&TableRows]) -> Result<Vec<Vec<DbValue>>> {
        let ordered = !self.order.is_empty();
        let mut rows: Vec<Vec<DbValue>> = Vec::new();
        let mut keyed: Vec<(Vec<DbValue>, Vec<DbValue>)> = Vec::new();
        let mut emit = |keys: Vec<DbValue>, out: Vec<DbValue>| {
            if ordered {
                keyed.push((keys, out));
            } else {
                rows.push(out);
            }
        };
        match &self.shape {
            Shape::Plain { items } => {
                self.run(tables, 0, |row| {
                    let out = project(items, row)?;
                    let keys = self.order_keys(&out, |e| e.value(row).map(Cow::into_owned))?;
                    emit(keys, out);
                    Ok(true)
                })?;
            }
            Shape::Grouped { group_by, items } => {
                let mut groups = Groups::new(group_by, items);
                self.run(tables, 0, |row| groups.fold(row).map(|()| true))?;
                for group in &groups.groups {
                    let out = group.finish(items)?;
                    let keys = self.order_keys(&out, |e| match &group.first {
                        Some(first) => e.value(first).map(Cow::into_owned),
                        None => Ok(DbValue::Null),
                    })?;
                    emit(keys, out);
                }
            }
        }
        if ordered {
            keyed.sort_by(|(ka, _), (kb, _)| {
                for ((a, b), (_, desc)) in ka.iter().zip(kb).zip(&self.order) {
                    let ord = order_cmp(a, b);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            rows = keyed.into_iter().map(|(_, out)| out).collect();
        }
        if self.distinct {
            let mut seen = ValueIndex::new();
            let mut kept: Vec<Vec<DbValue>> = Vec::with_capacity(rows.len());
            for row in rows {
                let hash = seen.hash(row.iter());
                if seen
                    .find(hash, |i| values_identical(&kept[i], row.iter()))
                    .is_none()
                {
                    seen.insert(hash, kept.len());
                    kept.push(row);
                }
            }
            rows = kept;
        }
        if let Some(limit) = self.limit {
            rows.truncate(limit);
        }
        Ok(rows)
    }

    /// Produce up to `max` output rows of a streamable plan, scanning `rows`
    /// from `*pos` and leaving `*pos` after the last row looked at. LIMIT is
    /// the caller's to count.
    pub(crate) fn scan_batch(
        &self,
        rows: &TableRows,
        pos: &mut usize,
        max: usize,
    ) -> Result<Vec<Vec<DbValue>>> {
        let Shape::Plain { items } = &self.shape else {
            unreachable!("scan_batch needs a streamable plan");
        };
        debug_assert!(self.is_streamable());
        let mut out = Vec::new();
        if max > 0 {
            *pos = self.run(&[rows], *pos, |row| {
                out.push(project(items, row)?);
                Ok(out.len() < max)
            })?;
        }
        Ok(out)
    }

    fn order_keys(
        &self,
        out: &[DbValue],
        mut source: impl FnMut(&BExpr) -> Result<DbValue>,
    ) -> Result<Vec<DbValue>> {
        self.order
            .iter()
            .map(|(key, _)| match key {
                OrderSource::Source(e) => source(e),
                OrderSource::Output(i) => Ok(out[*i].clone()),
            })
            .collect()
    }

    /// The pipeline: hash (or list) every later table after its own filter,
    /// then scan the first table from row `start`, probing depth by depth,
    /// and hand each surviving row combination to `sink`. The sink returns
    /// whether it wants more. Returns the first-table position to resume at.
    fn run<'a>(
        &'a self,
        tables: &[&'a TableRows],
        start: usize,
        sink: impl FnMut(&Row<'a>) -> Result<bool>,
    ) -> Result<usize> {
        let mut st = RunState {
            row: vec![&[]; tables.len()],
            ticks: 0,
            probe_keys: vec![Vec::new(); tables.len()],
            sink,
        };
        let mut builds = Vec::with_capacity(tables.len());
        builds.push(Build::List(Vec::new())); // the first table is scanned, not built
        for (depth, step) in self.steps.iter().enumerate().skip(1) {
            builds.push(step.build(depth, tables[depth], &mut st)?);
        }
        let first = &self.steps[0];
        for (i, r) in tables[0].iter().enumerate().skip(start) {
            st.tick()?;
            st.row[0] = r;
            if all_true(&first.filter, &st.row)?
                && !probe(&self.steps, tables, &builds, 1, &mut st)?
            {
                return Ok(i + 1);
            }
        }
        Ok(tables[0].len().max(start))
    }
}

/// Assign each WHERE conjunct to the first FROM depth at which every table
/// it names is in place, and decide what it does there.
///
/// At a later table, conjuncts are taken in written order up to the first
/// one that could fail on some row (division, arithmetic on text, …): up to
/// there, single-table conjuncts move into the table's own scan and
/// `earlier = this` equalities become join keys, which nobody can observe.
/// From the first fallible conjunct on, everything stays a residual in
/// written order, so an error surfaces for exactly the row combinations a
/// plain nested loop would have evaluated it on.
fn plan_joins(predicate: Option<BExpr>, tables: usize) -> Vec<JoinStep> {
    let mut steps: Vec<JoinStep> = (0..tables)
        .map(|_| JoinStep {
            filter: Vec::new(),
            keys: Vec::new(),
            residual: Vec::new(),
        })
        .collect();
    let mut conjuncts = Vec::new();
    if let Some(p) = predicate {
        split_conjuncts(p, &mut conjuncts);
    }
    let mut movable = vec![true; tables];
    for c in conjuncts {
        let depth = c.table_span().map_or(0, |(_, hi)| hi);
        let step = &mut steps[depth];
        if depth == 0 {
            step.filter.push(c);
            continue;
        }
        movable[depth] &= !c.truth_fallible();
        if !movable[depth] {
            step.residual.push(c);
        } else if c.table_span() == Some((depth, depth)) {
            step.filter.push(c);
        } else if let Some(build_side_left) = c.equi_join_at(depth) {
            let BExpr::Compare { left, right, .. } = c else {
                unreachable!("equi_join_at accepts comparisons only");
            };
            step.keys.push(if build_side_left {
                (*right, *left)
            } else {
                (*left, *right)
            });
        } else {
            step.residual.push(c);
        }
    }
    steps
}

fn split_conjuncts(expr: BExpr, out: &mut Vec<BExpr>) {
    match expr {
        BExpr::And(l, r) => {
            split_conjuncts(*l, out);
            split_conjuncts(*r, out);
        }
        other => out.push(other),
    }
}

fn all_true(conjuncts: &[BExpr], row: &Row<'_>) -> Result<bool> {
    for c in conjuncts {
        if !c.truth(row)?.is_true() {
            return Ok(false);
        }
    }
    Ok(true)
}

fn project(items: &[BExpr], row: &Row<'_>) -> Result<Vec<DbValue>> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(item.value(row)?.into_owned());
    }
    Ok(out)
}

/// One component of a join key: equal exactly when [`DbValue::sql_eq`] says
/// the values are (Int 1 = Double 1.0, text ≠ number). NULL and NaN equal
/// nothing and have no key.
#[derive(Clone, PartialEq, Eq, Hash)]
enum JoinKey<'a> {
    Num(u64),
    Text(Cow<'a, str>),
}

impl<'a> JoinKey<'a> {
    fn of(v: Cow<'a, DbValue>) -> Option<JoinKey<'a>> {
        match v {
            Cow::Borrowed(DbValue::Text(s)) => Some(JoinKey::Text(Cow::Borrowed(s))),
            Cow::Owned(DbValue::Text(s)) => Some(JoinKey::Text(Cow::Owned(s))),
            other => other.as_f64().and_then(sql_eq_bits).map(JoinKey::Num),
        }
    }
}

/// A later table after its own filter: the surviving row numbers in table
/// order, bucketed by join key when the step has one.
enum Build<'a> {
    List(Vec<usize>),
    Hash(HashMap<Vec<JoinKey<'a>>, Vec<usize>>),
}

struct RunState<'a, F> {
    /// The row combination under construction.
    row: Vec<&'a [DbValue]>,
    ticks: u32,
    /// Per-depth scratch for the probe-side key, reused across probes.
    probe_keys: Vec<Vec<JoinKey<'a>>>,
    sink: F,
}

impl<F> RunState<'_, F> {
    fn tick(&mut self) -> Result<()> {
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(INTERRUPT_CHECK_EVERY) && ppg_context::current_expired() {
            return Err(DbError::Interrupted);
        }
        Ok(())
    }
}

impl JoinStep {
    fn build<'a, F>(
        &'a self,
        depth: usize,
        rows: &'a TableRows,
        st: &mut RunState<'a, F>,
    ) -> Result<Build<'a>> {
        let mut list = Vec::new();
        let mut hash: HashMap<Vec<JoinKey<'a>>, Vec<usize>> = HashMap::new();
        let mut key = Vec::with_capacity(self.keys.len());
        'rows: for (i, r) in rows.iter().enumerate() {
            st.tick()?;
            st.row[depth] = r;
            if !all_true(&self.filter, &st.row)? {
                continue;
            }
            if self.keys.is_empty() {
                list.push(i);
                continue;
            }
            key.clear();
            for (_, build_side) in &self.keys {
                match JoinKey::of(build_side.value(&st.row)?) {
                    Some(k) => key.push(k),
                    None => continue 'rows,
                }
            }
            match hash.get_mut(key.as_slice()) {
                Some(bucket) => bucket.push(i),
                None => {
                    hash.insert(key.clone(), vec![i]);
                }
            }
        }
        Ok(if self.keys.is_empty() {
            Build::List(list)
        } else {
            Build::Hash(hash)
        })
    }
}

/// Extend the row combination in `st.row[..depth]` through the tables from
/// `depth` on. Returns whether the sink still wants rows.
fn probe<'a, F: FnMut(&Row<'a>) -> Result<bool>>(
    steps: &'a [JoinStep],
    tables: &[&'a TableRows],
    builds: &[Build<'a>],
    depth: usize,
    st: &mut RunState<'a, F>,
) -> Result<bool> {
    let Some(step) = steps.get(depth) else {
        return (st.sink)(&st.row);
    };
    let candidates: &[usize] = match &builds[depth] {
        Build::List(list) => list,
        Build::Hash(hash) => {
            let mut key = std::mem::take(&mut st.probe_keys[depth]);
            key.clear();
            let mut complete = true;
            for (probe_side, _) in &step.keys {
                match JoinKey::of(probe_side.value(&st.row)?) {
                    Some(k) => key.push(k),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            let bucket = if complete {
                hash.get(key.as_slice())
            } else {
                None
            };
            st.probe_keys[depth] = key;
            bucket.map_or(&[], Vec::as_slice)
        }
    };
    for &i in candidates {
        st.tick()?;
        st.row[depth] = &tables[depth][i];
        if all_true(&step.residual, &st.row)? && !probe(steps, tables, builds, depth + 1, st)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// ORDER BY comparison: [`DbValue::compare`] made total, which `sort_by`
/// requires (it may panic otherwise). `compare` calls NaN equal to every
/// number and compares Int with Double through a rounding cast, so `a = c`,
/// `c = b`, `a < b` can all hold; here NaN sorts after every number and Int
/// against Double is exact.
fn order_cmp(a: &DbValue, b: &DbValue) -> Ordering {
    fn int_double(i: i64, d: f64) -> Ordering {
        match (i as f64).partial_cmp(&d) {
            None => Ordering::Less,
            // The cast rounded `i` onto `d`, so `d` is a whole number in
            // i64's neighbourhood: compare exactly.
            Some(Ordering::Equal) => i128::from(i).cmp(&(d as i128)),
            Some(ord) => ord,
        }
    }
    match (a, b) {
        (DbValue::Int(i), DbValue::Double(d)) => int_double(*i, *d),
        (DbValue::Double(d), DbValue::Int(i)) => int_double(*i, *d).reverse(),
        (DbValue::Double(x), DbValue::Double(y)) => x
            .partial_cmp(y)
            .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan())),
        _ => a.compare(b),
    }
}

// ------------------------------------------------------------------ grouping

/// Group / DISTINCT identity: same variant and same value. `NULL` and the
/// text `'NULL'` differ, Int 2 and Double 2.0 differ (they render
/// differently), all NaNs are one value, `0.0` and `-0.0` are two.
fn value_identical(a: &DbValue, b: &DbValue) -> bool {
    match (a, b) {
        (DbValue::Double(x), DbValue::Double(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        _ => a == b,
    }
}

fn values_identical<'v>(a: &[DbValue], b: impl ExactSizeIterator<Item = &'v DbValue>) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| value_identical(x, y))
}

/// Hash index over value tuples kept elsewhere (`groups`, `kept`): tuple
/// hash → positions of the tuples with that hash. Lookups hash borrowed
/// values, so finding an existing tuple allocates nothing.
struct ValueIndex {
    hasher: RandomState,
    slots: HashMap<u64, Vec<usize>>,
}

impl ValueIndex {
    fn new() -> ValueIndex {
        ValueIndex {
            hasher: RandomState::new(),
            slots: HashMap::new(),
        }
    }

    /// Hash consistent with [`value_identical`].
    fn hash<'v>(&self, values: impl Iterator<Item = &'v DbValue>) -> u64 {
        let mut h = self.hasher.build_hasher();
        for v in values {
            match v {
                DbValue::Null => 0u8.hash(&mut h),
                DbValue::Int(i) => (1u8, i).hash(&mut h),
                DbValue::Double(d) if d.is_nan() => 2u8.hash(&mut h),
                DbValue::Double(d) => (3u8, d.to_bits()).hash(&mut h),
                DbValue::Text(s) => (4u8, s).hash(&mut h),
            }
        }
        h.finish()
    }

    fn find(&self, hash: u64, mut is_match: impl FnMut(usize) -> bool) -> Option<usize> {
        self.slots
            .get(&hash)?
            .iter()
            .copied()
            .find(|&i| is_match(i))
    }

    fn insert(&mut self, hash: u64, position: usize) {
        self.slots.entry(hash).or_default().push(position);
    }
}

/// One aggregate's running state.
struct Accumulator<'a> {
    /// Rows counted: all of them for `COUNT(*)`, else the non-NULL arguments.
    count: i64,
    /// Exact integer sum; `None` once it has overflowed.
    int_sum: Option<i64>,
    /// Float sum of every argument in row order (what `AVG` divides, and
    /// what `SUM` returns once a Double was seen or the integers overflowed).
    float_sum: f64,
    saw_double: bool,
    /// Current MIN / MAX.
    best: Option<Cow<'a, DbValue>>,
}

impl<'a> Accumulator<'a> {
    fn new() -> Accumulator<'a> {
        Accumulator {
            count: 0,
            int_sum: Some(0),
            float_sum: 0.0,
            saw_double: false,
            best: None,
        }
    }

    fn add(&mut self, func: AggFunc, v: Cow<'a, DbValue>) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match func {
            AggFunc::Count => {}
            // Ties keep the first minimum and the last maximum, as
            // `Iterator::min_by` / `max_by` do.
            AggFunc::Min => {
                if self
                    .best
                    .as_ref()
                    .is_none_or(|b| b.compare(&v) == Ordering::Greater)
                {
                    self.best = Some(v);
                }
            }
            AggFunc::Max => {
                if self
                    .best
                    .as_ref()
                    .is_none_or(|b| b.compare(&v) != Ordering::Greater)
                {
                    self.best = Some(v);
                }
            }
            AggFunc::Sum | AggFunc::Avg => match &*v {
                DbValue::Int(i) => {
                    self.int_sum = self.int_sum.and_then(|s| s.checked_add(*i));
                    self.float_sum += *i as f64;
                }
                DbValue::Double(d) => {
                    self.saw_double = true;
                    self.float_sum += d;
                }
                _ => return Err(DbError::TypeError("SUM/AVG over non-numeric".into())),
            },
        }
        Ok(())
    }

    fn finish(&self, func: AggFunc) -> DbValue {
        match func {
            AggFunc::Count => DbValue::Int(self.count),
            AggFunc::Min | AggFunc::Max => self.best.as_deref().cloned().unwrap_or(DbValue::Null),
            _ if self.count == 0 => DbValue::Null,
            AggFunc::Avg => DbValue::Double(self.float_sum / self.count as f64),
            // Integers stay exact; the sum widens to Double only when a
            // Double was added or the integers overflowed i64.
            AggFunc::Sum => match self.int_sum {
                Some(s) if !self.saw_double => DbValue::Int(s),
                _ => DbValue::Double(self.float_sum),
            },
        }
    }
}

struct Group<'a> {
    key: Vec<DbValue>,
    /// The first row combination that fell into the group (`None` only for
    /// the whole-input group of an empty input).
    first: Option<Vec<&'a [DbValue]>>,
    /// One per [`GroupItem::Aggregate`], in item order.
    accumulators: Vec<Accumulator<'a>>,
}

impl Group<'_> {
    fn finish(&self, items: &[GroupItem]) -> Result<Vec<DbValue>> {
        let mut accumulators = self.accumulators.iter();
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(match item {
                GroupItem::First(e) => match &self.first {
                    Some(first) => e.value(first)?.into_owned(),
                    None => DbValue::Null,
                },
                GroupItem::Aggregate { func, .. } => accumulators
                    .next()
                    .expect("one accumulator per aggregate item")
                    .finish(*func),
            });
        }
        Ok(out)
    }
}

/// The groups of a grouped query, in order of first appearance.
struct Groups<'a> {
    group_by: &'a [BExpr],
    items: &'a [GroupItem],
    /// How many of `items` are aggregates.
    aggregates: usize,
    groups: Vec<Group<'a>>,
    index: ValueIndex,
    /// Scratch for the current row's key values.
    key: Vec<Cow<'a, DbValue>>,
}

impl<'a> Groups<'a> {
    fn new(group_by: &'a [BExpr], items: &'a [GroupItem]) -> Groups<'a> {
        let mut groups = Groups {
            group_by,
            items,
            aggregates: items
                .iter()
                .filter(|i| matches!(i, GroupItem::Aggregate { .. }))
                .count(),
            groups: Vec::new(),
            index: ValueIndex::new(),
            key: Vec::with_capacity(group_by.len()),
        };
        // With no GROUP BY, aggregates run over the whole input as one group
        // — even when it is empty (COUNT(*) of an empty table is 0).
        if group_by.is_empty() {
            groups.open(None);
        }
        groups
    }

    fn open(&mut self, first: Option<&Row<'a>>) {
        self.groups.push(Group {
            key: self.key.iter().map(|v| (**v).clone()).collect(),
            first: first.map(<[_]>::to_vec),
            accumulators: (0..self.aggregates).map(|_| Accumulator::new()).collect(),
        });
    }

    /// Add one joined row to its group.
    fn fold(&mut self, row: &Row<'a>) -> Result<()> {
        let position = if self.group_by.is_empty() {
            let whole = &mut self.groups[0];
            if whole.first.is_none() {
                whole.first = Some(row.to_vec());
            }
            0
        } else {
            self.key.clear();
            for g in self.group_by {
                self.key.push(g.value(row)?);
            }
            let hash = self.index.hash(self.key.iter().map(|v| &**v));
            let groups = &self.groups;
            let key = &self.key;
            match self.index.find(hash, |i| {
                values_identical(&groups[i].key, key.iter().map(|v| &**v))
            }) {
                Some(i) => i,
                None => {
                    self.index.insert(hash, self.groups.len());
                    self.open(Some(row));
                    self.groups.len() - 1
                }
            }
        };
        let mut accumulators = self.groups[position].accumulators.iter_mut();
        for item in self.items {
            if let GroupItem::Aggregate { func, arg } = item {
                let acc = accumulators
                    .next()
                    .expect("one accumulator per aggregate item");
                match arg {
                    None => acc.count += 1,
                    Some(arg) => acc.add(*func, arg.value(row)?)?,
                }
            }
        }
        Ok(())
    }
}
