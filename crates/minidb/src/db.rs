//! The database object and its JDBC-like connection API.

use crate::error::{DbError, Result};
use crate::executor::{Plan, Predicate, TableRows};
use crate::schema::{Column, TableSchema};
use crate::sql::{parse_statement, SelectStmt, Statement};
use crate::types::DbValue;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

struct Table {
    schema: TableSchema,
    rows: Vec<Vec<DbValue>>,
}

#[derive(Default)]
struct Inner {
    tables: RwLock<HashMap<String, Table>>,
    /// Simulated per-statement server round-trip, in microseconds (0 = off).
    ///
    /// The original PPerfGrid reached PostgreSQL over JDBC: every statement
    /// paid a client/server IPC, parse, and plan cost on 2004 hardware
    /// (the thesis's HPL mapping-layer time was ~82 ms for a trivial
    /// one-row SELECT). This knob restores that constant so experiments
    /// comparing RDBMS-backed stores against direct file parsing keep the
    /// paper's cost ordering.
    query_latency_us: std::sync::atomic::AtomicU64,
}

/// An in-process relational database. Cheap to clone (shared state).
#[derive(Clone, Default)]
pub struct Database {
    inner: Arc<Inner>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Open a connection. Connections are lightweight handles; any number may
    /// exist concurrently (readers run in parallel, writers serialize).
    pub fn connect(&self) -> Connection {
        Connection { db: self.clone() }
    }

    /// Set the simulated per-statement server round-trip cost (see the
    /// field docs). `None` disables it.
    pub fn set_query_latency(&self, latency: Option<std::time::Duration>) {
        let us = latency.map(|d| d.as_micros() as u64).unwrap_or(0);
        self.inner
            .query_latency_us
            .store(us, std::sync::atomic::Ordering::Relaxed);
    }

    fn apply_query_latency(&self) -> Result<()> {
        let us = self
            .inner
            .query_latency_us
            .load(std::sync::atomic::Ordering::Relaxed);
        if us > 0 {
            // The simulated round-trip sleeps in slices so a statement whose
            // caller already gave up (scoped call context expired or
            // cancelled) stops here instead of holding the worker thread.
            let wake = std::time::Instant::now() + std::time::Duration::from_micros(us);
            let slice = std::time::Duration::from_millis(5);
            loop {
                if ppg_context::current_expired() {
                    return Err(DbError::Interrupted);
                }
                let now = std::time::Instant::now();
                if now >= wake {
                    break;
                }
                std::thread::sleep(slice.min(wake - now));
            }
        }
        Ok(())
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Row count of a table.
    pub fn row_count(&self, table: &str) -> Option<usize> {
        self.inner
            .tables
            .read()
            .get(&table.to_ascii_lowercase())
            .map(|t| t.rows.len())
    }

    /// Bulk-load rows directly (bypassing SQL parsing) — used by the dataset
    /// generators to build the large SMG98 store quickly.
    pub fn bulk_insert(&self, table: &str, rows: Vec<Vec<DbValue>>) -> Result<usize> {
        let mut tables = self.inner.tables.write();
        let table = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable(table.to_owned()))?;
        let arity = table.schema.arity();
        let mut staged = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != arity {
                return Err(DbError::BadInsert(format!(
                    "expected {arity} values, got {}",
                    row.len()
                )));
            }
            let mut converted = Vec::with_capacity(arity);
            for (v, col) in row.into_iter().zip(&table.schema.columns) {
                if !v.fits(col.ty) {
                    return Err(DbError::BadInsert(format!(
                        "value {v} does not fit column {} ({})",
                        col.name, col.ty
                    )));
                }
                converted.push(v.coerce(col.ty));
            }
            staged.push(converted);
        }
        let n = staged.len();
        table.rows.extend(staged);
        Ok(n)
    }
}

/// A connection to a [`Database`].
pub struct Connection {
    db: Database,
}

impl Connection {
    /// Execute a statement that returns no rows (CREATE/INSERT/DROP/DELETE).
    /// Returns the number of affected rows (0 for DDL).
    pub fn execute(&self, sql: &str) -> Result<usize> {
        self.db.apply_query_latency()?;
        match parse_statement(sql)? {
            Statement::CreateTable { name, columns } => {
                let mut tables = self.db.inner.tables.write();
                if tables.contains_key(&name) {
                    return Err(DbError::TableExists(name));
                }
                let schema = TableSchema {
                    name: name.clone(),
                    columns: columns
                        .into_iter()
                        .map(|(name, ty)| Column { name, ty })
                        .collect(),
                };
                tables.insert(
                    name,
                    Table {
                        schema,
                        rows: Vec::new(),
                    },
                );
                Ok(0)
            }
            Statement::Insert {
                name,
                columns,
                rows,
            } => {
                let mut tables = self.db.inner.tables.write();
                let table = tables.get_mut(&name).ok_or(DbError::UnknownTable(name))?;
                let arity = table.schema.arity();
                // Map explicit column lists to schema positions.
                let positions: Vec<usize> = match &columns {
                    Some(cols) => cols
                        .iter()
                        .map(|c| {
                            table
                                .schema
                                .column_index(c)
                                .ok_or_else(|| DbError::UnknownColumn(c.clone()))
                        })
                        .collect::<Result<_>>()?,
                    None => (0..arity).collect(),
                };
                let mut staged = Vec::with_capacity(rows.len());
                for row in &rows {
                    if row.len() != positions.len() {
                        return Err(DbError::BadInsert(format!(
                            "expected {} values, got {}",
                            positions.len(),
                            row.len()
                        )));
                    }
                    let mut full = vec![DbValue::Null; arity];
                    for (value, &pos) in row.iter().zip(&positions) {
                        let col = &table.schema.columns[pos];
                        if !value.fits(col.ty) {
                            return Err(DbError::BadInsert(format!(
                                "value {value} does not fit column {} ({})",
                                col.name, col.ty
                            )));
                        }
                        full[pos] = value.clone().coerce(col.ty);
                    }
                    staged.push(full);
                }
                let n = staged.len();
                table.rows.extend(staged);
                Ok(n)
            }
            Statement::DropTable { name } => {
                let removed = self.db.inner.tables.write().remove(&name);
                if removed.is_none() {
                    return Err(DbError::UnknownTable(name));
                }
                Ok(0)
            }
            Statement::Delete { name, predicate } => {
                let mut tables = self.db.inner.tables.write();
                let table = tables
                    .get_mut(&name)
                    .ok_or_else(|| DbError::UnknownTable(name.clone()))?;
                let before = table.rows.len();
                match predicate {
                    None => table.rows.clear(),
                    Some(pred) => {
                        let pred = Predicate::bind(&pred, &name, &table.schema)?;
                        // Evaluate the predicate per row; errors abort without
                        // partial deletion.
                        let mut keep = Vec::with_capacity(table.rows.len());
                        for row in &table.rows {
                            keep.push(!pred.matches(row)?);
                        }
                        let mut it = keep.into_iter();
                        table.rows.retain(|_| it.next().unwrap_or(true));
                    }
                }
                Ok(before - table.rows.len())
            }
            Statement::Select(_) => Err(DbError::Execution(
                "use query() for SELECT statements".into(),
            )),
        }
    }

    /// Execute a SELECT and return its result set.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        self.db.apply_query_latency()?;
        let Statement::Select(stmt) = parse_statement(sql)? else {
            return Err(DbError::Execution("query() requires a SELECT".into()));
        };
        let tables = self.db.inner.tables.read();
        let (plan, rows) = bind_select(&stmt, &tables)?;
        let rows = plan.execute(&rows)?;
        Ok(ResultSet {
            columns: plan.into_columns(),
            rows,
        })
    }

    /// Execute a SELECT as a pull-based cursor: rows are produced in
    /// batches as the caller asks for them, so a consumer that drains
    /// slowly (a streamed SOAP response waiting on its socket) never forces
    /// the whole result set into memory at once.
    ///
    /// Plain single-table scans (projection plus optional WHERE/LIMIT)
    /// evaluate lazily, re-acquiring the table read lock per batch between
    /// the caller's pulls. Anything needing the full input first — joins,
    /// aggregates, GROUP BY, ORDER BY, DISTINCT — falls back to a
    /// materialized cursor over the ordinary [`Connection::query`] output.
    pub fn query_cursor(&self, sql: &str) -> Result<RowCursor> {
        self.db.apply_query_latency()?;
        let Statement::Select(stmt) = parse_statement(sql)? else {
            return Err(DbError::Execution(
                "query_cursor() requires a SELECT".into(),
            ));
        };
        let tables = self.db.inner.tables.read();
        let (plan, rows) = bind_select(&stmt, &tables)?;
        let columns = plan.columns().to_vec();
        let inner = if plan.is_streamable() {
            CursorInner::Lazy(Box::new(LazyScan {
                db: self.db.clone(),
                schema: tables[&stmt.from[0].table].schema.clone(),
                remaining: plan.limit(),
                stmt,
                plan,
                pos: 0,
            }))
        } else {
            CursorInner::Materialized {
                rows: plan.execute(&rows)?.into_iter(),
            }
        };
        Ok(RowCursor { columns, inner })
    }
}

/// Look up the FROM tables of `stmt` and bind it to their schemas.
fn bind_select<'t>(
    stmt: &SelectStmt,
    tables: &'t HashMap<String, Table>,
) -> Result<(Plan, Vec<&'t TableRows>)> {
    let mut schemas = Vec::with_capacity(stmt.from.len());
    let mut rows = Vec::with_capacity(stmt.from.len());
    for tref in &stmt.from {
        let table = tables
            .get(&tref.table)
            .ok_or_else(|| DbError::UnknownTable(tref.table.clone()))?;
        schemas.push(&table.schema);
        rows.push(table.rows.as_slice());
    }
    Ok((Plan::bind(stmt, &schemas)?, rows))
}

/// A pull-based SELECT result: the consumer drives production batch by
/// batch (see [`Connection::query_cursor`]).
pub struct RowCursor {
    columns: Vec<String>,
    inner: CursorInner,
}

enum CursorInner {
    /// Pre-computed output drained in batches (join/aggregate fallback).
    Materialized {
        rows: std::vec::IntoIter<Vec<DbValue>>,
    },
    Lazy(Box<LazyScan>),
}

/// Lazy single-table scan.
struct LazyScan {
    db: Database,
    stmt: SelectStmt,
    /// `stmt` bound to `schema`, the table's schema when last looked at.
    plan: Plan,
    schema: TableSchema,
    /// The next base-table row index.
    pos: usize,
    /// LIMIT rows still allowed out (None = unlimited).
    remaining: Option<usize>,
}

impl RowCursor {
    /// Output column labels.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Produce up to `max` more rows. An empty batch means the cursor is
    /// exhausted. A lazy cursor scans the base table under a freshly
    /// acquired read lock each call, checking the scoped call context as it
    /// goes — an expired caller gets [`DbError::Interrupted`] at the next
    /// batch instead of a fully materialized answer it no longer wants.
    pub fn next_batch(&mut self, max: usize) -> Result<Vec<Vec<DbValue>>> {
        if max == 0 {
            return Ok(Vec::new());
        }
        match &mut self.inner {
            CursorInner::Materialized { rows } => {
                if ppg_context::current_expired() {
                    return Err(DbError::Interrupted);
                }
                Ok(rows.by_ref().take(max).collect())
            }
            CursorInner::Lazy(scan) => {
                let LazyScan {
                    db,
                    stmt,
                    plan,
                    schema,
                    pos,
                    remaining,
                } = &mut **scan;
                if ppg_context::current_expired() {
                    return Err(DbError::Interrupted);
                }
                let tables = db.inner.tables.read();
                // The table may have been dropped between batches — or
                // dropped and created again with other columns, in which
                // case the statement is bound afresh (and may no longer bind).
                let table = tables
                    .get(&stmt.from[0].table)
                    .ok_or_else(|| DbError::UnknownTable(stmt.from[0].table.clone()))?;
                if table.schema != *schema {
                    *plan = Plan::bind(stmt, &[&table.schema])?;
                    *schema = table.schema.clone();
                }
                let want = remaining.map_or(max, |r| r.min(max));
                let batch = plan.scan_batch(&table.rows, pos, want)?;
                if let Some(r) = remaining {
                    *r -= batch.len();
                }
                Ok(batch)
            }
        }
    }
}

/// A materialized query result with typed accessors.
#[derive(Debug, Clone)]
pub struct ResultSet {
    columns: Vec<String>,
    rows: Vec<Vec<DbValue>>,
}

impl ResultSet {
    /// Output column labels.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<DbValue>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of an output column by (case-insensitive) label, for
    /// indexing [`ResultSet::rows`] in a loop without a label search per cell.
    pub fn column_index(&self, column: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(column))
            .ok_or_else(|| DbError::UnknownColumn(column.to_owned()))
    }

    /// Cell by row index and column label.
    pub fn get(&self, row: usize, column: &str) -> Result<&DbValue> {
        let col = self.column_index(column)?;
        self.rows
            .get(row)
            .map(|r| &r[col])
            .ok_or_else(|| DbError::Execution(format!("row {row} out of range")))
    }

    /// Text cell (errors if the value is not text).
    pub fn get_str(&self, row: usize, column: &str) -> Result<&str> {
        self.get(row, column)?
            .as_text()
            .ok_or_else(|| DbError::TypeError(format!("{column} is not text")))
    }

    /// Integer cell.
    pub fn get_i64(&self, row: usize, column: &str) -> Result<i64> {
        self.get(row, column)?
            .as_int()
            .ok_or_else(|| DbError::TypeError(format!("{column} is not an integer")))
    }

    /// Numeric cell as f64 (Int widens).
    pub fn get_f64(&self, row: usize, column: &str) -> Result<f64> {
        self.get(row, column)?
            .as_f64()
            .ok_or_else(|| DbError::TypeError(format!("{column} is not numeric")))
    }
}
