//! An embedded relational database with a SQL subset.
//!
//! PPerfGrid's test data stores lived in PostgreSQL 7.4 and were accessed via
//! JDBC SQL queries (thesis §6.1). This crate is the substitute substrate: an
//! in-process relational engine with
//!
//! * a catalog of typed tables ([`DbType`]: `INT`, `DOUBLE`, `TEXT`),
//! * a SQL subset — `CREATE TABLE`, `INSERT`, and `SELECT` with projection,
//!   `DISTINCT`, `WHERE` (comparisons, `AND`/`OR`/`NOT`, `LIKE`), implicit
//!   joins (`FROM a, b WHERE a.x = b.y`), aggregates (`COUNT`, `SUM`, `AVG`,
//!   `MIN`, `MAX`), `GROUP BY`, `ORDER BY ... [ASC|DESC]`, and `LIMIT`,
//! * a JDBC-like connection API ([`Database::connect`] →
//!   [`Connection::query`] / [`Connection::execute`]) returning typed
//!   [`ResultSet`]s.
//!
//! The engine is deliberately a scan-based executor with no indexes: the
//! thesis's Mapping Layer costs are dominated by full-table work on trace
//! data (SMG98's 250 MB store took ~66 s per query), and a scan executor
//! reproduces that cost profile honestly. Within a statement it does not
//! waste the scan: the SELECT is bound once (names to column slots, unknown
//! names rejected before a row is read), each table is filtered on its own,
//! `a.x = b.y` joins probe a hash table, and aggregates fold rows as they
//! leave the join.
//!
//! Concurrency: the database is `Send + Sync`; readers proceed in parallel
//! under a `parking_lot::RwLock` per database, writers serialize — the same
//! coarse model a single-node PostgreSQL presented to PPerfGrid's one-writer,
//! many-readers workload.
//!
//! # Example
//!
//! ```
//! use pperf_minidb::Database;
//!
//! let db = Database::new();
//! let conn = db.connect();
//! conn.execute("CREATE TABLE runs (id INT, gflops DOUBLE, host TEXT)").unwrap();
//! conn.execute("INSERT INTO runs VALUES (1, 42.5, 'alpha')").unwrap();
//! conn.execute("INSERT INTO runs VALUES (2, 17.0, 'beta')").unwrap();
//! let rs = conn.query("SELECT host FROM runs WHERE gflops > 20 ORDER BY id").unwrap();
//! assert_eq!(rs.rows().len(), 1);
//! assert_eq!(rs.get_str(0, "host").unwrap(), "alpha");
//! ```

mod db;
mod error;
mod executor;
mod schema;
pub mod sql;
mod types;

pub use db::{Connection, Database, ResultSet, RowCursor};
pub use error::{DbError, Result};
pub use schema::{Column, TableSchema};
pub use types::{DbType, DbValue};

/// Escape a string literal for inclusion in a SQL statement.
///
/// Doubles embedded single quotes, the standard SQL escape. Wrapper modules
/// use this when translating PPerfGrid queries into SQL.
pub fn sql_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes() {
        assert_eq!(sql_quote("plain"), "'plain'");
        assert_eq!(sql_quote("o'brien"), "'o''brien'");
        assert_eq!(sql_quote(""), "''");
    }

    #[test]
    fn quoted_value_roundtrips_through_parser() {
        let db = Database::new();
        let conn = db.connect();
        conn.execute("CREATE TABLE t (s TEXT)").unwrap();
        let tricky = "it's a 'test' -- really";
        conn.execute(&format!("INSERT INTO t VALUES ({})", sql_quote(tricky)))
            .unwrap();
        let rs = conn.query("SELECT s FROM t").unwrap();
        assert_eq!(rs.get_str(0, "s").unwrap(), tricky);
    }
}
