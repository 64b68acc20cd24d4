//! SQL abstract syntax.

use crate::types::{DbType, DbValue};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE, ...)`
    CreateTable {
        /// Table name (lowercased).
        name: String,
        /// `(column, type)` pairs.
        columns: Vec<(String, DbType)>,
    },
    /// `CREATE INDEX ON table (column)`: an equality index on one column.
    CreateIndex {
        /// Table name.
        table: String,
        /// The indexed column.
        column: String,
    },
    /// `INSERT INTO name [(cols)] VALUES (v, ...), (v, ...), ...`
    Insert {
        /// Table name.
        name: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// One or more value tuples.
        rows: Vec<Vec<DbValue>>,
    },
    /// `SELECT ...`
    Select(SelectStmt),
    /// `DROP TABLE name`
    DropTable {
        /// Table name.
        name: String,
    },
    /// `DELETE FROM name [WHERE expr]`
    Delete {
        /// Table name.
        name: String,
        /// Optional predicate; absent means delete all.
        predicate: Option<Expr>,
    },
}

/// A table reference in FROM, with optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias (defaults to the table name).
    pub alias: String,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// One item in the SELECT projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A plain expression with an output name.
    Expr {
        /// The expression.
        expr: Expr,
        /// Output column label (`AS` alias or derived).
        label: String,
    },
    /// `agg(expr)` or `COUNT(*)` (expr = None).
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Argument; `None` only for `COUNT(*)`.
        arg: Option<Expr>,
        /// Output column label.
        label: String,
    },
}

/// A sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Expression to sort by.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM tables (implicit cross join when more than one).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub predicate: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    Like,
    Add,
    Sub,
    Mul,
    Div,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(DbValue),
    /// Column reference, optionally table-qualified.
    Column {
        /// Qualifier (table alias), if written as `t.col`.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// Negated (`IS NOT NULL`)?
        negated: bool,
    },
    /// `expr [NOT] IN (literal, ...)` — the set-membership form bulk
    /// wrapper scans use to collapse N point lookups into one pass.
    InList {
        /// Operand.
        expr: Box<Expr>,
        /// The literal set.
        list: Vec<DbValue>,
        /// Negated (`NOT IN`)?
        negated: bool,
    },
}

impl Expr {
    /// A column reference without qualifier.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            table: None,
            name: name.to_ascii_lowercase(),
        }
    }

    /// A human-readable label for projection output.
    pub fn default_label(&self) -> String {
        match self {
            Expr::Column { name, .. } => name.clone(),
            Expr::Literal(v) => v.render(),
            _ => "expr".to_owned(),
        }
    }
}
