//! Declared equality indexes: `CREATE INDEX ON t (c)`.
//!
//! An index maps each [`DbValue::sql_eq`] class of one column to the
//! positions of the rows holding it, in ascending order. The table keeps it
//! current: appended rows are added to it, and a DELETE, which moves rows,
//! rebuilds it. The first FROM table's scan walks a posting list instead of
//! every row when the plan allows it (see `JoinStep::indexed_candidates`).

use super::expr::sql_eq_bits;
use super::TableRows;
use crate::types::DbValue;
use std::collections::HashMap;

/// The equality indexes declared on one table.
#[derive(Default)]
pub(crate) struct Indexes(Vec<EqIndex>);

/// One indexed column: numbers keyed by [`sql_eq_bits`], text by itself;
/// NULL and NaN equal nothing and are left out.
struct EqIndex {
    col: usize,
    nums: HashMap<u64, Vec<usize>>,
    texts: HashMap<String, Vec<usize>>,
}

impl EqIndex {
    fn postings(&self, value: &DbValue) -> Option<&Vec<usize>> {
        match value {
            DbValue::Text(s) => self.texts.get(s.as_str()),
            number => self.nums.get(&number.as_f64().and_then(sql_eq_bits)?),
        }
    }

    /// Add `rows`, which start at table position `first`.
    fn add(&mut self, rows: &TableRows, first: usize) {
        for (i, row) in rows.iter().enumerate() {
            let postings = match &row[self.col] {
                DbValue::Text(s) => match self.texts.get_mut(s.as_str()) {
                    Some(postings) => postings,
                    None => self.texts.entry(s.clone()).or_default(),
                },
                number => match number.as_f64().and_then(sql_eq_bits) {
                    Some(bits) => self.nums.entry(bits).or_default(),
                    None => continue,
                },
            };
            postings.push(first + i);
        }
    }
}

impl Indexes {
    /// Declare an index on column `col`, built from `rows`. Returns false,
    /// changing nothing, when the column is indexed already.
    pub(crate) fn declare(&mut self, col: usize, rows: &TableRows) -> bool {
        if self.0.iter().any(|index| index.col == col) {
            return false;
        }
        let mut index = EqIndex {
            col,
            nums: HashMap::new(),
            texts: HashMap::new(),
        };
        index.add(rows, 0);
        self.0.push(index);
        true
    }

    /// Index `rows[first..]`, just appended to the table.
    pub(crate) fn appended(&mut self, rows: &TableRows, first: usize) {
        for index in &mut self.0 {
            index.add(&rows[first..], first);
        }
    }

    /// Index `rows` afresh, after rows moved.
    pub(crate) fn rebuild(&mut self, rows: &TableRows) {
        for index in &mut self.0 {
            index.nums.clear();
            index.texts.clear();
            index.add(rows, 0);
        }
    }

    /// The ascending positions of the rows whose column `col` is
    /// [`DbValue::sql_eq`] to `value`; `None` when `col` has no index.
    pub(super) fn postings(&self, col: usize, value: &DbValue) -> Option<&[usize]> {
        let index = self.0.iter().find(|index| index.col == col)?;
        Some(index.postings(value).map_or(&[], Vec::as_slice))
    }
}
