//! Concrete Mapping Layer wrappers for the thesis's data stores.
//!
//! Each wrapper translates PPerfGrid's uniform semantics (Tables 1–2) into
//! the native access method of one backend, exactly as §5.2 prescribes:
//! "a person wishing to publish Application data from a RDMS would implement
//! a PPerfGrid operation (getExecs) by writing SQL queries... the wrapper
//! may be implemented in C++, Python, or .NET and query an XML database
//! through an XQuery API or parse a text file using custom in-line code."

mod hpl_sql;
mod hpl_xml;
mod mem;
mod rma_sql;
mod rma_text;
mod smg_sql;

/// Typed reads of a result-set cell that a row loop addresses by position
/// (label resolved once with `ResultSet::column_index`), failing the way the
/// by-label accessors do.
mod cell {
    use crate::wrapper::WrapperError;
    use pperf_minidb::DbValue;

    pub fn int(v: &DbValue, column: &str) -> Result<i64, WrapperError> {
        v.as_int()
            .ok_or_else(|| WrapperError(format!("type error: {column} is not an integer")))
    }

    pub fn float(v: &DbValue, column: &str) -> Result<f64, WrapperError> {
        v.as_f64()
            .ok_or_else(|| WrapperError(format!("type error: {column} is not numeric")))
    }

    pub fn text<'v>(v: &'v DbValue, column: &str) -> Result<&'v str, WrapperError> {
        v.as_text()
            .ok_or_else(|| WrapperError(format!("type error: {column} is not text")))
    }
}

pub use hpl_sql::HplSqlWrapper;
pub use hpl_xml::HplXmlWrapper;
pub use mem::{MemApplicationWrapper, MemExecution};
pub use rma_sql::RmaSqlWrapper;
pub use rma_text::RmaTextWrapper;
pub use smg_sql::SmgSqlWrapper;
