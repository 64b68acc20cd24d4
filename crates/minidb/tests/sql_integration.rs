//! SQL engine integration tests: the query shapes PPerfGrid's wrappers
//! actually issue, plus general correctness of the subset.

use pperf_minidb::{Database, DbError, DbValue};

fn fixture() -> Database {
    let db = Database::new();
    let c = db.connect();
    c.execute("CREATE TABLE runs (id INT, numprocs INT, gflops DOUBLE, host TEXT)")
        .unwrap();
    c.execute("INSERT INTO runs VALUES (100, 2, 1.5, 'alpha')")
        .unwrap();
    c.execute("INSERT INTO runs VALUES (101, 4, 2.75, 'alpha')")
        .unwrap();
    c.execute("INSERT INTO runs VALUES (102, 4, 3.5, 'beta')")
        .unwrap();
    c.execute("INSERT INTO runs VALUES (103, 8, NULL, 'beta')")
        .unwrap();
    db
}

#[test]
fn basic_projection_and_filter() {
    let db = fixture();
    let c = db.connect();
    let rs = c
        .query("SELECT id, host FROM runs WHERE numprocs = 4 ORDER BY id")
        .unwrap();
    assert_eq!(rs.columns(), ["id", "host"]);
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.get_i64(0, "id").unwrap(), 101);
    assert_eq!(rs.get_str(1, "host").unwrap(), "beta");
}

#[test]
fn wildcard_projection() {
    let db = fixture();
    let rs = db
        .connect()
        .query("SELECT * FROM runs WHERE id = 100")
        .unwrap();
    assert_eq!(rs.columns(), ["id", "numprocs", "gflops", "host"]);
    assert_eq!(rs.get_f64(0, "gflops").unwrap(), 1.5);
}

#[test]
fn distinct_values() {
    let db = fixture();
    let rs = db
        .connect()
        .query("SELECT DISTINCT numprocs FROM runs ORDER BY numprocs")
        .unwrap();
    let vals: Vec<i64> = (0..rs.len())
        .map(|i| rs.get_i64(i, "numprocs").unwrap())
        .collect();
    assert_eq!(vals, [2, 4, 8]);
}

#[test]
fn or_and_precedence() {
    let db = fixture();
    // AND binds tighter than OR: id=100 OR (numprocs=4 AND host='beta')
    let rs = db
        .connect()
        .query("SELECT id FROM runs WHERE id = 100 OR numprocs = 4 AND host = 'beta' ORDER BY id")
        .unwrap();
    let ids: Vec<i64> = (0..rs.len())
        .map(|i| rs.get_i64(i, "id").unwrap())
        .collect();
    assert_eq!(ids, [100, 102]);
}

#[test]
fn null_semantics() {
    let db = fixture();
    let c = db.connect();
    // NULL never matches comparisons.
    assert_eq!(
        c.query("SELECT id FROM runs WHERE gflops > 0")
            .unwrap()
            .len(),
        3
    );
    assert_eq!(
        c.query("SELECT id FROM runs WHERE gflops = NULL")
            .unwrap()
            .len(),
        0
    );
    assert_eq!(
        c.query("SELECT id FROM runs WHERE NOT gflops > 0")
            .unwrap()
            .len(),
        0
    );
    // IS NULL does.
    let rs = c.query("SELECT id FROM runs WHERE gflops IS NULL").unwrap();
    assert_eq!(rs.get_i64(0, "id").unwrap(), 103);
    assert_eq!(
        c.query("SELECT id FROM runs WHERE gflops IS NOT NULL")
            .unwrap()
            .len(),
        3
    );
}

#[test]
fn like_patterns() {
    let db = fixture();
    let c = db.connect();
    assert_eq!(
        c.query("SELECT id FROM runs WHERE host LIKE 'al%'")
            .unwrap()
            .len(),
        2
    );
    assert_eq!(
        c.query("SELECT id FROM runs WHERE host LIKE '%eta'")
            .unwrap()
            .len(),
        2
    );
    assert_eq!(
        c.query("SELECT id FROM runs WHERE host LIKE '_lpha'")
            .unwrap()
            .len(),
        2
    );
    assert_eq!(
        c.query("SELECT id FROM runs WHERE host LIKE 'gamma'")
            .unwrap()
            .len(),
        0
    );
}

#[test]
fn aggregates_whole_table() {
    let db = fixture();
    let c = db.connect();
    let rs = c
        .query("SELECT COUNT(*) AS n, COUNT(gflops) AS ng, SUM(numprocs) AS s, AVG(gflops) AS a, MIN(id) AS lo, MAX(id) AS hi FROM runs")
        .unwrap();
    assert_eq!(rs.get_i64(0, "n").unwrap(), 4);
    assert_eq!(rs.get_i64(0, "ng").unwrap(), 3, "COUNT(col) skips NULLs");
    assert_eq!(rs.get_i64(0, "s").unwrap(), 18);
    assert!((rs.get_f64(0, "a").unwrap() - (1.5 + 2.75 + 3.5) / 3.0).abs() < 1e-12);
    assert_eq!(rs.get_i64(0, "lo").unwrap(), 100);
    assert_eq!(rs.get_i64(0, "hi").unwrap(), 103);
}

#[test]
fn aggregates_empty_input() {
    let db = fixture();
    let c = db.connect();
    let rs = c
        .query("SELECT COUNT(*) AS n, SUM(gflops) AS s FROM runs WHERE id > 9999")
        .unwrap();
    assert_eq!(rs.get_i64(0, "n").unwrap(), 0);
    assert!(rs.get(0, "s").unwrap().is_null(), "SUM of empty is NULL");
}

#[test]
fn group_by_with_ordering() {
    let db = fixture();
    let c = db.connect();
    let rs = c
        .query(
            "SELECT host, COUNT(*) AS n, MAX(gflops) AS best FROM runs GROUP BY host ORDER BY host",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.get_str(0, "host").unwrap(), "alpha");
    assert_eq!(rs.get_i64(0, "n").unwrap(), 2);
    assert_eq!(rs.get_f64(0, "best").unwrap(), 2.75);
    assert_eq!(rs.get_str(1, "host").unwrap(), "beta");
    assert_eq!(rs.get_f64(1, "best").unwrap(), 3.5);
}

#[test]
fn order_by_desc_and_limit() {
    let db = fixture();
    let rs = db
        .connect()
        .query("SELECT id FROM runs ORDER BY id DESC LIMIT 2")
        .unwrap();
    let ids: Vec<i64> = (0..rs.len())
        .map(|i| rs.get_i64(i, "id").unwrap())
        .collect();
    assert_eq!(ids, [103, 102]);
}

#[test]
fn order_by_output_label() {
    let db = fixture();
    let rs = db
        .connect()
        .query("SELECT host, SUM(numprocs) AS total FROM runs GROUP BY host ORDER BY total DESC")
        .unwrap();
    assert_eq!(rs.get_str(0, "host").unwrap(), "beta"); // 8+4 = 12 > 6
}

#[test]
fn implicit_join_two_tables() {
    let db = fixture();
    let c = db.connect();
    c.execute("CREATE TABLE hosts (name TEXT, cpus INT)")
        .unwrap();
    c.execute("INSERT INTO hosts VALUES ('alpha', 16), ('beta', 32)")
        .unwrap();
    let rs = c
        .query(
            "SELECT runs.id, hosts.cpus FROM runs, hosts \
             WHERE runs.host = hosts.name AND hosts.cpus > 16 ORDER BY runs.id",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.get_i64(0, "id").unwrap(), 102);
    assert_eq!(rs.get_i64(0, "cpus").unwrap(), 32);
}

#[test]
fn join_with_aliases() {
    let db = fixture();
    let c = db.connect();
    c.execute("CREATE TABLE hosts (name TEXT, cpus INT)")
        .unwrap();
    c.execute("INSERT INTO hosts VALUES ('alpha', 16)").unwrap();
    let rs = c
        .query("SELECT r.id FROM runs r, hosts h WHERE r.host = h.name ORDER BY r.id")
        .unwrap();
    assert_eq!(rs.len(), 2);
}

#[test]
fn self_join_requires_qualification() {
    let db = fixture();
    let c = db.connect();
    // Ambiguous unqualified column across a self-join must error.
    let err = c
        .query("SELECT id FROM runs a, runs b WHERE a.id = b.id")
        .unwrap_err();
    assert!(matches!(err, DbError::UnknownColumn(_)), "{err}");
    // Qualified works.
    let rs = c
        .query("SELECT a.id FROM runs a, runs b WHERE a.id = b.id")
        .unwrap();
    assert_eq!(rs.len(), 4);
}

#[test]
fn three_table_join() {
    let db = Database::new();
    let c = db.connect();
    c.execute("CREATE TABLE a (x INT)").unwrap();
    c.execute("CREATE TABLE b (x INT, y INT)").unwrap();
    c.execute("CREATE TABLE d (y INT, label TEXT)").unwrap();
    c.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
    c.execute("INSERT INTO b VALUES (1, 10), (2, 20), (9, 90)")
        .unwrap();
    c.execute("INSERT INTO d VALUES (10, 'ten'), (20, 'twenty')")
        .unwrap();
    let rs = c
        .query(
            "SELECT a.x, d.label FROM a, b, d \
             WHERE a.x = b.x AND b.y = d.y ORDER BY a.x",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.get_str(0, "label").unwrap(), "ten");
    assert_eq!(rs.get_str(1, "label").unwrap(), "twenty");
}

#[test]
fn delete_with_and_without_predicate() {
    let db = fixture();
    let c = db.connect();
    assert_eq!(c.execute("DELETE FROM runs WHERE numprocs = 4").unwrap(), 2);
    assert_eq!(db.row_count("runs"), Some(2));
    assert_eq!(c.execute("DELETE FROM runs").unwrap(), 2);
    assert_eq!(db.row_count("runs"), Some(0));
}

#[test]
fn drop_table() {
    let db = fixture();
    let c = db.connect();
    c.execute("DROP TABLE runs").unwrap();
    assert!(db.table_names().is_empty());
    assert!(matches!(
        c.query("SELECT * FROM runs"),
        Err(DbError::UnknownTable(_))
    ));
    assert!(matches!(
        c.execute("DROP TABLE runs"),
        Err(DbError::UnknownTable(_))
    ));
}

#[test]
fn insert_with_column_list_fills_nulls() {
    let db = fixture();
    let c = db.connect();
    c.execute("INSERT INTO runs (id, host) VALUES (999, 'gamma')")
        .unwrap();
    let rs = c.query("SELECT * FROM runs WHERE id = 999").unwrap();
    assert!(rs.get(0, "gflops").unwrap().is_null());
    assert!(rs.get(0, "numprocs").unwrap().is_null());
}

#[test]
fn insert_type_checking() {
    let db = fixture();
    let c = db.connect();
    assert!(matches!(
        c.execute("INSERT INTO runs VALUES ('text', 1, 1.0, 'h')"),
        Err(DbError::BadInsert(_))
    ));
    assert!(matches!(
        c.execute("INSERT INTO runs VALUES (1, 2, 3.0)"),
        Err(DbError::BadInsert(_))
    ));
    // Int widens into DOUBLE columns.
    c.execute("INSERT INTO runs VALUES (200, 2, 7, 'h')")
        .unwrap();
    let rs = c.query("SELECT gflops FROM runs WHERE id = 200").unwrap();
    assert_eq!(rs.get_f64(0, "gflops").unwrap(), 7.0);
}

#[test]
fn duplicate_table_rejected() {
    let db = fixture();
    assert!(matches!(
        db.connect().execute("CREATE TABLE runs (x INT)"),
        Err(DbError::TableExists(_))
    ));
}

#[test]
fn bulk_insert_validates() {
    let db = fixture();
    assert_eq!(
        db.bulk_insert(
            "runs",
            vec![
                vec![
                    DbValue::Int(300),
                    DbValue::Int(2),
                    DbValue::Int(5),
                    DbValue::from("h")
                ],
                vec![
                    DbValue::Int(301),
                    DbValue::Int(2),
                    DbValue::Null,
                    DbValue::from("h")
                ],
            ],
        )
        .unwrap(),
        2
    );
    assert_eq!(db.row_count("runs"), Some(6));
    // Widened on the way in.
    let rs = db
        .connect()
        .query("SELECT gflops FROM runs WHERE id = 300")
        .unwrap();
    assert_eq!(rs.get_f64(0, "gflops").unwrap(), 5.0);
    assert!(db.bulk_insert("runs", vec![vec![DbValue::Int(1)]]).is_err());
    assert!(db.bulk_insert("nope", vec![]).is_err());
}

#[test]
fn concurrent_readers() {
    let db = fixture();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let db = db.clone();
            scope.spawn(move || {
                let c = db.connect();
                for _ in 0..50 {
                    let rs = c.query("SELECT COUNT(*) AS n FROM runs").unwrap();
                    assert_eq!(rs.get_i64(0, "n").unwrap(), 4);
                }
            });
        }
    });
}

#[test]
fn concurrent_writer_and_readers() {
    let db = Database::new();
    db.connect().execute("CREATE TABLE t (x INT)").unwrap();
    std::thread::scope(|scope| {
        let writer_db = db.clone();
        scope.spawn(move || {
            let c = writer_db.connect();
            for i in 0..200 {
                c.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            }
        });
        for _ in 0..4 {
            let db = db.clone();
            scope.spawn(move || {
                let c = db.connect();
                let mut last = 0;
                for _ in 0..50 {
                    let n = c
                        .query("SELECT COUNT(*) AS n FROM t")
                        .unwrap()
                        .get_i64(0, "n")
                        .unwrap();
                    assert!(n >= last, "row count must be monotonic");
                    last = n;
                }
            });
        }
    });
    assert_eq!(db.row_count("t"), Some(200));
}

#[test]
fn unknown_column_reported() {
    let db = fixture();
    assert!(matches!(
        db.connect().query("SELECT missing FROM runs"),
        Err(DbError::UnknownColumn(_))
    ));
    assert!(matches!(
        db.connect().query("SELECT id FROM runs ORDER BY missing"),
        Err(DbError::UnknownColumn(_))
    ));
}

#[test]
fn select_via_execute_rejected_and_vice_versa() {
    let db = fixture();
    let c = db.connect();
    assert!(c.execute("SELECT * FROM runs").is_err());
    assert!(c.query("DELETE FROM runs").is_err());
}

#[test]
fn arithmetic_in_projection() {
    let db = fixture();
    let c = db.connect();
    let rs = c
        .query("SELECT id, gflops * 2.0 AS doubled, id + 1 AS next FROM runs WHERE id = 101")
        .unwrap();
    assert_eq!(rs.get_f64(0, "doubled").unwrap(), 5.5);
    assert_eq!(rs.get_i64(0, "next").unwrap(), 102);
}

#[test]
fn arithmetic_in_where_and_precedence() {
    let db = fixture();
    let c = db.connect();
    // 2 + 2 * 3 = 8, so id > 100 - 1 + 8 = id > 107 matches nothing...
    let rs = c
        .query("SELECT id FROM runs WHERE id - 100 = 2 + 2 * 0")
        .unwrap();
    assert_eq!(rs.get_i64(0, "id").unwrap(), 102);
    // Parentheses override precedence.
    let rs = c
        .query("SELECT (2 + 2) * 3 AS v FROM runs LIMIT 1")
        .unwrap();
    assert_eq!(rs.get_i64(0, "v").unwrap(), 12);
}

#[test]
fn aggregate_over_arithmetic_expression() {
    let db = Database::new();
    let c = db.connect();
    c.execute("CREATE TABLE ev (s DOUBLE, e DOUBLE)").unwrap();
    c.execute("INSERT INTO ev VALUES (1.0, 3.0), (2.0, 2.5), (0.0, 10.0)")
        .unwrap();
    let rs = c
        .query("SELECT SUM(e - s) AS total, MAX(e - s) AS longest FROM ev")
        .unwrap();
    assert!((rs.get_f64(0, "total").unwrap() - 12.5).abs() < 1e-12);
    assert!((rs.get_f64(0, "longest").unwrap() - 10.0).abs() < 1e-12);
}

#[test]
fn unary_minus_and_negative_literals() {
    let db = fixture();
    let c = db.connect();
    c.execute("INSERT INTO runs VALUES (-5, 1, -2.5, 'x')")
        .unwrap();
    let rs = c
        .query("SELECT id, gflops FROM runs WHERE id = -5")
        .unwrap();
    assert_eq!(rs.get_i64(0, "id").unwrap(), -5);
    assert_eq!(rs.get_f64(0, "gflops").unwrap(), -2.5);
    let rs = c
        .query("SELECT -id AS pos FROM runs WHERE id = -5")
        .unwrap();
    assert_eq!(rs.get_i64(0, "pos").unwrap(), 5);
    let rs = c
        .query("SELECT - -id AS same FROM runs WHERE id = -5")
        .unwrap();
    assert_eq!(rs.get_i64(0, "same").unwrap(), -5);
}

#[test]
fn arithmetic_null_propagation_and_errors() {
    let db = fixture();
    let c = db.connect();
    // gflops is NULL for id 103: arithmetic yields NULL, filters drop it.
    let rs = c
        .query("SELECT gflops + 1 AS g1 FROM runs WHERE id = 103")
        .unwrap();
    assert!(rs.get(0, "g1").unwrap().is_null());
    assert_eq!(
        c.query("SELECT id FROM runs WHERE gflops + 1 > 0")
            .unwrap()
            .len(),
        3
    );
    // Division by integer zero is an error; text arithmetic is an error.
    assert!(c.query("SELECT id / 0 FROM runs").is_err());
    assert!(c.query("SELECT host + 1 FROM runs").is_err());
    // Int division truncates; mixed widens.
    let rs = c
        .query("SELECT 7 / 2 AS i, 7 / 2.0 AS d FROM runs LIMIT 1")
        .unwrap();
    assert_eq!(rs.get_i64(0, "i").unwrap(), 3);
    assert_eq!(rs.get_f64(0, "d").unwrap(), 3.5);
}

#[test]
fn order_by_arithmetic_expression() {
    let db = fixture();
    let rs = db
        .connect()
        .query("SELECT id FROM runs WHERE gflops IS NOT NULL ORDER BY 0 - gflops")
        .unwrap();
    // Descending by gflops: 102 (3.5), 101 (2.75), 100 (1.5).
    let ids: Vec<i64> = (0..rs.len())
        .map(|i| rs.get_i64(i, "id").unwrap())
        .collect();
    assert_eq!(ids, [102, 101, 100]);
}

#[test]
fn int_overflow_widens_to_double() {
    let db = fixture();
    let c = db.connect();
    let big = i64::MAX;
    let rs = c
        .query(&format!("SELECT {big} + {big} AS v FROM runs LIMIT 1"))
        .unwrap();
    assert!(rs.get_f64(0, "v").unwrap() > 1e18);
}

#[test]
fn in_list_membership() {
    let db = fixture();
    let c = db.connect();
    let rs = c
        .query("SELECT id FROM runs WHERE id IN (100, 102, 999) ORDER BY id")
        .unwrap();
    let ids: Vec<i64> = (0..rs.len())
        .map(|i| rs.get_i64(i, "id").unwrap())
        .collect();
    assert_eq!(ids, [100, 102]);

    // Int/Double coercion follows sql_eq: numprocs IN (4.0) matches INT 4.
    let rs = c
        .query("SELECT id FROM runs WHERE numprocs IN (4.0) ORDER BY id")
        .unwrap();
    assert_eq!(rs.len(), 2);

    // Text membership.
    let rs = c
        .query("SELECT DISTINCT host FROM runs WHERE host IN ('beta', 'gamma')")
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.get_str(0, "host").unwrap(), "beta");
}

#[test]
fn in_list_null_semantics() {
    let db = fixture();
    let c = db.connect();
    // NULL operand: gflops is NULL for id 103 -> Unknown -> filtered out.
    let rs = c
        .query("SELECT id FROM runs WHERE gflops IN (1.5, 3.5) ORDER BY id")
        .unwrap();
    let ids: Vec<i64> = (0..rs.len())
        .map(|i| rs.get_i64(i, "id").unwrap())
        .collect();
    assert_eq!(ids, [100, 102]);

    // NOT IN with a NULL in the list is never TRUE (match -> FALSE,
    // no match -> Unknown): standard SQL's classic empty result.
    let rs = c
        .query("SELECT id FROM runs WHERE id NOT IN (100, NULL)")
        .unwrap();
    assert!(rs.is_empty());

    // NOT IN without NULLs excludes exactly the listed ids.
    let rs = c
        .query("SELECT id FROM runs WHERE id NOT IN (100, 101) ORDER BY id")
        .unwrap();
    let ids: Vec<i64> = (0..rs.len())
        .map(|i| rs.get_i64(i, "id").unwrap())
        .collect();
    assert_eq!(ids, [102, 103]);
}

#[test]
fn in_list_with_conjuncts_and_group_by() {
    // The bulk-wrapper shape: IN-list + extra conjunct + GROUP BY.
    let db = fixture();
    let c = db.connect();
    let rs = c
        .query(
            "SELECT numprocs, COUNT(*) AS n FROM runs \
             WHERE id IN (101, 102, 103) AND numprocs > 2 \
             GROUP BY numprocs ORDER BY numprocs",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.get_i64(0, "numprocs").unwrap(), 4);
    assert_eq!(rs.get_i64(0, "n").unwrap(), 2);
    assert_eq!(rs.get_i64(1, "numprocs").unwrap(), 8);
    assert_eq!(rs.get_i64(1, "n").unwrap(), 1);
}

#[test]
fn cursor_lazy_scan_batches() {
    let db = fixture();
    let c = db.connect();
    let mut cur = c
        .query_cursor("SELECT id, host FROM runs WHERE numprocs >= 4")
        .unwrap();
    assert_eq!(cur.columns(), ["id", "host"]);
    // Pull in batches of 2: three matching rows arrive as 2 + 1 + empty.
    let b1 = cur.next_batch(2).unwrap();
    assert_eq!(b1.len(), 2);
    assert_eq!(b1[0][0], DbValue::Int(101));
    let b2 = cur.next_batch(2).unwrap();
    assert_eq!(b2.len(), 1);
    assert_eq!(b2[0][0], DbValue::Int(103));
    assert!(cur.next_batch(2).unwrap().is_empty());
    assert!(
        cur.next_batch(2).unwrap().is_empty(),
        "exhausted stays empty"
    );
}

#[test]
fn cursor_lazy_respects_limit_and_wildcard() {
    let db = fixture();
    let c = db.connect();
    let mut cur = c.query_cursor("SELECT * FROM runs LIMIT 3").unwrap();
    assert_eq!(cur.columns(), ["id", "numprocs", "gflops", "host"]);
    let mut total = 0;
    loop {
        let batch = cur.next_batch(2).unwrap();
        if batch.is_empty() {
            break;
        }
        for row in &batch {
            assert_eq!(row.len(), 4);
        }
        total += batch.len();
    }
    assert_eq!(total, 3, "LIMIT bounds the lazy cursor");
}

#[test]
fn cursor_materialized_fallback_for_aggregates() {
    let db = fixture();
    let c = db.connect();
    // GROUP BY needs the whole input: the cursor falls back to a
    // materialized result but still drains batch-wise.
    let mut cur = c
        .query_cursor(
            "SELECT numprocs, COUNT(*) AS n FROM runs GROUP BY numprocs ORDER BY numprocs",
        )
        .unwrap();
    assert_eq!(cur.columns(), ["numprocs", "n"]);
    let batch = cur.next_batch(10).unwrap();
    assert_eq!(batch.len(), 3);
    assert_eq!(batch[0][0], DbValue::Int(2));
    assert!(cur.next_batch(10).unwrap().is_empty());
}

#[test]
fn cursor_survives_concurrent_appends_and_drop() {
    let db = fixture();
    let c = db.connect();
    let mut cur = c.query_cursor("SELECT id FROM runs").unwrap();
    assert_eq!(cur.next_batch(2).unwrap().len(), 2);
    // Rows appended mid-scan are visible to later batches (the cursor
    // tracks a position, not a snapshot).
    c.execute("INSERT INTO runs VALUES (104, 16, 9.0, 'gamma')")
        .unwrap();
    let rest: usize = std::iter::from_fn(|| {
        let b = cur.next_batch(2).unwrap();
        (!b.is_empty()).then_some(b.len())
    })
    .sum();
    assert_eq!(rest, 3);
    // Dropping the table mid-scan surfaces as an error on the next pull.
    let mut cur = c.query_cursor("SELECT id FROM runs").unwrap();
    assert_eq!(cur.next_batch(1).unwrap().len(), 1);
    c.execute("DROP TABLE runs").unwrap();
    assert!(matches!(cur.next_batch(1), Err(DbError::UnknownTable(_))));
}

// ---------------------------------------------------------------------------
// Bound plans: bind-time errors, value-keyed groups, exact sums, total ORDER
// BY, cancellation in every phase of the pipeline.
// ---------------------------------------------------------------------------

#[test]
fn unknown_column_reported_even_when_no_row_reaches_it() {
    let db = Database::new();
    let c = db.connect();
    c.execute("CREATE TABLE empty_t (x INT)").unwrap();
    for sql in [
        "SELECT missing FROM empty_t",
        "SELECT x FROM empty_t WHERE missing = 1",
        "SELECT x FROM empty_t WHERE empty_t.missing = 1",
        "SELECT x FROM empty_t WHERE nosuch.x = 1",
        "SELECT COUNT(*) FROM empty_t GROUP BY missing",
        "SELECT SUM(missing) FROM empty_t",
        "SELECT x FROM empty_t ORDER BY missing",
    ] {
        assert!(
            matches!(c.query(sql), Err(DbError::UnknownColumn(_))),
            "{sql}: {:?}",
            c.query(sql)
        );
        assert!(
            matches!(c.query_cursor(sql), Err(DbError::UnknownColumn(_))),
            "{sql} (cursor)"
        );
    }
    assert!(matches!(
        c.execute("DELETE FROM empty_t WHERE missing = 1"),
        Err(DbError::UnknownColumn(_))
    ));
    // A filter that lets nothing through does not hide the name either.
    let db = fixture();
    assert!(matches!(
        db.connect()
            .query("SELECT id FROM runs WHERE id > 9999 AND missing = 1"),
        Err(DbError::UnknownColumn(_))
    ));
    // `SELECT *` beside aggregates is refused whatever the table holds.
    assert!(matches!(
        c.query("SELECT *, COUNT(*) FROM empty_t GROUP BY x"),
        Err(DbError::Execution(_))
    ));
}

#[test]
fn ambiguous_unqualified_column_in_a_join_is_a_bind_error() {
    let db = fixture();
    let c = db.connect();
    c.execute("CREATE TABLE hosts (host TEXT, cpus INT)")
        .unwrap();
    // `host` is in both tables; no row of `hosts` exists to evaluate it on.
    let err = c
        .query("SELECT cpus FROM runs, hosts WHERE host = 'alpha'")
        .unwrap_err();
    assert!(
        matches!(&err, DbError::UnknownColumn(m) if m.contains("ambiguous")),
        "{err}"
    );
    // ORDER BY keeps its fallback to output labels: `id` is ambiguous as a
    // source column but names the one output column.
    let rs = c
        .query("SELECT a.id AS id FROM runs a, runs b WHERE a.id = b.id ORDER BY id DESC")
        .unwrap();
    assert_eq!(rs.get_i64(0, "id").unwrap(), 103);
}

#[test]
fn integer_sum_is_exact_and_widens_only_on_overflow() {
    let db = Database::new();
    let c = db.connect();
    c.execute("CREATE TABLE xfer (bytes INT)").unwrap();
    let big = 1i64 << 60;
    // 2^60 + 1 and 2^60 + 2 are not representable in an f64 (53-bit
    // mantissa): summing through one used to drop the low bits.
    c.execute(&format!(
        "INSERT INTO xfer VALUES ({}), ({}), ({})",
        big + 1,
        big + 2,
        -big
    ))
    .unwrap();
    let rs = c.query("SELECT SUM(bytes) AS s FROM xfer").unwrap();
    assert_eq!(rs.get(0, "s").unwrap(), &DbValue::Int(big + 3));
    // Past i64 the sum widens to a Double instead of saturating silently.
    c.execute(&format!(
        "INSERT INTO xfer VALUES ({}), ({})",
        i64::MAX,
        i64::MAX
    ))
    .unwrap();
    let rs = c.query("SELECT SUM(bytes) AS s FROM xfer").unwrap();
    let s = rs.get(0, "s").unwrap();
    assert!(matches!(s, DbValue::Double(d) if *d > 1.8e19), "{s:?}");
}

#[test]
fn group_and_distinct_keys_are_values_not_rendered_text() {
    let db = Database::new();
    let c = db.connect();
    c.execute("CREATE TABLE g (a TEXT, b TEXT, n INT)").unwrap();
    c.execute(
        "INSERT INTO g VALUES \
         ('z', 'z', 1), (NULL, 'x', 2), ('NULL', 'x', 3), (NULL, 'x', 4), \
         ('p\u{1f}q', 'r', 5), ('p', 'q\u{1f}r', 6), ('z', 'z', 7)",
    )
    .unwrap();
    // NULL and the text 'NULL' are different groups; so are two tuples whose
    // rendered cells happen to concatenate alike. Groups come out in order of
    // first appearance.
    let rs = c
        .query("SELECT a, b, COUNT(*) AS n, SUM(n) AS s FROM g GROUP BY a, b")
        .unwrap();
    let got: Vec<(String, String, i64, i64)> = rs
        .rows()
        .iter()
        .map(|r| {
            (
                r[0].render(),
                r[1].render(),
                r[2].as_int().unwrap(),
                r[3].as_int().unwrap(),
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            ("z".into(), "z".into(), 2, 8),
            ("NULL".into(), "x".into(), 2, 6),
            ("NULL".into(), "x".into(), 1, 3),
            ("p\u{1f}q".into(), "r".into(), 1, 5),
            ("p".into(), "q\u{1f}r".into(), 1, 6),
        ]
    );
    assert!(rs.get(1, "a").unwrap().is_null());
    assert_eq!(rs.get_str(2, "a").unwrap(), "NULL");
    // DISTINCT keys the same way.
    assert_eq!(c.query("SELECT DISTINCT a, b FROM g").unwrap().len(), 5);
    assert_eq!(c.query("SELECT DISTINCT a FROM g").unwrap().len(), 5);
}

#[test]
fn min_max_ties_and_order_by_nan() {
    let db = Database::new();
    let c = db.connect();
    c.execute("CREATE TABLE d (i INT, x DOUBLE, y DOUBLE)")
        .unwrap();
    // 0.0 and -0.0 compare equal: MIN keeps the first, MAX the last.
    c.execute("INSERT INTO d VALUES (1, 0.0, 0.0), (2, -0.0, 0.0), (3, -1.0, 1.0)")
        .unwrap();
    let rs = c
        .query("SELECT MIN(x) AS lo, MAX(x) AS hi FROM d WHERE i < 3")
        .unwrap();
    assert_eq!(rs.get(0, "lo").unwrap().render(), "0.0");
    assert_eq!(rs.get(0, "hi").unwrap().render(), "-0.0");
    // x / y is NaN for rows 1-2. A comparison that calls NaN equal to
    // everything is not an order, and `sort_by` may panic on one; NaN sorts
    // after every number instead.
    for i in 4..40 {
        c.execute(&format!(
            "INSERT INTO d VALUES ({i}, {}.5, {}.0)",
            i % 7,
            i % 3
        ))
        .unwrap();
    }
    let rs = c
        .query("SELECT i, x / y AS q FROM d ORDER BY q, i")
        .unwrap();
    let q: Vec<f64> = rs.rows().iter().map(|r| r[1].as_f64().unwrap()).collect();
    let numbers = q.iter().take_while(|v| !v.is_nan()).count();
    assert!(q[..numbers].windows(2).all(|w| w[0] <= w[1]), "{q:?}");
    assert!(q[numbers..].iter().all(|v| v.is_nan()), "{q:?}");
    assert!(q.len() - numbers >= 2);
}

#[test]
fn like_pathological_pattern_returns() {
    let db = Database::new();
    let c = db.connect();
    c.execute("CREATE TABLE s (v TEXT)").unwrap();
    db.bulk_insert("s", vec![vec![DbValue::from("a".repeat(10_000))]])
        .unwrap();
    let started = std::time::Instant::now();
    let rs = c
        .query("SELECT COUNT(*) AS n FROM s WHERE v LIKE '%a%a%a%a%a%a%a%a%b'")
        .unwrap();
    assert_eq!(rs.get_i64(0, "n").unwrap(), 0);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "LIKE backtracked for {:?}",
        started.elapsed()
    );
}

#[test]
fn join_keys_follow_sql_equality() {
    let db = Database::new();
    let c = db.connect();
    c.execute("CREATE TABLE l (k INT, tag TEXT)").unwrap();
    c.execute("CREATE TABLE r (k DOUBLE, t TEXT)").unwrap();
    c.execute("INSERT INTO l VALUES (1, 'one'), (2, 'two'), (NULL, 'none'), (0, '1')")
        .unwrap();
    c.execute(
        "INSERT INTO r VALUES (1.0, '1'), (2.5, 'x'), (NULL, 'none'), (-0.0, 'zero'), (1.0, 'uno')",
    )
    .unwrap();
    // Int 1 = Double 1.0, 0 = -0.0, NULL matches nothing; matches come back
    // in the order a nested loop finds them.
    let rs = c
        .query("SELECT l.tag, r.t FROM l, r WHERE l.k = r.k")
        .unwrap();
    let pairs: Vec<(String, String)> = rs
        .rows()
        .iter()
        .map(|row| (row[0].render(), row[1].render()))
        .collect();
    assert_eq!(
        pairs,
        [
            ("one".into(), "1".into()),
            ("one".into(), "uno".into()),
            ("1".into(), "zero".into()),
        ]
    );
    // Text never equals a number, even when it spells one.
    assert_eq!(
        c.query("SELECT COUNT(*) AS n FROM l, r WHERE l.k = r.t")
            .unwrap()
            .get_i64(0, "n")
            .unwrap(),
        0
    );
    assert_eq!(
        c.query("SELECT COUNT(*) AS n FROM l, r WHERE l.tag = r.t")
            .unwrap()
            .get_i64(0, "n")
            .unwrap(),
        2,
        "'none' and '1'"
    );
}

#[test]
fn expired_context_interrupts_scan_build_and_probe() {
    let db = Database::new();
    let c = db.connect();
    c.execute("CREATE TABLE big (x INT)").unwrap();
    c.execute("CREATE TABLE nothing (x INT)").unwrap();
    c.execute("CREATE TABLE twenty (x INT)").unwrap();
    db.bulk_insert("big", (0..300).map(|i| vec![DbValue::Int(i)]).collect())
        .unwrap();
    db.bulk_insert("twenty", (0..20).map(|i| vec![DbValue::Int(i)]).collect())
        .unwrap();
    let ctx = ppg_context::CallContext::new();
    ctx.cancel();
    let _scope = ppg_context::scope(&ctx);
    // The context is polled every 256 rows, in whichever phase they pass.
    for (phase, sql) in [
        ("scan", "SELECT COUNT(*) FROM big"),
        // The first table is empty, so only the hash build over `big` runs.
        (
            "build",
            "SELECT COUNT(*) FROM nothing n, big b WHERE n.x = b.x",
        ),
        // 20 rows scanned + 20 listed, then 20 × 20 pairings probed.
        (
            "probe",
            "SELECT COUNT(*) FROM twenty a, twenty b WHERE a.x < b.x + 100",
        ),
    ] {
        assert_eq!(c.query(sql).unwrap_err(), DbError::Interrupted, "{phase}");
    }
    // Fewer than 256 rows in all: answered before the first poll.
    assert!(c.query("SELECT COUNT(*) FROM twenty").is_ok());
}

#[test]
fn cursor_follows_a_table_created_again_between_batches() {
    let db = fixture();
    let c = db.connect();
    let mut cur = c.query_cursor("SELECT id, host FROM runs").unwrap();
    assert_eq!(cur.next_batch(1).unwrap().len(), 1);
    // Same name, other column order: the statement is bound afresh and the
    // scan goes on at its position in the new table.
    c.execute("DROP TABLE runs").unwrap();
    c.execute("CREATE TABLE runs (host TEXT, id INT)").unwrap();
    c.execute("INSERT INTO runs VALUES ('a', 1), ('b', 2), ('c', 3)")
        .unwrap();
    let batch = cur.next_batch(10).unwrap();
    assert_eq!(
        batch,
        [
            vec![DbValue::Int(2), DbValue::from("b")],
            vec![DbValue::Int(3), DbValue::from("c")]
        ]
    );
    // Created again without a column the statement names: reported.
    let mut cur = c.query_cursor("SELECT id, host FROM runs").unwrap();
    assert_eq!(cur.next_batch(1).unwrap().len(), 1);
    c.execute("DROP TABLE runs").unwrap();
    c.execute("CREATE TABLE runs (id INT)").unwrap();
    c.execute("INSERT INTO runs VALUES (1), (2)").unwrap();
    assert!(matches!(cur.next_batch(1), Err(DbError::UnknownColumn(_))));
}

#[test]
fn column_index_resolves_labels_once() {
    let db = fixture();
    let rs = db
        .connect()
        .query("SELECT id, host AS h FROM runs ORDER BY id")
        .unwrap();
    let (id, h) = (
        rs.column_index("ID").unwrap(),
        rs.column_index("h").unwrap(),
    );
    assert_eq!((id, h), (0, 1));
    assert_eq!(rs.rows()[3][id], DbValue::Int(103));
    assert_eq!(rs.rows()[0][h].as_text(), Some("alpha"));
    assert!(matches!(
        rs.column_index("host"),
        Err(DbError::UnknownColumn(_))
    ));
}
