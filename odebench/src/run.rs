//! One measured phase: latencies per operation class, failures, oracle
//! violations, spans (traced phase) and per-class engine counts, plus the
//! metric assembly shared by the three workloads.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ode_core::{Database, TelemetrySnapshot};
use ode_obs::ServerSnapshot;
use ode_server::ServerHandle;
use ode_shell::{EvalResult, Session};
use ode_wire::client::{Client, RemoteLine, RetryPolicy};

use crate::common::{
    metric, pctl, peak_rss_mb, ratio, stored_bytes, ClassCounts, Counters, Lat, Metric,
    SetupFigures,
};
use crate::trace::Tracer;
use crate::Params;

/// Every how many statements of a class one is also sent through the
/// side calls (in-process session, analyzer, parsers) in the traced phase.
const SIDE_EVERY: u64 = 8;

/// A write that loses optimistic validation to a concurrent commit (here,
/// a trigger action) comes back `Unavailable`; the client resubmits it, as
/// the wire protocol intends. Nothing was applied, so a resubmit is safe.
const RESUBMIT: RetryPolicy = RetryPolicy {
    attempts: 8,
    base_delay: Duration::from_micros(200),
};

pub struct Run {
    pub tr: Tracer,
    pub lat: Lat,
    pub attempted: u64,
    pub failed: u64,
    /// Statements sent through the wire or a session (analyzer passes are
    /// counted against these).
    pub statements: u64,
    /// Write and insert ops (trigger condition evaluations are counted
    /// against these).
    pub writes: u64,
    pub wrong: Vec<String>,
    /// Take engine-counter deltas around ops (trace mode only).
    pub count_ops: bool,
    pub classes: HashMap<&'static str, ClassCounts>,
    pub wal_bytes: u64,
    pub wal_commits: u64,
    pub side_objects: u64,
    pub side_ns: u64,
    side_seq: HashMap<&'static str, u64>,
    pub seconds: f64,
    pub tel: TelemetrySnapshot,
    pub server: ServerSnapshot,
}

impl Run {
    pub fn new(traced: bool, count_ops: bool) -> Run {
        Run {
            tr: Tracer::new(traced),
            lat: Lat::default(),
            attempted: 0,
            failed: 0,
            statements: 0,
            writes: 0,
            wrong: Vec::new(),
            count_ops,
            classes: HashMap::new(),
            wal_bytes: 0,
            wal_commits: 0,
            side_objects: 0,
            side_ns: 0,
            side_seq: HashMap::new(),
            seconds: 0.0,
            tel: TelemetrySnapshot::default(),
            server: ServerSnapshot::default(),
        }
    }

    /// Record one oracle violation (kept short: the first few are printed).
    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        } else if self.wrong.len() == 20 {
            self.wrong.push("…".into());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("odebench: operation failed: {what}");
        }
    }

    /// Engine counters before an op, when this run takes per-op deltas.
    pub fn before(&self, db: &Database) -> Option<Counters> {
        self.count_ops.then(|| Counters::read(db))
    }

    /// Fold the counter delta since `before` into `class`; for writes,
    /// also the WAL growth per commit.
    pub fn after(
        &mut self,
        db: &Database,
        class: &'static str,
        before: Option<Counters>,
        rows: u64,
    ) {
        let Some(b) = before else { return };
        let now = Counters::read(db);
        let d = now.since(&b);
        self.classes.entry(class).or_default().absorb(&d, rows);
        if matches!(class, "write" | "insert" | "notify") {
            // A checkpoint inside the window truncates the WAL; such
            // windows say nothing about bytes per commit.
            if now.wal_bytes >= b.wal_bytes && d.storage.commits > 0 {
                self.wal_bytes += now.wal_bytes - b.wal_bytes;
                self.wal_commits += d.storage.commits;
            }
        }
    }

    /// Send one statement over the wire as op `class`; returns its output,
    /// or `None` when the server answered with an error (a failed op).
    pub fn wire(
        &mut self,
        client: &mut Client,
        class: &'static str,
        stmt: &str,
    ) -> Option<(String, Duration)> {
        self.attempted += 1;
        self.statements += 1;
        let op = self.tr.enter(class);
        let t = Instant::now();
        let r = self
            .tr
            .span("wire.line", |_| client.line_with_retry(stmt, RESUBMIT));
        let el = t.elapsed();
        self.tr.exit(op);
        match r {
            Ok(RemoteLine::Output(out)) => {
                self.lat.add(class, el);
                Some((out, el))
            }
            Ok(other) => {
                self.fail(format!("`{stmt}`: unexpected {other:?}"));
                None
            }
            Err(e) => {
                self.fail(format!("`{stmt}`: {e}"));
                None
            }
        }
    }

    /// Run one statement through an in-process session as op `class`.
    pub fn session(&mut self, s: &mut Session, class: &'static str, stmt: &str) -> Option<String> {
        self.attempted += 1;
        self.statements += 1;
        let op = self.tr.enter(class);
        let t = Instant::now();
        let r = self.tr.span("shell.eval", |_| s.eval_statement(stmt));
        let el = t.elapsed();
        self.tr.exit(op);
        match r {
            EvalResult::Output(out) => {
                self.lat.add(class, el);
                Some(out)
            }
            EvalResult::Error(e) => {
                self.fail(format!("`{stmt}`: {e}"));
                None
            }
            other => {
                self.fail(format!("`{stmt}`: unexpected {other:?}"));
                None
            }
        }
    }

    /// Record a failed op run through the Rust API.
    pub fn api_failed(&mut self, what: String) {
        self.fail(what);
    }

    /// In the traced phase, send every [`SIDE_EVERY`]th statement of
    /// `class` through each front-end layer on its own, so each layer's
    /// time is measured in isolation: the in-process session, the
    /// analyzer, the footprint pass, the statement parser, and the
    /// expression parser on `predicate`. With `count_class` set, also
    /// count the predicate over `count_class` through `Forall::count` on a
    /// snapshot (the query layer without the front end); a `probe` count
    /// is timed as an index probe.
    #[allow(clippy::too_many_arguments)]
    pub fn side_calls(
        &mut self,
        db: &Database,
        local: &mut Session,
        class: &'static str,
        stmt: &str,
        predicate: &str,
        count_class: Option<&str>,
        probe: bool,
    ) {
        if !self.tr.enabled() {
            return;
        }
        let seq = self.side_seq.entry(class).or_default();
        *seq += 1;
        if *seq % SIDE_EVERY != 1 {
            return;
        }
        let side = self.tr.enter("side");
        if !stmt.starts_with("update") {
            // Updates are left out: the side call would apply them twice.
            let _ = self
                .tr
                .span("side.shell.eval", |_| local.eval_statement(stmt));
        }
        let _ = self.tr.span("side.analyze", |_| db.analyze_statement(stmt));
        let _ = self
            .tr
            .span("side.footprint", |_| db.statement_footprint(stmt));
        if stmt.starts_with("forall") {
            let _ = self
                .tr
                .span("side.oql.parse", |_| ode_core::parse_query(stmt));
        }
        let _ = self
            .tr
            .span("side.parse_expr", |_| ode_model::parse_expr(predicate));
        if let Some(cluster) = count_class {
            let before = db.telemetry();
            let t = Instant::now();
            let name = if probe {
                "query.probe"
            } else {
                "side.query.count"
            };
            let n = self.tr.span(name, |_| {
                db.read(|rtx| rtx.forall(cluster)?.suchthat(predicate)?.count())
            });
            if !probe {
                self.side_ns += t.elapsed().as_nanos() as u64;
                self.side_objects += db.telemetry().delta(&before).query.objects_scanned;
            }
            if let Err(e) = n {
                self.wrong(format!("Forall::count `{predicate}` on {cluster}: {e}"));
            }
        }
        self.tr.exit(side);
    }
}

/// Run whole rounds until `seconds` have passed (or, in the quick mode,
/// exactly `min_rounds`), bracketing the phase with engine and server
/// counters. `round` returns `false` when the workload cannot make
/// another whole round (its armed items are used up).
fn phase(
    run: &mut Run,
    db: &Database,
    server: &ServerHandle,
    seconds: f64,
    quick: bool,
    mut round: impl FnMut(&mut Run) -> Result<bool, String>,
) -> Result<(), String> {
    let tel0 = db.telemetry();
    let srv0 = server.server_stats();
    let start = Instant::now();
    let mut rounds = 0u64;
    loop {
        if !round(run)? {
            eprintln!("odebench: stopped after {rounds} rounds: inputs for a whole round ran out");
            break;
        }
        rounds += 1;
        if quick {
            if rounds >= 2 {
                break;
            }
        } else if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    run.seconds = start.elapsed().as_secs_f64();
    run.tel = db.telemetry().delta(&tel0);
    run.server = server.server_stats().delta(&srv0);
    Ok(())
}

/// The untraced phase, and with `--trace 1` the traced phase after it, on
/// the same database and server.
pub fn phases(
    p: &Params,
    db: &Database,
    server: &ServerHandle,
    mut round: impl FnMut(&mut Run) -> Result<bool, String>,
) -> Result<(Run, Option<Run>), String> {
    let mut main = Run::new(false, p.trace);
    phase(&mut main, db, server, p.seconds, p.quick, &mut round)?;
    if !p.trace {
        return Ok((main, None));
    }
    let mut traced = Run::new(true, true);
    phase(&mut traced, db, server, p.seconds, p.quick, &mut round)?;
    Ok((main, Some(traced)))
}

/// Everything a workload measured, turned into metrics by [`metrics`].
pub struct Outcome {
    pub setup_s: f64,
    pub load_objects_per_s: f64,
    pub checkpoint_ms: f64,
    pub main: Run,
    pub traced: Option<Run>,
    pub push_ns: Vec<u64>,
    pub stored_bytes: u64,
    pub user_bytes: u64,
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Assemble what a workload measured, once its database in `dir` is
    /// closed (after its final checkpoint), and remove the directory.
    pub fn new(
        fig: SetupFigures,
        (mut main, traced): (Run, Option<Run>),
        wrong: Vec<String>,
        push_ns: Vec<u64>,
        dir: &Path,
        user_bytes: u64,
    ) -> Outcome {
        main.wrong.extend(wrong);
        let stored_bytes = stored_bytes(dir);
        let _ = std::fs::remove_dir_all(dir);
        Outcome {
            setup_s: fig.setup_s,
            load_objects_per_s: fig.load_objects_per_s,
            checkpoint_ms: fig.checkpoint_ms,
            main,
            traced,
            push_ns,
            stored_bytes,
            user_bytes,
            peak_rss_mb: peak_rss_mb(),
        }
    }

    pub fn correct(&self) -> bool {
        self.main.wrong.is_empty() && self.traced.as_ref().is_none_or(|t| t.wrong.is_empty())
    }

    pub fn wrong(&self) -> Vec<String> {
        let mut w = self.main.wrong.clone();
        if let Some(t) = &self.traced {
            w.extend(t.wrong.iter().cloned());
        }
        w
    }
}

/// The end-to-end metrics (untraced phase) and the per-layer metrics
/// (counts from the untraced phase, times from the traced one).
pub fn metrics(o: &mut Outcome) -> (Vec<Metric>, Vec<Metric>) {
    let m = &mut o.main;
    let ops_per_s = m.attempted as f64 / m.seconds.max(1e-9);
    let e2e = vec![
        metric("setup_s", o.setup_s, "s"),
        metric("ops_per_s", ops_per_s, "1/s"),
        metric("read_p50_us", m.lat.p("read", 0.5) / 1e3, "us"),
        metric("read_p99_us", m.lat.p("read", 0.99) / 1e3, "us"),
        metric("write_p50_us", m.lat.p("write", 0.5) / 1e3, "us"),
        metric("scan_p50_ms", m.lat.p("scan", 0.5) / 1e6, "ms"),
        metric("range_p50_ms", m.lat.p("range", 0.5) / 1e6, "ms"),
        metric("join_p50_ms", m.lat.p("join", 0.5) / 1e6, "ms"),
        metric("push_p50_ms", pctl(&mut o.push_ns, 0.5) / 1e6, "ms"),
        metric("peak_rss_mb", o.peak_rss_mb, "MB"),
        metric(
            "stored_bytes_per_user_byte",
            ratio(o.stored_bytes, o.user_bytes),
            "ratio",
        ),
    ];
    let Some(t) = &o.traced else {
        return (e2e, Vec::new());
    };
    let cls = |name: &str| m.classes.get(name);
    let per = |name: &str, f: fn(&ClassCounts) -> u64, by_rows: bool| {
        cls(name).map_or(0.0, |c| ratio(f(c), if by_rows { c.rows } else { c.ops }))
    };
    let tel = &m.tel;
    let srv = &m.server;
    let ttel = &t.tel;
    let tsrv = &t.server;
    let wire_line = {
        let d = t.tr.durations("wire.line");
        ratio(d.iter().sum(), d.len() as u64)
    };
    let commit_us = {
        let spans = t.tr.durations("txn.commit");
        if spans.is_empty() {
            ttel.txn.commit_latency.mean_ns() as f64 / 1e3
        } else {
            t.tr.p50_us("txn.commit")
        }
    };
    let hits = tel.storage.pager_hits;
    let misses = tel.storage.pager_misses;
    // The traced phase also makes the side calls; their time is taken
    // out, so the ratio is the cost of recording spans around the ops.
    let traced_op_seconds = t.seconds - t.tr.outer_ns("side") as f64 / 1e9;
    let traced_ops_per_s = t.attempted as f64 / traced_op_seconds.max(1e-9);
    let untraced_ops_per_s = m.attempted as f64 / m.seconds.max(1e-9);
    let layers = vec![
        metric(
            "wire.overhead_p50_us",
            (wire_line - tsrv.request_latency.mean_ns() as f64) / 1e3,
            "us",
        ),
        metric(
            "wire.bytes_per_request",
            ratio(srv.bytes_in + srv.bytes_out, srv.requests),
            "bytes",
        ),
        metric("shell.eval_p50_us", t.tr.p50_us("side.shell.eval"), "us"),
        metric(
            "analyze.passes_per_stmt",
            ratio(tel.analyze.passes, m.statements),
            "count",
        ),
        metric("analyze.p50_us", t.tr.p50_us("side.analyze"), "us"),
        metric(
            "analyze.footprint_p50_us",
            t.tr.p50_us("side.footprint"),
            "us",
        ),
        metric("oql.parse_p50_us", t.tr.p50_us("side.oql.parse"), "us"),
        metric(
            "model.parse_expr_p50_us",
            t.tr.p50_us("side.parse_expr"),
            "us",
        ),
        metric(
            "query.scan_p50_ms",
            t.tr.p50_us("side.query.count") / 1e3,
            "ms",
        ),
        metric(
            "query.objects_per_s",
            t.side_objects as f64 / (t.side_ns as f64 / 1e9).max(1e-9),
            "1/s",
        ),
        metric(
            "query.objects_scanned_per_row",
            per("range", |c| c.objects_scanned, true),
            "count",
        ),
        metric(
            "query.join_objects_scanned_per_row",
            per("join", |c| c.objects_scanned, true),
            "count",
        ),
        metric(
            "query.predicate_evals_per_op",
            per("scan", |c| c.predicate_evals, false),
            "count",
        ),
        metric(
            "query.overlay_clones_per_explode",
            per("join", |c| c.overlay_clones, false),
            "count",
        ),
        metric("query.probe_p50_us", t.tr.p50_us("query.probe"), "us"),
        metric("txn.commit_p50_us", commit_us, "us"),
        metric(
            "txn.conflicts_per_commit",
            ratio(tel.txn.conflicts, tel.txn.committed),
            "count",
        ),
        metric(
            "trigger.condition_evals_per_write",
            ratio(tel.triggers.condition_evals, m.writes),
            "count",
        ),
        metric(
            "storage.record_reads_per_op",
            ratio(tel.storage.record_reads, m.attempted),
            "count",
        ),
        metric(
            "storage.record_writes_per_commit",
            ratio(tel.storage.record_writes, tel.storage.commits),
            "count",
        ),
        metric(
            "storage.wal_bytes_per_commit",
            ratio(m.wal_bytes, m.wal_commits),
            "bytes",
        ),
        metric(
            "storage.pager_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric(
            "storage.pager_misses_per_scan",
            per("scan", |c| c.pager_misses, false),
            "count",
        ),
        metric("storage.checkpoint_ms", o.checkpoint_ms, "ms"),
        metric("storage.load_objects_per_s", o.load_objects_per_s, "1/s"),
        metric(
            "trace.overhead_ratio",
            untraced_ops_per_s / traced_ops_per_s.max(1e-9),
            "ratio",
        ),
    ];
    (e2e, layers)
}
