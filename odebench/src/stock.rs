//! `stock_wire`: the §2/§5/§6 stock items served by `ode-server`.
//!
//! Statements cost microseconds here, so the wire, session, analyzer,
//! parser, commit, trigger scheduler and push delivery do most of the
//! work; the query layer mostly answers index point probes. A second
//! connection subscribes to `quantity < reorder_level` and waits idle on a
//! second thread.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ode_core::prelude::{ClassBuilder, Database, Type, Value};
use ode_shell::Session;

use crate::common::{
    connect, field_int, field_str, interleave, ns, rows, serve, set_up, Rng, Subscriber, GOLDEN,
};
use crate::run::{phases, Outcome, Run};
use crate::Params;

/// Every restock adds this much; it exceeds every reorder level, so one
/// restock always lifts an item back above its level.
const RESTOCK: i64 = 1000;
/// Restocks are held back this long so the subscription check of the
/// notifying commit always reads the item while it is still low.
const RESTOCK_DELAY: Duration = Duration::from_millis(200);
const CITIES: i64 = 20;

struct Item {
    name: String,
    /// Quantity before any restock: every acknowledged decrement is
    /// subtracted, no restock is added. The stored quantity is this plus
    /// `RESTOCK` once the item has notified and been restocked.
    lb: i64,
    level: i64,
    supplier: i64,
    armed: bool,
    notified: bool,
}

struct Model {
    items: Vec<Item>,
    by_name: HashMap<String, usize>,
    /// `(sno, city)` per supplier.
    suppliers: Vec<(i64, i64)>,
    /// Armed items, in the seeded order notifying updates use them.
    armed_order: Vec<usize>,
    next_armed: usize,
    inserted: u64,
    /// Acknowledgment time of each notifying update, by item name.
    notify_acked: HashMap<String, Instant>,
}

impl Model {
    fn user_bytes(&self) -> u64 {
        let items: u64 = self.items.iter().map(|i| i.name.len() as u64 + 32).sum();
        items + self.suppliers.len() as u64 * (8 + 6 + 8)
    }
}

fn define(db: &Database) -> ode_core::Result<()> {
    db.define_class(
        ClassBuilder::new("supplier")
            .field("sno", Type::Int)
            .field("city", Type::Str)
            .field_default("rating", Type::Int, 0),
    )?;
    db.define_class(
        ClassBuilder::new("stockitem")
            .field("name", Type::Str)
            .field_default("quantity", Type::Int, 0)
            .field_default("reorder_level", Type::Int, 0)
            .field_default("supplier", Type::Int, 0)
            .field_default("price", Type::Float, 1.0)
            .constraint("quantity >= 0")
            .trigger("reorder", &["amount"], true, "quantity < reorder_level")
            .action_assign("quantity", "quantity + $amount"),
    )?;
    db.create_cluster("supplier")?;
    db.create_cluster("stockitem")?;
    db.create_index("stockitem", "name")?;
    db.create_index("supplier", "sno")?;
    Ok(())
}

fn city(c: i64) -> String {
    format!("city{c:02}")
}

fn load(db: &Database, p: &Params) -> Result<(Model, u64, f64), String> {
    let (n, n_sup) = if p.quick { (600, 20) } else { (50_000, 500) };
    let mut rng = Rng::new(p.seed, 1);
    define(db).map_err(|e| format!("schema: {e}"))?;
    let suppliers: Vec<(i64, i64)> = (0..n_sup)
        .map(|s| (s, rng.below(CITIES as u64) as i64))
        .collect();
    let mut items: Vec<Item> = (0..n)
        .map(|i| Item {
            name: format!("item-{i:06}"),
            lb: rng.range(2000, 4000),
            level: rng.range(50, 150),
            supplier: rng.below(n_sup as u64) as i64,
            armed: rng.below(10) == 0,
            notified: false,
        })
        .collect();
    let start = Instant::now();
    db.transaction(|tx| {
        for (sno, c) in &suppliers {
            tx.pnew(
                "supplier",
                &[("sno", Value::Int(*sno)), ("city", Value::from(city(*c)))],
            )?;
        }
        Ok(())
    })
    .map_err(|e| format!("load suppliers: {e}"))?;
    for chunk in items.chunks_mut(5000) {
        db.transaction(|tx| {
            for it in chunk.iter() {
                let oid = tx.pnew(
                    "stockitem",
                    &[
                        ("name", Value::from(it.name.as_str())),
                        ("quantity", Value::Int(it.lb)),
                        ("reorder_level", Value::Int(it.level)),
                        ("supplier", Value::Int(it.supplier)),
                    ],
                )?;
                if it.armed {
                    tx.activate_trigger(oid, "reorder", vec![Value::Int(RESTOCK)])?;
                }
            }
            Ok(())
        })
        .map_err(|e| format!("load items: {e}"))?;
    }
    let load_s = start.elapsed().as_secs_f64();
    let mut armed_order: Vec<usize> = (0..items.len()).filter(|&i| items[i].armed).collect();
    rng.shuffle(&mut armed_order);
    let by_name = items
        .iter()
        .enumerate()
        .map(|(i, it)| (it.name.clone(), i))
        .collect();
    items.shrink_to_fit();
    let objects = (n + n_sup) as u64;
    Ok((
        Model {
            items,
            by_name,
            suppliers,
            armed_order,
            next_armed: 0,
            inserted: 0,
            notify_acked: HashMap::new(),
        },
        objects,
        load_s,
    ))
}

#[derive(Clone, Copy)]
enum Op {
    Read,
    Update,
    Notify,
    Insert,
    Scan,
    Range,
    Join,
}

/// One round: mostly point reads, some decrements, a few updates that take
/// an armed item below its reorder level, a few inserts, and a few each of
/// a supplier scan, a supplier-number range and an item ⋈ supplier join.
const ROUND: [(Op, usize); 7] = [
    (Op::Read, 480),
    (Op::Update, 90),
    (Op::Insert, 15),
    (Op::Notify, 6),
    (Op::Scan, 3),
    (Op::Range, 3),
    (Op::Join, 3),
];

fn expect_quantity(it: &Item, q: i64) -> bool {
    q == it.lb || (it.notified && q == it.lb + RESTOCK)
}

struct Ctx<'a> {
    db: &'a Database,
    client: ode_wire::client::Client,
    local: Session,
    m: Model,
    rng: Rng,
    range_pos: f64,
}

impl Ctx<'_> {
    fn round(&mut self, run: &mut Run) -> Result<bool, String> {
        if self.m.next_armed + 6 > self.m.armed_order.len() {
            return Ok(false);
        }
        for op in interleave(&ROUND) {
            match op {
                Op::Read => self.read(run),
                Op::Update => self.update(run),
                Op::Notify => self.notify(run),
                Op::Insert => self.insert(run),
                Op::Scan => self.scan(run),
                Op::Range => self.range(run),
                Op::Join => self.join(run),
            }
        }
        Ok(true)
    }

    fn read(&mut self, run: &mut Run) {
        let i = self.rng.below(self.m.items.len() as u64) as usize;
        let name = &self.m.items[i].name;
        let pred = format!("name == \"{name}\"");
        let stmt = format!("forall s in stockitem suchthat ({pred})");
        let Some((out, _)) = run.wire(&mut self.client, "read", &stmt) else {
            return;
        };
        let it = &self.m.items[i];
        match rows(&out, 1) {
            Ok(r) if r.len() == 1 => {
                let q = field_int(&r[0][0], "quantity").unwrap_or(i64::MIN);
                if field_str(&r[0][0], "name").as_deref() != Some(it.name.as_str())
                    || !expect_quantity(it, q)
                {
                    run.wrong(format!(
                        "read {}: got `{}`, model lb {}",
                        it.name, r[0][0], it.lb
                    ));
                }
            }
            other => run.wrong(format!("read {}: {other:?}", it.name)),
        }
        run.side_calls(
            self.db,
            &mut self.local,
            "read",
            &stmt,
            &pred,
            Some("stockitem"),
            true,
        );
    }

    /// A decrement that keeps the item at or above its reorder level, so it
    /// never fires the trigger or matches the subscription.
    fn update(&mut self, run: &mut Run) {
        let mut i = self.rng.below(self.m.items.len() as u64) as usize;
        // Deterministic walk to the next item with room to decrement.
        while self.m.items[i].notified || self.m.items[i].lb - self.m.items[i].level < 2 {
            i = (i + 1) % self.m.items.len();
        }
        let room = (self.m.items[i].lb - self.m.items[i].level - 1).min(20);
        let d = 1 + self.rng.below(room as u64) as i64;
        self.decrement(run, i, d, false);
    }

    /// A decrement that takes the next armed item below its reorder level:
    /// it fires the perpetual `reorder` trigger and must push exactly once.
    fn notify(&mut self, run: &mut Run) {
        let i = self.m.armed_order[self.m.next_armed];
        self.m.next_armed += 1;
        let it = &self.m.items[i];
        // lb − level < d ≤ lb: below the level, never below zero.
        let d = it.lb - it.level + 1 + self.rng.below(it.level as u64) as i64;
        self.decrement(run, i, d, true);
    }

    fn decrement(&mut self, run: &mut Run, i: usize, d: i64, notifying: bool) {
        let name = self.m.items[i].name.clone();
        let stmt = format!(
            "update s in stockitem suchthat (name == \"{name}\") set quantity = quantity - {d}"
        );
        let before = run.before(self.db);
        run.writes += 1;
        let Some((out, _)) = run.wire(&mut self.client, "write", &stmt) else {
            return;
        };
        if notifying {
            self.m.notify_acked.insert(name.clone(), Instant::now());
        }
        run.after(self.db, "write", before, 1);
        let it = &mut self.m.items[i];
        it.lb -= d;
        if notifying {
            it.notified = true;
        }
        let fired = out
            .lines()
            .any(|l| l.starts_with("trigger `reorder` enqueued"));
        if !out.starts_with("updated 1 object(s)") || fired != notifying {
            run.wrong(format!(
                "update {name} by {d} (notifying {notifying}): `{out}`"
            ));
        }
        run.side_calls(
            self.db,
            &mut self.local,
            "write",
            &stmt,
            &format!("name == \"{name}\""),
            None,
            false,
        );
    }

    fn insert(&mut self, run: &mut Run) {
        let name = format!("new-{:07}", self.m.inserted);
        let it = Item {
            name: name.clone(),
            lb: self.rng.range(2000, 4000),
            level: self.rng.range(50, 150),
            supplier: self.rng.below(self.m.suppliers.len() as u64) as i64,
            armed: false,
            notified: false,
        };
        let stmt = format!(
            "pnew stockitem (name = \"{name}\", quantity = {}, reorder_level = {}, supplier = {})",
            it.lb, it.level, it.supplier
        );
        let before = run.before(self.db);
        run.writes += 1;
        let Some((out, _)) = run.wire(&mut self.client, "insert", &stmt) else {
            return;
        };
        run.after(self.db, "insert", before, 1);
        self.m.inserted += 1;
        if !out.starts_with("created ") {
            run.wrong(format!("pnew {name}: `{out}`"));
        }
        self.m.by_name.insert(name, self.m.items.len());
        self.m.items.push(it);
    }

    fn scan(&mut self, run: &mut Run) {
        let c = self.rng.below(CITIES as u64) as i64;
        let pred = format!("city == \"{}\"", city(c));
        let stmt = format!("forall p in supplier suchthat ({pred})");
        let before = run.before(self.db);
        let Some((out, _)) = run.wire(&mut self.client, "scan", &stmt) else {
            return;
        };
        let mut want: Vec<i64> = self
            .m
            .suppliers
            .iter()
            .filter(|s| s.1 == c)
            .map(|s| s.0)
            .collect();
        match rows(&out, 1) {
            Ok(r) => {
                run.after(self.db, "scan", before, r.len() as u64);
                let mut got: Vec<i64> = r
                    .iter()
                    .filter_map(|row| field_int(&row[0], "sno"))
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                if got != want {
                    run.wrong(format!("scan {pred}: got {got:?}, want {want:?}"));
                }
            }
            Err(e) => run.wrong(format!("scan {pred}: {e}")),
        }
        run.side_calls(
            self.db,
            &mut self.local,
            "scan",
            &stmt,
            &pred,
            Some("supplier"),
            false,
        );
    }

    /// Suppliers in a window of five numbers: a two-sided range on the
    /// indexed `sno`. Window starts follow a low-discrepancy sequence, so
    /// every run sees the same spread of positions in the index.
    fn range(&mut self, run: &mut Run) {
        let n = self.m.suppliers.len() as f64;
        self.range_pos = (self.range_pos + GOLDEN) % 1.0;
        let lo = (self.range_pos * (n - 5.0)) as i64;
        let pred = format!("sno >= {lo} && sno < {}", lo + 5);
        let stmt = format!("forall p in supplier suchthat ({pred})");
        let before = run.before(self.db);
        let Some((out, _)) = run.wire(&mut self.client, "range", &stmt) else {
            return;
        };
        match rows(&out, 1) {
            Ok(r) => {
                run.after(self.db, "range", before, r.len() as u64);
                let mut got: Vec<i64> = r
                    .iter()
                    .filter_map(|row| field_int(&row[0], "sno"))
                    .collect();
                got.sort_unstable();
                let want: Vec<i64> = (lo..lo + 5).collect();
                if got != want {
                    run.wrong(format!("range {pred}: got {got:?}"));
                }
            }
            Err(e) => run.wrong(format!("range {pred}: {e}")),
        }
        run.side_calls(self.db, &mut self.local, "range", &stmt, &pred, None, false);
    }

    /// An item with its supplier: supplier is the outer loop, the item is
    /// probed through the `name` index.
    fn join(&mut self, run: &mut Run) {
        let i = self.rng.below(self.m.items.len() as u64) as usize;
        let name = self.m.items[i].name.clone();
        let pred = format!("s.name == \"{name}\" && p.sno == s.supplier");
        let stmt = format!("forall p in supplier, s in stockitem suchthat ({pred})");
        let before = run.before(self.db);
        let Some((out, _)) = run.wire(&mut self.client, "join", &stmt) else {
            return;
        };
        match rows(&out, 2) {
            Ok(r) => {
                run.after(self.db, "join", before, r.len() as u64);
                let ok = r.len() == 1
                    && field_int(&r[0][0], "sno") == Some(self.m.items[i].supplier)
                    && field_str(&r[0][1], "name").as_deref() == Some(name.as_str());
                if !ok {
                    run.wrong(format!("join {name}: got {r:?}"));
                }
            }
            Err(e) => run.wrong(format!("join {name}: {e}")),
        }
        run.side_calls(self.db, &mut self.local, "join", &stmt, &pred, None, false);
    }
}

/// Every item, read through a snapshot: acknowledged decrements and
/// inserts are all there, each notified item was restocked exactly once,
/// and nothing sits below its reorder level.
fn check_items(db: &Database, m: &Model, when: &str, wrong: &mut Vec<String>) {
    let got = db.read(|rtx| {
        let oids = rtx.forall("stockitem")?.collect_oids()?;
        let mut out = Vec::with_capacity(oids.len());
        for oid in oids {
            let name = rtx.get(oid, "name")?.as_str()?.to_string();
            out.push((name, rtx.get(oid, "quantity")?.as_int()?));
        }
        Ok(out)
    });
    let got = match got {
        Ok(g) => g,
        Err(e) => {
            wrong.push(format!("{when}: read-back failed: {e}"));
            return;
        }
    };
    if got.len() != m.items.len() {
        wrong.push(format!(
            "{when}: {} items stored, {} acknowledged",
            got.len(),
            m.items.len()
        ));
    }
    let mut bad = 0;
    for (name, q) in &got {
        let ok = m.by_name.get(name).is_some_and(|&i| {
            let it = &m.items[i];
            let want = it.lb + if it.notified { RESTOCK } else { 0 };
            q == &want && *q >= it.level
        });
        if !ok {
            bad += 1;
            if bad <= 3 {
                wrong.push(format!("{when}: item {name} has quantity {q}"));
            }
        }
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let setup = set_up("stock", 4096, |db| load(db, p))?;
    let (db, dir, fig) = (setup.db, setup.dir, setup.fig);
    let server = serve(&db)?;
    server.scheduler().delay_trigger("reorder", RESTOCK_DELAY);
    let sub = Subscriber::start(&server, "stockitem", "quantity < reorder_level")?;
    let mut ctx = Ctx {
        db: &db,
        client: connect(&server)?,
        local: Session::with_shared(db.clone()),
        m: setup.data,
        rng: Rng::new(p.seed, 2),
        range_pos: Rng::new(p.seed, 3).below(1000) as f64 / 1000.0,
    };
    let measured = phases(p, &db, &server, |run| ctx.round(run))?;
    let Ctx {
        client, local, m, ..
    } = ctx;
    let _ = client.bye();
    drop(local);

    // Pushes: exactly one per notifying update, none for anything else.
    let mut wrong = Vec::new();
    if !server.scheduler().wait_idle(Duration::from_secs(30)) {
        wrong.push("trigger scheduler did not go idle".to_string());
    }
    let pushes = sub.finish()?;
    let mut push_ns = Vec::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (at, object) in &pushes {
        let name = field_str(object, "name").unwrap_or_default();
        *seen.entry(name.clone()).or_default() += 1;
        match m.notify_acked.get(&name) {
            Some(acked) if seen[&name] == 1 => {
                push_ns.push(ns(at.saturating_duration_since(*acked)))
            }
            _ => wrong.push(format!("unexpected push `{object}`")),
        }
    }
    let missing = m
        .notify_acked
        .keys()
        .filter(|n| !seen.contains_key(*n))
        .count();
    if missing > 0 {
        wrong.push(format!(
            "{missing} of {} notifying updates pushed nothing",
            m.notify_acked.len()
        ));
    }
    check_items(&db, &m, "after the run", &mut wrong);

    // Shut down, reopen, and read every acknowledged value back.
    let report = server.shutdown();
    if !report.drained {
        wrong.push(format!(
            "server drain left {} connections",
            report.connections_remaining
        ));
    }
    crate::common::close(db)?;
    let db = crate::common::open_db(&dir, 4096)?;
    check_items(&db, &m, "after reopen", &mut wrong);
    db.checkpoint()
        .map_err(|e| format!("final checkpoint: {e}"))?;
    drop(db);

    Ok(Outcome::new(
        fig,
        measured,
        wrong,
        push_ns,
        &dir,
        m.user_bytes(),
    ))
}
