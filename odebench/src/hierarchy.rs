//! `hierarchy_query`: the §3.1/§3.1.1 hierarchy `person ⊃ student,
//! faculty ⊃ ta` (a diamond: a `ta` is both) plus `department`, with the
//! buffer pool set well below the data's page count.
//!
//! Deep-extent scans, record decoding, predicate evaluation, the planner
//! and pager misses do the work here; statements run through an
//! in-process session, so the front end and commit are small beside them.
//! Point reads go over the wire, and a subscriber watches the writes.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use ode_core::prelude::{ClassBuilder, Database, Type, Value};
use ode_shell::Session;

use crate::common::{
    connect, field_int, interleave, ns, rows, serve, set_up, Rng, Subscriber, GOLDEN,
};
use crate::run::{phases, Outcome, Run};
use crate::Params;

/// Buffer-pool frames: the loaded data takes several times this many pages
/// (see the README), so scans miss in the pool.
const POOL_PAGES: usize = 512;
const INCOME_LO: i64 = 10_000;
const AGES: (i64, i64) = (18, 80);
/// Width of the income window a range statement selects.
const RANGE_W: i64 = 20;
/// Width of the income window an update statement selects.
const WRITE_W: i64 = 5;
/// Range and update windows start in the top fiftieth of the incomes.
/// Two-sided ranges use only their lower bound (a known fault), so a probe
/// walks the income index from the window's start to its end: from here
/// that is 1.8–2% of the entries, and the statement still costs about what
/// a full deep scan costs. A start anywhere in the domain would walk half
/// the index on average, several seconds per statement with this pool.
const BAND: f64 = 0.02;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Person,
    Student,
    Faculty,
    Ta,
}

impl Kind {
    fn class(self) -> &'static str {
        match self {
            Kind::Person => "person",
            Kind::Student => "student",
            Kind::Faculty => "faculty",
            Kind::Ta => "ta",
        }
    }

    fn is_faculty(self) -> bool {
        matches!(self, Kind::Faculty | Kind::Ta)
    }

    fn is_student(self) -> bool {
        matches!(self, Kind::Student | Kind::Ta)
    }
}

/// The generator's own copy of every person.
struct P {
    kind: Kind,
    income: i64,
    age: i64,
    deptno: i64,
    stamp: i64,
}

struct Model {
    people: Vec<P>,
    /// income → ids, for the plain-Rust evaluation of income predicates.
    by_income: BTreeMap<i64, Vec<usize>>,
    departments: i64,
    income_hi: i64,
    /// Acknowledgment time of each update, by the stamp it writes.
    write_acked: HashMap<i64, Instant>,
    /// How many times each person was written (each write must push once).
    writes_of: HashMap<usize, u64>,
    stamp: i64,
}

impl Model {
    fn user_bytes(&self) -> u64 {
        let people: u64 = self
            .people
            .iter()
            .enumerate()
            .map(|(id, p)| {
                let extra = match p.kind {
                    Kind::Person => 0,
                    Kind::Student | Kind::Faculty => 8,
                    Kind::Ta => 24,
                };
                6 * 8 + format!("p{id}").len() as u64 + extra
            })
            .sum();
        people + self.departments as u64 * (8 + 8 + 9)
    }

    fn income_ids(&self, lo: i64, hi: i64) -> Vec<i64> {
        let mut ids: Vec<i64> = self
            .by_income
            .range(lo..hi)
            .flat_map(|(_, v)| v.iter().map(|&i| i as i64))
            .collect();
        ids.sort_unstable();
        ids
    }
}

fn define(db: &Database) -> ode_core::Result<()> {
    db.define_class(
        ClassBuilder::new("department")
            .field("dno", Type::Int)
            .field("dname", Type::Str)
            .field_default("budget", Type::Int, 0),
    )?;
    db.define_class(
        ClassBuilder::new("person")
            .field("id", Type::Int)
            .field("name", Type::Str)
            .field_default("income", Type::Int, 0)
            .field_default("age", Type::Int, 0)
            .field_default("deptno", Type::Int, 0)
            .field_default("stamp", Type::Int, 0),
    )?;
    db.define_class(ClassBuilder::new("student").base("person").field_default(
        "stipend",
        Type::Int,
        0,
    ))?;
    db.define_class(ClassBuilder::new("faculty").base("person").field_default(
        "salary",
        Type::Int,
        0,
    ))?;
    db.define_class(
        ClassBuilder::new("ta")
            .base("student")
            .base("faculty")
            .field_default("hours", Type::Int, 0),
    )?;
    for c in ["department", "person", "student", "faculty", "ta"] {
        db.create_cluster(c)?;
    }
    db.create_index("person", "income")?;
    db.create_index("department", "dno")?;
    Ok(())
}

fn load(db: &Database, p: &Params) -> Result<(Model, u64, f64), String> {
    let (per, departments, incomes) = if p.quick {
        ([400, 300, 200, 100], 20, 500)
    } else {
        ([80_000, 60_000, 40_000, 20_000], 1000, 100_000)
    };
    let mut rng = Rng::new(p.seed, 11);
    define(db).map_err(|e| format!("schema: {e}"))?;
    let kinds = [Kind::Person, Kind::Student, Kind::Faculty, Kind::Ta];
    let mut people: Vec<P> = Vec::new();
    for (k, n) in kinds.iter().zip(per) {
        for _ in 0..n {
            people.push(P {
                kind: *k,
                income: INCOME_LO + rng.below(incomes) as i64,
                age: rng.range(AGES.0, AGES.1),
                deptno: rng.below(departments as u64) as i64,
                stamp: 0,
            });
        }
    }
    let start = Instant::now();
    db.transaction(|tx| {
        for d in 0..departments {
            tx.pnew(
                "department",
                &[
                    ("dno", Value::Int(d)),
                    ("dname", Value::from(format!("dept-{d:04}"))),
                    ("budget", Value::Int(d * 7 % 1000)),
                ],
            )?;
        }
        Ok(())
    })
    .map_err(|e| format!("load departments: {e}"))?;
    for (c, chunk) in people.chunks(5000).enumerate() {
        db.transaction(|tx| {
            for (j, person) in chunk.iter().enumerate() {
                let id = (c * 5000 + j) as i64;
                tx.pnew(
                    person.kind.class(),
                    &[
                        ("id", Value::Int(id)),
                        ("name", Value::from(format!("p{id}"))),
                        ("income", Value::Int(person.income)),
                        ("age", Value::Int(person.age)),
                        ("deptno", Value::Int(person.deptno)),
                    ],
                )?;
            }
            Ok(())
        })
        .map_err(|e| format!("load people: {e}"))?;
    }
    let load_s = start.elapsed().as_secs_f64();
    let mut by_income: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (i, person) in people.iter().enumerate() {
        by_income.entry(person.income).or_default().push(i);
    }
    let objects = people.len() as u64 + departments as u64;
    Ok((
        Model {
            people,
            by_income,
            departments,
            income_hi: INCOME_LO + incomes as i64,
            write_acked: HashMap::new(),
            writes_of: HashMap::new(),
            stamp: 0,
        },
        objects,
        load_s,
    ))
}

#[derive(Clone, Copy)]
enum Op {
    Read,
    Scan,
    Range,
    Join,
    Write,
    Notify,
}

/// One round: point reads over the wire, deep-extent selections on
/// unindexed fields, a two-sided income range, faculty ⋈ department, one
/// income-range update, and point updates that give the subscriber enough
/// pushes to time.
const ROUND: [(Op, usize); 6] = [
    (Op::Read, 60),
    (Op::Notify, 50),
    (Op::Scan, 2),
    (Op::Range, 1),
    (Op::Join, 1),
    (Op::Write, 1),
];

struct Ctx<'a> {
    db: &'a Database,
    client: ode_wire::client::Client,
    session: Session,
    m: Model,
    rng: Rng,
    range_pos: f64,
    write_pos: f64,
}

/// `(id, stamp)` of each single-variable row, sorted; also whether an id
/// repeats (a diamond object visited twice).
fn id_stamps(out: &str) -> Result<(Vec<(i64, i64)>, bool), String> {
    let r = rows(out, 1)?;
    let mut got: Vec<(i64, i64)> = r
        .iter()
        .map(|row| {
            (
                field_int(&row[0], "id").unwrap_or(-1),
                field_int(&row[0], "stamp").unwrap_or(-1),
            )
        })
        .collect();
    got.sort_unstable();
    let dup = got.windows(2).any(|w| w[0].0 == w[1].0);
    Ok((got, dup))
}

impl Ctx<'_> {
    fn want(&self, ids: &[i64]) -> Vec<(i64, i64)> {
        ids.iter()
            .map(|&i| (i, self.m.people[i as usize].stamp))
            .collect()
    }

    fn check(&self, run: &mut Run, what: &str, out: &str, want_ids: &[i64]) -> u64 {
        match id_stamps(out) {
            Ok((got, dup)) => {
                if dup || got != self.want(want_ids) {
                    run.wrong(format!(
                        "{what}: got {} rows{}, want {}",
                        got.len(),
                        if dup { " with repeats" } else { "" },
                        want_ids.len()
                    ));
                }
                got.len() as u64
            }
            Err(e) => {
                run.wrong(format!("{what}: {e}"));
                0
            }
        }
    }

    fn round(&mut self, run: &mut Run) -> Result<bool, String> {
        for op in interleave(&ROUND) {
            match op {
                Op::Read => self.read(run),
                Op::Scan => self.scan(run),
                Op::Range => self.range(run),
                Op::Join => self.join(run),
                Op::Write => {
                    let a = Self::window(&mut self.write_pos, INCOME_LO, self.m.income_hi);
                    self.write(run, "write", a, a + WRITE_W);
                }
                Op::Notify => {
                    let i = self.rng.below(self.m.people.len() as u64) as usize;
                    let income = self.m.people[i].income;
                    self.write(run, "notify", income, income + 1);
                }
            }
        }
        Ok(true)
    }

    fn read(&mut self, run: &mut Run) {
        let i = self.rng.below(self.m.people.len() as u64) as usize;
        let income = self.m.people[i].income;
        let pred = format!("income == {income}");
        let stmt = format!("forall p in person suchthat ({pred})");
        let Some((out, _)) = run.wire(&mut self.client, "read", &stmt) else {
            return;
        };
        let want = self.m.income_ids(income, income + 1);
        self.check(run, &stmt, &out, &want);
        run.side_calls(
            self.db,
            &mut self.session,
            "read",
            &stmt,
            &pred,
            Some("person"),
            true,
        );
    }

    fn scan(&mut self, run: &mut Run) {
        let age = self.rng.range(AGES.0, AGES.1);
        let dept = self.rng.below(self.m.departments as u64) as i64;
        let pred = format!("age == {age} && deptno == {dept}");
        let stmt = format!("forall p in person suchthat ({pred})");
        let before = run.before(self.db);
        let Some(out) = run.session(&mut self.session, "scan", &stmt) else {
            return;
        };
        let want: Vec<i64> = (0..self.m.people.len())
            .filter(|&i| self.m.people[i].age == age && self.m.people[i].deptno == dept)
            .map(|i| i as i64)
            .collect();
        let n = self.check(run, &stmt, &out, &want);
        run.after(self.db, "scan", before, n);
        run.side_calls(
            self.db,
            &mut self.session,
            "scan",
            &stmt,
            &pred,
            Some("person"),
            false,
        );
    }

    /// Next window start: a low-discrepancy walk over the first tenth of
    /// the top [`BAND`] of the incomes.
    fn window(pos: &mut f64, lo: i64, hi: i64) -> i64 {
        *pos = (*pos + GOLDEN) % 1.0;
        let band = BAND * (hi - lo) as f64;
        hi - (band * (1.0 - 0.1 * *pos)) as i64
    }

    fn range(&mut self, run: &mut Run) {
        let a = Self::window(&mut self.range_pos, INCOME_LO, self.m.income_hi);
        let pred = format!("income >= {a} && income < {}", a + RANGE_W);
        let stmt = format!("forall p in person suchthat ({pred})");
        let before = run.before(self.db);
        let Some(out) = run.session(&mut self.session, "range", &stmt) else {
            return;
        };
        let want = self.m.income_ids(a, a + RANGE_W);
        let n = self.check(run, &stmt, &out, &want);
        run.after(self.db, "range", before, n);
        run.side_calls(
            self.db,
            &mut self.session,
            "range",
            &stmt,
            &pred,
            None,
            false,
        );
    }

    /// Young faculty (deep: TAs too) of one department, by name.
    fn join(&mut self, run: &mut Run) {
        let dept = self.rng.below(self.m.departments as u64) as i64;
        let pred = format!("f.deptno == d.dno && d.dname == \"dept-{dept:04}\" && f.age < 30");
        let stmt = format!("forall f in faculty, d in department suchthat ({pred})");
        let before = run.before(self.db);
        let Some(out) = run.session(&mut self.session, "join", &stmt) else {
            return;
        };
        let mut want: Vec<(i64, i64)> = (0..self.m.people.len())
            .filter(|&i| {
                let p = &self.m.people[i];
                p.kind.is_faculty() && p.deptno == dept && p.age < 30
            })
            .map(|i| (i as i64, dept))
            .collect();
        want.sort_unstable();
        match rows(&out, 2) {
            Ok(r) => {
                run.after(self.db, "join", before, r.len() as u64);
                let mut got: Vec<(i64, i64)> = r
                    .iter()
                    .map(|row| {
                        (
                            field_int(&row[0], "id").unwrap_or(-1),
                            field_int(&row[1], "dno").unwrap_or(-1),
                        )
                    })
                    .collect();
                got.sort_unstable();
                if got != want {
                    run.wrong(format!(
                        "{stmt}: got {} rows, want {}",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Err(e) => run.wrong(format!("{stmt}: {e}")),
        }
        run.side_calls(
            self.db,
            &mut self.session,
            "join",
            &stmt,
            &pred,
            None,
            false,
        );
    }

    /// Stamp everyone with an income in `lo..hi` (deep extent, planned
    /// through the income index, validated by range at commit). Class
    /// `write` takes a narrow window; class `notify` one income.
    fn write(&mut self, run: &mut Run, class: &'static str, lo: i64, hi: i64) {
        self.m.stamp += 1;
        let stamp = self.m.stamp;
        let pred = if hi == lo + 1 {
            format!("income == {lo}")
        } else {
            format!("income >= {lo} && income < {hi}")
        };
        let stmt = format!("update p in person suchthat ({pred}) set stamp = {stamp}");
        let ids = self.m.income_ids(lo, hi);
        let before = run.before(self.db);
        run.writes += 1;
        let Some(out) = run.session(&mut self.session, class, &stmt) else {
            return;
        };
        self.m.write_acked.insert(stamp, Instant::now());
        run.after(self.db, class, before, ids.len() as u64);
        for &i in &ids {
            self.m.people[i as usize].stamp = stamp;
            *self.m.writes_of.entry(i as usize).or_default() += 1;
        }
        if out.lines().last() != Some(format!("updated {} object(s)", ids.len()).as_str()) {
            run.wrong(format!("{stmt}: `{out}`, want {} updated", ids.len()));
        }
        run.side_calls(self.db, &mut self.session, class, &stmt, &pred, None, false);
    }
}

/// Deep extents hold each object exactly once: the diamond's `ta`
/// objects are counted in `student` and in `faculty`, once in `person`.
fn check_extents(db: &Database, m: &Model, wrong: &mut Vec<String>) {
    let count = |f: fn(Kind) -> bool| m.people.iter().filter(|p| f(p.kind)).count();
    let want = [
        ("person", m.people.len()),
        ("student", count(Kind::is_student)),
        ("faculty", count(Kind::is_faculty)),
        ("ta", count(|k| k == Kind::Ta)),
    ];
    for (class, n) in want {
        match db.read(|rtx| rtx.forall(class)?.count()) {
            Ok(got) if got == n => {}
            other => wrong.push(format!("deep extent of {class}: {other:?}, want {n}")),
        }
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let setup = set_up("hierarchy", POOL_PAGES, |db| load(db, p))?;
    let (db, dir, fig) = (setup.db, setup.dir, setup.fig);
    eprintln!(
        "odebench: hierarchy_query: {} data pages, {POOL_PAGES} pool pages",
        db.store_stats().page_count
    );
    let server = serve(&db)?;
    let sub = Subscriber::start(&server, "person", "stamp > 0")?;
    let mut pos = Rng::new(p.seed, 12);
    let mut ctx = Ctx {
        db: &db,
        client: connect(&server)?,
        session: Session::with_shared(db.clone()),
        m: setup.data,
        rng: Rng::new(p.seed, 13),
        range_pos: pos.below(1000) as f64 / 1000.0,
        write_pos: pos.below(1000) as f64 / 1000.0,
    };
    let measured = phases(p, &db, &server, |run| ctx.round(run))?;
    let Ctx {
        client, session, m, ..
    } = ctx;
    let _ = client.bye();
    drop(session);

    // Each write of each person pushes exactly once.
    let mut wrong = Vec::new();
    if !server.scheduler().wait_idle(Duration::from_secs(30)) {
        wrong.push("scheduler did not go idle".to_string());
    }
    let pushes = sub.finish()?;
    let mut push_ns = Vec::new();
    let mut per_id: HashMap<usize, u64> = HashMap::new();
    let mut first: HashMap<i64, Instant> = HashMap::new();
    for (at, object) in &pushes {
        let id = field_int(object, "id").unwrap_or(-1);
        *per_id.entry(id as usize).or_default() += 1;
        if let Some(stamp) = field_int(object, "stamp") {
            let e = first.entry(stamp).or_insert(*at);
            *e = (*e).min(*at);
        }
    }
    for (stamp, at) in &first {
        match m.write_acked.get(stamp) {
            Some(acked) => push_ns.push(ns(at.saturating_duration_since(*acked))),
            None => wrong.push(format!("push with unknown stamp {stamp}")),
        }
    }
    // The server drops pushes past 256 queued per connection between two
    // poll ticks (slow-consumer policy). The timed rounds stay far below
    // that; the quick mode's tiny rounds can reach it, and then only the
    // totals can be checked.
    let dropped = server.server_stats().push_dropped;
    let writes: u64 = m.writes_of.values().sum();
    let exact = dropped == 0 && per_id == m.writes_of;
    let within = dropped > 0
        && pushes.len() as u64 + dropped == writes
        && per_id
            .iter()
            .all(|(id, n)| m.writes_of.get(id).is_some_and(|w| n <= w));
    if !(exact || within) {
        wrong.push(format!(
            "{} pushes ({dropped} dropped) for {writes} person writes",
            pushes.len()
        ));
    }
    check_extents(&db, &m, &mut wrong);
    let report = server.shutdown();
    if !report.drained {
        wrong.push(format!(
            "server drain left {} connections",
            report.connections_remaining
        ));
    }
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
