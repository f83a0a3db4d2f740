//! `parts_explosion`: the §3.2 part–subpart explosion over a bill of
//! materials with shared subparts, through the Rust API.
//!
//! The query layer works inside a write transaction here: the explosion
//! is the §3.2 cluster fixpoint (`forall r in reached` growing while it is
//! iterated), each step an index probe on `usage.parent` and one on
//! `reached.part` against the transaction's own uncommitted inserts; the
//! transaction then aborts. Engineering changes commit edge moves.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};

use ode_core::prelude::{ClassBuilder, Database, Type, Value};
use ode_shell::Session;

use crate::common::{
    connect, field_int, field_str, interleave, ns, rows, serve, set_up, Rng, Subscriber, GOLDEN,
};
use crate::run::{phases, Outcome, Run};
use crate::trace::Tracer;
use crate::Params;

const LEADS: u64 = 5000;

/// One usage edge, as the benchmark's own copy holds it.
#[derive(Clone)]
struct Edge {
    qty: i64,
    lead: i64,
}

struct Model {
    /// Part count of each assembly; part `j` of assembly `a` is `name(a, j)`.
    sizes: Vec<usize>,
    /// Assemblies by size tier.
    tiers: Vec<Vec<usize>>,
    /// (assembly, parent, child) → edge.
    edges: HashMap<(usize, usize, usize), Edge>,
    /// Sharing edges from the load, per assembly, for picking one to
    /// move. Tree edges never move, so an explosion reaches the same parts
    /// in every run; edges a change adds never move again, so no change
    /// deletes one before its subscription check has read it.
    extra: Vec<Vec<(usize, usize)>>,
    eco: i64,
    change_acked: HashMap<i64, Instant>,
}

fn name(a: usize, j: usize) -> String {
    format!("a{a:02}.p{j:04}")
}

impl Model {
    fn user_bytes(&self) -> u64 {
        // parent + child names (9 bytes each) and three ints per edge.
        self.edges.len() as u64 * (9 + 9 + 3 * 8)
    }

    fn children(&self, a: usize) -> HashMap<usize, Vec<usize>> {
        let mut out: HashMap<usize, Vec<usize>> = HashMap::new();
        for &(ea, p, c) in self.edges.keys() {
            if ea == a {
                out.entry(p).or_default().push(c);
            }
        }
        out
    }

    /// Semi-naive closure from the assembly's root over this model's edges.
    fn closure(&self, a: usize) -> BTreeSet<String> {
        let kids = self.children(a);
        let mut seen: HashSet<usize> = HashSet::from([0]);
        let mut delta = vec![0usize];
        while !delta.is_empty() {
            let mut next = Vec::new();
            for p in delta {
                for &c in kids.get(&p).into_iter().flatten() {
                    if seen.insert(c) {
                        next.push(c);
                    }
                }
            }
            delta = next;
        }
        seen.into_iter().map(|j| name(a, j)).collect()
    }
}

fn define(db: &Database) -> ode_core::Result<()> {
    db.define_class(
        ClassBuilder::new("usage")
            .field("parent", Type::Str)
            .field("child", Type::Str)
            .field_default("qty", Type::Int, 1)
            .field_default("lead", Type::Int, 0)
            .field_default("eco", Type::Int, 0),
    )?;
    db.define_class(ClassBuilder::new("reached").field("part", Type::Str))?;
    db.create_cluster("usage")?;
    db.create_cluster("reached")?;
    db.create_index("usage", "parent")?;
    db.create_index("reached", "part")?;
    Ok(())
}

fn load(db: &Database, p: &Params) -> Result<(Model, u64, f64), String> {
    let (tier_sizes, per_tier) = if p.quick {
        ([10, 20, 40], 2)
    } else {
        ([100, 300, 1000], 20)
    };
    let mut rng = Rng::new(p.seed, 21);
    define(db).map_err(|e| format!("schema: {e}"))?;
    let mut sizes = Vec::new();
    let mut tiers = vec![Vec::new(); 3];
    for i in 0..per_tier * 3 {
        tiers[i % 3].push(i);
        sizes.push(tier_sizes[i % 3]);
    }
    let mut edges = HashMap::new();
    let mut extra = vec![Vec::new(); sizes.len()];
    for (a, &n) in sizes.iter().enumerate() {
        for j in 1..n {
            let parent = rng.below(j as u64) as usize;
            let edge = |rng: &mut Rng| Edge {
                qty: rng.range(1, 10),
                lead: rng.below(LEADS) as i64,
            };
            // The tree edge: every part stays reachable from the root.
            edges.insert((a, parent, j), edge(&mut rng));
            // Six in ten parts are shared: a second parent earlier in the
            // assembly (edges always run to higher numbers: a DAG).
            if j >= 2 && rng.below(10) < 6 {
                let second = rng.below(j as u64) as usize;
                if second != parent {
                    edges.insert((a, second, j), edge(&mut rng));
                    extra[a].push((second, j));
                }
            }
        }
    }
    let start = Instant::now();
    let mut all: Vec<(&(usize, usize, usize), &Edge)> = edges.iter().collect();
    all.sort_by_key(|(k, _)| **k);
    rng.shuffle(&mut all);
    for chunk in all.chunks(5000) {
        db.transaction(|tx| {
            for ((a, p, c), e) in chunk {
                tx.pnew(
                    "usage",
                    &[
                        ("parent", Value::from(name(*a, *p))),
                        ("child", Value::from(name(*a, *c))),
                        ("qty", Value::Int(e.qty)),
                        ("lead", Value::Int(e.lead)),
                    ],
                )?;
            }
            Ok(())
        })
        .map_err(|e| format!("load usage: {e}"))?;
    }
    let load_s = start.elapsed().as_secs_f64();
    let objects = edges.len() as u64;
    Ok((
        Model {
            sizes,
            tiers,
            edges,
            extra,
            eco: 0,
            change_acked: HashMap::new(),
        },
        objects,
        load_s,
    ))
}

/// The §3.2 explosion: seed `reached` with the root, iterate it as a
/// fixpoint, and for each reached part probe its subparts and add those
/// not reached yet. Runs in a write transaction that aborts, so the
/// database is unchanged. Returns the reached parts.
fn explode(db: &Database, tr: &mut Tracer, root: &str) -> ode_core::Result<BTreeSet<String>> {
    let mut tx = db.begin();
    tx.pnew("reached", &[("part", Value::from(root))])?;
    tx.forall("reached")?.fixpoint().run(|tx, row| {
        let part = tx.get(row, "part")?.as_str()?.to_string();
        let probe = tr.enter("query.probe");
        let children = tx
            .forall("usage")?
            .suchthat(&format!("parent == \"{part}\""))?
            .collect_values("child");
        tr.exit(probe);
        for child in children? {
            let c = child.as_str()?.to_string();
            let probe = tr.enter("query.probe");
            let known = tx
                .forall("reached")?
                .suchthat(&format!("part == \"{c}\""))?
                .count();
            tr.exit(probe);
            if known? == 0 {
                tx.pnew("reached", &[("part", child)])?;
            }
        }
        Ok(())
    })?;
    let reached = tx
        .forall("reached")?
        .collect_values("part")?
        .into_iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<ode_model::Result<BTreeSet<String>>>()?;
    tx.abort();
    Ok(reached)
}

#[derive(Clone, Copy)]
enum Op {
    Read,
    Scan,
    Range,
    Explode,
    Change,
}

/// The size tier of each explosion of a round, in order: mostly the
/// 300-part tier, with as many 100-part as 1,000-part explosions, so the
/// median explosion is a 300-part one and many are timed per run, while
/// the costly 1,000-part tier still runs every round.
const EXPLODE_TIERS: [usize; 9] = [1, 0, 1, 1, 2, 1, 1, 0, 1];

/// One round: explosions by [`EXPLODE_TIERS`], engineering changes (enough
/// for the subscriber's pushes to time), subpart listings over the wire,
/// ten scans on the unindexed `lead`, and two ranges over `parent`. A run
/// times a couple of hundred scans and explosions.
const ROUND: [(Op, usize); 5] = [
    (Op::Read, 60),
    (Op::Change, 40),
    (Op::Scan, 10),
    (Op::Range, 2),
    (Op::Explode, EXPLODE_TIERS.len()),
];

struct Ctx<'a> {
    db: &'a Database,
    client: ode_wire::client::Client,
    session: Session,
    m: Model,
    rng: Rng,
    range_pos: f64,
}

impl Ctx<'_> {
    fn round(&mut self, run: &mut Run) -> Result<bool, String> {
        let mut tiers = EXPLODE_TIERS.iter();
        for op in interleave(&ROUND) {
            match op {
                Op::Read => self.read(run),
                Op::Scan => self.scan(run),
                Op::Range => self.range(run),
                Op::Explode => self.explode(run, *tiers.next().expect("one tier per explosion")),
                Op::Change => self.change(run),
            }
        }
        Ok(true)
    }

    fn random_part(&mut self) -> (usize, usize) {
        let a = self.rng.below(self.m.sizes.len() as u64) as usize;
        (a, self.rng.below(self.m.sizes[a] as u64) as usize)
    }

    /// Direct subparts of one part, over the wire.
    fn read(&mut self, run: &mut Run) {
        let (a, j) = self.random_part();
        let pred = format!("parent == \"{}\"", name(a, j));
        let stmt = format!("forall u in usage suchthat ({pred})");
        let Some((out, _)) = run.wire(&mut self.client, "read", &stmt) else {
            return;
        };
        let mut want: Vec<String> = self
            .m
            .edges
            .keys()
            .filter(|&&(ea, p, _)| ea == a && p == j)
            .map(|&(_, _, c)| name(a, c))
            .collect();
        want.sort();
        match rows(&out, 1) {
            Ok(r) => {
                let mut got: Vec<String> = r
                    .iter()
                    .filter_map(|row| field_str(&row[0], "child"))
                    .collect();
                got.sort();
                if got != want {
                    run.wrong(format!("{stmt}: got {got:?}, want {want:?}"));
                }
            }
            Err(e) => run.wrong(format!("{stmt}: {e}")),
        }
        run.side_calls(
            self.db,
            &mut self.session,
            "read",
            &stmt,
            &pred,
            None,
            false,
        );
    }

    fn edge_rows(out: &str) -> Result<Vec<(String, String)>, String> {
        let mut got: Vec<(String, String)> = rows(out, 1)?
            .iter()
            .map(|row| {
                (
                    field_str(&row[0], "parent").unwrap_or_default(),
                    field_str(&row[0], "child").unwrap_or_default(),
                )
            })
            .collect();
        got.sort();
        Ok(got)
    }

    fn check_edges(
        &self,
        run: &mut Run,
        stmt: &str,
        out: &str,
        keep: impl Fn(&(usize, usize, usize), &Edge) -> bool,
    ) -> u64 {
        let mut want: Vec<(String, String)> = self
            .m
            .edges
            .iter()
            .filter(|(k, e)| keep(k, e))
            .map(|(&(a, p, c), _)| (name(a, p), name(a, c)))
            .collect();
        want.sort();
        match Self::edge_rows(out) {
            Ok(got) => {
                if got != want {
                    run.wrong(format!(
                        "{stmt}: got {} rows, want {}",
                        got.len(),
                        want.len()
                    ));
                }
                got.len() as u64
            }
            Err(e) => {
                run.wrong(format!("{stmt}: {e}"));
                0
            }
        }
    }

    /// Edges with one lead time: a full scan of `usage` on an unindexed field.
    fn scan(&mut self, run: &mut Run) {
        let lead = self.rng.below(LEADS) as i64;
        let pred = format!("lead == {lead}");
        let stmt = format!("forall u in usage suchthat ({pred})");
        let before = run.before(self.db);
        let Some(out) = run.session(&mut self.session, "scan", &stmt) else {
            return;
        };
        let n = self.check_edges(run, &stmt, &out, |_, e| e.lead == lead);
        run.after(self.db, "scan", before, n);
        run.side_calls(
            self.db,
            &mut self.session,
            "scan",
            &stmt,
            &pred,
            Some("usage"),
            false,
        );
    }

    /// Edges out of ten consecutive parts of one assembly: a two-sided
    /// range on the indexed `parent`. Positions follow a low-discrepancy
    /// walk over all such windows.
    fn range(&mut self, run: &mut Run) {
        let windows: usize = self.m.sizes.iter().map(|n| n / 10).sum();
        self.range_pos = (self.range_pos + GOLDEN) % 1.0;
        let mut w = (self.range_pos * windows as f64) as usize;
        let mut a = 0;
        while w >= self.m.sizes[a] / 10 {
            w -= self.m.sizes[a] / 10;
            a += 1;
        }
        let lo = format!("a{a:02}.p{w:03}");
        let hi = format!("a{a:02}.p{:03}", w + 1);
        let pred = format!("parent >= \"{lo}\" && parent < \"{hi}\"");
        let stmt = format!("forall u in usage suchthat ({pred})");
        let before = run.before(self.db);
        let Some(out) = run.session(&mut self.session, "range", &stmt) else {
            return;
        };
        let n = self.check_edges(run, &stmt, &out, |&(ea, p, _), _| ea == a && p / 10 == w);
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

    fn explode(&mut self, run: &mut Run, tier: usize) {
        let pick = self.rng.below(self.m.tiers[tier].len() as u64) as usize;
        let a = self.m.tiers[tier][pick];
        let root = name(a, 0);
        let before = run.before(self.db);
        run.attempted += 1;
        let t = Instant::now();
        let op = run.tr.enter("join");
        let got = explode(self.db, &mut run.tr, &root);
        run.tr.exit(op);
        let el = t.elapsed();
        match got {
            Ok(reached) => {
                run.lat.add("join", el);
                run.after(self.db, "join", before, reached.len() as u64);
                let want = self.m.closure(a);
                if reached != want {
                    run.wrong(format!(
                        "explosion of {root}: {} parts, want {}",
                        reached.len(),
                        want.len()
                    ));
                }
            }
            Err(e) => run.api_failed(format!("explosion of {root}: {e}")),
        }
        if run.tr.enabled() {
            let pred = format!("parent == \"{root}\"");
            let _ = run
                .tr
                .span("side.parse_expr", |_| ode_model::parse_expr(&pred));
        }
    }

    /// An engineering change: move one sharing edge of an assembly to a
    /// new parent → child pair, in one committed transaction. The new edge
    /// carries the change number, which the subscriber is watching for.
    fn change(&mut self, run: &mut Run) {
        let a = self.rng.below(self.m.sizes.len() as u64) as usize;
        let n = self.m.sizes[a];
        if self.m.extra[a].is_empty() {
            return;
        }
        let k = self.rng.below(self.m.extra[a].len() as u64) as usize;
        let (op, oc) = self.m.extra[a][k];
        let (np, nc) = loop {
            let c = 1 + self.rng.below(n as u64 - 1) as usize;
            let p = self.rng.below(c as u64) as usize;
            if !self.m.edges.contains_key(&(a, p, c)) {
                break (p, c);
            }
        };
        self.m.eco += 1;
        let eco = self.m.eco;
        let edge = Edge {
            qty: self.rng.range(1, 10),
            lead: self.rng.below(LEADS) as i64,
        };
        let before = run.before(self.db);
        run.attempted += 1;
        run.writes += 1;
        let t = Instant::now();
        let span = run.tr.enter("write");
        let db = self.db;
        let result = (|| -> ode_core::Result<usize> {
            let mut tx = db.begin();
            let old = tx
                .forall("usage")?
                .suchthat(&format!(
                    "parent == \"{}\" && child == \"{}\"",
                    name(a, op),
                    name(a, oc)
                ))?
                .collect_oids()?;
            for oid in &old {
                tx.pdelete(*oid)?;
            }
            tx.pnew(
                "usage",
                &[
                    ("parent", Value::from(name(a, np))),
                    ("child", Value::from(name(a, nc))),
                    ("qty", Value::Int(edge.qty)),
                    ("lead", Value::Int(edge.lead)),
                    ("eco", Value::Int(eco)),
                ],
            )?;
            let commit = run.tr.enter("txn.commit");
            let r = tx.commit();
            run.tr.exit(commit);
            r?;
            Ok(old.len())
        })();
        run.tr.exit(span);
        let el = t.elapsed();
        match result {
            Ok(removed) => {
                self.m.change_acked.insert(eco, Instant::now());
                run.lat.add("write", el);
                run.after(self.db, "write", before, 1);
                if removed != 1 {
                    run.wrong(format!(
                        "change {eco}: removed {removed} edges {} → {}",
                        name(a, op),
                        name(a, oc)
                    ));
                }
                self.m.edges.remove(&(a, op, oc));
                self.m.extra[a].swap_remove(k);
                self.m.edges.insert((a, np, nc), edge);
            }
            Err(e) => {
                run.api_failed(format!("change {eco}: {e}"));
            }
        }
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let setup = set_up("parts", 4096, |db| load(db, p))?;
    let (db, dir, fig) = (setup.db, setup.dir, setup.fig);
    let server = serve(&db)?;
    let sub = Subscriber::start(&server, "usage", "eco > 0")?;
    let mut ctx = Ctx {
        db: &db,
        client: connect(&server)?,
        session: Session::with_shared(db.clone()),
        m: setup.data,
        rng: Rng::new(p.seed, 22),
        range_pos: Rng::new(p.seed, 23).below(1000) as f64 / 1000.0,
    };
    let measured = phases(p, &db, &server, |run| ctx.round(run))?;
    let Ctx {
        client, session, m, ..
    } = ctx;
    let _ = client.bye();
    drop(session);

    // One push per engineering change: the edge it added.
    let mut wrong = Vec::new();
    if !server.scheduler().wait_idle(Duration::from_secs(30)) {
        wrong.push("scheduler did not go idle".to_string());
    }
    let pushes = sub.finish()?;
    let mut push_ns = Vec::new();
    let mut seen = HashSet::new();
    for (at, object) in &pushes {
        let eco = field_int(object, "eco").unwrap_or(-1);
        match m.change_acked.get(&eco) {
            Some(acked) if seen.insert(eco) => {
                push_ns.push(ns(at.saturating_duration_since(*acked)))
            }
            _ => wrong.push(format!("unexpected push `{object}`")),
        }
    }
    if seen.len() != m.change_acked.len() {
        wrong.push(format!(
            "{} pushes for {} changes",
            seen.len(),
            m.change_acked.len()
        ));
    }
    let stored = db.read(|rtx| rtx.forall("usage")?.count());
    if stored.as_ref().ok() != Some(&m.edges.len()) {
        wrong.push(format!(
            "usage holds {stored:?} edges, the model {}",
            m.edges.len()
        ));
    }
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
