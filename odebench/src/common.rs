//! Shared pieces: seeded randomness, percentiles, the engine set-up the
//! three workloads share, the wire subscriber, and the per-layer counters
//! read from the engine's public telemetry.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ode_core::{Database, DbConfig, TelemetrySnapshot};
use ode_server::{Server, ServerConfig, ServerHandle};
use ode_storage::filestore::FileStoreOptions;
use ode_wire::client::Client;

/// Fractional part of the golden ratio: the step of a low-discrepancy walk
/// over `[0, 1)`. Positions chosen this way cover the range evenly in every
/// run, so a cost that depends on position has the same spread each time.
pub const GOLDEN: f64 = 0.618_033_988_749_895;

/// splitmix64: small, fast, and the same sequence on every platform, so a
/// seed always produces the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Lay one round's operations out evenly: the `n` copies of each kind sit
/// at evenly spaced positions. Every round has the same order, so what
/// runs next to what does not change between runs or seeds.
pub fn interleave<T: Copy>(counts: &[(T, usize)]) -> Vec<T> {
    let total: usize = counts.iter().map(|c| c.1).sum();
    let mut slots: Vec<(f64, usize, T)> = Vec::with_capacity(total);
    for (k, &(op, n)) in counts.iter().enumerate() {
        for i in 0..n {
            slots.push(((i as f64 + 0.5) * total as f64 / n as f64, k, op));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|s| s.2).collect()
}

/// Nearest-rank percentile of `samples` (sorted in place), `q` in `0..=1`.
pub fn pctl(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

pub fn median_f(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Latency samples (ns) per operation class.
#[derive(Default)]
pub struct Lat(HashMap<&'static str, Vec<u64>>);

impl Lat {
    pub fn add(&mut self, class: &'static str, d: Duration) {
        self.0.entry(class).or_default().push(ns(d));
    }

    /// Percentile in ns (0 when the class has no samples).
    pub fn p(&mut self, class: &str, q: f64) -> f64 {
        self.0.get_mut(class).map_or(0.0, |v| pctl(v, q))
    }
}

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes the store keeps on disk: data file plus WAL.
pub fn stored_bytes(dir: &Path) -> u64 {
    ["data.odb", "wal.odb"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len()))
        .sum()
}

/// A fresh database directory under `.odebench/` in the working directory.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".odebench").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The store options every workload uses: the WAL is written and
/// checkpoints run, but commits do not fsync (per-commit fsync was the
/// noisiest part of every earlier measurement on a shared host).
pub fn store_options(pool_pages: usize) -> FileStoreOptions {
    FileStoreOptions {
        pool_pages,
        sync_commits: false,
        ..FileStoreOptions::default()
    }
}

pub fn open_db(dir: &Path, pool_pages: usize) -> Result<Database, String> {
    Database::open_with(dir, store_options(pool_pages), DbConfig::default())
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// What one set-up pass measured.
pub struct SetupRun {
    pub seconds: f64,
    pub load_seconds: f64,
    pub objects: u64,
    pub checkpoint_ms: f64,
}

pub struct Setup<T> {
    pub db: Arc<Database>,
    pub dir: PathBuf,
    pub data: T,
    pub fig: SetupFigures,
}

/// Medians over the set-up passes.
#[derive(Clone, Copy)]
pub struct SetupFigures {
    pub setup_s: f64,
    pub load_objects_per_s: f64,
    pub checkpoint_ms: f64,
}

/// Set-up passes take at least this long in all, so a short set-up is
/// sampled over more than a moment of the host's speed.
const SETUP_SPAN: Duration = Duration::from_secs(4);
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 20;

/// Run `build` at least [`SETUP_MIN_REPS`] times and until [`SETUP_SPAN`]
/// has passed, each into a fresh directory once the previous pass's
/// database is closed and removed, and keep the last database. Reports the
/// median of each figure, so work moved into set-up shows without one slow
/// pass deciding the number.
pub fn set_up<T>(
    tag: &str,
    pool_pages: usize,
    mut build: impl FnMut(&Database) -> Result<(T, u64, f64), String>,
) -> Result<Setup<T>, String> {
    let mut runs: Vec<SetupRun> = Vec::new();
    let mut last = None;
    let began = Instant::now();
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && began.elapsed() >= SETUP_SPAN {
            break;
        }
        // Only one database and one model are ever alive, so the peak
        // resident set is that of one pass, not of two overlapping.
        if let Some((old_db, old_dir, old_data)) = last.take() {
            drop((old_db, old_data));
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = fresh_dir(&format!("{tag}{rep}"));
        let start = Instant::now();
        let db = open_db(&dir, pool_pages)?;
        let (data, objects, load_seconds) = build(&db)?;
        let ck = Instant::now();
        db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        let checkpoint_ms = ck.elapsed().as_secs_f64() * 1e3;
        runs.push(SetupRun {
            seconds: start.elapsed().as_secs_f64(),
            load_seconds,
            objects,
            checkpoint_ms,
        });
        last = Some((db, dir, data));
    }
    let (db, dir, data) = last.ok_or("no set-up pass ran")?;
    let med = |f: fn(&SetupRun) -> f64| median_f(&runs.iter().map(f).collect::<Vec<_>>());
    Ok(Setup {
        db: Arc::new(db),
        dir,
        data,
        fig: SetupFigures {
            setup_s: med(|r| r.seconds),
            load_objects_per_s: med(|r| r.objects as f64 / r.load_seconds.max(1e-9)),
            checkpoint_ms: med(|r| r.checkpoint_ms),
        },
    })
}

/// Drop the last handle to `db` once the server's threads have let go of
/// theirs, so the store is closed before the directory is reopened.
pub fn close(db: Arc<Database>) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&db) > 1 {
        if Instant::now() > deadline {
            return Err("the database is still open elsewhere after shutdown".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(db);
    Ok(())
}

pub fn serve(db: &Arc<Database>) -> Result<ServerHandle, String> {
    Server::bind(Arc::clone(db), ServerConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))
}

pub fn connect(server: &ServerHandle) -> Result<Client, String> {
    let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    c.set_io_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    Ok(c)
}

/// A second connection, on its own thread, subscribed to `predicate` over
/// `cluster`. It stays idle in [`Client::next_push`] and stamps each push
/// with its arrival time; the workload matches arrivals to the writes that
/// caused them after the run.
pub struct Subscriber {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<Vec<(Instant, String)>, String>>,
}

impl Subscriber {
    pub fn start(
        server: &ServerHandle,
        cluster: &str,
        predicate: &str,
    ) -> Result<Subscriber, String> {
        let mut client = connect(server)?;
        client
            .subscribe(cluster, predicate)
            .map_err(|e| format!("subscribe: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("odebench-subscriber".into())
            .spawn(move || {
                let mut got = Vec::new();
                // After `stop`, keep reading until the line has been quiet
                // for a while, so late pushes are counted, not lost.
                let mut quiet_since: Option<Instant> = None;
                loop {
                    match client.next_push(Duration::from_millis(50)) {
                        Ok(Some(p)) => {
                            got.push((Instant::now(), p.object));
                            quiet_since = None;
                        }
                        Ok(None) => {
                            if flag.load(Ordering::Acquire) {
                                let since = *quiet_since.get_or_insert_with(Instant::now);
                                if since.elapsed() > Duration::from_millis(300) {
                                    break;
                                }
                            }
                        }
                        Err(e) => return Err(format!("push read: {e}")),
                    }
                }
                let _ = client.bye();
                Ok(got)
            })
            .map_err(|e| format!("spawn subscriber: {e}"))?;
        Ok(Subscriber { stop, handle })
    }

    /// Stop after the line goes quiet; returns every push received.
    pub fn finish(self) -> Result<Vec<(Instant, String)>, String> {
        self.stop.store(true, Ordering::Release);
        self.handle
            .join()
            .map_err(|_| "subscriber thread panicked".to_string())?
    }
}

/// The integer value of `field` in one rendered object
/// (`oid (class) { a: 1, b: "x" }`).
pub fn field_int(rendered: &str, field: &str) -> Option<i64> {
    let body = rendered.split_once('{')?.1;
    body.split(", ").find_map(|kv| {
        let (k, v) = kv.trim().split_once(": ")?;
        (k == field).then(|| v.trim_end_matches('}').trim().parse().ok())?
    })
}

/// The string value of `field` in one rendered object.
pub fn field_str(rendered: &str, field: &str) -> Option<String> {
    let body = rendered.split_once('{')?.1;
    body.split(", ").find_map(|kv| {
        let (k, v) = kv.trim().split_once(": ")?;
        (k == field).then(|| v.trim_end_matches('}').trim().trim_matches('"').to_string())
    })
}

/// Rows of a shell `forall` output: each row is one rendered object per
/// loop variable, in variable order. Checks the trailing `N row(s)`.
pub fn rows(out: &str, vars: usize) -> Result<Vec<Vec<String>>, String> {
    // Analyzer warnings print above the rows; rows read `var = object`.
    let is_row = |l: &&str| {
        l.split_once(" = ").is_some_and(|(v, _)| {
            !v.is_empty() && v.chars().all(|c| c.is_alphanumeric() || c == '_')
        })
    };
    let tail = out.lines().last().ok_or("empty output")?;
    let lines: Vec<&str> = out.lines().filter(is_row).collect();
    let n: usize = tail
        .strip_suffix(" row(s)")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no row count in `{tail}`"))?;
    if lines.len() != n * vars {
        return Err(format!("{} lines for {n} row(s) of {vars}", lines.len()));
    }
    Ok(lines
        .chunks(vars)
        .map(|c| {
            c.iter()
                .map(|l| l.split_once(" = ").map_or(*l, |x| x.1).to_string())
                .collect()
        })
        .collect())
}

/// Engine counters at one instant, for deltas around a phase or an op.
#[derive(Clone, Copy)]
pub struct Counters {
    pub tel: TelemetrySnapshot,
    pub wal_bytes: u64,
}

impl Counters {
    pub fn read(db: &Database) -> Counters {
        Counters {
            tel: db.telemetry(),
            wal_bytes: db.store_stats().wal_bytes,
        }
    }

    pub fn since(&self, base: &Counters) -> TelemetrySnapshot {
        self.tel.delta(&base.tel)
    }
}

/// Per-layer counts accumulated over the untraced phase: totals of engine
/// telemetry deltas taken around the ops of each class.
#[derive(Default)]
pub struct ClassCounts {
    pub ops: u64,
    pub rows: u64,
    pub objects_scanned: u64,
    pub predicate_evals: u64,
    pub overlay_clones: u64,
    pub pager_misses: u64,
}

impl ClassCounts {
    pub fn absorb(&mut self, d: &TelemetrySnapshot, rows: u64) {
        self.ops += 1;
        self.rows += rows;
        self.objects_scanned += d.query.objects_scanned;
        self.predicate_evals += d.query.predicate_evals;
        self.overlay_clones += d.query.overlay_clones;
        self.pager_misses += d.storage.pager_misses;
    }
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
