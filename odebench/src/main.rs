//! `odebench`: the Ode engine's end-to-end benchmark.
//!
//! ```text
//! odebench --workload <stock_wire|hierarchy_query|parts_explosion>
//!          --seed <n> --seconds <s> --trace <0|1>
//! odebench --quick
//! ```
//!
//! A run sets its workload up from the seed (five times or more; the
//! median set-up time is reported), measures whole rounds of the workload's
//! operations in a closed loop for `--seconds`, checks every answer
//! against the benchmark's own model of the data, and prints one JSON
//! line: the end-to-end metrics with `--trace 0`; with `--trace 1` a
//! second, traced phase follows and the per-layer metrics are printed.
//! `--quick` runs all three workloads at tiny sizes with every check on
//! and verifies the printed metrics against `BENCHMARK.json`.

mod common;
mod hierarchy;
mod json;
mod parts;
mod run;
mod stock;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::Metric;

/// What a run was asked to do.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

const WORKLOADS: [&str; 3] = ["stock_wire", "hierarchy_query", "parts_explosion"];

fn usage() -> String {
    "usage: odebench --workload <stock_wire|hierarchy_query|parts_explosion> \
     --seed <n> --seconds <s> --trace <0|1>\n       odebench --quick"
        .to_string()
}

struct Args {
    workload: String,
    params: Params,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let params = |seed, seconds, trace| Params {
        seed,
        seconds,
        trace,
        quick,
    };
    if quick {
        return Ok(Args {
            workload: String::new(),
            params: params(seed.unwrap_or(1), 1.0, true),
        });
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        params: params(
            seed.ok_or("--seed is required")?,
            seconds.ok_or("--seconds is required")?,
            trace,
        ),
    })
}

fn run_workload(name: &str, p: &Params) -> Result<run::Outcome, String> {
    match name {
        "stock_wire" => stock::run(p),
        "hierarchy_query" => hierarchy::run(p),
        "parts_explosion" => parts::run(p),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn measure(name: &str, p: &Params) -> Result<(run::Outcome, Vec<Metric>, Vec<Metric>), String> {
    let mut o = run_workload(name, p)?;
    for w in o.wrong() {
        eprintln!("odebench: {name}: WRONG: {w}");
    }
    let (e2e, layers) = run::metrics(&mut o);
    if let Some(t) = &o.traced {
        let path = std::path::Path::new(".odebench").join(format!("trace-{name}.tsv"));
        match t.tr.write(&path) {
            Ok(table) => eprint!("odebench: spans written to {}\n{table}", path.display()),
            Err(e) => return Err(format!("writing {}: {e}", path.display())),
        }
    }
    Ok((o, e2e, layers))
}

/// Run every workload small, then check that the metric names and units
/// printed are exactly those `BENCHMARK.json` declares.
fn quick(p: &Params) -> Result<(), String> {
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = json::parse(&spec)?;
    let declared = |key: &str| -> Result<Vec<(String, String)>, String> {
        spec.get(key)
            .and_then(json::Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(json::Value::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or_else(|| format!("`{key}` entry without name/unit"))
            })
            .collect()
    };
    let (want_e2e, want_layers) = (declared("end_to_end")?, declared("per_layer")?);
    let mut problems = Vec::new();
    for name in WORKLOADS {
        let (o, e2e, layers) = measure(name, p)?;
        if !o.correct() {
            problems.push(format!("{name}: the oracle found wrong answers"));
        }
        let failed = o.main.failed + o.traced.as_ref().map_or(0, |t| t.failed);
        if failed > 0 {
            problems.push(format!("{name}: {failed} operations failed"));
        }
        for (label, got, want) in [
            ("end_to_end", &e2e, &want_e2e),
            ("per_layer", &layers, &want_layers),
        ] {
            let got: Vec<(String, String)> = got
                .iter()
                .map(|(n, _, u)| (n.clone(), u.to_string()))
                .collect();
            if &got != want {
                problems.push(format!(
                    "{name}: printed {label} metrics {got:?}, BENCHMARK.json declares {want:?}"
                ));
            }
        }
        println!(
            "{name}: {}",
            result_json(o.correct(), o.main.attempted, failed, &e2e)
        );
        println!(
            "{name}: {}",
            result_json(o.correct(), o.main.attempted, failed, &layers)
        );
    }
    if problems.is_empty() {
        println!("quick: all workloads correct; metrics match BENCHMARK.json");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("odebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(code) = steady::reexec_without_aslr(&argv) {
        return code;
    }
    steady::pin_to_one_cpu();
    if args.params.quick {
        return match quick(&args.params) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("odebench: quick: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match measure(&args.workload, &args.params) {
        Ok((o, e2e, layers)) => {
            let t = o.traced.as_ref();
            let attempted = o.main.attempted + t.map_or(0, |t| t.attempted);
            let failed = o.main.failed + t.map_or(0, |t| t.failed);
            let shown = if args.params.trace { &layers } else { &e2e };
            println!("{}", result_json(o.correct(), attempted, failed, shown));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("odebench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Process-level settings that make figures repeat between processes. They
/// act on this process only.
mod steady {
    use std::os::raw::{c_int, c_ulong};
    use std::process::ExitCode;

    const ADDR_NO_RANDOMIZE: c_ulong = 0x0040000;
    const QUERY_PERSONALITY: c_ulong = 0xffff_ffff;
    const MASK_WORDS: usize = 16;

    extern "C" {
        fn personality(persona: c_ulong) -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }

    /// The same scan ran at ~36 or ~48 ms depending on the process's
    /// address-space layout; with randomization off it stayed within a few
    /// percent. Re-run this program once with randomization off and return
    /// its exit code; `None` when already so (or when the kernel refuses).
    pub fn reexec_without_aslr(argv: &[String]) -> Option<ExitCode> {
        // SAFETY: personality() only reads or sets this process's
        // execution domain flags; the query form changes nothing.
        let current = unsafe { personality(QUERY_PERSONALITY) };
        if current < 0 || (current as c_ulong) & ADDR_NO_RANDOMIZE != 0 {
            return None;
        }
        // SAFETY: as above; the new flags take effect at the next exec.
        if unsafe { personality(current as c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
            return None;
        }
        let exe = std::env::current_exe().ok()?;
        match std::process::Command::new(exe).args(argv).status() {
            Ok(status) => Some(ExitCode::from(
                status.code().unwrap_or(1).clamp(0, 255) as u8
            )),
            Err(e) => {
                eprintln!("odebench: re-exec failed ({e}); running with randomization on");
                None
            }
        }
    }

    /// Keep every thread of this process on one CPU: loopback round trips
    /// between threads on different CPUs varied by a fifth between runs,
    /// on one CPU by a few percent. Called before any thread is started,
    /// so all of them inherit it.
    pub fn pin_to_one_cpu() {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
        // `mask`, which is that large.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if ok != 0 {
            return;
        }
        let Some(cpu) = (0..MASK_WORDS * 64)
            .rev()
            .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        else {
            return;
        };
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size_of_val(&one)` bytes from `one`.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    }
}
