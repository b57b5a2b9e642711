//! `mcnet-perfbench`: runs one benchmark workload and prints its raw
//! measurements as one JSON object on the last line of standard output.
//!
//! ```text
//! mcnet-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --root <dir> --out <dir>
//! ```
//!
//! `perfbench/run.py` builds this binary, runs it, checks its recorded
//! digests and counts, and turns the raw measurements into the benchmark's
//! metrics. See `perfbench/README.md`.

mod hostspeed;
mod layers;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use mcnet_sim::json::Json;
use mcnet_sim::{Protocol, ScenarioSpec};

use trace::{CountingAlloc, Tracer};
use workload::{reference, specs_dir, BenchResult, Plan, Reference, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Processes, one timed unit each, whose peak resident set is read; the
/// median is reported.
const RSS_RUNS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    out: PathBuf,
    /// Child mode: run one timed unit from the specs in this directory and
    /// print its peak resident set and digest.
    rss_unit: Option<PathBuf>,
}

fn parse_args() -> BenchResult<Args> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(key.trim_start_matches("--").to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: get("trace")? == "1",
        root: PathBuf::from(get("root").unwrap_or_else(|_| ".".into())),
        out: PathBuf::from(get("out")?),
        rss_unit: map.get("rss-unit").map(PathBuf::from),
    })
}

fn num(v: f64) -> Json {
    Json::Number(v)
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn samples(v: &[f64]) -> Json {
    Json::Array(v.iter().copied().map(num).collect())
}

extern "C" {
    /// glibc: returns the free memory of every malloc arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Releases free heap memory and lowers the peak-resident-set mark
/// (`VmHWM`) to the current resident set, so the next reading is the peak of
/// what runs in between, not of the work before it.
/// Where the kernel refuses the reset, readings stay the peak of the whole
/// process so far.
fn reset_peak_rss() {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator holds as free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up: spec load and scenario build plus one engine per distinct
/// fabric.
fn time_setup(workload: Workload, specs: &Path, seed: u64) -> BenchResult<f64> {
    let start = Instant::now();
    let plan = Plan::build(workload, specs, seed)?;
    let engines = plan.build_engines()?;
    let seconds = start.elapsed().as_secs_f64();
    drop((engines, plan));
    Ok(seconds)
}

/// Child mode: one timed unit through the user-facing entry point in a fresh
/// process; prints `<peak MiB> <digest>`.
fn rss_unit(workload: Workload, specs: &Path, seed: u64) -> BenchResult<bool> {
    let plan = Plan::build(workload, specs, seed)?;
    reset_peak_rss();
    let unit = plan.run_unit();
    let digest = unit.digest.map_or_else(|| "none".to_string(), |d| format!("{d:016x}"));
    println!("{} {digest}", peak_rss_mb());
    Ok(unit.failed == 0)
}

/// Median peak resident set of one timed unit, each reading from a process
/// of its own that runs the unit through the user-facing entry point (the
/// worker pool included). Each child's digest must equal `want`.
fn measure_peak_rss(
    args: &Args,
    specs: &Path,
    want: u64,
    failures: &mut Vec<(String, String)>,
) -> BenchResult<f64> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut peaks = Vec::with_capacity(RSS_RUNS);
    for _ in 0..RSS_RUNS {
        let out = Command::new(&exe)
            .arg("--workload")
            .arg(args.workload.name())
            .arg("--seed")
            .arg(args.seed.to_string())
            .args(["--seconds", "0", "--trace", "0"])
            .arg("--root")
            .arg(&args.root)
            .arg("--out")
            .arg(&args.out)
            .arg("--rss-unit")
            .arg(specs)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut fields = text.split_whitespace();
        let peak = fields.next().and_then(|p| p.parse::<f64>().ok());
        let (Some(peak), Some(digest)) = (peak, fields.next()) else {
            return Err(format!("peak-RSS child exited with {} and printed {text:?}", out.status));
        };
        if !out.status.success() || digest != format!("{want:016x}") {
            failures.push((
                "rss_unit".to_string(),
                format!(
                    "child exited with {}, digest {digest} != reference {want:016x}",
                    out.status
                ),
            ));
        }
        peaks.push(peak);
    }
    Ok(stats::median(&peaks).expect("at least one reading"))
}

/// The exact counts of a reference pass: they depend only on the code and
/// the seed, never on the machine.
fn exact_counts(r: &Reference) -> Json {
    let mut counts = vec![
        ("engine.events", Json::from_u64(r.sum(|i| i.events))),
        ("engine.generated", Json::from_u64(r.sum(|i| i.generated))),
        ("engine.delivered", Json::from_u64(r.sum(|i| i.delivered))),
        ("engine.peak_in_flight", Json::from_u64(r.max(|i| i.peak_in_flight))),
        ("routes.materialized", Json::from_u64(r.max(|i| i.routes_materialized))),
        ("channels.waiter_nodes", Json::from_u64(r.max(|i| i.waiter_nodes))),
        ("policy.misroutes", Json::from_u64(r.sum(|i| i.misroutes))),
        ("policy.escapes", Json::from_u64(r.sum(|i| i.escapes))),
        ("fault.retransmits", Json::from_u64(r.sum(|i| i.retransmits))),
        ("fault.dropped", Json::from_u64(r.sum(|i| i.dropped))),
    ];
    if let Some(a) = r.allocs_per_run() {
        counts.push(("engine.allocs_per_run", num(a)));
    }
    obj(vec![("digest", Json::String(format!("{:016x}", r.digest))), ("counts", obj(counts))])
}

/// The quick-protocol digests of the specs pinned in `specs/goldens/digests.json`.
fn golden_failures(root: &Path) -> BenchResult<Vec<(String, String)>> {
    let path = root.join("specs/goldens/digests.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let digests = doc
        .as_object()
        .and_then(|o| o.get("digests"))
        .and_then(Json::as_object)
        .ok_or("goldens file has no \"digests\" object")?;
    let mut failures = Vec::new();
    for (file, want) in digests {
        let spec = ScenarioSpec::from_json_file(&root.join(file)).map_err(|e| e.to_string())?;
        let got = spec.with_protocol(Protocol::Quick).build().and_then(|s| s.run());
        let got = got.map(|r| format!("{:016x}", r.digest)).unwrap_or_else(|e| e.to_string());
        if Some(got.as_str()) != want.as_str() {
            failures.push(("golden_digest".to_string(), format!("{file}: {got} != {want:?}")));
        }
    }
    Ok(failures)
}

/// The per-layer ledger of the traced pass, plus its raw span reduction.
fn traced_layers(
    args: &Args,
    specs_default: &Path,
    canary: &Reference,
    reference_s: &Reference,
    wall_s: f64,
) -> BenchResult<(Json, Json, Reference)> {
    let default = args.workload.default_seed();
    let mut tr = Tracer::new(true);
    let plan = tr.span("spec.load", |_| Plan::build(args.workload, specs_default, default))?;
    let traced = reference(&plan, &mut tr);
    let model_eval_us = plan.model_eval(&mut tr);

    let backend = traced.backend.as_ref().ok_or("traced pass built no fabric")?;
    let seed = args.seed;
    let (intern_s, lookup_ns) = layers::routes_intern_and_lookup(backend, seed)?;
    let generated = traced.sum(|i| i.generated).max(1) as f64;
    let per_msg = |n: u64| n as f64 / generated;
    let config = plan.first_config();

    let mut m: Vec<(String, f64)> = vec![
        ("spec.load_s".into(), tr.mean("spec.load")),
        ("backend.build_s".into(), tr.mean("backend.build")),
        ("routes.build_s".into(), tr.mean("routes.build")),
        ("routes.intern_all_s".into(), intern_s),
        ("routes.lookup_ns".into(), lookup_ns),
        ("routes.materialized".into(), traced.max(|i| i.routes_materialized) as f64),
        ("routes.arena_len".into(), traced.max(|i| i.routes_arena) as f64),
        ("routes.peak_scratch".into(), traced.max(|i| i.peak_scratch) as f64),
        ("engine.new_s".into(), tr.mean("engine.new")),
        ("engine.run_s".into(), tr.mean("engine.run")),
        ("engine.reset_s".into(), tr.mean("engine.reset")),
        ("engine.events_per_msg".into(), per_msg(traced.sum(|i| i.events))),
        ("engine.peak_in_flight".into(), traced.max(|i| i.peak_in_flight) as f64),
        ("engine.allocs_per_run".into(), traced.allocs_per_run().unwrap_or(0.0)),
        (
            "event.hold_ns".into(),
            layers::event_hold_ns(traced.max(|i| i.peak_in_flight) as usize, seed),
        ),
        (
            "arrivals.replace_min_ns".into(),
            layers::arrivals_replace_min_ns(backend.total_nodes(), seed),
        ),
        ("channels.acquire_ns".into(), layers::channels_acquire_ns(backend.num_channels(), seed)),
        (
            "channels.contention_ratio".into(),
            traced.workload_items().map(|i| i.contention_ratio * i.generated as f64).sum::<f64>()
                / generated,
        ),
        ("channels.waiter_nodes".into(), traced.max(|i| i.waiter_nodes) as f64),
    ];
    let loads = plan.scenario_loads(&traced);
    for kind in layers::SOURCE_KINDS {
        let ns = layers::source_draw_ns(kind, &loads, seed)
            .map_err(|e| format!("source {kind}: {e}"))?;
        m.push((format!("source.draw_ns.{kind}"), ns));
    }
    let workers = args.workload.workers(plan.operations()) as f64;
    let traced_s: f64 = traced.workload_items().map(|i| i.seconds).sum();
    let untraced_s: f64 = canary.workload_items().map(|i| i.seconds).sum();
    m.extend([
        ("stats.record_ns".into(), layers::stats_record_ns(&config, seed)),
        ("stats.fold_s".into(), tr.mean("stats.fold")),
        ("policy.misroutes_per_msg".into(), per_msg(traced.sum(|i| i.misroutes))),
        ("policy.escapes_per_msg".into(), per_msg(traced.sum(|i| i.escapes))),
        ("fault.retransmits".into(), traced.sum(|i| i.retransmits) as f64),
        ("fault.dropped".into(), traced.sum(|i| i.dropped) as f64),
        (
            "parallel.efficiency".into(),
            reference_s.group_seconds.iter().sum::<f64>() / (workers * wall_s),
        ),
        ("parallel.dispatch_us".into(), layers::parallel_dispatch_us()),
        ("model.eval_us".into(), model_eval_us),
        (
            "campaign.max_cell_s".into(),
            reference_s.group_seconds.iter().copied().fold(0.0, f64::max),
        ),
        ("trace.overhead_ratio".into(), traced_s / untraced_s),
    ]);

    let spans_file = args.out.join(format!("spans-{}-{}.jsonl", args.workload.name(), seed));
    std::fs::write(&spans_file, tr.to_jsonl(args.workload.name(), default))
        .map_err(|e| format!("{}: {e}", spans_file.display()))?;
    let layer_times = Json::Object(
        tr.layer_times()
            .into_iter()
            .map(|(name, t)| {
                let row = obj(vec![
                    ("total_s", num(t.total_s)),
                    ("self_s", num(t.self_s)),
                    ("count", Json::from_u64(t.count as u64)),
                ]);
                (name.to_string(), row)
            })
            .collect(),
    );
    let metrics = Json::Object(m.into_iter().map(|(k, v)| (k, num(v))).collect());
    let extra = obj(vec![
        ("layer_times", layer_times),
        ("spans_file", Json::String(spans_file.to_string_lossy().into_owned())),
    ]);
    Ok((metrics, extra, traced))
}

fn run() -> BenchResult<bool> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let root =
        std::fs::canonicalize(&args.root).map_err(|e| format!("{}: {e}", args.root.display()))?;
    let args = Args { root, ..args };
    let wl = args.workload;
    if let Some(specs) = &args.rss_unit {
        return rss_unit(wl, specs, args.seed);
    }
    let default = wl.default_seed();
    let specs_s = specs_dir(wl, &args.root, args.seed, &args.out)?;
    let specs_default = specs_dir(wl, &args.root, default, &args.out)?;

    // The canary: the reference pass at the default seed, whose digest and
    // exact counts are compared with the recorded ones on every run.
    let canary_plan = Plan::build(wl, &specs_default, default)?;
    let canary = reference(&canary_plan, &mut Tracer::new(false));
    let (plan_s, reference_s) = if args.seed == default {
        (None, None)
    } else {
        let plan = Plan::build(wl, &specs_s, args.seed)?;
        let r = reference(&plan, &mut Tracer::new(false));
        (Some(plan), Some(r))
    };
    let plan = plan_s.as_ref().unwrap_or(&canary_plan);
    let refr = reference_s.as_ref().unwrap_or(&canary);

    let mut failures: Vec<(String, String)> = canary.failures.clone();
    failures.extend(reference_s.iter().flat_map(|r| r.failures.clone()));
    if wl == Workload::SpecsCampaign {
        failures.extend(golden_failures(&args.root)?);
    }
    let peak_rss = measure_peak_rss(&args, &specs_s, refr.digest, &mut failures)?;

    // The timed loop: whole units through the user-facing entry points,
    // each after a run of the host-speed kernel, by whose time it is scaled.
    // The workload's fixed number of set-ups is spread in proportion over
    // the same window, between units, so that set-up sees the same host load
    // as the units do; each set-up is scaled by the kernel run after it.
    let repeats = wl.setup_repeats();
    let normalise = |seconds: f64, kernel: f64| seconds * hostspeed::REFERENCE_S / kernel;
    let mut setup_s = Vec::with_capacity(repeats);
    let mut setup_norm_s = Vec::with_capacity(repeats);
    let (mut wall_s, mut wall_norm_s, mut kernel_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    hostspeed::time_kernel();
    let start = Instant::now();
    while wall_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let due = repeats as f64 * start.elapsed().as_secs_f64() / args.seconds;
        let first = setup_s.len();
        while setup_s.len() < repeats && (setup_s.len() as f64) < due {
            setup_s.push(time_setup(wl, &specs_s, args.seed)?);
        }
        let kernel = hostspeed::time_kernel();
        setup_norm_s.extend(setup_s[first..].iter().map(|&s| normalise(s, kernel)));
        let t = Instant::now();
        let unit = plan.run_unit();
        let seconds = t.elapsed().as_secs_f64();
        wall_s.push(seconds);
        wall_norm_s.push(normalise(seconds, kernel));
        kernel_s.push(kernel);
        attempted += unit.ops;
        failed += unit.failed;
        if unit.digest != Some(refr.digest) {
            failed += unit.ops - unit.failed;
            failures.push((
                "unit_digest".to_string(),
                format!("{:016x?} != reference {:016x}", unit.digest, refr.digest),
            ));
        }
    }
    let first = setup_s.len();
    while setup_s.len() < repeats {
        setup_s.push(time_setup(wl, &specs_s, args.seed)?);
    }
    if setup_s.len() > first {
        let kernel = hostspeed::time_kernel();
        setup_norm_s.extend(setup_s[first..].iter().map(|&s| normalise(s, kernel)));
    }
    let wall_median = stats::median(&wall_s).expect("at least one unit ran");

    let mut fields = vec![
        ("workload", Json::String(wl.name().to_string())),
        ("seed", Json::String(args.seed.to_string())),
        ("default_seed", Json::String(default.to_string())),
        ("workers", Json::from_u64(wl.workers(plan.operations()) as u64)),
        ("setup_s", samples(&setup_s)),
        ("setup_norm_s", samples(&setup_norm_s)),
        ("wall_s", samples(&wall_s)),
        ("wall_norm_s", samples(&wall_norm_s)),
        ("kernel_s", samples(&kernel_s)),
        ("peak_rss_mb", num(peak_rss)),
        ("unit_generated", Json::from_u64(refr.sum(|i| i.generated))),
        ("unit_events", Json::from_u64(refr.sum(|i| i.events))),
        // At the default seed, so it moves only when behaviour changes.
        ("model_err_pct", canary_plan.model_err_pct(&canary).map_or(Json::Null, num)),
        ("attempted", Json::from_u64(attempted)),
        ("failed", Json::from_u64(failed)),
        ("canary", exact_counts(&canary)),
    ];
    if args.trace {
        let (metrics, extra, traced) =
            traced_layers(&args, &specs_default, &canary, refr, wall_median)?;
        failures.extend(traced.failures.clone());
        if traced.digest != canary.digest {
            failures.push((
                "traced_digest".to_string(),
                format!("traced {:016x} != untraced {:016x}", traced.digest, canary.digest),
            ));
        }
        fields.push(("layers", metrics));
        fields.push(("trace", extra));
        fields.push(("traced", exact_counts(&traced)));
    }
    let ok = failures.is_empty() && failed == 0;
    fields.push((
        "failures",
        Json::Array(
            failures
                .iter()
                .map(|(check, detail)| {
                    obj(vec![
                        ("check", Json::String(check.clone())),
                        ("detail", Json::String(detail.clone())),
                    ])
                })
                .collect(),
        ),
    ));
    println!("{}", obj(fields).to_compact());
    Ok(ok)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("mcnet-perfbench: {e}");
            std::process::exit(2);
        }
    }
}
