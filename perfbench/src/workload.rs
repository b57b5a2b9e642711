//! The three workloads: what one timed unit is, how set-up is timed, and the
//! item-by-item reference pass that yields each workload's checked outputs
//! and exact counts.
//!
//! The reference pass drives the engine through its public API one run at a
//! time (`Simulation::new_full` / `new_torus_full`, `reset`, `run`), the same
//! way `Scenario::execute_reusing` does, so every run can be spanned and its
//! engine inspected. Its digests must equal those of the timed units, which
//! go through the user-facing entry points (`Scenario::run`,
//! `figure4_replicated`, `Campaign::run`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use mcnet_experiments::campaign::{Campaign, CampaignOptions, CellStatus};
use mcnet_experiments::figures::figure4_replicated;
use mcnet_experiments::EvaluationEffort;
use mcnet_sim::backend::FabricBackend;
use mcnet_sim::engine::Simulation;
use mcnet_sim::message::MessageClass;
use mcnet_sim::routes::RouteTable;
use mcnet_sim::{
    Fabric, Protocol, Scenario, ScenarioOutcome, ScenarioSpec, SimConfig, SimError,
    TrafficSourceSpec,
};
use mcnet_system::organizations;
use mcnet_system::sweep::FigureSweep;
use mcnet_system::TrafficConfig;

use crate::trace::{count_allocations, Tracer};

pub type BenchResult<T> = Result<T, String>;

/// Replications per point of the Fig. 4 workload.
const FIG4_REPS: usize = 2;
/// Sweep points and protocol of the Fig. 4 workload (8 points, 1k/10k/1k).
const FIG4_EFFORT: EvaluationEffort = EvaluationEffort::Standard;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Torus8AdaptivePaper,
    Fig4Sweep,
    SpecsCampaign,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "torus8_adaptive_paper" => Some(Workload::Torus8AdaptivePaper),
            "fig4_sweep" => Some(Workload::Fig4Sweep),
            "specs_campaign" => Some(Workload::SpecsCampaign),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Torus8AdaptivePaper => "torus8_adaptive_paper",
            Workload::Fig4Sweep => "fig4_sweep",
            Workload::SpecsCampaign => "specs_campaign",
        }
    }

    /// The seed of the spec file or of the `figures` binary. For the campaign the seed
    /// is an offset added to every spec's own seed, so 0 runs `specs/` as is.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Fig4Sweep => 2006,
            Workload::Torus8AdaptivePaper => 7,
            Workload::SpecsCampaign => 0,
        }
    }

    /// Set-ups timed per run for `setup_s`: about a second of work on an
    /// unloaded 2-core host.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::Torus8AdaptivePaper => 50_000,
            Workload::Fig4Sweep => 200,
            Workload::SpecsCampaign => 600,
        }
    }

    /// Worker threads one timed unit uses.
    pub fn workers(self, items: usize) -> usize {
        match self {
            Workload::Torus8AdaptivePaper => 1,
            Workload::Fig4Sweep => mcnet_system::parallel::max_workers().min(FIG4_REPS),
            Workload::SpecsCampaign => mcnet_system::parallel::max_workers().min(items),
        }
    }
}

/// The four Fig. 4 series, in the `figures` module's (panel, series) order.
fn fig4_sweeps() -> [FigureSweep; 4] {
    [
        FigureSweep::fig4_m32(256.0),
        FigureSweep::fig4_m32(512.0),
        FigureSweep::fig4_m64(256.0),
        FigureSweep::fig4_m64(512.0),
    ]
    .map(|s| s.with_points(FIG4_EFFORT.sweep_points()))
}

/// The directory the workload reads its specs from. The campaign at a seed
/// other than its default runs a copy of `specs/` with every spec's seed
/// shifted by `seed`, written under `out`.
pub fn specs_dir(workload: Workload, root: &Path, seed: u64, out: &Path) -> BenchResult<PathBuf> {
    let specs = root.join("specs");
    if workload != Workload::SpecsCampaign || seed == 0 {
        return Ok(specs);
    }
    let dir = out.join(format!("campaign-seed-{seed}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = std::fs::read_dir(&specs)
        .map_err(|e| format!("{}: {e}", specs.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    for path in files {
        // Loading through `from_json_file` anchors trace paths at the
        // (absolute) original directory, so the copy still finds them.
        let mut spec = ScenarioSpec::from_json_file(&path).map_err(|e| e.to_string())?;
        spec.seed = spec.seed.wrapping_add(seed);
        let target = dir.join(path.file_name().expect("spec files have names"));
        std::fs::write(&target, spec.to_json())
            .map_err(|e| format!("{}: {e}", target.display()))?;
    }
    Ok(dir)
}

/// One engine run of the reference pass.
#[derive(Debug, Clone)]
struct Job {
    scenario: usize,
    traffic: TrafficConfig,
    config: SimConfig,
    /// Engine slot: runs sharing a slot reset one engine, as the sweep and
    /// campaign layers do.
    slot: usize,
    /// Point (fig4) or cell (campaign) the run belongs to.
    group: usize,
    /// A warm re-run added by the traced pass; not part of the workload.
    extra: bool,
}

/// A workload instantiated at one seed.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    scenarios: Vec<Scenario>,
    jobs: Vec<Job>,
    slots: usize,
    groups: usize,
    campaign: Option<Campaign>,
}

fn load_spec(path: &Path) -> BenchResult<ScenarioSpec> {
    ScenarioSpec::from_json_file(path).map_err(|e| format!("{}: {e}", path.display()))
}

impl Plan {
    /// Loads the workload's specs and builds its scenarios (the spec layer's
    /// share of set-up).
    pub fn build(workload: Workload, specs: &Path, seed: u64) -> BenchResult<Plan> {
        let err = |e: SimError| e.to_string();
        let mut plan = Plan {
            workload,
            seed,
            scenarios: Vec::new(),
            jobs: Vec::new(),
            slots: 0,
            groups: 0,
            campaign: None,
        };
        match workload {
            Workload::Torus8AdaptivePaper => {
                let mut spec =
                    load_spec(&specs.join("torus_adaptive.json"))?.with_protocol(Protocol::Paper);
                spec.seed = seed;
                spec.replications = 1;
                let scenario = spec.build().map_err(err)?;
                plan.push_job(0, *scenario.traffic(), *scenario.config(), 0, 0);
                plan.scenarios.push(scenario);
                plan.slots = 1;
                plan.groups = 1;
            }
            Workload::Fig4Sweep => {
                // One scenario per point (its model evaluation point); the
                // runs of a series share one engine slot, as in the sweep.
                let system = organizations::table1_org_b();
                let config = FIG4_EFFORT.sim_config(seed);
                let sweeps = fig4_sweeps();
                plan.slots = sweeps.len();
                for (series, sweep) in sweeps.into_iter().enumerate() {
                    let template = sweep.template().map_err(|e| e.to_string())?;
                    for rate in sweep.rates().map_err(|e| e.to_string())? {
                        let traffic = template.with_rate(rate).map_err(|e| e.to_string())?;
                        let point = plan.scenarios.len();
                        for r in 0..FIG4_REPS {
                            let config = SimConfig { seed: seed.wrapping_add(r as u64), ..config };
                            plan.push_job(point, traffic, config, series, point);
                        }
                        plan.scenarios.push(
                            Scenario::builder()
                                .tree(system.clone())
                                .traffic(traffic)
                                .config(config)
                                .build()
                                .map_err(err)?,
                        );
                    }
                }
                plan.groups = plan.scenarios.len();
            }
            Workload::SpecsCampaign => {
                let campaign = Campaign::from_dir(specs).map_err(|e| e.to_string())?;
                for (cell, c) in campaign.cells().iter().enumerate() {
                    let scenario =
                        c.spec.clone().with_protocol(Protocol::Paper).build().map_err(err)?;
                    let config = *scenario.config();
                    for r in 0..scenario.replications() {
                        let config =
                            SimConfig { seed: config.seed.wrapping_add(r as u64), ..config };
                        plan.push_job(cell, *scenario.traffic(), config, cell, cell);
                    }
                    plan.scenarios.push(scenario);
                }
                plan.slots = plan.scenarios.len();
                plan.groups = plan.scenarios.len();
                plan.campaign = Some(campaign);
            }
        }
        Ok(plan)
    }

    fn push_job(
        &mut self,
        scenario: usize,
        traffic: TrafficConfig,
        config: SimConfig,
        slot: usize,
        group: usize,
    ) {
        self.jobs.push(Job { scenario, traffic, config, slot, group, extra: false });
    }

    /// The measurement protocol of the first run.
    pub fn first_config(&self) -> SimConfig {
        self.jobs[0].config
    }

    /// Number of operations (runs, points or cells) in one unit.
    pub fn operations(&self) -> usize {
        self.groups
    }

    /// Builds one engine per distinct fabric, routing policy and message
    /// geometry (the engine-construction share of set-up).
    pub fn build_engines(&self) -> BenchResult<Vec<Simulation>> {
        let mut seen: Vec<String> = Vec::new();
        let mut engines = Vec::new();
        for slot in 0..self.slots {
            let job = self.jobs.iter().find(|j| j.slot == slot).expect("every slot has a run");
            let scenario = &self.scenarios[job.scenario];
            let key = format!(
                "{:?}|{:?}|{}|{}",
                scenario.fabric(),
                scenario.routing(),
                job.traffic.message_flits,
                job.traffic.flit_bytes.to_bits()
            );
            if !seen.contains(&key) {
                seen.push(key);
                engines.push(
                    build_sim(scenario, &job.traffic, &job.config).map_err(|e| e.to_string())?,
                );
            }
        }
        Ok(engines)
    }

    /// Runs one timed unit through the user-facing entry point.
    pub fn run_unit(&self) -> UnitOutcome {
        let ops = self.operations() as u64;
        match self.workload {
            Workload::Torus8AdaptivePaper => match self.scenarios[0].run() {
                Ok(r) => UnitOutcome {
                    ops,
                    failed: u64::from(
                        r.generated_messages != r.delivered_messages + r.dropped_messages,
                    ),
                    digest: Some(r.digest),
                },
                Err(_) => UnitOutcome { ops, failed: ops, digest: None },
            },
            Workload::Fig4Sweep => match figure4_replicated(FIG4_EFFORT, FIG4_REPS, self.seed) {
                Ok(figure) => {
                    let points = figure
                        .panels
                        .iter()
                        .flat_map(|p| &p.series)
                        .map(|s| s.points.len())
                        .sum::<usize>();
                    UnitOutcome { ops: points as u64, failed: 0, digest: Some(figure.digest) }
                }
                Err(_) => UnitOutcome { ops, failed: ops, digest: None },
            },
            Workload::SpecsCampaign => {
                let campaign = self.campaign.as_ref().expect("campaign plans hold a campaign");
                let report = campaign
                    .run(&CampaignOptions { protocol: Some(Protocol::Paper), screen: false });
                let mut fold = FNV_OFFSET;
                for cell in &report.cells {
                    match &cell.outcome {
                        Some(ScenarioOutcome::Single(r)) => fold_digest(&mut fold, r.digest),
                        Some(ScenarioOutcome::Replicated(rep)) => {
                            rep.replications.iter().for_each(|r| fold_digest(&mut fold, r.digest))
                        }
                        None => {}
                    }
                }
                let failed =
                    report.cells.iter().filter(|c| c.status != CellStatus::Simulated).count();
                UnitOutcome {
                    ops: report.cells.len() as u64,
                    failed: failed as u64,
                    digest: Some(fold),
                }
            }
        }
    }

    /// Every scenario with the traffic of its first run and the messages its
    /// runs generated in `reference`.
    pub fn scenario_loads(&self, reference: &Reference) -> Vec<(&Scenario, TrafficConfig, u64)> {
        let mut loads: Vec<(&Scenario, TrafficConfig, u64)> = Vec::new();
        for (index, scenario) in self.scenarios.iter().enumerate() {
            let runs: Vec<(&Job, &ItemReport)> = self
                .jobs
                .iter()
                .zip(&reference.items)
                .filter(|(j, _)| j.scenario == index)
                .collect();
            if let Some((first, _)) = runs.first() {
                let generated = runs.iter().map(|(_, item)| item.generated).sum();
                loads.push((scenario, first.traffic, generated));
            }
        }
        loads
    }

    /// Median |model − sim| / sim in percent over the runs, points or cells
    /// of a reference pass that the analytical model covers (fault-free,
    /// model unsaturated); the simulated value is the mean over replications.
    pub fn model_err_pct(&self, reference: &Reference) -> Option<f64> {
        let mut errors = Vec::new();
        for (index, scenario) in self.scenarios.iter().enumerate() {
            if scenario.faults().is_some() {
                continue;
            }
            let sims: Vec<f64> = self
                .jobs
                .iter()
                .zip(&reference.items)
                .filter(|(job, item)| {
                    job.scenario == index && !item.exhausted && item.error.is_none()
                })
                .map(|(_, item)| item.mean_latency)
                .collect();
            let sim = sims.iter().sum::<f64>() / sims.len().max(1) as f64;
            if let (Ok(model), true) = (scenario.evaluate(), sim > 0.0 && sim.is_finite()) {
                errors.push(100.0 * (model.mean_latency - sim).abs() / sim);
            }
        }
        crate::stats::median(&errors)
    }

    /// Times one analytical evaluation per run, Fig. 4 point or cell of the
    /// workload, in microseconds per evaluation.
    pub fn model_eval(&self, tr: &mut Tracer) -> f64 {
        let start = tr.spans().len();
        for scenario in &self.scenarios {
            tr.span("model.eval", |_| std::hint::black_box(scenario.evaluate().is_ok()));
        }
        let spans = &tr.spans()[start..];
        1e6 * spans.iter().map(|s| s.duration()).sum::<f64>() / spans.len().max(1) as f64
    }
}
/// What one timed unit produced.
pub struct UnitOutcome {
    pub ops: u64,
    pub failed: u64,
    pub digest: Option<u64>,
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The `figures` module's digest fold (FNV-1a over each digest's bytes).
pub fn fold_digest(fold: &mut u64, digest: u64) {
    for byte in digest.to_le_bytes() {
        *fold = (*fold ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
}

pub fn build_backend(
    scenario: &Scenario,
    traffic: &TrafficConfig,
) -> mcnet_sim::Result<FabricBackend> {
    match scenario.fabric() {
        Fabric::Tree(system) => FabricBackend::tree_with(system, traffic, scenario.routing()),
        Fabric::Torus(torus) => FabricBackend::cube_with(torus, traffic, scenario.routing()),
    }
}

fn build_sim(
    scenario: &Scenario,
    traffic: &TrafficConfig,
    config: &SimConfig,
) -> mcnet_sim::Result<Simulation> {
    let (faults, routing, source) = (scenario.faults(), scenario.routing(), scenario.source());
    match scenario.fabric() {
        Fabric::Tree(system) => {
            Simulation::new_full(system, traffic, config, faults, routing, source)
        }
        Fabric::Torus(torus) => {
            Simulation::new_torus_full(torus, traffic, config, faults, routing, source)
        }
    }
}

/// One engine run of the reference pass, as the engine reports it.
#[derive(Debug, Clone, Default)]
pub struct ItemReport {
    pub digest: u64,
    pub generated: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub measured: u64,
    pub dropped_measured: u64,
    pub events: u64,
    pub peak_in_flight: u64,
    pub waiter_nodes: u64,
    pub routes_materialized: u64,
    pub routes_arena: u64,
    pub peak_scratch: u64,
    pub misroutes: u64,
    pub escapes: u64,
    pub retransmits: u64,
    pub contention_ratio: f64,
    pub mean_latency: f64,
    /// The run hit its event budget (a point the figure omits).
    pub exhausted: bool,
    pub error: Option<String>,
    /// Heap allocations of a warm reset+run (traced pass only).
    pub allocs: Option<u64>,
    pub seconds: f64,
    extra: bool,
    group: usize,
}

impl ItemReport {
    fn from_sim(sim: &Simulation) -> Self {
        let st = sim.stats();
        ItemReport {
            digest: st.digest(),
            generated: st.generated(),
            delivered: st.delivered(),
            dropped: st.dropped(),
            measured: st.delivered_measured(),
            dropped_measured: st.dropped_measured(),
            events: sim.events_processed(),
            peak_in_flight: sim.peak_in_flight() as u64,
            waiter_nodes: sim.pool().waiter_nodes_allocated() as u64,
            routes_materialized: sim.routes().materialized_entries() as u64,
            routes_arena: sim.routes().arena_len() as u64,
            peak_scratch: sim.routes().peak_scratch_routes() as u64,
            misroutes: st.adaptive_misroutes(),
            escapes: st.escape_fallbacks(),
            retransmits: st.retransmits(),
            contention_ratio: sim.pool().contention_ratio(),
            mean_latency: st.mean_latency(),
            ..ItemReport::default()
        }
    }
}

/// The report getters a `SimReport` is assembled from (the stats fold).
fn fold_report(sim: &Simulation) {
    let st = sim.stats();
    std::hint::black_box((
        st.mean_latency(),
        st.latency_std_dev(),
        st.latency_std_error(),
        st.max_latency(),
        st.latency_quantile(0.99),
        st.class_summary(MessageClass::Intra),
        st.class_summary(MessageClass::Inter),
        st.mean_attempt_latency(),
        st.digest(),
        st.time_series(),
        sim.pool().contention_ratio(),
        sim.network_utilization(),
        sim.bridge_utilization(),
    ));
}

/// Runs `f`, counting its heap allocations when `on`.
fn counted<R>(on: bool, f: impl FnOnce() -> R) -> (R, Option<u64>) {
    if on {
        let (out, n) = count_allocations(f);
        (out, Some(n))
    } else {
        (f(), None)
    }
}

fn run_job(
    tr: &mut Tracer,
    slot: &mut Option<Simulation>,
    scenario: &Scenario,
    job: &Job,
) -> ItemReport {
    // Heap allocations are counted over a warm reset and the run after it.
    let mut reset_allocs = None;
    if let Some(sim) = slot.as_mut() {
        let (reset, allocs) = tr.span("engine.reset", |tr| {
            counted(tr.enabled(), || {
                sim.reset(&job.traffic, scenario.source(), &job.config, scenario.faults())
            })
        });
        match reset {
            Ok(()) => reset_allocs = allocs,
            Err(_) => *slot = None,
        }
    }
    if slot.is_none() {
        match tr.span("engine.new", |_| build_sim(scenario, &job.traffic, &job.config)) {
            Ok(sim) => *slot = Some(sim),
            Err(e) => return ItemReport { error: Some(e.to_string()), ..ItemReport::default() },
        }
    }
    let sim = slot.as_mut().expect("engine built above");
    let warm = reset_allocs.is_some();
    let (result, run_allocs) = tr.span("engine.run", |_| counted(warm, || sim.run()));
    let mut item = ItemReport::from_sim(sim);
    item.allocs = reset_allocs.zip(run_allocs).map(|(reset, run)| reset + run);
    match result {
        Ok(()) => tr.span("stats.fold", |_| fold_report(sim)),
        // A run that died mid-flight cannot be reset; drop its engine as the
        // scenario layer does.
        Err(SimError::EventBudgetExhausted { .. }) => {
            item.exhausted = true;
            *slot = None;
        }
        Err(e) => {
            item.error = Some(e.to_string());
            *slot = None;
        }
    }
    item
}

/// Outputs of one reference pass.
pub struct Reference {
    pub items: Vec<ItemReport>,
    /// The workload's digest: the run's, the figure's fold, or the fold over
    /// every campaign run in cell order.
    pub digest: u64,
    /// Per point, cell or run: seconds spent, in plan order.
    pub group_seconds: Vec<f64>,
    /// Output-check failures, as `(check, detail)`.
    pub failures: Vec<(String, String)>,
    /// The largest fabric built (traced pass only), for the layer replays.
    pub backend: Option<FabricBackend>,
}

impl Reference {
    /// The runs that belong to the workload (not the traced warm re-run).
    pub fn workload_items(&self) -> impl Iterator<Item = &ItemReport> {
        self.items.iter().filter(|i| !i.extra)
    }

    pub fn sum(&self, f: impl Fn(&ItemReport) -> u64) -> u64 {
        self.workload_items().map(f).sum()
    }

    pub fn max(&self, f: impl Fn(&ItemReport) -> u64) -> u64 {
        self.workload_items().map(f).max().unwrap_or(0)
    }

    /// Heap allocations per warm reset+run (traced pass only).
    pub fn allocs_per_run(&self) -> Option<f64> {
        let counted: Vec<u64> = self.items.iter().filter_map(|i| i.allocs).collect();
        (!counted.is_empty()).then(|| counted.iter().sum::<u64>() as f64 / counted.len() as f64)
    }
}

/// Runs every job of the plan one at a time, checking each run's outputs.
/// Each engine is dropped after the last run of its slot.
/// With tracing on, every build, reset, run and fold is a span, the fabric
/// builds are replayed on their own, and single-run workloads get one warm
/// reset+run whose heap allocations are counted.
pub fn reference(plan: &Plan, tr: &mut Tracer) -> Reference {
    let mut jobs = plan.jobs.clone();
    if tr.enabled() && jobs.len() == 1 {
        jobs.push(Job { extra: true, ..jobs[0].clone() });
    }
    let mut slots: Vec<Option<Simulation>> = (0..plan.slots).map(|_| None).collect();
    let mut items = Vec::with_capacity(jobs.len());
    let mut backend: Option<FabricBackend> = None;
    tr.span("workload", |tr| {
        for (k, job) in jobs.iter().enumerate() {
            let scenario = &plan.scenarios[job.scenario];
            let slot = &mut slots[job.slot];
            if tr.enabled() && slot.is_none() {
                if let Ok(b) = tr.span("backend.build", |_| build_backend(scenario, &job.traffic)) {
                    let _ = tr.span("routes.build", |_| RouteTable::build(&b).map(drop));
                    if backend.as_ref().is_none_or(|old| b.num_channels() > old.num_channels()) {
                        backend = Some(b);
                    }
                }
            }
            let start = Instant::now();
            let mut item = tr.span("item", |tr| run_job(tr, slot, scenario, job));
            item.seconds = start.elapsed().as_secs_f64();
            item.extra = job.extra;
            item.group = job.group;
            items.push(item);
            // An engine lives as long as its series or cell, as in the sweep and campaign layers.
            if jobs[k + 1..].iter().all(|j| j.slot != job.slot) {
                slots[job.slot] = None;
            }
        }
    });

    let mut failures = Vec::new();
    for (job, item) in jobs.iter().zip(&items) {
        let name = plan.scenarios[job.scenario].name();
        if let Some(e) = &item.error {
            failures.push(("run".to_string(), format!("{name} seed {}: {e}", job.config.seed)));
            continue;
        }
        if item.exhausted {
            // Only the figure documents a budget-exhausted point (it omits it).
            if plan.workload != Workload::Fig4Sweep {
                failures.push((
                    "run".to_string(),
                    format!("{name} seed {}: event budget exhausted", job.config.seed),
                ));
            }
            continue;
        }
        failures.extend(protocol_failures(plan, job, item));
    }

    let digest = match plan.workload {
        Workload::Torus8AdaptivePaper => {
            if let Some(warm) = items.get(1) {
                if warm.digest != items[0].digest {
                    failures.push((
                        "reset_contract".to_string(),
                        format!(
                            "warm re-run digest {:016x} != {:016x}",
                            warm.digest, items[0].digest
                        ),
                    ));
                }
            }
            items[0].digest
        }
        Workload::Fig4Sweep => {
            // The figure omits a point when any replication exhausted its
            // event budget; every other run folds in (point, replication)
            // order.
            let mut fold = FNV_OFFSET;
            for group in 0..plan.groups {
                let runs: Vec<&ItemReport> = items.iter().filter(|i| i.group == group).collect();
                if runs.iter().all(|i| !i.exhausted && i.error.is_none()) {
                    runs.iter().for_each(|i| fold_digest(&mut fold, i.digest));
                }
            }
            fold
        }
        Workload::SpecsCampaign => {
            let mut fold = FNV_OFFSET;
            items.iter().for_each(|i| fold_digest(&mut fold, i.digest));
            fold
        }
    };
    let mut group_seconds = vec![0.0; plan.groups];
    for item in items.iter().filter(|i| !i.extra) {
        group_seconds[item.group] += item.seconds;
    }
    Reference { items, digest, group_seconds, failures, backend }
}

/// Conservation and protocol-count checks of one completed run.
fn protocol_failures(plan: &Plan, job: &Job, item: &ItemReport) -> Vec<(String, String)> {
    let name = plan.scenarios[job.scenario].name();
    let seed = job.config.seed;
    let mut out = Vec::new();
    if item.generated != item.delivered + item.dropped {
        out.push((
            "conservation".to_string(),
            format!(
                "{name} seed {seed}: generated {} != delivered {} + dropped {}",
                item.generated, item.delivered, item.dropped
            ),
        ));
    }
    let c = &job.config;
    let target = c.warmup_messages + c.measured_messages + c.drain_messages;
    // A finite trace caps generation at its record count.
    let finite =
        matches!(plan.scenarios[job.scenario].source(), TrafficSourceSpec::TraceReplay { .. });
    if item.generated != target && !(finite && item.generated < target) {
        out.push((
            "generated".to_string(),
            format!("{name} seed {seed}: generated {} of {target}", item.generated),
        ));
    }
    let expected = c.measured_messages.min(item.generated.saturating_sub(c.warmup_messages));
    if item.measured + item.dropped_measured != expected {
        out.push((
            "measured".to_string(),
            format!(
                "{name} seed {seed}: measured {} + dropped {} != {expected}",
                item.measured, item.dropped_measured
            ),
        ));
    }
    out
}
