//! Replays of the layers that run inside `Simulation::run`: each is driven
//! through its public API at the workload's own scale (pending events, node
//! count, channel count, protocol, the scenarios' own traffic sources) and
//! reported in nanoseconds per operation.

use std::hint::black_box;
use std::time::Instant;

use mcnet_sim::arrivals::ArrivalQueue;
use mcnet_sim::backend::FabricBackend;
use mcnet_sim::channels::ChannelPool;
use mcnet_sim::event::{EventKind, EventQueue};
use mcnet_sim::message::MessageClass;
use mcnet_sim::routes::RouteTable;
use mcnet_sim::stats::{Delivery, SimStats};
use mcnet_sim::{Scenario, SimConfig, TrafficSourceSpec};
use mcnet_system::TrafficConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::workload::{build_backend, BenchResult};

/// Operations per trial of a replay.
const OPS: u64 = 200_000;
/// Fewest operations per trial of one scenario's source replay.
const MIN_SOURCE_OPS: u64 = 10_000;
/// Trials per replay; the median trial is reported.
const TRIALS: usize = 5;

/// Median over trials of the time per operation, in nanoseconds.
fn per_op_ns(ops: u64, mut trial: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let start = Instant::now();
            trial();
            1e9 * start.elapsed().as_secs_f64() / ops as f64
        })
        .collect();
    crate::stats::median(&times).expect("at least one trial")
}

/// Exponential draw with mean `mean`.
fn exp(rng: &mut SmallRng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

fn index(rng: &mut SmallRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Hold model on the future-event list: pop the minimum, schedule a
/// successor, with `pending` events outstanding.
pub fn event_hold_ns(pending: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut queue = EventQueue::new();
    for m in 0..pending.max(1) {
        queue.schedule_at(exp(&mut rng, 1.0), EventKind::HeaderAdvance { message: m as u32 });
    }
    per_op_ns(OPS, || {
        for _ in 0..OPS {
            let event = queue.pop().expect("the hold keeps the queue populated");
            queue.schedule_at(event.time + exp(&mut rng, 1.0), event.kind);
        }
    })
}

/// Per-node arrival heap: fire the earliest arrival and re-arm its node.
pub fn arrivals_replace_min_ns(nodes: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mean = nodes as f64;
    let mut heap = ArrivalQueue::with_capacity(nodes);
    for node in 0..nodes {
        heap.push(exp(&mut rng, mean), node as u32);
    }
    per_op_ns(OPS, || {
        for _ in 0..OPS {
            let (t, _) = heap.peek().expect("every node stays armed");
            heap.replace_min(t + exp(&mut rng, mean));
        }
    })
}

/// One contended channel cycle on a random channel: grant, queue a second
/// message, release with a waiter, hand off, release with none.
pub fn channels_acquire_ns(channels: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pool = ChannelPool::new(vec![1.0; channels]);
    let mut now = 0.0;
    per_op_ns(OPS, || {
        for _ in 0..OPS {
            let ch = index(&mut rng, channels) as u32;
            black_box(pool.acquire(ch, 0, now));
            black_box(pool.acquire(ch, 1, now));
            let at = pool.mark_released(ch, 0, now + 1.0).expect("a waiter is queued");
            black_box(pool.handoff(ch, at));
            black_box(pool.mark_released(ch, 1, at + 1.0));
            now = at + 2.0;
        }
    })
}

/// The source kinds `source.draw_ns.<kind>` reports.
pub const SOURCE_KINDS: [&str; 4] = ["poisson", "on_off", "heterogeneous", "trace_replay"];

fn source_kind(spec: &TrafficSourceSpec) -> &'static str {
    match spec {
        TrafficSourceSpec::Poisson => "poisson",
        TrafficSourceSpec::OnOff { .. } => "on_off",
        TrafficSourceSpec::HeterogeneousRates { .. } => "heterogeneous",
        TrafficSourceSpec::TraceReplay { .. } => "trace_replay",
    }
}

/// Draw cost of one source kind over the workload's scenarios that use it:
/// each scenario's own source is replayed on its own fabric and traffic, and
/// the per-scenario costs are weighted by the messages that scenario
/// generated. 0 when no scenario of the workload uses the kind.
pub fn source_draw_ns(
    kind: &str,
    loads: &[(&Scenario, TrafficConfig, u64)],
    seed: u64,
) -> BenchResult<f64> {
    let runs: Vec<_> = loads.iter().filter(|(s, _, _)| source_kind(s.source()) == kind).collect();
    let total = runs.iter().map(|(_, _, generated)| generated).sum::<u64>().max(1) as f64;
    let ops = (OPS / runs.len().max(1) as u64).max(MIN_SOURCE_OPS);
    let mut ns = 0.0;
    for (scenario, traffic, generated) in runs {
        let backend = build_backend(scenario, traffic).map_err(|e| e.to_string())?;
        let draw = replay_source(scenario.source(), traffic, &cluster_ranges(&backend), seed, ops)
            .map_err(|e| format!("{}: {e}", scenario.name()))?;
        ns += draw * *generated as f64 / total;
    }
    Ok(ns)
}

/// `next_arrival` + `destination` per message, nodes taken round-robin as
/// the arrival heap would fire them; a finite source is rebound once every
/// node is exhausted.
fn replay_source(
    spec: &TrafficSourceSpec,
    traffic: &TrafficConfig,
    ranges: &[(usize, usize)],
    seed: u64,
    ops: u64,
) -> BenchResult<f64> {
    let nodes = ranges.last().map_or(0, |r| r.1);
    let mut source = spec.build(traffic, nodes, ranges.to_vec()).map_err(|e| e.to_string())?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut armed: Vec<(usize, f64)> = Vec::with_capacity(nodes);
    let mut failure = None;
    let ns = per_op_ns(ops, || {
        let mut i = 0;
        for _ in 0..ops {
            if armed.is_empty() {
                if let Err(e) = source.rebind(traffic) {
                    failure = Some(e.to_string());
                    return;
                }
                armed.extend(
                    (0..nodes)
                        .filter_map(|n| source.next_arrival(&mut rng, n, 0.0).map(|t| (n, t))),
                );
                if armed.is_empty() {
                    failure = Some("source generates nothing".to_string());
                    return;
                }
            }
            i = (i + 1) % armed.len();
            let (node, prev) = armed[i];
            match source.next_arrival(&mut rng, node, prev) {
                Some(t) => {
                    armed[i].1 = t;
                    black_box(source.destination(&mut rng, node));
                }
                None => {
                    armed.swap_remove(i);
                }
            }
        }
    });
    failure.map_or(Ok(ns), Err)
}

/// Records one protocol's worth of deliveries into the statistics layer.
pub fn stats_record_ns(config: &SimConfig, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let total = config.warmup_messages + config.measured_messages + config.drain_messages;
    let mut stats = SimStats::new(config.warmup_messages, config.measured_messages, 1.0);
    let mut at = 0.0;
    per_op_ns(total, || {
        stats.reset(config.warmup_messages, config.measured_messages, 1.0);
        for _ in 0..total {
            let (index, measured) = stats.register_generation();
            at += exp(&mut rng, 1.0);
            stats.record_delivery(Delivery {
                gen_id: index as u32,
                class: if index % 2 == 0 { MessageClass::Intra } else { MessageClass::Inter },
                latency: exp(&mut rng, 100.0),
                at,
                measured,
                attempts: 1,
            });
        }
        black_box(stats.digest());
    })
}

/// Cold interning of every ordered pair on a fresh route table (seconds),
/// then warm lookups of random pairs (nanoseconds each).
pub fn routes_intern_and_lookup(backend: &FabricBackend, seed: u64) -> BenchResult<(f64, f64)> {
    let nodes = backend.total_nodes();
    let mut table = RouteTable::build(backend).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for src in 0..nodes {
        for dst in (0..nodes).filter(|&d| d != src) {
            black_box(table.entry(backend, src, dst));
        }
    }
    let intern_s = start.elapsed().as_secs_f64();
    let mut rng = SmallRng::seed_from_u64(seed);
    let lookup_ns = per_op_ns(OPS, || {
        for _ in 0..OPS {
            let src = index(&mut rng, nodes);
            let dst = (src + 1 + index(&mut rng, nodes - 1)) % nodes;
            black_box(table.entry(backend, src, dst));
        }
    });
    Ok((intern_s, lookup_ns))
}

/// The contiguous node partition of a fabric, from its cluster map.
fn cluster_ranges(backend: &FabricBackend) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for node in 0..backend.total_nodes() {
        match ranges.last_mut() {
            Some(r) if backend.cluster_of(r.0) == backend.cluster_of(node) => r.1 = node + 1,
            _ => ranges.push((node, node + 1)),
        }
    }
    ranges
}

/// `parallel_map_reusing` over batches of one empty item per worker:
/// microseconds per item.
pub fn parallel_dispatch_us() -> f64 {
    const CALLS: u64 = 200;
    let workers = mcnet_system::parallel::max_workers();
    let mut slots: Vec<()> = Vec::new();
    let items = CALLS * workers as u64;
    1e-3 * per_op_ns(items, || {
        for _ in 0..CALLS {
            black_box(mcnet_system::parallel::parallel_map_reusing(
                vec![(); workers],
                &mut slots,
                |_, i, ()| i,
            ));
        }
    })
}
