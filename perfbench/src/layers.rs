//! Traced runs: the per-layer split.
//!
//! Every span here is recorded by the benchmark around a call into one of
//! the program's public functions; nothing inside the program is
//! instrumented. A traced run makes, in order:
//!
//! 1. a few untraced campaign commands, the end-to-end reference;
//! 2. the generation layers, one workload point at a time, and an artifact
//!    store and load of each point;
//! 3. replicas of the `run` path (generate, per-row simulate with journal
//!    and row-stream appends, reports), alternately untraced and traced;
//! 4. every workload point under each of the seven mechanisms on both
//!    simulation engines, plus an instrumented run for the engine counters,
//!    and a replay of each point's correct path through the predictor, BTB,
//!    L1-I hierarchy and back end alone;
//! 5. protocol frame round trips over a loopback TCP pair.

use crate::e2e::{prewarm, run_rep, Checker};
use crate::metrics::{Outcome, Values, LAYERS};
use crate::stats::{describe, median, percentile};
use crate::trace::{self_times_ns, Span, SpanId, Tracer};
use crate::workload::Campaign;
use boomerang::branch_pred::DirectionPredictor;
use boomerang::btb::{BasicBlockBtb, BtbEntry};
use boomerang::cache::InstructionHierarchy;
use boomerang::frontend::{BackEnd, SimEngine, SimStats, Simulator};
use boomerang::sim_core::{pool, BranchKind, DynamicBlock, MicroarchConfig};
use boomerang::workloads::{CodeLayout, Trace};
use boomerang::{Mechanism, RunLength, ThrottlePolicy, WorkloadData};
use campaign::proto::{read_message, write_message, Message};
use campaign::{
    assemble_report, derive_seed, generate_workloads, mechanism_token, write_reports,
    ArtifactCache, GeneratedWorkloads, Journal, JournalReplay, StreamingSink,
};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Untraced campaign commands in a traced run.
const CLI_REPS: usize = 3;

/// Row spans the traced replicas collect at least, so that p90 has ten
/// samples beyond it.
const MIN_ROW_SAMPLES: usize = 100;

/// Replica pairs (untraced + traced) at least.
const MIN_PAIRS: usize = 2;

/// No replica pass starts once a traced run has used this much time.
const PASS_BUDGET: Duration = Duration::from_secs(100);

/// Protocol frame round trips timed.
const RTT_ROUNDS: u64 = 2000;

/// Stat counters a `RowDone` frame carries.
const ROW_DONE_STATS: usize = 17;

/// The seven mechanisms of Fig. 9, baseline first.
const MECHANISMS: [Mechanism; 7] = [
    Mechanism::Baseline,
    Mechanism::NextLine,
    Mechanism::Dip,
    Mechanism::Fdip,
    Mechanism::Shift,
    Mechanism::Confluence,
    Mechanism::Boomerang(ThrottlePolicy::PAPER_DEFAULT),
];

/// Runs the traced measurement of one campaign.
pub fn run(
    c: &Campaign,
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    prewarm(c)?;
    let start = Instant::now();
    let mut check = Checker::new(c);
    let mut values = Values::default();
    let tracer = Tracer::new(true);

    let reps = (0..CLI_REPS)
        .map(|n| run_rep(c, bin, work, n, c.threads, &mut check))
        .collect::<Result<Vec<_>, _>>()?;
    let wall_s = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let setup_s = median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    check.check_pin(seed);

    setup_layers(c, &tracer, &work.join("artifact-probe"))?;
    let passes = replicas(c, &tracer, work, seconds, start, &mut check)?;
    let generated = generate_workloads(&c.spec, &c.engine_options()).map_err(|e| e.to_string())?;
    let engine = engine_rows(c, &generated, &tracer, &mut check);
    let replays = replay_components(c, &generated, &tracer);
    frame_round_trips(c, &tracer)?;

    let spans = tracer.spans();
    let own = self_times_ns(&spans);
    setup_values(&spans, &mut values);
    pass_values(&spans, &own, &passes, c.threads, &mut values);
    engine_values(&spans, &engine, &replays, &mut values);
    model_values(c, &check, &mut values);
    values.set(
        "proto.frame_rtt_us.p50",
        percentile(&durations_us(&spans, "proto.rtt"), 50.0).expect("enough round trips"),
    );
    let row_sum_s = values.get("sim.row_sum_ms").expect("set with the passes") / 1e3;
    values.set(
        "serve.overhead_ms_per_row",
        (wall_s - setup_s - row_sum_s / c.threads as f64) / c.jobs.len() as f64 * 1e3,
    );

    let dump = work
        .parent()
        .expect("the work directory has a parent")
        .join(format!("spans-{}.tsv", c.workload.name()));
    std::fs::write(&dump, crate::trace::render(&spans))
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    println!(
        "{} spans written to {}; untraced campaign wall {wall_s:.4} s, setup {setup_s:.4} s",
        spans.len(),
        dump.display()
    );
    for layer in LAYERS {
        if let Some(v) = values.get(layer.name) {
            println!(
                "{} = {v:.6} {} (moves {} on {})",
                layer.name,
                layer.unit,
                layer.moves,
                layer.on.join(", ")
            );
        }
    }
    for problem in &check.problems {
        println!("problem: {problem}");
    }
    Ok(Outcome {
        correct: check.correct(),
        attempted: check.attempted,
        failed: check.failed,
        values,
    })
}

/// The campaign's run length.
fn run_length(c: &Campaign) -> RunLength {
    if c.smoke {
        RunLength::smoke_test()
    } else {
        c.spec.run
    }
}

/// The distinct (workload axis index, seed) points of the campaign.
fn points(c: &Campaign) -> Vec<(usize, u64)> {
    let mut keys: Vec<(usize, u64)> = c.jobs.iter().map(|j| (j.workload, j.seed)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Generation, one point at a time: layout, trace and latency classes,
/// then an artifact store and load of the result.
fn setup_layers(c: &Campaign, tracer: &Tracer, probe: &Path) -> Result<(), String> {
    let run = run_length(c);
    let cache =
        ArtifactCache::open(probe).map_err(|e| format!("cannot open {}: {e}", probe.display()))?;
    for (item, (workload, seed)) in points(c).into_iter().enumerate() {
        let item = item as u64;
        let base = &c.spec.workloads[workload].profile;
        let profile = base.clone().with_seed(derive_seed(base.seed, seed));
        let layout = tracer.span("workloads.layout", None, item, |_| {
            CodeLayout::generate(&profile)
        });
        let trace = tracer.span("workloads.trace", None, item, |_| {
            Trace::generate_blocks(&layout, run.trace_blocks + run.warmup_blocks)
        });
        let classes = tracer.span("workloads.latency_classes", None, item, |_| {
            profile
                .backend
                .latency_classes(profile.seed, trace.instructions() as usize)
        });
        black_box(classes);
        let data = WorkloadData::from_parts(layout, trace, run);
        tracer
            .span("artifact.store", None, item, |_| {
                cache.store(&profile, run, &data)
            })
            .map_err(|e| format!("artifact store failed: {e}"))?;
        let loaded = tracer
            .span("artifact.load", None, item, |_| cache.load(&profile, run))
            .map_err(|e| format!("artifact load failed: {e}"))?
            .ok_or("a stored artifact was not found")?;
        if loaded.trace.blocks() != data.trace.blocks() {
            return Err("an artifact loaded back differently".into());
        }
    }
    std::fs::remove_dir_all(probe).map_err(|e| format!("cannot remove {}: {e}", probe.display()))
}

/// Span index ranges of the traced replica passes, and the untraced and
/// traced pass walls.
struct Passes {
    traced: Vec<std::ops::Range<usize>>,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
}

/// Replica passes of the `run` path, untraced and traced alternately,
/// until enough row spans are in and half the run's seconds are spent.
fn replicas(
    c: &Campaign,
    tracer: &Tracer,
    work: &Path,
    seconds: f64,
    start: Instant,
    check: &mut Checker<'_>,
) -> Result<Passes, String> {
    let off = Tracer::new(false);
    let mut passes = Passes {
        traced: Vec::new(),
        traced_walls: Vec::new(),
        untraced_walls: Vec::new(),
    };
    let mut rows = 0;
    loop {
        for traced in [false, true] {
            let dir = work.join(format!("pass-{}-{traced}", passes.traced.len()));
            let used = if traced { tracer } else { &off };
            let first = tracer.len();
            let begun = Instant::now();
            replica_pass(c, used, &dir)?;
            let wall = begun.elapsed().as_secs_f64();
            tracer
                .span("journal.replay", None, 0, |_| {
                    JournalReplay::load(&dir, &c.spec.name, &c.hash, &c.jobs)
                })
                .map_err(|e| format!("journal replay failed: {e}"))?;
            check.check_dir(&dir);
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
            if traced {
                passes.traced.push(first..tracer.len());
                passes.traced_walls.push(wall);
                rows += c.jobs.len();
            } else {
                passes.untraced_walls.push(wall);
            }
        }
        let done = passes.traced.len() >= MIN_PAIRS
            && rows >= MIN_ROW_SAMPLES
            && start.elapsed().as_secs_f64() >= seconds / 2.0;
        if done || start.elapsed() > PASS_BUDGET {
            break;
        }
    }
    Ok(passes)
}

/// One replica of the `run` path: generate, simulate every row on the
/// pool with its journal and row-stream appends, then write the reports.
fn replica_pass(c: &Campaign, tracer: &Tracer, dir: &Path) -> Result<(), String> {
    let spec = &c.spec;
    tracer.span("campaign", None, 0, |root| {
        let generated = tracer
            .span("generate", root, 0, |_| {
                generate_workloads(spec, &c.engine_options())
            })
            .map_err(|e| e.to_string())?;
        let jobs = generated.jobs();
        let journal = Journal::create(dir, &spec.name, &c.hash, jobs.len(), None)
            .map_err(|e| format!("cannot create the journal: {e}"))?;
        let sink = StreamingSink::create(spec, dir)
            .map_err(|e| format!("cannot open the row streams: {e}"))?;
        let configs: Vec<MicroarchConfig> = spec.configs.iter().map(|p| p.build()).collect();
        let rows = tracer.span("simulate", root, 0, |phase| {
            pool::run_indexed(c.threads, jobs, |_, job| {
                let item = job.index as u64;
                let data = generated
                    .data_for(job.workload, job.seed)
                    .expect("every job's point is generated");
                let stats = tracer.span("row", phase, item, |_| {
                    data.run_with_predictor_engine(
                        job.mechanism,
                        &configs[job.config],
                        spec.predictor,
                        SimEngine::EventHorizon,
                    )
                });
                tracer
                    .span("journal.append", phase, item, |_| {
                        journal.record(job, &stats)
                    })
                    .map_err(|e| format!("journal append failed: {e}"))?;
                tracer
                    .span("sink.record", phase, item, |_| sink.record(job, &stats))
                    .map_err(|e| format!("row stream append failed: {e}"))?;
                Ok(stats)
            })
        });
        let stats = rows
            .into_iter()
            .collect::<Result<Vec<SimStats>, String>>()?;
        tracer
            .span("report", root, 0, |_| {
                let report = assemble_report(spec, jobs, generated.effective_run(), c.smoke, stats);
                write_reports(&report, dir)
            })
            .map_err(|e| format!("cannot write the reports: {e}"))?;
        Ok(())
    })
}

/// One (point, mechanism) row of the engine section.
struct EngineRow {
    point: usize,
    mechanism: Mechanism,
    stats: SimStats,
    stepped: u64,
    trickled: u64,
    streamed: u64,
}

/// Every point under each of the seven mechanisms: timed on the
/// event-horizon engine and on the per-cycle reference, then run once more
/// instrumented for the post-warmup engine counters. The three runs must
/// agree exactly.
fn engine_rows(
    c: &Campaign,
    generated: &GeneratedWorkloads,
    tracer: &Tracer,
    check: &mut Checker<'_>,
) -> Vec<EngineRow> {
    let points = points(c);
    let config = c.spec.configs[0].build();
    let predictor = c.spec.predictor;
    let warmup = generated.effective_run().warmup_blocks;
    let classes: Vec<Vec<u8>> = points
        .iter()
        .map(|&(w, s)| latency_classes(generated.data_for(w, s).expect("generated point")))
        .collect();
    let items: Vec<(usize, Mechanism)> = (0..points.len())
        .flat_map(|p| MECHANISMS.map(|m| (p, m)))
        .collect();
    let rows = tracer.span("engine", None, 0, |section| {
        pool::run_indexed(c.threads, &items, |item, &(point, mechanism)| {
            let (w, s) = points[point];
            let data = generated.data_for(w, s).expect("generated point");
            let run = |name, engine| {
                tracer.span(name, section, item as u64, |_| {
                    data.run_with_predictor_engine(mechanism, &config, predictor, engine)
                })
            };
            let horizon = run("engine.horizon", SimEngine::EventHorizon);
            let reference = run("engine.reference", SimEngine::PerCycleReference);
            let mut sim = Simulator::with_predictor(
                config.clone(),
                &data.layout,
                data.trace.blocks(),
                Box::new(mechanism.build_any()),
                predictor,
            );
            sim.use_backend_latency_classes(&classes[point]);
            sim.begin_run(warmup);
            sim.advance_to_block(warmup);
            let at_warmup = (
                sim.stepped_cycles(),
                sim.trickled_cycles(),
                sim.bulk_fetched_cycles(),
            );
            sim.advance_to_block(usize::MAX);
            let stats = sim.finish_run();
            let row = EngineRow {
                point,
                mechanism,
                stats,
                stepped: sim.stepped_cycles() - at_warmup.0,
                trickled: sim.trickled_cycles() - at_warmup.1,
                streamed: sim.bulk_fetched_cycles() - at_warmup.2,
            };
            (row, horizon == reference && horizon == stats)
        })
    });
    let mismatched = rows.iter().filter(|(_, same)| !same).count();
    if mismatched > 0 {
        check.problems.push(format!(
            "{mismatched} engine rows differ between the event-horizon, reference and instrumented runs"
        ));
    }
    rows.into_iter().map(|(row, _)| row).collect()
}

fn latency_classes(data: &WorkloadData) -> Vec<u8> {
    let profile = data.layout.profile();
    profile
        .backend
        .latency_classes(profile.seed, data.trace.instructions() as usize)
}

/// Operation counts of one point's component replays.
#[derive(Default)]
struct Replay {
    /// Conditional branches in the whole trace and after warmup.
    conditionals: u64,
    conditionals_post: u64,
    /// Blocks in the whole trace and after warmup.
    blocks: u64,
    blocks_post: u64,
    l1i_ops: u64,
    backend_ops: u64,
}

impl Replay {
    fn tage_ops(&self) -> u64 {
        2 * self.conditionals
    }

    fn btb_ops(&self) -> u64 {
        2 * self.blocks
    }
}

/// Replays each point's correct path through each component alone.
fn replay_components(c: &Campaign, generated: &GeneratedWorkloads, tracer: &Tracer) -> Vec<Replay> {
    let points = points(c);
    let config = c.spec.configs[0].build();
    let warmup = generated.effective_run().warmup_blocks;
    tracer.span("replay", None, 0, |section| {
        pool::run_indexed(c.threads, &points, |item, &(w, s)| {
            let data = generated.data_for(w, s).expect("generated point");
            let blocks = data.trace.blocks();
            let item = item as u64;
            let mut replay = Replay {
                blocks: blocks.len() as u64,
                blocks_post: blocks.len().saturating_sub(warmup) as u64,
                ..Replay::default()
            };
            let mut predictor = c.spec.predictor.build(config.predictor_budget_bytes);
            (replay.conditionals, replay.conditionals_post) =
                tracer.span("tage.replay", section, item, |_| {
                    replay_tage(&mut *predictor, blocks, warmup)
                });
            tracer.span("btb.replay", section, item, |_| replay_btb(&config, blocks));
            replay.l1i_ops =
                tracer.span("l1i.replay", section, item, |_| replay_l1i(&config, data));
            let classes = latency_classes(data);
            replay.backend_ops = tracer.span("backend.replay", section, item, |_| {
                replay_backend(&config, data, &classes)
            });
            replay
        })
    })
}

/// Predict and update every conditional branch; returns the conditional
/// count over the whole trace and after warmup.
fn replay_tage(
    predictor: &mut dyn DirectionPredictor,
    blocks: &[DynamicBlock],
    warmup: usize,
) -> (u64, u64) {
    let (mut all, mut post) = (0, 0);
    for (i, block) in blocks.iter().enumerate() {
        let terminator = block
            .block
            .terminator
            .expect("trace blocks carry a terminator");
        if terminator.kind == BranchKind::Conditional {
            black_box(predictor.predict(terminator.pc));
            predictor.update(terminator.pc, block.outcome.taken);
            all += 1;
            post += u64::from(i >= warmup);
        }
    }
    (all, post)
}

/// Look up and fill every block, as the front end does at prediction and
/// at commit.
fn replay_btb(config: &MicroarchConfig, blocks: &[DynamicBlock]) {
    let mut btb = BasicBlockBtb::new(config.btb_entries, config.btb_ways);
    for block in blocks {
        let terminator = block
            .block
            .terminator
            .expect("trace blocks carry a terminator");
        black_box(btb.lookup(block.start()));
        let mut entry = BtbEntry::from_block(block.start(), block.instructions(), terminator);
        if entry.target.is_none() && block.outcome.taken {
            entry.target = Some(block.outcome.next_pc);
        }
        btb.insert(entry);
    }
}

/// Demand-fetch every cache line the correct path enters; returns the
/// fetch count.
fn replay_l1i(config: &MicroarchConfig, data: &WorkloadData) -> u64 {
    let mut hierarchy = InstructionHierarchy::new(config);
    let geometry = data.layout.geometry();
    let (mut now, mut ops, mut last) = (0, 0, None);
    for block in data.trace.blocks() {
        for line in geometry.lines_spanned(block.start(), block.instructions()) {
            if last != Some(line) {
                now += black_box(hierarchy.demand_fetch(line, now)).latency;
                ops += 1;
                last = Some(line);
            }
        }
    }
    ops
}

/// Push every instruction into the ROB at fetch width per cycle, retiring
/// each cycle; returns the push and retire call count.
fn replay_backend(config: &MicroarchConfig, data: &WorkloadData, classes: &[u8]) -> u64 {
    let profile = data.layout.profile();
    let mut backend = BackEnd::new(config, profile.backend, profile.seed);
    backend.use_latency_classes(classes);
    let (mut now, mut ops) = (0, 0);
    for block in data.trace.blocks() {
        let mut left = block.instructions();
        while left > 0 {
            black_box(backend.retire(now));
            left -= backend.push_instructions(left.min(config.fetch_width), now);
            now += 1;
            ops += 2;
        }
    }
    ops
}

/// Round trips of a `RowDone` frame over a loopback TCP pair whose far end
/// echoes every frame back.
fn frame_round_trips(c: &Campaign, tracer: &Tracer) -> Result<(), String> {
    let io = |e: std::io::Error| format!("loopback frame probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let frame = Message::RowDone {
        lease: 1,
        job: 0,
        spec_hash: c.hash.clone(),
        mechanism: mechanism_token(MECHANISMS[6]),
        seed: 0,
        row_fnv: 0,
        stats: vec![0; ROW_DONE_STATS],
    };
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            loop {
                match read_message(&mut peer) {
                    Ok(msg) => write_message(&mut peer, &msg)?,
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        });
        let client = (|| -> std::io::Result<()> {
            let mut conn = TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            for round in 0..RTT_ROUNDS {
                tracer.span("proto.rtt", None, round, |_| {
                    write_message(&mut conn, &frame)?;
                    read_message(&mut conn).map(drop)
                })?;
            }
            Ok(())
        })();
        let echoed = echo.join().expect("the echo thread does not panic");
        client.and(echoed).map_err(io)
    })
}

fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    durations_ms(spans, name)
        .into_iter()
        .map(|ms| ms * 1e3)
        .collect()
}

/// Durations of the spans named `name`, in milliseconds, indexed by item.
fn ms_by_item(spans: &[Span], name: &str, items: usize) -> Vec<f64> {
    let mut ms = vec![0.0; items];
    for s in spans.iter().filter(|s| s.name == name) {
        ms[s.item as usize] = s.ms();
    }
    ms
}

fn setup_values(spans: &[Span], values: &mut Values) {
    for (metric, span) in [
        ("workloads.layout_ms", "workloads.layout"),
        ("workloads.trace_ms", "workloads.trace"),
        ("workloads.latency_classes_ms", "workloads.latency_classes"),
        ("artifact.load_ms", "artifact.load"),
        ("artifact.store_ms", "artifact.store"),
    ] {
        values.set(metric, durations_ms(spans, span).iter().sum());
    }
}

/// Metrics of the replica passes: row and append distributions, phase
/// reconciliation, self times, tracing overhead.
fn pass_values(spans: &[Span], own: &[u64], passes: &Passes, threads: usize, values: &mut Values) {
    let in_passes = |name: &str| -> Vec<(usize, &Span)> {
        passes
            .traced
            .iter()
            .flat_map(|r| r.clone())
            .filter(|&i| spans[i].name == name)
            .map(|i| (i, &spans[i]))
            .collect()
    };
    let rows: Vec<f64> = in_passes("row").iter().map(|(_, s)| s.ms()).collect();
    values.set(
        "row_ms.p50",
        percentile(&rows, 50.0).expect("enough row samples"),
    );
    values.set(
        "row_ms.p90",
        percentile(&rows, 90.0).expect("enough row samples"),
    );
    values.set("row_ms.samples", rows.len() as f64);
    let appends: Vec<f64> = in_passes("journal.append")
        .iter()
        .map(|(_, s)| s.ms() * 1e3)
        .collect();
    values.set(
        "journal.append_us.p50",
        percentile(&appends, 50.0).expect("one append per row"),
    );
    values.set(
        "journal.append_us.p90",
        percentile(&appends, 90.0).expect("one append per row"),
    );
    values.set(
        "journal.replay_ms",
        median(&durations_ms(spans, "journal.replay")),
    );
    let reports: Vec<f64> = in_passes("report").iter().map(|(_, s)| s.ms()).collect();
    values.set("sink.report_ms", median(&reports));

    // Reconciliation: the rows' summed time against the simulate phase's
    // wall on `threads` threads, pass by pass.
    let mut phase_ms = Vec::new();
    let mut row_sum_ms = Vec::new();
    let mut efficiency = Vec::new();
    let mut simulate_self = Vec::new();
    for (i, phase) in in_passes("simulate") {
        let sum: f64 = spans
            .iter()
            .filter(|s| s.name == "row" && s.parent == Some(SpanId(i)))
            .map(Span::ms)
            .sum();
        phase_ms.push(phase.ms());
        row_sum_ms.push(sum);
        efficiency.push(sum / (threads as f64 * phase.ms()));
        simulate_self.push(own[i] as f64 / 1e6);
    }
    values.set("sim.phase_ms", median(&phase_ms));
    values.set("sim.row_sum_ms", median(&row_sum_ms));
    values.set("pool.efficiency", median(&efficiency));
    values.set("self_ms.simulate", median(&simulate_self));
    let campaign_self: Vec<f64> = in_passes("campaign")
        .iter()
        .map(|&(i, _)| own[i] as f64 / 1e6)
        .collect();
    values.set("self_ms.campaign", median(&campaign_self));
    values.set(
        "trace.overhead_frac",
        median(&passes.traced_walls) / median(&passes.untraced_walls) - 1.0,
    );
    println!("row_ms: {}", describe(&rows));
    println!("journal.append_us: {}", describe(&appends));
    println!(
        "replica walls: untraced {}, traced {}",
        describe(&passes.untraced_walls),
        describe(&passes.traced_walls)
    );
}

/// Engine-section and component-replay metrics, and the attribution of row
/// time to the replayed components.
fn engine_values(spans: &[Span], rows: &[EngineRow], replays: &[Replay], values: &mut Values) {
    let horizon = ms_by_item(spans, "engine.horizon", rows.len());
    let reference = ms_by_item(spans, "engine.reference", rows.len());
    values.set("engine.horizon_ms", horizon.iter().sum());
    values.set("engine.reference_ms", reference.iter().sum());

    let mean_of = |m: Mechanism| -> f64 {
        let ms: Vec<f64> = rows
            .iter()
            .zip(&horizon)
            .filter(|(r, _)| r.mechanism == m)
            .map(|(_, &ms)| ms)
            .collect();
        ms.iter().sum::<f64>() / ms.len() as f64
    };
    let baseline = mean_of(Mechanism::Baseline);
    for m in MECHANISMS {
        let row_ms = mean_of(m);
        let name = |prefix: &str| {
            let full = format!("{prefix}.{}", mechanism_token(m));
            LAYERS
                .iter()
                .find(|l| l.name == full)
                .expect("every mechanism has catalogue entries")
                .name
        };
        values.set(name("row_ms"), row_ms);
        if m != Mechanism::Baseline {
            values.set(name("mech_overhead_ms"), row_ms - baseline);
        }
    }

    let stepped: u64 = rows.iter().map(|r| r.stepped).sum();
    let trickled: u64 = rows.iter().map(|r| r.trickled).sum();
    let streamed: u64 = rows.iter().map(|r| r.streamed).sum();
    let cycles: u64 = rows.iter().map(|r| r.stats.cycles).sum();
    values.set("engine.stepped_cycles", stepped as f64);
    values.set("engine.trickled_cycles", trickled as f64);
    values.set("engine.streamed_cycles", streamed as f64);
    values.set(
        "engine.skipped_cycles",
        cycles as f64 - (stepped + trickled + streamed) as f64,
    );

    let replay_ms = |name| ms_by_item(spans, name, replays.len());
    let tage = replay_ms("tage.replay");
    let btb = replay_ms("btb.replay");
    let l1i = replay_ms("l1i.replay");
    let backend = replay_ms("backend.replay");
    let ops = |f: fn(&Replay) -> u64| -> u64 { replays.iter().map(f).sum() };
    let ns_per_op = |ms: &[f64], ops: u64| ms.iter().sum::<f64>() * 1e6 / ops as f64;
    let (tage_ops, btb_ops) = (ops(Replay::tage_ops), ops(Replay::btb_ops));
    let (l1i_ops, backend_ops) = (ops(|r| r.l1i_ops), ops(|r| r.backend_ops));
    values.set("tage.ops", tage_ops as f64);
    values.set("tage.ns_per_op", ns_per_op(&tage, tage_ops));
    values.set("btb.ops", btb_ops as f64);
    values.set("btb.ns_per_op", ns_per_op(&btb, btb_ops));
    values.set("l1i.ops", l1i_ops as f64);
    values.set("l1i.ns_per_op", ns_per_op(&l1i, l1i_ops));
    values.set("backend.ops", backend_ops as f64);
    values.set("backend.ns_per_op", ns_per_op(&backend, backend_ops));

    // Each row's share explained by the replays, scaled by the row's own
    // operation counts: updates and fills happen once per committed block,
    // predictions and lookups as often as the row's post-warmup counts say,
    // hierarchy and back-end work once per correct-path line and
    // instruction.
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    let attributed: f64 = rows
        .iter()
        .map(|r| {
            let p = r.point;
            let replay = &replays[p];
            let tage_scale =
                (1.0 + ratio(r.stats.conditional_predictions, replay.conditionals_post)) / 2.0;
            let btb_scale = (1.0 + ratio(r.stats.btb_lookups, replay.blocks_post)) / 2.0;
            tage[p] * tage_scale + btb[p] * btb_scale + l1i[p] + backend[p]
        })
        .sum();
    values.set(
        "sim.unattributed_frac",
        1.0 - attributed / horizon.iter().sum::<f64>(),
    );
}

/// Simulated-design values of the campaign's rows (from its first
/// untraced repeat).
fn model_values(c: &Campaign, check: &Checker<'_>, values: &mut Values) {
    let Some(rows) = check.rows() else {
        return;
    };
    let Some(stats) = (0..c.jobs.len())
        .map(|i| rows.get(&i).copied())
        .collect::<Option<Vec<SimStats>>>()
    else {
        return;
    };
    let sum = |f: fn(&SimStats) -> u64| -> f64 { stats.iter().map(f).sum::<u64>() as f64 };
    values.set("model.instructions", sum(|s| s.instructions));
    values.set("model.cycles", sum(|s| s.cycles));
    values.set(
        "model.btb_miss_rate",
        sum(|s| s.btb_misses) / sum(|s| s.btb_lookups),
    );
    values.set(
        "model.mispredict_rate",
        sum(|s| s.conditional_mispredictions) / sum(|s| s.conditional_predictions),
    );
    let report = assemble_report(&c.spec, &c.jobs, run_length(c), c.smoke, stats);
    let logs: Vec<f64> = report
        .rows
        .iter()
        .filter(|r| matches!(r.job.mechanism, Mechanism::Boomerang(_)))
        .map(|r| r.speedup().ln())
        .collect();
    values.set(
        "model.boomerang_speedup_geomean",
        (logs.iter().sum::<f64>() / logs.len() as f64).exp(),
    );
}
