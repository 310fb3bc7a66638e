//! End-to-end mining benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lattice-sparse|dense-deep|session-explore> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Draws the workload's database from the seed, writes it in the `ccs`
//! text format, and reads it back through `ccs::dataset` (set-up). After
//! one untimed warm-up pass, it answers the workload's request list a
//! fixed number of times (about `--seconds` of work on the reference
//! host), each query by two algorithms whose answer sets must agree.
//! `--trace 0` drives `MiningSession` with `CountingStrategy::Auto` and
//! reports the end-to-end metrics; `--trace 1` alternates those passes
//! with traced passes that run the same requests through `mine_on` with
//! timing wrappers, and reports the per-layer metrics. The last line of
//! standard output is one JSON object; a run with any failed request
//! exits with code 1. README.md beside this crate defines every metric.

mod trace;
mod workload;
mod wrap;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccs::constraints::{analyze, AttributeTable};
use ccs::core::{
    mine_on, Algorithm, CheckpointCadence, CheckpointPolicy, Completion, CorrelationQuery,
    CountingStrategy, FileSink, MineRequest, MiningMetrics, MiningResult, MiningSession,
};
use ccs::dataset::{read_attrs, read_db, write_attrs, write_db};
use ccs::itemset::{Itemset, TransactionDb};
use ccs::query::parse_query;

use trace::Tracer;
use workload::Workload;
use wrap::{build_counter, TimedCounter, TimedSink};

/// Set-up repetitions before each untraced pass (plus one before the
/// first); `setup_s` is their median.
const SETUP_REPS_PER_PASS: usize = 2;
/// Fewest passes over the request list per mode, whatever `--seconds`.
const MIN_PASSES: usize = 3;
/// No pass starts after this much measuring, so a run ends well inside
/// three minutes even when the program gets much slower (its sample
/// counts then shrink, which the facts line shows).
const HARD_STOP: Duration = Duration::from_secs(100);

const USAGE: &str = "usage: perfbench --workload <lattice-sparse|dense-deep|session-explore> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::find(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The run's working directory; removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Everything a pass needs: the loaded inputs and the request list.
struct Ctx<'w> {
    w: &'w Workload,
    db: TransactionDb,
    attrs: AttributeTable,
    queries: Vec<String>,
    /// What `Auto` resolves to for this database on this host.
    strategy: CountingStrategy,
    checkpoint_path: PathBuf,
}

/// What one successful request returned.
#[derive(Clone)]
struct Outcome {
    digest: u64,
    answers: usize,
    metrics: MiningMetrics,
    strategy: CountingStrategy,
}

struct Record {
    query: usize,
    algorithm: Algorithm,
    traced: bool,
    latency_s: f64,
    outcome: Result<Outcome, String>,
}

/// Set-up: read the database and attribute files through the program's
/// own loader and open a session. Repeated between passes, so the
/// reported median spans the whole run rather than one moment of it.
struct Setup<'t> {
    db_path: PathBuf,
    attrs_path: PathBuf,
    tracer: Option<&'t Tracer>,
    setup_s: Vec<f64>,
    read_s: Vec<f64>,
}

impl Setup<'_> {
    /// One timed set-up; returns what it loaded.
    fn once(&mut self) -> Result<(TransactionDb, AttributeTable), String> {
        let _root = self.tracer.map(|t| t.request("setup"));
        let start = Instant::now();
        let (db, attrs) = {
            let _span = self.tracer.map(|t| t.span("dataset.read"));
            let read = |path: &PathBuf| {
                File::open(path)
                    .map(BufReader::new)
                    .map_err(|e| format!("read {}: {e}", path.display()))
            };
            let db = read_db(read(&self.db_path)?)
                .map_err(|e| format!("read {}: {e}", self.db_path.display()))?;
            let attrs = read_attrs(read(&self.attrs_path)?)
                .map_err(|e| format!("read {}: {e}", self.attrs_path.display()))?;
            (db, attrs)
        };
        self.read_s.push(start.elapsed().as_secs_f64());
        black_box(MiningSession::new(&db, &attrs));
        self.setup_s.push(start.elapsed().as_secs_f64());
        Ok((db, attrs))
    }
}

/// Order-independent FNV-1a digest of an answer set.
fn digest(answers: &[Itemset]) -> u64 {
    let mut sorted: Vec<&Itemset> = answers.iter().collect();
    sorted.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for set in sorted {
        for item in set.iter() {
            for b in item.0.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h = (h ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn finish(result: MiningResult, strategy: CountingStrategy) -> Result<Outcome, String> {
    if result.completion != Completion::Complete {
        return Err(format!("incomplete run: {:?}", result.completion));
    }
    Ok(Outcome {
        digest: digest(&result.answers),
        answers: result.answers.len(),
        metrics: result.metrics,
        strategy,
    })
}

fn query_for(ctx: &Ctx, parsed: ccs::query::ParsedQuery) -> CorrelationQuery {
    CorrelationQuery {
        params: ctx.w.params(),
        constraints: parsed.constraints,
    }
}

/// One untraced request, as the `ccs mine` command runs it.
fn request(
    ctx: &Ctx,
    session: &mut MiningSession,
    text: &str,
    algorithm: Algorithm,
) -> Result<Outcome, String> {
    let parsed = parse_query(text, &ctx.attrs).map_err(|e| format!("parse: {e}"))?;
    let query = query_for(ctx, parsed);
    let mut request = MineRequest::new(algorithm).strategy(CountingStrategy::Auto);
    if ctx.w.checkpoint {
        request = request.checkpoint(CheckpointPolicy::file(
            &ctx.checkpoint_path,
            CheckpointCadence::EveryLevel,
        ));
    }
    let outcome = session
        .mine(&query, &request)
        .map_err(|e| format!("mine: {e}"))?;
    if let Some(err) = outcome.checkpoint.as_ref().and_then(|r| r.error.as_ref()) {
        return Err(format!("checkpoint: {err}"));
    }
    finish(outcome.result, outcome.strategy)
}

/// The same request with every layer call timed: parse, analyze, the
/// counter build (when `slot` is empty), and the mine, whose counting
/// calls, verdict replays and checkpoint commits the wrappers time.
fn traced_request<'d>(
    ctx: &'d Ctx,
    tracer: &Arc<Tracer>,
    slot: &mut Option<TimedCounter<'d>>,
    text: &str,
    algorithm: Algorithm,
) -> Result<Outcome, String> {
    let _root = tracer.request("request");
    let parsed = {
        let _span = tracer.span("query.parse");
        parse_query(text, &ctx.attrs)
    }
    .map_err(|e| format!("parse: {e}"))?;
    {
        let _span = tracer.span("constraints.analyze");
        black_box(analyze(&parsed.constraints, &ctx.attrs)).map_err(|e| format!("analyze: {e}"))?;
    }
    let query = query_for(ctx, parsed);
    let counter = match slot {
        Some(counter) => counter,
        None => {
            let _span = tracer.span("counting.build");
            let inner = build_counter(&ctx.db, ctx.strategy).ok_or_else(|| {
                format!("this benchmark cannot build the {} counter", ctx.strategy)
            })?;
            slot.insert(TimedCounter::new(inner, Arc::clone(tracer)))
        }
    };
    counter.set_measure(
        query
            .params
            .measure_context()
            .map_err(|e| format!("measure: {e}"))?,
    );
    let mut request = MineRequest::new(algorithm);
    if ctx.w.checkpoint {
        let sink = TimedSink::new(FileSink::new(&ctx.checkpoint_path), Arc::clone(tracer));
        request = request.checkpoint(CheckpointPolicy::new(
            Box::new(sink),
            CheckpointCadence::EveryLevel,
        ));
    }
    let errors_before = tracer.tally().commit_errors;
    let result = {
        let _span = tracer.span("core.mine");
        mine_on(&ctx.db, &ctx.attrs, &query, &request, counter)
    }
    .map_err(|e| format!("mine: {e}"))?;
    if tracer.tally().commit_errors != errors_before {
        return Err("checkpoint commit failed".to_owned());
    }
    finish(result, ctx.strategy)
}

/// Answers the whole request list once; returns the pass wall time.
fn pass(ctx: &Ctx, tracer: Option<&Arc<Tracer>>, records: &mut Vec<Record>) -> f64 {
    let start = Instant::now();
    let mut warm_session = ctx
        .w
        .warm_session
        .then(|| MiningSession::new(&ctx.db, &ctx.attrs));
    let mut warm_counter = None;
    for (query, text) in ctx.queries.iter().enumerate() {
        for &algorithm in &ctx.w.pair {
            let t0 = Instant::now();
            let outcome = match tracer {
                None => match &mut warm_session {
                    Some(session) => request(ctx, session, text, algorithm),
                    None => request(
                        ctx,
                        &mut MiningSession::new(&ctx.db, &ctx.attrs),
                        text,
                        algorithm,
                    ),
                },
                Some(tracer) => {
                    let mut cold = None;
                    let slot = if ctx.w.warm_session {
                        &mut warm_counter
                    } else {
                        &mut cold
                    };
                    traced_request(ctx, tracer, slot, text, algorithm)
                }
            };
            records.push(Record {
                query,
                algorithm,
                traced: tracer.is_some(),
                latency_s: t0.elapsed().as_secs_f64(),
                outcome,
            });
        }
    }
    start.elapsed().as_secs_f64()
}

/// The work counters of a run, which repeat exactly for the same
/// request (wall time and any other timing field do not).
fn work_counters(m: &MiningMetrics) -> [u64; 8] {
    [
        m.candidates_generated,
        m.tables_built,
        m.pruned_before_count,
        m.cells_counted,
        m.cache_hits,
        m.max_level_reached as u64,
        m.sig_size,
        m.notsig_size,
    ]
}

/// The first answer to each (query, algorithm name).
type Reference = BTreeMap<(usize, &'static str), (Algorithm, Outcome)>;

/// Marks each record failed or not. A request fails when it errors or
/// is truncated; when its answers differ from the first answer to the
/// same request (across passes, and between traced and untraced runs);
/// when its work counters or counting strategy differ from that first
/// answer's; or when the two algorithms of its query disagree.
fn check(records: &[Record]) -> (Vec<Option<String>>, Reference) {
    let mut reference = Reference::new();
    let key = |r: &Record| (r.query, r.algorithm.name());
    for r in records {
        if let Ok(o) = &r.outcome {
            reference
                .entry(key(r))
                .or_insert_with(|| (r.algorithm, o.clone()));
        }
    }
    let pair_mismatch = |query: usize| {
        let digests: Vec<u64> = reference
            .range((query, "")..(query + 1, ""))
            .map(|(_, (_, o))| o.digest)
            .collect();
        digests.windows(2).any(|w| w[0] != w[1])
    };
    let verdicts = records
        .iter()
        .map(|r| {
            let o = match &r.outcome {
                Err(e) => return Some(e.clone()),
                Ok(o) => o,
            };
            let (_, first) = &reference[&key(r)];
            if o.digest != first.digest {
                Some("answers differ from the first answer to this request".to_owned())
            } else if work_counters(&o.metrics) != work_counters(&first.metrics) {
                Some("work counters differ from the first answer to this request".to_owned())
            } else if o.strategy != first.strategy {
                Some(format!(
                    "counted with {} where the first answer used {}",
                    o.strategy, first.strategy
                ))
            } else if pair_mismatch(r.query) {
                Some("the paired algorithms returned different answer sets".to_owned())
            } else {
                None
            }
        })
        .collect();
    (verdicts, reference)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value at the highest percentile that still has ten samples above
/// it, and that percentile (the maximum, labelled 100, below 11 samples).
fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Peak resident memory of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build facts recorded with every result.
fn host_facts(out: &mut String) {
    let online = fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features: Vec<String> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| format!("\"{name}\""))
    .collect();
    let _ = write!(
        out,
        "\"nproc\":{online},\"available_parallelism\":{available},\
         \"target_features\":[{}],\"rustflags\":\"{}\"",
        features.join(","),
        env!("PERFBENCH_RUSTFLAGS").replace('"', "'")
    );
}

fn metric_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let root = work_root();
    let dir = WorkDir(root.join(format!("{}-{}-{}", w.name, args.seed, std::process::id())));
    fs::create_dir_all(&dir.0).map_err(|e| format!("create {}: {e}", dir.0.display()))?;

    // Inputs: the seeded database and identity prices, written in the
    // `ccs` text format (not timed).
    let db_path = dir.0.join("db.baskets");
    let attrs_path = dir.0.join("db.attrs");
    {
        let db = w.database(args.seed);
        let attrs = AttributeTable::with_identity_prices(db.n_items());
        let write = |path: &PathBuf, f: &dyn Fn(&mut BufWriter<File>) -> std::io::Result<()>| {
            File::create(path)
                .and_then(|file| {
                    let mut out = BufWriter::new(file);
                    f(&mut out)?;
                    out.flush()
                })
                .map_err(|e| format!("write {}: {e}", path.display()))
        };
        write(&db_path, &|out| write_db(&db, out))?;
        write(&attrs_path, &|out| write_attrs(&attrs, out))?;
    }

    let tracer = Arc::new(Tracer::new());
    let mut setup = Setup {
        db_path,
        attrs_path,
        tracer: args.trace.then_some(&*tracer),
        setup_s: Vec::new(),
        read_s: Vec::new(),
    };
    let (db, attrs) = setup.once()?;
    let ctx = Ctx {
        w,
        strategy: CountingStrategy::Auto.resolve(&db, None, None),
        queries: w.queries(args.seed),
        checkpoint_path: dir.0.join("run.ccs"),
        db,
        attrs,
    };

    // A traced run splits its time between untraced and traced passes.
    let passes = w.passes(
        if args.trace {
            args.seconds / 2
        } else {
            args.seconds
        },
        MIN_PASSES,
    );
    // One untimed pass first, so caches fill and lazy set-up finishes
    // before timing. Its answers still go through the correctness gate.
    let mut records = Vec::new();
    pass(&ctx, None, &mut records);
    let warm_up = records.len();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let measure = Instant::now();
    while walls.len() < passes && measure.elapsed() < HARD_STOP {
        for _ in 0..SETUP_REPS_PER_PASS {
            setup.once()?;
        }
        walls.push(pass(&ctx, None, &mut records));
        if args.trace {
            traced_walls.push(pass(&ctx, Some(&tracer), &mut records));
        }
    }

    let (verdicts, reference) = check(&records);
    let failed = verdicts.iter().filter(|v| v.is_some()).count();
    for (r, v) in records.iter().zip(&verdicts) {
        if let Some(why) = v {
            eprintln!(
                "FAILED q{} {} ({}): {why}",
                r.query,
                r.algorithm.name(),
                if r.traced { "traced" } else { "untraced" }
            );
        }
    }
    for ((query, _), (algorithm, o)) in &reference {
        println!(
            "digest q{query} {:<6} {:016x} answers={:<5} tables={:<9} mine_ms={:<9.1} [{}]",
            algorithm.name(),
            o.digest,
            o.answers,
            o.metrics.tables_built,
            o.metrics.elapsed.as_secs_f64() * 1e3,
            ctx.queries[*query]
        );
    }

    let untraced: Vec<f64> = records[warm_up..]
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.latency_s * 1e3)
        .collect();
    let (tail_ms, tail_pct) = tail(&untraced);

    let mut facts = String::from("{");
    host_facts(&mut facts);
    let _ = write!(
        facts,
        ",\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"auto_strategy\":\"{}\",\
         \"db\":{{\"baskets\":{},\"items\":{},\"avg_len\":{:.3},\"density\":{:.4}}},\
         \"support\":{},\"algorithms\":[\"{}\",\"{}\"],\"requests_per_pass\":{},\
         \"passes\":{},\"traced_passes\":{},\"request_samples\":{},\
         \"tail_percentile\":{:.2},\"setup_reps\":{},\"pass_walls_s\":[{}]}}",
        w.name,
        args.seed,
        u8::from(args.trace),
        ctx.strategy,
        ctx.db.len(),
        ctx.db.n_items(),
        ctx.db.avg_transaction_len(),
        ctx.db.avg_transaction_len() / f64::from(ctx.db.n_items().max(1)),
        w.support,
        w.pair[0].name(),
        w.pair[1].name(),
        ctx.queries.len() * w.pair.len(),
        walls.len(),
        traced_walls.len(),
        untraced.len(),
        tail_pct,
        setup.setup_s.len(),
        walls
            .iter()
            .map(|w| format!("{w:.4}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    println!("facts {facts}");

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let spans = root.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        File::create(&spans)
            .and_then(|f| {
                let mut out = BufWriter::new(f);
                tracer.write_jsonl(&mut out)?;
                out.flush()
            })
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        println!("spans {}", spans.display());
        per_layer(&tracer, &records, &setup.read_s, &walls, &traced_walls)
    } else {
        vec![
            ("setup_s", median(&setup.setup_s), "s"),
            ("wall_s", median(&walls), "s"),
            ("request_ms.p50", median(&untraced), "ms"),
            ("request_ms.tail", tail_ms, "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    let attempted = records.len();
    println!(
        "failed_frac {} ({failed} of {attempted} requests)",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        println!("metric {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metric_json(&metrics)
    );
    Ok(failed == 0)
}

/// The per-layer metrics of a traced run. Totals are per pass over the
/// request list (summed over traced passes, divided by their number);
/// shares are of traced request wall time.
fn per_layer(
    tracer: &Tracer,
    records: &[Record],
    read_s: &[f64],
    walls: &[f64],
    traced_walls: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let layers = tracer.layers();
    let tally = tracer.tally();
    let passes = traced_walls.len().max(1) as f64;
    let total = |name: &str| layers.get(name).map_or(0, |l| l.total_ns) as f64 * 1e-9;
    let own = |name: &str| layers.get(name).map_or(0, |l| l.self_ns) as f64 * 1e-9;
    let median_of = |name: &str, scale: f64| {
        layers.get(name).map_or(0.0, |l| {
            median(
                &l.durations_ns
                    .iter()
                    .map(|&d| d as f64 * scale)
                    .collect::<Vec<_>>(),
            )
        })
    };
    let request_s = total("request");
    let counting_s = total("counting.batch");

    let mut sums = MiningMetrics::default();
    let mut answers = 0u64;
    for o in records
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| r.outcome.as_ref().ok())
    {
        sums.merge(&o.metrics);
        answers += o.answers as u64;
    }
    let per_pass = |x: u64| x as f64 / passes;
    let overhead = median(traced_walls) - median(walls);
    vec![
        ("dataset.read_s", median(read_s), "s"),
        ("query.parse_us", median_of("query.parse", 1e-3), "us"),
        (
            "constraints.analyze_us",
            median_of("constraints.analyze", 1e-3),
            "us",
        ),
        ("core.self_s", own("core.mine") / passes, "s"),
        ("core.share", own("core.mine") / request_s, "ratio"),
        (
            "core.candidates",
            per_pass(sums.candidates_generated),
            "count",
        ),
        ("core.notsig", per_pass(sums.notsig_size), "count"),
        ("core.max_level", sums.max_level_reached as f64, "level"),
        ("core.tables_built", per_pass(sums.tables_built), "count"),
        ("core.cache_hits", per_pass(sums.cache_hits), "count"),
        (
            "core.cache_hit_ratio",
            sums.cache_hits as f64 / (sums.cache_hits + sums.tables_built).max(1) as f64,
            "ratio",
        ),
        (
            "core.pruned_before_count",
            per_pass(sums.pruned_before_count),
            "count",
        ),
        (
            "core.answer_ratio",
            answers as f64 / sums.tables_built.max(1) as f64,
            "ratio",
        ),
        ("counting.busy_s", counting_s / passes, "s"),
        ("counting.share", counting_s / request_s, "ratio"),
        ("counting.batches", per_pass(tally.batches), "count"),
        ("counting.sets", per_pass(tally.sets), "count"),
        (
            "counting.cells",
            per_pass(tally.counted.cells_counted),
            "count",
        ),
        (
            "counting.cells_per_s",
            tally.counted.cells_counted as f64 / counting_s,
            "1/s",
        ),
        (
            "counting.degraded_batches",
            per_pass(tally.counted.degraded_batches),
            "count",
        ),
        ("counting.build_s", median_of("counting.build", 1e-9), "s"),
        ("stats.verdicts", per_pass(tally.verdicts), "count"),
        (
            "stats.verdict_ns",
            total("stats.verdict") * 1e9 / tally.verdicts.max(1) as f64,
            "ns",
        ),
        ("persist.commits", per_pass(tally.commits), "count"),
        ("persist.bytes", per_pass(tally.commit_bytes), "bytes"),
        ("persist.commit_s", total("persist.commit") / passes, "s"),
        ("trace.overhead_s", overhead, "s"),
        ("trace.overhead_share", overhead / median(walls), "ratio"),
    ]
}
