//! Host-performance benchmark of the CLR-DRAM simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-fig12|policy-contention|fleet|table1-mc> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the benchmark repeats
//! the workload's batch through the library's public entry points until
//! `--seconds` have passed, timing a few fresh set-up processes before
//! each batch, checks that every batch repeats the first one's simulated
//! digest, and prints the end-to-end metrics. With
//! `--trace 1` it runs one untraced reference batch and one traced
//! replay of the same batch through each layer's public functions,
//! checks the replay is bit-identical, prints the per-layer metrics and
//! writes the spans to `perfbench/out/`. The last line of standard
//! output is always the JSON result; see `perfbench/README.md`.

mod replay;
mod span;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use span::Tracer;
use stats::{summarize, Summary};
use workloads::{Batch, Kind, TracedBatch};

/// Set-up processes started before each batch; `setup_s` is the median
/// over all of a run's, so the samples spread over the whole run.
const SETUP_PER_BATCH: usize = 5;
/// Where traced runs write their spans, relative to the repository root.
const TRACE_DIR: &str = "perfbench/out";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Only set the workload up, then exit (how `setup_s` is sampled).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = match (seconds, setup_only) {
        (Some(s), _) => s,
        (None, true) => 0.0,
        (None, false) => return Err("--seconds is required".into()),
    };
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.unwrap_or(false),
        setup_only,
    })
}

/// The git revision of the working directory, if it is a checkout.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number (metrics are always finite; NaN would be a bug).
fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric {v}");
    format!("{v}")
}

fn opt_num(v: Option<f64>) -> String {
    v.map_or("null".to_string(), num)
}

/// `{"n": .., "median": .., "tail_pct": .., "tail": ..}` of a summary.
fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\": {}, \"median\": {}, \"tail_pct\": {}, \"tail\": {}}}",
        s.n,
        num(s.median),
        opt_num(s.tail.map(|t| t.0)),
        opt_num(s.tail.map(|t| t.1)),
    )
}

/// The provenance block every result carries.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"scale\": {}, \
         \"nproc\": {nproc}, \"profile\": {}, \"rustc\": {}, \"git_rev\": {}, \
         \"work_unit\": {}}}",
        quote(args.kind.name()),
        args.seed,
        num(args.seconds),
        args.traced,
        quote(workloads::SCALE.label()),
        quote(env!("PERFBENCH_PROFILE")),
        quote(env!("PERFBENCH_RUSTC_VERSION")),
        git_revision().map_or("null".to_string(), |r| quote(&r)),
        quote(args.kind.work_unit()),
    )
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Prints the human table, the detail line and the result line.
fn report(metrics: &[Metric], attempted: u64, failed: u64, detail: &str) {
    for m in metrics {
        println!("  {:<28} {:>16} {}", m.name, num(m.value), m.unit);
    }
    println!("{detail}");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

/// Set-up time as a user pays it: starts this program `n` times in
/// `--setup-only` mode — process start, argument parsing and the
/// workload's set-up, up to where the first simulation call would be —
/// and times each to its exit.
fn setup_samples(args: &Args, n: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let status = Command::new(&exe)
                .args(["--workload", args.kind.name(), "--seed"])
                .arg(args.seed.to_string())
                .arg("--setup-only")
                .stdout(Stdio::null())
                .status()
                .expect("start the set-up process");
            assert!(status.success(), "set-up process failed: {status}");
            t.elapsed().as_secs_f64()
        })
        .collect()
}

fn print_problems(b: &Batch) {
    for p in &b.problems {
        eprintln!("check failed: {p}");
    }
}

/// `--trace 0`: repeat the batch for `--seconds`, report end to end.
fn untraced(args: &Args) {
    let t = Instant::now();
    let inputs = workloads::setup(args.kind, args.seed);
    let setup_in_process = t.elapsed().as_secs_f64();
    let budget = Duration::from_secs_f64(args.seconds);
    let t = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    let mut setup = Vec::new();
    while batches.is_empty() || t.elapsed() < budget {
        setup.extend(setup_samples(args, SETUP_PER_BATCH));
        let mut b = workloads::run_untraced(&inputs);
        if let Some(first) = batches.first() {
            b.check_against(first, "batch digest vs first batch");
        }
        print_problems(&b);
        batches.push(b);
    }
    let walls: Vec<f64> = batches.iter().map(|b| b.wall_s).collect();
    let wall = summarize(&walls);
    let work: f64 = batches.iter().map(|b| b.work).sum();
    let attempted: u64 = batches.iter().map(|b| b.attempted).sum();
    let failed: u64 = batches.iter().map(|b| b.failed).sum();
    let items: Vec<f64> = batches.iter().flat_map(|b| b.item_s.clone()).collect();
    let setup_sum = summarize(&setup);
    let first = &batches[0];
    // Batch walls are averaged, not taken at the median: the host's
    // speed drifts over seconds, and the mean weighs every second of the
    // run (the median over runs is taken across runs).
    let measured: f64 = walls.iter().sum();
    let metrics = vec![
        metric("wall_s", measured / walls.len() as f64, "s"),
        metric("setup_s", setup_sum.median, "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("work_per_s", work / measured, "1/s"),
    ];
    let detail = format!(
        "{{\"provenance\": {}, \"wall_s\": {}, \"wall_samples_s\": [{}], \"setup_s\": {}, \
         \"setup_in_process_s\": {}, \
         \"item_s\": {}, \"failed_frac\": {}, \"digest\": \"{:016x}\", \"sim_ipc_gmean\": {}, \
         \"sim_read_p99_cyc\": {}, \"paper_gap_pp\": {}}}",
        provenance(args),
        summary_json(&wall),
        walls.iter().map(|w| num(*w)).collect::<Vec<_>>().join(", "),
        summary_json(&setup_sum),
        num(setup_in_process),
        if items.is_empty() {
            "null".to_string()
        } else {
            summary_json(&summarize(&items))
        },
        num(failed as f64 / attempted as f64),
        first.digests.iter().fold(0u64, |h, d| h.rotate_left(5) ^ d),
        opt_num(first.sim.ipc_gmean),
        opt_num(first.sim.read_p99_cyc.map(|v| v as f64)),
        opt_num(first.sim.paper_gap_pp),
    );
    report(&metrics, attempted, failed, &detail);
}

/// Seconds of `ns` nanoseconds.
fn s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Median and tail of span durations named `name`, seconds (zeros when
/// there are none).
fn span_summary(tr: &Tracer, name: &str) -> (f64, f64, Option<Summary>) {
    let d: Vec<f64> = tr.durations(name).into_iter().map(s).collect();
    if d.is_empty() {
        return (0.0, 0.0, None);
    }
    let sum = summarize(&d);
    (sum.median, sum.tail.map_or(0.0, |t| t.1), Some(sum))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced batch.
fn layer_metrics(tr: &Tracer, t: &TracedBatch, untraced_wall_s: f64) -> Vec<Metric> {
    let by_layer = tr.self_ns_by_layer();
    let self_s = |layer: &str| s(by_layer.get(layer).copied().unwrap_or(0));
    let agg_s = |name: &str| s(tr.agg(name).ns);
    let calls = |name: &str| tr.agg(name).count as f64;
    let c = |name: &str| tr.counter(name) as f64;
    let (epoch_med, epoch_tail, _) = span_summary(tr, "policy.epoch");
    let (inst_med, inst_tail, _) = span_summary(tr, "fleet.instance");
    let busy_ns: u64 = tr.durations("fleet.instance").iter().sum();
    let (pool_busy_frac, pool_idle_s) = match t.pool {
        Some((lanes, wall)) => {
            let lane_s = lanes as f64 * wall;
            (s(busy_ns) / lane_s, agg_s("fleet.pool_idle"))
        }
        None => (0.0, 0.0),
    };
    let applied = tr.counter("policy.applied");
    let sim = &t.batch.sim;
    let dram = tr.counter("memsim.dram_cycles");
    vec![
        metric("trace.items", c("trace.items"), "count"),
        metric("trace.next_item_s", agg_s("trace.next_item"), "s"),
        metric("trace.profile_s", agg_s("trace.profile"), "s"),
        metric("trace.self_s", self_s("trace"), "s"),
        metric("cpu.ticks", calls("cpu.tick"), "count"),
        metric("cpu.tick_s", agg_s("cpu.tick"), "s"),
        metric("cpu.skip_calls", calls("cpu.skip"), "count"),
        metric("cpu.skip_cycles", c("cpu.skip_cycles"), "count"),
        metric("cpu.stall_checks", calls("cpu.stall_check"), "count"),
        metric("cpu.stall_check_s", agg_s("cpu.stall_check"), "s"),
        metric("cpu.llc_accesses", c("cpu.llc_accesses"), "count"),
        metric(
            "cpu.llc_miss_ratio",
            ratio(tr.counter("cpu.llc_misses"), tr.counter("cpu.llc_accesses")),
            "ratio",
        ),
        metric("cpu.self_s", self_s("cpu"), "s"),
        metric("memsim.enqueue_attempts", calls("memsim.enqueue"), "count"),
        metric(
            "memsim.enqueue_rejected",
            c("memsim.enqueue_rejected"),
            "count",
        ),
        metric("memsim.enqueue_s", agg_s("memsim.enqueue"), "s"),
        metric("memsim.ticks", calls("memsim.tick"), "count"),
        metric("memsim.tick_s", agg_s("memsim.tick"), "s"),
        metric("memsim.jumps", calls("memsim.jump"), "count"),
        metric("memsim.jump_cycles", c("memsim.jump_cycles"), "count"),
        metric("memsim.jump_s", agg_s("memsim.jump"), "s"),
        metric("memsim.bound_queries", calls("memsim.bound"), "count"),
        metric("memsim.bound_s", agg_s("memsim.bound"), "s"),
        metric("memsim.completions", c("memsim.completions"), "count"),
        metric(
            "memsim.jump_cycle_frac",
            ratio(tr.counter("memsim.jump_cycles"), dram),
            "ratio",
        ),
        metric("memsim.self_s", self_s("memsim"), "s"),
        metric(
            "migrate.jobs_dispatched",
            c("migrate.jobs_dispatched"),
            "count",
        ),
        metric(
            "migrate.jobs_completed",
            c("migrate.jobs_completed"),
            "count",
        ),
        metric("migrate.slot_cycles", c("migrate.slot_cycles"), "count"),
        metric("migrate.dispatch_s", agg_s("migrate.dispatch"), "s"),
        metric("migrate.self_s", self_s("migrate"), "s"),
        metric(
            "policy.epochs",
            tr.durations("policy.epoch").len() as f64,
            "count",
        ),
        metric(
            "policy.epoch_s",
            s(tr.durations("policy.epoch").iter().sum()),
            "s",
        ),
        metric("policy.epoch_med_s", epoch_med, "s"),
        metric("policy.epoch_tail_s", epoch_tail, "s"),
        metric(
            "policy.applied_ratio",
            ratio(applied, applied + tr.counter("policy.dropped")),
            "ratio",
        ),
        metric("policy.self_s", self_s("policy"), "s"),
        metric("power.energy_s", agg_s("power.energy"), "s"),
        metric("obs.blame_delta_s", t.blame_delta_s.unwrap_or(0.0), "s"),
        metric(
            "fleet.synth_s",
            s(tr.durations("fleet.synth").iter().sum()),
            "s",
        ),
        metric("fleet.instance_med_s", inst_med, "s"),
        metric("fleet.instance_tail_s", inst_tail, "s"),
        metric("fleet.pool_busy_frac", pool_busy_frac, "ratio"),
        metric("fleet.pool_idle_s", pool_idle_s, "s"),
        metric(
            "fleet.fuse_s",
            s(tr.durations("fleet.fuse").iter().sum()),
            "s",
        ),
        metric("fleet.self_s", self_s("fleet"), "s"),
        metric("circuit.samples", c("circuit.samples"), "count"),
        metric("circuit.perturb_s", agg_s("circuit.perturb"), "s"),
        metric(
            "circuit.build_s",
            s(tr.durations("circuit.build").iter().sum()),
            "s",
        ),
        metric(
            "circuit.act_pre_s",
            s(tr.durations("circuit.act_pre").iter().sum()),
            "s",
        ),
        metric(
            "circuit.write_recovery_s",
            s(tr.durations("circuit.write_recovery").iter().sum()),
            "s",
        ),
        metric("circuit.self_s", self_s("circuit"), "s"),
        metric("sim.self_s", self_s("sim"), "s"),
        metric("sim.traced_wall_s", t.traced_wall_s, "s"),
        metric(
            "sim.trace_overhead_s",
            t.traced_wall_s - untraced_wall_s,
            "s",
        ),
        metric("sim.insts", c("sim.insts"), "count"),
        metric("sim.ipc_gmean", sim.ipc_gmean.unwrap_or(0.0), "ratio"),
        metric(
            "sim.read_p99_cyc",
            sim.read_p99_cyc.map_or(0.0, |v| v as f64),
            "cycles",
        ),
        metric("sim.paper_gap_pp", sim.paper_gap_pp.unwrap_or(0.0), "pp"),
    ]
}

/// `--trace 1`: one untraced reference batch, one traced replay.
fn traced(args: &Args) {
    let setup = setup_samples(args, SETUP_PER_BATCH);
    let inputs = workloads::setup(args.kind, args.seed);
    let reference = workloads::run_untraced(&inputs);
    print_problems(&reference);
    let mut tr = Tracer::new(Instant::now());
    let t = workloads::run_traced(&inputs, &reference, &mut tr);
    print_problems(&t.batch);
    let attempted = reference.attempted + t.batch.attempted;
    let mut failed = reference.failed + t.batch.failed;

    let by_layer = tr.self_ns_by_layer();
    let layers_ns: u64 = by_layer.values().sum();
    let root_ns = tr.root_ns();
    if layers_ns != root_ns {
        eprintln!("check failed: layer self times sum to {layers_ns} ns of {root_ns} ns traced");
        failed += t.batch.attempted;
    }
    let metrics = layer_metrics(&tr, &t, reference.wall_s);

    let (_, _, epochs) = span_summary(&tr, "policy.epoch");
    let (_, _, instances) = span_summary(&tr, "fleet.instance");
    let layers: Vec<String> = by_layer
        .iter()
        .map(|(l, ns)| format!("{}: {}", quote(l), num(s(*ns))))
        .collect();
    let detail = format!(
        "{{\"provenance\": {}, \"setup_s\": {}, \"untraced_wall_s\": {}, \
         \"accounted_s\": {}, \"self_s_by_layer\": {{{}}}, \"policy_epoch_s\": {}, \
         \"fleet_instance_s\": {}}}",
        provenance(args),
        summary_json(&summarize(&setup)),
        num(reference.wall_s),
        num(s(root_ns)),
        layers.join(", "),
        epochs.map_or("null".to_string(), |e| summary_json(&e)),
        instances.map_or("null".to_string(), |e| summary_json(&e)),
    );
    let path = format!(
        "{TRACE_DIR}/{}-seed{}.trace.json",
        args.kind.name(),
        args.seed
    );
    let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| {
        std::fs::write(
            &path,
            format!("{{\"detail\": {detail}, \"trace\": {}}}\n", tr.to_json()),
        )
    });
    match written {
        Ok(()) => println!("trace written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    report(&metrics, attempted, failed, &detail);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        std::hint::black_box(workloads::setup(args.kind, args.seed));
    } else if args.traced {
        traced(&args);
    } else {
        untraced(&args);
    }
    ExitCode::SUCCESS
}
