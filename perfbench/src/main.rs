//! The repository benchmark: times mosaic's public functions from the
//! outside on two workloads and prints one JSON result line.
//!
//! ```text
//! mosaic-perfbench --workload <build-sampled|serve> --seed <n> \
//!                  --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every layer call, replays one pair's
//! trace through each layer alone, and prints the per-layer metrics.
//! Either way the run ends by repeating one unit of its work with the
//! allocator counting, for `peak_heap_mb`; every timed phase runs
//! uncounted.
//! See `README.md` beside this package for what each workload and
//! metric is for.

mod alloc;
mod battery;
mod layers;
mod pairs;
mod pin;
mod report;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::{GridEntry, Speed};
use mosmodel::ModelKind;
use service::registry::ModelRegistry;
use service::server::{Server, ServerConfig};

use battery::{Anchor, FitResult};
use pairs::{Pair, Rng};
use report::{HostCounters, Outcome};
use spans::SpanLog;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Share of `--seconds` `build-sampled` spends on cold batteries; the
/// rest goes to serve passes over its first pair.
const BATTERY_SHARE: f64 = 0.4;
/// Battery rounds `build-sampled` runs at least, so its figures are
/// medians over rounds.
const MIN_ROUNDS: usize = 3;
/// Times the `serve` workload sets up (builds, fits and warms its pairs)
/// per run; `setup_s` is the median.
const SERVE_SETUPS: usize = 3;
/// Servers `build-sampled` sets up, each with fresh caches so every
/// pass sends the same mix; it runs one serve pass on each.
const SAMPLED_SERVERS: usize = 2;
/// Nine-model fits of each sampled battery, so `fit_ms` is a median over
/// enough fits to ride out host noise.
const SAMPLED_FITS: usize = 3;
/// Extra nine-model fits of each served pair after each serve pass, so
/// `fit_ms` is a median over fits spread across the run: fitted only in
/// set-up, it read whatever speed the host had in the run's first
/// seconds.
const SERVE_REFITS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    BuildSampled,
    Serve,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "build-sampled" => Workload::BuildSampled,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: mosaic-perfbench --workload <build-sampled|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        // Battery workers and server workers: the machine's parallelism,
        // as `mosaic` uses by default.
        jobs: harness::resolve_jobs(None),
        log: if args.trace {
            SpanLog::default()
        } else {
            SpanLog::disabled()
        },
        out: Outcome::default(),
        samples: BTreeMap::new(),
        traced_wall_s: 0.0,
        untraced_wall_s: 0.0,
        traced_batteries: 0,
        parallel_effs: Vec::new(),
        gate_err: 0.0,
        probe: None,
    };
    eprintln!(
        "perfbench: workload={:?} seed={} seconds={} trace={} jobs={}",
        args.workload, args.seed, args.seconds, args.trace, run.jobs
    );
    let pairs = match args.workload {
        Workload::BuildSampled => run.build_sampled(),
        Workload::Serve => run.serve(),
    };
    if args.trace {
        run.layer_probes();
    }
    let ((), peak_mb) = alloc::counted(|| run.counted_unit(args.workload, &pairs));
    run.out.set("peak_heap_mb", peak_mb);
    if let Some(mb) = report::peak_rss_mb() {
        run.out.set("host.peak_rss_mb", mb);
    }
    let names: Vec<(String, &'static str)> = if args.trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let line = run.out.render(&names);
    for problem in &run.out.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    println!("{line}");
}

/// What the traced run's layer probes replay: one pair, its trace
/// fidelity, the full-simulation entry its counters must match, and the
/// battery's layouts.
struct Probe {
    pair: Pair,
    speed: Speed,
    sampled: bool,
    reference: Arc<GridEntry>,
    layouts: Vec<vmcore::MemoryLayout>,
}

/// One pair's timed work: the full-trace-equivalent accesses of its
/// battery, the host seconds of each build, and each nine-model fit.
#[derive(Default)]
struct PairSamples {
    accesses: u64,
    walls: Vec<f64>,
    fits: Vec<Vec<FitResult>>,
}

struct Run {
    seed: u64,
    seconds: Duration,
    jobs: usize,
    log: SpanLog,
    out: Outcome,
    /// Per pair label: what the run's timed builds and fits measured.
    samples: BTreeMap<String, PairSamples>,
    /// Host seconds of the battery decompositions built with spans, and
    /// of the same decompositions built without, and how many of each.
    traced_wall_s: f64,
    untraced_wall_s: f64,
    traced_batteries: usize,
    /// Parallel efficiency of each traced battery.
    parallel_effs: Vec<f64>,
    /// Worst anchor error any traced sampling gate measured.
    gate_err: f64,
    probe: Option<Probe>,
}

impl Run {
    /// Fits the nine models on `entry`, applies the battery guard, and
    /// returns Mosmodel's error against `reference` in percent, with the
    /// fits. A degenerate battery ends the run at once: its figures
    /// would describe nothing.
    fn fit_and_guard(&mut self, entry: &GridEntry, reference: &GridEntry) -> (f64, Vec<FitResult>) {
        self.out.attempt();
        let fits = battery::fit_all(&entry.dataset());
        if let Err(why) = battery::check_battery(entry, &fits) {
            eprintln!("perfbench: {why}");
            std::process::exit(3);
        }
        let err = battery::pred_err_pct(&fits, &reference.dataset()).unwrap_or(f64::NAN);
        (err, fits)
    }

    /// Records one timed build and fit of `pair`.
    fn record(&mut self, pair: Pair, built: &battery::Built, fits: Vec<FitResult>) {
        let s = self.samples.entry(pair.label()).or_default();
        s.accesses = built.accesses;
        s.walls.push(built.wall_s);
        s.fits.push(fits);
    }

    /// The `build-sampled` workload. Returns its pairs.
    fn build_sampled(&mut self) -> Vec<Pair> {
        let mut rng = Rng::new(self.seed, 1);
        let classes = &pairs::SAMPLED_CLASSES[..];
        let speed = pairs::SAMPLED_SPEED;
        let cfg = Some(pairs::SAMPLED_CFG);
        let pairs = pairs::pick_per_class(classes, &mut rng);
        for (class, p) in classes.iter().zip(&pairs) {
            eprintln!("perfbench: {} pair {}", class.name, p.label());
        }

        // Set-up: the full-simulation reference every battery of the run
        // is scored against, and the servers for the serve passes —
        // mosaicd over the run's first pair at FAST fidelity (the sampled
        // preset's long trace would make each miss ten times dearer).
        let setup = Instant::now();
        let ref_grid = battery::fresh_grid(speed, None, self.jobs);
        let references: Vec<Arc<GridEntry>> = pairs
            .iter()
            .map(|p| ref_grid.entry(p.workload, p.platform))
            .collect();
        for r in &references {
            self.fit_and_guard(r, r);
        }
        let served = vec![pairs[0]];
        let servers: Vec<_> = (0..SAMPLED_SERVERS)
            .map(|_| self.fresh_server(&served))
            .collect();
        self.out.set("setup_s", setup.elapsed().as_secs_f64());

        let host_before = HostCounters::read();
        let start = Instant::now();
        let battery_until = start + self.seconds.mul_f64(BATTERY_SHARE);
        let mut errs: Vec<f64> = Vec::new();
        let mut first: Vec<Option<Arc<GridEntry>>> = vec![None; pairs.len()];
        let mut round = 0;
        while round < MIN_ROUNDS || Instant::now() < battery_until {
            round += 1;
            let mut order: Vec<usize> = (0..pairs.len()).collect();
            rng.shuffle(&mut order);
            let grid = battery::fresh_grid(speed, cfg, self.jobs);
            for &i in &order {
                let pair = pairs[i];
                self.out.attempt();
                let built = battery::build(&grid, pair);
                let entry = Arc::clone(&built.entry);
                let gate = entry.gate;
                self.out.check(
                    gate.is_some_and(|g| g.accepted) && entry.mode == pairs::SAMPLED_CFG.mode(),
                    || format!("{}: sampling gate rejected ({gate:?})", pair.label()),
                );
                let first = first[i].get_or_insert_with(|| Arc::clone(&entry));
                self.out.check(**first == *entry, || {
                    format!("{}: sampled battery differs between rounds", pair.label())
                });
                let (err, fits) = self.fit_and_guard(&entry, &references[i]);
                errs.push(err);
                self.record(pair, &built, fits);
                for _ in 1..SAMPLED_FITS {
                    let (_, fits) = self.fit_and_guard(&entry, &references[i]);
                    self.samples
                        .entry(pair.label())
                        .or_default()
                        .fits
                        .push(fits);
                }
                if self.log.is_enabled() {
                    self.traced_round(pair, speed, cfg, &built, &references[i], i == 0);
                }
            }
        }
        self.set_build_metrics();
        // Deterministic per pair, so identical across rounds: the run's
        // worst pair.
        self.out.set(
            "pred_err_pct",
            errs.iter().copied().fold(f64::NAN, f64::max),
        );

        self.serve_loop(
            &servers,
            &served,
            (start + self.seconds, SAMPLED_SERVERS, 0),
            &mut rng,
        );
        for (server, _) in servers {
            server.shutdown();
        }
        if let (Some(before), Some(after)) = (host_before, HostCounters::read()) {
            after.record_since(&before, &mut self.out);
        }
        pairs
    }

    /// A FAST grid holding `served`'s batteries and a warm server over
    /// it, with the entries its models were fitted on.
    fn fresh_server(&mut self, served: &[Pair]) -> (Server, Vec<Arc<GridEntry>>) {
        let grid = battery::fresh_grid(pairs::FULL_SPEED, None, self.jobs);
        let entries = served
            .iter()
            .map(|p| grid.entry(p.workload, p.platform))
            .collect();
        (self.start_server(grid, served), entries)
    }

    /// One unit of the workload's work, repeated untimed after the run
    /// with the allocator counting: a sampled battery and nine-model fit
    /// of every pair on `build-sampled`; one set-up (builds, fits, a
    /// warmed server) on `serve`.
    fn counted_unit(&mut self, workload: Workload, pairs: &[Pair]) {
        match workload {
            Workload::BuildSampled => {
                let grid =
                    battery::fresh_grid(pairs::SAMPLED_SPEED, Some(pairs::SAMPLED_CFG), self.jobs);
                for p in pairs {
                    std::hint::black_box(battery::fit_all(
                        &grid.entry(p.workload, p.platform).dataset(),
                    ));
                }
            }
            Workload::Serve => {
                let grid = battery::fresh_grid(pairs::FULL_SPEED, None, self.jobs);
                for p in pairs {
                    std::hint::black_box(battery::fit_all(
                        &grid.entry(p.workload, p.platform).dataset(),
                    ));
                }
                self.start_server(grid, pairs).shutdown();
            }
        }
    }

    /// The decomposition of one pair's battery, built once with spans
    /// and once without (alternating which goes first) and checked
    /// against its grid build. The two walls give the tracing overhead.
    /// The workload's first pair (the one-walker gups pair on
    /// `build-sampled`, the first served pair on `serve`) becomes the
    /// layer probes' pair, replayed against its full-simulation
    /// `reference`.
    #[allow(clippy::too_many_arguments)]
    fn traced_round(
        &mut self,
        pair: Pair,
        speed: Speed,
        cfg: Option<harness::SampledConfig>,
        untraced: &battery::Built,
        reference: &Arc<GridEntry>,
        is_probe: bool,
    ) {
        let spanless =
            |jobs| battery::traced_battery(&mut SpanLog::disabled(), pair, speed, cfg, jobs);
        let plain_first = self.traced_batteries.is_multiple_of(2);
        let plain = plain_first.then(|| spanless(self.jobs));
        let traced = battery::traced_battery(&mut self.log, pair, speed, cfg, self.jobs);
        let plain = plain.unwrap_or_else(|| spanless(self.jobs));
        self.traced_batteries += 1;
        self.traced_wall_s += traced.wall_s;
        self.untraced_wall_s += plain.wall_s;
        if let Some(gate) = traced.gate {
            self.gate_err = self.gate_err.max(gate.max_rel_err);
        }
        for (built, how) in [(&traced, "with spans"), (&plain, "without spans")] {
            self.out.check(built.records == untraced.entry.records, || {
                format!(
                    "{}: battery decomposed {how} differs from the grid's",
                    pair.label()
                )
            });
        }
        self.parallel_effs.push(traced.parallel_eff);
        if is_probe && self.probe.is_none() {
            self.probe = Some(Probe {
                pair,
                speed,
                sampled: cfg.is_some(),
                reference: Arc::clone(reference),
                layouts: traced.layouts,
            });
        }
    }

    /// The `serve` workload: pairs built, fitted and warmed on three
    /// servers in set-up, then closed-loop passes for about `--seconds`.
    /// Returns the served pairs.
    fn serve(&mut self) -> Vec<Pair> {
        let mut rng = Rng::new(self.seed, 2);
        let served = pairs::pick_distinct(&pairs::SERVE_CANDIDATES, 2, &mut rng);
        for p in &served {
            eprintln!("perfbench: pair {}", p.label());
        }
        let mut setups = Vec::new();
        let mut errs = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..SERVE_SETUPS {
            let setup = Instant::now();
            let grid = battery::fresh_grid(pairs::FULL_SPEED, None, self.jobs);
            let mut entries = Vec::new();
            for &pair in &served {
                self.out.attempt();
                let built = battery::build(&grid, pair);
                let (err, fits) = self.fit_and_guard(&built.entry, &built.entry);
                errs.push(err);
                entries.push(Arc::clone(&built.entry));
                self.record(pair, &built, fits);
            }
            let server = self.start_server(grid, &served);
            setups.push(setup.elapsed().as_secs_f64());
            servers.push((server, entries));
        }
        let entries = servers[0].1.clone();
        eprintln!("{}", report::describe_sample("setup_s", &setups));
        self.set_median("setup_s", &setups);
        self.out.set(
            "pred_err_pct",
            errs.iter().copied().fold(f64::NAN, f64::max),
        );
        if self.log.is_enabled() {
            for (i, &pair) in served.iter().enumerate() {
                let grid = battery::fresh_grid(pairs::FULL_SPEED, None, self.jobs);
                let untraced = battery::build(&grid, pair);
                self.traced_round(
                    pair,
                    pairs::FULL_SPEED,
                    None,
                    &untraced,
                    &entries[i],
                    i == 0,
                );
            }
        }

        let host_before = HostCounters::read();
        let until = Instant::now() + self.seconds;
        self.serve_loop(&servers, &served, (until, 1, SERVE_REFITS), &mut rng);
        for (server, _) in servers {
            server.shutdown();
        }
        self.set_build_metrics();
        if let (Some(before), Some(after)) = (host_before, HostCounters::read()) {
            after.record_since(&before, &mut self.out);
        }
        served
    }

    /// Starts mosaicd over `grid` on loopback, its threads on one CPU
    /// (see `pin`), and warms `served`.
    fn start_server(&mut self, grid: harness::Grid, served: &[Pair]) -> Server {
        let config = ServerConfig {
            workers: self.jobs,
            ..ServerConfig::default()
        };
        let server = pin::on_one_cpu(|| Server::start(config, ModelRegistry::new(grid, None)))
            .expect("bind loopback");
        let mut client =
            service::client::Client::connect(server.addr()).expect("connect to own server");
        for pair in served {
            self.out.attempt();
            match client.warm(pair.workload, pair.platform.name) {
                Ok(9) => {}
                other => self.out.fail(format!("warm {}: {other:?}", pair.label())),
            }
        }
        server
    }

    /// Runs closed-loop passes, one per server: the first `min_passes`
    /// always, each further one while it can finish by `until`. Records
    /// the serving metrics. Each server holds fresh caches, so every pass
    /// sends the same mix of hits, misses and cold recommends; `entries`
    /// are the grid entries its models were fitted on. After each pass
    /// the served pairs are fitted `refits` more times, for `fit_ms`.
    fn serve_loop(
        &mut self,
        servers: &[(Server, Vec<Arc<GridEntry>>)],
        served: &[Pair],
        (until, min_passes, refits): (Instant, usize, usize),
        rng: &mut Rng,
    ) {
        let traced = self.log.is_enabled();
        let mut stats = serve::ServeStats::default();
        let mut stage_us = [0u64; report::STAGES.len()];
        let mut pred = (0u64, 0u64);
        let mut rec = (0u64, 0u64);
        let mut pass = Duration::ZERO;
        for (i, (server, entries)) in servers.iter().enumerate() {
            // Another pass only when it can finish by `until`.
            if i >= min_passes.max(1) && Instant::now() + pass > until {
                break;
            }
            let started = Instant::now();
            let mut client =
                service::client::Client::connect(server.addr()).expect("connect to own server");
            let before = traced.then(|| client.metrics());
            // The client runs on the servers' CPU (see `pin`).
            let phase = pin::on_one_cpu(|| {
                serve::serve_phase(server, served, entries, rng, &mut self.log, &mut self.out)
            });
            stats.absorb(phase);
            pass = started.elapsed();
            let after = traced.then(|| client.metrics());
            if let (Some(Ok(b)), Some(Ok(a))) = (before, after) {
                for (sum, stage) in stage_us.iter_mut().zip(report::STAGES) {
                    let total = |m: &service::prom::MetricsReport| {
                        m.wall_stages
                            .iter()
                            .find(|s| s.stage == stage)
                            .map_or(0, |s| s.total_ticks)
                    };
                    *sum += total(&a).saturating_sub(total(&b));
                }
                let delta = |a: u64, b: u64| a.saturating_sub(b);
                pred.0 += delta(a.stats.cache.hits, b.stats.cache.hits);
                pred.1 += delta(a.stats.cache.misses, b.stats.cache.misses);
                rec.0 += delta(a.stats.rec_cache.hits, b.stats.rec_cache.hits);
                rec.1 += delta(a.stats.rec_cache.misses, b.stats.rec_cache.misses);
            }
            for _ in 0..refits {
                for (pair, entry) in served.iter().zip(entries) {
                    let (_, fits) = self.fit_and_guard(entry, entry);
                    self.samples
                        .entry(pair.label())
                        .or_default()
                        .fits
                        .push(fits);
                }
            }
        }

        self.out
            .set("serve_rps", stats.requests as f64 / stats.wall_s);
        for (name, values, p) in [
            ("predict_hit_p50_us", &stats.hit_us, 50.0),
            ("predict_hit_p90_us", &stats.hit_us, 90.0),
            ("predict_miss_p50_ms", &stats.miss_ms, 50.0),
            ("predict_miss_p90_ms", &stats.miss_ms, 90.0),
            ("recommend_cold_p50_ms", &stats.rec_cold_ms, 50.0),
        ] {
            match stats::percentile(values, p) {
                Some(v) => self.out.set(name, v),
                None => self.out.fail(format!(
                    "{name}: {} samples leave fewer than {} beyond p{p}",
                    values.len(),
                    stats::MIN_BEYOND
                )),
            }
        }
        eprintln!(
            "{}",
            report::describe_sample("predict_hit_us", &stats.hit_us)
        );
        eprintln!(
            "{}",
            report::describe_sample("predict_miss_ms", &stats.miss_ms)
        );
        eprintln!(
            "{}",
            report::describe_sample("recommend_cold_ms", &stats.rec_cold_ms)
        );
        eprintln!(
            "perfbench: serve {} requests in {:.2}s",
            stats.requests, stats.wall_s
        );

        if traced {
            let requests = stats.requests.max(1) as f64;
            for (sum, stage) in stage_us.iter().zip(report::STAGES) {
                self.out
                    .set(format!("service.stage.{stage}_us"), *sum as f64 / requests);
            }
            let ratio = |(h, m): (u64, u64)| {
                if h + m == 0 {
                    0.0
                } else {
                    h as f64 / (h + m) as f64
                }
            };
            self.out.set("service.pred_cache_hit", ratio(pred));
            self.out.set("service.rec_cache_hit", ratio(rec));
            self.out.set("recommend.candidates", stats.candidates);
            self.wire_codec(&stats);
        }
    }

    /// Times the request parser and the prediction renderer on the
    /// lines and replies the serve phase exchanged.
    fn wire_codec(&mut self, stats: &serve::ServeStats) {
        let t = Instant::now();
        for line in &stats.lines {
            let parsed = self.log.span("service.parse_request", |_| {
                service::protocol::parse_request(line)
            });
            if let Err(e) = std::hint::black_box(parsed) {
                self.out
                    .fail(format!("sent line {line:?} does not parse: {e}"));
            }
        }
        self.out.set(
            "service.parse_ns",
            t.elapsed().as_nanos() as f64 / stats.lines.len().max(1) as f64,
        );
        let t = Instant::now();
        for p in &stats.predictions {
            let text = self.log.span("service.render_prediction", |_| {
                service::protocol::render_prediction(p)
            });
            std::hint::black_box(text);
        }
        self.out.set(
            "service.render_ns",
            t.elapsed().as_nanos() as f64 / stats.predictions.len().max(1) as f64,
        );
    }

    fn set_median(&mut self, name: &str, values: &[f64]) {
        match stats::median(values) {
            Some(v) => self.out.set(name, v),
            None => self.out.fail(format!("{name}: no samples")),
        }
    }

    /// `battery_access_per_s` (every pair's accesses over the sum of
    /// each pair's median build time), `fit_ms` (the mean over pairs of
    /// each pair's median nine-model fit) and, per model, the
    /// `mosmodel.fit_ms.<model>` medians. Per-pair medians keep a burst
    /// of host noise in one build from moving the figure.
    fn set_build_metrics(&mut self) {
        let (mut accesses, mut wall) = (0u64, 0.0);
        let mut fit_medians = Vec::new();
        for (label, s) in &self.samples {
            let walls = report::describe_sample(&format!("{label} build_s"), &s.walls);
            let totals: Vec<f64> = s
                .fits
                .iter()
                .map(|f| f.iter().map(|r| r.ms).sum())
                .collect();
            eprintln!("{walls}; {}", report::describe_sample("fit_ms", &totals));
            if let Some(median) = stats::median(&s.walls) {
                accesses += s.accesses;
                wall += median;
            }
            fit_medians.extend(stats::median(&totals));
        }
        self.out.set("battery_access_per_s", accesses as f64 / wall);
        self.out.set(
            "fit_ms",
            fit_medians.iter().sum::<f64>() / fit_medians.len() as f64,
        );
        for kind in ModelKind::ALL {
            let ms: Vec<f64> = self
                .samples
                .values()
                .flat_map(|s| s.fits.iter().flatten())
                .filter(|r| r.kind == kind)
                .map(|r| r.ms)
                .collect();
            self.set_median(&format!("mosmodel.fit_ms.{}", kind.name()), &ms);
        }
    }

    /// The traced run's access-level and model-level probes.
    fn layer_probes(&mut self) {
        let Some(probe) = self.probe.take() else {
            self.out.fail("traced run built no battery to probe");
            return;
        };
        let effs = std::mem::take(&mut self.parallel_effs);
        self.set_median("harness.parallel_eff", &effs);
        self.out.set(
            "machine.profile_ms",
            self.log.mean_ms("machine.profile_tlb_misses"),
        );
        self.out.set(
            "layouts.plan_ms",
            self.log.mean_ms("layouts.standard_battery"),
        );
        let measured = if probe.sampled {
            "harness.measure_layout_sampled"
        } else {
            "harness.measure_layout"
        };
        self.out
            .set("harness.measure_ms", self.log.mean_ms(measured));
        let build_ns = self.traced_wall_s * 1e9;
        let gate_ns = self.log.total_ns("harness.gate") as f64;
        self.out
            .set("harness.gate_ms", self.log.mean_ms("harness.gate"));
        self.out
            .set("harness.gate_share", gate_ns / build_ns.max(1.0));
        self.out.set("harness.gate_err", self.gate_err);
        self.out.set(
            report::TRACE_OVERHEAD.0,
            (self.traced_wall_s / self.untraced_wall_s - 1.0) * 100.0,
        );
        eprintln!(
            "perfbench: {} batteries decomposed with spans {:.3}s, without {:.3}s",
            self.traced_batteries, self.traced_wall_s, self.untraced_wall_s
        );
        self.out.set(
            "recommend.enumerate_ms",
            self.log.mean_ms("recommend.enumerate_candidates"),
        );

        let source = battery::TraceSource::new(probe.speed, probe.pair.workload);
        let trace = layers::record_trace(&mut self.log, &source, &mut self.out);
        let total = source.params.accesses;
        if probe.sampled {
            let cfg = pairs::SAMPLED_CFG;
            let t = Instant::now();
            self.log.span("workloads.sampling_windows", |_| {
                let windowed = workloads::sampling::windows(
                    source.trace(),
                    cfg.window as usize,
                    cfg.period as usize,
                );
                for access in windowed {
                    std::hint::black_box(access);
                }
            });
            self.out.set(
                "workloads.windows_ns",
                t.elapsed().as_nanos() as f64 / total as f64,
            );
            let kept = workloads::sampling::kept_count(total, cfg.window, cfg.period);
            self.out
                .set("workloads.kept_frac", kept as f64 / total as f64);
        } else {
            self.out.set("workloads.windows_ns", 0.0);
            self.out.set("workloads.kept_frac", 1.0);
        }

        let mut lookup = Vec::new();
        for (anchor, name) in [(Anchor::All4K, "4k"), (Anchor::All2M, "2m")] {
            let Some(index) = probe
                .layouts
                .iter()
                .position(|l| battery::anchor_of(l) == Some(anchor))
            else {
                self.out
                    .fail(format!("{}: no {name} layout", probe.pair.label()));
                continue;
            };
            let expected = probe.reference.records[index].counters;
            lookup.push(layers::replay_layout(
                &mut self.log,
                &mut self.out,
                probe.pair.platform,
                source.pool,
                &probe.layouts[index],
                name,
                &trace,
                &expected,
            ));
        }
        self.set_median("mosalloc.page_size_at_ns", &lookup);

        let dataset = probe.reference.dataset();
        let t = Instant::now();
        let cv = self.log.span("mosmodel.k_fold", |_| {
            mosmodel::cv::k_fold(ModelKind::Mosmodel, &dataset, 6)
        });
        self.out
            .set("mosmodel.kfold_ms", t.elapsed().as_secs_f64() * 1e3);
        self.out
            .check(cv.is_ok(), || format!("k-fold CV failed: {:?}", cv.err()));
    }
}
