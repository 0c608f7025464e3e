//! The battery layer: cold grid builds, the nine-model fit, accuracy
//! against full simulation, and (traced) the same build decomposed into
//! its harness-level calls.

use std::sync::Arc;
use std::time::Instant;

use harness::sampled::evaluate_gate;
use harness::{
    measure_layout, measure_layout_sampled, parallel, GateReport, Grid, GridEntry, MachineVariant,
    MeasureContext, RunRecord, SampledConfig, Speed,
};
use machine::{profile_tlb_misses, MissProfile};
use mosmodel::{Dataset, FittedModel, ModelKind};
use vmcore::{MemoryLayout, PageSize, PmuCounters, Region};
use workloads::{TraceParams, WorkloadSpec};

use crate::pairs::Pair;
use crate::spans::SpanLog;

/// Accesses a battery stands for: every record replays the workload's
/// full trace once (the presets repeat nothing), so a sampled battery
/// counts the full-trace-equivalent accesses its extrapolated records
/// describe, not the fraction it kept. Sampling then shows as
/// throughput.
pub fn full_trace_accesses(entry: &GridEntry, speed: Speed) -> u64 {
    let spec = WorkloadSpec::by_name(&entry.workload).expect("benchmark pairs are known workloads");
    entry.records.len() as u64 * speed.trace_len(spec.access_factor)
}

/// Fewest distinct runtimes, as a share of the records, for a battery to
/// count as a real spread of layouts. The repository's `grid_sampled`
/// bench preset (a 2 MiB pool) yields 3 distinct runtimes out of 55.
const MIN_DISTINCT_SHARE: f64 = 0.5;

/// The non-degenerate battery guard: every one of the nine models fits,
/// and at least half the layouts measured distinct runtimes.
pub fn check_battery(entry: &GridEntry, fits: &[FitResult]) -> Result<(), String> {
    let failed: Vec<&str> = fits
        .iter()
        .filter(|f| f.model.is_err())
        .map(|f| f.kind.name())
        .collect();
    if !failed.is_empty() || fits.len() != ModelKind::ALL.len() {
        return Err(format!(
            "{}@{}: models {failed:?} did not fit",
            entry.workload, entry.platform
        ));
    }
    let mut runtimes: Vec<u64> = entry
        .records
        .iter()
        .map(|r| r.counters.runtime_cycles)
        .collect();
    runtimes.sort_unstable();
    runtimes.dedup();
    let needed = (entry.records.len() as f64 * MIN_DISTINCT_SHARE).ceil() as usize;
    if runtimes.len() < needed {
        return Err(format!(
            "{}@{}: degenerate battery, {} distinct runtimes out of {} records (need {needed})",
            entry.workload,
            entry.platform,
            runtimes.len(),
            entry.records.len()
        ));
    }
    Ok(())
}

/// One model's fit and its host time.
pub struct FitResult {
    /// Which model.
    pub kind: ModelKind,
    /// The fitted model, or why it did not fit.
    pub model: Result<FittedModel, mosmodel::FitError>,
    /// Host time of the fit, ms.
    pub ms: f64,
}

/// Fits all nine models on `data`, timing each.
pub fn fit_all(data: &Dataset) -> Vec<FitResult> {
    ModelKind::ALL
        .into_iter()
        .map(|kind| {
            let t = Instant::now();
            let model = kind.fit(data);
            FitResult {
                kind,
                model,
                ms: t.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Mosmodel's maximum relative error, in percent, when fitted on
/// `fits`' dataset and evaluated against the full-simulation `reference`
/// (simulated cycles). `None` when Mosmodel did not fit.
pub fn pred_err_pct(fits: &[FitResult], reference: &Dataset) -> Option<f64> {
    let mosmodel = fits.iter().find(|f| f.kind == ModelKind::Mosmodel)?;
    let model = mosmodel.model.as_ref().ok()?;
    Some(100.0 * mosmodel::metrics::max_err(model, reference))
}

/// A cold battery built through the grid, with its host time.
pub struct Built {
    /// The grid entry.
    pub entry: Arc<GridEntry>,
    /// Host seconds the build took.
    pub wall_s: f64,
    /// Full-trace-equivalent accesses it stands for.
    pub accesses: u64,
}

/// Builds `pair`'s battery on `grid` (which must not hold it yet).
pub fn build(grid: &Grid, pair: Pair) -> Built {
    let t = Instant::now();
    let entry = grid.entry(pair.workload, pair.platform);
    let wall_s = t.elapsed().as_secs_f64();
    let accesses = full_trace_accesses(&entry, grid.speed());
    Built {
        entry,
        wall_s,
        accesses,
    }
}

/// A fresh in-memory grid for `speed`, sampled when `cfg` is given.
pub fn fresh_grid(speed: Speed, cfg: Option<SampledConfig>, jobs: usize) -> Grid {
    let grid = Grid::in_memory(speed).with_jobs(jobs);
    match cfg {
        Some(cfg) => grid.with_sampled(cfg),
        None => grid,
    }
}

/// The trace a pair's every layout replays, rebuilt from public items
/// exactly as `MeasureContext` builds it (pool from the context, seed
/// from FNV-1a of the workload name).
pub struct TraceSource {
    /// The workload's generator.
    pub spec: WorkloadSpec,
    /// Pool region, length and seed of the trace.
    pub params: TraceParams,
    /// The heap pool layouts are built against.
    pub pool: Region,
}

impl TraceSource {
    /// The trace source for `workload` at `speed`.
    pub fn new(speed: Speed, workload: &str) -> TraceSource {
        let ctx =
            MeasureContext::new(speed, workload).expect("benchmark pairs are known workloads");
        let spec = WorkloadSpec::by_name(workload).expect("benchmark pairs are known workloads");
        let pool = ctx.pool();
        let params = TraceParams::new(pool, speed.trace_len(spec.access_factor), fnv(workload));
        TraceSource { spec, params, pool }
    }

    /// A fresh iterator over the trace.
    pub fn trace(&self) -> Box<dyn Iterator<Item = workloads::Access>> {
        self.spec.trace(&self.params)
    }
}

fn fnv(bytes: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The anchor class of a layout, as the grid classifies it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchor {
    /// No hugepage windows.
    All4K,
    /// Only 2 MiB windows covering the pool.
    All2M,
    /// Only 1 GiB windows covering the pool.
    All1G,
}

/// Which anchor `layout` is, if any.
pub fn anchor_of(layout: &MemoryLayout) -> Option<Anchor> {
    if layout.windows().is_empty() {
        return Some(Anchor::All4K);
    }
    if layout.bytes_backed_by(PageSize::Base4K) != 0 {
        return None;
    }
    let all = |size| layout.windows().iter().all(|w| w.size == size);
    if all(PageSize::Huge2M) {
        Some(Anchor::All2M)
    } else if all(PageSize::Huge1G) {
        Some(Anchor::All1G)
    } else {
        None
    }
}

/// What the traced decomposition of one battery produced.
pub struct TracedBattery {
    /// Records in battery order, to compare with the grid's.
    pub records: Vec<RunRecord>,
    /// The battery's layouts, in order.
    pub layouts: Vec<MemoryLayout>,
    /// The gate's verdict, for a sampled battery.
    pub gate: Option<GateReport>,
    /// Host seconds of the whole decomposed build.
    pub wall_s: f64,
    /// Summed per-layout busy time over (jobs × layout-phase wall).
    pub parallel_eff: f64,
}

/// Builds `pair`'s battery by calling each harness layer in turn —
/// the profiling pass, the layout plan, the sampling gate, and one
/// measurement per layout on `jobs` workers — inside spans.
pub fn traced_battery(
    log: &mut SpanLog,
    pair: Pair,
    speed: Speed,
    cfg: Option<SampledConfig>,
    jobs: usize,
) -> TracedBattery {
    let started = Instant::now();
    let ctx =
        MeasureContext::new(speed, pair.workload).expect("benchmark pairs are known workloads");
    let variant = MachineVariant::real(pair.platform);
    let source = TraceSource::new(speed, pair.workload);

    let profile: MissProfile = log.span("machine.profile_tlb_misses", |_| {
        profile_tlb_misses(pair.platform, source.trace(), source.pool, 2 << 20)
    });
    let layouts: Vec<MemoryLayout> = log.span("layouts.standard_battery", |_| {
        let mut l: Vec<MemoryLayout> =
            layouts::standard_battery(source.pool, |x| profile.hot_region(x))
                .into_iter()
                .map(|p| p.layout)
                .collect();
        l.push(MemoryLayout::uniform(source.pool, PageSize::Huge1G));
        l
    });

    let gate = cfg.map(|cfg| {
        log.span("harness.gate", |log| {
            let anchors: Vec<MemoryLayout> = [Anchor::All4K, Anchor::All2M, Anchor::All1G]
                .iter()
                .filter_map(|a| layouts.iter().find(|l| anchor_of(l) == Some(*a)))
                .cloned()
                .collect();
            let timed = parallel::parallel_map(&anchors, jobs, |_, layout| {
                let t0 = Instant::now();
                let full = measure_layout(&ctx, &variant, layout).counters;
                let t1 = Instant::now();
                let sampled =
                    measure_layout_sampled(&ctx, &variant, layout, cfg.window, cfg.period).counters;
                let t2 = Instant::now();
                ((full, sampled), [t0, t1, t2])
            })
            .expect("scoped workers complete every anchor");
            let mut pairs: Vec<(PmuCounters, PmuCounters)> = Vec::new();
            for (counters, [t0, t1, t2]) in timed {
                log.record("harness.measure_layout", t0, t1);
                log.record("harness.measure_layout_sampled", t1, t2);
                pairs.push(counters);
            }
            evaluate_gate(&pairs, cfg)
        })
    });
    let sampled = gate.filter(|g| g.accepted).and(cfg);

    let (records, parallel_eff) = log.span("harness.battery", |log| {
        let phase = Instant::now();
        let timed = parallel::parallel_map(&layouts, jobs, |_, layout| {
            let t0 = Instant::now();
            let record = match sampled {
                Some(cfg) => measure_layout_sampled(&ctx, &variant, layout, cfg.window, cfg.period),
                None => measure_layout(&ctx, &variant, layout),
            };
            (record, t0, Instant::now())
        })
        .expect("scoped workers complete every layout");
        let wall = phase.elapsed().as_secs_f64();
        let name = if sampled.is_some() {
            "harness.measure_layout_sampled"
        } else {
            "harness.measure_layout"
        };
        let mut busy = 0.0;
        let mut records = Vec::with_capacity(timed.len());
        for (record, t0, t1) in timed {
            busy += t1.duration_since(t0).as_secs_f64();
            log.record(name, t0, t1);
            records.push(record);
        }
        let workers = jobs.clamp(1, layouts.len().max(1)) as f64;
        (records, busy / (workers * wall))
    });

    TracedBattery {
        records,
        layouts,
        gate,
        wall_s: started.elapsed().as_secs_f64(),
        parallel_eff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::{SAMPLED_CFG, SAMPLED_SPEED};

    /// A tiny preset: the FAST pool with a short trace, cheap enough for
    /// a unit test.
    const TINY: Speed = Speed {
        name: "tiny",
        footprint_div: Speed::FAST.footprint_div,
        min_footprint: Speed::FAST.min_footprint,
        accesses: 4_000,
        max_reps: 1,
    };

    #[test]
    fn sampled_entries_count_full_trace_equivalent_accesses() {
        let pair = Pair {
            workload: "gups/8GB",
            platform: &machine::Platform::SANDY_BRIDGE,
        };
        let entry = GridEntry {
            workload: pair.workload.to_string(),
            platform: pair.platform.name.to_string(),
            records: Vec::new(),
            mode: SAMPLED_CFG.mode(),
            gate: None,
        };
        let mut entry = entry;
        let record = RunRecord {
            description: "4k".to_string(),
            kind: mosmodel::LayoutKind::All4K,
            counters: PmuCounters::default(),
            cv_r: 0.0,
        };
        entry.records = vec![record; 55];
        let kept = workloads::sampling::kept_count(
            SAMPLED_SPEED.accesses,
            SAMPLED_CFG.window,
            SAMPLED_CFG.period,
        );
        assert_eq!(full_trace_accesses(&entry, SAMPLED_SPEED), 55 * 800_000);
        assert!(full_trace_accesses(&entry, SAMPLED_SPEED) > 55 * kept);
    }

    #[test]
    fn guard_rejects_a_two_mib_pool_battery() {
        // The shape of the repository's `grid_sampled` bench preset: a
        // 2 MiB pool leaves the battery almost nothing to vary.
        let degenerate = Speed {
            name: "two-mib-pool",
            footprint_div: 1 << 30,
            min_footprint: 2 << 20,
            accesses: 20_000,
            max_reps: 1,
        };
        let entry = Grid::in_memory(degenerate).entry("gups/8GB", &machine::Platform::SANDY_BRIDGE);
        let fits = fit_all(&entry.dataset());
        let err = check_battery(&entry, &fits).expect_err("degenerate battery must be refused");
        assert!(
            err.contains("degenerate") || err.contains("did not fit"),
            "{err}"
        );
    }

    #[test]
    fn guard_accepts_a_real_spread() {
        let entry = Grid::in_memory(TINY).entry("xsbench/8GB", &machine::Platform::SANDY_BRIDGE);
        let fits = fit_all(&entry.dataset());
        check_battery(&entry, &fits).expect("FAST-footprint battery has a real spread");
    }

    #[test]
    fn traced_battery_matches_the_grid() {
        let pair = Pair {
            workload: "spec06/mcf",
            platform: &machine::Platform::BROADWELL,
        };
        let grid = Grid::in_memory(TINY).with_jobs(2);
        let entry = grid.entry(pair.workload, pair.platform);
        let mut log = SpanLog::default();
        let traced = traced_battery(&mut log, pair, TINY, None, 2);
        assert_eq!(traced.records, entry.records);
        assert_eq!(log.count("harness.measure_layout"), entry.records.len());
        assert!(traced.parallel_eff > 0.0 && traced.parallel_eff <= 1.0 + 1e-9);
    }
}
