//! Access-level replays: one pair's trace through each layer alone.
//!
//! For an anchor layout (all-4K or all-2M) the traced run records the
//! workload's access stream once, then replays the `(va, page size)`
//! stream through `MemorySubsystem::access` and through each structure
//! on its own — the L1 TLBs, the STLB (fed the L1 misses), the page-walk
//! caches and `PageTable::walk_path` (fed the STLB misses), and the
//! `MemoryHierarchy` (fed the walker references and data loads in
//! program order). Every replay starts from empty structures, as every
//! battery measurement does. The isolated replays must reproduce the
//! subsystem's counters exactly, and the engine replay must reproduce
//! the grid's record for the layout: that is the traced run's check
//! that it measured the same work as the untraced one.

use std::hint::black_box;
use std::time::Instant;

use machine::{Engine, EngineConfig, Platform};
use memsim::{MemoryHierarchy, MemorySubsystem, PageTable, Stlb, Tlb, Translation, WalkCaches};
use mosalloc::{Mosalloc, MosallocConfig, PoolSpec};
use vmcore::{MemoryLayout, PageSize, PhysAddr, PmuCounters, Region, VirtAddr};
use workloads::Access;

use crate::battery::TraceSource;
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::median;

/// Replays per layer; the reported figure is their median.
const REPEATS: usize = 3;

/// The Mosalloc configuration whose heap pool realizes `layout` (the
/// same construction the harness uses for every battery layout).
fn mosalloc_for(pool: Region, layout: &MemoryLayout) -> Mosalloc {
    let mut brk = PoolSpec::plain(pool.len());
    for w in layout.windows() {
        let start = w.region.start().raw().saturating_sub(pool.start().raw());
        let end = w.region.end() - pool.start();
        brk = brk.with_window(start, end, w.size);
    }
    Mosalloc::new(MosallocConfig {
        brk,
        anon: PoolSpec::plain(64 << 20),
        file: PoolSpec::plain(64 << 20),
    })
    .expect("battery layouts are valid pool specs")
}

/// Times `f` [`REPEATS`] times inside spans named `name` and returns the
/// median host nanoseconds per `per` items, with the last result.
fn timed<R>(
    log: &mut SpanLog,
    name: &'static str,
    per: usize,
    mut f: impl FnMut() -> R,
) -> (f64, R) {
    let mut ns = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let r = log.span(name, |_| f());
        ns.push(t.elapsed().as_nanos() as f64 / per.max(1) as f64);
        last = Some(r);
    }
    (
        median(&ns).unwrap_or(0.0),
        last.expect("at least one repeat"),
    )
}

/// Generation cost of the pair's trace, ns per access, and the recorded
/// trace.
pub fn record_trace(log: &mut SpanLog, source: &TraceSource, out: &mut Outcome) -> Vec<Access> {
    let n = source.params.accesses as usize;
    let (ns, ()) = timed(log, "workloads.trace", n, || {
        for access in source.trace() {
            black_box(access);
        }
    });
    out.set("workloads.trace_ns", ns);
    source.trace().collect()
}

/// Replays `trace` under `layout` through every layer and records the
/// `.{anchor}` metrics. `expected` is the grid's record for the layout.
/// Returns the layout lookup's ns per access.
#[allow(clippy::too_many_arguments)]
pub fn replay_layout(
    log: &mut SpanLog,
    out: &mut Outcome,
    platform: &Platform,
    pool: Region,
    layout: &MemoryLayout,
    anchor: &str,
    trace: &[Access],
    expected: &PmuCounters,
) -> f64 {
    let n = trace.len();
    let mosalloc = mosalloc_for(pool, layout);
    let (lookup_ns, sizes) = timed(log, "mosalloc.page_size_at", n, || {
        trace
            .iter()
            .map(|a| mosalloc.page_size_at(a.addr))
            .collect::<Vec<PageSize>>()
    });
    let stream: Vec<(VirtAddr, PageSize)> = trace.iter().map(|a| a.addr).zip(sizes).collect();
    let salt = EngineConfig::default().salt;
    let metric = |name: &str| format!("memsim.{name}.{anchor}");

    // The assembled subsystem.
    let (access_ns, vm) = timed(log, "memsim.access", n, || {
        let mut vm = MemorySubsystem::with_salt(platform, salt);
        let mut walks = 0u64;
        for &(va, size) in &stream {
            if let Translation::Walk { .. } = vm.access(va, size).translation {
                walks += 1;
            }
        }
        (vm, walks)
    });
    let (vm, walks) = vm;
    out.set(metric("access_ns"), access_ns);
    out.set(metric("walks_per_kacc"), walks as f64 * 1000.0 / n as f64);

    // L1 TLBs alone; their misses feed the STLB.
    let (l1_ns, (l1_hits, l1_misses)) = timed(log, "memsim.l1tlb", n, || {
        let geometry = [
            (platform.l1_tlb_4k, PageSize::Base4K),
            (platform.l1_tlb_2m, PageSize::Huge2M),
            (platform.l1_tlb_1g, PageSize::Huge1G),
        ];
        let mut tlbs = geometry.map(|(g, size)| Tlb::new(g.entries, g.ways, size));
        let mut misses = Vec::new();
        let mut hits = 0u64;
        for (i, &(va, size)) in stream.iter().enumerate() {
            let tlb = &mut tlbs[size_index(size)];
            if tlb.access(va) {
                hits += 1;
            } else {
                misses.push(i);
            }
        }
        (hits, misses)
    });
    out.set(metric("l1tlb_ns"), l1_ns);
    out.set(metric("l1tlb_hit"), l1_hits as f64 / n as f64);

    let (stlb_ns, (stlb_hits, walked)) = timed(log, "memsim.stlb", n, || {
        let mut stlb = Stlb::new(platform);
        let mut walked = Vec::new();
        for &i in &l1_misses {
            let (va, size) = stream[i];
            if !stlb.access(va, size) {
                walked.push(i);
            }
        }
        (stlb.hits(), walked)
    });
    out.set(metric("stlb_ns"), stlb_ns);
    out.set(metric("stlb_hit"), ratio(stlb_hits, l1_misses.len() as u64));

    let (pwc_ns, refs) = timed(log, "memsim.pwc", n, || {
        let mut pwc = WalkCaches::new(platform.pwc);
        walked
            .iter()
            .map(|&i| pwc.lookup_and_fill(stream[i].0, stream[i].1))
            .collect::<Vec<u32>>()
    });
    let path_refs: u64 = walked
        .iter()
        .map(|&i| u64::from(stream[i].1.walk_levels()))
        .sum();
    let issued: u64 = refs.iter().map(|&r| u64::from(r)).sum();
    out.set(metric("pwc_ns"), pwc_ns);
    out.set(metric("pwc_hit"), 1.0 - ratio(issued, path_refs));

    let table = PageTable::new(salt);
    let (walk_ns, paths) = timed(log, "memsim.walk_path", n, || {
        walked
            .iter()
            .map(|&i| table.walk_path(stream[i].0, stream[i].1))
            .collect::<Vec<_>>()
    });
    out.set(metric("walk_path_ns"), walk_ns);

    // The data path: walker references then the data load, in program
    // order, against empty caches.
    let data: Vec<PhysAddr> = stream
        .iter()
        .map(|&(va, size)| table.translate(va, size))
        .collect();
    let mut walk_at = vec![usize::MAX; n];
    for (w, &i) in walked.iter().enumerate() {
        walk_at[i] = w;
    }
    let (hier_ns, memory) = timed(log, "memsim.hierarchy", n, || {
        let mut memory = MemoryHierarchy::new(platform);
        for i in 0..n {
            if let Some(&path) = paths.get(walk_at[i]) {
                let skip = path.len() - refs[walk_at[i]] as usize;
                for addr in &path[skip..] {
                    memory.access(*addr, true);
                }
            }
            memory.access(data[i], false);
        }
        memory
    });
    out.set(metric("hierarchy_ns"), hier_ns);
    // Local hit ratios over program and walker loads together: the share
    // of the loads reaching a level that it serves.
    let (p, w) = (memory.program_loads(), memory.walker_loads());
    let (l1d, l2, l3, dram) = (p.l1d + w.l1d, p.l2 + w.l2, p.l3 + w.l3, p.dram + w.dram);
    out.set(metric("l1d_hit"), ratio(l1d, l1d + l2 + l3 + dram));
    out.set(metric("l2_hit"), ratio(l2, l2 + l3 + dram));
    out.set(metric("l3_hit"), ratio(l3, l3 + dram));
    let walker = vm.memory().walker_loads();
    let walker_loads = walker.l1d + walker.l2 + walker.l3 + walker.dram;
    out.set(metric("walker_loads_per_walk"), ratio(walker_loads, walks));

    // The isolated structures must have seen exactly what the assembled
    // subsystem saw.
    let program = vm.memory().program_loads();
    let isolated = (
        stlb_hits,
        walked.len() as u64,
        memory.program_loads(),
        memory.walker_loads(),
    );
    let assembled = (vm.stlb().hits(), walks, program, walker);
    out.check(isolated == assembled, || {
        format!("{anchor}: isolated replays {isolated:?} != subsystem {assembled:?}")
    });

    // The engine: everything above plus the timing model.
    let (run_ns, counters) = timed(log, "machine.run", n, || {
        let mut engine = Engine::with_config(platform, EngineConfig::default());
        engine.run(trace.iter().copied(), |va| mosalloc.page_size_at(va))
    });
    out.set(format!("machine.run_ns.{anchor}"), run_ns);
    out.set(
        format!("machine.timing_ns.{anchor}"),
        run_ns - access_ns - lookup_ns,
    );
    out.check(&counters == expected, || {
        format!("{anchor}: traced engine {counters:?} != grid record {expected:?}")
    });
    lookup_ns
}

fn size_index(size: PageSize) -> usize {
    match size {
        PageSize::Base4K => 0,
        PageSize::Huge2M => 1,
        PageSize::Huge1G => 2,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
