//! The serving layer: an in-process mosaicd driven by a closed loop.
//!
//! One thread sends every request and waits for its reply before the
//! next (a closed loop: callers that each wait for an answer). Each served
//! pair has its own connection, and blocks of requests alternate between
//! the pairs. The seeded stream mixes four request types:
//!
//! * predict **misses** — fresh layout specs, each one partial
//!   simulation, sent first in each block;
//! * predict **hits** — repeats and alias spellings of layouts answered
//!   recently, so the working set stays far below the prediction cache
//!   (1024 entries, split over 8 per-pair shards of 128). Only the first
//!   hit of a block follows a miss, whose simulation leaves the host
//!   caches cold; were misses shuffled among hits, about a tenth of the
//!   hits would pay that and p90 would fall on the boundary between the
//!   two populations;
//! * `recommend` — every hugepage budget size the pool admits, dealt
//!   among the served pairs by seed and asked in seeded order, each cold
//!   once and then repeated (cached) under another spelling. A budget's
//!   cost grows with its size, so a run that asked only some sizes would
//!   move `recommend_cold_p50_ms` with the seed;
//! * `stats` — around every block of predicts, to check that the
//!   intended hits and misses are what the server counted.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use harness::{measure_layout, GridEntry, MachineVariant, MeasureContext};
use layouts::spec::parse_spec;
use mosmodel::metrics::{geo_mean_err, max_err};
use mosmodel::{ModelKind, RuntimeModel};
use recommend::{enumerate_candidates, parse_budget, DEFAULT_EXPLORE_STEPS};
use service::cache::{pair_shard, CACHE_SHARDS};
use service::client::Client;
use service::protocol::{Prediction, RecommendReply};
use service::registry::DEFAULT_PREDICTION_CACHE;
use service::server::Server;
use vmcore::Region;

use crate::pairs::{Pair, Rng, FULL_SPEED};
use crate::report::Outcome;
use crate::spans::SpanLog;

/// Fresh layouts (misses) per block.
const MISSES_PER_BLOCK: usize = 3;
/// Repeated layouts (hits) per block.
const HITS_PER_BLOCK: usize = 50;
/// Blocks every serve phase runs at least: enough that each named
/// percentile keeps ten samples beyond it (p90 of misses needs 100). A
/// phase also runs until every budget was asked cold, 63 on FAST pools,
/// so p50 of cold recommends has far more than its 20.
pub const MIN_BLOCKS: usize = 34;

/// A hit may only target a layout inserted into its cache shard at most
/// this many insertions ago — half a shard, so FIFO eviction can never
/// have reached it.
fn hit_horizon() -> u64 {
    (DEFAULT_PREDICTION_CACHE.div_ceil(CACHE_SHARDS) / 2) as u64
}

/// One answered layout a hit may repeat.
struct Answered {
    /// 2 MiB-page windows `[start, end)`.
    windows: Vec<(u64, u64)>,
    /// Canonical layout (cache key component).
    key: String,
    /// The shard insertion count right after this layout was inserted.
    inserted_at: u64,
}

/// Per served pair: its geometry and what the stream has sent so far.
struct PairStream {
    pair: Pair,
    pool: Region,
    pages: u64,
    shard: usize,
    used: BTreeSet<String>,
    forbidden: BTreeSet<String>,
    answered: Vec<Answered>,
    /// The budget family (`k`x2m) in seeded order, with each budget's
    /// candidate count.
    budgets: Vec<(u64, usize)>,
    next_budget: usize,
}

impl PairStream {
    /// The stream for `pair`, whose budget family is every `k`x2m budget
    /// the pool admits with `k % share.1 == share.0`.
    fn new(pair: Pair, share: (u64, u64), rng: &mut Rng, log: &mut SpanLog) -> PairStream {
        let ctx = MeasureContext::new(FULL_SPEED, pair.workload).expect("known workload");
        let pool = ctx.pool();
        let pages = pool.len() / (2 << 20);
        let mut order: Vec<u64> = (1..pages).filter(|k| k % share.1 == share.0).collect();
        rng.shuffle(&mut order);
        // Layouts any budget of the family may score: a miss must never
        // name one, or a recommend could have cached it already.
        let mut forbidden = BTreeSet::new();
        let mut budgets = Vec::with_capacity(order.len());
        for k in order {
            let budget = parse_budget(pool, &budget_spec(k, false)).expect("budget fits the pool");
            let candidates = log.span("recommend.enumerate_candidates", |_| {
                enumerate_candidates(pool, &budget, DEFAULT_EXPLORE_STEPS)
            });
            budgets.push((k, candidates.len()));
            forbidden.extend(candidates.iter().map(|l| l.describe()));
        }
        PairStream {
            pair,
            pool,
            pages,
            shard: pair_shard(pair.workload, pair.platform.name, CACHE_SHARDS),
            used: BTreeSet::new(),
            forbidden,
            answered: Vec::new(),
            budgets,
            next_budget: 0,
        }
    }

    /// A layout never requested before and outside every recommend
    /// candidate set: one or two 2 MiB windows at seeded offsets.
    fn fresh(&mut self, rng: &mut Rng) -> Option<(Vec<(u64, u64)>, String)> {
        for _ in 0..1000 {
            let a = rng.below(self.pages as usize) as u64;
            let b = a + 1 + rng.below((self.pages - a) as usize) as u64;
            let mut windows = vec![(a, b)];
            if b + 1 < self.pages && rng.below(2) == 0 {
                let c = b + 1 + rng.below((self.pages - b - 1) as usize) as u64;
                let d = c + 1 + rng.below((self.pages - c) as usize) as u64;
                windows.push((c, d));
            }
            let key = self.canonical(&spell(&windows, 0));
            if !self.used.contains(&key) && !self.forbidden.contains(&key) {
                return Some((windows, key));
            }
        }
        None
    }

    fn canonical(&self, spec: &str) -> String {
        parse_spec(self.pool, spec)
            .expect("generated specs fit the pool")
            .describe()
    }
}

/// Spells 2 MiB-page windows as a layout spec; `variant` picks one of
/// four spellings of the same layout (M, K, bytes, the `2mb` alias).
fn spell(windows: &[(u64, u64)], variant: usize) -> String {
    const MIB2: u64 = 2 << 20;
    windows
        .iter()
        .map(|&(a, b)| match variant % 4 {
            0 => format!("2m:{}M..{}M", a * 2, b * 2),
            1 => format!("2m:{}K..{}K", a * 2048, b * 2048),
            2 => format!("2m:{}..{}", a * MIB2, b * MIB2),
            _ => format!("2mb:{}M..{}M", a * 2, b * 2),
        })
        .collect::<Vec<_>>()
        .join("+")
}

/// Spells a `k`x2m budget; `alias` splits it into two terms.
fn budget_spec(k: u64, alias: bool) -> String {
    match (alias, k) {
        (false, _) => format!("{k}x2m"),
        (true, 1) => "1X2MB".to_string(),
        (true, _) => format!("{}x2m+{}x2m", k / 2, k - k / 2),
    }
}

/// What one or more serve passes measured.
#[derive(Default)]
pub struct ServeStats {
    /// Client-side latency of each predict hit, µs.
    pub hit_us: Vec<f64>,
    /// Client-side latency of each predict miss, ms.
    pub miss_ms: Vec<f64>,
    /// Client-side latency of each cold recommend, ms.
    pub rec_cold_ms: Vec<f64>,
    /// Requests sent in the phase.
    pub requests: u64,
    /// Host seconds of the phase.
    pub wall_s: f64,
    /// Request lines sent, for the wire-codec replay.
    pub lines: Vec<String>,
    /// Predictions received, for the wire-codec replay.
    pub predictions: Vec<Prediction>,
    /// Mean candidates per enumerated budget.
    pub candidates: f64,
}

impl ServeStats {
    /// Adds another pass's samples to these.
    pub fn absorb(&mut self, other: ServeStats) {
        self.hit_us.extend(other.hit_us);
        self.miss_ms.extend(other.miss_ms);
        self.rec_cold_ms.extend(other.rec_cold_ms);
        self.requests += other.requests;
        self.wall_s += other.wall_s;
        self.lines.extend(other.lines);
        self.predictions.extend(other.predictions);
        self.candidates = other.candidates;
    }
}

/// A predict reply sampled for in-process recomputation.
struct Sampled {
    pair: usize,
    spec: String,
    reply: Prediction,
}

/// Runs one pass of the closed loop against `server` — at least
/// [`MIN_BLOCKS`] blocks and until every budget was asked cold, so every
/// pass sends the same mix — checking every reply. `entries` are the grid
/// entries the server's models were fitted on, in `pairs` order.
pub fn serve_phase(
    server: &Server,
    pairs: &[Pair],
    entries: &[Arc<GridEntry>],
    rng: &mut Rng,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> ServeStats {
    // The served pairs share one budget range between them, so every run
    // asks the same number of cold recommends over the same sizes.
    let n = pairs.len() as u64;
    let offset = rng.below(pairs.len()) as u64;
    let mut streams: Vec<PairStream> = (0..n)
        .zip(pairs)
        .map(|(i, &pair)| PairStream::new(pair, ((i + offset) % n, n), rng, log))
        .collect();
    let family: Vec<usize> = streams
        .iter()
        .flat_map(|s| s.budgets.iter().map(|&(_, n)| n))
        .collect();
    let mut clients: Vec<Client> = pairs
        .iter()
        .map(|_| Client::connect(server.addr()).expect("connect to the in-process server"))
        .collect();
    let mut shard_inserts: BTreeMap<usize, u64> = BTreeMap::new();
    let mut answers: BTreeMap<(usize, String), Prediction> = BTreeMap::new();
    let mut cold_replies: BTreeMap<(usize, u64), RecommendReply> = BTreeMap::new();
    let mut sampled: Vec<Sampled> = Vec::new();
    let mut stats = ServeStats {
        candidates: family.iter().sum::<usize>() as f64 / family.len().max(1) as f64,
        ..ServeStats::default()
    };
    let started = Instant::now();

    let mut block = 0;
    let cold_left =
        |streams: &[PairStream]| streams.iter().any(|s| s.next_budget < s.budgets.len());
    while block < MIN_BLOCKS || cold_left(&streams) {
        let p = block % streams.len();
        block += 1;

        // Predict segment, bracketed by stats so the server's hit and
        // miss counters can be checked against the intended ones.
        out.attempt();
        let before = clients[p].stats();
        let (mut hits, mut misses) = (0u64, 0u64);
        for index in 0..MISSES_PER_BLOCK + HITS_PER_BLOCK {
            let is_miss = index < MISSES_PER_BLOCK;
            let stream = &mut streams[p];
            let inserts = *shard_inserts.get(&stream.shard).unwrap_or(&0);
            let eligible: Vec<usize> = (0..stream.answered.len())
                .filter(|&i| inserts - stream.answered[i].inserted_at < hit_horizon())
                .collect();
            let (spec, key, fresh) = if is_miss || eligible.is_empty() {
                let Some((windows, key)) = stream.fresh(rng) else {
                    out.fail(format!("{}: no fresh layout left", stream.pair.label()));
                    continue;
                };
                (spell(&windows, 0), key, Some(windows))
            } else {
                let target = &stream.answered[*rng.pick(&eligible)];
                (
                    spell(&target.windows, rng.below(4)),
                    target.key.clone(),
                    None,
                )
            };
            let pair = stream.pair;
            let line = format!("predict {} {} {spec}", pair.workload, pair.platform.name);
            out.attempt();
            let t = Instant::now();
            let reply = log.span("service.predict", |_| {
                clients[p].predict(pair.workload, pair.platform.name, &spec, None)
            });
            let elapsed = t.elapsed().as_secs_f64();
            stats.lines.push(line);
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    out.fail(format!("predict {spec} on {}: {e}", pair.label()));
                    continue;
                }
            };
            let stream = &mut streams[p];
            match fresh {
                Some(windows) => {
                    misses += 1;
                    stats.miss_ms.push(elapsed * 1e3);
                    let counter = shard_inserts.entry(stream.shard).or_insert(0);
                    *counter += 1;
                    stream.used.insert(key.clone());
                    stream.answered.push(Answered {
                        windows,
                        key: key.clone(),
                        inserted_at: *counter,
                    });
                    if rng.below(8) == 0 {
                        sampled.push(Sampled {
                            pair: p,
                            spec,
                            reply: reply.clone(),
                        });
                    }
                    answers.insert((p, key), reply.clone());
                }
                None => {
                    hits += 1;
                    stats.hit_us.push(elapsed * 1e6);
                    let same = answers.get(&(p, key.clone())) == Some(&reply);
                    out.check(same, || {
                        format!("hit {spec} on {} differs from its miss", pair.label())
                    });
                }
            }
            stats.predictions.push(reply);
        }
        let after = clients[p].stats();
        match (before, after) {
            (Ok(b), Ok(a)) => {
                let dh = a.cache.hits.wrapping_sub(b.cache.hits);
                let dm = a.cache.misses.wrapping_sub(b.cache.misses);
                if (dh, dm) != (hits, misses) {
                    out.fail(format!(
                        "server counted {dh} hits / {dm} misses, intended {hits} / {misses}"
                    ));
                }
            }
            (b, a) => out.fail(format!("stats failed: {:?} / {:?}", b.err(), a.err())),
        }

        // One cold recommend (a budget not asked before) and one repeat
        // of an earlier budget under another spelling.
        let stream = &mut streams[p];
        let pair = stream.pair;
        if let Some(&(k, candidates)) = stream.budgets.get(stream.next_budget) {
            stream.next_budget += 1;
            let spec = budget_spec(k, false);
            stats.lines.push(format!(
                "recommend {} {} {spec}",
                pair.workload, pair.platform.name
            ));
            out.attempt();
            let t = Instant::now();
            let reply = log.span("service.recommend", |_| {
                clients[p].recommend(pair.workload, pair.platform.name, &spec, None)
            });
            stats.rec_cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
            // Scoring may insert every candidate into the pair's shard.
            *shard_inserts.entry(stream.shard).or_insert(0) += candidates as u64;
            match reply {
                Ok(reply) => {
                    cold_replies.insert((p, k), reply);
                }
                Err(e) => out.fail(format!("recommend {spec} on {}: {e}", pair.label())),
            }
        }
        if stream.next_budget > 0 {
            let (k, _) = stream.budgets[rng.below(stream.next_budget)];
            let spec = budget_spec(k, true);
            stats.lines.push(format!(
                "recommend {} {} {spec}",
                pair.workload, pair.platform.name
            ));
            out.attempt();
            let reply = log.span("service.recommend", |_| {
                clients[p].recommend(pair.workload, pair.platform.name, &spec, None)
            });
            match reply {
                Ok(reply) => out.check(cold_replies.get(&(p, k)) == Some(&reply), || {
                    format!("cached recommend {spec} on {} differs", pair.label())
                }),
                Err(e) => out.fail(format!("recommend {spec} on {}: {e}", pair.label())),
            }
        }
    }
    stats.wall_s = started.elapsed().as_secs_f64();
    // Every line sent plus the two `stats` around each block.
    stats.requests = (stats.lines.len() + 2 * block) as u64;

    recompute_sampled(&sampled, pairs, entries, out);
    stats
}

/// Recomputes each sampled predict reply in-process through the public
/// harness and mosmodel API and counts any difference as a failure.
fn recompute_sampled(
    sampled: &[Sampled],
    pairs: &[Pair],
    entries: &[Arc<GridEntry>],
    out: &mut Outcome,
) {
    let mut models = BTreeMap::new();
    for s in sampled {
        let pair = pairs[s.pair];
        let dataset = entries[s.pair].dataset();
        let model = models.entry(s.pair).or_insert_with(|| {
            ModelKind::Mosmodel
                .fit(&dataset)
                .expect("guarded battery fits")
        });
        let ctx = MeasureContext::new(FULL_SPEED, pair.workload).expect("known workload");
        let layout = parse_spec(ctx.pool(), &s.spec).expect("generated spec parses");
        let record = measure_layout(&ctx, &MachineVariant::real(pair.platform), &layout);
        let expected = Prediction {
            runtime_cycles: record.counters.runtime_cycles,
            stlb_hits: record.counters.stlb_hits,
            stlb_misses: record.counters.stlb_misses,
            walk_cycles: record.counters.walk_cycles,
            model: ModelKind::Mosmodel,
            predicted: model.predict(&record.sample()),
            max_err: max_err(&*model, &dataset),
            geo_mean_err: geo_mean_err(&*model, &dataset),
        };
        out.check(expected == s.reply, || {
            format!(
                "predict {} on {} answered {:?}, in-process {:?}",
                s.spec,
                pair.label(),
                s.reply,
                expected
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_name_the_same_layout() {
        let pool = MeasureContext::new(FULL_SPEED, "xsbench/8GB")
            .unwrap()
            .pool();
        let windows = [(1, 5), (9, 12)];
        let keys: BTreeSet<String> = (0..4)
            .map(|v| parse_spec(pool, &spell(&windows, v)).unwrap().describe())
            .collect();
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn budget_aliases_are_canonically_equal() {
        let pool = MeasureContext::new(FULL_SPEED, "xsbench/8GB")
            .unwrap()
            .pool();
        for k in [1, 2, 7, 63] {
            let a = parse_budget(pool, &budget_spec(k, false)).unwrap();
            let b = parse_budget(pool, &budget_spec(k, true)).unwrap();
            assert_eq!(recommend::render_budget(&a), recommend::render_budget(&b));
        }
    }
}
