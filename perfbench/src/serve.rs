//! `serve_fleet`: a 2-shard `Fleet` over the paper-size Al fixture,
//! published with compressed and quantized tiers, driven open-loop by
//! two tenants through the `dp_serve::wire` codec.
//!
//! * Interactive tenant: fresh jittered geometries, energy + forces —
//!   Auto fidelity routes it to the compressed tier, its env lookups
//!   miss.
//! * Bulk tenant: energy-only requests from a small fixed geometry
//!   pool — the quantized tier, env lookups hit.
//! * Pre-built model versions are published at fixed times of the
//!   nominal window; each publish gives the snapshot a cold cache.
//!
//! One submitter (this thread) sends on the schedule; one drainer
//! collects replies and issues the publishes. Latency runs from each
//! request's scheduled send time to its decoded reply.

use crate::load::{self, highest_passing, latency_ms, lateness_ms, rung_passes};
use crate::report::Outcome;
use crate::stats;
use crate::trace::{attribute, Tracer};
use deepmd_core::compress::{CompressSpec, CompressedModel};
use deepmd_core::env_cache::EnvCache;
use deepmd_core::model::DeepPotModel;
use deepmd_core::quant::QuantizedModel;
use dp_data::dataset::Snapshot;
use dp_serve::demo::{demo_frame_paper, demo_model_paper};
use dp_serve::wire::{self, Frame};
use dp_serve::{
    Fidelity, Fleet, FleetConfig, InferRequest, InferResponse, ModelRegistry, ModelTable,
    ServeError, ShardSet, SloPolicy, Ticket,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving knobs, fixed in `BENCHMARK.json`'s command line.
pub struct Config {
    /// Interactive tenant's nominal mean rate (req/s).
    pub rate: f64,
    /// Bulk tenant's mean rate (req/s), held on every rung.
    pub bulk_rate: f64,
    /// Interactive p99 latency limit (ms).
    pub slo_ms: f64,
    /// Ascending interactive rates (req/s) the capacity search climbs.
    pub ladder: Vec<f64>,
}

const SHARDS: u32 = 2;
/// Set-ups timed per run (each takes well under a second).
const SETUP_REPEATS: usize = 7;
/// Versions published during the nominal window, per model.
const LIVE_PUBLISHES: usize = 2;
/// Bulk geometry pool per run.
const BULK_POOL: u64 = 8;
/// Replies re-evaluated directly per tenant.
const RECHECK: usize = 24;
/// Poll interval of the drainer while replies are outstanding.
const POLL: Duration = Duration::from_micros(200);
/// Quantized tier's accuracy budget against the f64 master (eV/atom).
const QUANT_BUDGET_EV_ATOM: f64 = 1e-3;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Tenant {
    Interactive = 1,
    Bulk = 2,
}

/// One model version with its serving artifacts.
struct Version {
    master: DeepPotModel,
    compressed: CompressedModel,
    quantized: QuantizedModel,
}

fn build_version(seed: u64) -> Version {
    let master = demo_model_paper(seed);
    let compressed =
        CompressedModel::compress(&master, &CompressSpec::default()).expect("fixture compresses");
    let quantized =
        QuantizedModel::quantize(&compressed, &[demo_frame_paper(1), demo_frame_paper(2)])
            .expect("fixture quantizes");
    Version {
        master,
        compressed,
        quantized,
    }
}

/// A running fleet with the versions still to be published.
struct Served {
    fleet: Fleet,
    /// Two model ids that route to different shards.
    models: [u64; 2],
    /// Per publish slot, one version per model.
    pending: Vec<[Version; 2]>,
}

/// First two model ids the fleet's rendezvous router puts on
/// different shards.
fn split_models() -> [u64; 2] {
    let shards = ShardSet::contiguous(SHARDS);
    let a = 1u64;
    let b = (2u64..)
        .find(|&id| shards.route(id) != shards.route(a))
        .expect("two shards");
    [a, b]
}

/// Build every version, start the fleet and publish the first tiered
/// version of both models.
fn set_up(seed: u64) -> Served {
    let mut versions: Vec<[Version; 2]> = (0..=LIVE_PUBLISHES as u64)
        .map(|v| {
            [
                build_version(seed ^ (0xA0 + v)),
                build_version(seed ^ (0xB0 + v)),
            ]
        })
        .collect();
    let models = split_models();
    let first = versions.remove(0);
    let table = ModelTable::with_models(
        models
            .iter()
            .zip(&first)
            .map(|(&id, v)| (id, Arc::new(ModelRegistry::new(v.master.clone())))),
    );
    let fleet = Fleet::start(
        FleetConfig::new(SHARDS).with_slo(SloPolicy::default()),
        table,
    );
    for (&id, v) in models.iter().zip(first) {
        publish(&fleet, id, v);
    }
    Served {
        fleet,
        models,
        pending: versions,
    }
}

fn publish(fleet: &Fleet, model: u64, v: Version) -> u64 {
    let reg = fleet.models().get(model).expect("model is served");
    reg.publish_with_artifacts(v.master, Some(v.compressed), Some(v.quantized))
        .expect("pre-built version publishes")
}

/// One request of a generated schedule.
struct Arrival {
    at: Duration,
    tenant: Tenant,
    model: u64,
    frame: Arc<Snapshot>,
}

/// Merge both tenants' open-loop schedules over `seconds`.
fn arrivals(models: [u64; 2], rate: f64, bulk_rate: f64, seconds: f64, seed: u64) -> Vec<Arrival> {
    let pool: Vec<Arc<Snapshot>> = (0..BULK_POOL)
        .map(|j| Arc::new(demo_frame_paper(seed.wrapping_mul(31) + 1000 + j)))
        .collect();
    let mut out: Vec<Arrival> = Vec::new();
    for (k, at) in load::schedule(rate, seconds, seed ^ 0x1)
        .into_iter()
        .enumerate()
    {
        let frame = Arc::new(demo_frame_paper(
            seed.wrapping_mul(1_000_003).wrapping_add(k as u64 + 5000),
        ));
        out.push(Arrival {
            at,
            tenant: Tenant::Interactive,
            model: models[k % 2],
            frame,
        });
    }
    for (k, at) in load::schedule(bulk_rate, seconds, seed ^ 0x2)
        .into_iter()
        .enumerate()
    {
        let j = (k as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed)
            % BULK_POOL;
        out.push(Arrival {
            at,
            tenant: Tenant::Bulk,
            model: models[(k + 1) % 2],
            frame: Arc::clone(&pool[j as usize]),
        });
    }
    out.sort_by_key(|a| a.at);
    out
}

/// What happened to one request.
struct Record {
    sent: Duration,
    done: Duration,
    result: Result<InferResponse, ServeError>,
}

/// Span helper: time through the tracer when there is one.
fn timed<T>(tr: Option<&Tracer>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(layer, f),
        None => f(),
    }
}

/// Drive one open-loop window. Publishes `pending` at the given
/// offsets. Returns per-arrival records and the publish versions.
fn drive(
    served: &Served,
    plan: &[Arrival],
    publish_at: &[Duration],
    mut pending: Vec<[Version; 2]>,
    tr: Option<&Tracer>,
) -> (Vec<Record>, Vec<u64>) {
    let fleet = &served.fleet;
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, Duration, Result<Ticket, ServeError>)>();
    let mut records: Vec<Option<Record>> = (0..plan.len()).map(|_| None).collect();
    let mut versions = Vec::new();
    std::thread::scope(|s| {
        let drainer = s.spawn(move || {
            let mut done: Vec<(usize, Record)> = Vec::with_capacity(plan.len());
            let mut outstanding: Vec<(usize, Duration, Ticket)> = Vec::new();
            let mut published = Vec::new();
            let mut next_pub = 0usize;
            let mut open = true;
            let finish = |i: usize,
                          sent: Duration,
                          result: Result<InferResponse, ServeError>,
                          done: &mut Vec<(usize, Record)>| {
                let bytes = timed(tr, "wire.encode", || wire::encode_infer_result(&result));
                let decoded = timed(tr, "wire.decode", || wire::decode_infer_reply(&bytes));
                let result = match decoded {
                    Ok(r) => r,
                    Err(e) => Err(ServeError::BadRequest(format!("reply decode failed: {e}"))),
                };
                done.push((
                    i,
                    Record {
                        sent,
                        done: start.elapsed(),
                        result,
                    },
                ));
            };
            while open || !outstanding.is_empty() {
                while next_pub < publish_at.len() && start.elapsed() >= publish_at[next_pub] {
                    let slot = pending.remove(0);
                    for (&id, v) in served.models.iter().zip(slot) {
                        published.push(timed(tr, "registry.publish", || publish(fleet, id, v)));
                    }
                    next_pub += 1;
                }
                loop {
                    match rx.try_recv() {
                        Ok((i, sent, Ok(t))) => outstanding.push((i, sent, t)),
                        Ok((i, sent, Err(e))) => finish(i, sent, Err(e), &mut done),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let mut k = 0;
                let mut progressed = false;
                while k < outstanding.len() {
                    if let Some(r) = outstanding[k].2.wait_timeout(Duration::ZERO) {
                        let (i, sent, _) = outstanding.swap_remove(k);
                        finish(i, sent, r, &mut done);
                        progressed = true;
                    } else {
                        k += 1;
                    }
                }
                if !progressed {
                    let oldest = (0..outstanding.len()).min_by_key(|&k| outstanding[k].1);
                    match oldest {
                        Some(k) => {
                            if let Some(r) = outstanding[k].2.wait_timeout(POLL) {
                                let (i, sent, _) = outstanding.swap_remove(k);
                                finish(i, sent, r, &mut done);
                            }
                        }
                        None if open => match rx.recv_timeout(POLL) {
                            Ok((i, sent, Ok(t))) => outstanding.push((i, sent, t)),
                            Ok((i, sent, Err(e))) => finish(i, sent, Err(e), &mut done),
                            Err(mpsc::RecvTimeoutError::Timeout) => {}
                            Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
                        },
                        None => {}
                    }
                }
            }
            (done, published)
        });
        for (i, a) in plan.iter().enumerate() {
            let now = start.elapsed();
            if a.at > now {
                std::thread::sleep(a.at - now);
            }
            let sent = start.elapsed();
            let mut req = InferRequest::new((*a.frame).clone(), a.tenant == Tenant::Interactive)
                .for_model(a.model)
                .from_tenant(a.tenant as u64);
            if a.tenant == Tenant::Bulk {
                req = req.bulk();
            }
            let bytes = timed(tr, "wire.encode", || wire::encode_infer(&req));
            let decoded = timed(tr, "wire.decode", || match wire::decode(&bytes) {
                Ok(Frame::Infer(f)) => Ok(f.to_request()),
                Ok(_) => Err(ServeError::BadRequest(
                    "request decoded as another frame type".into(),
                )),
                Err(e) => Err(ServeError::BadRequest(format!("wire decode failed: {e}"))),
            });
            let ticket = decoded.and_then(|r| timed(tr, "shard.submit", || fleet.submit(r)));
            tx.send((i, sent, ticket)).expect("drainer alive");
        }
        drop(tx);
        let (done, published) = drainer.join().expect("drainer must not panic");
        for (i, r) in done {
            records[i] = Some(r);
        }
        versions = published;
    });
    (
        records
            .into_iter()
            .map(|r| r.expect("every request resolves"))
            .collect(),
        versions,
    )
}

/// Latencies (ms) of one tenant's requests; `None` for failures.
fn latencies(plan: &[Arrival], recs: &[Record], tenant: Tenant) -> Vec<Option<f64>> {
    plan.iter()
        .zip(recs)
        .filter(|(a, _)| a.tenant == tenant)
        .map(|(a, r)| r.result.as_ref().ok().map(|_| latency_ms(a.at, r.done)))
        .collect()
}

fn ok_latencies(plan: &[Arrival], recs: &[Record], tenant: Tenant) -> Vec<f64> {
    latencies(plan, recs, tenant)
        .into_iter()
        .flatten()
        .collect()
}

/// Wait until every shard's queue is empty.
fn quiesce(fleet: &Fleet) {
    while (0..SHARDS).any(|s| fleet.engine(s).is_some_and(|e| e.queue_depth() > 0)) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Direct evaluation of one request through the tier its reply names,
/// timed per core layer. `caches` keeps one env cache per (model,
/// version), as each published snapshot does.
struct Direct {
    energy: f64,
    forces: Option<Vec<dp_mdsim::Vec3>>,
    env_ms: f64,
    forward_ms: f64,
    forces_ms: f64,
}

fn direct(
    served: &Served,
    model: u64,
    resp: &InferResponse,
    frame: &Snapshot,
    caches: &mut HashMap<(u64, u64), EnvCache>,
) -> Option<Direct> {
    let snap = served
        .fleet
        .models()
        .get(model)?
        .snapshot_at(resp.version)?;
    let cache = caches
        .entry((model, resp.version))
        .or_insert_with(|| EnvCache::new(ModelRegistry::DEFAULT_CACHE_SLOTS));
    let ms = |t: Instant| 1e3 * t.elapsed().as_secs_f64();
    let t = Instant::now();
    let env = cache.get_or_build_keyed(&snap.model.cfg, &snap.model.stats, frame);
    let env_ms = ms(t);
    let t = Instant::now();
    match resp.fidelity {
        Fidelity::Quantized => {
            let energy = snap.quantized.as_ref()?.energy_cached(frame, env);
            Some(Direct {
                energy,
                forces: None,
                env_ms,
                forward_ms: ms(t),
                forces_ms: 0.0,
            })
        }
        Fidelity::Compressed => {
            let c = snap.compressed.as_ref()?;
            let pass = c.forward_cached(frame, env);
            let forward_ms = ms(t);
            let t = Instant::now();
            let forces = resp.forces.as_ref().map(|_| c.forces(&pass));
            Some(Direct {
                energy: pass.energy,
                forces,
                env_ms,
                forward_ms,
                forces_ms: ms(t),
            })
        }
        _ => None,
    }
}

fn bits(v: &[dp_mdsim::Vec3]) -> Vec<u64> {
    v.iter().flat_map(|f| f.0.map(f64::to_bits)).collect()
}

/// One reply re-evaluated directly: its tenant, latency and timings.
struct Sampled {
    tenant: Tenant,
    latency_ms: f64,
    direct: Direct,
}

/// Check every reply of a window, re-evaluate a seeded sample through
/// the tier each names, and return the sample.
fn verify(
    label: &str,
    served: &Served,
    plan: &[Arrival],
    recs: &[Record],
    published: &[u64],
    seed: u64,
    out: &mut Outcome,
) -> Vec<Sampled> {
    // Version 1 is each registry's master-only initial snapshot; set-up
    // publishes version 2 with both tiers before any traffic.
    let mut allowed: Vec<u64> = vec![2];
    allowed.extend(published);
    let mut bad = Vec::new();
    for (a, r) in plan.iter().zip(recs) {
        match &r.result {
            Err(e) => {
                out.failed += 1;
                bad.push(format!("{:?} request failed: {e}", a.tenant));
            }
            Ok(resp) => {
                let want = match a.tenant {
                    Tenant::Interactive if !resp.degraded => Fidelity::Compressed,
                    _ => Fidelity::Quantized,
                };
                if !allowed.contains(&resp.version) {
                    bad.push(format!("reply names unpublished version {}", resp.version));
                }
                if a.tenant == Tenant::Interactive && resp.forces.is_none() && !resp.degraded {
                    bad.push("interactive reply lacks forces without the degraded flag".into());
                }
                if resp.fidelity != want {
                    bad.push(format!(
                        "{:?} reply served by the {} tier",
                        a.tenant, resp.fidelity
                    ));
                }
            }
        }
    }
    out.check(
        bad.is_empty(),
        format!(
            "{label}: {} replies name published versions, carry forces unless degraded, come from the routed tier{}",
            recs.len(),
            bad.first().map(|b| format!(" (first problem: {b})")).unwrap_or_default()
        ),
    );
    let mut caches = HashMap::new();
    let mut sample = Vec::new();
    let mut mismatches = 0usize;
    let mut tier_err = 0.0f64;
    for tenant in [Tenant::Interactive, Tenant::Bulk] {
        let idx: Vec<usize> = (0..plan.len())
            .filter(|&i| plan[i].tenant == tenant && recs[i].result.is_ok())
            .collect();
        let stride = (idx.len() / RECHECK).max(1);
        let offset = (seed as usize) % stride;
        for &i in idx.iter().skip(offset).step_by(stride).take(RECHECK) {
            let resp = recs[i].result.as_ref().expect("filtered to OK");
            let frame = &plan[i].frame;
            let Some(d) = direct(served, plan[i].model, resp, frame, &mut caches) else {
                mismatches += 1;
                continue;
            };
            let same = d.energy.to_bits() == resp.energy.to_bits()
                && resp.forces.as_deref().map(bits) == d.forces.as_deref().map(bits);
            mismatches += usize::from(!same);
            if tenant == Tenant::Bulk {
                let snap = served
                    .fleet
                    .models()
                    .get(plan[i].model)
                    .and_then(|r| r.snapshot_at(resp.version));
                let master = snap.map(|s| s.model.predict(frame).energy);
                let n = frame.types.len() as f64;
                tier_err =
                    tier_err.max(master.map_or(f64::INFINITY, |m| (m - resp.energy).abs() / n));
            }
            sample.push(Sampled {
                tenant,
                latency_ms: latency_ms(plan[i].at, recs[i].done),
                direct: d,
            });
        }
    }
    out.check(mismatches == 0, format!("{label}: {} sampled replies equal a direct evaluation through the tier they name, bitwise", sample.len()));
    out.check(
        tier_err <= QUANT_BUDGET_EV_ATOM,
        format!("{label}: bulk (quantized) energies within {QUANT_BUDGET_EV_ATOM} eV/atom of the master: worst {tier_err:.2e}"),
    );
    sample
}

/// Nearest-rank p99 and maximum of the generator's lateness (ms).
fn gen_lag(plan: &[Arrival], recs: &[Record]) -> (f64, f64) {
    let mut late: Vec<f64> = plan
        .iter()
        .zip(recs)
        .map(|(a, r)| lateness_ms(a.at, r.sent))
        .collect();
    late.sort_by(f64::total_cmp);
    (
        stats::percentile(&late, 99.0).unwrap_or(0.0),
        late.last().copied().unwrap_or(0.0),
    )
}

fn summary(plan: &[Arrival], recs: &[Record], tenant: Tenant) -> stats::Summary {
    stats::summarize(&ok_latencies(plan, recs, tenant)).unwrap_or(stats::Summary {
        n: 0,
        p50: f64::NAN,
        p99: f64::NAN,
        tail: None,
    })
}

/// Run the workload.
pub fn run(cfg: &Config, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    out.setup_s = crate::report::time_setups(SETUP_REPEATS, || {
        let s = set_up(seed);
        s.fleet.shutdown();
        s
    });
    // Traced runs spend both halves on nominal windows; untraced runs
    // give 40% to the nominal window and 60% to the capacity search.
    let nominal_s = if trace { seconds / 2.0 } else { 0.4 * seconds };
    let publish_at: Vec<Duration> = (1..=LIVE_PUBLISHES)
        .map(|k| Duration::from_secs_f64(nominal_s * k as f64 / (LIVE_PUBLISHES + 1) as f64))
        .collect();
    let mut served = set_up(seed);
    let plan = arrivals(served.models, cfg.rate, cfg.bulk_rate, nominal_s, seed);
    let pending = std::mem::take(&mut served.pending);
    let (recs, published) = drive(&served, &plan, &publish_at, pending, None);
    quiesce(&served.fleet);
    out.attempted += plan.len() as u64;
    verify("nominal", &served, &plan, &recs, &published, seed, out);
    let inter = summary(&plan, &recs, Tenant::Interactive);
    let bulk = summary(&plan, &recs, Tenant::Bulk);
    let (lag_p99, lag_max) = gen_lag(&plan, &recs);
    out.figure("serve_p50_ms", inter.p50, "ms");
    out.figure("serve_p99_ms", inter.p99, "ms");
    out.figure("serve_bulk_p99_ms", bulk.p99, "ms");
    out.figure("serve_bulk_samples", bulk.n as f64, "count");
    out.figure("load_gen_lag_p99_ms", lag_p99, "ms");
    out.figure("load_gen_lag_max_ms", lag_max, "ms");

    if trace {
        served.fleet.shutdown();
        traced(seed, &plan, &publish_at, inter.p50, out);
        return;
    }

    // Capacity: bisect the fixed ladder. Each probe is a fresh
    // schedule at the rung's interactive rate beside nominal bulk; a
    // rung fails only when two probes in a row miss, so one disturbed
    // probe cannot send the search into the lower half.
    let probes = (usize::BITS - cfg.ladder.len().leading_zeros()).max(1) as f64;
    let probe_s = (seconds - nominal_s) / (2.0 * probes);
    let mut achieved: HashMap<usize, f64> = HashMap::new();
    let mut probe = |k: usize, attempt: u64| {
        let schedule_seed = seed.wrapping_add(7919 * (k as u64 + 1) + 104_729 * attempt);
        let plan = arrivals(
            served.models,
            cfg.ladder[k],
            cfg.bulk_rate,
            probe_s,
            schedule_seed,
        );
        let (recs, _) = drive(&served, &plan, &[], Vec::new(), None);
        quiesce(&served.fleet);
        out.attempted += plan.len() as u64;
        out.failed += recs.iter().filter(|r| r.result.is_err()).count() as u64;
        let lat = latencies(&plan, &recs, Tenant::Interactive);
        let inter = || {
            plan.iter()
                .zip(&recs)
                .filter(|(a, _)| a.tenant == Tenant::Interactive)
        };
        let last_sched = inter().map(|(a, _)| a.at).max().unwrap_or(Duration::ZERO);
        let last_done = inter().map(|(_, r)| r.done).max().unwrap_or(Duration::ZERO);
        // Goodput: completed interactive requests per second of the
        // window, the drain after the last send included.
        let ok = lat.iter().flatten().count();
        achieved.insert(k, ok as f64 / last_done.as_secs_f64().max(probe_s));
        let drain = load::ms_between(last_sched, last_done);
        let pass = rung_passes(&lat, cfg.slo_ms, drain);
        let p = summary(&plan, &recs, Tenant::Interactive);
        println!(
            "rung {k} {} req/s, probe {attempt}: {} interactive requests, p50 {:.1} ms, p99 {:.1} ms, drain {drain:.1} ms, {}",
            cfg.ladder[k],
            lat.len(),
            p.p50,
            p.p99,
            if pass { "pass" } else { "miss" }
        );
        pass
    };
    let best = highest_passing(cfg.ladder.len(), |k| probe(k, 0) || probe(k, 1));
    out.check(
        best.is_some(),
        format!(
            "lowest ladder rung ({} req/s) meets the {} ms p99 limit",
            cfg.ladder.first().copied().unwrap_or(0.0),
            cfg.slo_ms
        ),
    );
    let (rung_rate, measured) = best.map_or((0.0, 0.0), |k| (cfg.ladder[k], achieved[&k]));
    out.figure("serve_max_rps_at_slo", rung_rate, "req/s");
    out.figure("serve_achieved_rps_at_slo", measured, "req/s");
    out.measured(measured, &inter);
    served.fleet.shutdown();
}

/// Attribution order of the generator threads' spans.
const LAYERS: [&str; 4] = [
    "wire.encode",
    "wire.decode",
    "shard.submit",
    "registry.publish",
];

/// The traced nominal window: a fresh fleet, the same schedule, spans
/// around the wire codec, submit and publish.
fn traced(seed: u64, plan: &[Arrival], publish_at: &[Duration], plain_p50: f64, out: &mut Outcome) {
    let mut served = set_up(seed);
    let pending = std::mem::take(&mut served.pending);
    let tr = Tracer::new();
    let t0 = tr.now();
    let (recs, published) = drive(&served, plan, publish_at, pending, Some(&tr));
    quiesce(&served.fleet);
    let t1 = tr.now();
    out.attempted += plan.len() as u64;
    let stats = served.fleet.stats_per_shard();
    let sample = verify("traced", &served, plan, &recs, &published, seed, out);
    served.fleet.shutdown();

    let spans = tr.spans();
    let n = plan.len() as f64;
    let total = |layer: &str| {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.len())
            .sum::<u64>() as f64
    };
    out.layer("wire.encode_us", total("wire.encode") / 1e3 / n);
    out.layer("wire.decode_us", total("wire.decode") / 1e3 / n);
    out.layer("shard.submit_us", total("shard.submit") / 1e3 / n);
    out.layer(
        "registry.publish_us",
        total("registry.publish") / 1e3 / published.len().max(1) as f64,
    );
    let requests: u64 = stats.iter().map(|(_, s)| s.requests).sum();
    let batches: u64 = stats.iter().map(|(_, s)| s.batches).sum();
    let per_req = |f: &dyn Fn(&dp_serve::StatsSnapshot) -> u64| {
        stats.iter().map(|(_, s)| f(s)).sum::<u64>() as f64 / requests.max(1) as f64
    };
    out.layer("serve.mean_batch", requests as f64 / batches.max(1) as f64);
    out.layer("serve.shed_share", per_req(&|s| s.shed + s.deadline_miss));
    out.layer("serve.degraded_share", per_req(&|s| s.degraded));
    out.layer(
        "serve.max_queue_depth",
        stats.iter().map(|(_, s)| s.max_depth).max().unwrap_or(0) as f64,
    );
    let hit: f64 = stats
        .iter()
        .map(|(_, s)| s.cache_hit_rate * s.requests as f64)
        .sum::<f64>()
        / requests.max(1) as f64;
    out.layer("core.env_cache_hit_rate", hit);
    let mean = |f: &dyn Fn(&Direct) -> f64| {
        sample.iter().map(|s| f(&s.direct)).sum::<f64>() / sample.len().max(1) as f64
    };
    out.layer("core.env_build_ms", mean(&|d| d.env_ms));
    out.layer("core.forward_ms", mean(&|d| d.forward_ms));
    out.layer("core.forces_ms", mean(&|d| d.forces_ms));
    let inter: Vec<&Sampled> = sample
        .iter()
        .filter(|s| s.tenant == Tenant::Interactive)
        .collect();
    let service: Vec<f64> = inter
        .iter()
        .map(|s| s.direct.env_ms + s.direct.forward_ms + s.direct.forces_ms)
        .collect();
    let waits: Vec<f64> = inter
        .iter()
        .zip(&service)
        .map(|(s, sv)| s.latency_ms - sv)
        .collect();
    out.layer(
        "serve.service_ms",
        service.iter().sum::<f64>() / service.len().max(1) as f64,
    );
    out.layer("serve.queue_wait_ms", stats::median(&waits).unwrap_or(0.0));
    let (lag_p99, _) = gen_lag(plan, &recs);
    out.layer("load.gen_lag_p99_ms", lag_p99);
    let p50 = summary(plan, &recs, Tenant::Interactive).p50;
    out.layer("trace.unit_wall_ms", p50);
    out.layer("trace.overhead_share", p50 / plain_p50 - 1.0);
    let (_, unattributed) = attribute(&spans, &LAYERS, t0, t1);
    out.layer(
        "trace.unattributed_share",
        unattributed as f64 / (t1 - t0) as f64,
    );
}
