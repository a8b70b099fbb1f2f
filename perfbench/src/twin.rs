//! `twin_city_sessions`: a closed loop — one client, one request in
//! flight — against the multi-tenant twin server over the in-process
//! wire transport. Each tenant is a waypoint city (fuzzy, dense, passive
//! traffic plane, churn and a cell outage). Per tenant cycle the client
//! advances by a step increment below the checkpoint cadence, then
//! queries the cells and one UE; each tenant hot-swaps fuzzy → hysteresis
//! once mid-run, runs a checkpoint → drop → hydrate cycle every
//! `PERSIST_EVERY` steps, and fetches its result at completion.
//!
//! The session, checkpoint, resilience, wire and traffic-replay layers
//! do most of the work here and none in the batch workloads.

use crate::stats::{self, Distribution};
use crate::trace::Tracer;
use crate::{
    another_run, compile_paper_flc, report_throughput, splitmix, Ctx, PeakRss, Setup,
    SETUP_REPS_BETWEEN, SETUP_REPS_FIRST,
};
use fuzzy_handover::geometry::Axial;
use fuzzy_handover::mobility::RandomWaypoint;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::server::{
    read_frame, spawn_in_process, write_frame, InProcessServer, PipeReader, PipeWriter, Request,
    Response, Session, SessionConfig, TwinClient, TwinServer,
};
use fuzzy_handover::sim::{
    CellOutage, ChurnConfig, DynamicsConfig, FleetCheckpoint, FleetMobility, FleetResult,
    PolicyKind, SimConfig, TrafficConfig,
};
use std::time::Instant;

const DOMAIN: u64 = 3;
const TENANTS: usize = 4;
const UES: u64 = 300;
const WAYPOINT_LEGS: usize = 6;
/// Steps per `AdvanceTo`, below the checkpoint cadence.
const STEP_INCREMENT: u64 = 2;
const CHECKPOINT_CADENCE: u64 = 16;
/// A checkpoint → drop → hydrate cycle every this many steps.
const PERSIST_EVERY: u64 = 8;
/// Step at or after which each tenant swaps fuzzy → hysteresis.
const SWAP_AT_STEP: u64 = 12;
const SWAP_TO: PolicyKind = PolicyKind::Hysteresis { margin_db: 4.0 };

fn tenant_config(seed: u64) -> SessionConfig {
    let mut sim = SimConfig::paper_default();
    sim.shadowing = ShadowingConfig::moderate();
    sim.noise = MeasurementNoise::new(1.0);
    let radius = sim.layout.cell_radius_km();
    let mobility = FleetMobility::Waypoint(RandomWaypoint::centered(4.0, WAYPOINT_LEGS));
    let mut config = SessionConfig::new(sim, mobility, PolicyKind::Fuzzy, UES, seed);
    config.cell_radius_km = radius;
    config.traffic = Some(TrafficConfig::erlang(8, 1, 0.3, 6.0));
    config.dynamics = Some(DynamicsConfig {
        churn: Some(ChurnConfig {
            initial_ues: UES * 3 / 4,
            horizon_steps: 24,
            mean_lifetime_steps: 30.0,
        }),
        tide: None,
        failures: vec![CellOutage {
            cell: Axial::new(0, 0),
            from_step: 10,
            until_step: 18,
        }],
        services: None,
    });
    config.retry.checkpoint_cadence = CHECKPOINT_CADENCE;
    config
}

/// A request path into the server: over the wire, or straight into
/// `TwinServer::handle`. `call` returns the response and the time the
/// request took on that path.
trait Transport {
    fn call(&mut self, request: Request) -> Result<(Response, u64), String>;
}

impl Transport for TwinClient<PipeReader, PipeWriter> {
    fn call(&mut self, request: Request) -> Result<(Response, u64), String> {
        let t0 = Instant::now();
        let response = self.request(&request).map_err(|e| e.to_string())?;
        Ok((response, t0.elapsed().as_nanos() as u64))
    }
}

impl Transport for TwinServer {
    fn call(&mut self, request: Request) -> Result<(Response, u64), String> {
        let t0 = Instant::now();
        let response = self.handle(request);
        Ok((response, t0.elapsed().as_nanos() as u64))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Advance,
    Finish,
    QueryCells,
    QueryUe,
    Swap,
    Checkpoint,
    Drop,
    Hydrate,
    Result,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Advance => "advance_to",
            Kind::Finish => "advance_to.finish",
            Kind::QueryCells => "query_cells",
            Kind::QueryUe => "query_ue",
            Kind::Swap => "swap_policy",
            Kind::Checkpoint => "checkpoint",
            Kind::Drop => "drop",
            Kind::Hydrate => "hydrate",
            Kind::Result => "query_result",
        }
    }
}

/// One logged session operation, replayed by the correctness gate.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Advance(u64),
    Swap(PolicyKind),
    Persist,
}

/// Per-request timings of passes, in the order sent.
#[derive(Debug, Default)]
struct Samples {
    requests: Vec<(Kind, u64)>,
    persist_ns: Vec<u64>,
}

impl Samples {
    fn of(&self, kinds: &[Kind]) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|(k, _)| kinds.contains(k))
            .map(|&(_, ns)| ns as f64)
            .collect()
    }
}

struct Pass {
    results: Vec<FleetResult>,
    logs: Vec<Vec<Op>>,
    ue_steps: u64,
    seconds: f64,
}

/// Spawn every tenant; returns the session ids.
fn spawn_all(t: &mut dyn Transport, configs: &[SessionConfig]) -> Result<Vec<u64>, String> {
    configs
        .iter()
        .map(|c| {
            match t
                .call(Request::Spawn {
                    config: Box::new(c.clone()),
                })?
                .0
            {
                Response::Spawned { session } => Ok(session),
                other => Err(format!("spawn answered {other:?}")),
            }
        })
        .collect()
}

/// Drive the request script over freshly spawned tenants `sids` until
/// every tenant completes.
fn run_pass(
    t: &mut dyn Transport,
    mut sids: Vec<u64>,
    seed: u64,
    samples: &mut Samples,
    mut tracer: Option<&mut Tracer>,
    mut record: Option<&mut Vec<(Request, Response)>>,
) -> Result<Pass, String> {
    let n = sids.len();
    let mut step = vec![0u64; n];
    let mut done = vec![false; n];
    let mut swapped = vec![false; n];
    let mut next_persist = vec![PERSIST_EVERY; n];
    let mut logs: Vec<Vec<Op>> = vec![Vec::new(); n];
    let mut results: Vec<Option<FleetResult>> = vec![None; n];
    let mut request_id = 0u64;
    let mut cycle = 0u64;

    let mut call = |t: &mut dyn Transport,
                    samples: &mut Samples,
                    kind: Kind,
                    req: Request|
     -> Result<(Response, u64), String> {
        request_id += 1;
        let span = tracer
            .as_deref_mut()
            .map(|tr| tr.begin(kind.span(), request_id));
        let kept = record.is_some().then(|| req.clone());
        let (response, ns) = t.call(req)?;
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            tr.end(id);
        }
        if let Response::Error { error } = &response {
            return Err(format!("{} failed: {error}", kind.span()));
        }
        if let (Some(rec), Some(req)) = (record.as_deref_mut(), kept) {
            rec.push((req, response.clone()));
        }
        samples.requests.push((kind, ns));
        Ok((response, ns))
    };

    let t_start = Instant::now();
    while done.iter().any(|d| !d) {
        cycle += 1;
        for i in 0..n {
            if done[i] {
                continue;
            }
            let target = step[i] + STEP_INCREMENT;
            let (response, ns) = call(
                t,
                samples,
                Kind::Advance,
                Request::AdvanceTo {
                    session: sids[i],
                    step: target,
                },
            )?;
            let Response::Advanced { status, .. } = response else {
                return Err(format!("advance answered {response:?}"));
            };
            step[i] = target;
            logs[i].push(Op::Advance(target));
            if status.complete {
                // Re-label the completing advance: it includes the final
                // assembly and the traffic/dynamics replay.
                let last = samples.requests.len() - 1;
                samples.requests[last] = (Kind::Finish, ns);
                let (response, _) = call(
                    t,
                    samples,
                    Kind::Result,
                    Request::QueryResult { session: sids[i] },
                )?;
                let Response::Result { result, .. } = response else {
                    return Err(format!("query_result answered {response:?}"));
                };
                results[i] = Some(*result);
                call(t, samples, Kind::Drop, Request::Drop { session: sids[i] })?;
                done[i] = true;
                continue;
            }
            call(
                t,
                samples,
                Kind::QueryCells,
                Request::QueryCells { session: sids[i] },
            )?;
            let ue_id = splitmix(seed ^ (cycle << 8) ^ i as u64) % UES;
            call(
                t,
                samples,
                Kind::QueryUe,
                Request::QueryUe {
                    session: sids[i],
                    ue_id,
                },
            )?;
            if !swapped[i] && step[i] >= SWAP_AT_STEP {
                call(
                    t,
                    samples,
                    Kind::Swap,
                    Request::SwapPolicy {
                        session: sids[i],
                        policy: SWAP_TO,
                    },
                )?;
                logs[i].push(Op::Swap(SWAP_TO));
                swapped[i] = true;
            }
            if step[i] >= next_persist[i] {
                next_persist[i] += PERSIST_EVERY;
                let (response, a) = call(
                    t,
                    samples,
                    Kind::Checkpoint,
                    Request::Checkpoint { session: sids[i] },
                )?;
                let Response::Checkpointed { bytes, .. } = response else {
                    return Err(format!("checkpoint answered {response:?}"));
                };
                let (_, b) = call(t, samples, Kind::Drop, Request::Drop { session: sids[i] })?;
                let (response, c) = call(t, samples, Kind::Hydrate, Request::Hydrate { bytes })?;
                let Response::Hydrated { session } = response else {
                    return Err(format!("hydrate answered {response:?}"));
                };
                sids[i] = session;
                samples.persist_ns.push(a + b + c);
                logs[i].push(Op::Persist);
            }
        }
    }
    let seconds = t_start.elapsed().as_secs_f64();
    let results: Vec<FleetResult> = results
        .into_iter()
        .map(|r| r.expect("every tenant completed"))
        .collect();
    let ue_steps = results.iter().map(|r| r.summary.steps).sum();
    Ok(Pass {
        results,
        logs,
        ue_steps,
        seconds,
    })
}

/// Replay a tenant's logged operations on a directly driven `Session`.
/// With `timing`, also seal and unseal the session's fleet checkpoint
/// after every advance.
fn replay_session(
    config: &SessionConfig,
    log: &[Op],
    mut timing: Option<&mut SessionTiming>,
) -> Result<Session, String> {
    let mut session = Session::spawn(config.clone(), 1).map_err(|e| e.to_string())?;
    for op in log {
        match *op {
            Op::Advance(step) => {
                session.advance_to(step).map_err(|e| e.to_string())?;
                if let Some(tm) = timing.as_deref_mut() {
                    tm.advances += 1;
                    if let (false, Some(cp)) = (session.is_complete(), session.checkpoint()) {
                        let t0 = Instant::now();
                        let sealed = cp.seal();
                        tm.seal_ns.push(t0.elapsed().as_nanos() as f64);
                        let t0 = Instant::now();
                        let ok = FleetCheckpoint::try_unseal(&sealed).is_ok();
                        tm.unseal_ns.push(t0.elapsed().as_nanos() as f64);
                        tm.sealed_bytes.push(sealed.len() as f64);
                        tm.unseal_failures += u64::from(!ok);
                    }
                }
            }
            Op::Swap(policy) => {
                session.swap_policy(policy).map_err(|e| e.to_string())?;
            }
            Op::Persist => {
                let sealed = session.sealed();
                session = Session::hydrate(&sealed, 1).map_err(|e| e.to_string())?;
            }
        }
    }
    if let Some(tm) = timing {
        let status = session.status();
        tm.segments += status.segments;
        tm.retries += u64::from(status.retries);
    }
    Ok(session)
}

#[derive(Debug, Default)]
struct SessionTiming {
    advances: u64,
    segments: u64,
    retries: u64,
    seal_ns: Vec<f64>,
    unseal_ns: Vec<f64>,
    sealed_bytes: Vec<f64>,
    unseal_failures: u64,
}

fn start_server(workers: usize) -> InProcessServer {
    spawn_in_process(TwinServer::new(workers))
}

fn report_latency(ctx: &mut Ctx, name: &str, values_ns: &[f64], scale: f64, unit: &'static str) {
    let Some(d) = Distribution::of(values_ns) else {
        ctx.report.fail(format!("no {name} samples"));
        return;
    };
    let context = format!("{} samples over the wire, client round trip", d.n);
    ctx.report.metric(
        &format!("{name}_p50_{unit}"),
        d.p50 / scale,
        unit,
        format!("p50 of {context}"),
    );
    ctx.report.metric(
        &format!("{name}_tail_{unit}"),
        d.tail / scale,
        unit,
        format!(
            "p{} of {context}, {} samples beyond it",
            d.tail_pct,
            d.beyond_tail()
        ),
    );
}

pub fn run(ctx: &mut Ctx) {
    let workers = ctx.workers;
    let seeds: Vec<u64> = (0..TENANTS as u64)
        .map(|i| ctx.derive_seed(DOMAIN + 10 * i))
        .collect();
    let configs: Vec<SessionConfig> = seeds.iter().map(|&s| tenant_config(s)).collect();
    let script_seed = ctx.derive_seed(DOMAIN + 1000);

    let setup_ok = std::cell::Cell::new(true);
    let mut setup = Setup::default();
    let mut set_up = || {
        compile_paper_flc();
        let mut server = start_server(workers);
        let spawned = spawn_all(&mut server.client, &configs).is_ok();
        let stopped = server.shutdown().is_ok();
        setup_ok.set(setup_ok.get() && spawned && stopped);
    };
    setup.sample(SETUP_REPS_FIRST, &mut set_up);
    if !setup_ok.get() {
        ctx.report
            .fail("set-up: server start or tenant spawn failed");
        return;
    }

    let mut server = start_server(workers);
    let mut samples = Samples::default();
    let mut fresh_pass =
        |ctx: &mut Ctx, samples: &mut Samples, tracer: Option<&mut Tracer>| -> Option<Pass> {
            let sids = match spawn_all(&mut server.client, &configs) {
                Ok(s) => s,
                Err(err) => {
                    ctx.report.fail(format!("tenant spawn failed: {err}"));
                    return None;
                }
            };
            let before = samples.requests.len();
            let pass = run_pass(&mut server.client, sids, script_seed, samples, tracer, None);
            ctx.report
                .attempt((samples.requests.len() - before) as u64 + 1);
            match pass {
                Ok(p) => Some(p),
                Err(err) => {
                    ctx.report.fail(format!("request failed: {err}"));
                    None
                }
            }
        };

    // Warm-up pass: also the reference every later pass must reproduce.
    let Some(reference) = fresh_pass(ctx, &mut Samples::default(), None) else {
        return;
    };
    ctx.report.tag_ue_steps(reference.ue_steps);
    let window = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut rates = Vec::new();
    let mut rss = PeakRss::default();
    let mut identical = true;
    let t_start = Instant::now();
    while another_run(t_start, rates.len(), 3, window) {
        rss.start();
        let Some(pass) = fresh_pass(ctx, &mut samples, None) else {
            return;
        };
        rss.stop();
        identical &= pass.results == reference.results && pass.logs == reference.logs;
        rates.push(pass.ue_steps as f64 / pass.seconds);
        setup.sample(SETUP_REPS_BETWEEN, &mut set_up);
    }
    if !setup_ok.get() {
        ctx.report
            .fail("set-up: server start or tenant spawn failed");
    }
    let ue_steps = reference.ue_steps;

    if !ctx.traced {
        setup.report(
            ctx,
            "paper FLC compile + in-process server start + tenant spawns over the wire",
        );
        report_throughput(ctx, &rates, ue_steps, "request-script");
        rss.report(ctx);
        report_latency(
            ctx,
            "advance",
            &samples.of(&[Kind::Advance, Kind::Finish]),
            1e6,
            "ms",
        );
        report_latency(
            ctx,
            "query",
            &samples.of(&[Kind::QueryCells, Kind::QueryUe]),
            1e3,
            "us",
        );
        let persist: Vec<f64> = samples.persist_ns.iter().map(|&ns| ns as f64).collect();
        report_latency(ctx, "persist", &persist, 1e6, "ms");
    } else {
        // Traced wire passes: one span per request, by kind.
        let mut traced_rates = Vec::new();
        let mut traced = Samples::default();
        let t_start = Instant::now();
        let mut tracer = std::mem::replace(&mut ctx.tracer, Tracer::new());
        while another_run(t_start, traced_rates.len(), 2, window) {
            let span = tracer.begin("script.pass", 0);
            let Some(pass) = fresh_pass(ctx, &mut traced, Some(&mut tracer)) else {
                return;
            };
            tracer.end(span);
            identical &= pass.results == reference.results;
            traced_rates.push(pass.ue_steps as f64 / pass.seconds);
        }
        crate::layers::report_overhead(&mut ctx.report, &rates, &traced_rates);

        // The same script straight into TwinServer::handle, with the
        // messages kept for the codec measurement.
        let mut direct = TwinServer::new(workers);
        let mut handled = Samples::default();
        let mut messages = Vec::new();
        let span = tracer.begin("server.pass", 0);
        let pass = spawn_all(&mut direct, &configs).and_then(|sids| {
            run_pass(
                &mut direct,
                sids,
                script_seed,
                &mut handled,
                Some(&mut tracer),
                Some(&mut messages),
            )
        });
        tracer.end(span);
        ctx.tracer = tracer;
        ctx.report.attempt(handled.requests.len() as u64 + 1);
        match pass {
            Ok(p) => identical &= p.results == reference.results,
            Err(err) => {
                ctx.report.fail(format!("direct-handle pass failed: {err}"));
                return;
            }
        }
        report_service_layers(ctx, &configs, &reference, &samples, &handled, &messages);
    }

    ctx.report.check(
        identical,
        format!(
            "every pass of this invocation serves bit-identical results ({} passes)",
            rates.len() + 1
        ),
    );
    // Gate: each tenant's served result equals a direct Session replay
    // of its logged requests, swap and hydrate cycles included.
    for (i, (config, log)) in configs.iter().zip(&reference.logs).enumerate() {
        let replayed = replay_session(config, log, None);
        let ok = matches!(&replayed, Ok(s) if s.result() == Some(&reference.results[i]));
        ctx.report.check(
            ok,
            format!("tenant {i}: served FleetResult equals a direct Session replay of its {} logged operations", log.len()),
        );
    }
    if let Ok(s) = server.shutdown() {
        ctx.report.check(
            s.session_count() == 0,
            "every tenant was dropped at completion",
        );
    } else {
        ctx.report
            .fail("in-process server did not shut down cleanly");
    }
}

fn median_of(values: &[f64], scale: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values) / scale
    }
}

fn report_service_layers(
    ctx: &mut Ctx,
    configs: &[SessionConfig],
    reference: &Pass,
    wire: &Samples,
    handled: &Samples,
    messages: &[(Request, Response)],
) {
    let r = &mut ctx.report;
    // Checkpoint + resilience: a direct Session replay of each tenant's
    // log, sealing and unsealing the fleet checkpoint after every advance.
    let mut tm = SessionTiming::default();
    for (config, log) in configs.iter().zip(&reference.logs) {
        if let Err(err) = replay_session(config, log, Some(&mut tm)) {
            r.fail(format!("timed session replay failed: {err}"));
            return;
        }
    }
    r.check(
        tm.unseal_failures == 0,
        "every replayed checkpoint seal verifies with try_unseal",
    );
    let seal_ms = median_of(&tm.seal_ns, 1e6);
    let unseal_ms = median_of(&tm.unseal_ns, 1e6);
    r.metric(
        "checkpoint.sealed_kib",
        median_of(&tm.sealed_bytes, 1024.0),
        "KiB",
        format!(
            "replayed: median of {} FleetCheckpoint::seal outputs",
            tm.sealed_bytes.len()
        ),
    );
    r.metric(
        "checkpoint.seal_ms",
        seal_ms,
        "ms",
        "replayed: median FleetCheckpoint::seal on Session::checkpoint() after an advance",
    );
    r.metric(
        "checkpoint.unseal_ms",
        unseal_ms,
        "ms",
        "replayed: median FleetCheckpoint::try_unseal of that seal",
    );
    let segments_per_advance = tm.segments as f64 / tm.advances.max(1) as f64;
    r.metric(
        "supervisor.segments_per_advance",
        segments_per_advance,
        "count",
        format!(
            "SessionStatus.segments / advances = {} / {} (includes final assemblies)",
            tm.segments, tm.advances
        ),
    );
    r.metric(
        "supervisor.retries",
        tm.retries as f64,
        "count",
        "SessionStatus.retries summed over tenants (0 expected)",
    );

    let ms = |kinds: &[Kind]| median_of(&handled.of(kinds), 1e6);
    let us = |kinds: &[Kind]| median_of(&handled.of(kinds), 1e3);
    let advance_ms = ms(&[Kind::Advance]);
    r.metric(
        "server.advance_ms",
        advance_ms,
        "ms",
        "median TwinServer::handle(AdvanceTo), non-completing",
    );
    r.metric(
        "server.advance_persist_share",
        segments_per_advance * (seal_ms + unseal_ms) / advance_ms.max(f64::MIN_POSITIVE),
        "frac",
        "segments per advance x (seal + unseal) / server.advance_ms",
    );
    r.metric(
        "server.query_cells_us",
        us(&[Kind::QueryCells]),
        "us",
        "median TwinServer::handle(QueryCells)",
    );
    r.metric(
        "server.query_ue_us",
        us(&[Kind::QueryUe]),
        "us",
        "median TwinServer::handle(QueryUe)",
    );
    r.metric(
        "server.checkpoint_ms",
        ms(&[Kind::Checkpoint]),
        "ms",
        "median TwinServer::handle(Checkpoint)",
    );
    r.metric(
        "server.hydrate_ms",
        ms(&[Kind::Hydrate]),
        "ms",
        "median TwinServer::handle(Hydrate)",
    );
    r.metric(
        "server.finish_ms",
        ms(&[Kind::Finish]),
        "ms",
        "median completing AdvanceTo (final assembly + traffic/dynamics replay)",
    );

    // Wire: the script's real messages through the codec, into memory.
    let mut frames = 0u64;
    let mut bytes = 0u64;
    let mut codec_ns = 0u64;
    let mut buf: Vec<u8> = Vec::new();
    let mut codec_ok = true;
    for (req, resp) in messages {
        let t0 = Instant::now();
        buf.clear();
        codec_ok &= write_frame(&mut buf, req).is_ok();
        let back: Option<Request> = read_frame(&mut buf.as_slice()).ok().flatten();
        bytes += buf.len() as u64;
        buf.clear();
        codec_ok &= write_frame(&mut buf, resp).is_ok();
        let back_resp: Option<Response> = read_frame(&mut buf.as_slice()).ok().flatten();
        codec_ns += t0.elapsed().as_nanos() as u64;
        bytes += buf.len() as u64;
        frames += 2;
        codec_ok &= back.as_ref() == Some(req) && back_resp.as_ref() == Some(resp);
    }
    r.check(
        codec_ok,
        format!("all {frames} script frames round-trip through write_frame/read_frame"),
    );
    r.metric(
        "wire.frames",
        frames as f64,
        "count",
        "request + response frames of one script pass",
    );
    r.metric(
        "wire.bytes_per_frame",
        bytes as f64 / frames.max(1) as f64,
        "B",
        "mean encoded frame size",
    );
    r.metric(
        "wire.codec_us",
        codec_ns as f64 / frames.max(1) as f64 / 1e3,
        "us",
        "mean write_frame + read_frame per frame, in memory",
    );

    // Wire overhead: client round trip minus server handle time, paired
    // request by request (the direct pass sends the same sequence).
    let pass_len = handled.requests.len();
    let wire_pass = &wire.requests[..pass_len.min(wire.requests.len())];
    let same_sequence = wire_pass.len() == pass_len
        && wire_pass
            .iter()
            .zip(&handled.requests)
            .all(|(a, b)| a.0 == b.0);
    r.check(
        same_sequence,
        "the direct-handle pass sent the wire pass's request sequence",
    );
    if same_sequence {
        let diffs: Vec<f64> = wire_pass
            .iter()
            .zip(&handled.requests)
            .map(|(w, h)| w.1 as f64 - h.1 as f64)
            .collect();
        r.metric(
            "wire.overhead_us",
            stats::median(&diffs) / 1e3,
            "us",
            format!(
                "median over {} paired requests of round trip - handle time",
                diffs.len()
            ),
        );
    }
    crate::layers::absent_batch(
        r,
        "not replayed on this workload: sessions build their population inside the server, and the churn/outage planes are outside the replay",
    );
}
