//! The digital-twin service's determinism contract (PR 10):
//!
//! 1. **The headline**: a session driven by an *arbitrary* interleaving
//!    of `advance_to` segmentations, with at least one
//!    checkpoint → drop → hydrate cycle, is bit-identical to the
//!    equivalent batch [`FleetSimulation::run_ids`] — every `f64`
//!    included — for any checkpoint cadence and worker shape.
//! 2. Two concurrent tenants on one [`TwinServer`] do not perturb each
//!    other: a tenant interleaved with a busy neighbour produces
//!    exactly the bytes it produces alone.
//! 3. A mid-run policy hot-swap is replay-deterministic: re-driving the
//!    recorded swap log reproduces the session's result bit for bit,
//!    and both equal the manual `run_partial(old) → resume(new)`
//!    chain.
//! 4. The wire protocol round-trips the whole lifecycle: the same
//!    results arrive through the length-prefixed codec as through
//!    direct calls, and a malformed frame answers `BadRequest` without
//!    killing the connection.

use fuzzy_handover::core::CellLoadHistogram;
use fuzzy_handover::geometry::Axial;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::server::{
    read_frame, serve, spawn_in_process, write_frame, Request, Response, ServerError, Session,
    SessionConfig, SessionError, SessionSnapshot, TwinServer,
};
use fuzzy_handover::sim::fleet::{
    CandidateMode, FleetMobility, FleetResult, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::checkpoint::CheckpointError;
use fuzzy_handover::sim::traffic::UeTrace;
use fuzzy_handover::sim::{
    seal_payload, ConfigError, SimConfig, TrafficConfig, SEALED_JSON_VERSION,
};
use proptest::prelude::*;

/// Shadowing + measurement noise so every per-UE RNG stream is live,
/// plus a traffic plane so the sealed snapshot carries traced state.
fn noisy_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    cfg
}

fn traffic_plane() -> TrafficConfig {
    TrafficConfig::erlang(8, 1, 0.35, 30.0)
}

fn session_config(n_ues: u64, seed: u64, cadence: u64) -> SessionConfig {
    let sim = noisy_config();
    let mobility = FleetMobility::standard_four(6)[0];
    let mut config = SessionConfig::new(sim, mobility, PolicyKind::Fuzzy, n_ues, seed);
    config.traffic = Some(traffic_plane());
    config.retry.checkpoint_cadence = cadence;
    config
}

/// The engine a [`SessionConfig`] drives, rebuilt by hand — the batch
/// reference never goes through the session layer.
fn batch_engine(config: &SessionConfig, workers: usize) -> FleetSimulation {
    let mut engine = FleetSimulation::new(config.sim.clone())
        .with_workers(workers)
        .with_chunk_size(config.chunk_size)
        .with_candidate_mode(config.candidate_mode);
    if let Some(traffic) = config.traffic {
        engine = engine.with_traffic(traffic);
    }
    engine
}

fn batch_spec(config: &SessionConfig, policy: PolicyKind) -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: config.mobility,
        policy,
        trajectory_seed: config.trajectory_seed,
        cell_radius_km: config.cell_radius_km,
    }
}

fn batch_run(config: &SessionConfig, workers: usize) -> FleetResult {
    let ids: Vec<u64> = (0..config.n_ues).collect();
    batch_engine(config, workers).run_ids(
        &batch_spec(config, config.policy),
        &ids,
        config.base_seed,
    )
}

/// Seal `payload` under a v2 container header, the layout builds that
/// wrote whole-JSON session snapshots used.
fn seal_v2(payload: &[u8]) -> Vec<u8> {
    let mut bytes = seal_payload(payload);
    bytes[8..12].copy_from_slice(&SEALED_JSON_VERSION.to_le_bytes());
    bytes
}

/// The legacy v2 sealing of a snapshot: the whole snapshot as JSON.
fn sealed_v2(snap: &SessionSnapshot) -> Vec<u8> {
    seal_v2(serde_json::to_string(snap).unwrap().as_bytes())
}

/// The v3 sealing of a snapshot, built from the documented layout: a
/// `u64` head length, the JSON head with `fleet: null`, then the fleet
/// snapshot's binary payload.
fn sealed_v3(snap: &SessionSnapshot) -> Vec<u8> {
    let head = serde_json::to_string(&SessionSnapshot { fleet: None, ..snap.clone() }).unwrap();
    let mut payload = (head.len() as u64).to_le_bytes().to_vec();
    payload.extend_from_slice(head.as_bytes());
    if let Some(fleet) = &snap.fleet {
        fleet.encode_into(&mut payload);
    }
    seal_payload(&payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1 — the headline: any segmentation × (≥1) seal/hydrate
    /// cycle × cadence × workers ≡ the batch run, bit for bit.
    #[test]
    fn segmented_session_with_hydrate_cycle_is_bit_identical_to_batch(
        seed in 0u64..1_000,
        n_ues in 4u64..12,
        cadence in 1u64..6,
        workers in 1usize..4,
        n_increments in 1usize..5,
        increment_seed in 0u64..u64::MAX,
        hydrate_after in 0usize..5,
    ) {
        // Derive the segmentation from a drawn seed (the vendored
        // proptest draws scalars; collections are derived).
        let mut state = increment_seed | 1;
        let increments: Vec<u64> = (0..n_increments)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                1 + (state >> 32) % 5
            })
            .collect();
        let config = session_config(n_ues, seed, cadence);
        let batch = batch_run(&config, 2);

        let mut session = Session::spawn(config, workers).unwrap();
        let mut step = 0u64;
        for (i, inc) in increments.iter().enumerate() {
            step += inc;
            session.advance_to(step).unwrap();
            if i == hydrate_after.min(increments.len() - 1) {
                // Persist, drop the live session, rehydrate from bytes.
                let sealed = session.sealed();
                session = Session::hydrate(&sealed, workers).unwrap();
            }
        }
        let result = session.run_to_completion().unwrap().clone();
        prop_assert_eq!(result, batch);
    }

    /// Property 3 — hot-swap replay determinism: the session's swap log
    /// replayed from scratch, and the manual partial/resume chain, all
    /// produce the same bytes.
    #[test]
    fn hot_swap_replay_is_bit_identical(
        seed in 0u64..1_000,
        n_ues in 4u64..10,
        cadence in 1u64..5,
        swap_step in 1u64..10,
        margin_db in 1u32..8,
    ) {
        let config = session_config(n_ues, seed, cadence);
        let new_policy = PolicyKind::Hysteresis { margin_db: f64::from(margin_db) };

        // The original run: advance, swap, finish. (Skip draws where
        // every walk already ended before the swap step — a swap only
        // makes sense mid-run.)
        let mut session = Session::spawn(config.clone(), 2).unwrap();
        session.advance_to(swap_step).unwrap();
        prop_assume!(!session.is_complete());
        let swap = session.swap_policy(new_policy).unwrap();
        let original = session.run_to_completion().unwrap().clone();
        let expected_log = [swap];
        prop_assert_eq!(session.policy_log(), expected_log.as_slice());

        // Replay the recorded log on a fresh session (different worker
        // count and a different segmentation on the tail).
        let mut replay = Session::spawn(config.clone(), 3).unwrap();
        replay.advance_to(swap.step).unwrap();
        replay.swap_policy(swap.policy).unwrap();
        replay.advance_to(swap.step + 1).unwrap();
        let replayed = replay.run_to_completion().unwrap().clone();
        prop_assert_eq!(&replayed, &original);

        // The manual batch chain under the same log.
        let engine = batch_engine(&config, 2);
        let ids: Vec<u64> = (0..config.n_ues).collect();
        let cp = engine
            .run_partial(&batch_spec(&config, PolicyKind::Fuzzy), &ids, seed, swap.step)
            .unwrap();
        let manual = engine.resume(&batch_spec(&config, new_policy), &cp).unwrap();
        prop_assert_eq!(&manual, &original);
    }

    /// Property 2 — tenant isolation: a tenant advanced in lockstep
    /// with a busy neighbour on the same server produces exactly the
    /// bytes it produces alone.
    #[test]
    fn concurrent_tenants_do_not_perturb_each_other(
        seed_a in 0u64..500,
        seed_b in 500u64..1_000,
        n_ues in 4u64..10,
        cadence in 1u64..5,
    ) {
        let config_a = session_config(n_ues, seed_a, cadence);
        let mut config_b = session_config(n_ues + 2, seed_b, cadence);
        config_b.policy = PolicyKind::Hysteresis { margin_db: 4.0 };
        let solo_a = batch_run(&config_a, 2);
        let solo_b = batch_run(&config_b, 2);

        let mut server = TwinServer::new(4);
        let a = server.spawn(config_a).unwrap();
        let b = server.spawn(config_b).unwrap();
        // Interleave the tenants' advances, with a seal/hydrate cycle
        // on A while B keeps running.
        server.advance_to(a, 3).unwrap();
        server.advance_to(b, 5).unwrap();
        server.advance_to(a, 7).unwrap();
        let sealed_a = server.checkpoint(a).unwrap();
        server.drop_session(a).unwrap();
        server.advance_to(b, u64::MAX).unwrap();
        let a2 = server.hydrate(&sealed_a).unwrap();
        server.advance_to(a2, u64::MAX).unwrap();

        prop_assert_eq!(server.session(a2).unwrap().result().unwrap(), &solo_a);
        prop_assert_eq!(server.session(b).unwrap().result().unwrap(), &solo_b);
    }
}

/// Property 4 — the full lifecycle through the wire codec equals the
/// batch run, and typed errors travel in-protocol.
#[test]
fn wire_lifecycle_round_trips_and_reports_typed_errors() {
    let config = session_config(8, 42, 3);
    let batch = batch_run(&config, 2);

    let mut remote = spawn_in_process(TwinServer::new(2));
    let client = &mut remote.client;
    let session = client.spawn(config).unwrap();

    // Errors are in-protocol answers, not connection failures.
    let err = client.advance_to(999, 5).unwrap_err();
    assert!(
        matches!(
            err,
            fuzzy_handover::server::ClientError::Server(ServerError::UnknownSession {
                session: 999
            })
        ),
        "{err:?}"
    );

    let status = client.advance_to(session, 4).unwrap();
    assert_eq!(status.step, 4);
    let cells = client.query_cells(session).unwrap();
    let live_total: u64 = cells.iter().map(|c| c.live_ues).sum();
    assert_eq!(live_total, status.live_ues, "live UEs must reconcile across queries");
    let ue = client.query_ue(session, 0).unwrap();
    assert_eq!(ue.ue_id, 0);

    // Seal → drop → hydrate over the wire, then finish.
    let sealed = client.checkpoint(session).unwrap();
    client.drop_session(session).unwrap();
    let revived = client.hydrate(sealed).unwrap();
    let status = client.advance_to(revived, u64::MAX).unwrap();
    assert!(status.complete);
    let result = client.query_result(revived).unwrap();
    assert_eq!(result, batch);

    let listed = client.list().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].0, revived);

    let server = remote.shutdown().unwrap();
    assert_eq!(server.session_count(), 1);
}

/// A malformed frame answers `BadRequest` and the connection stays
/// usable for the next, well-formed request.
#[test]
fn malformed_frame_answers_bad_request_and_keeps_serving() {
    let mut input: Vec<u8> = Vec::new();
    let garbage = b"this is not json";
    input.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
    input.extend_from_slice(garbage);
    write_frame(&mut input, &Request::List).unwrap();
    write_frame(&mut input, &Request::Shutdown).unwrap();

    let mut server = TwinServer::new(1);
    let mut output: Vec<u8> = Vec::new();
    let shutdown = serve(&mut server, input.as_slice(), &mut output).unwrap();
    assert!(shutdown, "the shutdown frame must end the loop");

    let mut frames = output.as_slice();
    let first: Response = read_frame(&mut frames).unwrap().unwrap();
    assert!(
        matches!(first, Response::Error { error: ServerError::BadRequest { .. } }),
        "{first:?}"
    );
    let second: Response = read_frame(&mut frames).unwrap().unwrap();
    assert!(matches!(second, Response::Sessions { ref sessions } if sessions.is_empty()));
    let third: Response = read_frame(&mut frames).unwrap().unwrap();
    assert!(matches!(third, Response::ShuttingDown));
}

/// An infinite (or NaN) `EdgeSet` margin cannot be written to JSON, so
/// a session using it could be sealed but never hydrated: spawn rejects
/// it with a typed error, while `Nearest(k)` (the persistable spelling
/// of the infinite margin) and finite margins survive a seal/hydrate
/// round trip.
#[test]
fn non_finite_edge_margins_are_rejected_at_spawn() {
    for margin_db in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let mut config = session_config(4, 3, 2);
        config.candidate_mode = CandidateMode::EdgeSet { k: 7, margin_db };
        let err = Session::spawn(config, 1).unwrap_err();
        assert!(
            matches!(
                err,
                SessionError::InvalidConfig(ConfigError::NotFinite { field: "edge margin", .. })
            ),
            "margin {margin_db}: {err:?}"
        );
    }
    for mode in [CandidateMode::Nearest(7), CandidateMode::EdgeSet { k: 7, margin_db: 6.0 }] {
        let mut config = session_config(4, 3, 2);
        config.candidate_mode = mode;
        let mut session = Session::spawn(config, 1).unwrap();
        session.advance_to(3).unwrap();
        let revived = Session::hydrate(&session.sealed(), 1).unwrap();
        assert_eq!(revived.snapshot(), session.snapshot(), "{}", mode.label());
    }
}

/// Sessions sealed, and `Spawn` frames written, by an older writer still
/// carry the removed `"precision": "Full"` config key. The decoder skips
/// unknown keys, so both still decode to the same session.
#[test]
fn configs_with_the_removed_precision_key_still_decode() {
    let with_legacy_key = |json: &str| {
        let legacy = json.replacen(
            "\"candidate_mode\":",
            "\"precision\":\"Full\",\"candidate_mode\":",
            1,
        );
        assert_ne!(legacy, json, "the key went into the config");
        legacy
    };
    let config = session_config(6, 9, 3);
    let mut session = Session::spawn(config.clone(), 2).unwrap();
    session.advance_to(4).unwrap();
    let payload = serde_json::to_string(&session.snapshot()).unwrap();
    let resealed = seal_v2(with_legacy_key(&payload).as_bytes());
    let revived = Session::hydrate(&resealed, 2).unwrap();
    assert_eq!(revived.snapshot(), session.snapshot());

    let mut frame: Vec<u8> = Vec::new();
    write_frame(&mut frame, &Request::Spawn { config: Box::new(config.clone()) }).unwrap();
    let legacy = with_legacy_key(std::str::from_utf8(&frame[4..]).unwrap());
    let mut legacy_frame = (legacy.len() as u32).to_le_bytes().to_vec();
    legacy_frame.extend_from_slice(legacy.as_bytes());
    let decoded: Request = read_frame(&mut legacy_frame.as_slice()).unwrap().unwrap();
    assert!(matches!(decoded, Request::Spawn { config: c } if *c == config));
}

/// A sealed session whose traces were forged and resealed with a valid
/// checksum must be refused at hydrate time as `Corrupt`: the daemon
/// neither accepts the bytes nor panics on a later advance. Covers
/// every layout-aware trace, live-lane and load-histogram check
/// `check_checkpoint` runs, through both the v3 and the legacy v2
/// payload.
#[test]
fn forged_traces_are_rejected_at_hydrate() {
    let config = session_config(6, 17, 2);
    let mut session = Session::spawn(config, 2).unwrap();
    session.advance_to(4).unwrap();
    let snapshot = session.snapshot();
    let fleet = snapshot.fleet.as_ref().expect("an advanced session carries a fleet snapshot");
    assert!(fleet.live.iter().any(|ue| !ue.trace_changes.is_empty()), "live traces to forge");

    assert_eq!(sealed_v3(&snapshot), session.sealed(), "the documented v3 layout");

    type Forgery = fn(&mut SessionSnapshot);
    let forge = |edit: Forgery| {
        let mut forged = snapshot.clone();
        edit(&mut forged);
        [sealed_v3(&forged), sealed_v2(&forged)]
    };
    let forgeries: [(&str, Forgery); 8] = [
        (
            "cell outside the layout",
            |s| {
                for ue in &mut s.fleet.as_mut().unwrap().live {
                    for change in &mut ue.trace_changes {
                        change.1 = 999;
                    }
                }
            },
        ),
        (
            "change step past the trace",
            |s| {
                let ue = &mut s.fleet.as_mut().unwrap().live[0];
                ue.trace_changes.push((ue.trace_steps, 0));
            },
        ),
        (
            "trace longer than the snapshot",
            |s| {
                let fleet = s.fleet.as_mut().unwrap();
                fleet.live[0].trace_steps = fleet.step + 1;
            },
        ),
        (
            "descending change steps",
            |s| {
                let ue = &mut s.fleet.as_mut().unwrap().live[0];
                ue.trace_changes.insert(0, (ue.trace_steps - 1, 0));
            },
        ),
        (
            "unsorted finished traces",
            |s| {
                let traces = &mut s.fleet.as_mut().unwrap().finished_traces;
                let trace = UeTrace { ue_id: 0, steps: 1, changes: vec![(0, 0)] };
                traces.extend([trace.clone(), trace]);
            },
        ),
        (
            "live lanes cut below the layout",
            |s| {
                let engine = &mut s.fleet.as_mut().unwrap().live[0].engine;
                engine.shadow.values.truncate(3);
                engine.shadow.fresh.truncate(3);
                engine.smoothers.truncate(3);
                if !engine.last_advanced_km.is_empty() {
                    engine.last_advanced_km.truncate(3);
                }
                engine.serving_idx = 0;
            },
        ),
        (
            "shadowing freshness flags cut",
            |s| s.fleet.as_mut().unwrap().live[0].engine.shadow.fresh.truncate(3),
        ),
        (
            "load histogram over cells outside the layout",
            |s| {
                let cells = (100..119).map(|q| Axial::new(q, 0));
                s.fleet.as_mut().unwrap().cell_load = CellLoadHistogram::new(cells);
            },
        ),
    ];
    for (what, edit) in &forgeries {
        for (bytes, container) in forge(*edit).into_iter().zip(["v3", "v2"]) {
            match Session::hydrate(&bytes, 2) {
                Err(SessionError::Corrupt(CheckpointError::ShapeMismatch(_))) => {}
                Err(err) => panic!("{what} ({container}): expected a shape mismatch, got {err:?}"),
                Ok(_) => panic!("{what} ({container}): hydrate accepted forged bytes"),
            }
            let mut server = TwinServer::new(2);
            match server.handle(Request::Hydrate { bytes }) {
                Response::Error { error: ServerError::Session { .. } } => {}
                other => panic!("{what} ({container}): the daemon accepted {other:?}"),
            }
            assert_eq!(server.session_count(), 0, "{what} ({container})");
        }
    }

    // The untouched snapshot still hydrates and finishes.
    for bytes in forge(|_| {}) {
        let mut revived = Session::hydrate(&bytes, 2).unwrap();
        assert_eq!(revived.snapshot(), snapshot);
        assert!(revived.advance_to(u64::MAX).unwrap().complete);
    }
}

/// A v3 session head must not carry the fleet snapshot itself: the
/// fleet travels only in binary behind the head.
#[test]
fn a_v3_head_carrying_a_fleet_is_malformed() {
    let mut session = Session::spawn(session_config(6, 17, 2), 1).unwrap();
    session.advance_to(3).unwrap();
    let head = serde_json::to_string(&session.snapshot()).unwrap();
    let mut payload = (head.len() as u64).to_le_bytes().to_vec();
    payload.extend_from_slice(head.as_bytes());
    match Session::hydrate(&seal_payload(&payload), 1) {
        Err(SessionError::Corrupt(CheckpointError::Malformed(_))) => {}
        other => panic!("expected a malformed payload, got {other:?}"),
    }
}

/// Seals follow the cadence, not the advance: a session at cadence 16
/// advanced in steps of 2 to step 32 seals twice (at 16 and 32), not
/// once per advance.
#[test]
fn short_advances_seal_only_on_the_cadence() {
    let mut config = session_config(6, 5, 16);
    config.mobility = FleetMobility::RandomWalk(fuzzy_handover::mobility::RandomWalk::paper_default(40));
    let mut session = Session::spawn(config, 2).unwrap();
    for step in (2..=32).step_by(2) {
        session.advance_to(step).unwrap();
    }
    assert!(!session.is_complete(), "the walks outlast step 32");
    assert_eq!(session.step(), 32);
    assert_eq!(session.report().segments, 16);
    assert_eq!(session.report().snapshots_taken, 2);
}

/// Both snapshot-carrying frames round-trip `bytes` exactly through
/// `write_frame`/`read_frame`, and carry them as one base64 string.
fn assert_snapshot_bytes_round_trip(bytes: &[u8]) {
    let request = Request::Hydrate { bytes: bytes.to_vec() };
    let response = Response::Checkpointed { session: 7, bytes: bytes.to_vec() };
    let mut frame: Vec<u8> = Vec::new();
    write_frame(&mut frame, &request).unwrap();
    let text = std::str::from_utf8(&frame[4..]).unwrap();
    assert!(!text.contains('['), "bytes travel as a string, not a number array: {text}");
    assert_eq!(read_frame::<_, Request>(&mut frame.as_slice()).unwrap(), Some(request));
    frame.clear();
    write_frame(&mut frame, &response).unwrap();
    assert_eq!(read_frame::<_, Response>(&mut frame.as_slice()).unwrap(), Some(response));
}

/// `len` bytes drawn from `seed`.
fn drawn_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte vectors survive the snapshot frames' base64 codec.
    #[test]
    fn snapshot_frames_round_trip_arbitrary_bytes(len in 0usize..300, seed in 0u64..u64::MAX) {
        assert_snapshot_bytes_round_trip(&drawn_bytes(len, seed));
    }
}

/// Every padding case (length mod 3), the empty vector and every byte
/// value round-trip.
#[test]
fn snapshot_frames_round_trip_every_tail_length() {
    for len in 0..=6 {
        assert_snapshot_bytes_round_trip(&drawn_bytes(len, 99));
    }
    assert_snapshot_bytes_round_trip(&(0..=255).collect::<Vec<u8>>());
}

/// Frames written before the base64 encoding carry snapshot bytes as a
/// JSON number array; the server still decodes and hydrates them.
#[test]
fn legacy_number_array_hydrate_frames_still_decode() {
    let mut session = Session::spawn(session_config(6, 9, 3), 2).unwrap();
    session.advance_to(4).unwrap();
    let sealed = session.sealed();
    let legacy = format!("{{\"Hydrate\":{{\"bytes\":{}}}}}", serde_json::to_string(&sealed).unwrap());
    let mut input = (legacy.len() as u32).to_le_bytes().to_vec();
    input.extend_from_slice(legacy.as_bytes());
    let decoded: Request = read_frame(&mut input.as_slice()).unwrap().unwrap();
    assert_eq!(decoded, Request::Hydrate { bytes: sealed });

    write_frame(&mut input, &Request::Shutdown).unwrap();
    let mut server = TwinServer::new(2);
    let mut output: Vec<u8> = Vec::new();
    assert!(serve(&mut server, input.as_slice(), &mut output).unwrap());
    let first: Response = read_frame(&mut output.as_slice()).unwrap().unwrap();
    assert!(matches!(first, Response::Hydrated { .. }), "{first:?}");
    assert_eq!(server.session_count(), 1);
}

/// Bad base64 in a snapshot frame is a malformed request: `serve`
/// answers `BadRequest` and keeps the connection open.
#[test]
fn bad_base64_answers_bad_request() {
    let bad = [
        ("a bad character", "QU$D"),
        ("a bad length", "QUJD="),
        ("padding inside the text", "QU=DQUJD"),
        ("a non-canonical tail", "QUJ="),
        ("a non-canonical double-padded tail", "QR=="),
    ];
    let mut input: Vec<u8> = Vec::new();
    for (_, text) in &bad {
        let frame = format!("{{\"Hydrate\":{{\"bytes\":\"{text}\"}}}}");
        input.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        input.extend_from_slice(frame.as_bytes());
    }
    write_frame(&mut input, &Request::List).unwrap();
    write_frame(&mut input, &Request::Shutdown).unwrap();

    let mut server = TwinServer::new(1);
    let mut output: Vec<u8> = Vec::new();
    assert!(serve(&mut server, input.as_slice(), &mut output).unwrap());
    let mut frames = output.as_slice();
    for (what, _) in &bad {
        let response: Response = read_frame(&mut frames).unwrap().unwrap();
        assert!(
            matches!(response, Response::Error { error: ServerError::BadRequest { .. } }),
            "{what}: {response:?}"
        );
    }
    let listed: Response = read_frame(&mut frames).unwrap().unwrap();
    assert!(matches!(listed, Response::Sessions { ref sessions } if sessions.is_empty()));
    assert_eq!(server.session_count(), 0);
}

/// Sessions sealed, and `Spawn` frames written, before the retry
/// policy lost its `keep_snapshots` field still decode.
#[test]
fn configs_with_the_removed_keep_snapshots_key_still_decode() {
    let with_legacy_key = |json: &str| {
        let legacy = json.replacen(
            "\"degrade_after_stalls\":",
            "\"keep_snapshots\":2,\"degrade_after_stalls\":",
            1,
        );
        assert_ne!(legacy, json, "the key went into the retry policy");
        legacy
    };
    let config = session_config(6, 9, 3);
    let mut session = Session::spawn(config.clone(), 2).unwrap();
    session.advance_to(4).unwrap();
    let payload = serde_json::to_string(&session.snapshot()).unwrap();
    let resealed = seal_v2(with_legacy_key(&payload).as_bytes());
    let revived = Session::hydrate(&resealed, 2).unwrap();
    assert_eq!(revived.snapshot(), session.snapshot());

    let mut frame: Vec<u8> = Vec::new();
    write_frame(&mut frame, &Request::Spawn { config: Box::new(config.clone()) }).unwrap();
    let legacy = with_legacy_key(std::str::from_utf8(&frame[4..]).unwrap());
    let mut legacy_frame = (legacy.len() as u32).to_le_bytes().to_vec();
    legacy_frame.extend_from_slice(legacy.as_bytes());
    let decoded: Request = read_frame(&mut legacy_frame.as_slice()).unwrap().unwrap();
    assert!(matches!(decoded, Request::Spawn { config: c } if *c == config));
}
