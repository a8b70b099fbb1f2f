//! Fuzz-style totality tests for the sealed-container ingest path
//! (PR 10 bugfix sweep): [`FleetCheckpoint::try_unseal`] and
//! [`Session::hydrate`] must be *total* on arbitrary byte strings —
//! every input returns `Ok` or a typed error, never a panic, never an
//! out-of-bounds slice.
//!
//! Three adversaries:
//!
//! 1. pure noise — random bytes of random length (including the empty
//!    string and headers shorter than the 28-byte envelope);
//! 2. truncation — every random prefix of a *valid* sealed container;
//! 3. corruption — a valid sealed container with one byte XOR-flipped
//!    at a random offset (header, length field, checksum or payload).
//!
//! Corruption must additionally be *detected*: a flipped byte yields a
//! typed [`CheckpointError`], never a silently wrong restore.
//!
//! Every family runs against both payload encodings the readers accept:
//! the v3 binary containers written today and the legacy v2 JSON ones.
//! A checksum-valid v3 payload whose length prefix is forged, or which
//! carries a trailing byte, must come back as a typed
//! [`CheckpointError::Malformed`].

use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::server::{Session, SessionConfig, SessionError};
use fuzzy_handover::sim::checkpoint::{
    content_checksum, seal_payload, unseal_payload, CheckpointError, FleetCheckpoint,
    SEALED_FORMAT_VERSION, SEALED_HEADER_LEN, SEALED_JSON_VERSION,
};
use fuzzy_handover::sim::fleet::{FleetMobility, FleetSimulation, PolicyKind};
use fuzzy_handover::sim::SimConfig;
use proptest::prelude::*;

/// Deterministic byte noise from a drawn seed (the vendored proptest
/// draws scalars; collections are derived).
fn noise_bytes(mut state: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

fn noisy_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    cfg
}

/// Seal `payload` under a v2 container header, as builds that wrote
/// JSON payloads did.
fn seal_v2(payload: &[u8]) -> Vec<u8> {
    let mut bytes = seal_payload(payload);
    bytes[8..12].copy_from_slice(&SEALED_JSON_VERSION.to_le_bytes());
    bytes
}

/// A small but real fleet checkpoint (live + finished UEs).
fn fleet_checkpoint(seed: u64) -> FleetCheckpoint {
    let cfg = noisy_config();
    let spec = fuzzy_handover::sim::fleet::HomogeneousFleet {
        mobility: FleetMobility::standard_four(6)[0],
        policy: PolicyKind::Fuzzy,
        trajectory_seed: seed,
        cell_radius_km: cfg.layout.cell_radius_km(),
    };
    let ids: Vec<u64> = (0..6).collect();
    FleetSimulation::new(cfg)
        .run_partial(&spec, &ids, seed, 5)
        .expect("valid partial run")
}

/// The fleet checkpoint sealed as v3 and as legacy v2.
fn sealed_fleets(seed: u64) -> [Vec<u8>; 2] {
    let cp = fleet_checkpoint(seed);
    [cp.seal(), seal_v2(serde_json::to_string(&cp).unwrap().as_bytes())]
}

/// A small but real session (config + fleet state).
fn advanced_session(seed: u64) -> Session {
    let config = SessionConfig::new(
        noisy_config(),
        FleetMobility::standard_four(6)[0],
        PolicyKind::Fuzzy,
        6,
        seed,
    );
    let mut session = Session::spawn(config, 1).expect("valid config");
    session.advance_to(5).expect("advance");
    session
}

/// The session sealed as v3 and as legacy v2.
fn sealed_sessions(seed: u64) -> [Vec<u8>; 2] {
    let session = advanced_session(seed);
    let v2 = seal_v2(serde_json::to_string(&session.snapshot()).unwrap().as_bytes());
    [session.sealed(), v2]
}

/// Reseal an edited v3 payload with a valid checksum.
fn reseal(sealed: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let (version, payload) = unseal_payload(sealed).expect("a valid container");
    assert_eq!(version, SEALED_FORMAT_VERSION);
    let mut payload = payload.to_vec();
    edit(&mut payload);
    seal_payload(&payload)
}

/// The three forgeries of a `u64` length prefix at `at`: `u64::MAX`,
/// one more than the bytes after it, and an intact prefix with one
/// trailing byte on the payload.
fn forged_prefixes(sealed: &[u8], at: usize) -> Vec<Vec<u8>> {
    let forge = |value: fn(u64) -> u64| {
        reseal(sealed, |p| {
            let left = (p.len() - at - 8) as u64;
            p[at..at + 8].copy_from_slice(&value(left).to_le_bytes());
        })
    };
    vec![forge(|_| u64::MAX), forge(|left| left + 1), reseal(sealed, |p| p.push(0))]
}

/// Checksum-valid v3 payloads with a forged length prefix or a
/// trailing byte are typed `Malformed` errors: the fleet payload's
/// `finished` count (byte 20), the session payload's head length (byte
/// 0) and the count of the fleet encoded behind the session head.
#[test]
fn forged_v3_length_prefixes_and_tails_are_malformed() {
    for seed in 0..4 {
        let [fleet, _] = sealed_fleets(seed);
        for bytes in forged_prefixes(&fleet, 20) {
            match FleetCheckpoint::try_unseal(&bytes) {
                Err(CheckpointError::Malformed(_)) => {}
                other => panic!("seed {seed}: forged fleet payload gave {other:?}"),
            }
        }
        let [session, _] = sealed_sessions(seed);
        let (_, payload) = unseal_payload(&session).unwrap();
        let head_len = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
        for at in [0, 8 + head_len + 20] {
            for bytes in forged_prefixes(&session, at) {
                match Session::hydrate(&bytes, 1) {
                    Err(SessionError::Corrupt(CheckpointError::Malformed(_))) => {}
                    Err(err) => panic!("seed {seed}, prefix at {at}: {err:?}"),
                    Ok(_) => panic!("seed {seed}, prefix at {at}: forged session hydrated"),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adversary 1 — pure noise never panics either ingest path.
    #[test]
    fn arbitrary_bytes_never_panic_ingest(
        seed in 0u64..u64::MAX,
        len in 0usize..256,
    ) {
        // `Ok` on random noise would be astonishing but is not the
        // property under test — totality is.
        let bytes = noise_bytes(seed | 1, len);
        let _ = FleetCheckpoint::try_unseal(&bytes);
        let _ = Session::hydrate(&bytes, 1);
    }

    /// Adversary 1b — noise behind a *plausible* header: the right
    /// magic, arbitrary version/length/checksum words, and — under
    /// both readable versions — honest length/checksum words, so the
    /// noise reaches the v2 and v3 payload decoders. Exercises the
    /// length-field arithmetic against overflow and truncation.
    #[test]
    fn forged_headers_never_panic_ingest(
        version in 0u32..=u32::MAX,
        declared_len in 0u64..u64::MAX,
        checksum in 0u64..u64::MAX,
        payload_seed in 0u64..u64::MAX,
        payload_len in 0usize..64,
    ) {
        let payload = noise_bytes(payload_seed | 1, payload_len);
        let honest = (payload.len() as u64, content_checksum(&payload));
        let headers = [
            (version, declared_len, checksum),
            (SEALED_FORMAT_VERSION, honest.0, honest.1),
            (SEALED_JSON_VERSION, honest.0, honest.1),
        ];
        for (version, declared_len, checksum) in headers {
            let mut bytes = Vec::with_capacity(SEALED_HEADER_LEN + payload.len());
            bytes.extend_from_slice(b"FZHOCKPT");
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&declared_len.to_le_bytes());
            bytes.extend_from_slice(&checksum.to_le_bytes());
            bytes.extend_from_slice(&payload);
            let _ = FleetCheckpoint::try_unseal(&bytes);
            let _ = Session::hydrate(&bytes, 1);
        }
    }

    /// Adversary 2 — every truncation of a valid container is a typed
    /// error (a strict prefix can never verify: the checksum covers the
    /// full declared payload).
    #[test]
    fn truncated_valid_containers_are_typed_errors(
        seed in 0u64..100,
        frac in 0.0f64..1.0,
    ) {
        prop_assume!(frac < 1.0);
        for sealed in sealed_fleets(seed) {
            let cut = ((sealed.len() as f64) * frac) as usize;
            let err = FleetCheckpoint::try_unseal(&sealed[..cut]);
            prop_assert!(err.is_err(), "a {cut}-byte prefix of {} unsealed", sealed.len());
        }
        for sealed in sealed_sessions(seed) {
            let cut = ((sealed.len() as f64) * frac) as usize;
            let err = Session::hydrate(&sealed[..cut], 1);
            prop_assert!(err.is_err(), "a {cut}-byte prefix of {} hydrated", sealed.len());
        }
    }

    /// Adversary 3 — any single flipped byte of a valid container is
    /// *detected* (typed error, never a silently wrong restore) and
    /// never panics.
    #[test]
    fn single_byte_corruption_is_detected(
        seed in 0u64..100,
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let [fleet_v3, fleet_v2] = sealed_fleets(seed);
        for mut sealed in [fleet_v3, fleet_v2] {
            let offset = ((sealed.len() as f64) * offset_frac) as usize % sealed.len();
            sealed[offset] ^= flip;
            let outcome = FleetCheckpoint::try_unseal(&sealed);
            prop_assert!(
                outcome.is_err(),
                "flipping fleet byte {offset} by {flip:#04x} went undetected"
            );
        }
        for mut sealed in sealed_sessions(seed) {
            let offset = ((sealed.len() as f64) * offset_frac) as usize % sealed.len();
            sealed[offset] ^= flip;
            let outcome = Session::hydrate(&sealed, 1);
            prop_assert!(
                outcome.is_err(),
                "flipping byte {offset} by {flip:#04x} went undetected"
            );
        }
    }
}
