//! The v3 binary payload of a sealed [`FleetCheckpoint`]: a
//! hand-written little-endian encoding that writes every `f64` as its
//! raw bits, so a seal → unseal cycle never formats or parses a float
//! as text, and `−0.0`, NaN payloads and ±∞ come back bit-exactly.
//!
//! Encoding rules, applied field by field in declaration order:
//!
//! | value | bytes |
//! |---|---|
//! | `u32`, `i32` | 4, little-endian |
//! | `u64`, `usize` | 8, little-endian |
//! | `f64` | 8, `to_bits` little-endian |
//! | `bool` | 1, `0` or `1` |
//! | `Axial` | `q` then `r`, as `i32` |
//! | `Vec<T>`, `VecDeque<T>` | `u64` item count, then the items |
//! | `Option<f64>` | tag `0` (none) or `1` followed by the value |
//! | enum | `u8` variant tag (declaration order from 0), then the fields |
//!
//! So a [`FleetCheckpoint`] payload starts with `version` (4 bytes),
//! `step` (8) and `base_seed` (8), and the item count of `finished` is
//! the `u64` at byte offset 20.
//!
//! The decoder is total: every length prefix is checked against the
//! bytes left (at the fewest bytes one item can take) *before* anything
//! is allocated, a window smoother's capacity is never pre-allocated,
//! nested policy wrappers are capped at [`MAX_POLICY_NESTING`], and an
//! unknown tag, a non-0/1 `bool`, a value out of `usize` range, a
//! payload that ends mid-field or trailing bytes are
//! [`CheckpointError::Malformed`].

use super::{CheckpointError, FleetCheckpoint, RngCheckpoint, UeCheckpoint, UeEngineState};
use crate::fleet::UeOutcome;
use crate::traffic::UeTrace;
use cellgeom::Axial;
use handover_core::{CellLoadHistogram, EventLog, HandoverEvent, PolicyCheckpoint};
use radiolink::{RssiSmoother, ShadowingLaneState};
use std::collections::VecDeque;

type Result<T> = std::result::Result<T, CheckpointError>;

/// Deepest chain of [`PolicyCheckpoint::Streak`] wrappers the decoder
/// accepts (real policies nest one or two deep).
const MAX_POLICY_NESTING: usize = 32;

fn malformed(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(msg.into())
}

/// Append the v3 payload encoding of `cp` to `out`.
pub(super) fn encode(cp: &FleetCheckpoint, out: &mut Vec<u8>) {
    cp.put(out);
}

/// Decode a whole v3 payload; bytes left after the checkpoint are an
/// error.
pub(super) fn decode(payload: &[u8]) -> Result<FleetCheckpoint> {
    let mut r = Reader { rest: payload };
    let cp = FleetCheckpoint::get(&mut r)?;
    if !r.rest.is_empty() {
        return Err(malformed(format!("{} trailing bytes after the checkpoint", r.rest.len())));
    }
    Ok(cp)
}

/// Bounds-checked cursor over the unread payload bytes.
struct Reader<'a> {
    rest: &'a [u8],
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        if self.rest.len() < N {
            return Err(malformed("payload ends mid-field"));
        }
        let (head, rest) = self.rest.split_at(N);
        self.rest = rest;
        let mut out = [0u8; N];
        out.copy_from_slice(head);
        Ok(out)
    }

    fn tag(&mut self) -> Result<u8> {
        Ok(self.take::<1>()?[0])
    }

    /// An item count for items of at least `min_len` bytes each,
    /// rejected when the bytes left cannot hold that many.
    fn count(&mut self, min_len: usize) -> Result<usize> {
        let n = u64::get(self)?;
        let fits = (self.rest.len() / min_len.max(1)) as u64;
        if n > fits {
            return Err(malformed(format!(
                "length prefix {n} exceeds the {} bytes left",
                self.rest.len()
            )));
        }
        Ok(n as usize)
    }
}

fn unknown_tag(what: &str, tag: u8) -> CheckpointError {
    malformed(format!("unknown {what} tag {tag}"))
}

/// One field type of the v3 payload.
trait Bin: Sized {
    /// The fewest bytes any encoding of the type takes.
    const MIN_LEN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self>;
}

macro_rules! le_ints {
    ($($t:ty),*) => {$(
        impl Bin for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok(<$t>::from_le_bytes(r.take()?))
            }
        }
    )*};
}

le_ints!(u32, i32, u64);

impl Bin for usize {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let v = u64::get(r)?;
        usize::try_from(v).map_err(|_| malformed(format!("{v} is out of usize range")))
    }
}

impl Bin for f64 {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        u64::get(r).map(f64::from_bits)
    }
}

impl Bin for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(unknown_tag("bool", tag)),
        }
    }
}

impl Bin for Option<f64> {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.tag()? {
            0 => Ok(None),
            1 => f64::get(r).map(Some),
            tag => Err(unknown_tag("option", tag)),
        }
    }
}

/// A `u64` item count, then the items.
fn put_items<'a, T: Bin + 'a>(items: impl ExactSizeIterator<Item = &'a T>, out: &mut Vec<u8>) {
    items.len().put(out);
    for item in items {
        item.put(out);
    }
}

impl<T: Bin> Bin for Vec<T> {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        put_items(self.iter(), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count(T::MIN_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<const N: usize> Bin for [u32; N] {
    const MIN_LEN: usize = 4 * N;
    fn put(&self, out: &mut Vec<u8>) {
        for word in self {
            word.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let mut words = [0u32; N];
        for word in &mut words {
            *word = u32::get(r)?;
        }
        Ok(words)
    }
}

impl Bin for (u64, u32) {
    const MIN_LEN: usize = 12;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok((u64::get(r)?, u32::get(r)?))
    }
}

/// `Bin` for a struct with public fields: the fields in the order
/// listed (declaration order), each with its own encoding.
macro_rules! struct_bin {
    ($t:ident { $($f:ident: $ty:ty),* $(,)? }) => {
        impl Bin for $t {
            const MIN_LEN: usize = 0 $(+ <$ty as Bin>::MIN_LEN)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok($t { $($f: <$ty as Bin>::get(r)?),* })
            }
        }
    };
}

struct_bin!(Axial { q: i32, r: i32 });
struct_bin!(HandoverEvent { step: usize, at_km: f64, from: Axial, to: Axial, hd: f64 });
struct_bin!(ShadowingLaneState { values: Vec<f64>, fresh: Vec<bool>, any_fresh: bool });
struct_bin!(RngCheckpoint { key: [u32; 8], counter: u64, buf: [u32; 16], index: u32 });
struct_bin!(UeEngineState {
    serving_idx: u32,
    shadow: ShadowingLaneState,
    smoothers: Vec<RssiSmoother>,
    rng: RngCheckpoint,
    log: EventLog,
    last_advanced_km: Vec<f64>,
    prev_cum: f64,
    steps: u64,
});
struct_bin!(UeCheckpoint {
    ue_id: u64,
    engine: UeEngineState,
    policy: PolicyCheckpoint,
    hd_sum: f64,
    hd_count: u64,
    travelled_km: f64,
    trace_steps: u64,
    trace_changes: Vec<(u64, u32)>,
});
struct_bin!(UeOutcome {
    ue_id: u64,
    steps: u64,
    handovers: u64,
    ping_pongs: u64,
    outage_steps: u64,
    hd_sum: f64,
    hd_count: u64,
    travelled_km: f64,
    final_serving: Axial,
});
struct_bin!(UeTrace { ue_id: u64, steps: u64, changes: Vec<(u64, u32)> });
struct_bin!(FleetCheckpoint {
    version: u32,
    step: u64,
    base_seed: u64,
    finished: Vec<UeOutcome>,
    finished_traces: Vec<UeTrace>,
    live: Vec<UeCheckpoint>,
    cell_load: CellLoadHistogram,
    tracing: bool,
});

impl Bin for EventLog {
    const MIN_LEN: usize = 24;
    fn put(&self, out: &mut Vec<u8>) {
        put_items(self.events().iter(), out);
        self.step_count().put(out);
        self.outage_step_count().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let events = Vec::get(r)?;
        EventLog::from_parts(events, usize::get(r)?, usize::get(r)?).map_err(malformed)
    }
}

impl Bin for CellLoadHistogram {
    const MIN_LEN: usize = 16;
    fn put(&self, out: &mut Vec<u8>) {
        put_items(self.cells().iter(), out);
        put_items(self.counts().iter(), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let cells = Vec::get(r)?;
        CellLoadHistogram::from_parts(cells, Vec::get(r)?).map_err(malformed)
    }
}

impl Bin for RssiSmoother {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            RssiSmoother::None => out.push(0),
            RssiSmoother::Ewma { alpha, state } => {
                out.push(1);
                alpha.put(out);
                state.put(out);
            }
            RssiSmoother::Window { capacity, buf } => {
                out.push(2);
                capacity.put(out);
                put_items(buf.iter(), out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.tag()? {
            0 => Ok(RssiSmoother::None),
            1 => Ok(RssiSmoother::Ewma { alpha: f64::get(r)?, state: Option::get(r)? }),
            // The capacity is only a bound: the buffer holds exactly the
            // decoded samples, never a capacity-sized allocation.
            2 => Ok(RssiSmoother::Window {
                capacity: usize::get(r)?,
                buf: VecDeque::from(Vec::<f64>::get(r)?),
            }),
            tag => Err(unknown_tag("smoother", tag)),
        }
    }
}

impl Bin for PolicyCheckpoint {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            PolicyCheckpoint::Stateless => out.push(0),
            PolicyCheckpoint::Fuzzy { prev_serving_rss } => {
                out.push(1);
                prev_serving_rss.put(out);
            }
            PolicyCheckpoint::Step { step } => {
                out.push(2);
                step.put(out);
            }
            PolicyCheckpoint::Streak { streak, inner } => {
                out.push(3);
                streak.put(out);
                inner.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        // Streak wrappers are read iteratively and capped, so a forged
        // chain neither recurses nor builds an unbounded `Box` chain.
        let mut streaks = Vec::new();
        let leaf = loop {
            match r.tag()? {
                0 => break PolicyCheckpoint::Stateless,
                1 => break PolicyCheckpoint::Fuzzy { prev_serving_rss: Option::get(r)? },
                2 => break PolicyCheckpoint::Step { step: u64::get(r)? },
                3 if streaks.len() < MAX_POLICY_NESTING => streaks.push(u64::get(r)?),
                3 => {
                    return Err(malformed(format!(
                        "policy checkpoint nests deeper than {MAX_POLICY_NESTING}"
                    )))
                }
                tag => return Err(unknown_tag("policy checkpoint", tag)),
            }
        };
        Ok(streaks.into_iter().rev().fold(leaf, |inner, streak| PolicyCheckpoint::Streak {
            streak,
            inner: Box::new(inner),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CHECKPOINT_VERSION;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A hand-built snapshot exercising every enum variant: one
    /// finished UE with a trace and one live UE with all three
    /// smoother kinds and a nested policy.
    fn sample() -> FleetCheckpoint {
        let cells = vec![Axial::ORIGIN, Axial::new(1, 0), Axial::new(0, 1)];
        let event = HandoverEvent { step: 2, at_km: 0.1, from: cells[0], to: cells[1], hd: 0.8 };
        let live = UeCheckpoint {
            ue_id: 4,
            engine: UeEngineState {
                serving_idx: 1,
                shadow: ShadowingLaneState {
                    values: vec![0.5, -1.25, 3.0],
                    fresh: vec![false, true, false],
                    any_fresh: true,
                },
                smoothers: vec![
                    RssiSmoother::None,
                    RssiSmoother::Ewma { alpha: 0.5, state: Some(-71.5) },
                    RssiSmoother::Window { capacity: 4, buf: VecDeque::from(vec![1.0, 2.0]) },
                ],
                rng: RngCheckpoint::capture(&StdRng::seed_from_u64(3)),
                log: EventLog::from_parts(vec![event], 5, 1).unwrap(),
                last_advanced_km: vec![0.25, 0.0, 0.125],
                prev_cum: 0.3,
                steps: 5,
            },
            policy: PolicyCheckpoint::Streak {
                streak: 2,
                inner: Box::new(PolicyCheckpoint::Fuzzy { prev_serving_rss: Some(-80.0) }),
            },
            hd_sum: 1.75,
            hd_count: 3,
            travelled_km: 0.3,
            trace_steps: 5,
            trace_changes: vec![(0, 0), (2, 1)],
        };
        FleetCheckpoint {
            version: CHECKPOINT_VERSION,
            step: 5,
            base_seed: 99,
            finished: vec![UeOutcome {
                ue_id: 1,
                steps: 3,
                handovers: 0,
                ping_pongs: 0,
                outage_steps: 1,
                hd_sum: 0.5,
                hd_count: 1,
                travelled_km: 0.2,
                final_serving: cells[2],
            }],
            finished_traces: vec![UeTrace::pinned(1, 3, 2)],
            live: vec![live],
            cell_load: CellLoadHistogram::from_parts(cells, vec![3, 4, 1]).unwrap(),
            tracing: true,
        }
    }

    fn encoded(cp: &FleetCheckpoint) -> Vec<u8> {
        let mut out = Vec::new();
        encode(cp, &mut out);
        out
    }

    #[test]
    fn every_variant_round_trips() {
        let cp = sample();
        assert_eq!(decode(&encoded(&cp)).unwrap(), cp);
        let mut stateless = sample();
        stateless.live[0].policy = PolicyCheckpoint::Step { step: 7 };
        stateless.live[0].engine.smoothers[1] = RssiSmoother::Ewma { alpha: 1.0, state: None };
        assert_eq!(decode(&encoded(&stateless)).unwrap(), stateless);
    }

    #[test]
    fn special_floats_round_trip_bit_exactly() {
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        for v in [-0.0, nan, f64::INFINITY, f64::NEG_INFINITY] {
            let mut cp = sample();
            cp.live[0].hd_sum = v;
            cp.live[0].policy = PolicyCheckpoint::Fuzzy { prev_serving_rss: Some(v) };
            let back = decode(&encoded(&cp)).unwrap();
            assert_eq!(back.live[0].hd_sum.to_bits(), v.to_bits());
            match back.live[0].policy {
                PolicyCheckpoint::Fuzzy { prev_serving_rss: Some(rss) } => {
                    assert_eq!(rss.to_bits(), v.to_bits());
                }
                ref other => panic!("policy came back as {other:?}"),
            }
        }
    }

    #[test]
    fn the_finished_count_sits_at_offset_20() {
        let bytes = encoded(&sample());
        assert_eq!(bytes[20..28], 1u64.to_le_bytes());
    }

    #[test]
    fn forged_counts_tags_and_tails_are_malformed() {
        let bytes = encoded(&sample());
        let left = (bytes.len() - 28) as u64;
        for forged in [u64::MAX, left + 1] {
            let mut bad = bytes.clone();
            bad[20..28].copy_from_slice(&forged.to_le_bytes());
            assert!(matches!(decode(&bad), Err(CheckpointError::Malformed(_))), "{forged}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(decode(&padded), Err(CheckpointError::Malformed(_))));
        for cut in 0..bytes.len() {
            assert!(matches!(decode(&bytes[..cut]), Err(CheckpointError::Malformed(_))));
        }
        let mut bad_tracing = bytes.clone();
        *bad_tracing.last_mut().unwrap() = 2;
        assert!(matches!(decode(&bad_tracing), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn policy_nesting_is_capped() {
        let mut policy = PolicyCheckpoint::Stateless;
        for depth in 0..=MAX_POLICY_NESTING + 1 {
            let mut out = Vec::new();
            policy.put(&mut out);
            let back = PolicyCheckpoint::get(&mut Reader { rest: &out });
            if depth <= MAX_POLICY_NESTING {
                assert_eq!(back.unwrap(), policy, "depth {depth}");
            } else {
                assert!(matches!(back, Err(CheckpointError::Malformed(_))), "depth {depth}");
            }
            policy = PolicyCheckpoint::Streak { streak: depth as u64, inner: Box::new(policy) };
        }
        assert!(matches!(
            PolicyCheckpoint::get(&mut Reader { rest: &[9] }),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn inconsistent_parts_are_malformed() {
        let mut out = Vec::new();
        vec![Axial::ORIGIN, Axial::new(1, 0)].put(&mut out);
        vec![1u64].put(&mut out);
        assert!(matches!(
            CellLoadHistogram::get(&mut Reader { rest: &out }),
            Err(CheckpointError::Malformed(_))
        ));
        let mut out = Vec::new();
        Vec::<HandoverEvent>::new().put(&mut out);
        2usize.put(&mut out);
        3usize.put(&mut out);
        assert!(matches!(
            EventLog::get(&mut Reader { rest: &out }),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
