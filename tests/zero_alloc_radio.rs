//! Counting-allocator proof of the compiled measurement plane's
//! acceptance criterion (the radio analogue of `tests/zero_alloc.rs`):
//! once its state is sized at construction, a measurement step through
//! the plane — batched link budget, shadowing-lane update (dense and
//! pruned), batched noise, neighbour-index query — performs **zero heap
//! allocations**.
//!
//! The whole measurement lives in a single `#[test]` (and its own test
//! binary) so no concurrent test thread can perturb the global
//! allocation counter. The libtest harness's *main* thread still prints
//! its one-shot per-test progress line concurrently with the test body,
//! so the window is measured as the minimum over a few runs — see the
//! sibling `tests/zero_alloc.rs` for the full story; the minimum is
//! sound because interference only ever adds allocations.

use fuzzy_handover::geometry::{CellLayout, NeighborIndex, Vec2};
use fuzzy_handover::radio::{
    standard_normal_fill, BsRadio, MeasurementNoise, RayleighFading, RicianFading,
    ShadowingConfig, ShadowingLane,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, with every allocation event counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn measurement_plane_allocation_budget() {
    // One paper layout's worth of plane state, sized up front.
    let layout = CellLayout::hexagonal(2.0, 2);
    let n = layout.len();
    let bs_positions: Vec<Vec2> = layout.cells().iter().map(|&c| layout.bs_position(c)).collect();
    let compiled = BsRadio::paper_default().compiled();
    let index = NeighborIndex::new(&layout);
    let noise = MeasurementNoise::new(1.0);
    let mut lane = ShadowingLane::new(ShadowingConfig::moderate(), n);
    let mut rng = StdRng::seed_from_u64(42);

    const CHUNK: usize = 128;
    let positions: Vec<Vec2> =
        (0..CHUNK).map(|k| Vec2::from_polar(0.1 + 0.03 * k as f64, 0.7 * k as f64)).collect();
    let mut rss_matrix = vec![0.0f64; n * CHUNK];
    let mut measured = vec![0.0f64; n];
    let mut last_km = vec![0.0f64; n];
    let mut subset = vec![0u32; 0];
    subset.reserve(n);
    // Scratch for the bulk-RNG kernels: pre-sized once, like the fleet
    // arena's `rng_scratch` (the fused kernel's sizing rule).
    let mut words = vec![0u64; 2 * n];
    let mut normals = vec![0.0f64; 2 * n];
    let mut fading_db = vec![0.0f64; n];
    let rayleigh = RayleighFading;
    let rician = RicianFading::new(6.0);

    // Warm-up step (first lane advance flips the fresh flags; nothing
    // else in the plane is lazily sized).
    lane.advance_all(0.1, &mut rng);

    let mut fewest = usize::MAX;
    for attempt in 0..3 {
        let before = allocations();
        for step in 1..100u32 {
            let step = step + 100 * attempt;
            // Dense sweep: one batched budget per BS over the chunk.
            for (k, &bs_pos) in bs_positions.iter().enumerate() {
                compiled.received_power_dbm_batch(
                    bs_pos,
                    &positions,
                    &mut rss_matrix[k * CHUNK..(k + 1) * CHUNK],
                );
            }
            // Shadowing lane + batched noise (the per-UE step stages).
            lane.advance_all(0.05, &mut rng);
            measured.copy_from_slice(&rss_matrix[..n]);
            noise.apply_slice(&mut measured, &mut rng);
            // Pruned stages: index query + lazy subset update.
            let near = index.nearest(positions[step as usize % CHUNK], 7);
            subset.clear();
            subset.extend_from_slice(near);
            lane.advance_subset(&subset, 0.05 * step as f64, &mut last_km, &mut rng);
            // Bulk-RNG kernels: wide ChaCha12 fill, batched Box–Muller,
            // batched Rayleigh/Rician fading.
            rng.fill_u64_slice(&mut words);
            standard_normal_fill(&mut normals, &mut rng);
            rayleigh.sample_db_fill(&mut fading_db, &mut rng);
            rician.sample_db_fill(&mut fading_db, &mut rng);
        }
        fewest = fewest.min(allocations() - before);
        if fewest == 0 {
            break;
        }
    }
    assert_eq!(
        fewest, 0,
        "the compiled measurement plane must not allocate per step"
    );
}
