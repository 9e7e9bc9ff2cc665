//! Enforces the allocation-free mirror path: after warm-up, a serial steady-state
//! `mirror_out` — plaintext staging, per-tensor sealing, and the durable PM write —
//! performs **zero heap allocations**. The plaintext staging buffer, sealed-blob
//! arena and IV batch form the handle's single staging set, shared by the sync
//! path, the background seal worker and restores; the per-tensor AADs are
//! precomputed, the AES-GCM context is served from the enclave's per-key cache,
//! and the Romulus redo log, its copy scratch, and the pmem dirty-line map retain
//! their capacity across iterations.
//!
//! Thread fan-out (`threads > 1`) additionally allocates only the O(#tensors)
//! fork/join dispatch buffers, which is asserted with a loose bound.
//!
//! The counting allocator is thread-local, so the serial assertions are exact even
//! though the test binary runs tests on multiple threads.

// A counting `GlobalAlloc` wrapper is impossible to write without `unsafe`. The
// production crates stay `forbid(unsafe_code)` except `plinius-crypto`, which is
// `deny(unsafe_code)` with exactly two exempt modules: the AES-NI and PCLMUL
// hardware kernels (`aesarch`/`clmul`), whose intrinsics require it. This test
// runs on whatever engine the dispatcher selects, so the zero-alloc guarantee
// below covers the hardware path on AES-NI hosts.
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use plinius::{MirrorModel, PliniusContext};
use plinius_crypto::Key;
use plinius_darknet::config::{build_network, mnist_cnn_config};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn mirror_fixture() -> (PliniusContext, plinius_darknet::Network, MirrorModel) {
    let ctx = PliniusContext::small_test(8 * 1024 * 1024);
    let mut rng = StdRng::seed_from_u64(4242);
    ctx.provision_key_directly(Key::generate_128(&mut rng));
    let mut net = build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    net.set_iteration(1);
    let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
    (ctx, net, mirror)
}

#[test]
fn steady_state_serial_mirror_out_performs_zero_heap_allocations() {
    let (ctx, net, mirror) = mirror_fixture();
    // Warm-up: the first call builds the staging set and the GCM tables,
    // creates the stats counters, and grows the pmem dirty-line map and Romulus
    // scratch to their steady-state capacity; the second catches any one-off growth.
    mirror.mirror_out_with_threads(&ctx, &net, 1).unwrap();
    mirror.mirror_out_with_threads(&ctx, &net, 1).unwrap();
    let before = thread_allocs();
    mirror.mirror_out_with_threads(&ctx, &net, 1).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "steady-state serial mirror_out must not touch the heap"
    );
}

#[test]
fn steady_state_mirror_out_stays_allocation_free_for_nonzero_tenants() {
    // The tenant-scoped publish path must be as quiet as tenant 0's: the tenant's
    // key-store name is precomputed as an `Arc<str>` when the context is scoped
    // (`for_tenant`), so steady-state key-cache lookups never format a string.
    let ctx =
        PliniusContext::small_test(8 * 1024 * 1024).for_tenant(plinius::TenantId::new(5).unwrap());
    let mut rng = StdRng::seed_from_u64(4243);
    ctx.provision_key_directly(Key::generate_128(&mut rng));
    let mut net = build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    net.set_iteration(1);
    let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
    mirror.mirror_out_with_threads(&ctx, &net, 1).unwrap();
    mirror.mirror_out_with_threads(&ctx, &net, 1).unwrap();
    let before = thread_allocs();
    mirror.mirror_out_with_threads(&ctx, &net, 1).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "steady-state tenant-scoped mirror_out must not touch the heap"
    );
}

#[test]
fn steady_state_threaded_mirror_out_allocates_only_dispatch_buffers() {
    let (ctx, net, mirror) = mirror_fixture();
    mirror.mirror_out_with_threads(&ctx, &net, 2).unwrap();
    mirror.mirror_out_with_threads(&ctx, &net, 2).unwrap();
    let before = thread_allocs();
    mirror.mirror_out_with_threads(&ctx, &net, 2).unwrap();
    let allocs = thread_allocs() - before;
    // Thread spawn + per-tensor task vectors; the point is that it stays O(tensors),
    // nowhere near the seed's per-tensor plaintext/AAD/blob churn (hundreds of
    // allocations even for this 10-tensor model). Only the calling thread's
    // allocations are counted, so the bound is deterministic.
    assert!(
        allocs < 50,
        "threaded mirror_out should only allocate fork/join dispatch state, got {allocs}"
    );
}

#[test]
fn steady_state_snapshot_phase_performs_zero_heap_allocations() {
    // The cheap half of an overlapped mirror-out: staging the parameters + IV batch
    // into the handle's staging set and dispatching the seal job must not touch the
    // heap once the pipeline (worker, staging set, stats counters) is warm. The job
    // *moves* through the pipeline's single exchange slot, so even the dispatch is
    // allocation-free on the calling thread.
    let (ctx, net, mirror) = mirror_fixture();
    for _ in 0..3 {
        mirror.snapshot_out(&ctx, &net).unwrap();
        mirror.drain(&ctx).unwrap();
    }
    let before = thread_allocs();
    mirror.snapshot_out(&ctx, &net).unwrap();
    let allocs = thread_allocs() - before;
    mirror.drain(&ctx).unwrap();
    assert_eq!(
        allocs, 0,
        "steady-state snapshot phase must not touch the heap"
    );
}

#[test]
fn steady_state_overlapped_cycle_performs_zero_heap_allocations_on_the_training_thread() {
    // A full overlapped persist cycle — snapshot, background seal, join, bulk slot
    // publish, epoch flip — seen from the training thread. The background worker's
    // own allocations (if any) land on its thread and are bounded by the sealing
    // scratch, exactly as in the threaded sync variant; the training thread itself
    // must stay off the heap.
    let (ctx, net, mirror) = mirror_fixture();
    // Warm-up: three cycles cover both A/B slots' pmem cache lines, the Romulus
    // copy scratch and every stats counter.
    for _ in 0..3 {
        mirror.snapshot_out(&ctx, &net).unwrap();
        mirror.drain(&ctx).unwrap();
    }
    let before = thread_allocs();
    mirror.snapshot_out(&ctx, &net).unwrap();
    mirror.drain(&ctx).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "steady-state overlapped mirror_out path must not touch the heap on the training thread"
    );
}

#[test]
fn steady_state_vfs_sealed_reads_perform_zero_heap_allocations() {
    // The VFS's raw-sealed-read lane (`read_into` on a `.sealed` path) is the
    // zero-copy export surface: path resolution works on borrowed slices and the
    // ciphertext is copied straight from PM into the caller's buffer. After the
    // listing warm-up, a steady-state read must not touch the heap.
    let (ctx, net, mirror) = mirror_fixture();
    mirror.mirror_out_with_threads(&ctx, &net, 1).unwrap();
    let vfs = plinius::MirrorVfs::new(&ctx, &mirror);
    let entry = plinius::Vfs::stat(&vfs, "/epoch/1/layer0-tensor0.sealed").unwrap();
    let mut buf = vec![0u8; entry.len];
    // Warm-up: stats counters and any lazily-built lookup state.
    plinius::Vfs::read_into(&vfs, "/epoch/1/layer0-tensor0.sealed", &mut buf).unwrap();
    plinius::Vfs::read_into(&vfs, "/epoch/1/layer0-tensor0.sealed", &mut buf).unwrap();
    let before = thread_allocs();
    let n = plinius::Vfs::read_into(&vfs, "/epoch/1/layer0-tensor0.sealed", &mut buf).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!(n, entry.len);
    assert_eq!(
        allocs, 0,
        "steady-state VFS sealed reads must not touch the heap"
    );
}

#[test]
fn mirror_out_still_round_trips_under_the_counting_allocator() {
    // Sanity: the instrumented binary still produces a restorable mirror.
    let (ctx, net, mirror) = mirror_fixture();
    mirror.mirror_out_with_threads(&ctx, &net, 1).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let mut other = build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    let report = mirror.mirror_in(&ctx, &mut other).unwrap();
    assert_eq!(report.iteration, 1);
    assert!(report.model_bytes > 0);
}
