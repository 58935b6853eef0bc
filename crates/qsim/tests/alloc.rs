//! Verifies the zero-allocation contract of the steady-state shot loop.
//!
//! A counting `#[global_allocator]` wraps the system allocator; each test
//! warms a [`qsim::SimScratch`] + `Counts` pair with one run and then
//! repeats the identical run, asserting that not a single heap allocation
//! happens during the repeat. The counter is per thread: the test harness
//! allocates on its own threads (output capture, result reporting) while a
//! test runs, and a process-wide counter would charge those allocations to
//! whichever test was measuring.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qcir::Circuit;
use qdevice::{presets, DeviceModel};
use qsim::{rngstream, CompiledCircuit, Counts, NoisySimulator, SimScratch};

/// System allocator with a per-thread allocation-event counter (`alloc`
/// and `realloc`; frees are not counted — releasing memory is allowed,
/// taking more is what the contract forbids).
struct CountingAlloc;

thread_local! {
    /// Allocation events on this thread. Const-initialized and free of
    /// destructors, so touching it from inside the allocator never
    /// allocates or re-enters.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // During thread teardown the slot may be gone; those allocations are
    // not the shot loop's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread performs while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn steady_state_shot_loop_does_not_allocate() {
    let device = DeviceModel::synthesize(presets::melbourne14(), 42);
    let sim = NoisySimulator::from_device(&device);
    let mut c = Circuit::new(3, 3);
    c.h(0).cx(0, 1).t(1).h(2).cx(1, 2).measure_all();
    let plan = sim.compile(&c).expect("circuit is physical");

    let mut scratch = SimScratch::new();
    let mut counts = Counts::new(plan.num_clbits());

    // Warm-up: grows the scratch buffers to this plan's sizes and seeds
    // the histogram's key set (an identical rerun below revisits exactly
    // the same outcomes, so `Counts` never inserts a new node).
    plan.run_into(2048, 7, &mut scratch, &mut counts);

    let during = allocations_during(|| plan.run_into(2048, 7, &mut scratch, &mut counts));

    assert_eq!(counts.shots(), 4096);
    assert_eq!(
        during, 0,
        "steady-state shot loop performed {during} heap allocations"
    );
}

/// Runs the slices of a 16 384-shot job, as the worker pool would.
fn run_job(plan: &CompiledCircuit, scratch: &mut SimScratch, counts: &mut Counts) -> [u64; 4] {
    let mut paths = [0; 4];
    for slice in 0..16 {
        plan.run_into(1024, rngstream::fork(5, slice), scratch, counts);
        let p = scratch.last_paths();
        for (acc, n) in paths
            .iter_mut()
            .zip([p.clean, p.memo_hit, p.resumed, p.full_replay])
        {
            *acc += n;
        }
    }
    paths
}

#[test]
fn warmed_memo_and_checkpoint_run_does_not_allocate() {
    // Deep enough for several clean-prefix checkpoints and hundreds of
    // single-fault outcomes; narrow enough for the memo.
    let device = DeviceModel::synthesize(presets::melbourne14(), 42);
    let sim = NoisySimulator::from_device(&device);
    let mut c = Circuit::new(4, 4);
    for layer in 0..6 {
        c.h(0).cx(0, 1).rz(1, 0.3 + 0.1 * layer as f64).cx(1, 2);
        c.ry(2, 0.7).cx(2, 3).t(3).cx(3, 2);
    }
    c.measure_all();
    let plan = sim.compile(&c).expect("circuit is physical");

    let mut scratch = SimScratch::new();
    let mut counts = Counts::new(plan.num_clbits());
    // Warm-up fills every memo slot the job's single-fault shots reach.
    let warm = run_job(&plan, &mut scratch, &mut counts);
    let memo = plan.memo_stats();
    assert!(
        memo.filled > 0,
        "the warm-up must fill memo slots: {memo:?}"
    );

    let mut paths = [0; 4];
    let during = allocations_during(|| paths = run_job(&plan, &mut scratch, &mut counts));

    assert_eq!(counts.shots(), 2 * 16 * 1024);
    // Same draws, so the same shots fault; the ones whose memo slot the
    // warm-up filled now hit it instead of replaying.
    assert_eq!(paths[0], warm[0], "clean shots: {paths:?} vs {warm:?}");
    assert!(
        paths[1] > warm[1],
        "repeat must hit the memo more: {paths:?} vs {warm:?}"
    );
    assert!(
        paths[2] > 0,
        "repeat must resume from checkpoints: {paths:?}"
    );
    assert_eq!(plan.memo_stats(), memo, "the repeat must not grow the memo");
    assert_eq!(
        during, 0,
        "warmed memo-and-checkpoint run performed {during} heap allocations"
    );
}
