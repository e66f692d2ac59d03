//! Per-gate bookkeeping on the decision-diagram hot path must not touch
//! the heap once warm: the run loop counts nodes after every gate, and
//! dynamic circuits re-request the same gate diagrams once per shot.
//!
//! The counting allocator counts per thread, because the test harness
//! runs tests on concurrent threads. `GlobalAlloc` is an unsafe trait, so
//! this file opts back into `unsafe` locally (the workspace lints warn on
//! it).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qdt_circuit::{generators, Gate};
use qdt_dd::DdPackage;

/// System allocator shim that counts allocations.
struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread's locals are torn down,
    // after the tests have stopped counting.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_node_counts_do_not_allocate() {
    let mut dd = DdPackage::new();
    let v = dd.run_circuit(&generators::qft(8, true)).unwrap();
    let m = dd.circuit_dd(&generators::ghz(6)).unwrap();
    let (nv, nm) = (dd.vector_node_count(&v), dd.matrix_node_count(&m));
    let before = allocations();
    for _ in 0..100 {
        assert_eq!(dd.vector_node_count(&v), nv);
        assert_eq!(dd.matrix_node_count(&m), nm);
    }
    assert_eq!(allocations() - before, 0, "node counting allocated");
}

#[test]
fn gate_memo_hits_do_not_allocate() {
    let mut dd = DdPackage::new();
    let x = Gate::X.matrix();
    let first = dd.gate_dd(&x, 10, 7, &[2, 9, 0]);
    let before = allocations();
    for _ in 0..100 {
        assert_eq!(dd.gate_dd(&x, 10, 7, &[2, 9, 0]), first);
    }
    assert_eq!(allocations() - before, 0, "a gate-memo hit allocated");
}
