//! A mailbox in steady state allocates nothing per message: received
//! nodes return to its store's free list and the next deliveries take
//! them.
//!
//! Its own test binary, with one test, so the counting allocator sees
//! only this thread's calls.

use simnet::mailbox::{Mailbox, Packet};
use simnet::rendezvous::PoisonFlag;
use simnet::{IoBuffer, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocator calls that hand out memory: allocations and regrowths.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn pkt(src: u32, tag: i32) -> Packet {
    Packet {
        src,
        ctx: 0,
        tag,
        payload: IoBuffer::synthetic(4096).into(),
        sent_clock: SimTime::ZERO,
        fault_drops: 0,
        fault_delay: 1.0,
        fault_corrupt: 0,
    }
}

/// 128 senders in two blocks, up to 8 packets in flight on two tags;
/// each round delivers 8 and receives them in another order.
fn rounds(m: &Mailbox, n: usize) {
    for i in 0..n {
        let srcs = (0..8).map(|k| ((i * 37 + k * 17) % 128) as u32);
        for (k, src) in srcs.clone().enumerate() {
            m.deliver(pkt(src, (k % 2) as i32));
        }
        for (k, src) in srcs.enumerate().rev() {
            let got = m.recv(src as usize, 0, (k % 2) as i32);
            assert_eq!(got.src, src);
        }
    }
}

#[test]
fn deliveries_and_receives_allocate_nothing_after_warm_up() {
    let m = Mailbox::new(128, Rc::new(PoisonFlag::default()));
    // Warm-up: both blocks of list ends and the store's nodes.
    rounds(&m, 64);
    let before = CALLS.load(Ordering::Relaxed);
    rounds(&m, 1250);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(m.backlog(), 0);
    assert_eq!(
        calls, 0,
        "10 000 deliver/recv pairs made {calls} allocator calls"
    );
}
