//! Point-to-point message store.
//!
//! Every rank owns one [`Mailbox`]; senders deposit packets keyed by
//! `(source, context, tag)` and receivers block until a matching packet is
//! present. Matching is always fully qualified — there are no wildcard
//! sources or tags — which keeps virtual timestamps deterministic: packets
//! with equal keys are consumed in FIFO order, and MPI's non-overtaking
//! rule holds per key.
//!
//! The `context` field plays the role of an MPI communicator context id,
//! isolating traffic of different communicators that may use equal tags.
//!
//! # One packet store
//!
//! A mailbox's memory follows the packets in flight to it, not the
//! (receiver, sender) pairs it has heard from. It holds one store of
//! packet nodes, linked per source in arrival order, and a receive takes
//! the first node in its source's list whose `(context, tag)` matches.
//! Within one source arrival order is send order, so the walk keeps
//! per-key FIFO and MPI's non-overtaking rule without a queue per key.
//! Traffic keeps the walk short: a two-phase exchange's receive finds
//! its match at the head.
//!
//! A received node goes back on the store's free list and keeps its
//! place, so the store's size is the most packets this mailbox has held
//! at once, and a steady exchange allocates nothing per message. A
//! source costs two `u32` list ends, inline in a table of [`BLOCK`]
//! consecutive senders that is allocated by its first delivery; a
//! mailbox holds one pointer per block. Before the store, each pair a
//! mailbox had heard from held a boxed shard with its own packet queue,
//! which never shrank: about 344 B a pair, a third of `btio_c_64`'s and
//! `tile_write_512`'s live heap at their base legs' peak (DESIGN.md
//! §9.3). A slot table sized by the cluster in every mailbox was
//! `ranks²` slots — 4 MiB at 512 ranks, 1 GiB at 8 192 — for pairs that
//! never exchange a message.
//!
//! Only the owner ever receives from a mailbox, and it waits on one
//! source at a time, so a mailbox has one waiter slot, which records the
//! source awaited. A delivery wakes the owner only when it comes from
//! that source: the all-to-one exchange pattern of two-phase I/O — up to
//! 1024 senders depositing into one aggregator's mailbox — wakes the
//! aggregator once per packet it asked for, and a receive walks only its
//! source's list.
//!
//! Every rank of a cluster is a fiber on one thread, so the store is
//! single-threaded by type: one `RefCell`, whose borrow ends before a
//! receiver parks. A delivery and a receive take no lock and run no
//! atomic instruction.

use crate::buffer::IoBuffer;
use crate::fiber::{self, Waker};
use crate::rendezvous::PoisonFlag;
use crate::time::SimTime;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// What a message carries: bytes, or a host-side reference standing in
/// for them.
///
/// A typed payload is the point-to-point form of the typed collectives'
/// `bytes_each`: the cost model, the fault draws and the trace
/// all see a message of `wire_bytes` (what the real protocol would
/// serialize), while the host hands the receiver the sender's `Rc` —
/// nothing is encoded, copied or decoded.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A byte buffer, real or synthetic.
    Bytes(IoBuffer),
    /// A shared value modelled as `wire_bytes` on the wire.
    Typed {
        /// The value the receiver gets a reference to.
        value: Rc<dyn Any>,
        /// Serialized size charged to every cost model.
        wire_bytes: usize,
    },
}

impl Payload {
    /// Bytes this payload occupies on the (modelled) wire.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Typed { wire_bytes, .. } => *wire_bytes,
        }
    }

    /// The byte buffer. Panics on a typed payload: sender and receiver
    /// disagreeing on a tag's message kind is a protocol bug.
    pub fn into_bytes(self) -> IoBuffer {
        match self {
            Payload::Bytes(b) => b,
            Payload::Typed { .. } => panic!("typed message received as bytes"),
        }
    }

    /// The shared value. Panics on a byte payload or a value of another
    /// type, for the same reason as [`into_bytes`](Self::into_bytes).
    pub fn into_typed<T: 'static>(self) -> Rc<T> {
        match self {
            Payload::Typed { value, .. } => value.downcast().unwrap_or_else(|_| {
                panic!("typed message is not a {}", std::any::type_name::<T>())
            }),
            Payload::Bytes(_) => panic!("byte message received as typed"),
        }
    }
}

impl From<IoBuffer> for Payload {
    fn from(buf: IoBuffer) -> Self {
        Payload::Bytes(buf)
    }
}

/// A message in flight.
///
/// Mailbox queues hold these by the hundred thousand at paper scale, so
/// the size is pinned by a test: `src` is 32 bits wide to leave room for
/// the [`Payload`] discriminant.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Sending rank (global).
    pub src: u32,
    /// Communicator context id.
    pub ctx: u32,
    /// User tag.
    pub tag: i32,
    /// Payload.
    pub payload: Payload,
    /// Sender's virtual clock at the instant the send was posted.
    pub sent_clock: SimTime,
    /// Fault-injected dropped transmission attempts (0 = clean). The
    /// payload is always delivered — a "drop" is a tombstone whose retry
    /// penalty the *receiver* charges to its virtual arrival, so fault
    /// injection never blocks host execution.
    pub fault_drops: u32,
    /// Fault-injected multiplier on the wire transfer time (1.0 = clean).
    pub fault_delay: f64,
    /// Fault-injected silent-corruption token (0 = clean). Like drops,
    /// corruption is virtual-state-pure: the payload bytes delivered are
    /// untouched, and the *consumer* applies the seeded flip (or, with
    /// checksums on, detects and repairs it) when it unpacks the payload.
    pub fault_corrupt: u64,
}

/// No node: the end of a list.
const NIL: u32 = u32::MAX;

/// Senders per block of list ends.
const BLOCK: usize = 64;

/// One source's packets, oldest first: the first and last node of its
/// list in the store, [`NIL`] when it has none.
#[derive(Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

impl Ends {
    const EMPTY: Ends = Ends {
        head: NIL,
        tail: NIL,
    };
}

/// A slot of the store: a packet and the next node of its source's list,
/// or, with no packet, the next free node.
struct Node {
    pkt: Option<Packet>,
    next: u32,
}

/// What a mailbox holds, under one borrow.
struct Store {
    /// Every node made so far; a received one is reused.
    nodes: Vec<Node>,
    /// First node of the free list.
    free: u32,
    /// Packets held.
    held: usize,
    /// Per-source list ends, by block of senders (`src / BLOCK`) and slot
    /// in it (`src % BLOCK`); a block is made by its first delivery.
    blocks: Box<[Option<Box<[Ends; BLOCK]>>]>,
    /// The owner's parked fiber, if it waits.
    waiter: Option<Waker>,
    /// The source the owner waits on, while `waiter` is set.
    awaited: u32,
}

impl Store {
    /// Append `pkt` to its source's list; true if the owner waits on
    /// that source.
    fn push(&mut self, pkt: Packet) -> bool {
        let src = pkt.src;
        let at = if self.free == NIL {
            self.nodes.push(Node {
                pkt: Some(pkt),
                next: NIL,
            });
            u32::try_from(self.nodes.len() - 1).expect("packets in flight fit a u32")
        } else {
            let at = self.free;
            let node = &mut self.nodes[at as usize];
            self.free = node.next;
            *node = Node {
                pkt: Some(pkt),
                next: NIL,
            };
            at
        };
        self.held += 1;
        let (block, slot) = (src as usize / BLOCK, src as usize % BLOCK);
        let block = self.blocks[block].get_or_insert_with(|| Box::new([Ends::EMPTY; BLOCK]));
        let ends = &mut block[slot];
        match ends.tail {
            NIL => ends.head = at,
            tail => self.nodes[tail as usize].next = at,
        }
        ends.tail = at;
        self.awaited == src
    }

    /// Unlink and return the oldest packet from `src` on `key`, if any.
    fn take(&mut self, src: usize, key: (u32, i32)) -> Option<Packet> {
        let ends = &mut self.blocks[src / BLOCK].as_deref_mut()?[src % BLOCK];
        let (mut prev, mut at) = (NIL, ends.head);
        while at != NIL {
            let node = &self.nodes[at as usize];
            let pkt = node.pkt.as_ref().expect("a listed node holds a packet");
            if (pkt.ctx, pkt.tag) == key {
                break;
            }
            (prev, at) = (at, node.next);
        }
        if at == NIL {
            return None;
        }
        let node = &mut self.nodes[at as usize];
        let next = std::mem::replace(&mut node.next, self.free);
        let pkt = node.pkt.take();
        match prev {
            NIL => ends.head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        if ends.tail == at {
            ends.tail = prev;
        }
        self.free = at;
        self.held -= 1;
        pkt
    }
}

/// One rank's incoming-message store.
pub struct Mailbox {
    store: RefCell<Store>,
    poison: Rc<PoisonFlag>,
    /// Times the receiver was woken by a delivery and found its match.
    wakeups: Cell<u64>,
    /// Times the receiver was woken by a delivery without a matching
    /// packet (a same-source delivery on a different `(ctx, tag)`).
    spurious_wakeups: Cell<u64>,
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox").finish_non_exhaustive()
    }
}

impl Mailbox {
    /// New empty mailbox of a rank in a cluster of `nranks` possible
    /// senders, sharing the cluster poison flag.
    pub fn new(nranks: usize, poison: Rc<PoisonFlag>) -> Self {
        assert!(
            u32::try_from(nranks).is_ok_and(|n| n < NIL),
            "packets carry their source rank in 32 bits"
        );
        Mailbox {
            store: RefCell::new(Store {
                nodes: Vec::new(),
                free: NIL,
                held: 0,
                blocks: (0..nranks.max(1).div_ceil(BLOCK)).map(|_| None).collect(),
                waiter: None,
                awaited: NIL,
            }),
            poison,
            wakeups: Cell::new(0),
            spurious_wakeups: Cell::new(0),
        }
    }

    /// Deposit a packet (called by the sender's fiber) and wake the
    /// owner if it waits on this source: it is then runnable, queued at
    /// its floor.
    #[inline(always)]
    pub fn deliver(&self, pkt: Packet) {
        // hostprof: deposit + targeted wake; nothing below blocks.
        let _hp = simtrace::host::scope(simtrace::host::Site::MboxDeliver);
        let mut st = self.store.borrow_mut();
        if st.push(pkt) {
            fiber::wake(&mut st.waiter);
        }
    }

    /// Receive the next packet matching `(src, ctx, tag)`, blocking until
    /// one arrives. Panics if the cluster is poisoned while waiting.
    pub fn recv(&self, src: usize, ctx: u32, tag: i32) -> Packet {
        let mut woken = false;
        loop {
            // hostprof: one matching pass. The guard's block ends before
            // the wait below, so the frame never absorbs the time spent
            // blocked (which belongs to other fibers' work).
            {
                let _hp = simtrace::host::scope(simtrace::host::Site::MboxRecv);
                let hit = self.store.borrow_mut().take(src, (ctx, tag));
                if let Some(pkt) = hit {
                    if woken {
                        self.wakeups.set(self.wakeups.get() + 1);
                    }
                    return pkt;
                }
                if woken {
                    let spurious = &self.spurious_wakeups;
                    spurious.set(spurious.get() + 1);
                }
            }
            // No matching packet exists: this rank's further progress
            // (and all its future resource requests) now depends on the
            // sender. It holds no key in the run queue until woken.
            let awaited = src as u32;
            fiber::wait(
                &self.store,
                |st| {
                    st.awaited = awaited;
                    &mut st.waiter
                },
                &self.poison,
            );
            woken = true;
        }
    }

    /// Number of packets currently held (all sources and keys).
    /// Diagnostic only.
    pub fn backlog(&self) -> usize {
        self.store.borrow().held
    }

    /// Notified wakeups the receiver observed that found their match.
    /// Diagnostic: a delivery wakes the owner only when it comes from
    /// the source it waits on, so this tracks productive deliveries.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.get()
    }

    /// Notified wakeups that found no matching packet — a same-source
    /// delivery on a different `(ctx, tag)` than the one being awaited.
    /// Single-tag exchanges (the two-phase data path) keep this at zero;
    /// the regression test asserts it.
    pub fn spurious_wakeups(&self) -> u64 {
        self.spurious_wakeups.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiber::{on_fibers, on_fibers_in};
    use crate::progress::PopOrder;
    use proptest::prelude::*;

    fn mbox() -> Mailbox {
        Mailbox::new(4, Rc::new(PoisonFlag::default()))
    }

    fn pkt(src: u32, ctx: u32, tag: i32, bytes: &[u8]) -> Packet {
        Packet {
            src,
            ctx,
            tag,
            payload: IoBuffer::from_slice(bytes).into(),
            sent_clock: SimTime::ZERO,
            fault_drops: 0,
            fault_delay: 1.0,
            fault_corrupt: 0,
        }
    }

    #[test]
    fn packet_size_is_pinned() {
        // Every packet in flight is a node of its mailbox's store, and a
        // store keeps its most packets held at once: eight more bytes
        // here were 5-7 % of tile_restart_256's peak RSS while each pair
        // kept a queue.
        assert_eq!(std::mem::size_of::<Packet>(), 72);
    }

    #[test]
    fn typed_payload_hands_over_the_senders_arc() {
        let m = mbox();
        let value = Rc::new(vec![1u64, 2, 3]);
        let mut p = pkt(1, 0, 5, &[]);
        p.payload = Payload::Typed {
            value: Rc::clone(&value) as Rc<dyn Any>,
            wire_bytes: 48,
        };
        m.deliver(p);
        let got = m.recv(1, 0, 5).payload;
        assert_eq!(got.wire_len(), 48);
        assert!(Rc::ptr_eq(&got.into_typed::<Vec<u64>>(), &value));
    }

    #[test]
    #[should_panic(expected = "typed message received as bytes")]
    fn typed_payload_is_not_bytes() {
        let value: Rc<dyn Any> = Rc::new(7u8);
        let _ = Payload::Typed {
            value,
            wire_bytes: 1,
        }
        .into_bytes();
    }

    #[test]
    fn fifo_per_key() {
        let m = mbox();
        m.deliver(pkt(1, 0, 5, &[1]));
        m.deliver(pkt(1, 0, 5, &[2]));
        m.deliver(pkt(1, 0, 5, &[3]));
        assert_eq!(
            m.recv(1, 0, 5).payload.into_bytes().as_slice().unwrap(),
            &[1]
        );
        assert_eq!(
            m.recv(1, 0, 5).payload.into_bytes().as_slice().unwrap(),
            &[2]
        );
        assert_eq!(
            m.recv(1, 0, 5).payload.into_bytes().as_slice().unwrap(),
            &[3]
        );
    }

    #[test]
    fn keys_are_isolated() {
        let m = mbox();
        m.deliver(pkt(1, 0, 5, &[10]));
        m.deliver(pkt(2, 0, 5, &[20]));
        m.deliver(pkt(1, 1, 5, &[30])); // different context
        m.deliver(pkt(1, 0, 6, &[40])); // different tag
        assert_eq!(
            m.recv(1, 0, 6).payload.into_bytes().as_slice().unwrap(),
            &[40]
        );
        assert_eq!(
            m.recv(1, 1, 5).payload.into_bytes().as_slice().unwrap(),
            &[30]
        );
        assert_eq!(
            m.recv(2, 0, 5).payload.into_bytes().as_slice().unwrap(),
            &[20]
        );
        assert_eq!(
            m.recv(1, 0, 5).payload.into_bytes().as_slice().unwrap(),
            &[10]
        );
        assert_eq!(m.backlog(), 0);
    }

    #[test]
    fn a_receive_parks_until_the_delivery_wakes_it() {
        // Fiber 0 receives before fiber 1 has sent: it parks, and the
        // delivery — not a poll, there is none — makes it runnable.
        let m = mbox();
        let got = on_fibers(2, |me| match me {
            0 => m.recv(3, 2, 1).payload.into_bytes().into_bytes(),
            _ => {
                m.deliver(pkt(3, 2, 1, &[9]));
                Vec::new()
            }
        });
        assert_eq!(got[0], [9]);
        assert_eq!((m.wakeups(), m.spurious_wakeups()), (1, 0));
    }

    /// Blocks of list ends and nodes made so far.
    fn made(m: &Mailbox) -> (usize, usize) {
        let st = m.store.borrow();
        let blocks = st.blocks.iter().filter(|b| b.is_some()).count();
        (blocks, st.nodes.len())
    }

    #[test]
    fn memory_follows_packets_in_flight() {
        // A 4 096-rank mailbox that hears from three senders, one packet
        // at a time, holds three blocks of list ends and one node.
        let m = Mailbox::new(4096, Rc::new(PoisonFlag::default()));
        assert_eq!((made(&m), m.backlog()), ((0, 0), 0));
        for src in [7, 2100, 4095] {
            m.deliver(pkt(src, 0, 0, &[1]));
            let _ = m.recv(src as usize, 0, 0);
        }
        assert_eq!((made(&m), m.backlog()), ((3, 1), 0));
        // A fourth sender in 7's block takes list ends in it, and the
        // free node.
        m.deliver(pkt(63, 0, 0, &[1]));
        assert_eq!((made(&m), m.backlog()), ((3, 1), 1));
        // Two packets in flight at once take a second node.
        m.deliver(pkt(900, 0, 0, &[2]));
        assert_eq!((made(&m), m.backlog()), ((4, 2), 2));
        assert_eq!(
            m.recv(900, 0, 0).payload.into_bytes().as_slice().unwrap(),
            &[2]
        );
        assert_eq!((made(&m), m.backlog()), ((4, 2), 1));
    }

    #[test]
    fn a_drained_mailbox_holds_no_packet() {
        // 1 000 sources deliver a shared value each, all in flight at
        // once; once they are drained, every node is free and no value
        // is referenced from the store.
        let m = Mailbox::new(1024, Rc::new(PoisonFlag::default()));
        let value: Rc<dyn Any> = Rc::new(0u8);
        for src in 0..1000 {
            let mut p = pkt(src, 0, 1, &[]);
            p.payload = Payload::Typed {
                value: Rc::clone(&value),
                wire_bytes: 8,
            };
            m.deliver(p);
        }
        assert_eq!((m.backlog(), Rc::strong_count(&value)), (1000, 1001));
        for src in (0..1000).rev() {
            let _ = m.recv(src, 0, 1);
        }
        assert_eq!((m.backlog(), Rc::strong_count(&value)), (0, 1));
        let st = m.store.borrow();
        assert!(st.nodes.iter().all(|n| n.pkt.is_none()));
        let listed = st.blocks.iter().flatten().flat_map(|b| b.iter());
        assert!(listed.into_iter().all(|e| (e.head, e.tail) == (NIL, NIL)));
        // The free list reaches every node: the next 1 000 packets take
        // no new one.
        drop(st);
        for src in 0..1000 {
            m.deliver(pkt(src, 0, 1, &[]));
        }
        assert_eq!(made(&m).1, 1000);
    }

    #[test]
    fn interleaved_keys_from_one_source_keep_per_key_fifo() {
        let m = mbox();
        let keys = [(0, 5), (1, 5), (0, 6)];
        for i in 0..12u8 {
            let (ctx, tag) = keys[i as usize % 3];
            m.deliver(pkt(2, ctx, tag, &[i]));
        }
        // Take the keys in another order than they were sent in, from
        // the middle of the list as well as its ends.
        for (k, (ctx, tag)) in [(2, keys[2]), (0, keys[0]), (1, keys[1])] {
            for j in 0..4u8 {
                let got = m.recv(2, ctx, tag).payload.into_bytes();
                assert_eq!(got.as_slice().unwrap(), &[k + 3 * j]);
            }
        }
        assert_eq!(m.backlog(), 0);
        // The emptied list takes a new packet at its head.
        m.deliver(pkt(2, 0, 5, &[99]));
        let got = m.recv(2, 0, 5).payload.into_bytes();
        assert_eq!(got.as_slice().unwrap(), &[99]);
    }

    #[test]
    fn a_delivery_from_another_source_wakes_nobody() {
        // Fiber 0 waits on source 1; fiber 1 delivers from sources 2 and
        // 3 first, then from 1. Only the last delivery wakes fiber 0, and
        // none of the others counts as a spurious wakeup.
        let m = mbox();
        on_fibers(2, |me| {
            if me == 0 {
                let got = m.recv(1, 0, 7).payload.into_bytes();
                assert_eq!(got.as_slice().unwrap(), &[1]);
                assert_eq!(m.backlog(), 2, "the other sources' packets wait");
            } else {
                let parked = || m.store.borrow().waiter.is_some();
                assert!(parked(), "fiber 0 ran first and waits on source 1");
                m.deliver(pkt(2, 0, 7, &[2]));
                m.deliver(pkt(3, 0, 7, &[3]));
                assert!(parked(), "another source's delivery took the waiter");
                m.deliver(pkt(1, 0, 7, &[1]));
                assert!(!parked());
            }
        });
        assert_eq!((m.wakeups(), m.spurious_wakeups()), (1, 0));
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn poisoned_recv_panics_instead_of_hanging() {
        let poison = Rc::new(PoisonFlag::default());
        let m = Mailbox::new(1, Rc::clone(&poison));
        poison.poison();
        on_fibers(1, |_| m.recv(0, 0, 0));
    }

    #[test]
    fn backlog_counts_all_keys() {
        let m = mbox();
        m.deliver(pkt(0, 0, 0, &[1]));
        m.deliver(pkt(1, 0, 0, &[2]));
        m.deliver(pkt(1, 0, 1, &[3]));
        assert_eq!(m.backlog(), 3);
    }

    #[test]
    fn ping_pong_has_no_spurious_wakeups() {
        // A 3-party ping-pong through one mailbox must wake the receiver
        // only when its match arrived — never for deliveries it is not
        // waiting on — in any pop order.
        let rounds = 25u8;
        for order in [
            PopOrder::Fixed,
            PopOrder::Shuffled(1),
            PopOrder::Shuffled(2),
        ] {
            let m = mbox();
            on_fibers_in(order, 3, |me| {
                for i in 0..rounds {
                    if me == 0 {
                        // Alternate sources; each recv walks one list.
                        for src in [1, 2] {
                            let got = m.recv(src, 0, 7);
                            assert_eq!(got.payload.into_bytes().as_slice().unwrap(), &[i]);
                        }
                    } else {
                        m.deliver(pkt(me as u32, 0, 7, &[i]));
                    }
                }
            });
            assert_eq!(
                m.spurious_wakeups(),
                0,
                "deliveries on one (src, ctx, tag) woke a waiter for another"
            );
            // Every notified wakeup found its packet; blocked receives
            // that were satisfied before sleeping don't count at all.
            assert!(m.wakeups() <= 2 * rounds as u64);
        }
    }

    proptest! {
        /// One arrival-order list per source keeps per-key FIFO:
        /// deliveries from up to four sources on four keys that share
        /// contexts and tags, interleaved arbitrarily, come back in send
        /// order per key whatever order the keys are received in.
        #[test]
        fn every_key_comes_back_in_send_order(
            sends in proptest::collection::vec((0u32..4, 0usize..4), 0..48),
            picks in proptest::collection::vec(0usize..1024, 48),
        ) {
            const KEYS: [(u32, i32); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];
            let m = mbox();
            // Per (source, key): the send indices still to come back.
            let mut expect = vec![std::collections::VecDeque::new(); 16];
            for (i, &(src, k)) in sends.iter().enumerate() {
                let (ctx, tag) = KEYS[k];
                m.deliver(pkt(src, ctx, tag, &[i as u8]));
                expect[src as usize * 4 + k].push_back(i as u8);
            }
            for pick in &picks[..sends.len()] {
                let live: Vec<usize> = (0..16).filter(|&q| !expect[q].is_empty()).collect();
                let q = live[pick % live.len()];
                let (ctx, tag) = KEYS[q % 4];
                let got = m.recv(q / 4, ctx, tag).payload.into_bytes();
                prop_assert_eq!(got.as_slice().unwrap(), &[expect[q].pop_front().unwrap()]);
            }
            prop_assert_eq!(m.backlog(), 0);
        }
    }
}
