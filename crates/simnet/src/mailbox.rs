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
//! # Sharding
//!
//! The store is sharded **per source rank**: the (receiver, sender)
//! pair's shard holds one queue of that sender's packets in arrival
//! order, and a receive takes the first packet in it whose
//! `(context, tag)` matches. Within one source arrival order is send
//! order, so the scan keeps per-key FIFO and MPI's non-overtaking rule
//! without a queue per key; the queue keeps its capacity, so a steady
//! exchange allocates nothing per message. Traffic keeps the scan short:
//! a two-phase exchange's receive finds its match at the head.
//!
//! Because matching is fully qualified, a receive only ever touches its
//! source's shard, so the all-to-one exchange pattern of two-phase I/O —
//! up to 1024 senders depositing into one aggregator's mailbox — never
//! scans one long queue, and a delivery wakes only the receiver parked
//! on that shard. Only the owner ever receives from a mailbox, so each
//! shard has at most one waiter: the owner's parked fiber.
//!
//! A cluster has `ranks²` (receiver, sender) pairs and a typical rank
//! exchanges with a handful of peers, so a pair's shard is allocated
//! when its sender or its receiver first touches it, and so are the
//! slots: a mailbox holds one slot per block of 64 senders, and a
//! block's table of shard slots is allocated with its first shard. A
//! slot table sized by the cluster in every mailbox was `ranks²` slots
//! of 16 B — 4 MiB at 512 ranks, 1 GiB at 8 192 — for pairs that never
//! exchange a message.
//!
//! Every rank of a cluster is a fiber on one thread, so the store is
//! single-threaded by type: both levels of slots are `OnceCell`s and a
//! shard is a `RefCell`, whose borrow ends before a receiver parks. A
//! delivery and a receive take no lock, run no atomic instruction and,
//! once the pair's queue has grown to its working size, allocate nothing.

use crate::buffer::IoBuffer;
use crate::fiber::{self, Waker};
use crate::rendezvous::PoisonFlag;
use crate::time::SimTime;
use std::any::Any;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
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

/// One source rank's queue plus the owner's parked fiber, if it waits
/// on this source.
type Shard = RefCell<ShardState>;

#[derive(Default)]
struct ShardState {
    /// The source's packets, all keys, in arrival (= send) order.
    queue: VecDeque<Packet>,
    waiter: Option<Waker>,
}

/// Senders per block of shard slots.
const BLOCK: usize = 64;

/// The shard slots of [`BLOCK`] consecutive senders.
type Block = [OnceCell<Box<Shard>>; BLOCK];

/// One rank's incoming-message store.
pub struct Mailbox {
    /// Per-source shards, by block of senders (`src / BLOCK`) and slot
    /// in it (`src % BLOCK`); a block and a pair's shard are created
    /// when its sender or the receiver first asks for it.
    blocks: Box<[OnceCell<Box<Block>>]>,
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
            u32::try_from(nranks).is_ok(),
            "packets carry their source rank in 32 bits"
        );
        Mailbox {
            blocks: (0..nranks.max(1).div_ceil(BLOCK))
                .map(|_| OnceCell::new())
                .collect(),
            poison,
            wakeups: Cell::new(0),
            spurious_wakeups: Cell::new(0),
        }
    }

    fn shard(&self, src: usize) -> &Shard {
        let block = self.blocks[src / BLOCK]
            .get_or_init(|| Box::new(std::array::from_fn(|_| OnceCell::new())));
        block[src % BLOCK].get_or_init(Box::default)
    }

    /// The shards created so far.
    fn shards(&self) -> impl Iterator<Item = &Shard> {
        let blocks = self.blocks.iter().filter_map(OnceCell::get);
        blocks.flat_map(|b| b.iter().filter_map(OnceCell::get).map(|s| &**s))
    }

    /// Deposit a packet (called by the sender's fiber) and wake the
    /// owner if it waits on this source: it is then runnable, queued at
    /// its floor.
    pub fn deliver(&self, pkt: Packet) {
        // hostprof: deposit + targeted wake; nothing below blocks.
        let _hp = simtrace::host::scope(simtrace::host::Site::MboxDeliver);
        let mut st = self.shard(pkt.src as usize).borrow_mut();
        st.queue.push_back(pkt);
        fiber::wake(&mut st.waiter);
    }

    /// Receive the next packet matching `(src, ctx, tag)`, blocking until
    /// one arrives. Panics if the cluster is poisoned while waiting.
    pub fn recv(&self, src: usize, ctx: u32, tag: i32) -> Packet {
        let shard = self.shard(src);
        let key = (ctx, tag);
        let mut woken = false;
        loop {
            // hostprof: one matching pass. The guard's block ends before
            // the wait below, so the frame never absorbs the time spent
            // blocked (which belongs to other fibers' work).
            {
                let _hp = simtrace::host::scope(simtrace::host::Site::MboxRecv);
                let hit = {
                    let mut st = shard.borrow_mut();
                    let at = st.queue.iter().position(|p| (p.ctx, p.tag) == key);
                    at.and_then(|i| st.queue.remove(i))
                };
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
            fiber::wait(shard, |s| &mut s.waiter, &self.poison);
            woken = true;
        }
    }

    /// Number of packets currently queued (all keys). Diagnostic only.
    pub fn backlog(&self) -> usize {
        self.shards().map(|s| s.borrow().queue.len()).sum()
    }

    /// Notified wakeups the receiver observed that found their match.
    /// Diagnostic: with per-source sharding every delivery wakes at most
    /// this mailbox's owner, so this tracks productive deliveries.
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
        // 65 k in-flight queues of >= 4 slots each at paper scale: eight
        // more bytes here were 5-7 % of tile_restart_256's peak RSS.
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

    #[test]
    fn shards_are_created_on_first_use() {
        let m = Mailbox::new(1024, Rc::new(PoisonFlag::default()));
        let made = |m: &Mailbox| m.shards().count();
        assert_eq!((made(&m), m.backlog()), (0, 0), "backlog creates no shard");
        m.deliver(pkt(5, 0, 0, &[1]));
        m.deliver(pkt(900, 0, 0, &[2]));
        assert_eq!((made(&m), m.backlog()), (2, 2));
        assert_eq!(
            m.recv(900, 0, 0).payload.into_bytes().as_slice().unwrap(),
            &[2]
        );
        assert_eq!((made(&m), m.backlog()), (2, 1));

        // Slot tables too: a 4 096-rank mailbox that hears from three
        // senders holds at most three blocks of slots, not 4 096 slots.
        let m = Mailbox::new(4096, Rc::new(PoisonFlag::default()));
        let blocks = |m: &Mailbox| m.blocks.iter().filter(|b| b.get().is_some()).count();
        assert_eq!((m.blocks.len(), blocks(&m)), (4096 / BLOCK, 0));
        for src in [7, 2100, 4095] {
            m.deliver(pkt(src, 0, 0, &[1]));
            let _ = m.recv(src as usize, 0, 0);
        }
        assert_eq!((made(&m), blocks(&m)), (3, 3));
        // A fourth sender in 7's block takes a slot, not a block.
        m.deliver(pkt(63, 0, 0, &[1]));
        assert_eq!((made(&m), blocks(&m), m.backlog()), (4, 3, 1));
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
                        // Alternate sources; each recv targets one shard.
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
        /// One arrival-order queue per source keeps per-key FIFO:
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
            let mut expect = vec![VecDeque::new(); 16];
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
