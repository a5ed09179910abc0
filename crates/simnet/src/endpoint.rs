//! Per-rank handle to the virtual cluster.

use crate::buffer::IoBuffer;
use crate::clock::Clock;
use crate::fault::{FaultState, MsgFault};
use crate::mailbox::{Mailbox, Packet, Payload};
use crate::model::{MachineModel, NetworkModel};
use crate::rendezvous::{PoisonFlag, Rendezvous};
use crate::time::SimTime;
use crate::topology::Topology;
use std::cell::Cell;
use std::rc::Rc;

/// Wire timing of one received message: when the sender posted it and
/// when its last byte arrived at the receiver. These two instants define
/// the send→recv happens-before edge in trace analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvInfo {
    /// Sender's virtual clock at the instant the send was posted.
    pub sent: SimTime,
    /// Virtual instant the payload is fully available at the receiver:
    /// `sent + transfer_time(len)`.
    pub arrival: SimTime,
}

/// A rank's handle: identity, virtual clock, raw messaging, and access to
/// the shared cost models. One `Endpoint` is passed to each rank closure by
/// [`crate::run_cluster`]. What the ranks of a run share — the mailboxes,
/// the world rendezvous, the poison flag, the context counter and the
/// models — it holds by `Rc`: every rank of a cluster is a fiber on the
/// thread that called `run_cluster`, so an `Endpoint` is neither `Send`
/// nor `Sync`.
pub struct Endpoint {
    rank: usize,
    clock: Clock,
    mailboxes: Rc<[Mailbox]>,
    topology: Rc<Topology>,
    net: Rc<NetworkModel>,
    machine: Rc<MachineModel>,
    poison: Rc<PoisonFlag>,
    world_rdv: Rc<Rendezvous>,
    ctx_counter: Rc<Cell<u32>>,
    trace: simtrace::Recorder,
    /// On the heap: a rank's endpoint is moved onto its fiber stack, and
    /// stays there for the rank's life.
    faults: Option<Box<FaultState>>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .field("now", &self.clock.now())
            .finish()
    }
}

impl Endpoint {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        mailboxes: Rc<[Mailbox]>,
        topology: Rc<Topology>,
        net: Rc<NetworkModel>,
        machine: Rc<MachineModel>,
        poison: Rc<PoisonFlag>,
        world_rdv: Rc<Rendezvous>,
        ctx_counter: Rc<Cell<u32>>,
        trace: simtrace::Recorder,
        faults: Option<FaultState>,
    ) -> Self {
        Endpoint {
            rank,
            clock: Clock::new(),
            mailboxes,
            topology,
            net,
            machine,
            poison,
            world_rdv,
            ctx_counter,
            trace,
            faults: faults.map(Box::new),
        }
    }

    /// This rank's global id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the cluster.
    pub fn size(&self) -> usize {
        self.mailboxes.len()
    }

    /// Cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Network cost model.
    pub fn net(&self) -> &NetworkModel {
        &self.net
    }

    /// Machine cost model.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// This rank's virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current virtual time, shorthand for `clock().now()`.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Charge local computation time.
    pub fn compute(&self, dt: SimTime) {
        self.clock.advance(dt);
    }

    /// Charge a local memory copy of `n` bytes.
    pub fn charge_memcpy(&self, n: usize) {
        self.clock.advance(self.machine.memcpy_time(n));
    }

    /// This rank's trace recorder (a no-op unless the cluster was run
    /// with an enabled [`simtrace::TraceSink`]). Higher layers use it to
    /// emit spans, instants, counters and histogram observations on this
    /// rank's timeline.
    pub fn trace(&self) -> &simtrace::Recorder {
        &self.trace
    }

    /// Per-rank fault-injection state, when a `FaultPlan` is installed on
    /// the cluster. Protocol layers consult it for crash detection,
    /// one-shot stalls and the shared plan's retry parameters.
    pub fn faults(&self) -> Option<&FaultState> {
        self.faults.as_deref()
    }

    /// The cluster-wide poison flag (for building further blocking
    /// primitives that must not deadlock on peer failure).
    pub fn poison(&self) -> Rc<PoisonFlag> {
        Rc::clone(&self.poison)
    }

    /// The rendezvous shared by all ranks, used by the MPI layer as the
    /// world communicator's collective meeting point.
    pub fn world_rendezvous(&self) -> Rc<Rendezvous> {
        Rc::clone(&self.world_rdv)
    }

    /// The shared context-id counter: the next unused id. Communicator-
    /// creating collectives capture it so the rendezvous combiner — which
    /// runs on whichever rank arrives last — can allocate ids for the new
    /// groups it constructs: one id per group, so ids are unique
    /// cluster-wide and agreed within the group.
    pub fn ctx_allocator(&self) -> Rc<Cell<u32>> {
        Rc::clone(&self.ctx_counter)
    }

    /// Post a message to `dst`. Charges the sender-side overhead and
    /// stamps the packet with the post-charge clock; the payload becomes
    /// visible to the receiver immediately (eager protocol — buffering is
    /// unbounded, as on Catamount where Portals delivers to user space).
    /// A [`Payload::Typed`] message is charged and fault-drawn exactly as
    /// a byte message of its `wire_bytes`.
    pub fn send(&self, dst: usize, ctx: u32, tag: i32, payload: impl Into<Payload>) {
        assert!(dst < self.size(), "send to invalid rank {dst}");
        let payload = payload.into();
        let len = payload.wire_len();
        self.clock.advance(self.net.send_overhead(len));
        let fault = match &self.faults {
            Some(f) => f.draw_msg(self.rank, dst),
            None => MsgFault::NONE,
        };
        let pkt = Packet {
            src: self.rank as u32,
            ctx,
            tag,
            payload,
            sent_clock: self.clock.now(),
            fault_drops: fault.drops,
            fault_delay: fault.delay_factor,
            fault_corrupt: fault.corrupt,
        };
        self.mailboxes[dst].deliver(pkt);
    }

    /// Blocking receive from `src`. Advances this rank's clock to
    /// `max(now, sent + L + n·G) + o` and returns the payload.
    pub fn recv(&self, src: usize, ctx: u32, tag: i32) -> IoBuffer {
        let (payload, info) = self.recv_payload(src, ctx, tag);
        self.clock.advance_to(info.arrival);
        self.clock
            .advance(self.net.recv_overhead(payload.wire_len()));
        payload.into_bytes()
    }

    /// Receive without advancing the clock: the payload as it was sent,
    /// bytes or typed, and the full wire timing ([`RecvInfo`]) — when the
    /// sender posted the message and when the last byte lands here.
    /// `waitall` advances to the *maximum* arrival of a batch, not the sum,
    /// and trace consumers use the pair to emit the send→recv edge that
    /// lets `simtrace::analysis` walk the critical path across ranks.
    pub fn recv_payload(&self, src: usize, ctx: u32, tag: i32) -> (Payload, RecvInfo) {
        assert!(src < self.size(), "recv from invalid rank {src}");
        let pkt = self.mailboxes[self.rank].recv(src, ctx, tag);
        let arrival = self.fault_arrival(&pkt);
        (
            pkt.payload,
            RecvInfo {
                sent: pkt.sent_clock,
                arrival,
            },
        )
    }

    /// Wire arrival of a packet including any fault injected at send
    /// time: the transfer is scaled by the packet's delay factor, and
    /// each dropped attempt charges one backoff interval plus one
    /// re-transfer ([`crate::FaultPlan::retry_penalty`]). With no fault
    /// (drops 0, factor 1.0) this is bitwise the clean arrival.
    fn fault_arrival(&self, pkt: &Packet) -> SimTime {
        if let Some(f) = &self.faults {
            // One event per packet — zeros included — so the consumer's
            // per-(src, tag) pops stay aligned with arrivals regardless of
            // which packets actually drew a corruption.
            if f.plan().has_corrupt_rules() {
                f.push_corrupt(pkt.src as usize, pkt.tag, pkt.fault_corrupt);
            }
        }
        let wire = self.net.transfer_time(pkt.payload.wire_len()) * pkt.fault_delay;
        let clean = pkt.sent_clock + wire;
        if pkt.fault_drops == 0 {
            return clean;
        }
        let plan = self
            .faults
            .as_ref()
            .expect("faulted packet received without an installed fault plan")
            .plan();
        let arrival = clean + plan.retry_penalty(pkt.fault_drops, wire);
        if self.trace.enabled() {
            self.trace.span(
                "fault",
                "msg_retry",
                clean.as_micros(),
                arrival.as_micros(),
                vec![
                    ("src", simtrace::ArgValue::from(pkt.src as usize)),
                    ("drops", simtrace::ArgValue::from(pkt.fault_drops as u64)),
                ],
            );
            self.trace.count("msg_fault_drops", pkt.fault_drops as u64);
        }
        arrival
    }
}
