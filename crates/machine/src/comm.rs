//! Virtual-time message passing between simulated ranks.
//!
//! Transport is a crossbeam channel per rank; *timing* is carried on
//! the messages themselves.  A send stamps the message with its arrival
//! time under the LogGP model (sender overhead + NIC serialization +
//! switch latency + wire transfer); the matching receive advances the
//! receiver's clock to no earlier than that arrival.  Because matching
//! is always by `(source, tag)`, the virtual timeline is deterministic
//! regardless of OS thread scheduling.

use crate::config::NetModel;
use crate::perf::PerfContext;
use crossbeam::channel::{Receiver, Sender};

/// A message in flight between two simulated ranks.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Application tag.
    pub tag: u32,
    /// Virtual time at which the message is available at the receiver.
    pub arrival: f64,
    /// Size the message would have on a real machine, in bytes.  In
    /// profile mode kernels send empty payloads but declare the
    /// logical size, so the network model still sees the real traffic.
    pub logical_bytes: usize,
    /// Payload (may be empty in profile mode).
    pub data: Vec<f64>,
}

/// One entry of a rank's communication trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CommEvent {
    /// A message left this rank.
    Send {
        /// Virtual time the send completed locally.
        time: f64,
        /// Destination rank.
        dest: usize,
        /// Application tag.
        tag: u32,
        /// Logical wire bytes.
        bytes: usize,
    },
    /// A message was consumed by this rank.
    Recv {
        /// Virtual time the receive completed locally.
        time: f64,
        /// Source rank.
        src: usize,
        /// Application tag.
        tag: u32,
        /// How long the rank idled waiting for the message (0 when it
        /// had already arrived — the overlap case).
        waited: f64,
    },
}

/// Per-rank communication statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent by this rank.
    pub sent_messages: u64,
    /// Logical bytes sent by this rank.
    pub sent_bytes: u64,
    /// Messages received by this rank.
    pub recv_messages: u64,
}

/// One rank's endpoint: senders to every rank plus its own receiver,
/// borrowed from the run's mesh so every queue outlives every rank.
pub struct CommEndpoint<'a> {
    rank: usize,
    size: usize,
    net: NetModel,
    senders: &'a [Sender<Message>],
    receiver: &'a Receiver<Message>,
    /// Messages that arrived before anyone asked for them.
    pending: Vec<Message>,
    /// Virtual time until which this rank's NIC is busy serializing
    /// earlier messages.
    nic_free_at: f64,
    stats: CommStats,
    trace: Option<Vec<CommEvent>>,
}

impl<'a> CommEndpoint<'a> {
    /// Assemble an endpoint (called by the cluster runner).
    pub(crate) fn new(
        rank: usize,
        size: usize,
        net: NetModel,
        senders: &'a [Sender<Message>],
        receiver: &'a Receiver<Message>,
    ) -> Self {
        Self {
            rank,
            size,
            net,
            senders,
            receiver,
            pending: Vec::new(),
            nic_free_at: 0.0,
            stats: CommStats::default(),
            trace: None,
        }
    }

    /// Enable event tracing on this endpoint.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Take the recorded trace (empty if tracing was disabled).
    pub fn take_trace(&mut self) -> Vec<CommEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Communication statistics so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Send `data` to `dest` with `tag`, declaring `logical_bytes` on
    /// the wire.  Advances the sender's clock by the send overhead and
    /// any NIC queueing delay.
    pub fn send_sized(
        &mut self,
        perf: &mut PerfContext,
        dest: usize,
        tag: u32,
        logical_bytes: usize,
        data: Vec<f64>,
    ) {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        assert_ne!(dest, self.rank, "self-sends are not supported");
        // queue behind earlier messages still being injected
        let start = perf.now().max(self.nic_free_at);
        perf.advance_to(start);
        perf.advance(self.net.send_overhead);
        let serialize = logical_bytes as f64 / self.net.injection_bandwidth;
        self.nic_free_at = perf.now() + serialize;
        let arrival = perf.now()
            + serialize
            + self.net.effective_latency(self.size)
            + self.net.transfer_time(logical_bytes);
        self.stats.sent_messages += 1;
        self.stats.sent_bytes += logical_bytes as u64;
        if let Some(t) = &mut self.trace {
            t.push(CommEvent::Send {
                time: perf.now(),
                dest,
                tag,
                bytes: logical_bytes,
            });
        }
        let msg = Message {
            src: self.rank,
            tag,
            arrival,
            logical_bytes,
            data,
        };
        self.senders[dest]
            .send(msg)
            .expect("receiver endpoint dropped");
    }

    /// Receive the next message from `src` with `tag`, blocking the OS
    /// thread until it exists and advancing the virtual clock to its
    /// arrival plus the receive overhead.
    pub fn recv(&mut self, perf: &mut PerfContext, src: usize, tag: u32) -> Message {
        let before = perf.now();
        let msg = self.take_matching(src, tag);
        perf.advance_to(msg.arrival);
        let waited = perf.now() - before;
        perf.advance(self.net.recv_overhead);
        self.stats.recv_messages += 1;
        if let Some(t) = &mut self.trace {
            t.push(CommEvent::Recv {
                time: perf.now(),
                src,
                tag,
                waited,
            });
        }
        msg
    }

    fn take_matching(&mut self, src: usize, tag: u32) -> Message {
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            return self.pending.remove(pos);
        }
        loop {
            let msg = self
                .receiver
                .recv()
                .expect("all sender endpoints dropped while waiting for a message");
            if msg.src == src && msg.tag == tag {
                return msg;
            }
            self.pending.push(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crossbeam::channel::unbounded;

    type Mesh = (Vec<Sender<Message>>, Vec<Receiver<Message>>);

    fn mesh() -> Mesh {
        (0..2).map(|_| unbounded()).unzip()
    }

    fn pair((senders, receivers): &Mesh) -> (CommEndpoint<'_>, CommEndpoint<'_>, NetModel) {
        let net = MachineConfig::test_tiny().net;
        let e0 = CommEndpoint::new(0, 2, net, senders, &receivers[0]);
        let e1 = CommEndpoint::new(1, 2, net, senders, &receivers[1]);
        (e0, e1, net)
    }

    #[test]
    fn send_recv_carries_data_and_time() {
        let mesh = mesh();
        let (mut e0, mut e1, net) = pair(&mesh);
        let cfg = MachineConfig::test_tiny();
        let mut p0 = PerfContext::new(cfg.clone());
        let mut p1 = PerfContext::new(cfg);
        e0.send_sized(&mut p0, 1, 42, 800, vec![1.0, 2.0]);
        let m = e1.recv(&mut p1, 0, 42);
        assert_eq!(m.data, vec![1.0, 2.0]);
        assert_eq!(m.logical_bytes, 800);
        // receiver clock >= send overhead + latency + transfer
        let min_t = net.send_overhead + net.effective_latency(2) + net.transfer_time(800);
        assert!(p1.now() >= min_t);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let mesh = mesh();
        let (mut e0, mut e1, _) = pair(&mesh);
        let cfg = MachineConfig::test_tiny();
        let mut p0 = PerfContext::new(cfg.clone());
        let mut p1 = PerfContext::new(cfg);
        e0.send_sized(&mut p0, 1, 1, 8, vec![1.0]);
        e0.send_sized(&mut p0, 1, 2, 8, vec![2.0]);
        let m2 = e1.recv(&mut p1, 0, 2);
        let m1 = e1.recv(&mut p1, 0, 1);
        assert_eq!(m2.data, vec![2.0]);
        assert_eq!(m1.data, vec![1.0]);
    }

    #[test]
    fn nic_serialization_delays_bursts() {
        let mesh = mesh();
        let (mut e0, _e1, net) = pair(&mesh);
        let cfg = MachineConfig::test_tiny();
        let mut p0 = PerfContext::new(cfg);
        // two large back-to-back messages: second must wait for the
        // first to finish injecting
        e0.send_sized(&mut p0, 1, 1, 2_000_000, vec![]);
        let t_after_first = p0.now();
        e0.send_sized(&mut p0, 1, 2, 8, vec![]);
        let serialize = 2_000_000.0 / net.injection_bandwidth;
        assert!(p0.now() >= t_after_first + serialize);
    }

    #[test]
    fn stats_accumulate() {
        let mesh = mesh();
        let (mut e0, mut e1, _) = pair(&mesh);
        let cfg = MachineConfig::test_tiny();
        let mut p0 = PerfContext::new(cfg.clone());
        let mut p1 = PerfContext::new(cfg);
        e0.send_sized(&mut p0, 1, 1, 100, vec![]);
        e0.send_sized(&mut p0, 1, 1, 100, vec![]);
        e1.recv(&mut p1, 0, 1);
        assert_eq!(e0.stats().sent_messages, 2);
        assert_eq!(e0.stats().sent_bytes, 200);
        assert_eq!(e1.stats().recv_messages, 1);
    }

    #[test]
    #[should_panic]
    fn self_send_panics() {
        let mesh = mesh();
        let (mut e0, _e1, _) = pair(&mesh);
        let mut p0 = PerfContext::new(MachineConfig::test_tiny());
        e0.send_sized(&mut p0, 0, 1, 8, vec![]);
    }
}
