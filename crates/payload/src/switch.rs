//! The baseband packet switch — what makes the payload *regenerative*.
//!
//! §2.1: "When processing's performed on-board the satellite require to
//! work at the packet level, demodulation of the signal is mandatory and
//! the payload is called regenerative … acting for example at the packet
//! level as a router."
//!
//! The switch is output-queued with **per-beam, per-class queues**: each
//! downlink beam owns one FIFO per QoS class ([`QosConfig`]). Egress
//! serves *strict* classes first, in class order, then shares the
//! residual downlink among the remaining classes by weighted round-robin
//! (per-beam WRR state lives in the switch, so service order is a pure
//! function of the ingress sequence — no clocks, no randomness). A
//! single-class configuration ([`QosConfig::single_class`]) collapses to
//! the original plain per-beam FIFO.

use std::collections::VecDeque;

/// A baseband packet recovered by the demodulator/decoder chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasebandPacket {
    /// Source identifier (uplink carrier/slot or terminal).
    pub source: u16,
    /// Destination downlink beam.
    pub dest_beam: u8,
    /// QoS class index into the switch's [`QosConfig`] (0 = most
    /// important). Out-of-range classes are clamped to the last
    /// (best-effort) class at ingress.
    pub class: u8,
    /// Frame tick at which the packet was generated (traffic-engine
    /// clock; end-to-end latency is measured against it at egress).
    pub born_tick: u64,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// One QoS class of a [`QosConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassConfig {
    /// Strict-priority class: served exhaustively, in class order,
    /// before any weighted class sees the downlink.
    pub strict: bool,
    /// Weighted-round-robin quantum (packets per service turn) for
    /// non-strict classes. Ignored when `strict`; must be ≥ 1 otherwise.
    pub weight: u32,
    /// Per-beam queue capacity, packets.
    pub queue_limit: usize,
    /// Early-drop threshold: arrivals are dropped once the queue holds
    /// this many packets, before the hard `queue_limit` is reached
    /// (deterministic tail drop — congestion pushback for best-effort
    /// classes). `None` disables it.
    pub early_drop: Option<usize>,
}

/// Per-class queueing discipline of a [`PacketSwitch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QosConfig {
    /// The classes, most important first (class 0 outranks class 1).
    pub classes: Vec<ClassConfig>,
}

impl QosConfig {
    /// The pre-QoS behaviour: one weighted class, plain FIFO of at most
    /// `queue_limit` packets per beam, no early drop.
    pub fn single_class(queue_limit: usize) -> Self {
        QosConfig {
            classes: vec![ClassConfig {
                strict: false,
                weight: 1,
                queue_limit,
                early_drop: None,
            }],
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }
}

/// Aggregate switch counters (all classes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets accepted into a beam queue.
    pub forwarded: u64,
    /// Packets dropped on a full (or early-drop-throttled) queue.
    pub dropped_overflow: u64,
    /// Packets dropped because the destination beam does not exist.
    pub dropped_no_route: u64,
}

impl SwitchStats {
    /// All drops, regardless of cause.
    pub fn dropped(&self) -> u64 {
        self.dropped_overflow + self.dropped_no_route
    }
}

/// Per-class switch counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Packets of this class accepted into a beam queue.
    pub forwarded: u64,
    /// Packets dropped on the class's hard queue limit.
    pub dropped_overflow: u64,
    /// Packets dropped by the class's early-drop threshold (also counted
    /// in the aggregate [`SwitchStats::dropped_overflow`]).
    pub dropped_early: u64,
    /// Packets of this class addressed to a nonexistent beam.
    pub dropped_no_route: u64,
}

/// Output-queued packet switch with per-beam, per-class queues and drop
/// accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketSwitch {
    qos: QosConfig,
    beams: usize,
    /// Queue for (beam b, class c) lives at `b * n_classes + c`.
    queues: Vec<VecDeque<BasebandPacket>>,
    /// Class indices served by WRR (the non-strict ones), in class order.
    wrr_classes: Vec<usize>,
    /// Per-beam WRR position: index into `wrr_classes`.
    wrr_current: Vec<usize>,
    /// Per-beam remaining quantum of the current WRR class.
    wrr_remaining: Vec<u32>,
    stats: SwitchStats,
    class_stats: Vec<ClassStats>,
    /// Per-beam EDAC single-bit corrections observed in this beam's queue
    /// memory (an FDIR tripwire input, not a packet-path effect).
    edac_corrected: Vec<u64>,
}

impl PacketSwitch {
    /// Single-class switch with `beams` downlink queues of at most
    /// `queue_limit` packets each (the pre-QoS constructor).
    pub fn new(beams: usize, queue_limit: usize) -> Self {
        Self::with_qos(beams, QosConfig::single_class(queue_limit))
    }

    /// Switch with `beams` downlink beams under the given per-class
    /// queueing discipline.
    pub fn with_qos(beams: usize, qos: QosConfig) -> Self {
        assert!(beams >= 1, "switch needs at least one beam");
        assert!(
            !qos.classes.is_empty(),
            "QosConfig needs at least one class"
        );
        for (k, c) in qos.classes.iter().enumerate() {
            assert!(c.queue_limit >= 1, "class {k}: queue_limit must be >= 1");
            assert!(
                c.strict || c.weight >= 1,
                "class {k}: WRR weight must be >= 1"
            );
        }
        let n = qos.n_classes();
        let wrr_classes: Vec<usize> = (0..n).filter(|&k| !qos.classes[k].strict).collect();
        let initial_quantum = wrr_classes
            .first()
            .map(|&k| qos.classes[k].weight)
            .unwrap_or(0);
        PacketSwitch {
            beams,
            queues: (0..beams * n).map(|_| VecDeque::new()).collect(),
            wrr_classes,
            wrr_current: vec![0; beams],
            wrr_remaining: vec![initial_quantum; beams],
            stats: SwitchStats::default(),
            class_stats: vec![ClassStats::default(); n],
            edac_corrected: vec![0; beams],
            qos,
        }
    }

    /// Returns the switch to its as-constructed state — queues emptied,
    /// counters zeroed, WRR positions rewound — while keeping every
    /// queue's allocated capacity. A reset switch compares equal to a
    /// fresh [`PacketSwitch::with_qos`] of the same shape, which is what
    /// lets the pipeline engine keep one switch as reusable per-frame
    /// scratch instead of allocating a new one every frame.
    pub fn reset(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        let initial_quantum = self
            .wrr_classes
            .first()
            .map(|&k| self.qos.classes[k].weight)
            .unwrap_or(0);
        self.wrr_current.fill(0);
        self.wrr_remaining.fill(initial_quantum);
        self.stats = SwitchStats::default();
        self.class_stats.fill(ClassStats::default());
        self.edac_corrected.fill(0);
    }

    /// Number of downlink beams.
    pub fn beams(&self) -> usize {
        self.beams
    }

    /// The queueing discipline in force.
    pub fn qos(&self) -> &QosConfig {
        &self.qos
    }

    /// Aggregate forwarded/dropped counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Counters for one class (panics if the class does not exist).
    pub fn class_stats(&self, class: usize) -> ClassStats {
        self.class_stats[class]
    }

    /// Packets accepted into a beam queue.
    pub fn forwarded(&self) -> u64 {
        self.stats.forwarded
    }

    /// Packets dropped because the destination queue was full (hard limit
    /// or early-drop threshold).
    pub fn dropped_overflow(&self) -> u64 {
        self.stats.dropped_overflow
    }

    /// Packets dropped because the destination beam does not exist.
    pub fn dropped_no_route(&self) -> u64 {
        self.stats.dropped_no_route
    }

    /// The (beam, class) queue slot.
    #[inline]
    fn slot(&self, beam: usize, class: usize) -> usize {
        beam * self.qos.n_classes() + class
    }

    /// Routes one packet to its destination (beam, class) queue. The
    /// packet's class is clamped to the last configured class, so an
    /// unknown tag degrades to best-effort rather than dropping.
    pub fn ingress(&mut self, pkt: BasebandPacket) {
        let class = (pkt.class as usize).min(self.qos.n_classes() - 1);
        if pkt.dest_beam as usize >= self.beams {
            self.stats.dropped_no_route += 1;
            self.class_stats[class].dropped_no_route += 1;
            return;
        }
        let cfg = &self.qos.classes[class];
        let slot = self.slot(pkt.dest_beam as usize, class);
        let depth = self.queues[slot].len();
        if let Some(threshold) = cfg.early_drop {
            if depth >= threshold {
                self.stats.dropped_overflow += 1;
                self.class_stats[class].dropped_early += 1;
                return;
            }
        }
        if depth >= cfg.queue_limit {
            self.stats.dropped_overflow += 1;
            self.class_stats[class].dropped_overflow += 1;
            return;
        }
        self.queues[slot].push_back(pkt);
        self.stats.forwarded += 1;
        self.class_stats[class].forwarded += 1;
    }

    /// Dequeues the next packet for a beam's Tx chain: strict classes
    /// first (in class order), then weighted round-robin across the rest.
    pub fn egress(&mut self, beam: usize) -> Option<BasebandPacket> {
        if beam >= self.beams {
            return None;
        }
        // Strict-priority pass.
        for class in 0..self.qos.n_classes() {
            if self.qos.classes[class].strict {
                let slot = self.slot(beam, class);
                if let Some(p) = self.queues[slot].pop_front() {
                    return Some(p);
                }
            }
        }
        // WRR pass: serve the current class while its quantum lasts; an
        // empty queue forfeits the rest of its quantum. The bound of
        // 2·n+1 steps visits every class at least twice (once to drain a
        // stale zero quantum, once with a fresh one), so an all-empty
        // beam terminates.
        let n = self.wrr_classes.len();
        for _ in 0..2 * n + 1 {
            if n == 0 {
                break;
            }
            if self.wrr_remaining[beam] == 0 {
                let next = (self.wrr_current[beam] + 1) % n;
                self.wrr_current[beam] = next;
                self.wrr_remaining[beam] = self.qos.classes[self.wrr_classes[next]].weight;
            }
            let class = self.wrr_classes[self.wrr_current[beam]];
            let slot = self.slot(beam, class);
            if let Some(p) = self.queues[slot].pop_front() {
                self.wrr_remaining[beam] -= 1;
                return Some(p);
            }
            self.wrr_remaining[beam] = 0;
        }
        None
    }

    /// Current depth of a beam queue, all classes.
    pub fn depth(&self, beam: usize) -> usize {
        if beam >= self.beams {
            return 0;
        }
        (0..self.qos.n_classes())
            .map(|c| self.queues[self.slot(beam, c)].len())
            .sum()
    }

    /// Empties every class queue of one beam and returns the packets in
    /// class order (class 0 first), FIFO within each class. Used when a
    /// beam is quarantined: its queued traffic is handed back to the
    /// routing layer for re-disposition instead of rotting in place.
    /// Forward/drop counters are untouched — the packets were already
    /// accounted at ingress and their fate is now the caller's.
    pub fn drain_beam(&mut self, beam: usize) -> Vec<BasebandPacket> {
        let mut out = Vec::new();
        if beam >= self.beams {
            return out;
        }
        for class in 0..self.qos.n_classes() {
            let slot = self.slot(beam, class);
            out.extend(self.queues[slot].drain(..));
        }
        out
    }

    /// Records one EDAC single-bit correction in a beam's queue memory.
    /// Corrections are invisible to the packet path (the codeword was
    /// repaired in place); a rising correction *rate* is how FDIR spots a
    /// stuck bit before it becomes a double-bit uncorrectable.
    pub fn note_edac_correction(&mut self, beam: usize) {
        if beam < self.beams {
            self.edac_corrected[beam] += 1;
        }
    }

    /// EDAC corrections observed in a beam's queue memory so far.
    pub fn edac_corrected(&self, beam: usize) -> u64 {
        if beam >= self.beams {
            return 0;
        }
        self.edac_corrected[beam]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(source: u16, beam: u8) -> BasebandPacket {
        BasebandPacket {
            source,
            dest_beam: beam,
            class: 0,
            born_tick: 0,
            data: vec![source as u8],
        }
    }

    fn cpkt(source: u16, beam: u8, class: u8) -> BasebandPacket {
        BasebandPacket {
            class,
            ..pkt(source, beam)
        }
    }

    #[test]
    fn routes_to_correct_beam() {
        let mut sw = PacketSwitch::new(3, 8);
        sw.ingress(pkt(1, 0));
        sw.ingress(pkt(2, 2));
        sw.ingress(pkt(3, 2));
        assert_eq!(sw.depth(0), 1);
        assert_eq!(sw.depth(1), 0);
        assert_eq!(sw.depth(2), 2);
        assert_eq!(sw.egress(2).unwrap().source, 2);
        assert_eq!(sw.egress(2).unwrap().source, 3);
        assert!(sw.egress(2).is_none());
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut sw = PacketSwitch::new(1, 2);
        for i in 0..5 {
            sw.ingress(pkt(i, 0));
        }
        let s = sw.stats();
        assert_eq!(
            (s.forwarded, s.dropped_overflow, s.dropped_no_route),
            (2, 3, 0)
        );
        assert_eq!(s.dropped(), 3);
    }

    #[test]
    fn reset_restores_the_as_constructed_state() {
        // The pipeline engine reuses one switch as per-frame scratch:
        // after reset() it must be indistinguishable from a fresh build —
        // queues, counters, WRR positions, EDAC tallies — including after
        // WRR service has advanced mid-quantum.
        let qos = QosConfig {
            classes: vec![
                ClassConfig {
                    strict: true,
                    weight: 1,
                    queue_limit: 4,
                    early_drop: None,
                },
                ClassConfig {
                    strict: false,
                    weight: 3,
                    queue_limit: 2,
                    early_drop: Some(1),
                },
                ClassConfig {
                    strict: false,
                    weight: 2,
                    queue_limit: 4,
                    early_drop: None,
                },
            ],
        };
        let mut sw = PacketSwitch::with_qos(2, qos.clone());
        for i in 0..6 {
            sw.ingress(cpkt(i, (i % 3) as u8, (i % 3) as u8));
        }
        let _ = sw.egress(0); // advance WRR state mid-quantum
        let _ = sw.egress(1);
        sw.reset();
        assert_eq!(sw, PacketSwitch::with_qos(2, qos));

        // And a reset switch behaves like a fresh one thereafter.
        sw.ingress(pkt(9, 1));
        assert_eq!(sw.stats().forwarded, 1);
        assert_eq!(sw.egress(1).unwrap().source, 9);
    }

    #[test]
    fn unknown_beam_counts_no_route() {
        let mut sw = PacketSwitch::new(2, 4);
        sw.ingress(pkt(1, 7));
        let s = sw.stats();
        assert_eq!(
            (s.forwarded, s.dropped_overflow, s.dropped_no_route),
            (0, 0, 1)
        );
    }

    #[test]
    fn fifo_order_preserved_per_beam() {
        let mut sw = PacketSwitch::new(1, 16);
        for i in 0..10u16 {
            sw.ingress(pkt(i, 0));
        }
        for i in 0..10u16 {
            assert_eq!(sw.egress(0).unwrap().source, i);
        }
    }

    // ---- QoS behaviour --------------------------------------------------

    /// voice strict, video weight 3, data weight 1 with early drop.
    fn three_class() -> QosConfig {
        QosConfig {
            classes: vec![
                ClassConfig {
                    strict: true,
                    weight: 1,
                    queue_limit: 16,
                    early_drop: None,
                },
                ClassConfig {
                    strict: false,
                    weight: 3,
                    queue_limit: 16,
                    early_drop: None,
                },
                ClassConfig {
                    strict: false,
                    weight: 1,
                    queue_limit: 8,
                    early_drop: Some(6),
                },
            ],
        }
    }

    #[test]
    fn single_class_qos_matches_legacy_constructor() {
        let mut a = PacketSwitch::new(2, 4);
        let mut b = PacketSwitch::with_qos(2, QosConfig::single_class(4));
        for i in 0..12u16 {
            a.ingress(pkt(i, (i % 3) as u8)); // includes a no-route beam
            b.ingress(pkt(i, (i % 3) as u8));
        }
        assert_eq!(a.stats(), b.stats());
        for beam in 0..2 {
            loop {
                let (x, y) = (a.egress(beam), b.egress(beam));
                assert_eq!(x, y);
                if x.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn strict_class_preempts_everything() {
        let mut sw = PacketSwitch::with_qos(1, three_class());
        for i in 0..4u16 {
            sw.ingress(cpkt(100 + i, 0, 2)); // data first into the queue
        }
        for i in 0..2u16 {
            sw.ingress(cpkt(200 + i, 0, 1)); // then video
        }
        sw.ingress(cpkt(1, 0, 0)); // voice last
                                   // Voice leaves first despite arriving last.
        assert_eq!(sw.egress(0).unwrap().source, 1);
        // Then the weighted classes; the first WRR grab is not voice.
        assert_eq!(sw.egress(0).unwrap().class, 1);
    }

    #[test]
    fn wrr_shares_by_weight_under_backlog() {
        // Saturate video (w=3) and data (w=1); service should run 3:1.
        let mut sw = PacketSwitch::with_qos(1, three_class());
        for i in 0..12u16 {
            sw.ingress(cpkt(i, 0, 1));
        }
        for i in 0..4u16 {
            sw.ingress(cpkt(100 + i, 0, 2));
        }
        let order: Vec<u8> = (0..16).map(|_| sw.egress(0).unwrap().class).collect();
        let video = order.iter().filter(|&&c| c == 1).count();
        let data = order.iter().filter(|&&c| c == 2).count();
        assert_eq!((video, data), (12, 4));
        // First 8 services split 6:2 — the 3:1 weighting, interleaved.
        let head_video = order[..8].iter().filter(|&&c| c == 1).count();
        assert_eq!(head_video, 6, "service order {order:?}");
    }

    #[test]
    fn wrr_skips_empty_classes_without_stalling() {
        let mut sw = PacketSwitch::with_qos(1, three_class());
        for i in 0..5u16 {
            sw.ingress(cpkt(i, 0, 2)); // only the w=1 class has traffic
        }
        for i in 0..5u16 {
            assert_eq!(sw.egress(0).unwrap().source, i);
        }
        assert!(sw.egress(0).is_none());
    }

    #[test]
    fn early_drop_throttles_before_hard_limit() {
        let mut sw = PacketSwitch::with_qos(1, three_class());
        for i in 0..10u16 {
            sw.ingress(cpkt(i, 0, 2)); // early_drop at 6, hard limit 8
        }
        assert_eq!(sw.depth(0), 6);
        let cs = sw.class_stats(2);
        assert_eq!(cs.forwarded, 6);
        assert_eq!(cs.dropped_early, 4);
        assert_eq!(cs.dropped_overflow, 0);
        assert_eq!(sw.stats().dropped_overflow, 4);
    }

    #[test]
    fn per_class_overflow_accounting_is_isolated() {
        let mut sw = PacketSwitch::with_qos(1, three_class());
        for i in 0..20u16 {
            sw.ingress(cpkt(i, 0, 0)); // voice: limit 16
        }
        assert_eq!(sw.class_stats(0).dropped_overflow, 4);
        assert_eq!(sw.class_stats(1), ClassStats::default());
        assert_eq!(sw.class_stats(0).forwarded, 16);
    }

    #[test]
    fn out_of_range_class_degrades_to_best_effort() {
        let mut sw = PacketSwitch::with_qos(1, three_class());
        sw.ingress(cpkt(7, 0, 9));
        assert_eq!(sw.depth(0), 1);
        assert_eq!(sw.class_stats(2).forwarded, 1);
    }

    #[test]
    fn wrr_state_is_per_beam() {
        // Draining beam 0 must not perturb beam 1's round-robin position.
        let mut sw = PacketSwitch::with_qos(2, three_class());
        for beam in 0..2u8 {
            for i in 0..4u16 {
                sw.ingress(cpkt(i, beam, 1));
                sw.ingress(cpkt(100 + i, beam, 2));
            }
        }
        let seq0: Vec<u8> = (0..8).map(|_| sw.egress(0).unwrap().class).collect();
        let seq1: Vec<u8> = (0..8).map(|_| sw.egress(1).unwrap().class).collect();
        assert_eq!(seq0, seq1);
    }

    #[test]
    fn drain_beam_returns_class_order_and_leaves_stats_alone() {
        let mut sw = PacketSwitch::with_qos(2, three_class());
        sw.ingress(cpkt(10, 0, 2));
        sw.ingress(cpkt(11, 0, 0));
        sw.ingress(cpkt(12, 0, 1));
        sw.ingress(cpkt(13, 0, 0));
        sw.ingress(cpkt(99, 1, 1)); // other beam stays put
        let before = sw.stats();
        let drained = sw.drain_beam(0);
        let order: Vec<(u16, u8)> = drained.iter().map(|p| (p.source, p.class)).collect();
        assert_eq!(order, vec![(11, 0), (13, 0), (12, 1), (10, 2)]);
        assert_eq!(sw.depth(0), 0);
        assert_eq!(sw.depth(1), 1);
        assert_eq!(sw.stats(), before, "drain is accounting-neutral");
        assert!(sw.drain_beam(7).is_empty(), "unknown beam drains nothing");
    }

    #[test]
    fn edac_corrections_accumulate_per_beam_without_touching_packets() {
        let mut sw = PacketSwitch::new(2, 4);
        sw.ingress(pkt(1, 0));
        sw.note_edac_correction(0);
        sw.note_edac_correction(0);
        sw.note_edac_correction(1);
        sw.note_edac_correction(9); // out of range: ignored
        assert_eq!(sw.edac_corrected(0), 2);
        assert_eq!(sw.edac_corrected(1), 1);
        assert_eq!(sw.edac_corrected(9), 0);
        // The packet path is untouched.
        assert_eq!(sw.depth(0), 1);
        assert_eq!(sw.egress(0).unwrap().source, 1);
    }

    #[test]
    fn class_fifo_order_preserved_within_class() {
        let mut sw = PacketSwitch::with_qos(1, three_class());
        for i in 0..6u16 {
            sw.ingress(cpkt(i, 0, 1));
        }
        let mut last = None;
        while let Some(p) = sw.egress(0) {
            if let Some(prev) = last {
                assert!(p.source > prev);
            }
            last = Some(p.source);
        }
    }
}
