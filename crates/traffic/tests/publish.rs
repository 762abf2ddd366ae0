//! The traffic engine publishes its telemetry once per public call. This
//! test drives every public mutator — frames, ISL ingress, a scheduler
//! fault, a beam outage that reroutes and sheds, beam extract/inject and
//! switch evacuation — and after each one checks that the registry is
//! exactly what the engine's own totals say it must be.

use gsp_payload::switch::BasebandPacket;
use gsp_telemetry::export::MetricValue;
use gsp_telemetry::{Histogram, Registry, Snapshot};
use gsp_traffic::{
    tick_buckets, BeamOutage, ClassCounters, IslConfig, TrafficConfig, TrafficEngine,
};

fn counter(snap: &Snapshot, name: &str) -> u64 {
    match snap.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{name} is not a registered counter: {other:?}"),
    }
}

fn gauge(snap: &Snapshot, name: &str) -> f64 {
    match snap.get(name) {
        Some(MetricValue::Gauge(v)) => *v,
        other => panic!("{name} is not a registered gauge: {other:?}"),
    }
}

/// Asserts that every `traffic.*` counter under `scope` equals the
/// [`gsp_traffic::TrafficStats`] field it mirrors, the gauges equal the
/// live engine state, and the all-class latency histograms are the
/// bucket-wise sums of the per-class ones.
fn assert_published(reg: &Registry, scope: &str, e: &TrafficEngine, after: &str) {
    let snap = reg.snapshot();
    let name = |n: &str| format!("{scope}traffic.{n}");
    let s = e.stats();
    let cfg = e.config();
    let sum = |f: fn(&ClassCounters) -> u64| s.classes.iter().map(f).sum::<u64>();

    let mut counters = vec![
        (name("frames"), s.frames),
        (name("grant_table.trips"), e.scheduler_faults_detected()),
        (name("isl.out"), sum(|c| c.isl_out)),
        (name("isl.in"), sum(|c| c.isl_in)),
    ];
    for (class, c) in cfg.classes.iter().zip(&s.classes) {
        for (quantity, value) in [
            ("offered", c.offered),
            ("delivered", c.delivered),
            ("dropped_aged", c.dropped_aged),
            ("dropped_switch", c.dropped_switch),
            ("rerouted", c.rerouted),
            ("dropped_shed", c.dropped_shed),
        ] {
            counters.push((name(&format!("{}.{quantity}", class.name)), value));
        }
    }
    for (b, &delivered) in s.delivered_per_beam.iter().enumerate() {
        counters.push((name(&format!("beam{b}.delivered")), delivered));
        let depth = name(&format!("beam{b}.depth"));
        assert_eq!(
            gauge(&snap, &depth),
            e.switch_depth(b) as f64,
            "{depth} after {after}"
        );
    }
    for (metric, value) in counters {
        assert_eq!(counter(&snap, &metric), value, "{metric} after {after}");
    }
    assert_eq!(
        gauge(&snap, &name("backlog")),
        s.backlog as f64,
        "after {after}"
    );

    let hist = |n: &str| reg.histogram_with(&name(n), tick_buckets());
    for (class, c) in cfg.classes.iter().zip(&s.classes) {
        let latency = hist(&format!("{}.latency", class.name)).snapshot();
        let grant = hist(&format!("{}.grant.latency", class.name)).snapshot();
        assert_eq!(
            (latency.count, latency.sum),
            (c.delivered, c.packet_latency_sum)
        );
        assert_eq!((grant.count, grant.sum), (c.granted, c.grant_latency_sum));
    }
    for (aggregate, suffix) in [
        ("packet.latency", "latency"),
        ("grant.latency", "grant.latency"),
    ] {
        let classes: Vec<Histogram> = cfg
            .classes
            .iter()
            .map(|c| hist(&format!("{}.{suffix}", c.name)))
            .collect();
        let mut buckets = vec![0u64; tick_buckets().len() + 1];
        for h in &classes {
            for (total, c) in buckets.iter_mut().zip(h.bucket_counts()) {
                *total += c;
            }
        }
        let agg = hist(aggregate);
        assert_eq!(agg.bucket_counts(), buckets, "{aggregate} after {after}");
        let parts: Vec<_> = classes.iter().map(Histogram::snapshot).collect();
        let got = agg.snapshot();
        assert_eq!(got.count, parts.iter().map(|p| p.count).sum::<u64>());
        assert_eq!(got.sum, parts.iter().map(|p| p.sum).sum::<u64>());
        let live = parts.iter().filter(|p| p.count > 0);
        assert_eq!(got.min, live.clone().map(|p| p.min).min().unwrap_or(0));
        assert_eq!(got.max, live.map(|p| p.max).max().unwrap_or(0));
    }
}

struct Pair {
    reg: Registry,
    a: TrafficEngine,
    b: TrafficEngine,
    to_a: Vec<BasebandPacket>,
    to_b: Vec<BasebandPacket>,
}

impl Pair {
    fn check(&self, after: &str) {
        assert_published(&self.reg, "a.", &self.a, after);
        assert_published(&self.reg, "b.", &self.b, after);
    }

    /// One frame on both satellites with a one-frame ISL hop, checking
    /// the registry after every public call.
    fn frame(&mut self) {
        self.a.ingress_isl(std::mem::take(&mut self.to_a));
        self.check("a.ingress_isl");
        self.b.ingress_isl(std::mem::take(&mut self.to_b));
        self.check("b.ingress_isl");
        self.a.run_frame();
        self.check("a.run_frame");
        self.b.run_frame();
        self.check("b.run_frame");
        self.to_b
            .extend(self.a.take_isl_egress().into_iter().map(|(_, p)| p));
        self.to_a
            .extend(self.b.take_isl_egress().into_iter().map(|(_, p)| p));
    }
}

#[test]
fn every_public_call_leaves_the_registry_equal_to_the_engine_totals() {
    // A slow downlink so the switch queues overflow and drop as well.
    let cfg = TrafficConfig {
        beam_egress_per_frame: 4,
        ..TrafficConfig::standard(2.0)
    };
    let reg = Registry::new();
    let mut a = TrafficEngine::with_telemetry(cfg.clone(), 7, &reg.scoped("a."));
    let mut b = TrafficEngine::for_shard(cfg.clone(), 8, cfg.beams as u64, &reg.scoped("b."));
    for (e, self_sat) in [(&mut a, 0), (&mut b, 1)] {
        e.set_isl(Some(IslConfig {
            self_sat,
            n_sats: 2,
            remote_fraction: 0.25,
        }));
    }
    let mut p = Pair {
        reg,
        a,
        b,
        to_a: Vec::new(),
        to_b: Vec::new(),
    };
    p.check("construction");
    for _ in 0..24 {
        p.frame();
    }

    // A grant-table fault trips the scheduler check every frame.
    p.a.inject_scheduler_fault();
    for _ in 0..3 {
        p.frame();
    }
    p.a.clear_scheduler_fault();

    // An outage drains beam 1 at once (voice rerouted, the rest shed),
    // then keeps applying to fresh grants and to ISL ingress.
    let outage = BeamOutage {
        backup: 2,
        reroute_below: 1,
    };
    p.a.set_beam_outage(1, Some(outage));
    p.check("set_beam_outage");
    for _ in 0..16 {
        p.frame();
    }
    p.a.set_beam_outage(1, None);
    p.check("lifting the outage");

    // Terminal handover: a's beam 1 population and backlog move to b.
    let m = p.a.extract_beam_population(1);
    p.check("extract_beam_population");
    p.b.inject_beam_population(m);
    p.check("inject_beam_population");
    for _ in 0..8 {
        p.frame();
    }

    // Quarantine-style evacuation: a's queued packets go over ISL to b.
    let evacuated = p.a.evacuate_switch();
    assert!(!evacuated.is_empty(), "2x load leaves queued traffic");
    p.check("evacuate_switch");
    p.b.ingress_isl(evacuated);
    p.check("ingress_isl of the evacuation");
    p.b.run_frame();
    p.check("b.run_frame after the evacuation");

    // The scenario really crossed every path it claims to.
    let total = |f: fn(&ClassCounters) -> u64| {
        [&p.a, &p.b]
            .iter()
            .flat_map(|e| &e.stats().classes)
            .map(f)
            .sum::<u64>()
    };
    assert!(p.a.scheduler_faults_detected() > 0);
    for (path, n) in [
        ("rerouted", total(|c| c.rerouted)),
        ("dropped_shed", total(|c| c.dropped_shed)),
        ("isl_out", total(|c| c.isl_out)),
        ("isl_in", total(|c| c.isl_in)),
        ("dropped_aged", total(|c| c.dropped_aged)),
        ("dropped_switch", total(|c| c.dropped_switch)),
    ] {
        assert!(n > 0, "the scenario never exercised {path}");
    }
}
