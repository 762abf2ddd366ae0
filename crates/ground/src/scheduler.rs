//! The pass scheduler: queues ground-segment jobs — reconfiguration
//! uploads, waveform-descriptor deliveries, housekeeping downlinks —
//! into the bounded contacts of a multi-station network.
//!
//! Each contact window offers a deterministic goodput budget derived
//! from its derated link: a stop-and-wait block (data out, ack back)
//! costs one serialisation plus one round trip, inflated by the
//! expected retransmissions the slice's loss probability implies. Jobs
//! are served strictly by (priority, id); a job that does not fit the
//! remaining contact suspends at its exact byte offset and resumes in
//! the next window — at whatever station that is. Resume state expires
//! like the on-board TFTP server's: a job left suspended longer than
//! the budget restarts from byte zero. The whole run is a pure
//! function of `(jobs, plan, resume_expiry_ns)`.

use gsp_netproto::{ContactSchedule, LinkConfig};

/// What a job moves and which direction it crosses the link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Golden-bitstream re-upload to one equipment (uplink).
    ReconfigUpload {
        /// Target equipment index.
        equipment: u16,
    },
    /// Waveform-descriptor delivery (uplink).
    WaveformDescriptor,
    /// Housekeeping telemetry dump (downlink).
    HousekeepingDownlink,
}

impl JobKind {
    /// Whether the transfer crosses the uplink (ground→space).
    pub fn uplink(self) -> bool {
        !matches!(self, JobKind::HousekeepingDownlink)
    }
}

/// One queued transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Stable identifier (ties broken by it, so make them unique).
    pub id: u32,
    /// What the job is.
    pub kind: JobKind,
    /// Urgency: lower serves first.
    pub priority: u8,
    /// Payload size.
    pub bytes: u64,
}

/// Transfer block payload, bytes.
const BLOCK_BYTES: u64 = 512;
/// Per-block protocol overhead (headers both ways), bytes.
const OVERHEAD_BYTES: u64 = 48;

/// How one pass was spent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PassUtilization {
    /// The pass.
    pub pass_id: u32,
    /// Station serving it.
    pub station: u16,
    /// Contact time the pass offered, nanoseconds.
    pub available_ns: u64,
    /// Contact time spent moving blocks, nanoseconds.
    pub used_ns: u64,
}

impl PassUtilization {
    /// Used fraction of the offered contact time.
    pub fn utilization(&self) -> f64 {
        if self.available_ns == 0 {
            0.0
        } else {
            self.used_ns as f64 / self.available_ns as f64
        }
    }
}

/// A finished job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobCompletion {
    /// The job.
    pub id: u32,
    /// Simulated completion time, nanoseconds.
    pub finished_ns: u64,
    /// Pass it finished in.
    pub finished_pass: u32,
    /// Windows it had to resume into after a suspension.
    pub resumes: u32,
    /// Times its resume state expired and it restarted from byte 0.
    pub expired_restarts: u32,
}

/// Everything a scheduler run produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScheduleReport {
    /// Per-pass spend, in pass order.
    pub passes: Vec<PassUtilization>,
    /// Completed jobs, in completion order.
    pub completed: Vec<JobCompletion>,
    /// Jobs still unfinished when the plan ran out.
    pub unfinished: Vec<u32>,
    /// Total cross-window resumes.
    pub resumes_total: u32,
    /// Total expiry restarts.
    pub expired_restarts_total: u32,
    /// Completion time of the last finished job, nanoseconds.
    pub makespan_ns: u64,
}

impl ScheduleReport {
    /// Mean utilization across passes that offered any contact.
    pub fn mean_utilization(&self) -> f64 {
        if self.passes.is_empty() {
            return 0.0;
        }
        self.passes.iter().map(|p| p.utilization()).sum::<f64>() / self.passes.len() as f64
    }
}

struct JobState {
    job: Job,
    bytes_done: u64,
    resumes: u32,
    expired_restarts: u32,
    /// End of the window that last served the job (None = never served).
    last_service_end: Option<u64>,
}

/// Time one stop-and-wait block costs on `link`, including expected
/// retransmissions: serialisation of data + overhead in the job's
/// direction, the return ack, and a round trip — divided by the
/// probability both frames survive.
fn block_ns(link: &LinkConfig, uplink: bool) -> u64 {
    let data = link.tx_time_ns((BLOCK_BYTES + OVERHEAD_BYTES) as usize, uplink);
    let ack = link.tx_time_ns(OVERHEAD_BYTES as usize, !uplink);
    let nominal = data + ack + link.rtt_ns();
    let p = link.frame_survival_probability((BLOCK_BYTES + OVERHEAD_BYTES) as usize)
        * link.frame_survival_probability(OVERHEAD_BYTES as usize);
    if p <= 0.0 {
        u64::MAX
    } else {
        (nominal as f64 / p) as u64
    }
}

/// Runs `jobs` over `plan` and reports. Jobs are served strictly by
/// (priority, id) — a high-priority arrival always preempts queue
/// order at the next window boundary, never mid-block. A job's
/// suspended state lives `resume_expiry_ns` nanoseconds (0 = forever).
pub fn run_schedule(jobs: &[Job], plan: &ContactSchedule, resume_expiry_ns: u64) -> ScheduleReport {
    let mut states: Vec<JobState> = jobs
        .iter()
        .map(|&job| JobState {
            job,
            bytes_done: 0,
            resumes: 0,
            expired_restarts: 0,
            last_service_end: None,
        })
        .collect();
    states.sort_by_key(|s| (s.job.priority, s.job.id));
    let mut report = ScheduleReport::default();
    for w in plan.windows() {
        let mut now = w.start_ns;
        // Account the window against its pass.
        if report.passes.last().map(|p| p.pass_id) != Some(w.pass_id) {
            report.passes.push(PassUtilization {
                pass_id: w.pass_id,
                station: w.station,
                available_ns: 0,
                used_ns: 0,
            });
        }
        let pass = report.passes.last_mut().expect("just pushed");
        pass.available_ns += w.duration_ns();
        for s in states.iter_mut() {
            if s.bytes_done >= s.job.bytes {
                continue; // Already complete.
            }
            let per_block = block_ns(&w.link, s.job.kind.uplink());
            if per_block > w.end_ns.saturating_sub(now) {
                continue; // Not even one block fits; try the next job.
            }
            if let Some(end) = s.last_service_end {
                if resume_expiry_ns > 0
                    && s.bytes_done > 0
                    && now.saturating_sub(end) > resume_expiry_ns
                {
                    s.bytes_done = 0;
                    s.expired_restarts += 1;
                    report.expired_restarts_total += 1;
                }
                if s.bytes_done > 0 && end != w.start_ns {
                    s.resumes += 1;
                    report.resumes_total += 1;
                }
            }
            while s.bytes_done < s.job.bytes && now + per_block <= w.end_ns {
                now += per_block;
                s.bytes_done = (s.bytes_done + BLOCK_BYTES).min(s.job.bytes);
            }
            // Suspension starts at window close, not at the last block:
            // a job parked while the window served other queue entries
            // has not lost contact.
            s.last_service_end = Some(w.end_ns);
            if s.bytes_done >= s.job.bytes {
                report.completed.push(JobCompletion {
                    id: s.job.id,
                    finished_ns: now,
                    finished_pass: w.pass_id,
                    resumes: s.resumes,
                    expired_restarts: s.expired_restarts,
                });
                report.makespan_ns = report.makespan_ns.max(now);
            }
        }
        let pass = report.passes.last_mut().expect("pushed above");
        pass.used_ns += now - w.start_ns;
    }
    report.unfinished = states
        .iter()
        .filter(|s| s.bytes_done < s.job.bytes)
        .map(|s| s.job.id)
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orbit::{ContactLink, FadeConfig};

    fn plan(fades: FadeConfig, seed: u64, horizon_ns: u64) -> ContactSchedule {
        ContactLink::standard(fades, seed).schedule(horizon_ns)
    }

    fn job(id: u32, priority: u8, bytes: u64, kind: JobKind) -> Job {
        Job {
            id,
            kind,
            priority,
            bytes,
        }
    }

    #[test]
    fn small_jobs_finish_in_the_first_pass() {
        let p = plan(FadeConfig::none(), 1, 4_000_000_000);
        let jobs = [
            job(0, 0, 2048, JobKind::WaveformDescriptor),
            job(1, 1, 4096, JobKind::HousekeepingDownlink),
        ];
        let r = run_schedule(&jobs, &p, 0);
        assert_eq!(r.completed.len(), 2);
        assert!(r.unfinished.is_empty());
        assert!(r.completed.iter().all(|c| c.finished_pass == 0));
        assert_eq!(r.resumes_total, 0);
        for pu in &r.passes {
            let u = pu.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
    }

    #[test]
    fn oversized_upload_resumes_across_passes_and_stations() {
        // ~22 blocks fit a clean 240 ms pass; 60 KB needs several.
        let p = plan(FadeConfig::none(), 1, 20_000_000_000);
        let jobs = [job(
            0,
            0,
            60 * 1024,
            JobKind::ReconfigUpload { equipment: 3 },
        )];
        let r = run_schedule(&jobs, &p, 0);
        assert_eq!(r.completed.len(), 1, "{r:?}");
        let c = r.completed[0];
        assert!(c.finished_pass >= 1, "must cross a pass: {c:?}");
        assert!(c.resumes >= 1);
        // Consecutive passes belong to different stations, so a
        // cross-pass resume is a cross-station resume here.
        let stations: Vec<u16> = r.passes.iter().map(|pu| pu.station).collect();
        assert!(stations.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn priority_preempts_queue_order() {
        let p = plan(FadeConfig::none(), 1, 20_000_000_000);
        let jobs = [
            job(7, 3, 40 * 1024, JobKind::HousekeepingDownlink),
            job(8, 0, 40 * 1024, JobKind::ReconfigUpload { equipment: 0 }),
        ];
        let r = run_schedule(&jobs, &p, 0);
        assert_eq!(r.completed.len(), 2, "{r:?}");
        let finish = |id: u32| r.completed.iter().find(|c| c.id == id).unwrap().finished_ns;
        assert!(
            finish(8) < finish(7),
            "the urgent upload must finish before the bulk downlink"
        );
    }

    #[test]
    fn expiry_restarts_a_long_suspended_job() {
        // One thin pass per orbit serves a few blocks; a 300 ms resume
        // budget is far shorter than the ~1.8 s gap between passes.
        let mut link = ContactLink::standard(FadeConfig::none(), 2);
        link.stations.truncate(1);
        let p = link.schedule(30_000_000_000);
        let jobs = [job(
            0,
            0,
            40 * 1024,
            JobKind::ReconfigUpload { equipment: 0 },
        )];
        let r = run_schedule(&jobs, &p, 300_000_000);
        assert!(
            r.expired_restarts_total >= 1,
            "the gap must void the resume state: {r:?}"
        );
        assert!(
            r.completed.is_empty(),
            "a job that always expires can never finish: {r:?}"
        );
        assert_eq!(r.unfinished, vec![0]);
    }

    #[test]
    fn schedule_runs_are_deterministic() {
        let p = plan(FadeConfig::soak(), 11, 20_000_000_000);
        let jobs = [
            job(0, 0, 30 * 1024, JobKind::ReconfigUpload { equipment: 1 }),
            job(1, 1, 2048, JobKind::WaveformDescriptor),
            job(2, 2, 80 * 1024, JobKind::HousekeepingDownlink),
        ];
        let expiry = 5_000_000_000;
        assert_eq!(
            run_schedule(&jobs, &p, expiry),
            run_schedule(&jobs, &p, expiry)
        );
    }

    #[test]
    fn faded_plans_still_drain_the_queue_eventually() {
        let p = plan(FadeConfig::soak(), 3, 40_000_000_000);
        let jobs = [
            job(0, 0, 20 * 1024, JobKind::ReconfigUpload { equipment: 0 }),
            job(1, 1, 20 * 1024, JobKind::HousekeepingDownlink),
        ];
        let r = run_schedule(&jobs, &p, 0);
        assert!(r.unfinished.is_empty(), "{r:?}");
        assert!(r.resumes_total >= 1, "cut slices must force resumes");
    }
}
