//! The round-robin post-mortem scheduler (Appendix A).
//!
//! "Our scheduler simulates a parallel execution of this trace, assigning
//! processors references from the trace on a round-robin basis. We assume
//! that processors make a memory reference every cycle."
//!
//! The [`Scheduler`] executes an [`SpmdApp`] on `P` logical processors.
//! Each cycle every live processor issues exactly one memory reference —
//! data, fetch-and-add, flag write, or flag spin — to the supplied
//! [`MemorySystem`]. Synchronization constructs are *simulated*: parallel
//! loops self-schedule through a shared index variable, and every section
//! ends in a Tang–Yew barrier (fetch-and-add on the barrier variable, spin
//! on the barrier flag, last arriver sets the flag). The scheduler records
//! each barrier episode for the `A`/`E` measurements of Table 3.

use abs_sim::rng::SplitMix64;

use crate::app::{Section, SpmdApp};
use crate::ops::{MemorySystem, RefKind, PRIVATE_BASE, PRIVATE_CHUNK, SYNC_BASE};

/// Timing record of one barrier (one section end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierEpisode {
    /// Index of the section this barrier terminates.
    pub section: usize,
    /// Cycle at which each *waiting* processor first polled the flag
    /// (excludes the setter).
    pub arrivals: Vec<u64>,
    /// Cycle at which the last arriver's flag write executed.
    pub set_time: u64,
}

impl BarrierEpisode {
    /// The first flag-poll cycle, or the set time if nobody waited.
    pub fn first_arrival(&self) -> u64 {
        self.arrivals.iter().copied().min().unwrap_or(self.set_time)
    }

    /// The paper's `A` for this barrier: first poll to flag set.
    pub fn span(&self) -> u64 {
        self.set_time - self.first_arrival()
    }
}

/// Everything the scheduler measured about one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Processors simulated.
    pub procs: usize,
    /// Total cycles executed (references per processor).
    pub cycles: u64,
    /// One record per barrier, in program order.
    pub episodes: Vec<BarrierEpisode>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Start,
    GrabIndex,
    Work { iter: usize, pos: u32, len: u32 },
    BarrierAdd,
    BarrierSpin,
    BarrierSet,
    Finished,
}

#[derive(Debug, Clone)]
struct SectionRt {
    next_index: usize,
    count: usize,
    flag: bool,
    set_time: u64,
    arrivals: Vec<Option<u64>>,
    /// Cycle in which the loop-index variable last served a fetch-and-add;
    /// at most one F&A per variable per cycle succeeds, the rest retry —
    /// this serialization is what spreads arrivals at FFT's barriers
    /// ("the serialization which takes place at the loop index
    /// assignment").
    index_served: u64,
    /// Same gate for the barrier variable.
    var_served: u64,
}

const NEVER: u64 = u64::MAX;

/// Executes an [`SpmdApp`] on `P` processors against a [`MemorySystem`].
///
/// # Examples
///
/// ```
/// use abs_trace::app::{Section, SpmdApp};
/// use abs_trace::ops::CountingConsumer;
/// use abs_trace::scheduler::Scheduler;
///
/// let app = SpmdApp::new(
///     "toy",
///     vec![Section::Parallel { iterations: 8, iter_refs: 20, jitter: 0.0 }],
/// );
/// let mut counts = CountingConsumer::new();
/// let report = Scheduler::new(app, 4, 1).run(&mut counts);
/// assert_eq!(report.episodes.len(), 1);
/// assert!(counts.sync() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduler {
    app: SpmdApp,
    procs: usize,
    seed: u64,
}

impl Scheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `procs == 0`.
    pub fn new(app: SpmdApp, procs: usize, seed: u64) -> Self {
        assert!(procs > 0, "at least one processor required");
        assert!(
            app.sections().len() <= 128,
            "at most 128 sections fit the address map"
        );
        Self { app, procs, seed }
    }

    /// The application.
    pub fn app(&self) -> &SpmdApp {
        &self.app
    }

    /// The processor count.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Synchronization addresses of section `s`:
    /// `(index_var, barrier_var, barrier_flag)` — three distinct blocks.
    pub fn sync_addrs(section: usize) -> (u64, u64, u64) {
        let base = SYNC_BASE + (section as u64) * 256;
        (base, base + 64, base + 128)
    }

    /// Executes the application, feeding every reference to `mem`.
    pub fn run<M: MemorySystem>(&self, mem: &mut M) -> ScheduleReport {
        let p = self.procs;
        let sections = self.app.sections();
        let mut tasks = vec![(0usize, Task::Start); p]; // (section, task)
        let mut rts: Vec<SectionRt> = sections
            .iter()
            .map(|_| SectionRt {
                next_index: 0,
                count: 0,
                flag: false,
                set_time: 0,
                arrivals: vec![None; p],
                index_served: NEVER,
                var_served: NEVER,
            })
            .collect();

        let mut now: u64 = 0;
        let mut live = p;
        while live > 0 {
            for proc in 0..p {
                self.step(proc, now, &mut tasks, &mut rts, mem, &mut live);
            }
            mem.tick(now);
            now += 1;
        }

        let episodes = rts
            .iter()
            .enumerate()
            .map(|(s, rt)| BarrierEpisode {
                section: s,
                arrivals: rt.arrivals.iter().flatten().copied().collect(),
                set_time: rt.set_time,
            })
            .collect();
        ScheduleReport {
            procs: p,
            cycles: now,
            episodes,
        }
    }

    /// Convenience: run against a fresh [`crate::ops::CountingConsumer`].
    pub fn run_counting(&self) -> (ScheduleReport, crate::ops::CountingConsumer) {
        let mut counts = crate::ops::CountingConsumer::new();
        let report = self.run(&mut counts);
        (report, counts)
    }

    fn step<M: MemorySystem>(
        &self,
        proc: usize,
        now: u64,
        tasks: &mut [(usize, Task)],
        rts: &mut [SectionRt],
        mem: &mut M,
        live: &mut usize,
    ) {
        let sections = self.app.sections();
        loop {
            let (section, task) = tasks[proc];
            match task {
                Task::Finished => return,
                Task::Start => {
                    if section >= sections.len() {
                        tasks[proc].1 = Task::Finished;
                        *live -= 1;
                        return;
                    }
                    tasks[proc].1 = match sections[section] {
                        Section::Parallel { .. } => Task::GrabIndex,
                        Section::Serial { refs } => {
                            if proc == 0 {
                                Task::Work {
                                    iter: 0,
                                    pos: 0,
                                    len: refs,
                                }
                            } else {
                                Task::BarrierAdd
                            }
                        }
                        Section::Replicate { refs } => Task::Work {
                            iter: proc,
                            pos: 0,
                            len: refs,
                        },
                    };
                    // No reference emitted; decide again immediately.
                }
                Task::GrabIndex => {
                    let (index_addr, _, _) = Self::sync_addrs(section);
                    let rt = &mut rts[section];
                    if rt.index_served == now {
                        // The variable already served a fetch-and-add this
                        // cycle; this attempt is a test-and-F&A retry, a
                        // plain read.
                        mem.access(proc, index_addr, false, RefKind::Sync);
                        return;
                    }
                    rt.index_served = now;
                    mem.access(proc, index_addr, true, RefKind::Sync);
                    let i = rt.next_index;
                    rt.next_index += 1;
                    let Section::Parallel {
                        iterations,
                        iter_refs,
                        jitter,
                    } = sections[section]
                    else {
                        unreachable!("GrabIndex only occurs in parallel sections")
                    };
                    tasks[proc].1 = if i < iterations {
                        Task::Work {
                            iter: i,
                            pos: 0,
                            len: self.iter_len(section, i, iter_refs, jitter),
                        }
                    } else {
                        Task::BarrierAdd
                    };
                    return;
                }
                Task::Work { iter, pos, len } => {
                    let (addr, write, kind) = self.data_ref(section, iter, pos, proc);
                    mem.access(proc, addr, write, kind);
                    let pos = pos + 1;
                    tasks[proc].1 = if pos == len {
                        match sections[section] {
                            Section::Parallel { .. } => Task::GrabIndex,
                            Section::Serial { .. } | Section::Replicate { .. } => {
                                Task::BarrierAdd
                            }
                        }
                    } else {
                        Task::Work { iter, pos, len }
                    };
                    return;
                }
                Task::BarrierAdd => {
                    let (_, var_addr, _) = Self::sync_addrs(section);
                    let rt = &mut rts[section];
                    if rt.var_served == now {
                        mem.access(proc, var_addr, false, RefKind::Sync);
                        return;
                    }
                    rt.var_served = now;
                    mem.access(proc, var_addr, true, RefKind::Sync);
                    rt.count += 1;
                    tasks[proc].1 = if rt.count == self.procs {
                        Task::BarrierSet
                    } else {
                        Task::BarrierSpin
                    };
                    return;
                }
                Task::BarrierSpin => {
                    let (_, _, flag_addr) = Self::sync_addrs(section);
                    let rt = &mut rts[section];
                    if rt.arrivals[proc].is_none() {
                        rt.arrivals[proc] = Some(now);
                    }
                    mem.access(proc, flag_addr, false, RefKind::Sync);
                    if rt.flag {
                        tasks[proc] = (section + 1, Task::Start);
                    }
                    return;
                }
                Task::BarrierSet => {
                    let (_, _, flag_addr) = Self::sync_addrs(section);
                    mem.access(proc, flag_addr, true, RefKind::Sync);
                    let rt = &mut rts[section];
                    rt.flag = true;
                    rt.set_time = now;
                    tasks[proc] = (section + 1, Task::Start);
                    return;
                }
            }
        }
    }

    /// Length of iteration `iter` of a parallel section, jittered
    /// deterministically.
    #[expect(clippy::cast_possible_truncation, reason = "`as` saturates, which is the wanted clamp for an out-of-range value")]
    fn iter_len(&self, section: usize, iter: usize, iter_refs: u32, jitter: f64) -> u32 {
        if jitter == 0.0 {
            return iter_refs.max(1);
        }
        let mut h = SplitMix64::new(
            self.seed ^ ((section as u64) << 32) ^ (iter as u64).wrapping_mul(0x9E37),
        );
        let f = (h.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let w = 1.0 - jitter + 2.0 * jitter * f;
        u32::try_from((iter_refs as f64 * w).round() as u64)
            .unwrap_or(u32::MAX)
            .max(1)
    }

    /// The `pos`-th data reference of iteration `iter` in `section` by
    /// `proc`.
    ///
    /// The mix mirrors a scientific kernel: private stack references,
    /// streaming reads of the previous section's output (so blocks are
    /// shared by at most a few processors), periodic writes to a
    /// per-iteration output slice, and reads of a small read-shared
    /// coefficient table (the widely-read-shared data of Table 1).
    fn data_ref(&self, section: usize, iter: usize, pos: u32, proc: usize) -> (u64, bool, RefKind) {
        // Sections ping-pong between two shared buffers: each section reads
        // what the previous one wrote, so ordinary writes hit blocks a few
        // other caches hold clean (the 1-3-invalidation writes of Fig. 1).
        let parity = (section % 2) as u64;
        let out_base = parity * (1 << 21);
        let in_base = (1 - parity) * (1 << 21);
        let common_base = 1 << 22;
        let j = pos as u64;
        match pos % 4 {
            0 | 1 => {
                // Private stack/temporary traffic dominates, as in real
                // codes.
                let addr = PRIVATE_BASE + proc as u64 * PRIVATE_CHUNK + (j * 37 % 2048) * 4;
                (addr, pos % 4 == 1, RefKind::Private)
            }
            2 => {
                if pos % 16 == 14 {
                    // Read-shared coefficient table: a handful of blocks
                    // everyone reads.
                    (common_base + (j / 16 % 16) * 4, false, RefKind::Shared)
                } else {
                    // Streaming read of the previous section's output.
                    let addr = in_base + ((iter as u64 * 8192) + j * 4) % (1 << 21);
                    (addr, false, RefKind::Shared)
                }
            }
            _ => {
                if pos % 8 == 3 {
                    // Output write: iterations own disjoint 4 KiB slices of
                    // the ping-pong buffer.
                    (
                        out_base + ((iter as u64) * 4096 + (j % 1024) * 4) % (1 << 21),
                        true,
                        RefKind::Shared,
                    )
                } else {
                    let addr = in_base + ((iter as u64 * 8192) + j * 4 + 64) % (1 << 21);
                    (addr, false, RefKind::Shared)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_app() -> SpmdApp {
        SpmdApp::new(
            "toy",
            vec![
                Section::Parallel {
                    iterations: 8,
                    iter_refs: 30,
                    jitter: 0.0,
                },
                Section::Serial { refs: 40 },
                Section::Replicate { refs: 10 },
            ],
        )
    }

    #[test]
    fn deterministic() {
        let s = Scheduler::new(toy_app(), 4, 7);
        let (r1, c1) = s.run_counting();
        let (r2, c2) = s.run_counting();
        assert_eq!(r1, r2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn one_episode_per_section() {
        let (report, _) = Scheduler::new(toy_app(), 4, 7).run_counting();
        assert_eq!(report.episodes.len(), 3);
        for (i, e) in report.episodes.iter().enumerate() {
            assert_eq!(e.section, i);
            assert!(e.set_time > 0);
        }
        // Barriers execute in program order.
        assert!(report
            .episodes
            .windows(2)
            .all(|w| w[0].set_time < w[1].set_time));
    }

    #[test]
    fn waiters_are_p_minus_one_at_most() {
        let (report, _) = Scheduler::new(toy_app(), 8, 7).run_counting();
        for e in &report.episodes {
            assert!(e.arrivals.len() <= 7);
            assert!(e.first_arrival() <= e.set_time);
        }
    }

    #[test]
    fn single_processor_runs_to_completion() {
        let (report, counts) = Scheduler::new(toy_app(), 1, 7).run_counting();
        assert_eq!(report.episodes.len(), 3);
        // With one processor every barrier is set instantly: span 0.
        assert!(report.episodes.iter().all(|e| e.span() == 0));
        assert!(counts.total() > 0);
    }

    #[test]
    fn all_iterations_execute_exactly_once() {
        // The work references of a parallel loop total the per-iteration sum
        // regardless of processor count.
        let app = SpmdApp::new(
            "p",
            vec![Section::Parallel {
                iterations: 10,
                iter_refs: 25,
                jitter: 0.0,
            }],
        );
        let (_, c1) = Scheduler::new(app.clone(), 1, 3).run_counting();
        let (_, c4) = Scheduler::new(app, 4, 3).run_counting();
        // Data refs (private + shared) identical; sync refs differ.
        assert_eq!(
            c1.shared() + c1.private(),
            c4.shared() + c4.private()
        );
    }

    #[test]
    fn serial_section_executes_once_not_p_times() {
        let app = SpmdApp::new("s", vec![Section::Serial { refs: 100 }]);
        let (_, c) = Scheduler::new(app, 8, 3).run_counting();
        // 100 data refs total (only proc 0 worked).
        assert_eq!(c.shared() + c.private(), 100);
    }

    #[test]
    fn replicate_section_executes_p_times() {
        let app = SpmdApp::new("r", vec![Section::Replicate { refs: 50 }]);
        let (_, c) = Scheduler::new(app, 8, 3).run_counting();
        assert_eq!(c.shared() + c.private(), 400);
    }

    #[test]
    fn imbalanced_loop_spins_more() {
        // 9 equal iterations over 8 processors: one processor does two,
        // seven spin for a full iteration. Sync refs should dwarf the
        // balanced 8-iteration case.
        let balanced = SpmdApp::new(
            "b",
            vec![Section::Parallel {
                iterations: 8,
                iter_refs: 200,
                jitter: 0.0,
            }],
        );
        let imbalanced = SpmdApp::new(
            "i",
            vec![Section::Parallel {
                iterations: 9,
                iter_refs: 200,
                jitter: 0.0,
            }],
        );
        let (_, cb) = Scheduler::new(balanced, 8, 3).run_counting();
        let (_, ci) = Scheduler::new(imbalanced, 8, 3).run_counting();
        assert!(
            ci.sync() > cb.sync() * 3,
            "balanced {} imbalanced {}",
            cb.sync(),
            ci.sync()
        );
    }

    #[test]
    fn jitter_changes_lengths_not_totals_much() {
        let s = Scheduler::new(
            SpmdApp::new(
                "j",
                vec![Section::Parallel {
                    iterations: 64,
                    iter_refs: 100,
                    jitter: 0.4,
                }],
            ),
            4,
            11,
        );
        let lens: Vec<u32> = (0..64).map(|i| s.iter_len(0, i, 100, 0.4)).collect();
        let distinct: std::collections::BTreeSet<u32> = lens.iter().copied().collect();
        assert!(distinct.len() > 10, "jitter should vary lengths");
        let mean = lens.iter().map(|&l| l as f64).sum::<f64>() / 64.0;
        assert!((mean - 100.0).abs() < 15.0, "mean {mean}");
        assert!(lens.iter().all(|&l| (60..=140).contains(&l)));
    }

    #[test]
    fn sync_addrs_distinct_blocks() {
        let (a, b, c) = Scheduler::sync_addrs(0);
        let (a1, ..) = Scheduler::sync_addrs(1);
        for (x, y) in [(a, b), (b, c), (a, c), (c, a1)] {
            assert_ne!(x / 16, y / 16, "sync vars must be in distinct blocks");
        }
    }

    #[test]
    fn data_refs_classified_consistently() {
        let s = Scheduler::new(toy_app(), 4, 0);
        for pos in 0..64 {
            let (addr, _, kind) = s.data_ref(1, 3, pos, 2);
            assert_eq!(crate::ops::classify(addr), kind, "pos {pos}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        Scheduler::new(toy_app(), 0, 0);
    }
}
