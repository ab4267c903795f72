//! The block-multithreading scheduler.
//!
//! Round-robin over ready threads; a thread runs until it blocks on a
//! long-latency event (paper Figure 1). Wake conditions:
//!
//! * remote loads wake at a known future cycle;
//! * receives wake when their channel has a delivered message (the
//!   blocked instruction re-executes, so racing receivers are safe);
//! * join waits wake when their counter reaches zero (probed via a
//!   memory callback, since the counter lives in simulated memory).
//!
//! The scheduler also owns the **Context ID** free list and carves a
//! stack region per thread — the "user program or thread scheduler"
//! software role the paper assigns to CID management (§4.3).

use crate::channel::ChannelTable;
use crate::thread::{BlockReason, Thread, ThreadId, ThreadState};
use nsf_core::Cid;
use nsf_mem::{Addr, Word};
use std::collections::VecDeque;
use std::fmt;

/// Scheduler limits and layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum live threads.
    pub max_threads: u32,
    /// Context IDs available (the Ctable size).
    pub cid_capacity: u16,
    /// Words of stack per thread.
    pub stack_words: u32,
    /// Base address of the stack arena (stacks grow downward from the top
    /// of each thread's region).
    pub stack_base: Addr,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_threads: 4096,
            cid_capacity: 4096,
            stack_words: 4096,
            stack_base: 0x0100_0000,
        }
    }
}

/// Scheduler failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerError {
    /// Thread limit reached.
    TooManyThreads,
    /// No free Context IDs (activation tree deeper than the Ctable).
    CidExhausted,
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::TooManyThreads => write!(f, "thread limit exceeded"),
            SchedulerError::CidExhausted => write!(f, "out of Context IDs"),
        }
    }
}

impl std::error::Error for SchedulerError {}

/// What the processor should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedDecision {
    /// Run this thread (it has been marked `Running`).
    Run(ThreadId),
    /// Nothing is ready; idle until this cycle, then rescan.
    AdvanceTo(u64),
    /// All threads finished.
    AllDone,
    /// Threads remain but none can ever wake — a program deadlock.
    Deadlock,
}

/// The scheduler. See module docs.
pub struct Scheduler {
    cfg: SchedulerConfig,
    threads: Vec<Thread>,
    ready: VecDeque<ThreadId>,
    /// Blocked threads in id order: the wake pass visits only these, in
    /// the order a scan over every thread would.
    blocked: Vec<ThreadId>,
    current: Option<ThreadId>,
    free_cids: Vec<Cid>,
    /// Message channels (owned here so wake checks can consult them).
    pub channels: ChannelTable,
    spawned: u64,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Scheduler {
            cfg,
            threads: Vec::new(),
            ready: VecDeque::new(),
            blocked: Vec::new(),
            current: None,
            free_cids: (0..cfg.cid_capacity).rev().collect(),
            channels: ChannelTable::new(),
            spawned: 0,
        }
    }

    /// Allocates a Context ID (procedure call or thread spawn).
    #[inline]
    pub fn alloc_cid(&mut self) -> Result<Cid, SchedulerError> {
        self.free_cids.pop().ok_or(SchedulerError::CidExhausted)
    }

    /// Returns a Context ID to the free list.
    #[inline]
    pub fn free_cid(&mut self, cid: Cid) {
        self.free_cids.push(cid);
    }

    /// Spawns a thread at `pc` with `g1 = arg`. The thread gets a fresh
    /// CID and its own stack region.
    pub fn spawn(&mut self, pc: u32, arg: Word) -> Result<ThreadId, SchedulerError> {
        if self.threads.len() as u32 >= self.cfg.max_threads {
            return Err(SchedulerError::TooManyThreads);
        }
        let cid = self.alloc_cid()?;
        let id = self.threads.len() as ThreadId;
        let stack_top = self.cfg.stack_base + (id + 1) * self.cfg.stack_words;
        let mut t = Thread::new(id, pc, cid, stack_top);
        t.globals[1] = arg;
        self.threads.push(t);
        self.ready.push_back(id);
        self.spawned += 1;
        Ok(id)
    }

    /// The running thread, if any.
    #[inline]
    pub fn current(&self) -> Option<&Thread> {
        self.current.map(|id| &self.threads[id as usize])
    }

    /// Mutable access to the running thread.
    ///
    /// # Panics
    ///
    /// Panics if no thread is running (the simulator only calls this
    /// between a `Run` decision and the next block/yield).
    #[inline]
    pub fn current_mut(&mut self) -> &mut Thread {
        let id = self.current.expect("a thread is running");
        &mut self.threads[id as usize]
    }

    /// A thread by id.
    #[inline]
    pub fn thread(&self, id: ThreadId) -> &Thread {
        &self.threads[id as usize]
    }

    /// Mutable access to a thread by id.
    #[inline]
    pub fn thread_mut(&mut self, id: ThreadId) -> &mut Thread {
        &mut self.threads[id as usize]
    }

    /// All threads (reporting).
    #[inline]
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Total threads ever spawned.
    pub fn spawned(&self) -> u64 {
        self.spawned
    }

    /// Number of threads currently waiting in the ready queue.
    #[inline]
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// Parks the running thread on `reason`.
    #[inline]
    pub fn block_current(&mut self, reason: BlockReason) {
        let id = self.current.take().expect("a thread is running");
        self.threads[id as usize].state = ThreadState::Blocked(reason);
        let at = self.blocked.partition_point(|&b| b < id);
        self.blocked.insert(at, id);
    }

    /// Moves the running thread to the back of the ready queue.
    #[inline]
    pub fn yield_current(&mut self) {
        let id = self.current.expect("a thread is running");
        self.threads[id as usize].state = ThreadState::Ready;
        self.ready.push_back(id);
        self.current = None;
    }

    /// Marks the running thread finished and releases its CID.
    #[inline]
    pub fn finish_current(&mut self) -> ThreadId {
        let id = self.current.expect("a thread is running");
        self.threads[id as usize].state = ThreadState::Done;
        self.current = None;
        id
    }

    /// Wakes eligible blocked threads and picks the next to run.
    ///
    /// `sync_clear(addr)` reports whether the join counter at `addr` is
    /// zero (it lives in simulated memory, which the scheduler cannot
    /// see).
    pub fn next(&mut self, now: u64, mut sync_clear: impl FnMut(Addr) -> bool) -> SchedDecision {
        // Wake pass, over the blocked threads in id order.
        let (threads, channels, ready) = (&mut self.threads, &self.channels, &mut self.ready);
        self.blocked.retain(|&id| {
            let t = &mut threads[id as usize];
            let wake = match t.state {
                ThreadState::Blocked(BlockReason::RemoteLoad { ready_at }) => ready_at <= now,
                ThreadState::Blocked(BlockReason::Recv { chan }) => {
                    channels.next_delivery(chan).is_some_and(|at| at <= now)
                }
                ThreadState::Blocked(BlockReason::Send { chan }) => channels.has_space(chan),
                ThreadState::Blocked(BlockReason::Sync { addr }) => sync_clear(addr),
                _ => unreachable!("thread {id} on the blocked list is {:?}", t.state),
            };
            if wake {
                t.state = ThreadState::Ready;
                ready.push_back(id);
            }
            !wake
        });

        if let Some(id) = self.ready.pop_front() {
            self.threads[id as usize].state = ThreadState::Running;
            self.current = Some(id);
            return SchedDecision::Run(id);
        }

        // Nothing ready: find the earliest timed wake.
        let mut earliest: Option<u64> = None;
        for &id in &self.blocked {
            let at = match self.threads[id as usize].state {
                ThreadState::Blocked(BlockReason::RemoteLoad { ready_at }) => Some(ready_at),
                ThreadState::Blocked(BlockReason::Recv { chan }) => {
                    self.channels.next_delivery(chan)
                }
                _ => None,
            };
            if let Some(at) = at {
                earliest = Some(earliest.map_or(at, |e| e.min(at)));
            }
        }
        let any_blocked = !self.blocked.is_empty();
        match (earliest, any_blocked) {
            (Some(at), _) => SchedDecision::AdvanceTo(at.max(now + 1)),
            (None, true) => SchedDecision::Deadlock,
            (None, false) => SchedDecision::AllDone,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Scheduler {
        Scheduler::new(SchedulerConfig::default())
    }

    #[test]
    fn spawn_and_run_round_robin() {
        let mut s = sched();
        let a = s.spawn(10, 0).unwrap();
        let b = s.spawn(20, 0).unwrap();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
        s.yield_current();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(b));
        s.yield_current();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
    }

    #[test]
    fn threads_get_disjoint_stacks() {
        let mut s = sched();
        let a = s.spawn(0, 0).unwrap();
        let b = s.spawn(0, 0).unwrap();
        let sa = s.thread(a).globals[0];
        let sb = s.thread(b).globals[0];
        assert_ne!(sa, sb);
        assert!(sb - sa >= SchedulerConfig::default().stack_words);
    }

    #[test]
    fn spawn_arg_lands_in_g1() {
        let mut s = sched();
        let a = s.spawn(5, 99).unwrap();
        assert_eq!(s.thread(a).globals[1], 99);
    }

    #[test]
    fn remote_load_wakes_at_time() {
        let mut s = sched();
        let a = s.spawn(0, 0).unwrap();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
        s.block_current(BlockReason::RemoteLoad { ready_at: 100 });
        assert_eq!(s.next(0, |_| false), SchedDecision::AdvanceTo(100));
        assert_eq!(s.next(100, |_| false), SchedDecision::Run(a));
    }

    #[test]
    fn recv_wakes_on_delivery() {
        let mut s = sched();
        let a = s.spawn(0, 0).unwrap();
        let c = s.channels.create();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
        s.block_current(BlockReason::Recv { chan: c });
        // No message: blocked without a timed wake → deadlock.
        assert_eq!(s.next(0, |_| false), SchedDecision::Deadlock);
        s.channels.send(c, 7, 50);
        assert_eq!(s.next(0, |_| false), SchedDecision::AdvanceTo(50));
        assert_eq!(s.next(50, |_| false), SchedDecision::Run(a));
    }

    #[test]
    fn sync_wakes_via_probe() {
        let mut s = sched();
        let a = s.spawn(0, 0).unwrap();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
        s.block_current(BlockReason::Sync { addr: 0x10 });
        assert_eq!(s.next(0, |_| false), SchedDecision::Deadlock);
        assert_eq!(s.next(0, |_| true), SchedDecision::Run(a));
    }

    #[test]
    fn wakes_follow_thread_id_order_not_block_order() {
        let mut s = sched();
        let a = s.spawn(0, 0).unwrap();
        let b = s.spawn(0, 0).unwrap();
        let c = s.spawn(0, 0).unwrap();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
        s.yield_current();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(b));
        s.yield_current();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(c));
        s.block_current(BlockReason::RemoteLoad { ready_at: 10 });
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
        s.block_current(BlockReason::RemoteLoad { ready_at: 5 });
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(b));
        s.finish_current();
        assert_eq!(s.next(0, |_| false), SchedDecision::AdvanceTo(5));
        // Both due at once: woken in id order, whatever order they blocked in.
        assert_eq!(s.next(10, |_| false), SchedDecision::Run(a));
        s.finish_current();
        assert_eq!(s.next(10, |_| false), SchedDecision::Run(c));
        s.finish_current();
        assert_eq!(s.next(10, |_| false), SchedDecision::AllDone);
    }

    #[test]
    fn all_done_after_finish() {
        let mut s = sched();
        s.spawn(0, 0).unwrap();
        assert!(matches!(s.next(0, |_| false), SchedDecision::Run(_)));
        s.finish_current();
        assert_eq!(s.next(0, |_| false), SchedDecision::AllDone);
    }

    #[test]
    fn cids_recycle() {
        let cfg = SchedulerConfig {
            cid_capacity: 2,
            ..Default::default()
        };
        let mut s = Scheduler::new(cfg);
        let a = s.alloc_cid().unwrap();
        let _b = s.alloc_cid().unwrap();
        assert_eq!(s.alloc_cid(), Err(SchedulerError::CidExhausted));
        s.free_cid(a);
        assert_eq!(s.alloc_cid(), Ok(a));
    }

    #[test]
    fn thread_limit_enforced() {
        let cfg = SchedulerConfig {
            max_threads: 1,
            ..Default::default()
        };
        let mut s = Scheduler::new(cfg);
        s.spawn(0, 0).unwrap();
        assert_eq!(s.spawn(0, 0), Err(SchedulerError::TooManyThreads));
    }
}
