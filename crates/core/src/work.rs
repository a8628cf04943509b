//! The work queue: rule instances waiting to run and the token count
//! that tells quiescence, under one lock. Pool workers and a caller
//! blocked in `wait_idle` drain it alike, help-first: a waiter runs the
//! partial buffers its forced flush submits itself, waking no one.

use parking_lot::{Condvar, Mutex};
use slider_model::Triple;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Who drains or submits: a pool worker, which serves the deadline tick
/// and runs until the pool stops, or a `wait_idle` caller, which returns
/// once no token is held. A full buffer is submitted as `Worker`,
/// whoever fills it: it goes to the pool.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Drainer {
    Worker,
    Waiter,
}

/// What a drainer does next.
pub(crate) enum Next {
    /// Run this rule instance (module index, batch), then release its token.
    Job(usize, Vec<Triple>),
    /// Serve the deadlines (workers only).
    Tick,
    /// Return: no token left (a waiter), or stopped and empty (a worker).
    Done,
}

/// Rule instances waiting for a drainer, and the tokens. The invariant:
/// **any triple neither settled in the store nor waiting in a buffer is
/// covered by a token**. A token is taken *before* work becomes invisible
/// — a job holds one from [`Work::submit`] until its consequences are
/// dispatched — so quiescence is `tokens == 0 ∧ all buffers empty`.
///
/// The wake rule: workers sleep on one condvar (woken by a job, the stop
/// or the tick), waiters on another (woken by a job or zero tokens), and
/// a notify goes out only when someone sleeps there. The jobs of a
/// waiter's forced flush — partial buffers, often a handful of triples —
/// wake no one: a handoff would cost more than the instance, and the
/// waiter drains until no token is held, so it runs them itself unless an
/// awake worker takes one first, and nothing is stranded. Any other job —
/// a full buffer, worth a handoff whoever fills it, or a tick's timeout
/// flush — wakes one worker and one waiter.
pub(crate) struct Work {
    queue: Mutex<Queue>,
    workers: Condvar,
    waiters: Condvar,
    /// The deadline-service period; `None` without a pool or a deadline.
    tick: Option<Duration>,
}

struct Queue {
    jobs: VecDeque<(usize, Vec<Triple>)>,
    tokens: usize,
    stopped: bool,
    next_tick: Instant,
    /// One worker sleeps until `next_tick`, the others until notified, so
    /// an idle pool wakes once per tick, not once per worker.
    ticking: bool,
    /// Workers and waiters asleep on their condvars.
    idle_workers: usize,
    idle_waiters: usize,
}

impl Work {
    /// An empty queue whose workers serve the deadlines every `tick`.
    pub(crate) fn new(tick: Option<Duration>) -> Self {
        Work {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                tokens: 0,
                stopped: false,
                next_tick: Instant::now() + tick.unwrap_or_default(),
                ticking: false,
                idle_workers: 0,
                idle_waiters: 0,
            }),
            workers: Condvar::new(),
            waiters: Condvar::new(),
            tick,
        }
    }

    /// Acquires a token.
    pub(crate) fn inc(&self) {
        self.queue.lock().tokens += 1;
    }

    /// Releases a token, waking the sleeping waiters when none is left.
    pub(crate) fn dec(&self) {
        let mut queue = self.queue.lock();
        debug_assert!(queue.tokens > 0, "token underflow");
        queue.tokens -= 1;
        if queue.tokens == 0 && queue.idle_waiters > 0 {
            self.waiters.notify_all();
        }
    }

    /// Current token count.
    pub(crate) fn current(&self) -> usize {
        self.queue.lock().tokens
    }

    /// Queues a rule instance under a token of its own, submitted `by` a
    /// worker or a waiter (see the wake rule on [`Work`]). One wake-up per
    /// side is enough: whoever wakes runs it (a worker may serve a due
    /// tick first).
    pub(crate) fn submit(&self, rule: usize, delta: Vec<Triple>, by: Drainer) {
        let mut queue = self.queue.lock();
        queue.tokens += 1;
        queue.jobs.push_back((rule, delta));
        if by == Drainer::Worker {
            if queue.idle_workers > 0 {
                self.workers.notify_one();
            }
            if queue.idle_waiters > 0 {
                self.waiters.notify_one();
            }
        }
    }

    /// Lets the workers exit once the queue is empty.
    pub(crate) fn stop(&self) {
        self.queue.lock().stopped = true;
        self.workers.notify_all();
    }

    /// Blocks until `who` has something to do.
    pub(crate) fn next(&self, who: Drainer) -> Next {
        let mut queue = self.queue.lock();
        loop {
            if let (Drainer::Worker, Some(tick), false) = (who, self.tick, queue.stopped) {
                let now = Instant::now();
                if now >= queue.next_tick {
                    queue.next_tick = now + tick;
                    return Next::Tick;
                }
            }
            if let Some((rule, delta)) = queue.jobs.pop_front() {
                return Next::Job(rule, delta);
            }
            match who {
                Drainer::Waiter if queue.tokens == 0 => return Next::Done,
                Drainer::Worker if queue.stopped => return Next::Done,
                Drainer::Waiter => {
                    queue.idle_waiters += 1;
                    self.waiters.wait(&mut queue);
                    queue.idle_waiters -= 1;
                }
                Drainer::Worker => {
                    queue.idle_workers += 1;
                    if self.tick.is_some() && !queue.ticking {
                        queue.ticking = true;
                        let left = queue.next_tick.saturating_duration_since(Instant::now());
                        self.workers.wait_for(&mut queue, left);
                        queue.ticking = false;
                    } else {
                        self.workers.wait(&mut queue);
                    }
                    queue.idle_workers -= 1;
                }
            }
        }
    }

    /// Workers asleep on their condvar.
    #[cfg(test)]
    pub(crate) fn idle_workers(&self) -> usize {
        self.queue.lock().idle_workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero() {
        let w = Work::new(None);
        assert_eq!(w.current(), 0);
        assert!(matches!(w.next(Drainer::Waiter), Next::Done)); // must not block
    }

    #[test]
    fn inc_dec_roundtrip() {
        let w = Work::new(None);
        w.inc();
        w.inc();
        assert_eq!(w.current(), 2);
        w.dec();
        w.dec();
        assert_eq!(w.current(), 0);
    }

    #[test]
    fn wait_zero_blocks_until_released() {
        let w = Arc::new(Work::new(None));
        w.inc();
        let w2 = Arc::clone(&w);
        let waiter = std::thread::spawn(move || matches!(w2.next(Drainer::Waiter), Next::Done));
        // Give the waiter a moment to block.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "waiter must block while count > 0");
        w.dec();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn many_threads() {
        let w = Arc::new(Work::new(None));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let w = Arc::clone(&w);
            w.inc();
            handles.push(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                w.dec();
            }));
        }
        assert!(matches!(w.next(Drainer::Waiter), Next::Done));
        assert_eq!(w.current(), 0);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A waiter asleep while a token is held wakes for a job another
    /// thread submits, and gets it.
    #[test]
    fn a_sleeping_waiter_gets_a_submitted_job() {
        let w = Arc::new(Work::new(None));
        w.inc();
        let w2 = Arc::clone(&w);
        let waiter =
            std::thread::spawn(move || matches!(w2.next(Drainer::Waiter), Next::Job(7, _)));
        while w.queue.lock().idle_waiters == 0 {
            std::thread::yield_now();
        }
        w.submit(7, Vec::new(), Drainer::Worker);
        assert!(waiter.join().unwrap());
    }

    /// Queued jobs come out FIFO to any drainer, each holding its token;
    /// a stopped worker still empties the queue before it is done.
    #[test]
    fn jobs_drain_in_order_and_outlive_the_stop() {
        let w = Work::new(Some(Duration::from_secs(60)));
        w.submit(0, Vec::new(), Drainer::Worker);
        w.submit(1, Vec::new(), Drainer::Worker);
        assert_eq!(w.current(), 2);
        assert!(matches!(w.next(Drainer::Waiter), Next::Job(0, _)));
        w.stop();
        assert!(matches!(w.next(Drainer::Worker), Next::Job(1, _)));
        assert!(matches!(w.next(Drainer::Worker), Next::Done));
        assert_eq!(w.current(), 2, "running jobs keep their tokens");
    }
}
