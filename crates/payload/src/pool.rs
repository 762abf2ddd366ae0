//! One worker pool: a fixed set of persistent threads, each applying one
//! step function to work items that travel **by value** both ways.
//!
//! The caller owns every item between calls. [`Pool::send`] hands an item
//! to a worker, which steps it and hands it back; [`Pool::recv`] returns
//! items in exactly the order they were sent, so a caller restores its
//! results by position, without tags. Items go to the workers round-robin
//! and each worker has its own FIFO job and reply channel, so receiving
//! round-robin from the same worker sequence reproduces the send order
//! whatever order the workers finish in.
//!
//! With one thread or fewer the pool starts no thread: `send` steps the
//! item on the caller's thread and queues it for `recv`. Callers see one
//! code path either way.
//!
//! A worker that panics is joined by the next `send` or `recv` that
//! reaches it, and its own panic payload is re-raised on the caller's
//! thread.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// Hardware threads available to this process (1 if unknown).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One persistent worker thread and its two channels.
struct Worker<T> {
    jobs: Sender<T>,
    done: Receiver<T>,
    handle: JoinHandle<()>,
}

/// A FIFO pool of persistent threads stepping items of type `T`; see the
/// module docs.
pub struct Pool<T: Send + 'static> {
    step: fn(&mut T),
    /// Empty when the pool steps items inline.
    workers: Vec<Worker<T>>,
    /// Items stepped inline, waiting for `recv`, in send order.
    inline: VecDeque<T>,
    sent: usize,
    received: usize,
}

impl<T: Send + 'static> Pool<T> {
    /// A pool of `threads` workers applying `step`; `threads <= 1` starts
    /// none and steps every item inline.
    pub fn new(threads: usize, step: fn(&mut T)) -> Self {
        let workers = if threads <= 1 { 0 } else { threads };
        let workers = (0..workers)
            .map(|w| {
                let (jobs, inbox) = channel::<T>();
                let (outbox, done) = channel::<T>();
                let handle = std::thread::Builder::new()
                    .name(format!("gsp-pool-{w}"))
                    .spawn(move || {
                        for mut item in inbox {
                            step(&mut item);
                            if outbox.send(item).is_err() {
                                return;
                            }
                        }
                    })
                    .expect("spawn pool worker");
                Worker { jobs, done, handle }
            })
            .collect();
        Pool {
            step,
            workers,
            inline: VecDeque::new(),
            sent: 0,
            received: 0,
        }
    }

    /// Hands `item` to the next worker (or steps it inline).
    pub fn send(&mut self, mut item: T) {
        if self.workers.is_empty() {
            (self.step)(&mut item);
            self.inline.push_back(item);
            return;
        }
        let w = self.sent % self.workers.len();
        self.sent += 1;
        if self.workers[w].jobs.send(item).is_err() {
            self.fail(w);
        }
    }

    /// The oldest item not yet received, stepped. Blocks until its worker
    /// is done with it; panics if every sent item was already received.
    pub fn recv(&mut self) -> T {
        if self.workers.is_empty() {
            return self
                .inline
                .pop_front()
                .expect("recv matches an earlier send");
        }
        assert!(self.received < self.sent, "recv matches an earlier send");
        let w = self.received % self.workers.len();
        self.received += 1;
        match self.workers[w].done.recv() {
            Ok(item) => item,
            Err(_) => self.fail(w),
        }
    }

    /// Worker `w` hung up: join it and re-raise its panic.
    fn fail(&mut self, w: usize) -> ! {
        let Worker { handle, .. } = self.workers.swap_remove(w);
        match handle.join() {
            Err(payload) => resume_unwind(payload),
            Ok(()) => panic!("pool worker {w} exited with its channels open"),
        }
    }
}

impl<T: Send + 'static> Drop for Pool<T> {
    /// Hangs up every channel, so each worker stops after the item it is
    /// stepping (queued items are dropped unstepped), then joins them all.
    /// A worker's panic is re-raised unless this thread is already
    /// unwinding.
    fn drop(&mut self) {
        let handles: Vec<JoinHandle<()>> = self.workers.drain(..).map(|w| w.handle).collect();
        let mut panicked = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            if !std::thread::panicking() {
                resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x: &mut u64) {
        *x *= *x;
    }

    #[test]
    fn items_come_back_in_send_order_across_interleaved_sends() {
        // The pipeline schedule: a batch goes out, a second batch goes
        // out before the first is received, then the two drain in turn.
        for threads in [1, 2, 3] {
            let mut pool = Pool::new(threads, square);
            let mut next = 0u64;
            let mut send = |pool: &mut Pool<u64>, n: u64| {
                for _ in 0..n {
                    pool.send(next);
                    next += 1;
                }
            };
            send(&mut pool, 5);
            let mut expect = 0u64;
            for _ in 0..4 {
                send(&mut pool, 5);
                for _ in 0..5 {
                    assert_eq!(pool.recv(), expect * expect, "{threads} threads");
                    expect += 1;
                }
            }
            for _ in 0..5 {
                assert_eq!(pool.recv(), expect * expect);
                expect += 1;
            }
        }
    }

    #[test]
    fn every_thread_count_returns_identical_items() {
        let items: Vec<u64> = (0..7).map(|i| i * 31 + 5).collect();
        let run = |threads: usize| {
            let mut pool = Pool::new(threads, square);
            for &i in &items {
                pool.send(i);
            }
            (0..items.len()).map(|_| pool.recv()).collect::<Vec<_>>()
        };
        let reference = run(1);
        assert_eq!(reference, items.iter().map(|i| i * i).collect::<Vec<_>>());
        for threads in [0, 2, 3, items.len() + 1] {
            assert_eq!(run(threads), reference, "{threads} threads");
        }
    }

    fn explode(x: &mut u64) {
        if *x == 3 {
            panic!("step refused item {x}");
        }
    }

    #[test]
    #[should_panic(expected = "step refused item 3")]
    fn a_panicking_step_reraises_its_own_message() {
        let mut pool = Pool::new(2, explode);
        for i in 0..6 {
            pool.send(i);
        }
        for _ in 0..6 {
            pool.recv();
        }
    }

    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn gated(x: &mut u64) {
        let _open = GATE.lock();
        *x += 1;
    }

    #[test]
    fn dropping_a_pool_with_items_queued_joins_cleanly() {
        // Every worker blocks on the gate, so all 30 items are queued or
        // mid-step when the gate opens and the pool is dropped.
        let held = GATE.lock().expect("gate");
        let mut pool = Pool::new(3, gated);
        for i in 0..30 {
            pool.send(i);
        }
        drop(held);
        drop(pool);
    }
}
