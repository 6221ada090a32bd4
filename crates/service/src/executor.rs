//! A persistent fork-join pool for the service's parallel drain.
//!
//! [`ParallelExecutor::run_owned`] runs a batch of owned tasks on the
//! **calling thread plus `width − 1` persistent helper threads** — the
//! helpers are spawned lazily on the first parallel run, parked on a
//! condvar between runs, and joined when the executor drops. A drain is
//! therefore a *wake + claim + wait*, never a spawn + join: steady-state
//! flushes create no threads (the bench artifact's `pool_spawn_events`
//! field pins this).
//!
//! ## Fork-join
//!
//! A run is one shared atomic claim cursor over the run's task slots. The
//! caller publishes the run, bumps the pool's generation counter and wakes
//! the helpers once, then claims tasks itself as worker 0; every helper
//! that wakes claims from the same cursor until it runs dry. Once the
//! cursor is used up the caller waits only for tasks a helper has already
//! claimed. A helper the scheduler has not run yet finds the cursor used
//! up when it does wake and does nothing, so an unscheduled helper never
//! stalls a drain — and it never touches the next run, which has a cursor
//! of its own.
//!
//! Per-worker execution counts are published on the executor's
//! [`Registry`] (the per-worker-sharded `executor_tasks_executed`, cell 0
//! being the caller) next to the spawn and task totals, so tests and the
//! bench artifact can assert the accounting rather than trusting it. All
//! executor metrics are [`MetricClass::WallClock`]: how many tasks go
//! through the pool (versus the inline path) and which worker ran what
//! depend on the configured width and on scheduling, so none of them are
//! part of the deterministic snapshot the chaos replays compare.
//!
//! ## Determinism
//!
//! Results come back **in task order** regardless of which worker ran
//! what or in what order workers finished: task `i`'s result goes into
//! slot `i`, and the caller sees a plain `Vec<R>` aligned with its input.
//! Task execution itself must be independent (the service's per-context
//! sweep steps are — each touches one slot's data, captured at plan
//! time), and then the pool is invisible: 1 worker or N, the output is
//! byte-identical.
//!
//! ## Panics
//!
//! Every task runs under `catch_unwind`, so a panicking task still
//! completes its slot and the caller never hangs. The caller waits for
//! **all** of a run's tasks first, then re-raises the first panic in task
//! order — helpers stay parked and reusable, and no sibling task's work
//! is lost half-applied.
//!
//! ## Environment contract
//!
//! [`ParallelExecutor::from_env`] sizes the pool from [`THREADS_ENV`]
//! (`MCFPGA_THREADS`), resolved **once per process** and cached:
//!
//! * set to a positive integer `n` — the pool is `n` workers wide
//!   ([`ThreadSource::Env`]);
//! * unset — the machine's available parallelism
//!   ([`ThreadSource::Machine`]);
//! * set but empty, zero, negative or non-numeric — the value is **not**
//!   silently swallowed: the fallback (machine parallelism) is used and
//!   the rejected raw value is preserved in
//!   [`ThreadSource::EnvInvalid`], surfaced through
//!   [`ParallelExecutor::config`].
//!
//! The width is a pure throughput knob; it never changes results.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use mcfpga_telemetry::{Counter, MetricClass, Registry};

/// Environment variable overriding the worker-thread count
/// (`MCFPGA_THREADS=1` forces the inline path). See the
/// [module docs](self) for the full contract; the resolution is cached
/// process-wide on first use.
pub const THREADS_ENV: &str = "MCFPGA_THREADS";

/// Counter: times a helper pool was spawned. Stays at 1 after warmup.
pub const SPAWN_EVENTS_METRIC: &str = "executor_spawn_events";
/// Counter: total helper threads ever spawned (`width − 1` per spawn —
/// the caller is the pool's first worker).
pub const WORKERS_SPAWNED_METRIC: &str = "executor_workers_spawned";
/// Counter: tasks submitted through [`ParallelExecutor::run_owned`]
/// (inline and pooled).
pub const TASKS_TOTAL_METRIC: &str = "executor_tasks_total";
/// Sharded counter (one cell per worker, cell 0 the caller): pooled
/// tasks executed per worker — the work-distribution histogram.
pub const TASKS_EXECUTED_METRIC: &str = "executor_tasks_executed";

/// Spin iterations the caller polls for in-flight helper tasks before
/// blocking: a helper's last task often ends within a few microseconds,
/// sooner than a park/unpark round trip (on `cluster_batch` this short
/// spin cut eval time per drain by about 8% against blocking at once).
const WAIT_SPINS: u32 = 1 << 8;

/// Where an executor's width came from — the provenance half of
/// [`ExecutorConfig`], so "why is the pool this wide?" is answerable from
/// a running service instead of by re-deriving the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadSource {
    /// Parsed from a valid [`THREADS_ENV`] value.
    Env,
    /// [`THREADS_ENV`] was set but not a positive integer; the machine's
    /// available parallelism was used instead. The rejected raw value is
    /// kept so the misconfiguration is diagnosable.
    EnvInvalid {
        /// The value that failed to parse.
        raw: String,
    },
    /// [`THREADS_ENV`] unset; the machine's available parallelism.
    Machine,
    /// Explicitly requested ([`ParallelExecutor::new`] /
    /// `ShardedService::set_threads`).
    Explicit,
}

/// An executor's resolved width and its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Workers a parallel run fans out across, the caller included (≥ 1).
    pub threads: usize,
    /// How `threads` was decided.
    pub source: ThreadSource,
}

/// The executor's telemetry handles, registered under the
/// `executor_*` metric names on the registry handed to the
/// constructor. All wall-clock class: pool accounting depends on the
/// configured width and scheduling.
#[derive(Debug, Clone)]
struct ExecutorMetrics {
    spawn_events: Counter,
    workers_spawned: Counter,
    tasks_total: Counter,
    executed: Counter,
}

impl ExecutorMetrics {
    fn register(registry: &Registry, threads: usize) -> Self {
        ExecutorMetrics {
            spawn_events: registry.counter(SPAWN_EVENTS_METRIC, MetricClass::WallClock),
            workers_spawned: registry.counter(WORKERS_SPAWNED_METRIC, MetricClass::WallClock),
            tasks_total: registry.counter(TASKS_TOTAL_METRIC, MetricClass::WallClock),
            executed: registry.counter_sharded(
                TASKS_EXECUTED_METRIC,
                MetricClass::WallClock,
                threads,
            ),
        }
    }
}

/// A run as the helpers see it: claims and executes tasks as worker `w`
/// until the run's cursor is used up.
type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// One task slot: the owned task until a worker claims it, then the
/// (possibly panicked) result until the caller collects it.
enum Slot<T, R> {
    Task(T),
    Claimed,
    Done(std::thread::Result<R>),
}

fn lock<G>(m: &Mutex<G>) -> std::sync::MutexGuard<'_, G> {
    // nothing panics while holding a pool lock (tasks run unlocked and
    // under `catch_unwind`), so poisoning cannot carry a broken invariant
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One fork-join run: the task slots, the claim cursor and the completion
/// count the caller waits on.
struct Run<T, R, F> {
    f: F,
    /// Per-worker-sharded telemetry counter for executed tasks.
    executed: Counter,
    slots: Vec<Mutex<Slot<T, R>>>,
    next: AtomicUsize,
    done: AtomicUsize,
    done_lock: Mutex<()>,
    all_done: Condvar,
}

impl<T, R, F: Fn(T) -> R> Run<T, R, F> {
    /// Claims and runs tasks as worker `w` until the cursor is used up. A
    /// worker arriving after the last claim runs nothing.
    fn work(&self, w: usize) {
        loop {
            // the cursor publishes nothing: tasks and results travel
            // under the slot mutexes
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.slots.get(i) else {
                return;
            };
            let Slot::Task(task) = std::mem::replace(&mut *lock(slot), Slot::Claimed) else {
                unreachable!("the cursor hands out task {i} once");
            };
            let result = catch_unwind(AssertUnwindSafe(|| (self.f)(task)));
            *lock(slot) = Slot::Done(result);
            // counted before the completion, so the caller reads it: this
            // release pairs with the acquire load in `wait`
            self.executed.add_to(w, 1);
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.slots.len() {
                // taking the lock orders this notify after the caller's
                // check-then-wait, so the wakeup cannot be lost
                drop(lock(&self.done_lock));
                self.all_done.notify_one();
            }
        }
    }

    /// Blocks until every task has finished.
    fn wait(&self) {
        let finished = || self.done.load(Ordering::Acquire) == self.slots.len();
        for _ in 0..WAIT_SPINS {
            if finished() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = lock(&self.done_lock);
        while !finished() {
            guard = self
                .all_done
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// What the caller shares with the helpers: the current run and the
/// generation counter that announces it.
struct PoolState {
    generation: u64,
    job: Option<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    wake: Condvar,
}

/// The persistent helper threads. Dropping the pool joins them.
struct Helpers {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl Helpers {
    /// Spawns `count` helpers, workers `1..=count` (the caller is 0).
    fn spawn(count: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let handles = (1..=count)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mcfpga-worker-{w}"))
                    .spawn(move || Self::helper_loop(w, &shared))
                    .expect("spawning a pool helper thread")
            })
            .collect();
        Helpers { shared, handles }
    }

    /// Publishes `job` as the current run and wakes up to `wanted`
    /// helpers. A helper not parked right now sees the new generation the
    /// next time it checks, so no wakeup is lost.
    fn start(&self, job: Job, wanted: usize) {
        let mut st = lock(&self.shared.state);
        st.generation += 1;
        st.job = Some(job);
        drop(st);
        for _ in 0..wanted.min(self.handles.len()) {
            self.shared.wake.notify_one();
        }
    }

    fn helper_loop(w: usize, shared: &PoolShared) {
        let mut seen = 0;
        loop {
            let job = {
                let mut st = lock(&shared.state);
                while st.generation == seen && !st.shutdown {
                    st = shared
                        .wake
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                if st.shutdown {
                    return;
                }
                seen = st.generation;
                st.job.clone()
            };
            if let Some(job) = job {
                job(w);
            }
        }
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The service's parallel runtime: a resolved width plus a lazily spawned
/// persistent [fork-join pool](self). See the [module docs](self).
pub struct ParallelExecutor {
    config: ExecutorConfig,
    helpers: Option<Helpers>,
    registry: Registry,
    metrics: ExecutorMetrics,
}

impl ParallelExecutor {
    /// An executor `threads` workers wide (clamped to at least 1), source
    /// [`ThreadSource::Explicit`], publishing into its own private
    /// [`Registry`]. No thread is spawned here — the helpers appear on
    /// the first run that can use them.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::new_on(threads, &Registry::new())
    }

    /// Like [`new`](ParallelExecutor::new), but publishing the
    /// `executor_*` metrics on `registry` — replacing (and zeroing) any
    /// previous executor's registrations there, which is exactly the
    /// reset `ShardedService::set_threads` wants.
    #[must_use]
    pub fn new_on(threads: usize, registry: &Registry) -> Self {
        Self::with_config(
            ExecutorConfig {
                threads: threads.max(1),
                source: ThreadSource::Explicit,
            },
            registry.clone(),
        )
    }

    /// An executor sized from the environment — see the
    /// [module docs](self) for the `MCFPGA_THREADS` contract. The
    /// variable is read and validated **once per process**; every later
    /// call reuses the cached resolution (so a mid-run `set_var` cannot
    /// make two services disagree about the machine's width).
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_env_on(&Registry::new())
    }

    /// Like [`from_env`](ParallelExecutor::from_env), but publishing the
    /// `executor_*` metrics on `registry`.
    #[must_use]
    pub fn from_env_on(registry: &Registry) -> Self {
        static RESOLVED: OnceLock<ExecutorConfig> = OnceLock::new();
        let config = RESOLVED
            .get_or_init(|| resolve(std::env::var(THREADS_ENV).ok().as_deref()))
            .clone();
        Self::with_config(config, registry.clone())
    }

    fn with_config(config: ExecutorConfig, registry: Registry) -> Self {
        let metrics = ExecutorMetrics::register(&registry, config.threads);
        ParallelExecutor {
            config,
            helpers: None,
            registry,
            metrics,
        }
    }

    /// The configured worker count, the caller included.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// The resolved width and where it came from — including the rejected
    /// raw value when `MCFPGA_THREADS` was set but invalid.
    #[must_use]
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// The registry this executor publishes its `executor_*` counters
    /// on. Read pool accounting from here (e.g.
    /// `registry().counter_value(`[`SPAWN_EVENTS_METRIC`]`)` or the
    /// per-worker cells of [`TASKS_EXECUTED_METRIC`]).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A clone that shares the configuration but never the helpers or the
    /// metrics: it publishes fresh zeroed `executor_*` metrics on
    /// `registry` and spawns its own helpers on first parallel use (shared
    /// helpers would entangle two services' runs). What a restarted node
    /// keeps of its executor ([`crate::ShardedService::fresh_like`]).
    #[must_use]
    pub fn clone_on(&self, registry: &Registry) -> Self {
        Self::with_config(self.config.clone(), registry.clone())
    }

    /// Runs every task through `f` and returns the results **in task
    /// order**. With one configured worker or at most one task the whole
    /// batch runs inline on the caller's thread — the inline path and the
    /// pooled path execute the same `f` on the same data, so width-1 *is*
    /// the sequential execution, not an approximation of it. Otherwise the
    /// caller wakes the persistent helpers (spawned on first use), claims
    /// tasks alongside them from one shared cursor, and returns once every
    /// task has finished.
    ///
    /// # Panics
    /// Re-raises the first panicking task (in task order) — but only
    /// after **all** tasks of this run have finished, so no task is left
    /// mid-flight and the pool stays reusable.
    pub fn run_owned<T, R, F>(&mut self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        self.metrics.tasks_total.add(tasks.len() as u64);
        if self.config.threads <= 1 || tasks.len() <= 1 {
            return tasks.into_iter().map(f).collect();
        }
        let metrics = &self.metrics;
        let helpers = self.helpers.get_or_insert_with(|| {
            let count = self.config.threads - 1;
            metrics.spawn_events.inc();
            metrics.workers_spawned.add(count as u64);
            Helpers::spawn(count)
        });
        let n = tasks.len();
        let run = Arc::new(Run {
            f,
            executed: metrics.executed.clone(),
            slots: tasks
                .into_iter()
                .map(|t| Mutex::new(Slot::Task(t)))
                .collect(),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            all_done: Condvar::new(),
        });
        let job = Arc::clone(&run);
        helpers.start(Arc::new(move |w| job.work(w)), n - 1);
        run.work(0);
        run.wait();
        let mut out = Vec::with_capacity(n);
        let mut first_panic = None;
        for slot in &run.slots {
            match std::mem::replace(&mut *lock(slot), Slot::Claimed) {
                Slot::Done(Ok(r)) => out.push(r),
                Slot::Done(Err(panic)) => {
                    first_panic.get_or_insert(panic);
                }
                _ => unreachable!("every task finished before the wait returned"),
            }
        }
        if let Some(panic) = first_panic {
            resume_unwind(panic);
        }
        out
    }

    /// A weak handle on the pool's shared state, for lifecycle tests:
    /// once the executor drops, a failed upgrade proves every helper
    /// (each holding a strong count) has exited.
    #[cfg(test)]
    fn pool_probe(&self) -> Option<std::sync::Weak<PoolShared>> {
        self.helpers.as_ref().map(|h| Arc::downgrade(&h.shared))
    }
}

/// Pure resolution of a raw `MCFPGA_THREADS` value — split from the env
/// read so the contract is unit-testable without process-global state.
fn resolve(raw: Option<&str>) -> ExecutorConfig {
    let machine = || {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    };
    match raw {
        None => ExecutorConfig {
            threads: machine(),
            source: ThreadSource::Machine,
        },
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => ExecutorConfig {
                threads: n,
                source: ThreadSource::Env,
            },
            _ => ExecutorConfig {
                threads: machine(),
                source: ThreadSource::EnvInvalid {
                    raw: raw.to_string(),
                },
            },
        },
    }
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::from_env()
    }
}

impl std::fmt::Debug for ParallelExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelExecutor")
            .field("config", &self.config)
            .field("pool_spawned", &self.helpers.is_some())
            .field(
                "tasks_total",
                &self.registry.counter_value(TASKS_TOTAL_METRIC),
            )
            .finish()
    }
}

// the executor moves across threads inside its `ShardedService` and test
// harnesses; a future non-Send field must fail the build
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ParallelExecutor>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    /// Upper bound on any wait inside a test task: a broken pool fails
    /// the test instead of hanging it.
    const TIMEOUT: Duration = Duration::from_secs(10);

    fn counter(exec: &ParallelExecutor, name: &str) -> u64 {
        exec.registry()
            .counter_value(name)
            .expect("executor metric registered")
    }

    /// Blocks until `cond` holds on the shared value or [`TIMEOUT`]
    /// passes; returns whether it held.
    fn wait_for(pair: &(Mutex<usize>, Condvar), cond: impl Fn(usize) -> bool) -> bool {
        let (m, cv) = pair;
        let deadline = Instant::now() + TIMEOUT;
        let mut v = m.lock().unwrap();
        while !cond(*v) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            v = cv.wait_timeout(v, left).unwrap().0;
        }
        true
    }

    #[test]
    fn results_come_back_in_task_order_at_any_width() {
        for threads in [1, 2, 3, 4, 8] {
            let mut exec = ParallelExecutor::new(threads);
            let out = exec.run_owned((0..23).collect(), |x: usize| x * 10);
            assert_eq!(
                out,
                (0..23).map(|i| i * 10).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn zero_threads_clamps_and_empty_input_is_fine() {
        let mut exec = ParallelExecutor::new(0);
        assert_eq!(exec.threads(), 1);
        let out = exec.run_owned(Vec::new(), |x: usize| x);
        assert!(out.is_empty());
    }

    /// The caller is worker 0: every helper task blocks until the
    /// caller's thread has run a task of its own, so the run completes
    /// only if the caller claims work instead of just waiting.
    #[test]
    fn the_caller_runs_tasks() {
        let mut exec = ParallelExecutor::new(2);
        let caller = std::thread::current().id();
        let ran = Arc::new((Mutex::new(0usize), Condvar::new()));
        let r = Arc::clone(&ran);
        let out = exec.run_owned((0..4).collect(), move |i: usize| {
            if std::thread::current().id() == caller {
                *r.0.lock().unwrap() += 1;
                r.1.notify_all();
            } else {
                assert!(wait_for(&r, |n| n > 0), "the caller never ran a task");
            }
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
        let cells = exec
            .registry()
            .counter_cells(TASKS_EXECUTED_METRIC)
            .unwrap();
        assert!(cells[0] > 0, "cell 0 is the caller: {cells:?}");
        assert_eq!(cells.iter().sum::<u64>(), 4);
    }

    /// A run of `width` tasks that each wait until all `width` have
    /// started completes only if the caller and every helper run one at
    /// the same time. The wait times out, so a pool that serializes fails
    /// instead of hanging.
    #[test]
    fn helpers_run_tasks_concurrently() {
        for width in [2, 4] {
            let mut exec = ParallelExecutor::new(width);
            let arrived = Arc::new((Mutex::new(0usize), Condvar::new()));
            let a = Arc::clone(&arrived);
            let met = exec.run_owned((0..width).collect(), move |_: usize| {
                *a.0.lock().unwrap() += 1;
                a.1.notify_all();
                wait_for(&a, |n| n == width)
            });
            assert!(met.iter().all(|&m| m), "width {width}: {met:?}");
            assert_eq!(
                exec.registry().counter_cells(TASKS_EXECUTED_METRIC),
                Some(vec![1; width]),
                "width {width}: one task per worker"
            );
        }
    }

    /// Back-to-back 2-task runs: a helper that wakes late for run `k`
    /// must find run `k`'s cursor used up, never execute a task after the
    /// run returned, and never run a task of run `k + 1` twice.
    #[test]
    fn a_late_helper_never_touches_the_next_run() {
        let mut exec = ParallelExecutor::new(2);
        let current = Arc::new(AtomicU64::new(0));
        let stray = Arc::new(AtomicU64::new(0));
        for round in 0..10_000u64 {
            current.store(round, Ordering::SeqCst);
            let (c, s) = (Arc::clone(&current), Arc::clone(&stray));
            let out = exec.run_owned(vec![2 * round, 2 * round + 1], move |v: u64| {
                if c.load(Ordering::SeqCst) != v / 2 {
                    s.fetch_add(1, Ordering::SeqCst);
                }
                v
            });
            assert_eq!(out, vec![2 * round, 2 * round + 1]);
        }
        assert_eq!(
            stray.load(Ordering::SeqCst),
            0,
            "a task ran outside its run"
        );
        assert_eq!(counter(&exec, TASKS_EXECUTED_METRIC), 20_000);
        assert_eq!(counter(&exec, SPAWN_EVENTS_METRIC), 1);
    }

    /// Pool lifecycle: 1,000 runs spawn exactly one pool (no thread
    /// leak — helper creation only ever happens inside a spawn event).
    #[test]
    fn a_thousand_runs_reuse_one_pool() {
        let mut exec = ParallelExecutor::new(3);
        for round in 0..1_000 {
            let out = exec.run_owned((round..round + 4).collect(), |x: usize| x);
            assert_eq!(out, (round..round + 4).collect::<Vec<_>>());
        }
        assert_eq!(
            counter(&exec, SPAWN_EVENTS_METRIC),
            1,
            "drains must reuse the pool"
        );
        assert_eq!(
            counter(&exec, WORKERS_SPAWNED_METRIC),
            2,
            "3 wide = caller + 2"
        );
        assert_eq!(counter(&exec, TASKS_TOTAL_METRIC), 4_000);
        assert_eq!(counter(&exec, TASKS_EXECUTED_METRIC), 4_000);
    }

    /// Dropping the executor joins every helper: the helpers are the only
    /// strong holders of the shared state once the pool struct drops, so
    /// a dead weak handle proves they all exited.
    #[test]
    fn drop_joins_all_workers() {
        let mut exec = ParallelExecutor::new(4);
        exec.run_owned((0..8).collect(), |x: usize| x);
        let probe = exec.pool_probe().expect("pool spawned");
        drop(exec);
        assert!(
            probe.upgrade().is_none(),
            "a helper outlived the executor drop"
        );
    }

    /// A panicking task is re-raised — only after every other task of the
    /// run finished, so the pool survives and the next run works.
    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let mut exec = ParallelExecutor::new(4);
        let finished = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&finished);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.run_owned((0..8).collect(), move |i: usize| {
                assert!(i != 2, "task 2 dies");
                std::thread::sleep(Duration::from_millis(2));
                f.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            7,
            "the panic surfaced before its siblings finished"
        );
        let out = exec.run_owned((0..4).collect(), |x: usize| x);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(
            counter(&exec, SPAWN_EVENTS_METRIC),
            1,
            "no respawn after a panic"
        );
    }

    #[test]
    fn inline_path_runs_on_caller_thread_without_a_pool() {
        let mut exec = ParallelExecutor::new(1);
        let caller = std::thread::current().id();
        let out = exec.run_owned((0..5).collect(), move |i: usize| {
            assert_eq!(std::thread::current().id(), caller);
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(
            counter(&exec, SPAWN_EVENTS_METRIC),
            0,
            "width 1 never spawns"
        );
        // a single task also stays inline at any width
        let mut wide = ParallelExecutor::new(8);
        wide.run_owned(vec![7usize], |x| x);
        assert_eq!(counter(&wide, SPAWN_EVENTS_METRIC), 0);
    }

    #[test]
    fn clone_shares_config_but_not_pool_or_metrics() {
        let mut exec = ParallelExecutor::new(2);
        exec.run_owned((0..4).collect(), |x: usize| x);
        assert_eq!(counter(&exec, SPAWN_EVENTS_METRIC), 1);
        let clone = exec.clone_on(&Registry::new());
        assert_eq!(clone.config(), exec.config());
        assert_eq!(counter(&clone, SPAWN_EVENTS_METRIC), 0);
        assert_eq!(counter(&clone, TASKS_TOTAL_METRIC), 0);
    }

    /// `clone_on` re-homes the clone's metrics, replacing (and zeroing)
    /// any executor metrics previously registered on that registry.
    #[test]
    fn clone_on_replaces_metrics_on_the_target_registry() {
        let registry = Registry::new();
        let mut first = ParallelExecutor::new_on(2, &registry);
        first.run_owned((0..4).collect(), |x: usize| x);
        assert_eq!(registry.counter_value(TASKS_TOTAL_METRIC), Some(4));
        let _second = first.clone_on(&registry);
        assert_eq!(
            registry.counter_value(TASKS_TOTAL_METRIC),
            Some(0),
            "re-registration zeroes the registry's view"
        );
    }

    #[test]
    fn env_resolution_contract() {
        let explicit = ParallelExecutor::new(5);
        assert_eq!(
            *explicit.config(),
            ExecutorConfig {
                threads: 5,
                source: ThreadSource::Explicit
            }
        );
        assert_eq!(
            resolve(Some("8")),
            ExecutorConfig {
                threads: 8,
                source: ThreadSource::Env
            }
        );
        assert_eq!(
            resolve(Some(" 16 ")).threads,
            16,
            "whitespace-tolerant parse"
        );
        assert_eq!(resolve(None).source, ThreadSource::Machine);
        for bad in ["0", "-3", "lots", "", "4.5"] {
            let cfg = resolve(Some(bad));
            assert_eq!(
                cfg.source,
                ThreadSource::EnvInvalid {
                    raw: bad.to_string()
                },
                "invalid value {bad:?} must be surfaced, not swallowed"
            );
            assert!(cfg.threads >= 1);
        }
    }
}
