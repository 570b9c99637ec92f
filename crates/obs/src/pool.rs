//! One pool for spare cores.
//!
//! Helpers come from one process-wide budget of
//! `available_parallelism() − 1` slots, leased without waiting, so
//! callers that fan out at the same time (suite workers, `mlpa-serve`
//! workers, a BIC sweep beside a benchmark's config lanes, a plan
//! execution's cache stage) share the spare cores instead of
//! multiplying threads. Two primitives draw on it:
//!
//! * [`run`] runs a fixed list of independent tasks on the calling
//!   thread plus helper threads. With no free slot (one core, or every
//!   slot held) the calling thread runs every task itself, in task
//!   order, and no thread is spawned. Tasks are claimed in index order;
//!   the calling thread always runs task 0, and helpers claim the rest
//!   as they start.
//! * [`with_helper`] leases at most one slot for a caller that pipelines
//!   work to one long-lived task beside its own thread (warmed plan
//!   execution's cache stage). With no free slot the caller gets `None`
//!   and does that work itself.
//!
//! A helper adopts the calling thread's innermost open span as its own
//! parent, so the spans a task opens have the same parent — and the
//! self-profile tree the same edges — whichever thread ran it. A
//! helper's panic is re-raised on the calling thread, with its payload,
//! and its slot is back in the budget by then.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{Scope, ScopedJoinHandle};

/// Run tasks `0..tasks` and return their results in task order.
///
/// Each worker builds its own state with `init` once and passes it to
/// every task it claims, so per-worker scratch buffers are reused
/// across tasks. `workers` picks the pool size: `None` is the calling
/// thread plus as many helpers as the process-wide budget has free (at
/// most `tasks − 1`, returned when the call ends, unwinding included);
/// `Some(n)` is exactly `n` workers whatever the budget says, for tests
/// that pin a worker count. Results do not depend on which worker ran a
/// task as long as each task is a pure function of its index.
///
/// # Panics
///
/// Re-raises the panic of any task.
///
/// # Example
///
/// ```
/// let squares = mlpa_obs::pool::run(None, 5, || (), |_, i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn run<S, R: Send>(
    workers: Option<usize>,
    tasks: usize,
    init: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    // More helpers than tasks would find nothing to claim.
    let want = tasks.saturating_sub(1);
    let (helpers, _lease) = match workers {
        Some(n) => (n.saturating_sub(1).min(want), None),
        None => {
            let lease = helper_budget().lease(want);
            (lease.n, Some(lease))
        }
    };
    // Relaxed suffices: the counter only hands out distinct indices, and
    // results reach the calling thread through the joins.
    let next = AtomicUsize::new(0);
    // One worker: runs task `i`, then claims the next until none is left.
    let work = |mut i: usize| {
        let mut state = init();
        let mut done = Vec::new();
        while i < tasks {
            done.push((i, task(&mut state, i)));
            i = next.fetch_add(1, Ordering::Relaxed);
        }
        done
    };
    let parent = crate::current_span();
    let done = std::thread::scope(|s| {
        // Task 0 is the calling thread's, claimed before any helper starts.
        let first = next.fetch_add(1, Ordering::Relaxed);
        let handles: Vec<_> = (0..helpers)
            .map(|_| {
                s.spawn(|| {
                    let _adopted = crate::adopt_span(parent);
                    work(next.fetch_add(1, Ordering::Relaxed))
                })
            })
            .collect();
        let mut done = work(first);
        for h in handles {
            done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    let mut slots: Vec<Option<R>> = (0..tasks).map(|_| None).collect();
    for (i, r) in done {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every task index is claimed exactly once")).collect()
}

/// Run `lead` on the calling thread with at most one helper thread
/// beside it, and return what `lead` returns.
///
/// `lead` gets a [`Helper`] to start one task on, or `None` when there
/// is no helper, and must then do the task's work itself. `workers`
/// picks as [`run`]'s does: `None` leases one slot from the process-wide
/// budget if one is free; `Some(n)` gives a helper exactly when `n ≥ 2`,
/// whatever the budget says, for tests that pin the schedule. The slot
/// returns to the budget when the task ends, unwinding included.
///
/// # Example
///
/// ```
/// let sum = mlpa_obs::pool::with_helper(None, |helper| match helper {
///     Some(h) => h.spawn(|| (1..=10).sum::<u32>()).join(),
///     None => (1..=10).sum(),
/// });
/// assert_eq!(sum, 55);
/// ```
pub fn with_helper<'env, T>(
    workers: Option<usize>,
    lead: impl for<'scope> FnOnce(Option<Helper<'scope, 'env>>) -> T,
) -> T {
    with_helper_from(helper_budget(), workers, lead)
}

/// [`with_helper`] drawing on `budget`.
fn with_helper_from<'env, T>(
    budget: &'env HelperBudget,
    workers: Option<usize>,
    lead: impl for<'scope> FnOnce(Option<Helper<'scope, 'env>>) -> T,
) -> T {
    let lease = match workers {
        Some(n) => (n >= 2).then_some(None),
        None => Some(budget.lease(1)).filter(|l| l.n == 1).map(Some),
    };
    let parent = crate::current_span();
    std::thread::scope(|scope| lead(lease.map(|lease| Helper { scope, lease, parent })))
}

/// A helper thread granted by [`with_helper`], not yet started.
pub struct Helper<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    /// The budget slot, or `None` when the schedule was forced.
    lease: Option<Lease<'env>>,
    parent: crate::SpanParent,
}

impl<'scope> Helper<'scope, '_> {
    /// Start `task` on the helper thread.
    pub fn spawn<R: Send + 'scope>(
        self,
        task: impl FnOnce() -> R + Send + 'scope,
    ) -> HelperTask<'scope, R> {
        let Helper { scope, lease, parent } = self;
        HelperTask(scope.spawn(move || {
            // Dropped when the task ends, unwinding included, so the
            // slot is free again before `join` returns.
            let _lease = lease;
            let _adopted = crate::adopt_span(parent);
            task()
        }))
    }
}

/// A task running on a [`Helper`].
pub struct HelperTask<'scope, R>(ScopedJoinHandle<'scope, R>);

impl<R> HelperTask<'_, R> {
    /// Wait for the task to end and return its result.
    ///
    /// # Panics
    ///
    /// Re-raises the task's panic with its payload.
    pub fn join(self) -> R {
        self.0.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
    }
}

/// The process-wide helper budget: one slot per available core beyond
/// the calling thread's, sized on first use.
fn helper_budget() -> &'static HelperBudget {
    static BUDGET: OnceLock<HelperBudget> = OnceLock::new();
    BUDGET.get_or_init(|| {
        HelperBudget::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get) - 1)
    })
}

/// A fixed number of helper-thread slots shared by concurrent pools.
struct HelperBudget {
    size: usize,
    used: AtomicUsize,
}

impl HelperBudget {
    fn new(size: usize) -> HelperBudget {
        HelperBudget { size, used: AtomicUsize::new(0) }
    }

    /// Take up to `want` free slots without waiting; they return to the
    /// budget when the lease drops, unwinding included.
    fn lease(&self, want: usize) -> Lease<'_> {
        let free = |used: usize| want.min(self.size - used);
        let n = self
            .used
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
                (free(used) > 0).then(|| used + free(used))
            })
            .map_or(0, free);
        Lease { budget: self, n }
    }
}

/// `n` slots held from a [`HelperBudget`].
struct Lease<'a> {
    budget: &'a HelperBudget,
    n: usize,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.budget.used.fetch_sub(self.n, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order_at_every_worker_count() {
        for workers in [None, Some(1), Some(2), Some(3), Some(8)] {
            let out = run(workers, 7, || (), |_, i| 10 * i);
            assert_eq!(out, [0, 10, 20, 30, 40, 50, 60], "{workers:?}");
        }
        assert!(run(Some(4), 0, || (), |_, i| i).is_empty());
    }

    #[test]
    fn one_worker_runs_every_task_on_the_calling_thread_with_one_state() {
        let me = std::thread::current().id();
        let out = run(Some(1), 4, Vec::new, |seen: &mut Vec<usize>, i| {
            seen.push(i);
            (std::thread::current().id(), seen.clone())
        });
        for (i, (id, seen)) in out.into_iter().enumerate() {
            assert_eq!(id, me);
            assert_eq!(seen, (0..=i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_helpers_panic_surfaces_on_the_calling_thread() {
        let claimed = AtomicUsize::new(0);
        let payload = std::panic::catch_unwind(|| {
            run(
                Some(2),
                2,
                || (),
                |_, i| {
                    claimed.fetch_add(1, Ordering::SeqCst);
                    // Task 0 holds the calling thread until task 1 has
                    // started, so task 1 runs on the helper.
                    while claimed.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                    if i == 1 {
                        panic!("task {i} failed");
                    }
                    i
                },
            )
        })
        .expect_err("a task panicked");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("task 1 failed"));
    }

    #[test]
    fn budget_never_hands_out_more_than_its_size() {
        let budget = HelperBudget::new(3);
        let a = budget.lease(2);
        let b = budget.lease(5);
        assert_eq!((a.n, b.n, budget.lease(1).n), (2, 1, 0));
        drop(a);
        assert_eq!(budget.lease(5).n, 2);
        drop(b);
        // Under contention, the slots held at once never exceed the size.
        let held = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (budget, held) = (&budget, &held);
                s.spawn(move || {
                    for i in 0..2_000 {
                        let lease = budget.lease(1 + (t + i) % 3);
                        let now = held.fetch_add(lease.n, Ordering::SeqCst) + lease.n;
                        assert!(now <= 3, "{now} of 3 slots held");
                        held.fetch_sub(lease.n, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(budget.lease(5).n, 3);
    }

    #[test]
    fn with_helper_forced_schedules_and_budget_leases() {
        let me = std::thread::current().id();
        let on_helper = |workers| {
            with_helper(workers, |helper| {
                helper.map(|h| h.spawn(|| std::thread::current().id()).join() != me)
            })
        };
        assert_eq!(on_helper(Some(1)), None);
        assert_eq!(on_helper(Some(2)), Some(true));
        let budget = HelperBudget::new(1);
        let held = budget.lease(1);
        assert!(with_helper_from(&budget, None, |h| h.is_none()), "every slot is held");
        drop(held);
        assert!(with_helper_from(&budget, None, |h| h.is_some()));
        assert_eq!(budget.lease(1).n, 1, "the slot came back");
        assert!(with_helper_from(&HelperBudget::new(0), None, |h| h.is_none()), "one core");
    }

    #[test]
    fn a_helper_tasks_panic_reaches_the_caller_and_frees_its_slot() {
        let budget = HelperBudget::new(1);
        let payload = std::panic::catch_unwind(|| {
            with_helper_from(&budget, None, |helper| {
                let task = helper.expect("a free slot").spawn(|| -> u8 { panic!("stage failed") });
                task.join()
            })
        })
        .expect_err("the task panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"stage failed"));
        assert_eq!(budget.lease(1).n, 1, "the slot came back");
    }

    #[test]
    fn panicking_worker_returns_its_slot() {
        let budget = HelperBudget::new(2);
        // The shape of `run`: the lease lives in the frame that joins
        // the helpers, so a helper's panic unwinds through it.
        let unwound = std::panic::catch_unwind(|| {
            let helpers = budget.lease(2);
            std::thread::scope(|s| {
                for _ in 0..helpers.n {
                    s.spawn(|| panic!("sweep worker failed"));
                }
            });
        });
        assert!(unwound.is_err());
        assert_eq!(budget.lease(2).n, 2);
    }
}
