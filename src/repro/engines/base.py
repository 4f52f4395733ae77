"""The execution skeleton the three GPU search engines share.

All engines implement the same contract: ``search(queries, d)`` returns a
``(ResultSet, profile)`` pair — the exact result set plus the execution
record the cost model turns into modeled response time.

The paper gives its GPU schemes one skeleton, and it is written once, in
:meth:`GpuEngineBase._search_once`:

* one query segment per GPU thread (load balancing, §IV);
* a fixed-capacity device result buffer filled through atomic appends;
* *incremental processing* (§V-D/V-E): the host invokes the kernel,
  drains the buffer, and re-invokes it for the queries that could not
  publish, until none is left.

A scheme is what distinguishes it in the paper, three hooks:

* :meth:`GpuEngineBase._host_plan` — what the host does before the first
  launch: sort ``Q`` and compute a schedule (Algorithms 2-3), or nothing
  (Algorithm 1);
* :meth:`GpuEngineBase._thread_work` — which candidates each live thread
  refines in one invocation, what the gather cost, and which threads
  terminated on a full candidate slice ``U_k``;
* :meth:`GpuEngineBase._resubmit_limit` — which of the unpublished
  queries the host resubmits, and when it gives up.

The defaults are the two binned schemes' (Algorithms 2-3), which differ
only in the index that builds their :class:`~repro.indexes.Schedule`:
GPUSpatioTemporal's starts from GPUTemporal's and overrides the queries
its subbins serve.  GPUSpatial overrides all three.

Within one invocation the model completes queries in thread-id order
(first-fit): a deterministic idealization of the hardware's nondeterministic
atomic interleaving.  A query's results are published all-or-nothing so a
re-processed query never double-reports.
"""

from __future__ import annotations

import abc
import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.distance import (BinGrid, compare_pairs, magnitude,
                             surviving_bin_pairs, surviving_pairs)
from ..core.ranges import expand_ranges, range_offsets
from ..core.result import ResultSet
from ..core.types import SegmentArray
from ..gpu.device import VirtualGPU
from ..gpu.kernel import KernelLauncher, LaunchSpec
from ..gpu.profiler import CpuSearchProfile, SearchProfile
from ..indexes.spatiotemporal import SpatioTemporalIndex
from ..indexes.temporal import Schedule, TemporalIndex
from ..obs.telemetry import current as current_telemetry
from .config import EngineConfig

__all__ = ["SearchEngine", "GpuEngineBase", "HostPlan", "NO_RETRY",
           "RangeBatch", "RetryPolicy", "ThreadWork", "ResultBufferOverflowError",
           "KernelInvocationLimitError", "Deadline",
           "DeadlineExceededError", "current_deadline", "deadline_scope",
           "Refined", "refine", "run_bounds", "surviving_rows",
           "first_fit_accept",
           "index_build_phase"]


@contextmanager
def index_build_phase(engine_name: str):
    """Observe one offline index build: a span plus a wall-seconds
    histogram sample, both no-ops without ambient telemetry."""
    telemetry = current_telemetry()
    wall0 = time.perf_counter()
    with telemetry.span("index.build", engine=engine_name):
        yield
    telemetry.metrics.histogram(
        "repro_index_build_seconds",
        "offline index build wall seconds").observe(
        time.perf_counter() - wall0, engine=engine_name)

#: Upper bound on the candidate pairs of one run of threads (see
#: :func:`refine`); keeps peak host memory flat independent of the
#: workload.
MAX_PAIRS_PER_CHUNK = 1 << 21

#: Bytes per query segment shipped host->device (8 coords + 2 ids, f64/i64).
QUERY_ITEM_BYTES = 80

#: Device bytes per result item: 2 x int64 ids + 2 x float64 interval
#: bounds.  The result buffer's capacity is its ledger entry over this.
RESULT_ITEM_BYTES = 32

#: Safety valve: a pathological configuration (e.g. a buffer smaller than a
#: single query's output) would otherwise loop forever.
MAX_KERNEL_INVOCATIONS = 256


class ResultBufferOverflowError(RuntimeError):
    """A single query's output cannot fit the device result buffer.

    Without intervention the incremental loop would burn invocations
    without progress; the engine surfaces the condition immediately.
    ``required_items`` is the smallest buffer capacity that would let the
    stuck query publish — the retry policy grows the buffer to at least
    that size before trying again.
    """

    def __init__(self, message: str, *, required_items: int) -> None:
        super().__init__(message)
        self.required_items = int(required_items)


class KernelInvocationLimitError(RuntimeError):
    """The incremental loop hit ``MAX_KERNEL_INVOCATIONS``.

    Reaching the limit means the result buffer is far too small for the
    workload (every invocation drains only a sliver of the output); the
    retry policy treats it like an overflow and grows the buffer.
    """

    def __init__(self, message: str, *, required_items: int) -> None:
        super().__init__(message)
        self.required_items = int(required_items)


class DeadlineExceededError(RuntimeError):
    """A request's deadline budget ran out before the work completed."""


@dataclass(frozen=True)
class Deadline:
    """A wall-clock budget propagated from the service into retry loops.

    The service opens a :func:`deadline_scope` around a request; any
    retry loop underneath consults :func:`current_deadline` instead of
    keeping a private wall deadline, so one request-level budget bounds
    the whole ladder of attempts (engine retries *and* failover hops).
    """

    expires_at: float  # time.monotonic() instant

    @classmethod
    def after(cls, budget_s: float) -> "Deadline":
        return cls(time.monotonic() + budget_s)

    def remaining_s(self) -> float:
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining_s() <= 0.0


#: ambient request deadline; None means "no budget in force".
_DEADLINE: ContextVar[Deadline | None] = ContextVar(
    "repro_request_deadline", default=None)


def current_deadline() -> Deadline | None:
    """The ambient request :class:`Deadline`, if one is in force."""
    return _DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Deadline | None):
    """Make ``deadline`` the ambient budget for the enclosed block."""
    token = _DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _DEADLINE.reset(token)


#: factor a failed attempt grows the result buffer by.
RETRY_GROWTH_FACTOR = 4.0
#: wall-second retry budget when no request deadline is in force.
RETRY_DEADLINE_S = 60.0
#: backoff jitter fraction: attempt n waits
#: ``backoff_s * 2**(n-1) * (1 + RETRY_JITTER * u_n)`` with ``u_n`` a
#: deterministic uniform draw — reproducible, but desynchronized
#: across concurrent retriers like real jitter.
RETRY_JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy for the incremental overflow loop.

    When a search fails on result-buffer pressure
    (:class:`ResultBufferOverflowError` /
    :class:`KernelInvocationLimitError`), the engine grows
    ``result_buffer_items`` by ``RETRY_GROWTH_FACTOR`` (at least to the
    failing query's required size) and retries — instead of looping all
    the way to ``MAX_KERNEL_INVOCATIONS`` or failing a request a larger
    buffer would serve.  Retries stop after ``max_attempts`` total
    attempts or once the deadline budget is exhausted — the ambient
    request :class:`Deadline` when the service set one, else
    ``RETRY_DEADLINE_S`` wall seconds from the first attempt.  Only an
    expired request deadline raises :class:`DeadlineExceededError` (a
    budget problem, not the device's); the other stops re-raise the
    overflow.

    ``backoff_s`` > 0 spaces retries with exponential backoff plus
    deterministic jitter (``RETRY_JITTER``) on the *modeled* clock: no
    real sleeping happens (retrying a simulated device is instant), but
    the wait is charged to the profile's ``backoff_s`` so modeled
    response time and lane occupancy reflect it — replacing the
    previous sleep-free busy re-invocation that under-reported retry
    cost.
    """

    max_attempts: int = 4
    #: base modeled backoff before the second attempt; doubles per
    #: retry.  0.0 = immediate re-invocation (the historical behavior).
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")

    def backoff_for(self, attempt: int) -> float:
        """Modeled seconds to wait after failed attempt ``attempt``
        (1-based).  Deterministic: same attempt number, same wait."""
        if self.backoff_s <= 0.0:
            return 0.0
        u = random.Random(attempt).random()
        return self.backoff_s * 2.0 ** (attempt - 1) \
            * (1.0 + RETRY_JITTER * u)


#: retry disabled: one attempt, errors surface immediately.
NO_RETRY = RetryPolicy(max_attempts=1)


class SearchEngine(abc.ABC):
    """A distance-threshold search engine bound to a database."""

    name: str = "engine"
    #: the one declaration of the engine's knobs, defaults and
    #: validation; the constructor takes ``config=config_type()``.
    config_type: type[EngineConfig]

    @abc.abstractmethod
    def search(self, queries: SegmentArray, d: float, *,
               exclude_same_trajectory: bool = False
               ) -> tuple[ResultSet, SearchProfile | CpuSearchProfile]:
        """Run the search; returns the result set and execution profile."""

    @classmethod
    def from_config(cls, database: SegmentArray,
                    config: EngineConfig | None = None, *,
                    gpu: VirtualGPU | None = None,
                    **params) -> "SearchEngine":
        """Construct the engine from a typed config (or loose params).

        ``config`` and ``params`` are mutually exclusive: pass a validated
        config object, or keyword parameters that are validated against
        :attr:`config_type` (unknown keys raise
        :class:`~repro.engines.config.ConfigError`).  ``gpu`` places a GPU
        engine on a specific :class:`~repro.gpu.device.VirtualGPU`.
        """
        if config is not None and params:
            raise ValueError("pass either config= or keyword parameters, "
                             "not both")
        if config is None:
            config = cls.config_type.from_params(**params)
        elif not isinstance(config, cls.config_type):
            raise TypeError(
                f"{cls.__name__} expects a {cls.config_type.__name__},"
                f" got {type(config).__name__}")
        # CPU engines have no device; the placement hint applies only to
        # engines that own a VirtualGPU.
        if issubclass(cls, GpuEngineBase):
            return cls(database, config, gpu=gpu)
        return cls(database, config)


@dataclass
class RangeBatch:
    """Per-thread candidates as row ranges.

    Thread ``i`` handles query row ``q_rows[i]``; its candidates are the
    ranges ``first[i] .. first[i+1] - 1``, and range ``j`` is the rows
    ``start[j] .. start[j] + length[j] - 1`` of the engine's base (in its
    device-resident ordering) — or, where ``lookup`` is set, the rows
    ``lookup[start[j] : start[j] + length[j]]`` (GPUSpatial's cell
    ranges into ``A``; an explicit row list is ranges over that list).
    Rows are named only by :meth:`rows`, one run of threads at a time.
    """

    q_rows: np.ndarray
    start: np.ndarray
    length: np.ndarray
    first: np.ndarray
    lookup: np.ndarray | None = None

    def __getitem__(self, threads: slice) -> "RangeBatch":
        """Threads ``threads`` (a slice of step 1) alone."""
        t, end, _ = threads.indices(self.q_rows.shape[0])
        a, b = self.first[t], self.first[end]
        return RangeBatch(self.q_rows[t:end], self.start[a:b],
                          self.length[a:b], self.first[t:end + 1] - a,
                          self.lookup)

    def lengths(self) -> np.ndarray:
        """Each thread's candidate count."""
        ends = range_offsets(self.length)
        return ends[self.first[1:]] - ends[self.first[:-1]]

    def rows(self) -> np.ndarray:
        """Every candidate row, thread by thread."""
        at = expand_ranges(self.start, self.length)
        return at if self.lookup is None else self.lookup[at]


@dataclass
class HostPlan:
    """What the host prepared before the first launch of one attempt.

    ``queries`` is ``Q`` in thread-id order, as uploaded; the first
    invocation runs threads ``0 .. num_threads - 1`` and a redo list
    names a subset of them.  ``schedule_bytes`` is the size of the
    schedule ``S`` shipped next to ``Q`` (None: the scheme computes no
    schedule); ``schedule`` is that schedule, thread ``k`` its entry
    ``k``.
    """

    queries: SegmentArray
    num_threads: int
    schedule_bytes: int | None = None
    defaulted_queries: int = 0
    schedule: Schedule | None = None


@dataclass
class ThreadWork:
    """The candidates of a sequence of threads, in thread order: one
    kernel invocation's live threads, or a CPU engine's queries.

    ``batch`` names each thread's candidates as row ranges, or — where
    ``index`` is set — is the live threads' slice of a binned scheme's
    schedule, whose entries ``index``, the index that built it, alone
    expands into rows (:meth:`rows`) and places in its bins and
    subbins.  ``gather_work`` is the index-probe / buffer-fill units
    charged on top of the comparisons (None: none); ``blocked`` flags
    threads that overflowed their candidate slice ``U_k`` and
    terminated without refining — one atomic each, for the redo append
    (None: none can).
    """

    batch: RangeBatch | Schedule
    gather_work: np.ndarray | None = None
    blocked: np.ndarray | None = None
    index: TemporalIndex | SpatioTemporalIndex | None = None

    def threads(self, first: int = 0, end: int | None = None
                ) -> "ThreadWork":
        """The candidates of threads ``first .. end - 1`` alone."""
        return ThreadWork(self.batch[first:end], index=self.index)

    def rows(self) -> np.ndarray:
        """Every candidate row, thread by thread."""
        if self.index is None:
            return self.batch.rows()
        return self.index.schedule_rows(self.batch)


class Refined(NamedTuple):
    """What :func:`refine` returns: each thread's hit count, the hits in
    thread order — the order threads would publish to the result buffer
    — how many rows the reject read and how many pairs were solved."""

    hits: np.ndarray
    q_rows: np.ndarray
    e_rows: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray
    examined: int
    refined: int


def run_bounds(lens: np.ndarray, limit: int) -> list[int]:
    """Indices splitting ``lens`` into runs of at most ``limit`` in
    total: ``[0, b1, ..., len(lens)]``.  A run takes whole items and at
    least one, so a single item over ``limit`` forms its own run."""
    cum = np.cumsum(lens)
    bounds = [0]
    while bounds[-1] < lens.shape[0]:
        # The furthest end within budget of the run's start.
        t = bounds[-1]
        end = int(np.searchsorted(cum, (cum[t - 1] if t else 0) + limit,
                                  side="right"))
        bounds.append(max(end, t + 1))
    return bounds


def refine(queries: SegmentArray, database: SegmentArray,
           work: ThreadWork, d: float, *, exclude_same_trajectory: bool,
           scale: float | None = None) -> Refined:
    """Solve every candidate pair of ``work`` exactly, one run of
    threads at a time: every engine's one chunk loop.

    A run takes whole threads, at most ``MAX_PAIRS_PER_CHUNK`` candidate
    pairs or one thread's own when it alone holds more, and only then
    are its candidates named as rows; so the host holds one run's
    working set whatever the batch.  Given the GPU loop's ``scale``
    (:func:`~repro.core.distance.magnitude` of both sides), each run
    goes through the conservative reject, :func:`surviving_rows`, and
    only its survivors are solved.  The referees (``cpu_scan``,
    ``cpu_rtree``) pass none: every pair they hand in is solved.
    """
    lens = work.batch.lengths()
    q_rows = work.batch.q_rows
    grid = None
    if scale is not None and work.index is not None:
        # The bin grid when its windows pay for the whole invocation.
        grid, threads = work.index.bin_grid(), work.batch
        if not grid.pays(queries, q_rows, threads.bin_lo, threads.bin_hi,
                         d, scale, int(lens.sum())):
            grid = None
    hits = np.zeros(lens.shape[0], dtype=np.int64)
    rows0, times0 = np.zeros(0, dtype=np.int64), np.zeros(0)
    out_q, out_e, out_lo, out_hi = [rows0], [rows0], [times0], [times0]
    examined = refined = 0
    bounds = run_bounds(lens, MAX_PAIRS_PER_CHUNK)
    for t, t_end in zip(bounds[:-1], bounds[1:]):
        run = work.threads(t, t_end)
        if scale is None:
            counts, rows = lens[t:t_end], run.rows()
        else:
            counts, rows, read = surviving_rows(queries, database, run, d,
                                                scale, grid)
            examined += read
        refined += rows.shape[0]
        q_idx = np.repeat(q_rows[t:t_end], counts)
        res = compare_pairs(queries, database, q_idx, rows, d,
                            exclude_same_trajectory=exclude_same_trajectory)
        if res.num_hits:
            hit_pos = np.flatnonzero(res.mask)
            thread = np.searchsorted(range_offsets(counts), hit_pos,
                                     side="right") - 1
            hits[t:t_end] += np.bincount(thread, minlength=t_end - t)
            out_q.append(q_idx[hit_pos])
            out_e.append(rows[hit_pos])
            out_lo.append(res.t_lo[hit_pos])
            out_hi.append(res.t_hi[hit_pos])
    return Refined(hits, *map(np.concatenate, (out_q, out_e, out_lo,
                                               out_hi)), examined, refined)


def surviving_rows(queries: SegmentArray, database: SegmentArray,
                   work: ThreadWork, d: float, scale: float,
                   grid: BinGrid | None
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """The candidates of ``work``, one run of threads, that survive the
    conservative reject: ``(counts, rows, read)`` — how many survive per
    thread, their rows thread by thread, and how many rows the reject
    read.  The one seam a test patches to bypass the reject.

    Through ``grid`` (the index's, when it pays for the invocation)
    only the rows its windows find are read; otherwise the run's rows
    are named and rejected pair by pair.  Both keep the same pairs, in
    the same order.
    """
    threads = work.batch
    if grid is not None:
        thread, rows, read = surviving_bin_pairs(
            queries, grid, threads.q_rows, threads.bin_lo, threads.bin_hi,
            d, scale, array_sel=threads.array_sel, subbin=threads.subbin,
            subbins=work.index.subbins)
        return np.bincount(thread, minlength=len(threads)), rows, read
    lens = threads.lengths()
    rows = work.rows()
    pos = surviving_pairs(queries, database, np.repeat(threads.q_rows, lens),
                          rows, d, scale)
    thread = np.searchsorted(range_offsets(lens), pos, side="right") - 1
    return (np.bincount(thread, minlength=lens.shape[0]), rows[pos],
            rows.shape[0])


def first_fit_accept(hits_per_thread: np.ndarray,
                     capacity: int) -> np.ndarray:
    """Which threads publish their results this invocation.

    Threads complete in id order; a thread's batch is all-or-nothing.
    Threads with zero hits always complete (their empty append trivially
    succeeds).  The result buffer is empty at every launch, so the
    accepted hits fill at most its ``capacity``.  Returns a boolean
    accept mask.
    """
    cum = np.cumsum(hits_per_thread)
    fits = cum <= capacity
    # After the first non-fitting thread, later non-empty threads are
    # rejected even if they would individually fit: the tail counter has
    # already passed capacity in the deterministic in-order model.
    if np.all(fits):
        return np.ones_like(fits)
    first_reject = int(np.argmin(fits))
    accept = np.zeros_like(fits)
    accept[:first_reject] = True
    accept |= hits_per_thread == 0
    return accept


class GpuEngineBase(SearchEngine):
    """Shared state, the incremental-processing loop and its retry policy.

    :meth:`_search_once` is one full search attempt with the current
    buffer sizes; a scheme supplies :meth:`_host_plan`,
    :meth:`_thread_work` and, if its give-up rule differs,
    :meth:`_resubmit_limit`.  :meth:`search` wraps the attempt in the
    bounded-retry policy: on result-buffer pressure the buffer is grown
    (deadline- and attempt-bounded) and the attempt repeated, instead of
    the loop burning through ``MAX_KERNEL_INVOCATIONS``.
    """

    #: True where the paper's algorithm gathers candidates on the device
    #: (Algorithm 1): :meth:`_thread_work` then runs inside the launch —
    #: its wall time is kernel time and its failures are kernel failures.
    #: Otherwise the host builds the batch before launching.
    gathers_on_device = False

    def __init__(self, database: SegmentArray, *,
                 gpu: VirtualGPU | None = None,
                 retry: RetryPolicy | None = None) -> None:
        if len(database) == 0:
            raise ValueError("database must not be empty")
        self.gpu = gpu or VirtualGPU()
        self.retry = retry or RetryPolicy()
        self.database = database  # subclass may replace with sorted order
        #: :func:`~repro.core.distance.magnitude` of ``self.database``,
        #: on first use.
        self._db_magnitude: float | None = None

    @property
    def result_buffer_items(self) -> int:
        """Capacity of the device result buffer, in items — read from
        the ledger, the one record of device bytes."""
        return (self.gpu.memory.allocations()["result_buffer"]
                // RESULT_ITEM_BYTES)

    # -- what a scheme is ------------------------------------------------------------

    def _host_plan(self, queries: SegmentArray, d: float,
                   exclude_same_trajectory: bool) -> HostPlan:
        """Order the queries and compute the schedule, if the scheme
        has one.  Host-side only: no transfer, no launch.

        Default (Algorithms 2-3): sort ``Q`` by start time and let the
        index schedule it; thread ``k`` is schedule entry ``k``.
        """
        q_sorted = queries.sorted_by_start_time()
        schedule = self.index.make_schedule(q_sorted, d)
        return HostPlan(q_sorted, len(schedule),
                        schedule_bytes=schedule.nbytes,
                        # A temporal index has no subbin to default from.
                        defaulted_queries=0 if self.index.subbins is None
                        else schedule.num_defaulted,
                        schedule=schedule)

    def _thread_work(self, plan: HostPlan, live: np.ndarray,
                     d: float) -> ThreadWork:
        """The candidates of threads ``live`` (ids into ``plan``) for
        one invocation.

        Default (Algorithms 2-3): the live threads' schedule entries;
        a subbin thread is charged one gather per candidate, the extra
        id load of its indirection (§V-C).
        """
        schedule = plan.schedule[live]
        return ThreadWork(schedule, index=self.index,
                          gather_work=np.where(schedule.array_sel >= 0,
                                               schedule.lengths(), 0))

    def _resubmit_limit(self, num_live: int, num_pending: int,
                        redo_hits: np.ndarray,
                        redo_blocked: np.ndarray | None) -> int:
        """How many of the pending queries the next invocation takes,
        given the hit counts (and ``U_k`` flags) of the ``num_live``
        threads' rejects; raises once a query can never publish.

        Default (Algorithms 2-3): resubmit everything, unless some
        reject alone exceeds the buffer.
        """
        worst = int(redo_hits.max())
        if worst > self.result_buffer_items:
            raise self._overflow_error(worst)
        return num_pending

    def _overflow_error(self, items: int) -> ResultBufferOverflowError:
        return ResultBufferOverflowError(
            "result buffer too small for a single query "
            f"({items} items > {self.result_buffer_items} "
            "capacity); increase result_buffer_items or let the retry "
            "policy grow it", required_items=items)

    # -- the incremental loop (§V-D/V-E) ---------------------------------------------

    def _search_once(self, queries: SegmentArray, d: float, *,
                     exclude_same_trajectory: bool = False
                     ) -> tuple[ResultSet, SearchProfile, int, int]:
        """One search attempt with the current buffer capacities; also
        returns how many rows the reject read and how many scheduled
        pairs it left to refine."""
        wall0 = time.perf_counter()
        self.gpu.reset_counters()
        launcher = KernelLauncher(self.gpu)
        transfers = self.gpu.transfers

        plan = self._host_plan(queries, d, exclude_same_trajectory)
        q_sorted = plan.queries
        # Q fits on the GPU by assumption (§III); charged at search time.
        transfers.h2d("query_set", len(q_sorted) * QUERY_ITEM_BYTES)
        if plan.schedule_bytes is not None:
            transfers.h2d("schedule", plan.schedule_bytes)
        if self._db_magnitude is None:
            self._db_magnitude = magnitude(self.database)
        scale = magnitude(q_sorted) + self._db_magnitude

        capacity = self.result_buffer_items
        pending = np.arange(plan.num_threads, dtype=np.int64)
        limit = pending.size
        parts: list[ResultSet] = []
        redo_total = 0
        raw_items = 0
        pairs_examined = pairs_refined = 0

        for invocation in range(MAX_KERNEL_INVOCATIONS):
            if pending.size == 0:
                break
            live = pending[:limit]
            work = None if self.gathers_on_device \
                else self._thread_work(plan, live, d)

            def kernel(k, live=live, work=work):
                nonlocal pairs_examined, pairs_refined
                if work is None:
                    work = self._thread_work(plan, live, d)
                # The host solves only the pairs that can hit; the
                # device is charged for every scheduled comparison.
                solved = refine(
                    q_sorted, self.database, work, d,
                    exclude_same_trajectory=exclude_same_trajectory,
                    scale=scale)
                pairs_examined += solved.examined
                pairs_refined += solved.refined
                hits = solved.hits
                k.thread_work[:] = work.batch.lengths()
                if work.gather_work is not None:
                    k.gather_work[:] = work.gather_work
                # Every produced result attempts one atomic append.
                k.add_atomics(int(hits.sum()))
                accept = first_fit_accept(hits, capacity)
                if work.blocked is not None:
                    k.add_atomics(int(np.count_nonzero(work.blocked)))
                    accept &= ~work.blocked
                keep = np.repeat(accept, hits)
                return hits, accept, work.blocked, (
                    solved.q_rows[keep], solved.e_rows[keep],
                    solved.t_lo[keep], solved.t_hi[keep])

            hits, accept, blocked, (qd, ed, lod, hid) = launcher.run(
                LaunchSpec(name=self.name, num_threads=live.size,
                           inputs=(("redo_query_ids", live.size * 8),)
                           if invocation else ()), kernel)
            transfers.d2h("result_set", qd.size * RESULT_ITEM_BYTES)
            raw_items += qd.size
            parts.append(ResultSet(q_sorted.seg_ids[qd],
                                   self.database.seg_ids[ed], lod, hid))

            rejected = ~accept
            redo = live[rejected]
            pending = np.concatenate([redo, pending[limit:]])
            redo_total += int(redo.size)
            limit = pending.size
            if redo.size:
                transfers.d2h("redo_list", redo.size * 8)
                limit = self._resubmit_limit(
                    live.size, pending.size, hits[rejected],
                    None if blocked is None else blocked[rejected])
        else:   # the limit ran out, whether or not the last one rejected
            if pending.size:
                raise KernelInvocationLimitError(
                    "kernel re-invocation limit reached; increase the "
                    "result buffer capacity",
                    required_items=capacity * 2)

        final = ResultSet.from_parts(parts).deduplicated()
        profile = SearchProfile.capture(
            self.name, self.gpu, num_queries=len(queries),
            schedule_items=0 if plan.schedule_bytes is None
            else len(queries),
            redo_queries=redo_total,
            defaulted_queries=plan.defaulted_queries,
            raw_result_items=raw_items,
            result_items=len(final),
            index_bytes=self.index.nbytes(),
            wall_seconds=time.perf_counter() - wall0,
        )
        return final, profile, pairs_examined, pairs_refined

    # -- the retried search ----------------------------------------------------------

    def search(self, queries: SegmentArray, d: float, *,
               exclude_same_trajectory: bool = False
               ) -> tuple[ResultSet, SearchProfile]:
        """Run the search under the engine's :class:`RetryPolicy`."""
        if not d >= 0:     # NaN too: the schedule would be cast from it
            raise ValueError("query distance d must be non-negative")
        telemetry = current_telemetry()
        with telemetry.span("engine.search", engine=self.name,
                            num_queries=len(queries)) as span:
            # The retry budget: the ambient request deadline when the
            # service set one, else this engine's standalone wall
            # deadline.
            request_deadline = current_deadline()
            deadline = request_deadline \
                or Deadline.after(RETRY_DEADLINE_S)
            backoff_total = 0.0
            for attempt in range(1, self.retry.max_attempts + 1):
                try:
                    (results, profile, pairs_examined,
                     pairs_refined) = self._search_once(
                        queries, d,
                        exclude_same_trajectory=exclude_same_trajectory)
                except (ResultBufferOverflowError,
                        KernelInvocationLimitError) as exc:
                    if attempt >= self.retry.max_attempts:
                        raise
                    if deadline.expired:
                        if deadline is request_deadline:
                            # The request's budget, not the device,
                            # stopped the retries.
                            raise DeadlineExceededError(
                                f"{self.name}: request deadline expired "
                                f"after attempt {attempt}") from exc
                        raise
                    target = max(
                        int(self.result_buffer_items
                            * RETRY_GROWTH_FACTOR),
                        exc.required_items)
                    backoff_total += self.retry.backoff_for(attempt)
                    telemetry.metrics.counter(
                        "repro_search_retries_total",
                        "result-buffer overflow retries").inc(
                            engine=self.name)
                    telemetry.events.emit(
                        "search_retry", engine=self.name,
                        attempt=attempt, target_items=target,
                        backoff_s=backoff_total,
                        error=type(exc).__name__)
                    self.grow_result_buffer(target)
                else:
                    profile.attempts = attempt
                    profile.backoff_s = backoff_total
                    pairs_scheduled = profile.total_comparisons
                    span.set_attributes(
                        attempts=attempt,
                        invocations=profile.num_kernel_invocations,
                        redo_queries=profile.redo_queries,
                        pairs_scheduled=pairs_scheduled,
                        pairs_examined=pairs_examined,
                        pairs_refined=pairs_refined,
                        result_items=profile.result_items)
                    m = telemetry.metrics
                    pairs = m.counter(
                        "repro_refine_pairs_total",
                        "candidate pairs charged to the device "
                        "(scheduled) and solved on the host (refined)")
                    pairs.inc(pairs_scheduled, engine=self.name,
                              stage="scheduled")
                    pairs.inc(pairs_refined, engine=self.name,
                              stage="refined")
                    m.counter("repro_kernel_invocations_total",
                              "kernel invocations").inc(
                        profile.num_kernel_invocations,
                        engine=self.name)
                    m.counter("repro_redo_queries_total",
                              "queries re-processed after buffer "
                              "pressure").inc(
                        profile.redo_queries, engine=self.name)
                    if profile.defaulted_queries:
                        m.counter(
                            "repro_defaulted_queries_total",
                            "queries defaulted to the temporal "
                            "scheme").inc(
                            profile.defaulted_queries,
                            engine=self.name)
                    return results, profile
            raise AssertionError("unreachable")  # pragma: no cover

    def grow_result_buffer(self, capacity_items: int) -> None:
        """Replace the device result buffer with a larger one.

        The old allocation is released first so the grown buffer only has
        to fit alongside the database and index, not its former self.
        """
        capacity_items = int(capacity_items)
        if capacity_items <= self.result_buffer_items:
            return
        self.gpu.memory.resize("result_buffer", (capacity_items, 4))

    # -- helpers for subclasses ------------------------------------------------------

    def _place_database(self, sorted_db: SegmentArray, label: str,
                        result_buffer_items: int) -> None:
        """Reserve the (re-ordered) database in device global memory: 8
        float64 coordinates and 2 int64 ids per segment.

        Offline step: the transfer is *not* charged to response time, per
        the paper's methodology (§V-B), but it must fit in device memory.
        Kernels read the host arrays, so the reservation copies nothing.
        The result buffer is reserved alongside: four 8-byte fields per
        item (:data:`RESULT_ITEM_BYTES`).
        """
        if result_buffer_items <= 0:
            raise ValueError("result buffer capacity must be positive")
        mem = self.gpu.memory
        mem.alloc(f"{label}.coords", (8, len(sorted_db)), np.float64)
        mem.alloc(f"{label}.ids", (2, len(sorted_db)), np.int64)
        mem.alloc("result_buffer", (result_buffer_items, 4))

    def _place_index(self) -> None:
        """Reserve the index's device arrays (its ``device_arrays()``)."""
        for name, (shape, dtype) in self.index.device_arrays().items():
            self.gpu.memory.alloc(name, shape, dtype)
