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
from typing import Any, NamedTuple

import numpy as np

from ..core.distance import compare_pairs, magnitude, surviving_pairs
from ..core.execmode import current_execution_mode
from ..core.ranges import expand_ranges
from ..core.result import ResultSet
from ..core.types import SegmentArray
from ..gpu.atomics import AtomicResultBuffer
from ..gpu.device import VirtualGPU
from ..gpu.kernel import KernelLauncher, LaunchSpec
from ..gpu.profiler import CpuSearchProfile, SearchProfile
from ..indexes.temporal import TemporalIndex
from ..obs.telemetry import current as current_telemetry
from .config import EngineConfig

__all__ = ["SearchEngine", "GpuEngineBase", "HostPlan", "NO_RETRY",
           "QuerySetMemo", "RangeBatch", "RefineCache", "RetryPolicy",
           "ThreadWork", "ResultBufferOverflowError",
           "KernelInvocationLimitError", "Deadline",
           "DeadlineExceededError", "current_deadline", "deadline_scope",
           "refine_ranges", "first_fit_accept", "index_build_phase"]


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

#: Upper bound on candidate pairs refined per vectorized chunk; keeps peak
#: host memory flat independent of the workload.
MAX_PAIRS_PER_CHUNK = 1 << 21

#: Bytes per query segment shipped host->device (8 coords + 2 ids, f64/i64).
QUERY_ITEM_BYTES = 80

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

    def check(self, what: str = "operation") -> None:
        if self.expired:
            raise DeadlineExceededError(
                f"deadline exceeded before {what}")


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


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy for the incremental overflow loop.

    When a search fails on result-buffer pressure
    (:class:`ResultBufferOverflowError` /
    :class:`KernelInvocationLimitError`), the engine grows
    ``result_buffer_items`` by ``growth_factor`` (at least to the failing
    query's required size) and retries — instead of looping all the way to
    ``MAX_KERNEL_INVOCATIONS`` or failing a request a larger buffer would
    serve.  Retries stop after ``max_attempts`` total attempts or once
    the deadline budget is exhausted — the ambient request
    :class:`Deadline` when the service set one, else ``deadline_s`` wall
    seconds from the first attempt.

    ``backoff_s`` > 0 spaces retries with exponential backoff plus
    deterministic jitter on the *modeled* clock: no real sleeping
    happens (retrying a simulated device is instant), but the wait is
    charged to the profile's ``backoff_s`` so modeled response time and
    lane occupancy reflect it — replacing the previous sleep-free busy
    re-invocation that under-reported retry cost.
    """

    max_attempts: int = 4
    growth_factor: float = 4.0
    deadline_s: float = 60.0
    #: base modeled backoff before the second attempt; doubles per
    #: retry.  0.0 = immediate re-invocation (the historical behavior).
    backoff_s: float = 0.0
    #: jitter fraction in [0, 1]: attempt n waits
    #: ``backoff_s * 2**(n-1) * (1 + jitter * u_n)`` with ``u_n`` a
    #: deterministic uniform draw — reproducible, but desynchronized
    #: across concurrent retriers like real jitter.
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.growth_factor <= 1.0:
            raise ValueError("growth_factor must be > 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be within [0, 1]")

    def backoff_for(self, attempt: int) -> float:
        """Modeled seconds to wait after failed attempt ``attempt``
        (1-based).  Deterministic: same attempt number, same wait."""
        if self.backoff_s <= 0.0:
            return 0.0
        u = random.Random(attempt).random()
        return self.backoff_s * 2.0 ** (attempt - 1) \
            * (1.0 + self.jitter * u)


#: retry disabled: one attempt, errors surface immediately.
NO_RETRY = RetryPolicy(max_attempts=1)


class SearchEngine(abc.ABC):
    """A distance-threshold search engine bound to a database."""

    name: str = "engine"
    #: typed configuration class; ``None`` for engines without one
    #: (third-party engines registered via ``@register_engine``).
    config_type: type[EngineConfig] | None = None
    #: checkpoints pickle the built engine as a restart artifact only
    #: where this is set: worth it when the index is much slower to
    #: rebuild than to read back (the GPU indexes are vectorised sorts
    #: that rebuild faster than their pickles load).
    persist_index: bool = False

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
        kwargs: dict = {}
        if cls.config_type is not None:
            cfg = config if config is not None \
                else cls.config_type.from_params(**params)
            if not isinstance(cfg, cls.config_type):
                raise TypeError(
                    f"{cls.__name__} expects a {cls.config_type.__name__},"
                    f" got {type(cfg).__name__}")
            kwargs = cfg.to_kwargs()
        else:
            kwargs = dict(params)
        # CPU engines have no device; the placement hint applies only to
        # engines that own a VirtualGPU.
        if gpu is not None and issubclass(cls, GpuEngineBase):
            kwargs["gpu"] = gpu
        return cls(database, **kwargs)


@dataclass
class RangeBatch:
    """Per-thread candidate specifications for one kernel invocation.

    ``q_rows[i]`` is the query row thread ``i`` handles; its candidates are
    ``candidate_rows[cand_start[i] : cand_start[i+1]]`` (row indices into
    the engine's device-resident database ordering).
    """

    q_rows: np.ndarray
    candidate_rows: np.ndarray
    cand_start: np.ndarray

    def __post_init__(self) -> None:
        if self.cand_start.shape != (self.q_rows.shape[0] + 1,):
            raise ValueError("cand_start must have len(q_rows)+1 entries")

    @classmethod
    def from_lengths(cls, q_rows: np.ndarray, candidate_rows: np.ndarray,
                     lens: np.ndarray) -> "RangeBatch":
        """The batch whose thread ``i`` owns the next ``lens[i]`` rows."""
        cand_start = np.zeros(lens.shape[0] + 1, dtype=np.int64)
        np.cumsum(lens, out=cand_start[1:])
        return cls(q_rows, candidate_rows, cand_start)

    @property
    def num_threads(self) -> int:
        return int(self.q_rows.shape[0])

    def lengths(self) -> np.ndarray:
        return np.diff(self.cand_start)

    def keep(self, positions: np.ndarray) -> "RangeBatch":
        """The same threads with only the candidates at ``positions``
        (ascending indices into ``candidate_rows``)."""
        thread = np.searchsorted(self.cand_start, positions,
                                 side="right") - 1
        return RangeBatch.from_lengths(
            self.q_rows, self.candidate_rows[positions],
            np.bincount(thread, minlength=self.num_threads))


@dataclass
class HostPlan:
    """What the host prepared before the first launch of one attempt.

    ``queries`` is ``Q`` in thread-id order, as uploaded; the first
    invocation runs threads ``0 .. num_threads - 1`` and a redo list
    names a subset of them.  ``schedule_bytes`` is the size of the
    schedule ``S`` shipped next to ``Q`` (None: the scheme computes no
    schedule); ``schedule`` is whatever the scheme's own
    :meth:`GpuEngineBase._thread_work` reads back.
    """

    queries: SegmentArray
    num_threads: int
    schedule_bytes: int | None = None
    defaulted_queries: int = 0
    schedule: Any = None


@dataclass
class ThreadWork:
    """One invocation's work, one slot per live thread.

    ``gather_work`` is the index-probe / buffer-fill units charged on top
    of the comparisons (None: none); ``blocked`` flags threads that
    overflowed their candidate slice ``U_k`` and terminated without
    refining — one atomic each, for the redo append (None: none can).
    """

    batch: RangeBatch
    gather_work: np.ndarray | None = None
    blocked: np.ndarray | None = None


def _chunk_bounds(lens: np.ndarray) -> np.ndarray:
    """Thread indices splitting a batch into <= MAX_PAIRS_PER_CHUNK chunks.

    Returns boundaries ``[0, b1, ..., nthreads]``; each chunk takes whole
    threads and at least one thread, so a single oversized thread forms
    its own chunk (vectorized replacement of the old per-thread
    accumulation loop).
    """
    nthreads = lens.shape[0]
    bounds = [0]
    cum = np.cumsum(lens)
    t = 0
    while t < nthreads:
        # Furthest thread end whose cumulative pair count stays within
        # budget of the chunk start; always advance at least one thread.
        base = cum[t - 1] if t else 0
        t_end = int(np.searchsorted(cum, base + MAX_PAIRS_PER_CHUNK,
                                    side="right"))
        t_end = max(t_end, t + 1)
        bounds.append(t_end)
        t = t_end
    return np.asarray(bounds, dtype=np.int64)


def refine_ranges(
    queries: SegmentArray,
    database: SegmentArray,
    batch: RangeBatch,
    d: float,
    *,
    exclude_same_trajectory: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refine every (thread, candidate) pair of a batch.

    Returns ``(hits_per_thread, q_rows, e_rows, t_lo, t_hi)`` where the
    last four arrays list the surviving pairs in thread order — the order
    in which threads would publish to the result buffer.

    The batch path refines all pairs in a few vectorized passes (chunked
    at ``MAX_PAIRS_PER_CHUNK`` so peak host memory stays flat).  Under
    the ``"perthread"`` execution mode the legacy one-thread-at-a-time
    reference runs instead.  Every pair handed in is solved exactly:
    the referees (``cpu_scan``, ``cpu_rtree``) call this directly, and
    only the GPU loop puts :func:`surviving_pairs` in front of it.
    """
    lens = batch.lengths()
    nthreads = batch.num_threads

    if current_execution_mode() == "perthread":
        return _refine_ranges_perthread(
            queries, database, batch, d, lens,
            exclude_same_trajectory=exclude_same_trajectory)

    hits_per_thread = np.zeros(nthreads, dtype=np.int64)
    out_q, out_e, out_lo, out_hi = [], [], [], []

    bounds = _chunk_bounds(lens)
    for t, t_end in zip(bounds[:-1], bounds[1:]):
        span = slice(batch.cand_start[t], batch.cand_start[t_end])
        e_idx = batch.candidate_rows[span]
        q_idx = np.repeat(batch.q_rows[t:t_end], lens[t:t_end])
        res = compare_pairs(queries, database, q_idx, e_idx, d,
                            exclude_same_trajectory=exclude_same_trajectory)
        if res.num_hits:
            hit_pos = np.flatnonzero(res.mask)
            local_thread = t + np.searchsorted(
                batch.cand_start[t:t_end + 1] - batch.cand_start[t],
                hit_pos, side="right") - 1
            hits_per_thread += np.bincount(
                local_thread, minlength=nthreads)
            out_q.append(q_idx[hit_pos])
            out_e.append(e_idx[hit_pos])
            out_lo.append(res.t_lo[hit_pos])
            out_hi.append(res.t_hi[hit_pos])

    if out_q:
        return (hits_per_thread, np.concatenate(out_q),
                np.concatenate(out_e), np.concatenate(out_lo),
                np.concatenate(out_hi))
    z = np.zeros(0)
    zi = np.zeros(0, dtype=np.int64)
    return hits_per_thread, zi, zi.copy(), z, z.copy()


def _refine_ranges_perthread(
    queries: SegmentArray,
    database: SegmentArray,
    batch: RangeBatch,
    d: float,
    lens: np.ndarray,
    *,
    exclude_same_trajectory: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Legacy reference: refine one logical thread at a time."""
    nthreads = batch.num_threads
    hits_per_thread = np.zeros(nthreads, dtype=np.int64)
    out_q, out_e, out_lo, out_hi = [], [], [], []
    for t in range(nthreads):
        span = slice(batch.cand_start[t], batch.cand_start[t + 1])
        e_idx = batch.candidate_rows[span]
        q_idx = np.full(int(lens[t]), batch.q_rows[t], dtype=np.int64)
        res = compare_pairs(queries, database, q_idx, e_idx, d,
                            exclude_same_trajectory=exclude_same_trajectory)
        if res.num_hits:
            hit = res.mask
            hits_per_thread[t] = res.num_hits
            out_q.append(q_idx[hit])
            out_e.append(e_idx[hit])
            out_lo.append(res.t_lo[hit])
            out_hi.append(res.t_hi[hit])
    if out_q:
        return (hits_per_thread, np.concatenate(out_q),
                np.concatenate(out_e), np.concatenate(out_lo),
                np.concatenate(out_hi))
    z = np.zeros(0)
    zi = np.zeros(0, dtype=np.int64)
    return hits_per_thread, zi, zi.copy(), z, z.copy()


class QuerySetMemo(NamedTuple):
    """What :class:`RefineCache` hands back for one query-set object."""

    #: ``Q`` sorted by non-decreasing start time (thread-id order).
    q_sorted: SegmentArray
    #: first database row of each query's temporal-bin range ``E_k``.
    row_lo: np.ndarray
    #: every (query, row) pair inside those ranges, query ``k`` = thread
    #: ``k`` — GPUTemporal's whole schedule.
    batch: RangeBatch


class RefineCache:
    """The one thing GPUTemporal remembers between searches.

    Sorting ``Q`` and each query's temporal-bin row range (§IV-B) do not
    depend on ``d``, so across a ``d``-sweep over one query set the
    schedule is reusable verbatim.  The memo holds one query set, keyed
    on the *identity* of the caller's object (a strong reference is
    kept, so the id cannot be recycled).  Nothing per pair is kept: with
    :func:`surviving_pairs` in front of the solve, recomputing the few
    survivors' quadratics is cheaper than gathering them from a memo of
    all pairs.
    """

    #: class-level so engines pickled before the memo existed — or with
    #: an older memo's fields, which are ignored — load.
    _source: SegmentArray | None = None
    _memo: QuerySetMemo | None = None

    def lookup(self, queries: SegmentArray,
               index: TemporalIndex) -> QuerySetMemo:
        """Fetch-or-compute everything ``d``-invariant about ``queries``."""
        memo = self._memo
        if memo is None or self._source is not queries:
            q_sorted = queries.sorted_by_start_time()
            row_lo, row_hi = index.candidate_rows(q_sorted.ts, q_sorted.te)
            lens = np.maximum(row_hi - row_lo + 1, 0)
            memo = QuerySetMemo(q_sorted, row_lo, RangeBatch.from_lengths(
                np.arange(len(q_sorted), dtype=np.int64),
                expand_ranges(row_lo, lens), lens))
            self._source, self._memo = queries, memo
        return memo


def first_fit_accept(hits_per_thread: np.ndarray,
                     free_items: int) -> np.ndarray:
    """Which threads publish their results this invocation.

    Threads complete in id order; a thread's batch is all-or-nothing.
    Threads with zero hits always complete (their empty append trivially
    succeeds).  Returns a boolean accept mask.
    """
    cum = np.cumsum(hits_per_thread)
    fits = cum <= free_items
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
    #: :func:`~repro.core.distance.magnitude` of ``self.database``, on
    #: first use (class-level default: older pickled engines lack it).
    _db_magnitude: float | None = None

    def __init__(self, database: SegmentArray, *,
                 gpu: VirtualGPU | None = None,
                 result_buffer_items: int = 2_000_000,
                 retry: RetryPolicy | None = None) -> None:
        if len(database) == 0:
            raise ValueError("database must not be empty")
        self.gpu = gpu or VirtualGPU()
        self.result_buffer = AtomicResultBuffer(result_buffer_items)
        self.retry = retry or RetryPolicy()
        self.database = database  # subclass may replace with sorted order

    # -- what a scheme is ------------------------------------------------------------

    @abc.abstractmethod
    def _host_plan(self, queries: SegmentArray, d: float,
                   exclude_same_trajectory: bool) -> HostPlan:
        """Order the queries and compute the schedule, if the scheme
        has one.  Host-side only: no transfer, no launch."""

    @abc.abstractmethod
    def _thread_work(self, plan: HostPlan, live: np.ndarray,
                     d: float) -> ThreadWork:
        """The candidates of threads ``live`` (ids into ``plan``) for
        one invocation."""

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
        if worst > self.result_buffer.capacity_items:
            raise self._overflow_error(worst)
        return num_pending

    def _overflow_error(self, items: int) -> ResultBufferOverflowError:
        return ResultBufferOverflowError(
            "result buffer too small for a single query "
            f"({items} items > {self.result_buffer.capacity_items} "
            "capacity); increase result_buffer_items or let the retry "
            "policy grow it", required_items=items)

    # -- the incremental loop (§V-D/V-E) ---------------------------------------------

    def _search_once(self, queries: SegmentArray, d: float, *,
                     exclude_same_trajectory: bool = False
                     ) -> tuple[ResultSet, SearchProfile, int]:
        """One search attempt with the current buffer capacities; also
        returns how many scheduled pairs the reject left to refine."""
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

        pending = np.arange(plan.num_threads, dtype=np.int64)
        limit = pending.size
        parts: list[ResultSet] = []
        redo_total = 0
        raw_items = 0
        pairs_refined = 0

        for invocation in range(MAX_KERNEL_INVOCATIONS):
            if pending.size == 0:
                break
            live = pending[:limit]
            work = None if self.gathers_on_device \
                else self._thread_work(plan, live, d)

            def kernel(k, live=live, work=work):
                nonlocal pairs_refined
                if work is None:
                    work = self._thread_work(plan, live, d)
                batch, lens = work.batch, work.batch.lengths()
                # The host solves only the pairs that can hit; the
                # device is charged for every scheduled comparison.  The
                # "perthread" reference mode never sees the reject.
                if current_execution_mode() != "perthread":
                    batch = batch.keep(surviving_pairs(
                        q_sorted, self.database,
                        np.repeat(batch.q_rows, lens),
                        batch.candidate_rows, d, scale))
                pairs_refined += batch.candidate_rows.shape[0]
                hits, pq, pe, plo, phi = refine_ranges(
                    q_sorted, self.database, batch, d,
                    exclude_same_trajectory=exclude_same_trajectory)
                k.thread_work[:] = lens
                if work.gather_work is not None:
                    k.gather_work[:] = work.gather_work
                # Every produced result attempts one atomic append.
                k.add_atomics(int(hits.sum()))
                accept = first_fit_accept(hits,
                                          self.result_buffer.free_items)
                if work.blocked is not None:
                    k.add_atomics(int(np.count_nonzero(work.blocked)))
                    accept &= ~work.blocked
                pair_accept = np.repeat(accept, hits)
                if not self.result_buffer.try_append(
                        pq[pair_accept], pe[pair_accept],
                        plo[pair_accept], phi[pair_accept]):
                    raise RuntimeError("internal: accepted batch overflow")
                return hits, accept, work.blocked

            out = launcher.run(LaunchSpec(
                name=self.name, num_threads=live.size,
                inputs=(("redo_query_ids", live.size * 8),)
                if invocation else ()), kernel)
            hits, accept, blocked = out.value

            qd, ed, lod, hid = self.result_buffer.drain()
            transfers.d2h("result_set", qd.size * 32)
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
                    required_items=self.result_buffer.capacity_items * 2)

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
        return final, profile, pairs_refined

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
            deadline = current_deadline() \
                or Deadline.after(self.retry.deadline_s)
            backoff_total = 0.0
            for attempt in range(1, self.retry.max_attempts + 1):
                # A faulted prior attempt may have left items in the
                # device result buffer; a fresh attempt must not
                # republish them.
                if self.result_buffer.size:
                    self.result_buffer.drain()
                try:
                    results, profile, pairs_refined = self._search_once(
                        queries, d,
                        exclude_same_trajectory=exclude_same_trajectory)
                except (ResultBufferOverflowError,
                        KernelInvocationLimitError) as exc:
                    if (attempt >= self.retry.max_attempts
                            or deadline.expired):
                        raise
                    target = max(
                        int(self.result_buffer.capacity_items
                            * self.retry.growth_factor),
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
        if capacity_items <= self.result_buffer.capacity_items:
            return
        mem = self.gpu.memory
        if "result_buffer" in mem:
            mem.resize("result_buffer", (capacity_items, 4))
        else:  # engine built without _place_database (unit-test harness)
            mem.alloc("result_buffer", (capacity_items, 4))
        self.result_buffer = AtomicResultBuffer(capacity_items)

    # -- helpers for subclasses ------------------------------------------------------

    def _place_database(self, sorted_db: SegmentArray, label: str) -> None:
        """Store the (re-ordered) database in device global memory.

        Offline step: the transfer is *not* charged to response time, per
        the paper's methodology (§V-B), but it must fit in device memory.
        """
        mem = self.gpu.memory
        mem.put(f"{label}.coords", np.stack(
            [sorted_db.xs, sorted_db.ys, sorted_db.zs, sorted_db.ts,
             sorted_db.xe, sorted_db.ye, sorted_db.ze, sorted_db.te]))
        mem.put(f"{label}.ids", np.stack(
            [sorted_db.traj_ids, sorted_db.seg_ids]))
        if "result_buffer" not in mem:
            mem.alloc("result_buffer",
                      (self.result_buffer.capacity_items, 4))
