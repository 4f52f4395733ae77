"""Common machinery shared by the three GPU search engines.

All engines implement the same contract: ``search(queries, d)`` returns a
``(ResultSet, profile)`` pair — the exact result set plus the execution
record the cost model turns into modeled response time.

The GPU engines share the paper's execution skeleton:

* one query segment per GPU thread (load balancing, §IV);
* a fixed-capacity device result buffer filled through atomic appends;
* when the buffer cannot hold everything, the query set is processed
  *incrementally*: queries that could not publish their results are
  re-processed by a follow-up kernel invocation after the host drains the
  buffer (§V-D/V-E) — the engines implement this loop once, here.

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

import numpy as np

from ..core.distance import (PairCoefficients, compare_pairs,
                             pair_coefficients, solve_intervals)
from ..core.execmode import current_execution_mode
from ..core.result import ResultSet
from ..core.types import SegmentArray
from ..gpu.atomics import AtomicResultBuffer
from ..gpu.device import VirtualGPU
from ..gpu.profiler import CpuSearchProfile, SearchProfile
from ..obs.telemetry import current as current_telemetry
from .config import EngineConfig

__all__ = ["SearchEngine", "GpuEngineBase", "NO_RETRY", "RangeBatch",
           "RefineCache", "RetryPolicy", "ResultBufferOverflowError",
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

    @property
    def num_threads(self) -> int:
        return int(self.q_rows.shape[0])

    def lengths(self) -> np.ndarray:
        return np.diff(self.cand_start)


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
    coefficients: PairCoefficients | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refine every (thread, candidate) pair of a batch.

    Returns ``(hits_per_thread, q_rows, e_rows, t_lo, t_hi)`` where the
    last four arrays list the surviving pairs in thread order — the order
    in which threads would publish to the result buffer.

    The batch path refines all pairs in a few vectorized passes (chunked
    at ``MAX_PAIRS_PER_CHUNK`` so peak host memory stays flat).  When
    ``coefficients`` holds the precomputed ``d``-invariant quadratic
    coefficients of exactly this batch's pairs (see :class:`RefineCache`)
    only the per-``d`` root solving runs.  Under the ``"perthread"``
    execution mode the legacy one-thread-at-a-time reference runs
    instead (and ``coefficients`` is ignored).
    """
    lens = batch.lengths()
    nthreads = batch.num_threads

    if current_execution_mode() == "perthread":
        return _refine_ranges_perthread(
            queries, database, batch, d, lens,
            exclude_same_trajectory=exclude_same_trajectory)

    if coefficients is not None:
        res = solve_intervals(coefficients, d)
        hit_pos = np.flatnonzero(res.mask)
        local_thread = np.searchsorted(batch.cand_start, hit_pos,
                                       side="right") - 1
        hits_per_thread = np.bincount(
            local_thread, minlength=nthreads).astype(np.int64)
        return (hits_per_thread, batch.q_rows[local_thread],
                batch.candidate_rows[hit_pos], res.t_lo[hit_pos],
                res.t_hi[hit_pos])

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


class RefineCache:
    """Per-engine cache of ``d``-invariant refinement coefficients.

    The temporal scheme's candidate schedule does not depend on ``d``
    (§IV-B): across a ``d``-sweep over one query set, every invocation-0
    pair and its quadratic coefficients are identical — only the constant
    term shifts.  The cache keys on the *identity* of the query set (a
    strong reference is held, so the id cannot be recycled) plus the
    exclusion flag, and stores the :class:`PairCoefficients` of the full
    first-invocation batch.  A hit turns refinement into root-solving
    only; results are bit-identical because the coefficients are the
    same arrays either way.

    ``max_pairs`` bounds the host memory the cache may pin (~56 bytes
    per alive pair); oversized batches are simply not cached.
    """

    def __init__(self, max_pairs: int = 64_000_000) -> None:
        self.max_pairs = int(max_pairs)
        self._queries: SegmentArray | None = None
        self._key: tuple | None = None
        self._coef: PairCoefficients | None = None

    def lookup(self, queries: SegmentArray,
               exclude_same_trajectory: bool
               ) -> PairCoefficients | None:
        """The cached coefficients for this exact query-set object."""
        if (self._queries is not None
                and queries is self._queries
                and self._key == (len(queries), exclude_same_trajectory)):
            return self._coef
        return None

    def coefficients_for(self, queries: SegmentArray,
                         database: SegmentArray, batch: RangeBatch,
                         *, exclude_same_trajectory: bool
                         ) -> PairCoefficients | None:
        """Fetch-or-compute the coefficients of ``batch``.

        Returns None (and caches nothing) when the batch exceeds
        ``max_pairs`` or the perthread reference mode is active — callers
        then fall back to the plain chunked refinement.
        """
        if current_execution_mode() != "batch":
            return None
        coef = self.lookup(queries, exclude_same_trajectory)
        if coef is not None:
            return coef
        num_pairs = int(batch.cand_start[-1])
        if num_pairs > self.max_pairs:
            return None
        lens = batch.lengths()
        # Build in MAX_PAIRS_PER_CHUNK chunks (concatenated afterwards):
        # one giant pass would allocate tens of full-batch temporaries
        # and stall on page faults.  Elementwise math, so chunk
        # boundaries never change a single bit of the result.
        bases: list[int] = []
        parts: list[PairCoefficients] = []
        bounds = _chunk_bounds(lens)
        for t, t_end in zip(bounds[:-1], bounds[1:]):
            span = slice(batch.cand_start[t], batch.cand_start[t_end])
            q_idx = np.repeat(batch.q_rows[t:t_end], lens[t:t_end])
            parts.append(pair_coefficients(
                queries, database, q_idx, batch.candidate_rows[span],
                exclude_same_trajectory=exclude_same_trajectory))
            bases.append(int(batch.cand_start[t]))
        if parts:
            coef = PairCoefficients(
                num_pairs=num_pairs,
                alive_idx=np.concatenate(
                    [b + c.alive_idx for b, c in zip(bases, parts)]),
                t0=np.concatenate([c.t0 for c in parts]),
                t1=np.concatenate([c.t1 for c in parts]),
                a=np.concatenate([c.a for c in parts]),
                b=np.concatenate([c.b for c in parts]),
                c0=np.concatenate([c.c0 for c in parts]))
        else:  # pragma: no cover - engines never launch empty batches
            z = np.zeros(0)
            coef = PairCoefficients(
                num_pairs=0, alive_idx=np.zeros(0, dtype=np.int64),
                t0=z, t1=z.copy(), a=z.copy(), b=z.copy(), c0=z.copy())
        self._queries = queries
        self._key = (len(queries), exclude_same_trajectory)
        self._coef = coef
        return coef


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
    """Shared state and the incremental-processing loop for GPU engines.

    Subclasses implement :meth:`_search_once` — one full search attempt
    with the current buffer sizes.  :meth:`search` wraps it in the
    bounded-retry policy: on result-buffer pressure the buffer is grown
    (deadline- and attempt-bounded) and the attempt repeated, instead of
    the loop burning through ``MAX_KERNEL_INVOCATIONS``.
    """

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
        self._sort_cache: tuple[SegmentArray, SegmentArray] | None = None

    # -- the retried search ----------------------------------------------------------

    @abc.abstractmethod
    def _search_once(self, queries: SegmentArray, d: float, *,
                     exclude_same_trajectory: bool = False
                     ) -> tuple[ResultSet, SearchProfile]:
        """One search attempt with the current buffer capacities."""

    def search(self, queries: SegmentArray, d: float, *,
               exclude_same_trajectory: bool = False
               ) -> tuple[ResultSet, SearchProfile]:
        """Run the search under the engine's :class:`RetryPolicy`."""
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
                    results, profile = self._search_once(
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
                    span.set_attributes(
                        attempts=attempt,
                        invocations=profile.num_kernel_invocations,
                        redo_queries=profile.redo_queries,
                        result_items=profile.result_items)
                    m = telemetry.metrics
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

    def _sorted_queries(self, queries: SegmentArray) -> SegmentArray:
        """``queries`` sorted by start time, memoized per query-set object.

        Returning the *same* sorted object for repeated searches over one
        query set lets identity-keyed caches downstream (notably
        :class:`RefineCache`) recognize the query set across a
        ``d``-sweep.  The sort itself is deterministic, so memoization
        never changes results.
        """
        cached = self._sort_cache
        if cached is not None and cached[0] is queries:
            return cached[1]
        q_sorted = queries.sorted_by_start_time()
        self._sort_cache = (queries, q_sorted)
        return q_sorted

    def _upload_queries(self, queries: SegmentArray) -> None:
        """Charge the h2d transfer of the query set (it fits on the GPU by
        assumption, §III) at search time."""
        nbytes = len(queries) * QUERY_ITEM_BYTES
        self.gpu.transfers.h2d("query_set", nbytes)
