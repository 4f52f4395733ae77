"""SPMD search driver over a communicator (the mpi4py deployment shape).

Each rank owns one shard of the database (and, in a real deployment, one
GPU).  The root broadcasts the query workload; every rank searches its
shard locally; the root gathers and merges.  Written against the
:class:`~repro.distributed.comm.Communicator` protocol, so the same code
runs in-process for tests (:class:`LoopbackComm`) and under
``mpiexec`` with mpi4py (:class:`Mpi4pyComm`)::

    # driver_script.py — run as: mpiexec -n 4 python driver_script.py
    comm = Mpi4pyComm()
    shard = load_segments(f"shard_{comm.rank}.npz")
    driver = SpmdSearchDriver(comm, GpuTemporalEngine(shard,
                                                      num_bins=1000))
    results = driver.search(queries if comm.rank == 0 else None, d=1.5)
    if comm.rank == 0:
        ...  # results is the merged ResultSet

Shards are produced by :func:`repro.distributed.partition_database`; the
merged result equals the single-node search because shards are disjoint
and covering — :func:`repro.core.merge.merge_disjoint` checks it, as it
does for the simulated :class:`GpuCluster`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.merge import merge_disjoint
from ..core.result import ResultSet
from ..core.types import SegmentArray
from ..engines.base import SearchEngine
from .comm import Communicator

__all__ = ["SpmdSearchDriver", "run_spmd_search"]


@dataclass
class SpmdSearchDriver:
    """One rank's view of the distributed search."""

    comm: Communicator
    engine: SearchEngine

    def search(self, queries: SegmentArray | None, d: float, *,
               exclude_same_trajectory: bool = False,
               root: int = 0) -> ResultSet | None:
        """Collective: every rank must call this.

        ``queries`` is only read on the root (others may pass None, as
        with mpi4py collectives).  Returns the merged result set on the
        root and None elsewhere.
        """
        if self.comm.rank == root and queries is None:
            raise ValueError("root rank must provide the query set")
        queries = self.comm.bcast(queries, root=root)
        local, _profile = self.engine.search(
            queries, d, exclude_same_trajectory=exclude_same_trajectory)
        gathered = self.comm.gather(local, root=root)
        if self.comm.rank != root:
            return None
        assert gathered is not None
        return merge_disjoint(gathered)


def run_spmd_search(comms: list[Communicator],
                    engines: list[SearchEngine],
                    queries: SegmentArray, d: float, *,
                    exclude_same_trajectory: bool = False
                    ) -> ResultSet:
    """Execute the collective across an in-process world.

    Test/driver helper for :class:`LoopbackComm` worlds: runs every
    rank's side of the collective sequentially (non-root ranks first so
    the root's gather sees all contributions) and returns the root's
    merged result.
    """
    if len(comms) != len(engines):
        raise ValueError("one engine per rank required")
    # Sequential execution of a collective: seed the broadcast from the
    # root's side so non-root ranks (which run first, letting the root's
    # gather complete last) can read it.
    root_idx = next(i for i, c in enumerate(comms) if c.rank == 0)
    comms[root_idx].bcast(queries, root=0)
    result: ResultSet | None = None
    order = sorted(range(len(comms)), key=lambda r: comms[r].rank == 0)
    for r in order:
        driver = SpmdSearchDriver(comms[r], engines[r])
        out = driver.search(
            queries if comms[r].rank == 0 else None, d,
            exclude_same_trajectory=exclude_same_trajectory)
        if comms[r].rank == 0:
            result = out
    assert result is not None
    return result
