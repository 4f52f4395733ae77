"""Metrics registry: counters, gauges, and histograms with labels.

The registry is the numeric store behind the ``metrics`` CLI
subcommand and the tests — one set of counters that every layer
(service, engines, kernel model) increments through the ambient
:class:`~repro.obs.telemetry.Telemetry`.

Two export formats:

* :meth:`MetricsRegistry.to_prometheus_text` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines), so a
  scraper or a human can read one snapshot;
* :meth:`MetricsRegistry.snapshot` — a JSON-friendly dict of every
  instrument and series (``repro metrics --format json``).

Instruments are created lazily through ``counter()`` / ``gauge()`` /
``histogram()`` (get-or-create semantics): call sites never need to
know whether the instrument exists yet, and a disabled registry turns
every mutation into a no-op while keeping the same API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_LATENCY_BUCKETS"]

#: Fixed exponential latency buckets (seconds): 1 µs · 4^i, twelve
#: decades from a microsecond to ~4 s, plus the implicit +Inf bucket.
#: Wide enough for both modeled GPU kernels (µs) and degraded CPU
#: scans (s).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    1e-6 * 4.0 ** i for i in range(12))


def _label_key(labels: dict) -> tuple:
    """Deterministic hashable view of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


@dataclass
class _Instrument:
    """Shared shape of every metric: name, help text, label sets."""

    name: str
    help: str
    enabled: bool = True

    def _check(self) -> bool:
        return self.enabled


@dataclass
class Counter(_Instrument):
    """Monotonically increasing count, one series per label set."""

    values: dict = field(default_factory=dict)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._check():
            return
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0.0) + amount

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self.values.values())


@dataclass
class Gauge(_Instrument):
    """Point-in-time value that can go up and down."""

    values: dict = field(default_factory=dict)

    def set(self, value: float, **labels) -> None:
        if not self._check():
            return
        self.values[_label_key(labels)] = float(value)


@dataclass
class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds in increasing order; the +Inf bucket
    is implicit.  Per label set the histogram keeps bucket counts, the
    running sum, and the observation count.
    """

    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    #: label key -> {"counts": [per-bucket cumulative-exclusive counts
    #: as raw per-bucket tallies], "sum": float, "count": int}
    series: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.buckets = tuple(float(b) for b in self.buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be increasing")

    def observe(self, value: float, **labels) -> None:
        if not self._check():
            return
        key = _label_key(labels)
        ser = self.series.get(key)
        if ser is None:
            ser = {"counts": [0] * (len(self.buckets) + 1),
                   "sum": 0.0, "count": 0}
            self.series[key] = ser
        # First bucket whose upper bound holds the value (+Inf last).
        idx = len(self.buckets)
        for i, ub in enumerate(self.buckets):
            if value <= ub:
                idx = i
                break
        ser["counts"][idx] += 1
        ser["sum"] += float(value)
        ser["count"] += 1

    def sum(self, **labels) -> float:
        ser = self.series.get(_label_key(labels))
        return ser["sum"] if ser else 0.0

    def cumulative_counts(self, key: tuple = ()) -> list[int]:
        """Per-bucket cumulative counts (``le`` semantics), +Inf last."""
        ser = self.series.get(key)
        if ser is None:
            return [0] * (len(self.buckets) + 1)
        out, running = [], 0
        for c in ser["counts"]:
            running += c
            out.append(running)
        return out


class MetricsRegistry:
    """Named collection of instruments with export to text and JSON."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, _Instrument] = {}

    # -- get-or-create -----------------------------------------------------------

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(name, Counter, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(name, Gauge, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        if not self.enabled:
            return Histogram(name=name, help=help_text, enabled=False,
                             buckets=buckets)
        inst = self._instruments.get(name)
        if inst is None:
            inst = Histogram(name=name, help=help_text,
                             enabled=self.enabled, buckets=buckets)
            self._instruments[name] = inst
        elif not isinstance(inst, Histogram):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(inst).__name__}")
        return inst

    def _get(self, name: str, cls, help_text: str):
        if not self.enabled:
            # Hand out an unstored no-op: the registry stays empty, so
            # exposition and snapshots of a disabled hub are empty too.
            return cls(name=name, help=help_text, enabled=False)
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name=name, help=help_text, enabled=self.enabled)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(inst).__name__}")
        return inst

    def names(self) -> list[str]:
        return sorted(self._instruments)

    # -- aggregation --------------------------------------------------------------

    def merge_from(self, other: "MetricsRegistry",
                   **extra_labels) -> None:
        """Fold another registry's series into this one, adding
        ``extra_labels`` to every series.

        The sharded router uses this to aggregate its per-replica
        service registries into one view where every series carries
        ``shard=``/``replica=`` labels.  Counters and histogram series
        accumulate; gauges overwrite (last write wins — aggregate
        repeatedly in a stable order).
        """
        if not self.enabled:
            return
        extra = _label_key(extra_labels)
        for name, inst in other._instruments.items():
            if isinstance(inst, Histogram):
                mine = self.histogram(name, inst.help,
                                      buckets=inst.buckets)
                for key, ser in inst.series.items():
                    merged_key = tuple(sorted((*key, *extra)))
                    dst = mine.series.get(merged_key)
                    if dst is None:
                        mine.series[merged_key] = {
                            "counts": list(ser["counts"]),
                            "sum": ser["sum"], "count": ser["count"]}
                    else:
                        dst["counts"] = [a + b for a, b in
                                         zip(dst["counts"],
                                             ser["counts"])]
                        dst["sum"] += ser["sum"]
                        dst["count"] += ser["count"]
            elif isinstance(inst, Counter):
                mine = self.counter(name, inst.help)
                for key, value in inst.values.items():
                    merged_key = tuple(sorted((*key, *extra)))
                    mine.values[merged_key] = \
                        mine.values.get(merged_key, 0.0) + value
            else:
                mine = self.gauge(name, inst.help)
                for key, value in inst.values.items():
                    mine.values[tuple(sorted((*key, *extra)))] = value

    # -- exposition --------------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Render every instrument in the Prometheus text format."""
        lines: list[str] = []
        for name in self.names():
            inst = self._instruments[name]
            if inst.help:
                lines.append(f"# HELP {name} {inst.help}")
            if isinstance(inst, Counter):
                lines.append(f"# TYPE {name} counter")
                for key in sorted(inst.values):
                    lines.append(f"{name}{_format_labels(key)} "
                                 f"{_num(inst.values[key])}")
            elif isinstance(inst, Gauge):
                lines.append(f"# TYPE {name} gauge")
                for key in sorted(inst.values):
                    lines.append(f"{name}{_format_labels(key)} "
                                 f"{_num(inst.values[key])}")
            elif isinstance(inst, Histogram):
                lines.append(f"# TYPE {name} histogram")
                for key in sorted(inst.series):
                    cum = inst.cumulative_counts(key)
                    bounds = [*inst.buckets, math.inf]
                    for ub, c in zip(bounds, cum):
                        le = "+Inf" if math.isinf(ub) else _num(ub)
                        labels = _format_labels(
                            (*key, ("le", le)))
                        lines.append(f"{name}_bucket{labels} {c}")
                    ser = inst.series[key]
                    lines.append(f"{name}_sum{_format_labels(key)} "
                                 f"{_num(ser['sum'])}")
                    lines.append(f"{name}_count{_format_labels(key)} "
                                 f"{ser['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- JSON snapshot ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-friendly dump of every instrument and series."""
        out: dict = {}
        for name, inst in self._instruments.items():
            if isinstance(inst, Histogram):
                out[name] = {
                    "type": "histogram",
                    "help": inst.help,
                    "buckets": list(inst.buckets),
                    "series": [
                        {"labels": [list(kv) for kv in key],
                         "counts": list(ser["counts"]),
                         "sum": ser["sum"], "count": ser["count"]}
                        for key, ser in sorted(inst.series.items())
                    ],
                }
            else:
                kind = ("counter" if isinstance(inst, Counter)
                        else "gauge")
                out[name] = {
                    "type": kind,
                    "help": inst.help,
                    "series": [
                        {"labels": [list(kv) for kv in key],
                         "value": value}
                        for key, value in sorted(inst.values.items())
                    ],
                }
        return out


def _num(value: float) -> str:
    """Prometheus-friendly number: integral values without the .0."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)
