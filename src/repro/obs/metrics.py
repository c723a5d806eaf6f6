"""Named counters, gauges, and histograms for the DFS pipeline.

The hot structures (splay forests, HDT levels, RC-trees, Luby rounds)
report *what the machinery did* — rotation counts, promotion counts,
replacement-scan lengths — through instruments handed out by a
:class:`Metrics` registry.  Three properties matter here:

* **cheap on the hot path** — a :class:`Counter` is a slotted object
  holding one integer; per-element sites bump ``counter.value += 1``
  directly (no method call), and per-batch sites use :meth:`Counter.inc`.
  A :class:`Histogram` keeps only count/total/min/max — O(1) state, no
  buckets to rebalance.
* **observational only** — instruments never touch the
  :class:`~repro.pram.tracker.Tracker`, the RNG, or any iteration order,
  so enabling metrics cannot perturb tracked work/span or the
  byte-identical tracked↔numpy contract.
* **deterministic export** — :meth:`Metrics.as_dict` reports in sorted
  name order, so ledgers and traces diff cleanly across runs.

:data:`NULL_METRICS` is the disabled-mode registry: it hands out fresh
*unregistered* instruments, so instrumented code runs identically (same
integer bumps) whether or not anyone is collecting — the registry simply
never sees the values.  This keeps the disabled path free of branches.
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "Reservoir",
]


class Counter:
    """A monotonically growing integer.

    Hot loops bump :attr:`value` directly (``ctr.value += 1``); colder
    sites use :meth:`inc` for readability.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, delta: int = 1) -> None:
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value-wins instrument (e.g. "levels materialized")."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """count/total/min/max summary of an observed distribution.

    Deliberately bucket-free: O(1) state and a handful of integer ops
    per :meth:`observe`, cheap enough to live at per-splay granularity.
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.vmin = 0
        self.vmax = 0

    def observe(self, v: int | float) -> None:
        if self.count == 0:
            self.vmin = self.vmax = v
        else:
            if v < self.vmin:
                self.vmin = v
            if v > self.vmax:
                self.vmax = v
        self.count += 1
        self.total += v

    def observe_many(
        self, count: int, total: int | float, vmin: int | float,
        vmax: int | float,
    ) -> None:
        """Fold in ``count`` observations summing to ``total`` with
        minimum ``vmin`` and maximum ``vmax``: the state that ``count``
        :meth:`observe` calls leave, since the summary is order-free."""
        if count <= 0:
            return
        if self.count == 0:
            self.vmin = vmin
            self.vmax = vmax
        else:
            if vmin < self.vmin:
                self.vmin = vmin
            if vmax > self.vmax:
                self.vmax = vmax
        self.count += count
        self.total += total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": round(self.mean, 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}: {self.summary()})"


class Reservoir:
    """Quantile summary over a bounded, deterministically decimated sample.

    The service tier needs tail latencies (p50/p99), which the O(1)
    :class:`Histogram` cannot answer.  A :class:`Reservoir` keeps every
    ``stride``-th observation, and whenever the retained sample would
    exceed ``limit`` it drops every other retained value and doubles the
    stride — a deterministic decimation (no RNG, so the instrument can
    never perturb the byte-identical contract) that keeps the sample an
    evenly spaced subsequence of the observation stream.  Memory is
    O(limit); :meth:`quantile` sorts the retained sample on demand
    (export-time cost, not hot-path cost).
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "limit",
                 "_stride", "_phase", "_sample")

    def __init__(self, name: str, limit: int = 2048) -> None:
        if limit < 2:
            raise ValueError("reservoir limit must be >= 2")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin = 0.0
        self.vmax = 0.0
        self.limit = limit
        self._stride = 1
        self._phase = 0
        self._sample: list[float] = []

    def observe(self, v: int | float) -> None:
        if self.count == 0:
            self.vmin = self.vmax = v
        else:
            if v < self.vmin:
                self.vmin = v
            if v > self.vmax:
                self.vmax = v
        self.count += 1
        self.total += v
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self._sample.append(v)
            if len(self._sample) >= self.limit:
                # decimate: keep every other retained value, double stride
                self._sample = self._sample[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1) of the retained sample.

        Nearest-rank on the sorted sample; 0.0 when nothing was observed.
        """
        if not self._sample:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        s = sorted(self._sample)
        idx = min(len(s) - 1, max(0, int(round(q * (len(s) - 1)))))
        return s[idx]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": round(self.mean, 6),
            "min": self.vmin,
            "max": self.vmax,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "sampled": len(self._sample),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Reservoir({self.name}: {self.summary()})"


class Metrics:
    """Registry handing out named instruments, memoized per name.

    Asking twice for the same name returns the same instrument, so
    independent structures (e.g. every :class:`EulerTourForest` level)
    accumulate into one shared counter.  A name is permanently bound to
    its first instrument kind; asking for the same name as a different
    kind raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram | Reservoir] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name)
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def reservoir(self, name: str) -> Reservoir:
        return self._get(name, Reservoir)

    def as_dict(self) -> dict:
        """All instruments in sorted name order.

        Counters/gauges export their value; histograms their summary
        dict.  Instruments never observed still appear (value 0 /
        count 0) so the catalogue is visible in every export.
        """
        out: dict = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, (Histogram, Reservoir)):
                out[name] = inst.summary()
            else:
                out[name] = inst.value
        return out

    def __len__(self) -> int:
        return len(self._instruments)


class NullMetrics(Metrics):
    """Disabled-mode registry: fresh unregistered instruments.

    Instrumented code pays the same (tiny) integer bumps either way;
    nothing is retained, and :meth:`as_dict` is always empty.  Handing
    out *fresh* instruments (instead of one shared dummy) keeps a stray
    reader from seeing garbage accumulated across unrelated runs.
    """

    def _get(self, name: str, cls):
        return cls(name)

    def as_dict(self) -> dict:
        return {}


#: process-wide disabled registry (see :mod:`repro.obs.runtime`)
NULL_METRICS = NullMetrics()
