"""Vectorized, incremental EarlyStart/LateStart bounds.

For a partial schedule, the transitive bounds of Section 3.3 are::

    EarlyStart(v) = max over scheduled u:  t_u + mindist[u][v]
    LateStart(v)  = min over scheduled u:  t_u - mindist[v][u]

The seed recomputed both with a Python loop over every scheduled
operation *per placement query* — O(n) dict lookups per query, O(n^2)
per attempt.  :class:`StartBounds` keeps the running max/min for **all**
operations as NumPy arrays and folds each new placement in with one
vectorized row update per bound, making every query O(1) and every
placement O(n).

Placements are monotone (bounds only tighten), which is exactly how the
window-scanning schedulers (HRMS, SMS) use them; ejection-based methods
that un-place operations recompute their bounds per pick instead.
"""

from __future__ import annotations

import numpy as np

from repro.engine.mindist import _NO_PATH_CUTOFF

#: Sentinels standing in for "no path" in the folded matrices and for
#: "no bound yet" in the running arrays.
_LOW = -(2**62)
_HIGH = 2**62
#: Bounds beyond +/- this are sentinel-derived, never real.
_LIMIT = 2**61


class StartBounds:
    """Running transitive EarlyStart/LateStart over a MinDist matrix.

    Reachability is folded into two sentinel-valued matrices at
    construction: ``out[i]`` is row ``dist[i]`` with ``_LOW`` where
    there is no path, ``into[i]`` is column ``-dist[:, i]`` (stored as a
    contiguous row) with ``_HIGH`` where there is no path.  A placement
    is then ``es = max(es, cycle + out[i])`` and
    ``ls = min(ls, cycle + into[i])``, with no masks.

    Invariant: real bounds lie above ``_NO_PATH_CUTOFF`` (-5·10⁸) and
    below ``-_NO_PATH_CUTOFF`` — a real MinDist entry exceeds the
    cutoff, and placement cycles are far smaller than 5·10⁸.  The
    sentinels sit at ±2**62 and the validity threshold at ±2**61, so
    for any ``|cycle| < 2**61`` the sums ``cycle + _LOW`` and
    ``cycle + _HIGH`` neither overflow int64 nor land inside
    ``(-_LIMIT, _LIMIT)``: a bound inside that range is real, one
    outside it means no scheduled operation constrains the op.
    """

    def __init__(self, dist: np.ndarray) -> None:
        n = dist.shape[0]
        #: The matrix the bounds were built over (read-only, shared);
        #: sessions use its identity to decide whether a cached
        #: instance can be reset instead of rebuilt.
        self.dist = dist
        reach = dist > _NO_PATH_CUTOFF
        self._out = np.where(reach, dist, _LOW)
        self._into = np.ascontiguousarray(np.where(reach, -dist, _HIGH).T)
        self._es = np.full(n, _LOW, dtype=np.int64)
        self._ls = np.full(n, _HIGH, dtype=np.int64)
        self._row = np.empty(n, dtype=np.int64)

    def reset(self) -> None:
        """Forget every placement; equivalent to a fresh construction
        over the same matrix (the folded matrices are kept)."""
        self._es.fill(_LOW)
        self._ls.fill(_HIGH)

    def place(self, i: int, cycle: int) -> None:
        """Fold ``operation i scheduled at cycle`` into every bound."""
        row = self._row
        np.add(self._out[i], cycle, out=row)
        np.maximum(self._es, row, out=self._es)
        np.add(self._into[i], cycle, out=row)
        np.minimum(self._ls, row, out=self._ls)

    def early_start(self, i: int) -> int | None:
        """EarlyStart of operation *i*, or ``None`` if unconstrained."""
        es = self._es.item(i)
        return es if es > -_LIMIT else None

    def late_start(self, i: int) -> int | None:
        """LateStart of operation *i*, or ``None`` if unconstrained."""
        ls = self._ls.item(i)
        return ls if ls < _LIMIT else None
