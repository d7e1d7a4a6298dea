"""Lazily evaluated infinite frieze patterns with coefficients.

An infinite frieze is a Z^2-indexed array f[i,j] (j >= i) with f[i,i] = 0,
all other entries nonzero, and every diamond satisfying

    f[i,j]*f[i+1,j+1] - f[i+1,j]*f[i,j+1] = f[i,i+1]*f[j,j+1].

It is determined by its first two nontrivial rows x_i = f[i,i+1] and
y_i = f[i,i+2].  Entries below them come on demand from the engine shared
with frieze matrices (``matrix._FriezeRows``), which fills each row by the
linear recurrence the diamond rule implies and keeps it as one list that
only grows; a zero entry below the second row is an error, raised eagerly.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import WindowExceededError, ZeroEntryError
from .field import FieldDescriptor, FieldElement, FieldMismatchError
from .matrix import FriezeMatrix, _FriezeRows

__all__ = [
    "FriezeSeeds",
    "InfiniteFrieze",
    "SeedRow",
    "cone_entries",
    "detect_period",
    "extract_m_minus",
    "extract_m_plus",
]


class SeedRow:
    """A row of nonzero values indexed by Z.

    Either a periodic cycle (total on Z) or a finite table with a declared
    window; reading outside the window raises, it is never extrapolated.
    """

    __slots__ = ("values", "start")

    def __init__(self, values, start: int | None = None):
        self.values = tuple(values)
        self.start = start
        if not self.values:
            raise ValueError("seed row needs at least one value")
        if any(v.is_zero for v in self.values):
            raise ValueError("seed row values must be nonzero")

    @classmethod
    def cycle(cls, values) -> "SeedRow":
        return cls(values, start=None)

    @classmethod
    def table(cls, start: int, values) -> "SeedRow":
        return cls(values, start=start)

    @property
    def period(self) -> int | None:
        """The cycle's length, or None for a table."""
        return len(self.values) if self.start is None else None

    def value(self, i: int) -> FieldElement:
        if self.start is None:
            return self.values[i % len(self.values)]
        if not (self.start <= i < self.start + len(self.values)):
            raise WindowExceededError(i, self.start, self.start + len(self.values))
        return self.values[i - self.start]


def _joint_period(*rows) -> int | None:
    """The lcm of the periods of ``rows`` when every one is a SeedRow
    cycle, else None."""
    periods = [r.period if isinstance(r, SeedRow) else None for r in rows]
    return None if None in periods else math.lcm(*periods)


_ZERO_MESSAGE = "frieze entry ({i},{j}) is zero; the seeds generate no frieze"


class FriezeSeeds(namedtuple("FriezeSeeds", "x y field")):
    """First-two-row data of a frieze: x and y SeedRows plus the field."""

    __slots__ = ()


class InfiniteFrieze:
    """Evaluator for the entries f[i,j] of a frieze.

    Evaluation order never changes values: rows below y are filled by the
    fixed recurrence

        f[i,j] = (f[i,j-1]*y_{j-2} - f[i,j-2]*x_{j-1}) / x_{j-2}

    and the evaluator keeps every cell it computed, as
    ``zerofrieze.ZeroFrieze`` does, so behaviour is that of a pure function;
    instances carry no locks, give each thread its own or share read-only.
    Within one command the cells kept are bounded by the window and extent
    caps.

    When x and y are both cycles, of lcm period P, f[i+P,j+P] = f[i,j]: by
    induction on j - i, since the recurrence computes f[i,j] from f[i,j-1],
    f[i,j-2] and seeds at j-1 and j-2, which a shift by P leaves unchanged.
    The evaluator then reads f[i,j] as f[i-s,j-s], with s the multiple of P
    that takes i into [0, P), and keeps the element of each residue and
    depth it reads.  A shift by P leaves each cell's reads and failures
    unchanged, so the cone of (i-s, j-s) fails first, in the engine's order,
    at the shift of the cell where that of (i, j) does: a zero found at
    (a, b) is raised as the zero at (a+s, b+s).
    """

    def __init__(self, seeds: FriezeSeeds):
        self.seeds = seeds
        self._rows = _FriezeRows(seeds.x.value, seeds.y.value, _ZERO_MESSAGE)
        # P for cycle seeds, None for tables.
        self._period = _joint_period(seeds.x, seeds.y)
        # (c, d) -> f[c, c+d] for c in [0, P) and d >= 3.
        self._kept: dict[tuple[int, int], FieldElement] = {}

    @property
    def field(self) -> FieldDescriptor:
        return self.seeds.field

    def x(self, i: int) -> FieldElement:
        return self.seeds.x.value(i)

    def entry(self, i: int, j: int) -> FieldElement:
        if j < i:
            raise ValueError(f"frieze entries need j >= i, got ({i},{j})")
        if j == i:
            return self.field.zero
        if self._period is None or j - i < 3:
            return self._rows.get(i, j)
        c, d = i % self._period, j - i
        kept = self._kept.get((c, d))
        if kept is None:
            try:
                kept = self._kept[c, d] = self._rows.get(c, c + d)
            except ZeroEntryError as exc:
                a, b = (k + i - c for k in exc.indices)
                raise ZeroEntryError((a, b), _ZERO_MESSAGE.format(i=a, j=b)) from None
        return kept

    def row(self, d: int, lo: int, hi: int) -> list[FieldElement]:
        """``[self.entry(i, i + d) for i in range(lo, hi)]``; a row d >= 3 is
        read through the engine in one pass, on cycles as one period of
        residues, repeated."""
        if d < 3:
            return [self.entry(i, i + d) for i in range(lo, hi)]
        period = self._period
        if period is None:
            return self._rows.row(d - 3, lo, hi)
        if hi - lo >= period:
            try:
                for c, e in enumerate(self._rows.row(d - 3, 0, period)):
                    self._kept[c, d] = e
            except (ZeroEntryError, FieldMismatchError):
                pass  # the reads below raise this row's first error, where it was read
        head = [self.entry(i, i + d) for i in range(lo, lo + min(hi - lo, period))]
        return [head[t % period] for t in range(hi - lo)]


def cone_entries(
    f: InfiniteFrieze, i: int, j: int
) -> list[tuple[tuple[int, int], FieldElement]]:
    """The cone of the entry (i, j), all f[x,y] with i <= x <= y <= j,
    row-major by x then y."""
    if j < i:
        raise ValueError("cone needs j >= i")
    return [((a, b), f.entry(a, b)) for a in range(i, j + 1) for b in range(a, j + 1)]


def _extract(f: InfiniteFrieze, n: int, index) -> FriezeMatrix:
    """Symmetric n x n matrix with entry (i, j), i <= j, f[index(i, j)], read row
    by row from the diagonal on: below it, a row only repeats earlier reads."""
    if n < 2:
        raise ValueError("need n >= 2")
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = f.entry(*index(i + 1, j + 1))
    return FriezeMatrix(grid)


def extract_m_plus(f: InfiniteFrieze, k: int, n: int) -> FriezeMatrix:
    """n x n matrix whose lower triangle is the cone of f[k, k+n-1].

    Entry (i, j) with j <= i is f[k+j-1, k+i-1]; the upper triangle is the
    symmetric extension.
    """
    return _extract(f, n, lambda lo, hi: (k + lo - 1, k + hi - 1))


def extract_m_minus(f: InfiniteFrieze, k: int, n: int) -> FriezeMatrix:
    """Mirror of :func:`extract_m_plus`, built from the cone of f[k-n+2, k+1].

    Entry (i, j) with i <= j is f[k-j+2, k-i+2].
    """
    return _extract(f, n, lambda lo, hi: (k - hi + 2, k - lo + 2))


def detect_period(
    f: InfiniteFrieze, max_period: int, depth: int, col_start: int = 0
) -> int | None:
    """Smallest P <= max_period with f[i,j] = f[i+P,j+P] on a finite window.

    The certificate window is rows 1..depth and columns i in
    [col_start, col_start + max_period]; periodicity is certified on that
    window only, which is all finite data can support.  Both sides are read
    through ``f``, which keeps every cell it computed, so each candidate P
    computes only the cells its shifted side adds.
    """
    if max_period < 1 or depth < 1:
        raise ValueError("max_period and depth must be positive")
    for period in range(1, max_period + 1):
        if all(
            f.entry(i, i + r) == f.entry(i + period, i + period + r)
            for r in range(1, depth + 1)
            for i in range(col_start, col_start + max_period + 1)
        ):
            return period
    return None
