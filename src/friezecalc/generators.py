"""Seeded random triangulations and 2 x n matrices for ``cc random`` and
``bm random``.

Both generators take an explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random

from .classical import Triangulation, TwoRowMatrix
from .field import RATIONAL

__all__ = ["random_triangulation", "random_two_row_matrix"]


def random_triangulation(rng: random.Random, k: int) -> Triangulation:
    """Uniform-random ear splitting; valid but not distribution-uniform."""
    if k < 3:
        raise ValueError("need k >= 3")
    diagonals: list[tuple[int, int]] = []

    def split(vs: list[int]) -> None:
        if len(vs) < 3:
            return
        apex = rng.randrange(1, len(vs) - 1)
        if apex > 1:
            diagonals.append((vs[0], vs[apex]))
        if apex < len(vs) - 2:
            diagonals.append((vs[apex], vs[-1]))
        split(vs[: apex + 1])
        split(vs[apex:])

    split(list(range(1, k + 1)))
    return Triangulation(k, frozenset(diagonals))


def random_two_row_matrix(
    rng: random.Random, n: int, max_abs: int = 9, max_tries: int = 500
) -> TwoRowMatrix:
    """Integer 2 x n matrices, redrawn until every column minor is nonzero.

    A minor a_i*b_j - a_j*b_i is tested on the drawn ints, before any field
    element is built.  Raises ValueError when ``max_tries`` draws all have a
    zero minor.
    """
    for _ in range(max_tries):
        a = [rng.randint(-max_abs, max_abs) for _ in range(n)]
        b = [rng.randint(-max_abs, max_abs) for _ in range(n)]
        if all(a[i] * b[j] != a[j] * b[i] for i in range(n) for j in range(i + 1, n)):
            return TwoRowMatrix(map(RATIONAL.from_int, a), map(RATIONAL.from_int, b))
    raise ValueError(f"no nonzero-minor 2x{n} matrix found in {max_tries} tries")
