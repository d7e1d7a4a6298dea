"""Seeded random generators for matrices, triangulations and seed data.

All generators take an explicit ``random.Random`` so runs are reproducible;
rejection sampling retries when the drawn data fails a nonzero condition.
Rational magnitudes stay small (|num| <= 9, den <= 4 by default) to keep
entry growth manageable on the larger sizes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .classical import Triangulation, TwoRowMatrix, delta_minor_matrix
from .errors import ZeroEntryError, ZeroMinorError
from .field import RATIONAL, FieldDescriptor, FieldElement
from .matrix import FriezeMatrix, SeedData, build_from_seeds

__all__ = [
    "random_element",
    "random_frieze_matrix",
    "random_rational",
    "random_seed_data",
    "random_triangulation",
    "random_two_row_matrix",
]


def random_rational(
    rng: random.Random, max_num: int = 9, max_den: int = 4, nonzero: bool = False
) -> Fraction:
    while True:
        val = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if not (nonzero and val == 0):
            return val


def random_element(
    rng: random.Random,
    field: FieldDescriptor,
    max_num: int = 9,
    max_den: int = 4,
    nonzero: bool = False,
) -> FieldElement:
    while True:
        a = random_rational(rng, max_num, max_den)
        # Half of the quadratic draws stay rational to vary the mix.
        b = Fraction(0)
        if not field.is_rational and rng.random() < 0.5:
            b = random_rational(rng, 3, 2)
        el = field.element(a, b)
        if not (nonzero and el.is_zero):
            return el


def random_seed_data(rng: random.Random, n: int, field: FieldDescriptor) -> SeedData:
    if n < 2:
        raise ValueError("need n >= 2")
    x = tuple(random_element(rng, field, nonzero=True) for _ in range(n - 1))
    y = tuple(random_element(rng, field, nonzero=True) for _ in range(n - 2))
    return SeedData(x, y)


def random_frieze_matrix(
    rng: random.Random, n: int, field: FieldDescriptor, max_tries: int = 500
) -> FriezeMatrix:
    """Draw seeds until the construction succeeds (no zero entries).

    Raises ValueError when ``max_tries`` draws all fail.
    """
    for _ in range(max_tries):
        try:
            return build_from_seeds(random_seed_data(rng, n, field), field)
        except ZeroEntryError:
            continue
    raise ValueError(f"no frieze matrix of size {n} found in {max_tries} tries")


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

    Raises ValueError when ``max_tries`` draws all have a zero minor.
    """
    for _ in range(max_tries):
        x = TwoRowMatrix(
            tuple(RATIONAL.from_int(rng.randint(-max_abs, max_abs)) for _ in range(n)),
            tuple(RATIONAL.from_int(rng.randint(-max_abs, max_abs)) for _ in range(n)),
        )
        try:
            delta_minor_matrix(x)
        except ZeroMinorError:
            continue
        return x
    raise ValueError(f"no nonzero-minor 2x{n} matrix found in {max_tries} tries")
