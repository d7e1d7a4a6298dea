"""The package surface: what a cold command loads, the public names the
package resolves on first use, and the record types."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import friezecalc
from friezecalc import (
    RATIONAL,
    DetCheckReport,
    EliminationTrace,
    FieldDescriptor,
    FriezeSeeds,
    QuiddityData,
    SeedData,
    SeedRow,
    Triangulation,
    TwoRowMatrix,
    ValidationReport,
    Violation,
)

from conftest import FIXTURES, rat

SRC = Path(friezecalc.__file__).resolve().parents[1]

# Runs the CLI on its arguments as `python -m friezecalc` does, or only
# imports it when there are none, then writes the loaded modules to stderr.
_PROBE = """\
import sys
import friezecalc.cli
code = friezecalc.cli.run(sys.argv[1:]) if sys.argv[1:] else 0
sys.stderr.write("\\nexit %d loaded %s\\n" % (code, " ".join(sorted(sys.modules))))
"""

NEVER_LOADED = {"dataclasses", "fractions", "inspect", "typing"}
COMMON = {"friezecalc", "friezecalc.cli", "friezecalc.errors", "friezecalc.field",
          "friezecalc.matrix", "friezecalc.serialize"}


def _cold(*argv: str) -> tuple[int, set[str]]:
    """Exit code and loaded modules of one fresh interpreter, started with
    -S so that no site-installed module is in the set."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    last = done.stderr.splitlines()[-1].split()
    assert last[0] == "exit" and last[2] == "loaded", done.stderr
    return int(last[1]), set(last[3:])


@pytest.mark.parametrize(
    "argv, code, more",
    [
        ((), 0, set()),
        (("validate", str(FIXTURES / "exm_corrected.json")), 0, set()),
        (("frieze", "gen", "--seeds", str(FIXTURES / "const23_seeds.json"),
          "--rows", "3", "--cols", "3"), 0, {"frieze"}),
        (("zerofrieze", "check", str(FIXTURES / "zerofrieze_example_seeds.json"),
          "--rows", "5", "--cols", "3", "--start", "-2"), 0, {"frieze", "zerofrieze"}),
        (("cc", "check", "--quiddity", "1,2,1,2"), 0, {"classical"}),
        (("bm", "random", "--n", "5", "--count", "3"), 0, {"classical", "generators"}),
    ],
    ids=["import", "validate", "frieze-gen", "zerofrieze-check", "cc-check", "bm-random"],
)
def test_cold_command_loads_only_what_it_runs(argv, code, more):
    rc, loaded = _cold(*argv)
    assert rc == code
    assert {m for m in loaded if m.partition(".")[0] == "friezecalc"} == COMMON | {
        f"friezecalc.{m}" for m in more
    }
    assert not loaded & NEVER_LOADED


# The public names of the package and the modules that define them.
PUBLIC = {
    "classical": "DetCheckReport QuiddityData Triangulation TwoRowMatrix baur_marsh_det_check "
                 "cc_det_check cc_matrix delta_minor_matrix quiddity_from_triangulation",
    "errors": "FactorizationImpossibleError FriezeError OrderViolationError "
              "WindowExceededError ZeroEntryError ZeroMinorError",
    "field": "RATIONAL ElementSyntaxError FieldDescriptor FieldElement FieldMismatchError "
             "format_element parse_element",
    "frieze": "FriezeSeeds InfiniteFrieze SeedRow cone_entries detect_period extract_m_minus "
              "extract_m_plus",
    "matrix": "EliminationTrace FriezeMatrix SeedData TriangularMatrix ValidationReport "
              "Violation build_from_seeds check_ptolemy check_t_properties det_closed_form "
              "det_elimination reconstruct_entry triangulate validate",
    "zerofrieze": "ZeroFrieze check_zero_diamond from_frieze rank1_factorize window_cells",
}


def test_public_names_resolve_to_the_objects_of_their_modules():
    names = [(module, name) for module, text in PUBLIC.items() for name in text.split()]
    assert sorted(friezecalc.__all__) == sorted(name for _, name in names)
    for module, name in names:
        assert getattr(friezecalc, name) is getattr(
            importlib.import_module(f"friezecalc.{module}"), name
        ), name
    assert set(friezecalc.__all__) <= set(dir(friezecalc))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from friezecalc import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(friezecalc.__all__)
    assert all(value is getattr(friezecalc, name) for name, value in namespace.items())


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        friezecalc.nope
    assert not hasattr(friezecalc, "nope")


# ------------------------------------------------------------------ records

ONE, TWO, THREE = rat(1), rat(2), rat(3)
CYCLE, OTHER_CYCLE = SeedRow.cycle([ONE]), SeedRow.cycle([TWO])

# Record, its fields and values, the same with one value changed, and each
# refused construction with its error message.
RECORDS = [
    (FieldDescriptor, {"d": 5}, {"d": -3}, [
        ((4,), "d=4 is a square; the extension would collapse to Q"),
        ((1,), "d=1 is a square; the extension would collapse to Q"),
        ((0,), "d=0 is a square; the extension would collapse to Q"),
    ]),
    (Violation, {"rule": "diamond", "indices": (1, 2), "lhs": ONE, "rhs": TWO},
     {"rule": "ptolemy", "indices": (1, 2), "lhs": ONE, "rhs": TWO}, []),
    (ValidationReport, {"violations": (Violation("diamond", (1, 2), ONE, TWO),)},
     {"violations": ()}, []),
    (SeedData, {"x": (ONE, TWO), "y": (THREE,)}, {"x": (ONE, TWO), "y": (ONE,)}, [
        (((), ()), "need len(x) = n-1 >= 1 and len(y) = n-2"),
        (((ONE, TWO), ()), "need len(x) = n-1 >= 1 and len(y) = n-2"),
        (((ONE, RATIONAL.zero), (ONE,)), "seed entries must be nonzero"),
    ]),
    (EliminationTrace, {"matrices": (((ONE,),),), "steps": ("swap rows 1 and 2",)},
     {"matrices": (((TWO,),),), "steps": ("swap rows 1 and 2",)}, []),
    (QuiddityData, {"a": (1, 3, 1, 3, 1, 3)}, {"a": (1, 2, 1, 2)}, [
        (((1, 1),), "quiddity sequences have length k >= 3"),
        (((1, 0, 2),), "quiddity entries must be positive integers"),
    ]),
    (Triangulation, {"k": 5, "diagonals": frozenset({(1, 3), (1, 4)})},
     {"k": 5, "diagonals": frozenset({(2, 4), (2, 5)})}, [
        ((2, ()), "polygon needs k >= 3 vertices"),
        ((5, {(1, 3)}), "a 5-gon triangulation has 2 diagonals, got 1"),
        ((4, {(1, 2)}), "(1,2) is not a diagonal of a 4-gon"),
        ((4, {(1, 4)}), "(1,4) is not a diagonal of a 4-gon"),
        ((5, {(1, 3), (2, 4)}), "diagonals (1, 3) and (2, 4) cross"),
    ]),
    (DetCheckReport, {"det": ONE, "det_oracle": ONE, "expected": TWO},
     {"det": ONE, "det_oracle": ONE, "expected": ONE}, []),
    (TwoRowMatrix, {"top": (ONE, TWO), "bottom": (THREE, ONE)},
     {"top": (ONE, TWO), "bottom": (THREE, TWO)}, [
        (((ONE,), (TWO,)), "need two rows of equal length n >= 2"),
        (((ONE, TWO), (TWO,)), "need two rows of equal length n >= 2"),
    ]),
    (FriezeSeeds, {"x": CYCLE, "y": CYCLE, "field": RATIONAL},
     {"x": CYCLE, "y": OTHER_CYCLE, "field": RATIONAL}, []),
]


@pytest.mark.parametrize(
    "record, fields, changed, refused", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_semantics(record, fields, changed, refused):
    values = tuple(fields.values())
    r = record(*values)
    assert record._fields == tuple(fields)
    assert all(getattr(r, name) == value for name, value in fields.items())
    # Keyword and positional construction agree, and records compare and
    # hash by value; a record is the tuple of its fields.
    keyword = record(**fields)
    assert keyword == r and hash(keyword) == hash(r)
    assert record(*changed.values()) != r
    assert r == values and tuple(r) == values
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(r, name, getattr(r, name))
    with pytest.raises(AttributeError):
        r.extra = 1
    assert repr(r) == f"{record.__name__}(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()
    ) + ")"
    assert record._make(values) == r and r._replace() == r
    for args, message in refused:
        # `_make` and `_replace` build through the same checks.
        for build in (
            lambda: record(*args),
            lambda: record._make(args),
            lambda: r._replace(**dict(zip(fields, args))),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message


def test_record_defaults_and_normal_forms():
    assert FieldDescriptor() == FieldDescriptor(None) == RATIONAL
    assert FieldDescriptor().d is None and repr(RATIONAL) == "FieldDescriptor(d=None)"
    assert ValidationReport().violations == () and ValidationReport().ok
    assert repr(ValidationReport()) == "ValidationReport(violations=())"
    # Constructors hold their sequences in one normal form.
    assert SeedData([ONE, TWO], [THREE]).x == (ONE, TWO)
    assert TwoRowMatrix([ONE, TWO], [THREE, ONE]).bottom == (THREE, ONE)
    assert QuiddityData(["1", 2, 1, 2]).a == (1, 2, 1, 2)
    assert Triangulation(5, [[3, 1], (4, 1)]).diagonals == frozenset({(1, 3), (1, 4)})
