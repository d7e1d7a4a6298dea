"""Per-layer tracing of friezecalc from outside the package.

Two kinds of instrumentation rebind the package's public functions with
wrappers defined here; nothing under ``src/`` changes:

* :class:`Spans` times every call into a layer.  A layer's self time is the
  span's duration minus the time covered by nested spans of any layer.
* :class:`Counts` counts the ``FieldElement`` operators (an operator called
  inside another one is not counted again) and records the largest
  numerator or denominator among the elements the public functions return.

Run as a script, this module is the traced stand-in for
``python -m friezecalc``:

    python3 bench/tracing.py spans|counts STATS_FILE ARG...

runs the CLI on ``ARG...`` with the instrumentation installed and writes
the collected figures to ``STATS_FILE`` as JSON.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import time
import traceback
from collections import defaultdict

from friezecalc import classical, cli, field, frieze, matrix, serialize, zerofrieze
from friezecalc.field import FieldElement

_format = field.format_element  # unwrapped, for reading bit sizes
_DIGITS = re.compile(r"\d+")

# Layer name -> (owner, attribute) of the callables it covers.
_FIXED = [
    ("matrix.det_elimination", matrix, "det_elimination"),
    ("matrix.check_ptolemy", matrix, "check_ptolemy"),
    ("matrix.validate", matrix, "validate"),
    ("matrix.triangulate", matrix, "triangulate"),
    ("matrix.check_t_properties", matrix, "check_t_properties"),
    ("matrix.reconstruct_entry", matrix, "reconstruct_entry"),
    ("matrix.det_closed_form", matrix, "det_closed_form"),
    ("matrix.build_from_seeds", matrix, "build_from_seeds"),
    ("frieze.entry", frieze.InfiniteFrieze, "entry"),
    ("frieze.extract", frieze, "extract_m_plus"),
    ("frieze.extract", frieze, "extract_m_minus"),
    ("frieze.cone_entries", frieze, "cone_entries"),
    ("frieze.detect_period", frieze, "detect_period"),
    ("zerofrieze.entry", zerofrieze.ZeroFrieze, "entry"),
    ("zerofrieze.window_cells", zerofrieze, "window_cells"),
    ("zerofrieze.check_zero_diamond", zerofrieze, "check_zero_diamond"),
    ("zerofrieze.rank1_factorize", zerofrieze, "rank1_factorize"),
    ("classical.cc_det_check", classical, "cc_det_check"),
    ("classical.baur_marsh_det_check", classical, "baur_marsh_det_check"),
    ("classical.cc_matrix", classical, "cc_matrix"),
    ("classical.delta_minor_matrix", classical, "delta_minor_matrix"),
    ("field.parse", field, "parse_element"),
    ("field.format", field, "format_element"),
    ("cli.run", cli, "run"),
]

LAYERS = sorted({layer for layer, _, _ in _FIXED} | {"serialize.load", "serialize.emit"})

# Operator -> counter; `sub` is counted with `add`, `inv` with `div`.
_OPERATORS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div", "inv": "div", "__eq__": "eq",
}
OP_KINDS = ("mul", "div", "add", "eq")


def _targets():
    """(layer, owner, attribute) of every traced callable that exists."""
    out = [t for t in _FIXED if hasattr(t[1], t[2])]
    for name in sorted(vars(serialize)):
        if name.startswith("_") or not callable(getattr(serialize, name)):
            continue
        if name.endswith("_from_json"):
            out.append(("serialize.load", serialize, name))
        elif name.endswith("_to_json") or (name.startswith("render_") and name.endswith("_grid")):
            out.append(("serialize.emit", serialize, name))
    return out


class _Patch:
    """Rebinds callables everywhere the package refers to them, and undoes it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        new = make(orig)
        if isinstance(owner, type):
            self._set(owner, attr, new)
            return
        # `from .matrix import validate` copies the binding into other
        # modules, so rebind every module-level name that refers to it.
        for mod in [m for name, m in sys.modules.items() if name.partition(".")[0] == "friezecalc"]:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, new)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


class Spans:
    """Call counts and self time per layer."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._patch = _Patch()

    def install(self) -> None:
        calls, self_s = self.calls, self.self_s
        # child[-1] accumulates the time of spans nested in the innermost
        # open span; child[0] belongs to no span.
        child = [0.0]
        clock = time.perf_counter

        def make(layer):
            def wrap(fn):
                def traced(*args, **kwargs):
                    child.append(0.0)
                    t0 = clock()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        dt = clock() - t0
                        nested = child.pop()
                        child[-1] += dt
                        calls[layer] += 1
                        self_s[layer] += dt - nested

                return traced

            return wrap

        for layer, owner, attr in _targets():
            self._patch.replace(owner, attr, make(layer))

    def uninstall(self) -> None:
        self._patch.undo()

    def stats(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s)}


class Counts:
    """Field-operator counts and the peak coefficient bit length."""

    def __init__(self):
        self.ops = dict.fromkeys(OP_KINDS, 0)
        self.peak_bits = 0
        self._patch = _Patch()

    def install(self) -> None:
        ops = self.ops
        depth = [0]

        def counted_op(kind):
            def wrap(fn):
                def op(*args):
                    if depth[0]:
                        return fn(*args)
                    depth[0] += 1
                    try:
                        return fn(*args)
                    finally:
                        depth[0] -= 1
                        ops[kind] += 1

                return op

            return wrap

        def scanned(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.scan(out)
                return out

            return call

        for attr, kind in _OPERATORS.items():
            self._patch.replace(FieldElement, attr, counted_op(kind))
        for _, owner, attr in _targets():
            self._patch.replace(owner, attr, scanned)

    def uninstall(self) -> None:
        self._patch.undo()

    def scan(self, obj) -> None:
        if isinstance(obj, FieldElement):
            # Read the bit sizes off the canonical string so that they do
            # not depend on how an element stores its coefficients.
            bits = max(int(t).bit_length() for t in _DIGITS.findall(_format(obj)))
            if bits > self.peak_bits:
                self.peak_bits = bits
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                self.scan(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                self.scan(item)
        elif isinstance(obj, matrix.FriezeMatrix):
            self.scan(obj.rows())
        elif isinstance(obj, frieze.SeedRow):
            self.scan(obj.values)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                self.scan(getattr(obj, f.name))

    def stats(self) -> dict:
        return {"ops": dict(self.ops), "peak_bits": self.peak_bits}


def main(argv: list[str]) -> int:
    kind, stats_path, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Spans() if kind == "spans" else Counts()
    tracer.install()
    try:
        rc = cli.run(cli_argv)
    except Exception:  # what the interpreter does with an uncaught error
        traceback.print_exc()
        rc = 1
    tracer.uninstall()
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.stats(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
