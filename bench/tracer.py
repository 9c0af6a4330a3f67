"""Run one jetres CLI job in-process with layer spans and counters attached.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 bench/tracer.py ggl -n 2

Everything is attached from outside the package: each traced public function
is replaced, in every ``jetres`` module that imported it, by a wrapper that
records a span (name ``<module>.<function>``, start, end, parent span, and a
size count read from the return value).  The sparse product ``_mul_terms``
and the ``Fraction`` arithmetic operators get aggregate counters instead of
spans, because they run millions of times.  Spans stay in memory and the
last line of standard output is one JSON object holding the job's exit code,
its result document, the traced wall time, the spans, the counters and the
kernel entries of the job's coefficient tables that assembly pairs (see
``_table_use``).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction


def _terms(poly) -> int:
    return len(poly.terms)


def _numerator_terms(form) -> int:
    return len(form.numerator.terms)


# span name -> (module, attribute path, size count read from the return value)
SPANS = {
    "ggl.ggl_threshold_check": ("jetres.ggl", "ggl_threshold_check", None),
    "ggl.build_intersection_polynomial": ("jetres.ggl", "build_intersection_polynomial", None),
    "ggl.intersection_payload": ("jetres.ggl", "intersection_payload", _terms),
    "ggl.fujiwara_certificate": ("jetres.ggl", "fujiwara_certificate", None),
    "ggl.estimate_checks": ("jetres.ggl", "estimate_checks", None),
    "ggl.expansion_diagnostics": ("jetres.ggl", "expansion_diagnostics", lambda t: len(t.a)),
    "ggl.assemble_intersection_from_tables": (
        "jetres.ggl",
        "assemble_intersection_from_tables",
        None,
    ),
    "ggl.euler_characteristic": ("jetres.ggl", "euler_characteristic", None),
    "exactalg.MultiPoly.substitute": ("jetres.exactalg", "MultiPoly.substitute", _terms),
    "exactalg.MultiPoly.divide_exact": ("jetres.exactalg", "MultiPoly.divide_exact", None),
    "exactalg.DPoly.__call__": ("jetres.exactalg", "DPoly.__call__", None),
    "residue.hypersurface_integrand": ("jetres.residue", "hypersurface_integrand", _numerator_terms),
    "residue.fibre_residue_integrand": ("jetres.residue", "fibre_residue_integrand", _numerator_terms),
    "residue.demailly_integrand": ("jetres.residue", "demailly_integrand", _numerator_terms),
    "residue.residue_expand": ("jetres.residue", "residue_expand", _terms),
    "residue.residue_stepwise": ("jetres.residue", "residue_stepwise", _terms),
    "tower.enumerate_fixed_points": ("jetres.tower", "enumerate_fixed_points", len),
    "localization.fibre_integral_fixed_points": (
        "jetres.localization",
        "fibre_integral_fixed_points",
        None,
    ),
    "polyparse.parse_poly": ("jetres.polyparse", "parse_poly", _terms),
}

# Fraction operators counted as arithmetic: binary (both directions) and unary.
FRACTION_BINARY = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__",
)
FRACTION_UNARY = ("__neg__", "__pos__", "__abs__")


class Tracer:
    """In-memory span list plus the hot-path counters."""

    def __init__(self) -> None:
        # span: [name, parent index, start, end, size count or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # [mul_terms calls, mul_terms self seconds, fraction ops, fraction seconds]
        self.hot = [0, 0.0, 0, 0.0]
        self.tables: list = []

    def span_wrapper(self, name: str, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tables = self.tables

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(out)
            if name == "ggl.expansion_diagnostics":
                tables.append(out)
            return out

        return traced

    def mul_terms_wrapper(self, fn):
        hot, clock = self.hot, time.perf_counter

        def traced(*args, **kwargs):
            f0 = hot[3]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # self time: the Fraction arithmetic inside is its own layer
                hot[1] += clock() - t0 - (hot[3] - f0)
                hot[0] += 1

        return traced

    def fraction_wrapper(self, fn, unary: bool):
        hot, clock = self.hot, time.perf_counter

        if unary:

            def traced(a):
                t0 = clock()
                out = fn(a)
                hot[3] += clock() - t0
                hot[2] += 1
                return out

        else:

            def traced(a, b):
                t0 = clock()
                out = fn(a, b)
                hot[3] += clock() - t0
                hot[2] += 1
                return out

        return traced

    def install(self) -> None:
        """Replace the traced callables in every loaded jetres module."""
        import jetres.cli  # noqa: F401  (loads every module the CLI uses)

        for name, (modname, attr, count) in SPANS.items():
            owner = sys.modules[modname]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self.span_wrapper(name, original, count)
            if path:
                setattr(owner, leaf, wrapped)
            else:
                _rebind(original, wrapped)
        exactalg = sys.modules["jetres.exactalg"]
        _rebind(exactalg._mul_terms, self.mul_terms_wrapper(exactalg._mul_terms))
        for op in FRACTION_BINARY + FRACTION_UNARY:
            original = Fraction.__dict__[op]
            setattr(Fraction, op, self.fraction_wrapper(original, op in FRACTION_UNARY))


def _rebind(original, wrapped) -> None:
    """Point every jetres module-level name bound to `original` at `wrapped`."""
    for modname, module in list(sys.modules.items()):
        if modname != "jetres" and not modname.startswith("jetres."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _table_use(tables) -> dict:
    """Kernel entries of the job's coefficient tables that assembly pairs.

    An entry is used when some payload entry pairs with it at total h/dh
    degree n; the count needs no assembly, so no workload pays for one.
    """
    paired = entries = 0
    for table in tables:
        used = set()
        for (beta, s_b, t_b) in table.b:
            alpha = tuple(-1 - x for x in beta)
            for s_a, t_a, _ in table.a_slice(alpha):
                if s_a + s_b + t_a + t_b == table.n:
                    used.add((alpha, s_a, t_a))
        paired += len(used)
        entries += len(table.a)
    return {"paired": paired, "entries": entries}


def main(argv: list[str]) -> int:
    import jetres.cli

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = jetres.cli.main(argv)
    wall = time.perf_counter() - t0
    counters = dict(zip(("mul_terms_calls", "mul_terms_self_s", "fraction_ops",
                         "fraction_self_s"), tracer.hot))
    text = out.getvalue()
    report = {
        "rc": rc,
        "doc": json.loads(text) if rc == 0 and text.strip() else None,
        "wall_s": wall,
        "spans": tracer.spans,
        "counters": counters,
        "table_use": _table_use(tracer.tables),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
