"""Per-layer tracing by wrapping lexgb's public functions from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
lexgb module that holds it (and each traced method on its class);
`uninstall()` puts the originals back.  A wrapper records one span (name,
start, end, parent, item) in flat arrays kept in memory, and adds the
call to the per-name totals: calls, inclusive seconds and self seconds,
which is the inclusive time minus that of wrapped children.  Counters
ride along: terms evaluated, generators in and basis elements out of
Buchberger, and residues drawn from `PrimeField.elements` by the
innermost traced function.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import lexgb
from lexgb import campaign, checks, field, groebner, instances, poly, specialize

# (metric name, owner, attribute): owner is a module or a class
POLY = (
    ("poly.mul", poly.Polynomial, "__mul__"),
    ("poly.divide", poly.Polynomial, "divide"),
    ("poly.evaluate", poly.Polynomial, "evaluate"),
    ("poly.substitute", poly.Polynomial, "substitute_x"),
    ("poly.substitute", poly.Polynomial, "substitute_y"),
)
FUNCTIONS = (
    ("groebner.buchberger", groebner, "buchberger"),
    ("groebner.is_groebner_basis", groebner, "is_groebner_basis"),
    ("instances.vanishing_basis", instances, "vanishing_basis"),
    ("instances.squared_vanishing_basis", instances, "squared_vanishing_basis"),
    ("instances.random_triangular_basis", instances, "random_triangular_basis"),
    ("specialize.roots_univariate", specialize, "roots_univariate"),
    ("specialize.solve_system", specialize, "solve_system"),
    ("campaign.verify_recipe", campaign, "verify_recipe"),
) + tuple(
    (f"checks.{name}", checks if hasattr(checks, f"check_{name}") else specialize, f"check_{name}")
    for name in checks.CHECK_ORDER
)
TRACED = POLY + FUNCTIONS

# names whose residue scans are reported as `<name>.scanned`
SCANNERS = ("specialize.roots_univariate", "specialize.solve_system", "checks.gianni_kalkbrener")


def _gens_in(counters, args):
    # the generators may be an iterator: count them on a list handed on
    args = (list(args[0]),) + args[1:]
    counters["groebner.buchberger.gens_in"] += len(args[0])
    return args


def _basis_out(counters, args, result):
    counters["groebner.buchberger.basis_out"] += len(result.elements)


def _terms(counters, args, result):
    counters["poly.evaluate.terms"] += len(args[0].terms)


BEFORE = {"groebner.buchberger": _gens_in}
AFTER = {"groebner.buchberger": _basis_out, "poly.evaluate": _terms}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.item = -1
        self.stack: list[list] = []  # [span index, name, seconds in wrapped children]
        self.active: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        before = BEFORE.get(name)
        after = AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args = before(tracer.counters, args)
            stack = tracer.stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_end.append(0.0)
            frame = [idx, name, 0.0]
            stack.append(frame)
            tracer.active[name] += 1
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.span_end[idx] = end
                stack.pop()
                tracer.active[name] -= 1
                elapsed = end - start
                if stack:
                    stack[-1][2] += elapsed
                tracer.calls[name] += 1
                tracer.self_seconds[name] += elapsed - frame[2]
                if not tracer.active[name]:
                    # an outer call of the same name already counts this time
                    tracer.seconds[name] += elapsed
            if after is not None:
                after(tracer.counters, args, result)
            return result

        return traced

    def _count_elements(self, fn):
        tracer = self

        def elements(field_self):
            for value in fn(field_self):
                if tracer.stack:
                    tracer.counters[tracer.stack[-1][1] + ".scanned"] += 1
                yield value

        return elements

    # -- installing ------------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "lexgb" or n.startswith("lexgb.")]
        for name, owner, attr in TRACED:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        self._replace(field.PrimeField, "elements", self._count_elements(field.PrimeField.elements))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Current totals as flat per-layer metric values."""
        out: dict[str, float] = {}
        for name in dict.fromkeys(n for n, _, _ in TRACED):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.seconds[name]
            out[f"{name}.self_s"] = self.self_seconds[name]
        for key in ("poly.evaluate.terms", "groebner.buchberger.gens_in", "groebner.buchberger.basis_out"):
            out[key] = self.counters[key]
        for name in SCANNERS:
            out[f"{name}.scanned"] = self.counters[f"{name}.scanned"]
        return out

    def write_spans(self, path) -> int:
        """Write the spans as gzipped tab-separated text; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# lexgb {lexgb.__version__} spans; names: {' '.join(self.names)}\n")
            fh.write("name\tstart_s\tend_s\tparent\titem\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}"
                    f"\t{self.span_parent[i]}\t{self.span_item[i]}\n"
                )
        return len(self.span_start)
