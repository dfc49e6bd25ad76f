"""The benchmark's tracer (bench/tracer.py) still finds every name it wraps.

`bench/selftest.py` exercises `--trace 1` end to end but takes about half
a minute; this is the fast guard that a renamed or deleted function does
not break the tracer's install, its counts or its uninstall.
"""

import sys
from pathlib import Path

from lexgb import PointSet, Polynomial, PrimeField, specialize, vanishing_basis
from lexgb.checks import CHECK_ORDER, verify_all

BENCH = Path(__file__).resolve().parents[1] / "bench"


def lexgb_bindings() -> dict:
    """Every attribute of every loaded lexgb module and traced class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "lexgb" or name.startswith("lexgb."):
            out.update({(name, key): value for key, value in vars(module).items()})
    for cls in (Polynomial, PrimeField):
        out.update({(cls.__name__, key): value for key, value in vars(cls).items()})
    return out


def test_tracer_counts_each_check_once_and_restores_everything(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    G = vanishing_basis(PointSet(101, ((0, 0, 0), (1, 0, 0), (1, 0, 1))))
    before = lexgb_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        verify_all(G)
        # through the module attribute, which is what the tracer replaces
        assert specialize.solve_system(G) == ((0, 0, 0), (1, 0, 0), (1, 0, 1))
        snapshot = t.snapshot()
    finally:
        t.uninstall()
    for name in CHECK_ORDER:
        assert snapshot[f"checks.{name}.calls"] == 1, name
    assert snapshot["specialize.solve_system.calls"] == 1
    # the fiber view finds the roots of g_1 through the traced name
    assert snapshot["specialize.roots_univariate.calls"] >= 1
    after = lexgb_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
