"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import lexgb


def test_every_exported_name_resolves():
    missing = [name for name in lexgb.__all__ if not hasattr(lexgb, name)]
    assert not missing
    assert len(set(lexgb.__all__)) == len(lexgb.__all__)
    namespace = {}
    exec("from lexgb import *", namespace)
    assert set(lexgb.__all__) <= set(namespace)


def test_import_loads_no_rational_arithmetic():
    # the coefficients are ints mod p, so importing the package should not
    # pay for the standard library's fractions (and decimal, which it loads);
    # nor should it load the process pool, and the logging it pulls in, which
    # only a campaign with more than one job uses
    src = str(Path(lexgb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    unwanted = "{'fractions', 'decimal', 'concurrent.futures', 'logging'}"
    probe = f"import sys, lexgb; print(sorted({unwanted} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
