"""The numeric CSV writer: byte for byte the text of ``'%.17g' % x``."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphamv import _csvtext
from alphamv._csvtext import _BLOCK_BYTES, _WIDTH, csv_text

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _reference(table) -> bytes:
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in np.asarray(table, dtype=float).tolist()).encode()


def _column(values) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(-1, 1)


def _special_values() -> list:
    tiny = [5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308]
    huge = [1.7976931348623157e308, -1.7976931348623157e308, 1e270, 1e-270]
    # exact ties of the 18th digit: '%.17g' rounds them half to even, one
    # down and one up
    ties = [2.0 ** -25, 3 * 2.0 ** -25, -(2.0 ** -25)]
    boundaries = [v * s for v in (1e-5, 1e-4, 1e16, 1e17, 99999999999999984.0,
                                  9.9999999999999991e-5, 9.9999999999999995e-5)
                  for s in (1.0, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52)]
    return [0.0, -0.0, math.nan, math.inf, -math.inf, 2.0 ** 53, 0.1, 1.0 / 3.0, 1.0, -3.0,
            1234567890123456.0, 12345678901234567.0, *tiny, *huge, *ties, *boundaries]


def test_special_values_print_as_python_does():
    x = _column(_special_values())
    assert csv_text(x) == _reference(x)


def test_python_writes_only_what_the_kernel_cannot_decide(monkeypatch):
    written = []

    def python_text(x):
        written.append(float(x))
        return b"%.17g" % x

    monkeypatch.setattr(_csvtext, "_python_text", python_text)
    special = _special_values()
    undecided = [x for x in special if not 1e-270 <= abs(x) <= 1e270 and x != 0.0
                 or x in (2.0 ** -25, 3 * 2.0 ** -25, -(2.0 ** -25))]
    # with 10^(16-X) a double the product is exact, so the kernel rounds
    # exact ties itself: about 7% of these values at 1e14 are ties
    ordinary = np.random.default_rng(3).standard_normal((1000, 5)) * 10.0 ** np.arange(-6, 19, 5)
    assert csv_text(_column(special)) == _reference(_column(special))
    assert csv_text(ordinary) == _reference(ordinary)
    assert np.array_equal(written, undecided, equal_nan=True)


def test_every_power_of_ten_and_its_neighbours():
    # 14 of these are the double just below a power of ten that rounds up
    # to it at 17 digits ('1e-14', '1e+98', ...), the next decade
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    x = np.column_stack((powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                         -powers))
    assert csv_text(x) == _reference(x)


@pytest.mark.parametrize("error", [-0.5, 0.5])
def test_an_exponent_estimate_off_by_one_is_corrected(monkeypatch, error):
    # np.log10 is not correctly rounded on every build, so floor(log10|x|)
    # may miss a decade either way; here it misses for half of all values
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + error)
    powers = np.array([float(f"1e{k}") for k in range(-270, 271)])
    x = np.column_stack((powers, np.nextafter(powers, 0.0), 3.0 * powers, 0.5 * powers))
    assert csv_text(x) == _reference(x)


def test_rows_across_block_boundaries():
    cols = 3
    rows_per_block = _BLOCK_BYTES // (_WIDTH * cols)
    bits = np.random.default_rng(7).integers(0, 2 ** 64, size=(2 * rows_per_block + 5, cols),
                                             dtype=np.uint64)
    x = bits.view(np.float64).copy()
    x[rows_per_block - 1:rows_per_block + 1] = [[0.0, -0.0, math.nan], [2.0 ** -25, 1e-5, 1e17]]
    assert csv_text(x) == _reference(x)
    assert csv_text(np.empty((0, cols))) == b""


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60),
       cols=st.integers(1, 4))
def test_random_bit_patterns_print_as_python_does(bits, cols):
    bits = bits + [0] * (-len(bits) % cols)
    x = np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, cols)
    assert csv_text(x) == _reference(x)


def test_tables_are_not_built_at_import():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c",
         "import alphamv, alphamv._csvtext as c; print(c._tables.cache_info().currsize)"],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"
