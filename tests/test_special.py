"""The numpy ports of ndtr and expit against scipy.special, bit for bit,
and a check that importing bnvc loads no scipy module."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bnvc import special

_SQRT2 = math.sqrt(2.0)


def _around(centers, half_width, n=2001):
    return np.concatenate([np.linspace(c - half_width, c + half_width, n) for c in centers])


def _with_negatives(x):
    return np.concatenate([x, -x])


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _assert_bit_equal(ours, ref, x):
    ours, ref = np.asarray(ours), np.asarray(ref)
    assert ours.shape == ref.shape
    same = (_bits(ours) == _bits(ref)) | (np.isnan(ours) & np.isnan(ref))
    bad = np.nonzero(~same)[0]
    assert bad.size == 0, f"{bad.size} values differ, first at x={x[bad[0]]!r}: {ours[bad[0]]!r} != {ref[bad[0]]!r}"


EXACT_EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, np.inf, -np.inf, np.nan])

NDTR_INPUTS = np.concatenate([
    np.linspace(-40.0, 40.0, 160_001),
    np.random.default_rng(0).standard_normal(100_000) * 4.0,
    EXACT_EDGES,
    # |x| * sqrt(1/2) crosses sqrt(1/2) (ndtr's erf/erfc switch), 1 (erfc's own
    # switch to 1 - erf) and 8 (erfc's P/Q to R/S switch)
    _with_negatives(_around([1.0, _SQRT2, 8.0 * _SQRT2], 1e-6)),
    _with_negatives(np.array([1.0, _SQRT2, 8.0 * _SQRT2])),
    # erfc's exp(-x^2) underflow and the subnormal results before it
    _with_negatives(_around([37.5, 38.5], 0.5, 20_001)),
])

EXPIT_INPUTS = np.concatenate([
    np.linspace(-800.0, 800.0, 160_001),
    np.random.default_rng(1).standard_normal(100_000) * 20.0,
    EXACT_EDGES,
    # exp(-x) overflows just past x = -709.78: libm gives inf, math.exp raises
    _with_negatives(_around([709.782712893384], 1e-3)),
    _with_negatives(np.array([709.782712893384, math.nextafter(709.782712893384, math.inf), 745.2, 36.8])),
])


@pytest.mark.parametrize("name, x", [("ndtr", NDTR_INPUTS), ("expit", EXPIT_INPUTS)])
def test_bit_equal_to_scipy(name, x):
    scipy_special = pytest.importorskip("scipy.special")
    with np.errstate(all="ignore"):
        ref = getattr(scipy_special, name)(x)
    _assert_bit_equal(getattr(special, name)(x), ref, x)


@pytest.mark.parametrize("name", ["ndtr", "expit"])
def test_keeps_shape(name):
    x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
    out = getattr(special, name)(x)
    assert out.shape == x.shape and out.dtype == np.float64
    assert np.array_equal(out.ravel(), getattr(special, name)(x.ravel()))


def test_libm_exp_overflows_to_inf():
    x = np.array([709.782712893384, math.nextafter(709.782712893384, math.inf), 1e308, -1e308, -np.inf])
    assert special._libm_exp(x).tolist() == [math.exp(709.782712893384), math.inf, math.inf, 0.0, 0.0]


def test_importing_bnvc_loads_no_scipy():
    """Every bnvc module imports without scipy: it is a test reference, not a dependency."""
    code = (
        "import pkgutil, importlib, sys, bnvc\n"
        "for m in pkgutil.iter_modules(bnvc.__path__): importlib.import_module('bnvc.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(special.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
