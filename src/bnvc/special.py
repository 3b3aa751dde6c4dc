"""The standard normal CDF and the logistic sigmoid, bit-equal to scipy.special.

`ndtr` ports cephes' `ndtr` with its `erf` and `erfc` rational
approximations (the kernels behind scipy.special.ndtr): the same
coefficients, branches and Horner order, one IEEE double operation per
step. `expit` is scipy's `1 / (1 + exp(-x))`.

Every `exp` is the C library's, reached through `math.exp`, as scipy's
kernels call it. numpy's `np.exp` picks its kernel by CPU feature and
differs from libm by an ulp in a few percent of values, which would let
a coding table or a rate term depend on the host's instruction set.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["ndtr", "expit"]

_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = math.log(sys.float_info.max)  # the largest x whose exp(x) is finite

# erfc(x) = exp(-x^2) P(x) / Q(x) on [1, 8), exp(-x^2) R(x) / S(x) from 8 up, and
# erf(x) = x T(x^2) / U(x^2) on |x| <= 1; Q, S and U lead with cephes' implied 1
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """exp of each element by the C library; inf where it overflows, where math.exp raises."""
    big = x > _MAXLOG
    out = np.fromiter(map(math.exp, np.where(big, 0.0, x).ravel().tolist()), np.float64, x.size)
    out[big.ravel()] = np.inf
    return out.reshape(x.shape)


def _erf(x: np.ndarray) -> np.ndarray:
    """cephes erf for |x| <= 1; odd, so its -erf(-x) for x < 0 is the same value."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(x: np.ndarray) -> np.ndarray:
    """cephes erfc for x >= 1; 0 where exp(-x^2) underflows."""
    out = np.zeros_like(x)
    live = x * x <= _MAXLOG
    xl = x[live]
    mid = xl < 8.0
    p = np.where(mid, _polevl(xl, _P), _polevl(xl, _R))
    q = np.where(mid, _polevl(xl, _Q), _polevl(xl, _S))
    out[live] = _libm_exp(-xl * xl) * p / q
    return out


def ndtr(a) -> np.ndarray:
    """Phi(a), the standard normal CDF; equals scipy.special.ndtr bit for bit."""
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, np.nan)
    # cephes switches from 0.5 + 0.5 erf(x) to erfc(|x|) / 2 (reflected for x > 0)
    # at |x| = sqrt(1/2), and its erfc is 1 - erf up to 1. On [sqrt(1/2), 1)
    # 1 - erf(|x|) is exact (Sterbenz), so both forms round the same value there
    # and one switch at 1 gives the same bits.
    near = z < 1.0
    y[near] = 0.5 + 0.5 * _erf(x[near])
    tail = z >= 1.0
    yt = 0.5 * _erfc(z[tail])
    y[tail] = np.where(x[tail] > 0, 1.0 - yt, yt)
    return y


def expit(x) -> np.ndarray:
    """1 / (1 + exp(-x)); equals scipy.special.expit bit for bit."""
    return 1.0 / (1.0 + _libm_exp(-np.asarray(x, dtype=np.float64)))
