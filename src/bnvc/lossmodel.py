"""Analytic model of reconstruction-error buildup over a P-frame chain.

The model tracks the accumulated information loss L_t of each coded
P-frame inside one intra period under two simplifying assumptions: the
loss added per coding step grows by a fixed fraction alpha, and the
correlation between frames at temporal distance d is beta**d. Each
frame is predicted from n references whose list is padded by the
NEAR/FURTHER duplication policy when fewer decoded frames exist, and
the loss a reference contributes is its own loss scaled by how much
correlation has decayed over the distance.

Everything here is pure arithmetic: the recurrence, the closed-form
quadratic threshold for the policy crossover, a bisection oracle that
finds the crossover directly from the recurrence, and a grid comparison
between the two. The closed form is validated against the recurrence
rather than trusted; disagreements are counted and reported, never
silently dropped.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import UsageError, check_int
from .policies import DuplicationPolicy, pad_references

__all__ = [
    "LossModelParams",
    "ThresholdCoefficients",
    "information_decay",
    "frame_loss",
    "total_loss",
    "threshold_alpha",
    "critical_alpha_numeric",
    "policy_compare_grid",
    "PolicyGridCell",
    "PolicyGridResult",
]


@dataclass(frozen=True)
class LossModelParams:
    """Parameters of the accumulation recurrence.

    alpha: fractional growth of per-step information loss (> 0).
    beta: correlation between adjacent frames, in (0, 1).
    n_ref: number of reference slots per frame.
    T: number of P-frames in the chain.
    policy: how the reference list is padded while it is short.
    L1: loss of the first P-frame; totals are linear in it.
    """

    alpha: float
    beta: float
    n_ref: int = 4
    T: int = 4
    policy: DuplicationPolicy = DuplicationPolicy.NEAR
    L1: float = 1.0

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and self.beta < 1.0):
            raise UsageError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.alpha > 0.0:
            raise UsageError(f"alpha must be > 0, got {self.alpha}")
        check_int("n_ref", self.n_ref, 1)
        check_int("T", self.T, 1)


def information_decay(i0: float, beta: float, delta: int) -> float:
    """Information remaining after `delta` frames of correlation decay."""
    if delta < 0:
        raise UsageError(f"delta must be >= 0, got {delta}")
    return i0 * beta**delta


def frame_loss(ref_losses: Sequence[tuple[float, int]], alpha: float, beta: float) -> float:
    """Loss of one frame predicted from references (loss, distance).

    Each of the n references contributes its own accumulated loss scaled
    by the correlation lost over its temporal distance, the contributions
    are averaged, and the per-step growth factor (1 + alpha) is applied:

        (1 + alpha) / n * sum(L_r * (1 - beta**d_r))
    """
    if not ref_losses:
        raise UsageError("frame_loss needs at least one reference")
    for _, d in ref_losses:
        if d < 1:
            raise UsageError(f"reference distances must be >= 1, got {d}")
    n = len(ref_losses)
    acc = 0.0
    for loss, d in ref_losses:
        acc += loss * (1.0 - beta**d)
    return (1.0 + alpha) / n * acc


def total_loss(params: LossModelParams) -> tuple[list[float], float]:
    """Per-frame losses L_1..L_T under `params`, plus their sum.

    Frame t's reference multiset is the padded list of the most recent
    decoded P-frames, built by `pad_references` as the codec pads its
    warped features, but from P frames alone: the codec's list starts
    with the intra frame (see `policies`), so at t = 2 the two differ.
    """
    losses: list[float] = []
    for t in range(1, params.T + 1):
        if t == 1:
            losses.append(params.L1)
            continue
        available = list(range(max(1, t - params.n_ref), t))
        refs = pad_references(available, params.n_ref, params.policy)
        losses.append(frame_loss([(losses[i - 1], t - i) for i in refs], params.alpha, params.beta))
    return losses, sum(losses)


@dataclass(frozen=True)
class ThresholdCoefficients:
    """Coefficients of the closed-form policy-crossover quadratic in alpha."""

    a: float
    b: float
    c: float

    @classmethod
    def from_beta(cls, beta: float) -> "ThresholdCoefficients":
        a = 5.0 * (1.0 - beta) ** 3
        b = -9.0 * beta**3 + 17.0 * beta**2 - 27.0 * beta + 17.0
        c = 2.0 * beta**3 - 28.0 * beta**2 - 30.0 * beta
        return cls(a, b, c)


def threshold_alpha(beta: float) -> float:
    """Positive root of the closed-form crossover quadratic at `beta`.

    Below this alpha the closed form predicts NEAR duplication loses less
    information in total than FURTHER. Evaluated with the cancellation-free
    quadratic form (conjugate branch when b > 0), which stays stable as
    a -> 0 near beta -> 1.
    """
    if not (0.0 < beta < 1.0):
        raise UsageError(f"beta must lie in (0, 1), got {beta}")
    coef = ThresholdCoefficients.from_beta(beta)
    disc = coef.b * coef.b - 4.0 * coef.a * coef.c
    if disc < 0.0:
        raise UsageError(f"negative discriminant {disc} at beta={beta}; c={coef.c} should be < 0 on (0, 1)")
    sq = math.sqrt(disc)
    if coef.b > 0.0:
        return (2.0 * coef.c) / (-coef.b - sq)
    return (-coef.b + sq) / (2.0 * coef.a)


def _policy_gap(alpha: float, beta: float, n_ref: int = 4, T: int = 4) -> float:
    """total_loss(FURTHER) - total_loss(NEAR); positive means NEAR wins."""
    near = total_loss(LossModelParams(alpha, beta, n_ref, T, DuplicationPolicy.NEAR))[1]
    further = total_loss(LossModelParams(alpha, beta, n_ref, T, DuplicationPolicy.FURTHER))[1]
    return further - near


def critical_alpha_numeric(beta: float, alpha_max: float = 1.0) -> Optional[float]:
    """Crossover alpha found directly from the recurrences, or None.

    Bisects g(alpha) = total_loss(FURTHER) - total_loss(NEAR) on
    (0, alpha_max] to 1e-12, at `_policy_gap`'s defaults n_ref 4 and
    T 4. Returns None when g has no sign change on the interval, meaning
    a single policy dominates everywhere on it.
    """
    if not (0.0 < beta < 1.0):
        raise UsageError(f"beta must lie in (0, 1), got {beta}")
    lo = 1e-12
    hi = alpha_max
    g_lo = _policy_gap(lo, beta)
    g_hi = _policy_gap(hi, beta)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = _policy_gap(mid, beta)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PolicyGridCell:
    alpha: float
    beta: float
    total_near: float
    total_further: float
    g: float
    threshold: float
    agrees: bool


@dataclass(frozen=True)
class PolicyGridResult:
    cells: list[PolicyGridCell]
    disagreements: int

    @property
    def agreement_fraction(self) -> float:
        if not self.cells:
            return 1.0
        return 1.0 - self.disagreements / len(self.cells)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("alpha,beta,total_near,total_further,g,threshold,agrees\n")
        for c in self.cells:
            out.write(
                f"{c.alpha:.17g},{c.beta:.17g},{c.total_near:.17g},{c.total_further:.17g},"
                f"{c.g:.17g},{c.threshold:.17g},{int(c.agrees)}\n"
            )
        return out.getvalue()


def policy_compare_grid(alphas: Iterable[float], betas: Iterable[float], n_ref: int = 4, T: int = 4) -> PolicyGridResult:
    """Compare recurrence totals against the closed-form predicate on a grid.

    For every (alpha, beta) cell the recurrence decides which policy loses
    less in total, the closed form predicts the same via alpha < threshold,
    and the two verdicts are compared. Cells are emitted sorted by
    (beta, alpha) so output is deterministic regardless of input order.
    """
    cells: list[PolicyGridCell] = []
    disagreements = 0
    for beta in sorted(set(betas)):
        thr = threshold_alpha(beta)
        for alpha in sorted(set(alphas)):
            near = total_loss(LossModelParams(alpha, beta, n_ref, T, DuplicationPolicy.NEAR))[1]
            further = total_loss(LossModelParams(alpha, beta, n_ref, T, DuplicationPolicy.FURTHER))[1]
            g = further - near
            agrees = (g > 0.0) == (alpha < thr)
            if not agrees:
                disagreements += 1
            cells.append(PolicyGridCell(alpha, beta, near, further, g, thr, agrees))
    return PolicyGridResult(cells, disagreements)
