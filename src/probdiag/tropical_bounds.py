"""Numeric calculators for the asymptotic-side formulas.

The homogeneous-approximation rate, the sublinearity defect, and the
epsilon schedule of the contraction argument are parametric in constants
that the underlying theory leaves symbolic; defaults of 1 are for schedule
exploration only and are flagged as non-normative in the CLI output.  The
asymptotic cone itself is never constructed here."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .diagrams import Diagram, entropy_vector, tensor_diagrams
from .errors import BadParamError, CapExceededError, OutOfRangeError, VerificationError

POWER_SUPPORT_CAP = 100_000
ADDITIVITY_TOL = 1e-9


@dataclass(frozen=True)
class TropicalBoundParams:
    """Inputs for the schedule formulas.

    c: approximation constant; d_phi: sub-additivity constant; size_g:
    number of objects of the ambient shape; log_card: per-step growth of
    the log-cardinality of the x-side initial space."""

    c: float = 1.0
    d_phi: float = 1.0
    size_g: int = 1
    log_card: float = 1.0

    def __post_init__(self):
        finite = (self.c, self.d_phi, self.log_card)
        if not all(math.isfinite(v) and v >= 0 for v in finite) or self.size_g < 1:
            raise BadParamError("parameters must be finite and nonnegative (size_g >= 1)")


def aep_rate(params: TropicalBoundParams, n: float) -> float:
    """Homogeneous-approximation rate c * sqrt(ln^3 n / n)."""
    if n < 2:
        raise OutOfRangeError(f"rate needs n >= 2, got {n}")
    return params.c * math.sqrt(math.log(n) ** 3 / n)


def phi_defect(params: TropicalBoundParams, t: float) -> float:
    """The admissible defect function 2 c t^(3/4)."""
    if t < 1:
        raise OutOfRangeError(f"defect needs t >= 1, got {t}")
    return 2.0 * params.c * t ** 0.75


def phi_dominates_rate_term(t: float) -> bool:
    """Whether 2c t^(3/4) >= 2c t^(1/2) ln^(3/2) t at this t (c cancels).

    True near t = 1 and again for all large t; false on a middle range."""
    if t < 1:
        raise OutOfRangeError(f"comparison needs t >= 1, got {t}")
    return t ** 0.25 >= math.log(t) ** 1.5


def phi_dominance_threshold() -> float:
    """The point beyond which the comparison above holds for every larger t.

    Found by bisecting t^(1/4) - ln^(3/2) t on its upper sign change; the
    result is on the order of e^17."""
    lo, hi = math.e ** 5, math.e ** 40
    assert not phi_dominates_rate_term(lo) and phi_dominates_rate_term(hi)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if phi_dominates_rate_term(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class EpsilonSchedule:
    conditional: float
    x_side: float
    height: float

    def max(self) -> float:
        return max(self.conditional, self.x_side, self.height)


def contraction_epsilons(params: TropicalBoundParams, n: int) -> EpsilonSchedule:
    """The three error terms of the contraction argument at block length n:

    conditional side: 2 d_phi phi(n) / n;
    x side: 20 size_g / n + d_phi phi(n) / n;
    arrow height: 4 ln ln|x0(n)| / n + 2 d_phi phi(n) / n,
    with |x0(n)| modeled as exp(n * log_card).  n and size_g must fit a
    float."""
    if n < 2:
        raise OutOfRangeError(f"schedule needs n >= 2, got {n}")
    for name, value in (("n", n), ("size_g", params.size_g)):
        try:
            float(value)
        except OverflowError:
            raise OutOfRangeError(f"schedule needs {name} to fit a float "
                                  f"(below 2^1024)") from None
    if n * params.log_card <= 0:
        raise OutOfRangeError("height term needs log_card > 0")
    phi_over_n = phi_defect(params, n) / n
    conditional = 2.0 * params.d_phi * phi_over_n
    x_side = 20.0 * params.size_g / n + params.d_phi * phi_over_n
    height = 4.0 * math.log(n * params.log_card) / n + 2.0 * params.d_phi * phi_over_n
    return EpsilonSchedule(conditional, x_side, height)


def min_n_for_epsilon(params: TropicalBoundParams, target: float,
                      n_cap: int = 10 ** 12) -> int:
    """Smallest n with all three schedule terms at most target.

    All terms decrease for n past a small threshold, so a scan of the
    prefix plus a binary search on the tail finds the exact minimum."""
    if target <= 0:
        raise OutOfRangeError("target must be positive")
    if params.log_card == 0:
        raise OutOfRangeError("height term needs log_card > 0")
    start = max(2, math.ceil(math.e / params.log_card) + 1)

    def ok(n: int) -> bool:
        return contraction_epsilons(params, n).max() <= target

    for n in range(2, start + 1):
        if ok(n):
            return n
    lo, hi = start, start
    while not ok(hi):
        hi *= 2
        if hi > n_cap:
            raise OutOfRangeError(f"no n below {n_cap} reaches target {target}")
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def chain_cone_check(vector, tol: float = 1e-12) -> bool:
    """Membership in the ordered nonnegative cone 0 <= x1 <= ... <= xk.

    Entropy vectors of chain diagrams, listed bottom object first, always
    satisfy this; tol absorbs float noise between equal entropies."""
    prev = 0.0
    for x in vector:
        if x < -tol or x < prev - tol:
            return False
        prev = max(prev, x)
    return True


def normalized_power_entropy(diagram: Diagram, n: int,
                             cap: int = POWER_SUPPORT_CAP) -> dict[str, float]:
    """Entropy vector of the n-th tensor power divided by n.

    Checks additivity against the base vector to 1e-9 and returns the
    normalized vector; supports growing past the cap are refused."""
    if n < 1:
        raise OutOfRangeError(f"power needs n >= 1, got {n}")
    growth = sum(len(s) ** n for s in diagram.spaces.values())
    if growth > cap:
        raise CapExceededError(f"tensor power support {growth} exceeds cap {cap}")
    power = diagram
    for _ in range(n - 1):
        power = tensor_diagrams(power, diagram)
    base = entropy_vector(diagram)
    normalized = {obj: h / n for obj, h in entropy_vector(power).items()}
    for obj, h in normalized.items():
        if abs(h - base[obj]) > ADDITIVITY_TOL:
            raise VerificationError(
                f"normalized power entropy at {obj!r} deviates: {h} vs {base[obj]}")
    return normalized
