"""Best constants of the restricted spectral inequality and their growth laws.

For a threshold k let pi_k project onto the eigenspaces with eigenvalue at
most k.  The smallest constant C(k, E) with

    ||pi_k phi|| <= C(k, E) ||pi_k phi||_{L2(E)}     for all phi

is an exact finite-dimensional quantity on the grid: with {v_1..v_d} an
orthonormal basis of the projection range, C = 1/sqrt(mu_min) where mu_min
is the smallest eigenvalue of the Gram matrix of E-restricted inner
products.  No sampling or optimization is involved.  Growth of ln C(k, E)
in k is summarized by one fit shape, a pure power c1 * k^a with the
exponent a pinned by the operator (1/s for fractional kinds, 2 for the
harmonic kinds, whose (n/2) k ln k + O(k) growth it dominates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import jsonable, require_domain
from .geometry import SetIndicator
from .operators import SpectralDecomposition, require_resolved, restricted_gram, spectral_count

_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class SpectralConstantCurve:
    thresholds: tuple
    constants: tuple
    fit: Optional[ExpPowerFit] = None


@dataclass(frozen=True)
class ExpPowerFit:
    c1: float
    a: float
    residual: float


@dataclass(frozen=True)
class HypothesisReport:
    c1: float
    worst_ratio: float
    worst_k: int


def require_thresholds(thresholds) -> list:
    """The one rule of a threshold list, which must be finite and ascending; returns it as floats."""
    thresholds = [float(k) for k in thresholds]
    if not np.isfinite(thresholds).all():
        raise ValueError(f"thresholds must be finite, got {thresholds}")
    if sorted(thresholds) != thresholds:
        raise ValueError("thresholds must ascend")
    return thresholds


def best_constant(dec: SpectralDecomposition, k: float, e: SetIndicator) -> float:
    """Best restricted-inequality constant at threshold k, possibly +inf: the one-threshold curve."""
    return spectral_constant_curve(dec, e, [k]).constants[0]


def spectral_constant_curve(dec: SpectralDecomposition, e: SetIndicator, thresholds,
                            a: Optional[float] = None) -> SpectralConstantCurve:
    """C(k, E) at ascending thresholds, read from the leading blocks of one Gram matrix.

    Thresholds outside ``require_thresholds``, a set on another domain and a
    largest threshold the grid does not resolve (``require_resolved``) are
    refused before any range is counted.  An empty range gives 1.0 (the
    inequality is vacuous); the full domain gives exactly 1.0 (the Gram
    matrix is the identity by orthonormality).  The ranges are nested, so
    every constant comes from a leading principal block of the Gram matrix
    of the largest range; by Cauchy interlacing the constants are then
    nondecreasing in k.  Thresholds with the same range share one
    eigensolve.  Given the growth exponent ``a``, the curve carries its
    ``fit_growth`` fit when it has at least 4 constants and every one is
    finite; that is the one rule for when a curve is fitted.
    """
    thresholds = tuple(require_thresholds(thresholds))
    require_domain(dec.domain, set=e)
    if thresholds:
        require_resolved(dec, thresholds[-1])
    dims = [spectral_count(dec, k) for k in thresholds]
    d_max = dims[-1] if dims else 0
    full = bool(e.cells.all())
    G = restricted_gram(dec, np.arange(d_max), e) if d_max and not full else None

    def constant(d):
        if d == 0 or full:
            return 1.0
        mu_min = float(np.linalg.eigvalsh(G[:d, :d])[0])
        return np.inf if mu_min <= _DEGENERACY_TOL else float(1.0 / np.sqrt(mu_min))

    by_dim = {d: constant(d) for d in set(dims)}
    curve = SpectralConstantCurve(thresholds, tuple(by_dim[d] for d in dims))
    if a is not None and len(dims) >= 4 and all(np.isfinite(curve.constants)):
        curve = SpectralConstantCurve(thresholds, curve.constants, fit=fit_growth(curve, a))
    return curve


def fit_growth(curve: SpectralConstantCurve, a: float) -> ExpPowerFit:
    """Least-squares fit of ln C(k) = c1 * k^a with the exponent ``a`` > 0 pinned.

    ``a`` is the caller's (``certify.growth_exponent``: 1/s for fractional
    operators).  Requires at least 4 finite constants.
    """
    if not a > 0:
        raise ValueError(f"the fixed exponent a must be positive, got {a}")
    ks = np.asarray(curve.thresholds, dtype=float)
    cs = np.asarray(curve.constants, dtype=float)
    finite = np.isfinite(cs) & (cs > 0)
    if finite.sum() < 4:
        raise ValueError(f"need at least 4 finite constants to fit, have {int(finite.sum())}")
    ks, ln_c = ks[finite], np.log(cs[finite])
    basis = ks**a
    c1 = float(basis @ ln_c / (basis @ basis))
    residual = float(np.sqrt(np.mean((ln_c - c1 * basis) ** 2)))
    return ExpPowerFit(c1=c1, a=float(a), residual=residual)


def verify_spectral_hypothesis(curve: SpectralConstantCurve, c1: float, a: float) -> HypothesisReport:
    """The largest ratio C(k) / exp(c1 * k^a) over the curve's thresholds, and where it is."""
    if not curve.thresholds:
        raise ValueError("the curve has no thresholds")
    if c1 <= 0 or a <= 0:
        raise ValueError("c1 and a must be positive")
    ks = np.asarray(curve.thresholds, dtype=float)
    ratios = np.asarray(curve.constants, dtype=float) / np.exp(c1 * ks**a)
    i = int(np.argmax(ratios))
    return HypothesisReport(c1=float(c1), worst_ratio=float(ratios[i]), worst_k=int(ks[i]))


# ---------------------------------------------------------------------------
# export


def curve_to_json(curve: SpectralConstantCurve) -> dict:
    doc = {
        "thresholds": list(curve.thresholds),
        "constants": jsonable(curve.constants),
    }
    if curve.fit is not None:
        fit = curve.fit
        doc["fit"] = {"model": "ExpPower", "c1": fit.c1, "a": fit.a, "residual": fit.residual}
    return doc


def curve_to_csv(curve: SpectralConstantCurve) -> str:
    lines = ["k,C,lnC"]
    for k, c in zip(curve.thresholds, curve.constants):
        ln_c = float(np.log(c)) if np.isfinite(c) else float("inf")
        lines.append(f"{float(k)!r},{float(c)!r},{ln_c!r}")
    return "\n".join(lines) + "\n"
