"""Best constants of the restricted spectral inequality and their growth laws.

For a threshold k let pi_k project onto the eigenspaces with eigenvalue at
most k.  The smallest constant C(k, E) with

    ||pi_k phi|| <= C(k, E) ||pi_k phi||_{L2(E)}     for all phi

is an exact finite-dimensional quantity on the grid: with {v_1..v_d} an
orthonormal basis of the projection range, C = 1/sqrt(mu_min) where mu_min
is the smallest eigenvalue of the Gram matrix of E-restricted inner
products.  No sampling or optimization is involved.  Growth of ln C(k, E)
in k is summarized by two fit shapes: a pure power c1 * k^a (fractional
kinds, a tied to 1/s) and (n/2) k ln k + linear * k (harmonic kinds, with
the k ln k slope pinned to n/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import GridFunction, jsonable
from .geometry import SetIndicator
from .operators import SpectralDecomposition, basis_block, from_coefficients

__all__ = [
    "SpectralConstantCurve",
    "ExpPowerFit",
    "KLogKFit",
    "HypothesisReport",
    "restricted_gram",
    "best_constant",
    "spectral_constant_curve",
    "fit_growth",
    "verify_spectral_hypothesis",
    "curve_to_json",
    "curve_to_csv",
]

_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class SpectralConstantCurve:
    thresholds: tuple
    constants: tuple
    fit: Optional[object] = None


@dataclass(frozen=True)
class ExpPowerFit:
    c1: float
    a: float
    residual: float


@dataclass(frozen=True)
class KLogKFit:
    coeff: float
    linear: float
    residual: float


@dataclass(frozen=True)
class HypothesisReport:
    verified: bool
    c1: float
    a: float
    k_max: int
    worst_ratio: float
    worst_k: int
    constants: tuple


def _range_dim(dec: SpectralDecomposition, k: float) -> int:
    return int(np.searchsorted(dec.eigenvalues, k, side="right"))


def restricted_gram(dec: SpectralDecomposition, indices, e: SetIndicator) -> np.ndarray:
    """Gram matrix of E-restricted inner products of selected eigenfunctions."""
    if e.domain != dec.domain:
        raise ValueError("set and decomposition live on different domains")
    B = basis_block(dec, indices)
    rows = B[e.cells.ravel(), :]
    G = rows.conj().T @ rows * dec.domain.cell_volume
    return 0.5 * (G + G.conj().T)


def best_constant(dec: SpectralDecomposition, k: float, e: SetIndicator, return_witness: bool = False):
    """Best restricted-inequality constant at threshold k, possibly +inf.

    Returns 1.0 for an empty projection range (the inequality is vacuous)
    and exactly 1.0 for the full domain (the Gram matrix is the identity by
    orthonormality).  Thresholds whose projection range exceeds half the
    cell count are refused: such ranges are not resolved by the grid and
    their degeneracy would be an aliasing artifact.
    """
    d = _range_dim(dec, k)
    cells = dec.domain.cell_count
    if d == 0:
        const, witness_coeffs = 1.0, None
    elif 2 * d > cells:
        raise ValueError(
            f"projection range dimension {d} exceeds half the cell count {cells}; "
            "refine the grid before probing this threshold"
        )
    elif e.cells.all():
        const = 1.0
        witness_coeffs = np.zeros(cells, dtype=float)
        witness_coeffs[0] = 1.0
    else:
        G = restricted_gram(dec, np.arange(d), e)
        mu, W = np.linalg.eigh(G)
        mu_min = float(mu[0])
        const = np.inf if mu_min <= _DEGENERACY_TOL else float(1.0 / np.sqrt(mu_min))
        witness_coeffs = np.zeros(cells, dtype=W.dtype)
        witness_coeffs[:d] = W[:, 0]
    if not return_witness:
        return const
    if witness_coeffs is None:
        return const, None
    return const, from_coefficients(dec, witness_coeffs)


def spectral_constant_curve(dec: SpectralDecomposition, e: SetIndicator, thresholds) -> SpectralConstantCurve:
    thresholds = [float(k) for k in thresholds]
    if sorted(thresholds) != thresholds:
        raise ValueError("thresholds must ascend")
    constants = tuple(best_constant(dec, k, e) for k in thresholds)
    return SpectralConstantCurve(thresholds=tuple(thresholds), constants=constants)


def fit_growth(curve: SpectralConstantCurve, model: str, *, a: float = None, dim: int = None):
    """Least-squares fit of ln C(k) with the model's growth exponent pinned.

    ExpPower fits ln C = c1 * k^a with ``a`` supplied by the caller (1/s for
    fractional operators); KLogK fits ln C = (dim/2) k ln k + linear * k with
    the k ln k slope fixed.  Requires at least 4 finite constants.
    """
    ks = np.asarray(curve.thresholds, dtype=float)
    cs = np.asarray(curve.constants, dtype=float)
    finite = np.isfinite(cs) & (cs > 0)
    if finite.sum() < 4:
        raise ValueError(f"need at least 4 finite constants to fit, have {int(finite.sum())}")
    ks, ln_c = ks[finite], np.log(cs[finite])
    if model == "ExpPower":
        if a is None or a <= 0:
            raise ValueError("ExpPower needs the fixed exponent a > 0")
        basis = ks**a
        c1 = float(basis @ ln_c / (basis @ basis))
        residual = float(np.sqrt(np.mean((ln_c - c1 * basis) ** 2)))
        return ExpPowerFit(c1=c1, a=float(a), residual=residual)
    if model == "KLogK":
        if dim not in (1, 2):
            raise ValueError("KLogK needs the spatial dimension (1 or 2)")
        coeff = dim / 2.0
        target = ln_c - coeff * ks * np.log(ks)
        linear = float(ks @ target / (ks @ ks))
        residual = float(np.sqrt(np.mean((target - linear * ks) ** 2)))
        return KLogKFit(coeff=coeff, linear=linear, residual=residual)
    raise ValueError(f"unknown fit model {model!r}")


def verify_spectral_hypothesis(dec, e, k_max: int, c1: float, a: float) -> HypothesisReport:
    """Check C(k, E) <= exp(c1 * k^a) at every integer threshold up to k_max."""
    if c1 <= 0 or a <= 0:
        raise ValueError("c1 and a must be positive")
    k_max = int(k_max)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    worst_ratio = -np.inf
    worst_k = 1
    constants = []
    for k in range(1, k_max + 1):
        const = best_constant(dec, float(k), e)
        constants.append(const)
        bound = np.exp(c1 * float(k) ** a)
        ratio = const / bound
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_k = k
    return HypothesisReport(
        verified=bool(worst_ratio <= 1.0 + 1e-12),
        c1=float(c1),
        a=float(a),
        k_max=k_max,
        worst_ratio=float(worst_ratio),
        worst_k=worst_k,
        constants=tuple(constants),
    )


# ---------------------------------------------------------------------------
# export


def curve_to_json(curve: SpectralConstantCurve) -> dict:
    doc = {
        "thresholds": list(curve.thresholds),
        "constants": jsonable(curve.constants),
    }
    if curve.fit is not None:
        fit = curve.fit
        if isinstance(fit, ExpPowerFit):
            doc["fit"] = {"model": "ExpPower", "c1": fit.c1, "a": fit.a, "residual": fit.residual}
        else:
            doc["fit"] = {
                "model": "KLogK",
                "coeff": fit.coeff,
                "linear": fit.linear,
                "residual": fit.residual,
            }
    return doc


def curve_to_csv(curve: SpectralConstantCurve) -> str:
    lines = ["k,C,lnC"]
    for k, c in zip(curve.thresholds, curve.constants):
        ln_c = float(np.log(c)) if np.isfinite(c) else float("inf")
        lines.append(f"{float(k)!r},{float(c)!r},{ln_c!r}")
    return "\n".join(lines) + "\n"
