"""Explicit stabilizing feedbacks and closed-loop decay measurement.

Two constructions are provided.  The damping feedback adds the indicator of
the observation set to the generator; for H = -Laplacian a frequency-split
argument gives the explicit lower bound

    omega(N) = min{ (1 - delta) N^2 - 2,  (1/2) e^{-2 c1 N} }

on the spectral gap of H + chi_E, where c1 is the restricted-inequality
exponent of E at thresholds N^2.  The bound is certified, not sharp: the
true rate is the smallest eigenvalue of the perturbed operator, which tests
obtain by dense diagonalization.

The finite-rank feedback acts on the unstable modes only.  With
lambda_1 <= ... <= lambda_N <= 0 < lambda_{N+1} and A the Gram matrix of
the first N eigenfunctions restricted to E, the feedback is

    K psi = rho * < A^{-1} ((psi, phi_1), ..., (psi, phi_N)), (phi_1, ..., phi_N) >,

with rho = lambda_1 - 1 fixed, and the control enters the equation as
chi_E K y.  In eigen coefficients the E-coupling of the unstable modes is
A itself, so on every E they close on themselves at the rates
mu_i = lambda_i - rho = 1, 1 + lambda_2 - lambda_1, ...; the stable modes
keep their rates and are forced by those exponentials, a closed form by
variation of constants.  Near-singularity of A on a grid signals that E is
below resolution, and is surfaced as an error rather than regularized away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg
import scipy.special

from .domain import DomainMismatchError, GridFunction, inner_product, norm as _norm
from .geometry import SetIndicator
from .operators import (
    SpectralDecomposition,
    basis_block,
    dense_matrix,
    eigenfunction,
    restricted_gram,
    spectral_count,
    to_coefficients,
)
from .specineq import spectral_constant_curve

__all__ = [
    "GramSingularError",
    "AlreadyStableError",
    "NoDampingRateError",
    "UnstableLoopError",
    "DampingBound",
    "DampingFeedback",
    "FiniteRankFeedback",
    "FeedbackOperator",
    "DecayReport",
    "damping_spectral_exponent",
    "damping_decay_bound",
    "build_damping_feedback",
    "build_finite_rank_feedback",
    "feedback_norm_bound",
    "apply_feedback",
    "simulate_decay",
    "decay_report_to_csv",
]

GRAM_COND_LIMIT = 1e12


class GramSingularError(RuntimeError):
    """Restricted Gram matrix numerically singular at this resolution."""

    def __init__(self, message: str, witness: GridFunction, cond: float):
        super().__init__(message)
        self.witness = witness
        self.cond = cond


class AlreadyStableError(RuntimeError):
    """All eigenvalues positive; no feedback needed."""


class NoDampingRateError(RuntimeError):
    """No threshold in the sweep certifies a positive damping rate."""


class UnstableLoopError(RuntimeError):
    """The simulated loop grew past ten times the initial norm."""


@dataclass(frozen=True)
class DampingBound:
    omega: float
    chosen_N: int


@dataclass(frozen=True)
class DampingFeedback:
    """chi_E damping, with the perturbed operator diagonalized once."""

    e: SetIndicator
    omega: float
    chosen_N: int
    delta: float
    c1: float
    loop_eigenvalues: np.ndarray
    loop_vectors: np.ndarray

    def __post_init__(self):
        self.loop_eigenvalues.setflags(write=False)
        self.loop_vectors.setflags(write=False)


@dataclass(frozen=True)
class FiniteRankFeedback:
    """Spectral feedback on the nonpositive modes, gain rho = lambda_1 - 1."""

    rho: float
    unstable_count: int
    eigenfunctions: tuple
    gram: np.ndarray
    gram_inverse: np.ndarray
    gram_cond: float

    def __post_init__(self):
        self.gram.setflags(write=False)
        self.gram_inverse.setflags(write=False)


FeedbackOperator = Union[DampingFeedback, FiniteRankFeedback]


def damping_spectral_exponent(dec: SpectralDecomposition, e: SetIndicator, N_grid) -> float:
    """Envelope exponent c1 with ||pi_{N^2} phi|| <= e^{c1 N} ||pi_{N^2} phi||_E.

    Takes the max of ln C(N^2) / N over the sweep, so the bound holds with
    equality at the worst N.  Every C(N^2) is read from one curve, hence
    one Gram matrix.  +inf constants propagate (the caller's sweep in
    damping_decay_bound will then fail honestly).
    """
    ns = sorted(float(n) for n in N_grid)
    curve = spectral_constant_curve(dec, e, [n**2 for n in ns])
    worst = 0.0
    for n, c in zip(ns, curve.constants):
        if not np.isfinite(c):
            return float("inf")
        worst = max(worst, float(np.log(c)) / n)
    return worst


def damping_decay_bound(dec: SpectralDecomposition, e: SetIndicator, delta: float, c1: float, N_grid) -> DampingBound:
    """Best certified gap omega = min{(1-delta)N^2 - 2, e^{-2 c1 N}/2} over N.

    dec is the generator the bound is for; it enters only through domain
    consistency (the bound itself is a formula in delta, c1, N).  Raises
    when no N in the sweep yields a positive omega, which is the grid-level
    signature of a set too thin for damping at this resolution.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if c1 < 0:
        raise ValueError(f"c1 must be nonnegative, got {c1}")
    if e.domain != dec.domain:
        raise ValueError("observation set and decomposition live on different domains")
    ns = [int(n) for n in N_grid if int(n) >= 1]
    with np.errstate(under="ignore"):
        omegas = [float(min((1.0 - delta) * n**2 - 2.0, 0.5 * np.exp(-2.0 * c1 * n))) for n in ns]
    if max(omegas, default=-np.inf) <= 0.0:
        raise NoDampingRateError(
            f"no N in the sweep gives omega > 0 (best {max(omegas, default=-np.inf)}); "
            "the set is not thick enough at this resolution"
        )
    best = int(np.argmax(omegas))  # the first N that attains the best omega
    return DampingBound(omega=omegas[best], chosen_N=ns[best])


def build_damping_feedback(
    dec: SpectralDecomposition,
    e: SetIndicator,
    *,
    delta: float = 0.5,
    c1: Optional[float] = None,
    N_grid=range(1, 33),
) -> DampingFeedback:
    """Pick omega by sweeping N, then diagonalize H + chi_E for exact flow.

    The sweep keeps only the N whose projection range d(N^2) is at most
    half the cell count, the ranges the grid resolves; it raises
    ValueError when no N is left.
    """
    cells = dec.domain.cell_count
    resolved = [n for n in N_grid if 2 * spectral_count(dec, float(n) ** 2) <= cells]
    if not resolved:
        raise ValueError(
            f"no N in the sweep has a projection range within half the cell count {cells}; "
            "refine the grid or lower the sweep"
        )
    if c1 is None:
        c1 = damping_spectral_exponent(dec, e, resolved)
    bound = damping_decay_bound(dec, e, delta, c1, resolved)
    loop = dense_matrix(dec) + np.diag(e.cells.ravel().astype(float))
    loop = 0.5 * (loop + loop.T)
    w, u = scipy.linalg.eigh(loop)
    vectors = u / np.sqrt(dec.domain.cell_volume)
    return DampingFeedback(
        e=e,
        omega=bound.omega,
        chosen_N=bound.chosen_N,
        delta=float(delta),
        c1=float(c1),
        loop_eigenvalues=w,
        loop_vectors=vectors,
    )


def build_finite_rank_feedback(dec: SpectralDecomposition, e: SetIndicator) -> FiniteRankFeedback:
    """Assemble the Gram matrix of the nonpositive modes on E and invert it.

    The mode count is N = #{lambda_j <= 0}.  A condition number beyond
    1e12 aborts with the offending combination of eigenfunctions attached,
    since inverting it would amplify noise past double precision; the
    continuum Gram is provably invertible, so this only happens when E is
    under-resolved.
    """
    if e.measure <= 0.0:
        raise ValueError("observation set has zero measure")
    if e.domain != dec.domain:
        raise ValueError("observation set and decomposition live on different domains")
    n_unstable = spectral_count(dec, 0.0)
    if n_unstable == 0:
        raise AlreadyStableError(
            "smallest eigenvalue is positive; the open loop already decays, skip feedback"
        )
    idx = np.arange(n_unstable)
    gram = restricted_gram(dec, idx, e)
    cond = float(np.linalg.cond(gram))
    if cond > GRAM_COND_LIMIT:
        w, v = scipy.linalg.eigh(gram)
        block = basis_block(dec, idx)
        witness_vals = (block @ v[:, 0]).reshape(dec.domain.shape)
        witness = GridFunction(dec.domain, witness_vals)
        raise GramSingularError(
            f"restricted Gram matrix has condition number {cond:.3e} > {GRAM_COND_LIMIT:.0e}; "
            "the observation set cannot distinguish the unstable modes at this resolution",
            witness=witness,
            cond=cond,
        )
    gram_inverse = np.linalg.inv(gram)
    residual = np.abs(gram_inverse @ gram - np.eye(n_unstable)).max()
    if residual > 1e-8:
        raise GramSingularError(
            f"Gram inversion residual {residual:.3e} exceeds 1e-8",
            witness=eigenfunction(dec, 0),
            cond=cond,
        )
    rho = float(dec.eigenvalues[0] - 1.0)
    funcs = tuple(eigenfunction(dec, j) for j in range(n_unstable))
    return FiniteRankFeedback(
        rho=rho,
        unstable_count=n_unstable,
        eigenfunctions=funcs,
        gram=gram,
        gram_inverse=gram_inverse,
        gram_cond=cond,
    )


def feedback_norm_bound(fb: FeedbackOperator) -> float:
    """Operator-norm bound: |rho| ||A^{-1}|| for finite rank, 1 for damping."""
    if isinstance(fb, DampingFeedback):
        return 1.0
    return float(abs(fb.rho) * np.linalg.norm(fb.gram_inverse, 2))


def apply_feedback(dec: SpectralDecomposition, fb: Optional[FeedbackOperator], y: GridFunction) -> GridFunction:
    """The feedback operator K itself; the control term in the equation is chi_E (K y)."""
    if fb is None:
        return GridFunction(y.domain, np.zeros_like(y.values))
    if isinstance(fb, DampingFeedback):
        return GridFunction(y.domain, -(fb.e.cells * y.values))
    coeffs = np.array([inner_product(y, phi) for phi in fb.eigenfunctions])
    weights = fb.rho * (fb.gram_inverse @ coeffs)
    block = basis_block(dec, np.arange(fb.unstable_count))
    vals = (block @ weights).reshape(y.domain.shape)
    if not np.iscomplexobj(y.values) and np.iscomplexobj(vals):
        vals = vals.real
    return GridFunction(y.domain, vals)


@dataclass(frozen=True)
class DecayReport:
    times: tuple
    norms: tuple
    fitted_omega: float
    fitted_prefactor: float
    fit_residual: float


def _fit_decay(times: np.ndarray, norms: np.ndarray) -> DecayReport:
    half = len(times) // 2
    t = times[half:]
    ln_n = np.log(np.maximum(norms[half:], 1e-300))
    design = np.stack([t, np.ones_like(t)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, ln_n, rcond=None)
    residual = float(np.sqrt(np.mean((design @ [slope, intercept] - ln_n) ** 2)))
    return DecayReport(
        times=tuple(float(v) for v in times),
        norms=tuple(float(v) for v in norms),
        fitted_omega=float(-slope),
        fitted_prefactor=float(np.exp(intercept)),
        fit_residual=residual,
    )


def simulate_decay(
    dec: SpectralDecomposition,
    fb: Optional[FeedbackOperator],
    e: SetIndicator,
    y0: GridFunction,
    t_end: float,
    dt: float,
) -> DecayReport:
    """Propagate the loop exactly and fit the decay rate on the trailing half.

    The open loop (``fb`` None), damping and finite rank are all evaluated in
    closed form at about 100 sample times, multiples of dt, so dt sets only
    their spacing.  Growth beyond 10 ||y0|| raises UnstableLoopError: a
    stabilizing feedback must not excite the state.  ``y0`` and ``e`` must
    live on the decomposition's domain.
    """
    for name, obj in (("y0", y0), ("observation set", e)):
        if obj.domain != dec.domain:
            raise DomainMismatchError(f"{name} lives on a different domain than the decomposition")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if dt <= 0 or dt > t_end / 100.0:
        raise ValueError("need 0 < dt <= t_end / 100")
    norm0 = _norm(y0)
    if norm0 == 0.0:
        raise ValueError("y0 is identically zero")
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    stride = max(1, int(np.floor(t_end / (100.0 * dt))))
    times = np.union1d(np.arange(0, n_steps, stride), [n_steps]) * dt

    if isinstance(fb, DampingFeedback):
        rates = fb.loop_eigenvalues
        c0 = fb.loop_vectors.T @ y0.values.ravel() * y0.domain.cell_volume
    else:
        rates, c0 = dec.eigenvalues, to_coefficients(dec, y0)
    n_low = fb.unstable_count if isinstance(fb, FiniteRankFeedback) else 0
    if n_low:  # the unstable block closes on itself at the rates mu_i = lambda_i - rho
        rates = np.concatenate([rates[:n_low] - fb.rho, rates[n_low:]])
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        coeffs = c0[:, None] * np.exp(-np.outer(rates, times))
        if n_low:
            # stable row j gains rho sum_i (P A^{-1})_{ji} c_i(0) kappa(lambda_j, mu_i, t), with
            # column i of P the coefficients of chi_E phi_i and kappa = int_0^t e^{-lambda (t-s)}
            # e^{-mu s} ds = t e^{-min(lambda, mu) t} exprel(-|lambda - mu| t): no cancellation
            # near lambda = mu and, both rates being positive, no overflow
            p_mat = to_coefficients(dec, e.cells * np.stack([phi.values for phi in fb.eigenfunctions]))
            if not np.allclose(p_mat[:n_low], fb.gram, rtol=0.0, atol=1e-9):
                raise ValueError("the feedback was built on another observation set than e")
            gains = fb.rho * (p_mat[n_low:] @ fb.gram_inverse) * c0[:n_low]
            lams = rates[n_low:, None]
            for i, mu in enumerate(rates[:n_low]):
                kernel = times * np.exp(-np.minimum(lams, mu) * times)
                kernel *= scipy.special.exprel(-np.abs(lams - mu) * times)
                coeffs[n_low:] += gains[:, i, None] * kernel
        norms = np.linalg.norm(coeffs, axis=0)
    grown = ~(norms <= 10.0 * norm0)
    if grown.any():
        i = int(np.argmax(grown))
        raise UnstableLoopError(
            f"instability detected: ||y({times[i]:.4g})|| = {norms[i]:.4g} "
            f"exceeds 10 ||y0|| = {10 * norm0:.4g}"
        )
    return _fit_decay(times, norms)


def decay_report_to_csv(report: DecayReport) -> str:
    lines = ["t,norm,ln_norm"]
    for t, n in zip(report.times, report.norms):
        ln_n = float(np.log(n)) if n > 0 else float("-inf")
        lines.append(f"{float(t)!r},{float(n)!r},{ln_n!r}")
    return "\n".join(lines) + "\n"
