"""Explicit stabilizing feedbacks and closed-loop decay measurement.

Two constructions are provided.  The damping feedback adds the indicator of
the observation set to the generator; for H = -Laplacian a frequency-split
argument gives the explicit lower bound

    omega(N) = min{ (1 - delta) N^2 - 2,  (1/2) e^{-2 c1 N} }

on the spectral gap of H + chi_E, where c1 is the restricted-inequality
exponent of E at thresholds N^2.  The argument needs H >= 0: a shift
H - c with c above the bottom of the spectrum leaves modes that chi_E
damps too weakly, and the bound then certifies a rate the loop does not
have.  So the law is refused for a generator whose smallest eigenvalue is
negative (a level at 0 passes).  The bound is certified, not sharp: the
true rate is the smallest eigenvalue of the perturbed operator, which the
build obtains by dense diagonalization and holds the bound to.

The finite-rank feedback acts on the unstable modes only.  With
lambda_1 <= ... <= lambda_N <= 0 < lambda_{N+1} and A the Gram matrix of
the first N eigenfunctions restricted to E, the feedback is

    K psi = rho * < A^{-1} ((psi, phi_1), ..., (psi, phi_N)), (phi_1, ..., phi_N) >,

with rho = lambda_1 - 1 fixed, and the control enters the equation as
chi_E K y.  The coupling P (column i: the eigen coefficients of chi_E phi_i)
is taken once, at the build: its leading N x N block is A, so on every E
the unstable modes close on themselves at the rates
mu_i = lambda_i - rho = 1, 1 + lambda_2 - lambda_1, ...; the stable modes
keep their rates and are forced by those exponentials, a closed form by
variation of constants.  Near-singularity of A on a grid signals that E is
below resolution, and is surfaced as an error rather than regularized away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .certify import exprel
from .domain import GridFunction, norm as _norm, require_domain, to_csv
from .geometry import SetIndicator
from .operators import (
    SpectralDecomposition,
    basis_block,
    dense_matrix,
    is_resolved,
    spectral_count,
    to_coefficients,
)
from .specineq import spectral_constant_curve

GRAM_COND_LIMIT = 1e12


class VerdictError(RuntimeError):
    """The mathematics said no; ``kind`` names the verdict in an error document."""
    kind = "verdict"


class GramSingularError(VerdictError):
    """Restricted Gram matrix numerically singular at this resolution."""
    kind = "gram singular"

    def __init__(self, message: str, witness: GridFunction, cond: float):
        super().__init__(message)
        self.witness = witness
        self.cond = cond


class AlreadyStableError(VerdictError):
    """All eigenvalues positive; no feedback needed."""
    kind = "already stable"


class NoDampingRateError(VerdictError):
    """No threshold in the sweep certifies a positive damping rate."""
    kind = "no damping rate"


class UnstableLoopError(VerdictError):
    """The simulated loop grew past ten times the initial norm."""
    kind = "unstable loop"


class DampingCertificateError(ArithmeticError):
    """The exact loop spectrum falls below the certified damping rate."""


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
    """Spectral feedback on the nonpositive modes, gain rho = lambda_1 - 1.

    Column i of ``coupling`` holds the coefficients of chi_E phi_i for the set ``e``.
    """

    rho: float
    unstable_count: int
    e: SetIndicator
    coupling: np.ndarray
    gram: np.ndarray
    gram_inverse: np.ndarray
    gram_cond: float
    norm_bound: float

    def __post_init__(self):
        for arr in (self.coupling, self.gram, self.gram_inverse):
            arr.setflags(write=False)


FeedbackOperator = Union[DampingFeedback, FiniteRankFeedback]


def damping_spectral_exponent(dec: SpectralDecomposition, e: SetIndicator, N_grid) -> float:
    """Envelope exponent c1 with ||pi_{N^2} phi|| <= e^{c1 N} ||pi_{N^2} phi||_E.

    Takes the max of 0 and ln C(N^2) / N over the sweep, so the bound holds
    with equality at the worst N.  Every C(N^2) is read from one curve, hence
    one Gram matrix.  +inf constants propagate (the caller's sweep in
    damping_decay_bound will then fail honestly).
    """
    ns = np.sort(np.asarray(N_grid, dtype=float))
    curve = spectral_constant_curve(dec, e, ns**2)
    return float(np.max(np.log(curve.constants) / ns, initial=0.0))


def require_delta(delta: float) -> None:
    """The one refusal, a ValueError, of a damping weight ``delta`` outside [0, 1)."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")


def damping_decay_bound(delta: float, c1: float, N_grid) -> DampingBound:
    """Best certified gap omega = min{(1-delta)N^2 - 2, e^{-2 c1 N}/2} over N.

    A pure formula of delta, c1 and the sweep.  Raises when no N yields a
    positive omega, the grid-level signature of a set too thin for damping
    at this resolution.
    """
    require_delta(delta)
    if c1 < 0:
        raise ValueError(f"c1 must be nonnegative, got {c1}")
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
    N_grid=range(1, 33),
) -> DampingFeedback:
    """Pick omega by sweeping N, then diagonalize H + chi_E for exact flow.

    The bound's exponent c1 is the envelope of damping_spectral_exponent
    over the swept N.  A ``delta`` outside [0, 1), a set on another domain,
    and a generator with a negative eigenvalue (outside the bound's
    hypothesis H >= 0) are refused before any matrix is built.  The sweep
    keeps only the N whose range d(N^2) is at most half the cell count, the
    ranges the grid resolves; it raises ValueError when no N is left.  A smallest loop eigenvalue below
    omega raises DampingCertificateError.
    """
    require_delta(delta)
    require_domain(dec.domain, observation_set=e)
    lam1 = float(dec.eigenvalues[0])
    if lam1 < 0.0:
        raise ValueError(
            f"the damping law needs H >= 0, but the smallest eigenvalue is lambda_1 = {lam1:.6g}"
        )
    resolved = [n for n in N_grid if is_resolved(dec, float(n) ** 2)]
    if not resolved:
        raise ValueError(
            f"no N in the sweep has a projection range within half the cell count {dec.domain.cell_count}; "
            "refine the grid or lower the sweep"
        )
    # the loop matrix before the sweep: dense_matrix refuses a grid too large
    # to hold it (a factored basis can be larger) before the sweep builds
    # Grams of up to cells / 2 columns
    loop = dense_matrix(dec) + np.diag(e.cells.ravel().astype(float))
    c1 = damping_spectral_exponent(dec, e, resolved)
    bound = damping_decay_bound(delta, c1, resolved)
    loop = 0.5 * (loop + loop.T)
    w, u = np.linalg.eigh(loop)
    if w[0] < bound.omega:
        raise DampingCertificateError(
            f"the loop's smallest eigenvalue {w[0]:.6g} is below the certified omega {bound.omega:.6g}"
        )
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
    """Transform chi_E times the nonpositive modes once, and factor the Gram matrix in it once.

    The mode count is N = #{lambda_j <= 0}; the Gram A is the leading N x N
    block of the coupling, made exactly Hermitian.  One eigendecomposition
    A = V diag(mu) V^* gives everything: the condition max|mu| / min|mu|,
    the inverse V diag(1/mu) V^*, the norm bound |rho| / min|mu| = |rho|
    ||A^{-1}|| on K, and the combination of eigenfunctions that E observes
    least, the modes times the first column of V.  A condition beyond 1e12,
    or an inverse whose residual A^{-1} A - I exceeds 1e-8, aborts with that
    combination attached, since inverting A would amplify noise past double
    precision; the continuum Gram is provably invertible, so this only
    happens when E is under-resolved.
    """
    require_domain(dec.domain, observation_set=e)
    if e.measure <= 0.0:
        raise ValueError("observation set has zero measure")
    n_unstable = spectral_count(dec, 0.0)
    if n_unstable == 0:
        raise AlreadyStableError(
            "smallest eigenvalue is positive; the open loop already decays, skip feedback"
        )
    block = basis_block(dec, np.arange(n_unstable))
    coupling = to_coefficients(dec, e.cells * block.T.reshape((n_unstable,) + dec.domain.shape))
    gram = 0.5 * (coupling[:n_unstable] + coupling[:n_unstable].conj().T)
    mu, v = np.linalg.eigh(gram)
    size = np.abs(mu)

    def singular(detail):
        witness = GridFunction(dec.domain, (block @ v[:, 0]).reshape(dec.domain.shape))
        return GramSingularError(detail, witness=witness, cond=cond)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = float(size.max() / size.min())
        if not cond <= GRAM_COND_LIMIT:
            raise singular(
                f"restricted Gram matrix has condition number {cond:.3e} > {GRAM_COND_LIMIT:.0e}; "
                "the observation set cannot distinguish the unstable modes at this resolution"
            )
        gram_inverse = (v / mu) @ v.conj().T
        residual = np.abs(gram_inverse @ gram - np.eye(n_unstable)).max()
    if not residual <= 1e-8:
        raise singular(f"Gram inversion residual {residual:.3e} exceeds 1e-8")
    rho = float(dec.eigenvalues[0] - 1.0)
    return FiniteRankFeedback(
        rho=rho,
        unstable_count=n_unstable,
        e=e,
        coupling=coupling,
        gram=gram,
        gram_inverse=gram_inverse,
        gram_cond=cond,
        norm_bound=float(abs(rho) / size.min()),
    )


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


def require_window(t_end: float, dt: float) -> None:
    """The one refusal, a ValueError, of a sample window: 0 < t_end < inf and 0 < dt <= t_end / 100."""
    if not 0.0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0.0 < dt <= t_end / 100.0:
        raise ValueError(f"need 0 < dt <= t_end / 100, got dt = {dt}")


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
    stabilizing feedback must not excite the state.  ``y0``, ``e`` and the
    set of ``fb`` must live on the decomposition's domain, and ``e`` must be
    the set either law was built on.
    """
    require_domain(dec.domain, y0=y0, observation_set=e)
    if fb is not None:
        require_domain(dec.domain, feedback=fb.e)
    require_window(t_end, dt)
    norm0 = _norm(y0)
    if norm0 == 0.0:
        raise ValueError("y0 is identically zero")
    # float step indices: exact below 2^53, and a tiny dt makes no integer past 2^64
    n_steps = np.ceil(t_end / dt - 1e-12)
    stride = max(1.0, np.floor(t_end / (100.0 * dt)))
    times = np.union1d(np.arange(0.0, n_steps, stride), [n_steps]) * dt

    n_low = fb.unstable_count if isinstance(fb, FiniteRankFeedback) else 0
    if fb is not None and not np.array_equal(fb.e.cells, e.cells):
        raise ValueError("the feedback was built on another observation set than e")
    if isinstance(fb, DampingFeedback):
        rates = fb.loop_eigenvalues
        c0 = fb.loop_vectors.T @ y0.values.ravel() * y0.domain.cell_volume
    else:
        rates, c0 = dec.eigenvalues, to_coefficients(dec, y0)
    if n_low:  # the unstable block closes on itself at the rates mu_i = lambda_i - rho
        rates = np.concatenate([rates[:n_low] - fb.rho, rates[n_low:]])
    # the (cells, samples) arrays are built in place, each product with the
    # operands it always had; a buffer of complex terms takes their dtype
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        decay = np.outer(rates, times)
        np.exp(np.negative(decay, out=decay), out=decay)
        coeffs = np.multiply(c0[:, None], decay, out=decay if np.isrealobj(c0) else None)
        del decay
        if n_low:
            # stable row j gains rho sum_i (P A^{-1})_{ji} c_i(0) kappa(lambda_j, mu_i, t), with
            # P the feedback's coupling and kappa = int_0^t e^{-lambda (t-s)} e^{-mu s} ds
            # = t e^{-min(lambda, mu) t} exprel(-|lambda - mu| t): no cancellation near
            # lambda = mu and, both rates being positive, no overflow
            gains = fb.rho * (fb.coupling[n_low:] @ fb.gram_inverse) * c0[:n_low]
            lams = rates[n_low:, None]
            kernel, arg = np.empty((2, len(lams), len(times)))
            term = kernel if np.isrealobj(gains) else np.empty(kernel.shape, dtype=gains.dtype)
            for i, mu in enumerate(rates[:n_low]):
                np.exp(np.multiply(-np.minimum(lams, mu), times, out=kernel), out=kernel)
                np.multiply(times, kernel, out=kernel)
                kernel *= exprel(np.multiply(-np.abs(lams - mu), times, out=arg), out=arg)
                coeffs[n_low:] += np.multiply(gains[:, i, None], kernel, out=term)
            del kernel, arg, term  # the norm squares coeffs into one more array
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
    ln_n = [float(np.log(n)) if n > 0 else float("-inf") for n in report.norms]
    return to_csv(("t", "norm", "ln_norm"), zip(map(float, report.times), map(float, report.norms), ln_n))
