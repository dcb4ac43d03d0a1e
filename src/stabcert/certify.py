"""Certificate construction for the relaxed observability inequality.

Given hypothesis constants: a restricted spectral inequality
||pi_k phi|| <= e^{c1 k^a} ||pi_k phi||_{L2(E)} and a high-frequency decay
bound ||(1 - pi_k) e^{-tH} phi|| <= M e^{-c2 t k^b} ||phi||, a dyadic
time-splitting argument produces an explicit triple (T, alpha, C) with

    ||e^{-TH} phi|| <= C ( int_0^T ||e^{-tH} phi||_{L2(E)}^2 dt )^{1/2}
                       + alpha ||phi||,       alpha in (0, 1),

which is the certificate of stabilizability this module emits.  The chain
of intermediate constants (gamma, N, A, tau0, alpha0, B, beta) follows the
constructive argument verbatim; nothing is optimized for tightness, and the
constants can be astronomically large, so everything is computed in
log-space and only exponentiated on demand.

The two check operations then hold the certificate against the discretized
semigroup itself: a one-scale recurrence inequality on dyadic intervals
(tau/2, tau), and the final inequality at time T.  Their space-time
observation integrals int_lo^hi ||chi_E e^{-tH} u||^2 dt are evaluated
without the E-restricted Gram matrix.  The time kernel
F_jl = int_lo^hi e^{-t(lam_j + lam_l)} dt is a Laplace-type kernel of low
numerical rank; ``time_kernel`` factors it over the distinct eigenvalue
levels by pivoted Cholesky, F = L L^T + E, and stops once the
multiplicity-weighted trace of the residual E falls to KERNEL_RTOL times
that of F.  The integral is then sum_q ||chi_E l_q(H) u||^2 with
l_q(lam) = L[level(lam), q]: ``operators.restricted_norms`` transforms
each state once, a chunk of states at a time, and yields for each chunk
the decay sums sum_j e^{-2 hi lam_j} |c_jp|^2 of the decayed norms
||e^{-hi H} u|| and a function that gives the set norm of row q when
asked; the checks draw each chunk of their random states only when the
loop reaches it, so their memory does not grow with the trials.
The Gram G is positive semidefinite with G_jj <= 1 and E is positive
semidefinite, so Schur's inequality puts the exact value in
[I, I + B ||u||^2], where I is that sum less a roundoff allowance and B is
the weighted trace of E plus twice the allowance.  Each verdict is taken
at the conservative end of the bracket: the checks pass on the lower end
I, and the probes report a violation only if the upper end still
violates.  ``inequality_margins`` evaluates both checks and both probes
from that end and raises ArithmeticError on a NaN or infinite margin.
Before any state is drawn, it holds each interval of a check to its
spectral bound: for a unit state and I >= 0 the weak margin is at least
alpha - e^{-T lam_1}, and the recurrence margin at tau at least
alpha0 tau - (g(tau) e^{-2 tau lam~_1} - g(tau/2)).  An interval where
that bound is >= 0 (and every figure of its pass would be finite) is
decided by the spectrum: it takes no kernel rows and factors no time
kernel, and a check whose every interval is decided draws no states.
Its report then says so (``decided_by_spectrum``) and carries the bound
as its worst figure, which holds for every grid state, not only the
drawn ones; the verdict is the one the pass would give, since the bound
implies the pass.  On the shifted Hermite operator with lam_1 > 0 the
spectrum decides both checks; on a spectrum starting at 0 it decides
neither.
The first q columns of L are the rank-q factor, so the sum over rows
q' < q less the allowance is a certified lower end at every q, and it
only grows with q.  So ``inequality_margins``, which drives the chunks of
``restricted_norms`` itself (no callback crosses the module boundary),
takes the rows in rounds, row q of every interval still open, and for a
check a chunk of states stops taking an interval's rows once every state
in it has a margin >= 0 there; a chunk with any margin below 0 takes
every row.  A check's verdict is therefore the full rank's, its failing
figures are the full rank's, and its passing figures are lower ends at
the rank where each chunk stopped (``rank_used``, the most rows any
chunk took, beside the full factor's ``kernel_rank``; both cover only
the intervals that ran a pass).  The stop test and the reported bracket
sum the kernel rows in one order, so they agree bit for bit.  The probes
take every row: an upper end does not only grow with the rank.
The exact closed form through the Gram, the reference the tests hold the
bracket to, is ``observation_integrals`` in ``tests/reference.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import GridDomain, require_domain
from .geometry import SetIndicator
from .operators import (
    DrawnStates,
    FractionalLaplacian,
    OperatorSpec,
    SpectralDecomposition,
    diagonalize,
    require_resolved,
    restricted_norms,
)
from .specineq import (
    SpectralConstantCurve,
    spectral_constant_curve,
    verify_spectral_hypothesis,
)

CHECK_BUDGET = 1e-7  # relative slack granted to roundoff in pass/fail calls
# a fitted c1 is kept when every ratio C(k) / e^{c1 k^a} is at most this
_FIT_RATIO_SLACK = 1.0 + 1e-12
# pivoted Cholesky of the time kernel stops once the multiplicity-weighted
# trace of its residual is at most this fraction of the kernel's own
KERNEL_RTOL = 1e-13
# roundoff allowance of an observation integral, in units of eps times the
# largest one-mode integral max_j F_jj (hi - lo when the spectrum starts at 0)
_ROUNDOFF_ULPS = 64


@dataclass(frozen=True)
class CriterionConstants:
    """Hypothesis constants feeding the certificate chain."""

    c1: float
    a: float
    c2: float
    b: float
    M: float = 1.0
    delta0: float = 0.0

    def __post_init__(self):
        for name in ("c1", "a", "c2", "b"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.M < 1:
            raise ValueError("M must be >= 1 (the semigroup bound must hold at t = 0)")
        if self.delta0 < 0:
            raise ValueError("delta0 must be nonnegative")


@dataclass(frozen=True)
class Certificate:
    """All constants of the construction, in linear and in log form.

    Linear fields may round to 0.0 or inf when the log value is extreme;
    the ln_* companions are always finite and authoritative.
    """

    constants: CriterionConstants
    gamma: float
    N: float
    CMgamma: float
    DMN: float
    A: float
    tau0: float
    alpha0: float
    B: float
    beta: float
    T: float
    alpha: float
    C: float
    ln_CMgamma: float
    ln_DMN: float
    ln_alpha0: float
    ln_B: float
    ln_beta: float
    ln_C: float


def build_certificate(k: CriterionConstants) -> Certificate:
    """Evaluate the constant chain of the dyadic splitting argument.

    The order is gamma, N, C(M, gamma), D(M, N), A, tau0, alpha0, B, beta,
    then (T, alpha, C).  beta < 1 is structural: beta reduces to
    (3/(100 N)) e^{A (2 delta0 / N - c2 2^{-(b+1)})} and the choice of N
    makes the exponent nonpositive.  A violation is therefore raised as an
    arithmetic bug, never returned.
    """
    c1, a, c2, b, M, delta0 = k.c1, k.a, k.c2, k.b, k.M, k.delta0
    gamma = 2.0 ** (a / b + a)
    N = max(2.0, 2.0 ** (b + 2) * delta0 / c2)
    ln_CMg = np.logaddexp(
        2.0 * np.log(M),
        np.log(gamma - 1.0) - np.log(8.0 * M**2) + gamma / (gamma - 1.0) * np.log(4.0 * M**4 / gamma),
    )
    ln_DMN = -2.0 * c1 * (2.0 * N) ** (a / b) - np.log(8.0 * M**2 * N)
    A = 2.0 ** (b + 1) / c2 * np.logaddexp(0.0, np.log(25.0) + ln_CMg - ln_DMN)
    tau0 = 3.0 * A / (2.0 * N)
    ln_alpha0 = ln_DMN - c2 * 2.0 ** -(b + 1) * A - np.log(50.0)
    ln_B = -c2 * 2.0**-b * A - np.log(2.0)
    # Substituting alpha0 and D, beta reduces to (3 / (100 N)) e^{A s} with
    # s = 2 delta0 / N - c2 2^{-(b+1)}.  When N is pinned by delta0 the two
    # terms of s coincide and s = 0 exactly; evaluating the unreduced sum
    # instead would cancel catastrophically once A is large.
    if 2.0 ** (b + 2) * delta0 / c2 > 2.0:
        slack = 0.0
    else:
        slack = delta0 - c2 * 2.0 ** -(b + 1)  # 2 delta0 / N at N = 2
    ln_beta = np.log(3.0 / (100.0 * N)) + (A * slack if slack != 0.0 else 0.0)
    if not ln_beta < 0.0:
        raise ArithmeticError(
            f"beta = exp({ln_beta}) not in (0, 1); the constant chain is miscomputed"
        )
    T = A / N
    k_half = np.floor((2.0 * N) ** (1.0 / b))  # threshold index at tau = A/(2N)
    ln_g_half = np.log(A / (2.0 * N) / (4.0 * M**2)) - 2.0 * c1 * k_half**a
    ln_C = 0.5 * (2.0 * A * delta0 / N - ln_g_half)
    with np.errstate(over="ignore", under="ignore"):
        return Certificate(
            constants=k,
            gamma=float(gamma),
            N=float(N),
            CMgamma=float(np.exp(ln_CMg)),
            DMN=float(np.exp(ln_DMN)),
            A=float(A),
            tau0=float(tau0),
            alpha0=float(np.exp(ln_alpha0)),
            B=float(np.exp(ln_B)),
            beta=float(np.exp(ln_beta)),
            T=float(T),
            alpha=float(np.exp(0.5 * ln_beta)),
            C=float(np.exp(ln_C)),
            ln_CMgamma=float(ln_CMg),
            ln_DMN=float(ln_DMN),
            ln_alpha0=float(ln_alpha0),
            ln_B=float(ln_B),
            ln_beta=float(ln_beta),
            ln_C=float(ln_C),
        )


def certificate_threshold(cert: Certificate, tau: float) -> int:
    """Frequency threshold k(tau) = floor((A/tau)^{1/b}) used on (tau/2, tau)."""
    if not 0.0 < tau < cert.tau0:
        raise ValueError(f"tau must lie in (0, tau0 = {cert.tau0}), got {tau}")
    k = int(np.floor((cert.A / tau) ** (1.0 / cert.constants.b)))
    if k < 1:
        raise ArithmeticError("threshold k(tau) < 1 despite tau < tau0; constant chain broken")
    return k


def certificate_gain_log(cert: Certificate, tau: float) -> float:
    """ln g(tau) for the weight g(tau) = tau/(4M^2) e^{-2 c1 k(tau)^a}."""
    k = certificate_threshold(cert, tau)
    c = cert.constants
    return float(np.log(tau / (4.0 * c.M**2)) - 2.0 * c.c1 * float(k) ** c.a)


# ---------------------------------------------------------------------------
# observation integrals


def exprel(x, out=None) -> np.ndarray:
    """(e^x - 1) / x elementwise, exactly 1 at x = 0.

    expm1 keeps the full relative accuracy for small |x|, so the quotient
    has no cancellation near 0; it is within a few ulps of
    ``scipy.special.exprel`` up to x ~ 709.78, where expm1 overflows to inf
    a few units before the quotient would.  ``out`` may be ``x`` itself.
    """
    x = np.asarray(x, dtype=float)
    zero = x == 0.0
    if out is None:
        out = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.expm1(x), x, out=out)
    out[zero] = 1.0
    return out


@dataclass(frozen=True)
class TimeKernel:
    """Low-rank factor of F_jl = int_lo^hi e^{-t(lam_j + lam_l)} dt, F = L L^T + E.

    ``weights`` is (rank, cells): row q holds l_q(lam_j) = L[level(lam_j), q]
    for every eigenvalue.  ``residual_trace`` is the multiplicity-weighted
    trace of E and ``allowance`` the roundoff allowance of one integral,
    both per unit squared norm of the state.
    """

    weights: np.ndarray
    residual_trace: float
    allowance: float

    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    @property
    def bound(self) -> float:
        """B: the width of the certified bracket per unit squared norm."""
        return self.residual_trace + 2.0 * self.allowance

    def bracket(self, grid_sums, sq_norms):
        """[I, I + B ||u||^2] around exact integrals: I is the kernel rows' grid sum less allowance ||u||^2."""
        lower = grid_sums - self.allowance * sq_norms
        return lower, lower + self.bound * sq_norms


def time_kernel(lams, lo: float, hi: float) -> TimeKernel:
    """Pivoted Cholesky factor of the time kernel over the distinct values of ``lams``.

    With s_a = e^{-lo l_a} over the levels l_a, the kernel is
    F_ab = s_a s_b (hi - lo) exprel(-(hi - lo)(l_a + l_b)), positive
    semidefinite, and only its diagonal and the pivot columns are formed.
    Each step pivots on the largest multiplicity-weighted residual diagonal
    entry and the factor stops once the weighted residual trace is at most
    KERNEL_RTOL times the weighted trace of F (or every level is a pivot).
    """
    lams = np.asarray(lams, dtype=float)
    width = hi - lo
    levels, level_of, counts = np.unique(lams, return_inverse=True, return_counts=True)
    with np.errstate(over="ignore", under="ignore"):
        scale = np.exp(-lo * levels)
        diag = scale * scale * width * exprel(-2.0 * width * levels)
    total = float(counts @ diag)
    resid = diag.copy()
    factor = np.zeros((levels.size, 0))
    while factor.shape[1] < levels.size and float(counts @ resid) > KERNEL_RTOL * total:
        p = int(np.argmax(counts * resid))
        with np.errstate(over="ignore", under="ignore"):
            col = scale * (scale[p] * width) * exprel(-width * (levels + levels[p]))
        col -= factor @ factor[p]
        col /= np.sqrt(resid[p])
        resid -= col * col
        resid[p] = 0.0
        np.maximum(resid, 0.0, out=resid)
        factor = np.column_stack([factor, col])
    return TimeKernel(
        weights=np.ascontiguousarray(factor[level_of].T),
        residual_trace=float(counts @ resid),
        allowance=_ROUNDOFF_ULPS * np.finfo(float).eps * float(diag.max()),
    )


def _random_unit_states(dec: SpectralDecomposition, trials: int, rng) -> DrawnStates:
    """``trials`` random unit-norm real grid functions, each chunk drawn from ``rng`` when a pass reaches it."""
    shape, root_h = dec.domain.shape, np.sqrt(dec.domain.cell_volume)

    def draw(n):
        values = rng.standard_normal((n,) + shape)
        sizes = np.linalg.norm(values.reshape(n, -1), axis=1) * root_h
        values /= sizes.reshape((n,) + (1,) * len(shape))
        return values

    return DrawnStates(trials, draw)


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class Evaluation:
    """How ``inequality_margins`` settled each interval: by the spectrum alone, or by a pass.

    ``decided`` marks the intervals the spectral bound decided and
    ``spectral`` holds every interval's margin at that bound (NaN for a
    probe, which has none); ``kernels`` and ``rank_used`` are the pass's,
    one kernel per interval left to it, empty and 0 when none was.
    """

    decided: np.ndarray
    spectral: np.ndarray
    kernels: tuple
    rank_used: int

    @property
    def kernel_rank(self) -> int:
        return max((k.rank for k in self.kernels), default=0)

    @property
    def kernel_bound(self) -> float:
        return max((k.bound for k in self.kernels), default=0.0)


def _spectral_decision(corners) -> np.ndarray:
    """The intervals a check's spectral bound decides, from its margins at a zero and the largest integral."""
    return np.isfinite(corners).all(axis=1) & (corners[:, 0] >= 0.0)


def inequality_margins(dec, e: SetIndicator, states, lams, intervals, sides, end: str, label: str, where):
    """Margins rhs - lhs of an observation inequality, one row per interval and one column per state.

    ``sides(integrals, decayed)`` forms (lhs, rhs) from the observation
    integrals at ``end`` of their bracket ("lower" for a check, which passes
    on it, "upper" for a probe, which reports a violation on it) and the
    norms ||e^{-hi H} u||, one row per interval.  A check's states have unit
    norm, and its margin grows with the integral and falls as the decayed
    norm grows; so before any state is drawn, its spectral bound
    sides(0, e^{-hi lam_min}) bounds the margin of every unit state on the
    grid, and an interval where that margin is >= 0 is decided: it takes no
    kernel rows and factors no time kernel, and its row holds the bound.
    It is decided only where the sides are finite there and at the largest
    integral of a unit state, so every figure its pass could form is
    finite.  If every interval is decided, no state is drawn.  Each other
    interval factors its time kernel, and each chunk of ``restricted_norms``
    takes row q of every interval still open in round q; the rows a chunk
    did not take count 0.0.  A check stops taking an interval's kernel rows
    for a chunk of states once every state of the chunk has a margin >= 0
    there, since each row adds a term >= 0 to the lower end, the margin
    only grows with the rank and the verdict is the full rank's; a chunk
    with a margin below 0 takes every row.  The rows are added one at a
    time for the stop test and the reported ends alike, so they agree bit
    for bit.  A probe decides nothing and takes every row, since its upper
    end is not monotone in the rank.  A NaN or infinite margin is no
    verdict: it raises ArithmeticError naming ``label`` and the ``where``
    of its interval.  Returns the margins, lhs, rhs, the integrals (0.0 on
    a decided row) and the ``Evaluation``.  A set on another domain than
    ``dec`` raises DomainMismatchError before anything is decided.
    """
    require_domain(dec.domain, set=e)
    lo, hi = (np.array(ends, dtype=float)[:, None] for ends in zip(*intervals))
    decided, spectral = np.zeros(len(intervals), bool), np.full(len(intervals), np.nan)
    lam_min = float(np.min(lams))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        reach = np.exp(-hi * lam_min)  # the largest ||e^{-hi H} u|| of a unit state
        zero = np.zeros_like(reach)
        if end == "lower":  # top: the largest integral of a unit state, max_j F_jj
            top = np.exp(-2.0 * lo * lam_min) * (hi - lo) * exprel(-2.0 * (hi - lo) * lam_min)
            lhs, rhs = sides(np.hstack([zero, top]), reach)
            corners = rhs - lhs
            spectral, decided = corners[:, 0], _spectral_decision(corners)
    open_ = ~decided
    integrals, decayed = (np.repeat(fill, len(states), axis=1) for fill in (zero, reach))
    at, rank_used = ("lower", "upper").index(end), 0

    def row_sum(rows):
        # one row at a time: numpy sums a one-column view pairwise but a
        # wider array row by row, so a chunk of one state would sum its
        # rows otherwise than the same state in a wider chunk
        total = np.zeros(rows.shape[1])
        for row in rows:
            total += row
        return total

    with np.errstate(over="ignore", invalid="ignore"):
        kernels = tuple(time_kernel(lams, *iv) for iv, o in zip(intervals, open_) if o)
        starts = np.cumsum([0] + [k.rank for k in kernels])
        if kernels:
            with np.errstate(under="ignore"):
                decay = np.exp(-2.0 * np.outer(hi[open_, 0], lams))
            weights = np.concatenate([k.weights for k in kernels])
            for chunk, sums, sq_norms, set_norm in restricted_norms(dec, e, weights, decay, states):
                decayed[open_, chunk] = np.sqrt(sums)
                norms = np.zeros((len(weights), len(sq_norms)))
                for q in itertools.count():  # round q: row q of every interval still open
                    integrals[open_, chunk] = [k.bracket(row_sum(norms[a : a + k.rank]), sq_norms)[at]
                                               for k, a in zip(kernels, starts)]
                    take = np.array([q < k.rank for k in kernels])
                    if q and end == "lower":
                        lhs, rhs = sides(integrals[:, chunk], decayed[:, chunk])
                        take &= ~(rhs - lhs >= 0.0).all(axis=1)[open_]
                    if not take.any():
                        break
                    rank_used = max(rank_used, q + 1)
                    for a in starts[:-1][take]:
                        norms[a + q] = set_norm(a + q)
        lhs, rhs = sides(integrals, decayed)
        margins = rhs - lhs
    bad = ~np.isfinite(margins).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        kind = "NaN" if np.isnan(margins[i]).any() else "infinite"
        raise ArithmeticError(f"{label} is {kind} at {where[i]}: the {'check' if end == 'lower' else 'probe'} overflows")
    return margins, lhs, rhs, integrals, Evaluation(decided, spectral, kernels, rank_used)


def weak_margins(dec, e: SetIndicator, states, norms, C: float, T: float, alpha: float, end: str):
    """Margins C sqrt(max(I, 0)) + alpha ||f|| - ||e^{-TH} f|| of the weak inequality, ||f|| = ``norms``.

    Returns them with the norms ||e^{-TH} f||, the integrals max(I, 0) over [0, T] and the ``Evaluation``.
    """
    margins, lhs, _, integrals, evaluation = inequality_margins(
        dec, e, states, dec.eigenvalues, [(0.0, T)],
        lambda integrals, decayed: (decayed, C * np.sqrt(np.maximum(integrals, 0.0)) + alpha * norms),
        end, "observability margin", [f"C = {C}, T = {T}"],
    )
    return margins[0], lhs[0], np.maximum(integrals[0], 0.0), evaluation


@dataclass(frozen=True)
class RecurrenceReport:
    tau_samples: tuple
    trials: int
    seed: int
    max_violation: float
    max_violation_rel: float
    worst_tau: float
    passed: bool
    kernel_rank: int
    kernel_bound: float
    rank_used: int
    decided_by_spectrum: bool
    decided_taus: tuple
    spectral_violations: tuple


@dataclass(frozen=True)
class WeakObservabilityReport:
    trials: int
    seed: int
    min_margin: float
    min_margin_rel: float
    observation_integrals: tuple
    passed: bool
    kernel_rank: int
    kernel_bound: float
    rank_used: int
    decided_by_spectrum: bool
    spectral_margin: float


def recurrence_check(dec, e: SetIndicator, cert: Certificate, tau_samples, trials: int, seed: int = 0) -> RecurrenceReport:
    """Test the one-scale recurrence inequality on dyadic intervals.

    For the shifted generator (eigenvalues lam + delta0) and each sampled
    tau in (0, tau0), random unit states phi must satisfy

        g(tau) ||e^{-tau H~} phi||^2 - g(tau/2) ||phi||^2
            <= int_{tau/2}^{tau} ||e^{-t H~} phi||_{L2(E)}^2 dt + alpha0 tau,

    with g the certificate weight.  The integral is taken at the lower end
    of its certified bracket, so roundoff in it can only fail the check.
    A tau whose spectral bound g(tau) e^{-2 tau lam~_1} - g(tau/2) -
    alpha0 tau is <= 0 is decided without a pass (``decided_taus``), and
    its row of the figures is that bound; ``spectral_violations`` holds the
    bound of every tau.  The report carries the largest kernel rank and
    bound B over the taus that ran a pass, 0 if none did.
    The caller is responsible for having verified the two hypotheses
    (restricted inequality at k(tau), decay bound) beforehand; under those
    the inequality is exact on the grid and any violation beyond the
    roundoff budget is a real failure.
    """
    taus = [float(tau) for tau in tau_samples]
    for tau in taus:
        if not 0.0 < tau < cert.tau0:
            raise ValueError(f"tau = {tau} outside (0, tau0 = {cert.tau0})")
    rng = np.random.default_rng(seed)
    states = _random_unit_states(dec, trials, rng)
    lams = dec.eigenvalues + cert.constants.delta0
    with np.errstate(under="ignore"):
        alpha0 = np.exp(cert.ln_alpha0)
    g_tau = np.array([[np.exp(certificate_gain_log(cert, tau))] for tau in taus])
    g_half = np.array([[np.exp(certificate_gain_log(cert, tau / 2.0))] for tau in taus])
    slack = alpha0 * np.array(taus)[:, None]
    margins, lhs, rhs, _, evaluation = inequality_margins(
        dec, e, states, lams, [(tau / 2.0, tau) for tau in taus],
        lambda integrals, decayed: (g_tau * decayed**2 - g_half, integrals + slack),
        "lower", "recurrence violation", [f"tau = {tau}" for tau in taus],
    )
    violation = -margins
    max_violation_rel = float((violation / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))).max())
    return RecurrenceReport(
        tau_samples=tuple(taus),
        trials=int(trials),
        seed=int(seed),
        max_violation=float(violation.max()),
        max_violation_rel=max_violation_rel,
        worst_tau=taus[int(np.argmax(violation)) // violation.shape[1]],  # the first tau reaching the maximum
        passed=bool(max_violation_rel <= CHECK_BUDGET),
        kernel_rank=evaluation.kernel_rank,
        kernel_bound=evaluation.kernel_bound,
        rank_used=evaluation.rank_used,
        decided_by_spectrum=bool(evaluation.decided.all()),
        decided_taus=tuple(tau for tau, decided in zip(taus, evaluation.decided) if decided),
        spectral_violations=tuple(float(-m) for m in evaluation.spectral),
    )


def weak_observability_check(dec, e: SetIndicator, cert: Certificate, trials: int, seed: int = 0) -> WeakObservabilityReport:
    """Hold the certified (T, alpha, C) against random initial states.

    Reports the worst margin C * (observation integral)^{1/2} + alpha -
    ||e^{-TH} phi|| over unit phi; a pass means no margin dips below the
    roundoff budget.  The observation integral runs over the unshifted
    semigroup, matching the inequality the certificate promises, and is
    taken at the lower end of its certified bracket.  If the spectral
    margin alpha - e^{-T lam_1} (``spectral_margin``) is >= 0, the check is
    decided by the spectrum: it draws no states, reports that margin as its
    worst, no ``observation_integrals`` and kernel figures of 0.
    """
    rng = np.random.default_rng(seed)
    states = _random_unit_states(dec, trials, rng)
    with np.errstate(over="ignore"):
        big_c = np.exp(cert.ln_C)
    margins, lhs, integrals, evaluation = weak_margins(dec, e, states, 1.0, big_c, cert.T, cert.alpha, "lower")
    decided = bool(evaluation.decided[0])
    min_margin_rel = float((margins / np.maximum(1.0, lhs)).min())
    return WeakObservabilityReport(
        trials=int(trials),
        seed=int(seed),
        min_margin=float(margins.min()),
        min_margin_rel=min_margin_rel,
        observation_integrals=() if decided else tuple(float(v) for v in integrals),
        passed=bool(min_margin_rel >= -CHECK_BUDGET),
        kernel_rank=evaluation.kernel_rank,
        kernel_bound=evaluation.kernel_bound,
        rank_used=evaluation.rank_used,
        decided_by_spectrum=decided,
        spectral_margin=float(evaluation.spectral[0]),
    )


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True)
class CertificationResult:
    status: str
    detail: str
    curve: SpectralConstantCurve
    certificate: Optional[Certificate] = None
    hypothesis_report: Optional[object] = None
    recurrence_report: Optional[RecurrenceReport] = None
    observability_report: Optional[WeakObservabilityReport] = None


def growth_exponent(spec: OperatorSpec) -> float:
    """The exponent a of the growth law ln C(k, E) <= c1 k^a fitted for ``spec``."""
    if isinstance(spec, FractionalLaplacian):
        return 1.0 / spec.s
    # Harmonic-type spectra: ln C grows like (n/2) k ln k + O(k), which a
    # quadratic envelope dominates at every threshold k >= 1.
    return 2.0


def certify_end_to_end(
    spec: OperatorSpec,
    domain: GridDomain,
    e: SetIndicator,
    k_max: int,
    *,
    trials: int = 200,
    recurrence_trials: int = 100,
    seed: int = 0,
    cache_dir=None,
) -> CertificationResult:
    """Fit hypothesis constants on the grid, build the certificate, check it.

    Pipeline: measure the restricted-inequality constants at integer
    thresholds up to k_max and fit c1 (safety factor 1.1, kept when every
    ratio C(k) / e^{c1 k^a} is within ``_FIT_RATIO_SLACK`` and escalated
    otherwise to the exact envelope max ln C(k) / k^a, which meets every
    ratio by construction, so the verdict reads the two checks alone);
    take the decay bound with unit constants, which holds exactly in the
    grid's orthonormal eigenbasis, so it is neither measured nor reported;
    shift by delta0 = max(0, -lambda_1) so the shifted generator is
    nonnegative; then build the certificate and run both checks, the
    recurrence check on the random stream seed + 1 and the weak check on
    seed + 2.  T, alpha, C and a are reported by the certificate alone, and
    the last threshold by the curve.

    A +inf constant at any threshold means the restricted inequality cannot
    hold on this set at this resolution and no certificate exists; the
    result then carries status "hypothesis unverifiable".  A set on another
    domain is refused before the solve, an unresolved k_max before the
    thresholds are listed.
    """
    require_domain(domain, set=e)
    for name, count in (("k_max", k_max), ("trials", trials), ("recurrence_trials", recurrence_trials)):
        if count < 1:
            raise ValueError(f"{name} (--{name.replace('_', '-')}) must be at least 1, got {count}")
    dec = diagonalize(spec, domain, cache_dir=cache_dir)
    require_resolved(dec, float(k_max))
    thresholds = [float(k) for k in range(1, int(k_max) + 1)]
    a = growth_exponent(spec)
    curve = spectral_constant_curve(dec, e, thresholds, a)
    if not all(np.isfinite(curve.constants)):
        bad = [int(k) for k, c in zip(thresholds, curve.constants) if not np.isfinite(c)]
        return CertificationResult(
            status="hypothesis unverifiable",
            detail=(
                f"restricted-inequality constant is +inf at threshold(s) {bad}; "
                "the projection range degenerates on this set"
            ),
            curve=curve,
        )

    # too few thresholds to fit: c1 = 0, and the envelope below still applies
    c1 = 0.0 if curve.fit is None else 1.1 * curve.fit.c1
    hyp = verify_spectral_hypothesis(curve, c1, a) if c1 > 0 else None
    escalated = hyp is None or not hyp.worst_ratio <= _FIT_RATIO_SLACK
    if escalated:
        ks = np.asarray(curve.thresholds)
        c1 = float(np.max(np.log(curve.constants) / ks**a))
        if c1 <= 0:  # every constant is 1.0 (e.g. full domain); any tiny c1 works
            c1 = 1e-6
        hyp = verify_spectral_hypothesis(curve, c1, a)

    delta0 = float(max(0.0, -dec.eigenvalues[0]))
    consts = CriterionConstants(c1=c1, a=a, c2=1.0, b=1.0, M=1.0, delta0=delta0)
    cert = build_certificate(consts)

    tau_lo = 1.05 * cert.A / (int(k_max) + 1) ** consts.b
    tau_hi = 0.95 * cert.tau0
    recurrence = None
    if tau_lo < tau_hi:
        taus = np.geomspace(tau_lo, tau_hi, 8)
        recurrence = recurrence_check(dec, e, cert, taus, recurrence_trials, seed=seed + 1)
    observability = weak_observability_check(dec, e, cert, trials, seed=seed + 2)

    if (recurrence is None or recurrence.passed) and observability.passed:
        status = "certified"
        detail = "fitted c1 escalated to the exact envelope" if escalated else "fitted c1 verified"
        if recurrence is None:
            detail += "; no admissible tau window below tau0 at this k_max, recurrence skipped"
    else:
        status = "check failed"
        detail = (f"recurrence passed={recurrence.passed if recurrence else 'skipped'}, "
                  f"observability passed={observability.passed}")
    return CertificationResult(
        status=status,
        detail=detail,
        curve=curve,
        certificate=cert,
        hypothesis_report=hyp,
        recurrence_report=recurrence,
        observability_report=observability,
    )

