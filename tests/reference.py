"""References the tests hold the package to, which no command, script or benchmark runs.

Each computes plainly what the package computes another way or not at all:
the L2 inner product, the semigroup norm, the spectral projection, sampled
Hermite functions, the synthesis of grid values from coefficients, a state
attaining the restricted constant C(k, E), every set norm of
``operators.restricted_norms`` as arrays, the full-rank observation
bracket, the exact observation integral through the Gram, the feedback
operator K, a kernel probe's evolution by self-similar rescaling and the
constant C2 of its norm law, and the high-frequency decay ratio sampled
over random states, whose sup ``operators.dissipative_margin`` computes
from the spectrum.  Nothing reads a spec document back, so no inverse of
``operators.spec_to_json`` is kept: its test pins the digests it hashes to.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from stabcert.certify import exprel, time_kernel
from stabcert.domain import GridDomain, GridFunction, norm, require_domain
from stabcert.feedback import DampingFeedback, FeedbackOperator
from stabcert.operators import (
    DrawnStates,
    SpectralDecomposition,
    _native,
    _weighted_passes,
    basis_block,
    restricted_gram,
    restricted_norms,
    spectral_apply,
    spectral_count,
)
from stabcert.probes import kernel_probe_solution
from stabcert.specineq import best_constant


def inner_product(f: GridFunction, g: GridFunction):
    """Discrete L2 inner product, linear in ``f`` and conjugate-linear in ``g``."""
    require_domain(f.domain, g=g)
    val = np.vdot(g.values.ravel(), f.values.ravel()) * f.domain.cell_volume
    if np.isrealobj(f.values) and np.isrealobj(g.values):
        return float(val.real)
    return complex(val)


def semigroup_norm(dec: SpectralDecomposition, t: float) -> float:
    """Operator norm of e^{-tH}: the largest modal damping factor."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return float(np.exp(-t * dec.eigenvalues[0]))


def project(dec: SpectralDecomposition, k: float, f: GridFunction) -> GridFunction:
    """Component of ``f`` in span of the eigenfunctions with eigenvalue <= k.

    When no eigenvalue qualifies this is the zero function, which also
    covers the degenerate low-threshold branches of both operator families.
    """
    return spectral_apply(dec, np.arange(dec.domain.cell_count) < spectral_count(dec, k), f)


@dataclass(frozen=True)
class HermiteBasis:
    """Tensor Hermite functions Phi_alpha for all |alpha| <= max_degree."""

    dim: int
    max_degree: int
    domain: GridDomain
    functions: dict = field(repr=False)


def _hermite_axis_values(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions phi_0..phi_K on a coordinate axis.

    Uses the stable normalized three-term recurrence
    phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1};
    the raw polynomial route overflows long before degree 200.
    """
    vals = np.empty((max_degree + 1, x.size))
    vals[0] = np.pi**-0.25 * np.exp(-0.5 * x**2)
    if max_degree >= 1:
        vals[1] = np.sqrt(2.0) * x * vals[0]
    for k in range(1, max_degree):
        vals[k + 1] = np.sqrt(2.0 / (k + 1)) * x * vals[k] - np.sqrt(k / (k + 1.0)) * vals[k - 1]
    return vals


def hermite_basis(dim: int, max_degree: int, domain: GridDomain) -> HermiteBasis:
    """Tensor-product Hermite functions for all multi-indices |alpha| <= max_degree."""
    if domain.periodic:
        raise ValueError("Hermite functions are sampled on non-periodic grids")
    if dim != domain.dim:
        raise ValueError(f"dim {dim} does not match domain dim {domain.dim}")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if max_degree > 200:
        raise ValueError("max_degree > 200 refused (recurrence accuracy not validated there)")
    axis_vals = _hermite_axis_values(max_degree, domain.axis_coords())
    functions = {}
    if dim == 1:
        for k in range(max_degree + 1):
            functions[(k,)] = GridFunction(domain, axis_vals[k])
    else:
        for a in range(max_degree + 1):
            for b in range(max_degree + 1 - a):
                functions[(a, b)] = GridFunction(domain, np.outer(axis_vals[a], axis_vals[b]))
    return HermiteBasis(dim=dim, max_degree=max_degree, domain=domain, functions=functions)


def grid_values(dec: SpectralDecomposition, coeffs: np.ndarray) -> np.ndarray:
    """Grid values (cells,) or (cells, P) of the ascending coefficients (cells,) or (cells, P)."""
    return dec.basis.synthesize(_native(dec.order, coeffs))


def from_coefficients(dec: SpectralDecomposition, coeffs: np.ndarray) -> GridFunction:
    return GridFunction(dec.domain, grid_values(dec, coeffs).reshape(dec.domain.shape))


def best_constant_witness(dec: SpectralDecomposition, k: float, e):
    """C(k, E) and a grid function attaining it, or None for an empty projection range.

    The witness is the eigenvector of the smallest eigenvalue of the
    range's restricted Gram, synthesized on the grid.
    """
    const, d = best_constant(dec, k, e), spectral_count(dec, k)
    if d == 0:
        return const, None
    _, vectors = np.linalg.eigh(restricted_gram(dec, np.arange(d), e))
    coeffs = np.zeros(dec.domain.cell_count, dtype=vectors.dtype)
    coeffs[:d] = vectors[:, 0]
    return const, from_coefficients(dec, coeffs)


def restricted_norm_arrays(dec: SpectralDecomposition, e, weights, decay, states):
    """Set norms, decay sums and squared norms of every state, as (r, P), (s, P) and (P,) arrays.

    Every row of every chunk of ``operators.restricted_norms``.
    """
    weights = np.atleast_2d(weights)
    norms, sums = np.empty((len(weights), len(states))), np.empty((len(decay), len(states)))
    sq_norms = np.empty(len(states))
    for chunk, chunk_sums, chunk_sq_norms, set_norm in restricted_norms(dec, e, weights, decay, states):
        sums[:, chunk], sq_norms[chunk] = chunk_sums, chunk_sq_norms
        for q in range(len(weights)):
            norms[q, chunk] = set_norm(q)
    return norms, sums, sq_norms


@dataclass(frozen=True)
class Bracket:
    lower: np.ndarray
    upper: np.ndarray
    decayed: np.ndarray
    kernels: tuple


def full_rank_bracket(dec: SpectralDecomposition, e, states, lams, intervals) -> Bracket:
    """[lower, upper] of every state's observation integral over each (lo, hi), from every kernel row.

    One row per interval; ``decayed`` holds the norms ||e^{-hi lam} u||.
    The kernel rows are summed one row at a time, in the evaluator's order.
    """
    kernels = tuple(time_kernel(lams, lo, hi) for lo, hi in intervals)
    with np.errstate(under="ignore"):
        decay = np.exp(-2.0 * np.outer([hi for _, hi in intervals], lams))
    norms, sums, sq_norms = restricted_norm_arrays(
        dec, e, np.concatenate([k.weights for k in kernels]), decay, states)
    starts = np.cumsum([0] + [k.rank for k in kernels])
    lower, upper = zip(*(
        k.bracket(functools.reduce(np.add, norms[a : a + k.rank], np.zeros(len(states))), sq_norms)
        for k, a in zip(kernels, starts)
    ))
    return Bracket(np.stack(lower), np.stack(upper), np.sqrt(sums), kernels)


def observation_integrals(gram, lams, coeffs, lo, hi) -> np.ndarray:
    """Exact integrals over [lo, hi] of t -> ||chi_E e^{-t lam} u||^2 through the Gram matrix, one per column u.

    The closed-form reference for the observation bracket; no check or probe
    calls it, since it needs the cells x cells E-restricted Gram ``gram``.
    With mu_jl = lam_j + lam_l the integral is

        sum_jl conj(u_j) G_jl u_l e^{-lo mu_jl} (1 - e^{-(hi - lo) mu_jl}) / mu_jl,

    whose last factor is hi - lo where mu_jl = 0.  The factor e^{-lo mu_jl}
    splits as e^{-lo lam_j} e^{-lo lam_l} and is folded into the columns, and
    the rest is (hi - lo) exprel(-(hi - lo) mu_jl), exprel(x) = (e^x - 1)/x,
    which is exactly 1 at x = 0 and has no cancellation near it.  That rest
    depends only on the pair of values, so it is evaluated once per pair of
    distinct values of ``lams`` (levels, compared exactly) and then gathered
    onto every pair: the result is bit for bit that of evaluating every
    pair.  No quadrature and no truncation is involved.
    """
    width = hi - lo
    levels, level_of = np.unique(lams, return_inverse=True)
    factor = np.add.outer(levels, levels)
    with np.errstate(over="ignore", under="ignore"):
        cols = coeffs * np.exp(-lo * lams)[:, None]
        factor *= -width
        exprel(factor, out=factor)
        factor *= width
    weighted = gram * factor[np.ix_(level_of, level_of)]
    return (cols.conj() * (weighted @ cols)).sum(axis=0).real


def apply_feedback(dec: SpectralDecomposition, fb: Optional[FeedbackOperator], y: GridFunction) -> GridFunction:
    """The feedback operator K itself; the control term in the equation is chi_E (K y)."""
    if fb is None:
        return GridFunction(y.domain, np.zeros_like(y.values))
    if isinstance(fb, DampingFeedback):
        return GridFunction(y.domain, -(fb.e.cells * y.values))
    block = basis_block(dec, np.arange(fb.unstable_count))
    coeffs = block.conj().T @ y.values.ravel() * y.domain.cell_volume
    vals = (block @ (fb.rho * (fb.gram_inverse @ coeffs))).reshape(y.domain.shape)
    if not np.iscomplexobj(y.values) and np.iscomplexobj(vals):
        vals = vals.real
    return GridFunction(y.domain, vals)


def self_similar_solution(kernel: GridFunction, s: float, c: float, x0, l: float, t: float) -> GridFunction:
    """The kernel probe's evolution u(t, x; l) = e^{ct} (t + l)^{-n/s} g((x - x0) / (t + l)^{1/s}).

    By self-similarity it is e^{ct} times the datum of scale t + l, so
    this rescales the same kernel ``g`` that ``probes.kernel_probe_solution``
    does, with the periodic minimal image and the zero outside the box.
    """
    return GridFunction(kernel.domain, np.exp(c * t) * kernel_probe_solution(kernel, s, [x0], t + l)[0])


def c2_norm(kernel: GridFunction, s: float, x0, l: float) -> float:
    """C2 in ||u(t)|| = C2 (t+l)^{-n/(2s)} e^{ct}, measured at t = 0."""
    n = kernel.domain.dim
    return float(norm(self_similar_solution(kernel, s, 0.0, x0, l, 0.0)) * l ** (n / (2.0 * s)))


@dataclass(frozen=True)
class DissipativeReport:
    k: float
    t_samples: tuple
    trials: int
    seed: int
    max_ratio: float
    worst_t: float


def dissipative_margin(dec, k, t_samples, trials, seed: int = 0) -> DissipativeReport:
    """Sampled check of the high-frequency decay bound.

    For random unit-norm f reports the maximum of
    ||(1 - pi_k) e^{-tH} f|| * e^{tk} over the given times; the contract for
    the fractional and harmonic families (with unit rate constants) is that
    this never exceeds 1, because every mode above the threshold k decays at
    least as fast as e^{-tk}.

    Each chunk of trials is drawn when ``_weighted_passes`` reaches it and
    transformed with no weight rows: ||(1 - pi_k) e^{-tH} f||^2 is the
    decay sum of the row 1[j >= d(k)] e^{-2t lambda_j}, over ||f||^2, the
    decay sum of a row of ones.  The worst ratio is the first maximum in
    trial-major order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    times = np.asarray(t_samples, dtype=float)
    cells = dec.domain.cell_count
    high = np.arange(cells) >= spectral_count(dec, k)
    with np.errstate(under="ignore"):
        decay = np.vstack([np.exp(-2.0 * np.outer(times, dec.eigenvalues)) * high, np.ones(cells)])
    draws = DrawnStates(trials, lambda n: rng.standard_normal((n,) + dec.domain.shape))
    sums = np.empty((len(decay), trials))
    for chunk, decayed, _ in _weighted_passes(dec, np.empty((0, cells)), decay, draws):
        sums[:, chunk] = decayed
    ratios = (np.sqrt(sums[:-1]) / np.sqrt(sums[-1])).T * np.exp(times * k)
    worst = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return DissipativeReport(
        k=float(k),
        t_samples=tuple(float(t) for t in times),
        trials=int(trials),
        seed=int(seed),
        max_ratio=float(ratios[worst]),
        worst_t=float(times[worst[1]]),
    )
