"""Certificate constant chain, observation integrals, end-to-end checks.

The two GOLDEN dicts are printed by scripts/certificate_reference_values.py,
which evaluates the chain independently with mpmath at 60 digits.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabcert import certify, operators, probes, specineq
from stabcert.certify import (
    Certificate,
    CriterionConstants,
    build_certificate,
    certificate_gain_log,
    certificate_threshold,
    certify_end_to_end,
    exprel,
    recurrence_check,
    time_kernel,
    weak_observability_check,
)
from stabcert.domain import DomainMismatchError, GridFunction, from_callable, jsonable, make_grid, norm
from stabcert.geometry import BallComplement, Empty, Full, HalfSpace, PeriodicSlabs, make_set
from stabcert.operators import (
    FractionalLaplacian,
    Schrodinger,
    ShiftedHermite,
    diagonalize,
    to_coefficients,
)
from stabcert.probes import ObservationClaim, falsify_hermite_ground_state, falsify_weak_observability
from stabcert.specineq import restricted_gram

from reference import full_rank_bracket, observation_integrals, restricted_norm_arrays

GOLDEN_UNIT = {
    "gamma": 4.0,
    "N": 2.0,
    "CMgamma": 1.375,
    "A": 57.239675552633525,
    "tau0": 42.929756664475144,
    "T": 28.619837776316763,
    "ln_DMN": -10.772588722239781,
    "ln_alpha0": -28.994530615826309,
    "ln_B": -29.312984956876708,
    "ln_beta": -18.509623966038308,
    "ln_alpha": -9.2548119830191542,
    "ln_C": 3.3626707178802903,
}

GOLDEN_SECOND = {
    "gamma": 1.6817928305074291,
    "N": 3.692307692307692,
    "CMgamma": 172.62698844228386,
    "A": 95.076059122783236,
    "tau0": 38.624649018630692,
    "T": 25.749766012420462,
    "ln_DMN": -7.0798504569869755,
    "ln_alpha0": -26.441733069867398,
    "ln_B": -31.592866395464498,
    "ln_beta": -4.8128095507663358,
    "ln_alpha": -2.4064047753831679,
    "ln_C": 8.8235344787010848,
}


def assert_matches_golden(cert: Certificate, golden: dict):
    rel = lambda got, want: abs(got - want) / max(1.0, abs(want))
    for name in ("gamma", "N", "CMgamma", "A", "tau0", "T"):
        assert rel(getattr(cert, name), golden[name]) < 1e-12, name
    for name in ("ln_DMN", "ln_alpha0", "ln_B", "ln_beta", "ln_C"):
        assert rel(getattr(cert, name), golden[name]) < 1e-12, name
    assert rel(np.log(cert.alpha), golden["ln_alpha"]) < 1e-12


# ---------------------------------------------------------------------------
# constant chain


def test_unit_constants_match_the_reference():
    cert = build_certificate(CriterionConstants(c1=1.0, a=1.0, c2=1.0, b=1.0))
    assert_matches_golden(cert, GOLDEN_UNIT)
    assert 0.0 < cert.beta < 1.0
    assert cert.alpha == np.exp(0.5 * cert.ln_beta)


def test_second_point_matches_the_reference():
    cert = build_certificate(
        CriterionConstants(c1=0.7, a=0.5, c2=1.3, b=2.0, M=2.0, delta0=0.3)
    )
    assert_matches_golden(cert, GOLDEN_SECOND)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(c1=0.0, a=1.0, c2=1.0, b=1.0),
        dict(c1=1.0, a=-1.0, c2=1.0, b=1.0),
        dict(c1=1.0, a=1.0, c2=0.0, b=1.0),
        dict(c1=1.0, a=1.0, c2=1.0, b=0.0),
        dict(c1=1.0, a=1.0, c2=1.0, b=1.0, M=0.5),
        dict(c1=1.0, a=1.0, c2=1.0, b=1.0, delta0=-0.1),
    ],
)
def test_constants_are_validated(kwargs):
    with pytest.raises(ValueError):
        CriterionConstants(**kwargs)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-3, 20.0),
    st.floats(0.1, 3.0),
    st.floats(1e-3, 5.0),
    st.floats(0.1, 3.0),
    st.floats(1.0, 100.0),
    st.floats(0.0, 5.0),
)
def test_chain_always_lands_in_the_admissible_region(c1, a, c2, b, M, delta0):
    # the slack constants are chosen so that beta < 1 structurally; a
    # violation would be an arithmetic bug, not an unlucky parameter set
    cert = build_certificate(CriterionConstants(c1=c1, a=a, c2=c2, b=b, M=M, delta0=delta0))
    assert cert.ln_beta < 0.0
    # the linear alpha may underflow to 0.0; the log form is authoritative
    assert 0.0 <= cert.alpha < 1.0
    assert cert.tau0 > 0.0 and cert.T > 0.0
    assert cert.N >= 2.0
    assert np.isfinite(cert.ln_C)


def test_threshold_validates_the_window():
    cert = build_certificate(CriterionConstants(c1=1.0, a=1.0, c2=1.0, b=1.0))
    with pytest.raises(ValueError):
        certificate_threshold(cert, 0.0)
    with pytest.raises(ValueError):
        certificate_threshold(cert, cert.tau0)


def test_threshold_is_nonincreasing_in_tau():
    cert = build_certificate(CriterionConstants(c1=1.0, a=1.0, c2=1.0, b=1.0))
    taus = np.linspace(0.05 * cert.tau0, 0.95 * cert.tau0, 20)
    ks = [certificate_threshold(cert, t) for t in taus]
    assert all(k1 >= k2 for k1, k2 in zip(ks, ks[1:]))
    assert ks[-1] >= 1
    # near tau0 = 3A/(2N) the threshold floors at (2N/3)^(1/b)
    assert certificate_threshold(cert, 0.99 * cert.tau0) == 1


def test_gain_log_matches_the_direct_formula():
    cert = build_certificate(CriterionConstants(c1=1.0, a=1.0, c2=1.0, b=1.0))
    tau = cert.A / (2.0 * cert.N)
    k = certificate_threshold(cert, tau)
    assert k == 4
    expected = np.log(tau / 4.0) - 2.0 * k
    assert certificate_gain_log(cert, tau) == pytest.approx(expected, rel=1e-14)


def test_certificate_json_is_finite_or_tagged():
    cert = build_certificate(CriterionConstants(c1=12.0, a=2.0, c2=0.5, b=0.5))
    doc = jsonable(dataclasses.asdict(cert))
    assert doc["ln_C"] == pytest.approx(cert.ln_C)
    for v in doc.values():
        if isinstance(v, float):
            assert np.isfinite(v)


# ---------------------------------------------------------------------------
# observation integrals


def closed_form_integrals(gram, lams, coeffs, lo, hi):
    """Exact integral of the Gram quadratic form under e^{-t lam} damping."""
    pair = lams[:, None] + lams[None, :]
    with np.errstate(invalid="ignore"):
        factor = np.where(
            pair == 0.0, hi - lo, (np.exp(-lo * pair) - np.exp(-hi * pair)) / pair
        )
    w = gram * factor
    return np.einsum("jt,jl,lt->t", coeffs.conj(), w, coeffs).real


def random_quadrature_problem(rng, n=12, trials=5):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram = A @ A.conj().T / n
    lams = np.sort(rng.uniform(-1.0, 5.0, n))
    coeffs = rng.standard_normal((n, trials)) + 1j * rng.standard_normal((n, trials))
    return gram, lams, coeffs


def repeated_levels_problem(rng, trials=5):
    """Eigenvalues on a few repeated levels, plus pairs one ulp apart that are distinct levels.

    The first columns are the unit vectors: each of those integrals is one
    diagonal term, so a time factor taken from the neighbouring level one
    ulp away changes its bits.
    """
    close = np.array([0.75, 2.5])
    lams = np.sort(np.concatenate([
        np.repeat([-0.5, 0.0, 1.0, 3.0], 3), close, np.nextafter(close, np.inf),
    ]))
    gram, _, coeffs = random_quadrature_problem(rng, n=lams.size, trials=trials)
    return gram, lams, np.hstack([np.eye(lams.size), coeffs])


QUADRATURE_PROBLEMS = {"random": random_quadrature_problem, "repeated-levels": repeated_levels_problem}


def test_observation_integrals_agree_with_the_closed_form(rng):
    for problem in sorted(QUADRATURE_PROBLEMS):
        gram, lams, coeffs = QUADRATURE_PROBLEMS[problem](rng)
        vals = observation_integrals(gram, lams, coeffs, 0.25, 2.0)
        exact = closed_form_integrals(gram, lams, coeffs, 0.25, 2.0)
        assert np.allclose(vals, exact, rtol=1e-12, atol=0.0), problem


@pytest.mark.parametrize("problem", sorted(QUADRATURE_PROBLEMS))
def test_observation_integrals_are_the_every_pair_arithmetic(problem, rng):
    # the time factor is evaluated once per pair of levels and gathered, so it
    # must equal, bit for bit, the factor evaluated on every pair: levels one
    # ulp apart stay apart
    gram, lams, coeffs = QUADRATURE_PROBLEMS[problem](rng)
    lo, hi = 0.25, 2.0
    factor = (hi - lo) * exprel(-(hi - lo) * np.add.outer(lams, lams))
    cols = coeffs * np.exp(-lo * lams)[:, None]
    every_pair = (cols.conj() * ((gram * factor) @ cols)).sum(axis=0).real
    assert np.array_equal(observation_integrals(gram, lams, coeffs, lo, hi), every_pair)


def test_exprel_agrees_with_scipy():
    # expm1(x) / x is within a few ulps of scipy's exprel on the time-kernel
    # range, keeps full accuracy for tiny |x|, and is exactly 1 at x = 0
    eps = np.finfo(float).eps
    wide = -np.linspace(0.0, 50.0, 200001)
    tiny = np.concatenate([np.logspace(-18, 0, 2001), -np.logspace(-18, 0, 2001), [5e-324, -5e-324]])
    for x in (wide, tiny):
        assert np.allclose(exprel(x), scipy.special.exprel(x), rtol=4 * eps, atol=0.0)
    assert np.array_equal(exprel(np.array([0.0, -0.0])), [1.0, 1.0]) and exprel(0.0) == 1.0
    assert exprel(-np.inf) == 0.0
    x = np.array([0.0, -1e-18, -3.0, -50.0])
    expected = scipy.special.exprel(x)
    out = exprel(x, out=x)
    assert out is x
    assert x[0] == 1.0 and np.allclose(x, expected, rtol=4 * eps, atol=0.0)


def test_exprel_in_blocks_gives_the_bits_of_one_pass():
    # blocks of _EXPREL_BLOCK entries give the bits of expm1(x) / x over the
    # whole array, with 0.0 and -0.0 set to 1, into a fresh array or into x
    rng = np.random.default_rng(7)
    x = -rng.exponential(5.0, size=(3, 2 * certify._EXPREL_BLOCK + 17))
    x[0, :5], x[1, 3], x[2, -1] = 0.0, -0.0, -1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.expm1(x) / x
    want[x == 0.0] = 1.0
    assert exprel(x).tobytes() == want.tobytes()
    y = x.copy()
    assert exprel(y, out=y) is y and y.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):
        exprel(x, out=np.empty(x.shape[::-1]).T)


def test_observation_integrals_agree_with_scipy_quad(rng):
    gram, lams, coeffs = random_quadrature_problem(rng, trials=1)
    vals = observation_integrals(gram, lams, coeffs, 0.0, 1.5)

    def integrand(t):
        damped = coeffs[:, 0] * np.exp(-t * lams)
        return float(np.real(damped.conj() @ gram @ damped))

    oracle, err = scipy.integrate.quad(integrand, 0.0, 1.5, limit=200)
    assert abs(vals[0] - oracle) <= max(1e-9 * abs(oracle), 10 * err)


def single_mode_problem(mu, n=1):
    """One trial column over n equal eigenvalues mu/2, so every pair sum is mu."""
    return np.eye(n), np.full(n, 0.5 * mu), np.ones((n, 1)) / np.sqrt(n)


def test_observation_integral_of_a_zero_pair_sum_is_the_interval_length():
    gram, lams, coeffs = single_mode_problem(0.0, n=4)
    assert observation_integrals(gram, lams, coeffs, 0.5, 2.0)[0] == 1.5


@pytest.mark.parametrize("mu", [1e-13, -1e-13, 3e-14])
def test_observation_integral_near_a_zero_pair_sum(mu):
    gram, lams, coeffs = single_mode_problem(mu)
    val = observation_integrals(gram, lams, coeffs, 0.0, 1.5)[0]
    assert val == pytest.approx(1.5, rel=1e-12)


def test_observation_integral_of_a_stiff_pair_sum_is_finite_and_silent():
    gram, lams, coeffs = single_mode_problem(1e5)
    with np.errstate(all="raise"):
        val = observation_integrals(gram, lams, coeffs, 0.0, 1.0)[0]
        shifted = observation_integrals(gram, lams, coeffs, 0.5, 1.5)[0]
    assert val == pytest.approx(1e-5, rel=1e-12)
    assert shifted == 0.0


def test_stiff_hermite_observation_integrals_match_quad():
    # Dirichlet Hermite eigenvalues grow like (p pi / 2R)^2, up to about 670
    # here, so the integrand falls like e^{-1340 t} near t = 0 and then decays
    # slowly through the low modes out to T = 35; a doubling Simpson rule
    # needs far more than 2^14 subintervals for 1e-10 here
    dom = make_grid(1, 8.0, 128, periodic=False)
    dec = diagonalize(ShiftedHermite(), dom)
    gram = restricted_gram(dec, np.arange(dom.cell_count), make_set(dom, HalfSpace(offset=0.0)))
    rng = np.random.default_rng(3)
    cols = []
    for _ in range(3):
        f = GridFunction(dom, rng.standard_normal(dom.shape))
        cols.append(to_coefficients(dec, f) / norm(f))
    coeffs = np.stack(cols, axis=1)
    vals = observation_integrals(gram, dec.eigenvalues, coeffs, 0.0, 35.0)
    for u, val in zip(coeffs.T, vals):

        def integrand(t):
            damped = u * np.exp(-t * dec.eigenvalues)
            return float(np.real(damped.conj() @ gram @ damped))

        oracle, _ = scipy.integrate.quad(
            integrand, 0.0, 35.0, points=(1e-3, 1e-2, 0.1, 1.0), epsabs=0.0,
            epsrel=1e-12, limit=500,
        )
        assert val == pytest.approx(oracle, rel=1e-10)


# ---------------------------------------------------------------------------
# the low-rank time kernel and its certified bracket


def random_restricted_gram(rng, n):
    """Q[E]^H Q[E] for a random unitary Q and a random half E of its rows: PSD with G_jj <= 1."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rows = q[rng.random(n) < 0.5]
    return rows.conj().T @ rows


@st.composite
def kernel_problems(draw):
    """A spectrum with repeated levels (some negative), maybe a pair one ulp apart, and an interval."""
    levels = draw(st.lists(st.floats(-2.0, 40.0), min_size=1, max_size=10, unique=True))
    counts = draw(st.lists(st.integers(1, 4), min_size=len(levels), max_size=len(levels)))
    lams = np.repeat(levels, counts)
    if draw(st.booleans()):
        lams = np.append(lams, np.nextafter(lams[0], np.inf))
    lo = draw(st.sampled_from([0.0]) | st.floats(0.0, 2.0))
    width = draw(st.floats(1e-3, 10.0))
    return np.sort(lams), lo, lo + width, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(kernel_problems())
@example((np.sort(np.r_[np.repeat([-1.5, 0.0, 0.75, 4.0], 3), np.nextafter(0.75, 1.0)]), 0.5, 3.0, 7))
def test_time_kernel_bracket_contains_the_closed_form(problem):
    # sum_q (l_q u)^H G (l_q u), less the allowance, is the lower end I; the
    # exact integral must lie in [I, I + B ||u||^2] for any PSD G with
    # G_jj <= 1
    lams, lo, hi, seed = problem
    rng = np.random.default_rng(seed)
    gram = random_restricted_gram(rng, lams.size)
    coeffs = rng.standard_normal((lams.size, 4)) + 1j * rng.standard_normal((lams.size, 4))
    kernel = time_kernel(lams, lo, hi)
    damped = kernel.weights[:, :, None] * coeffs[None]
    sq_norms = (np.abs(coeffs) ** 2).sum(axis=0)
    lower = np.einsum("qjp,jl,qlp->p", damped.conj(), gram, damped).real - kernel.allowance * sq_norms
    exact = observation_integrals(gram, lams, coeffs, lo, hi)
    assert np.all(lower <= exact)
    assert np.all(exact <= lower + kernel.bound * sq_norms)
    assert kernel.rank <= np.unique(lams).size


@pytest.mark.parametrize("rtol", [certify.KERNEL_RTOL, 1e-4])
def test_time_kernel_stops_at_the_relative_trace_tolerance(rtol, monkeypatch):
    # levels with multiplicities 1, 2, 3: the residual trace is weighted by
    # them, and equals sum_j F_jj - sum_q l_q(lam_j)^2 over every eigenvalue
    monkeypatch.setattr(certify, "KERNEL_RTOL", rtol)
    levels = np.linspace(0.0, 60.0, 200)
    lams = np.repeat(levels, np.arange(200) % 3 + 1)
    kernel = time_kernel(lams, 0.5, 10.0)
    diag = np.exp(-lams) * 9.5 * scipy.special.exprel(-19.0 * lams)
    assert kernel.residual_trace <= rtol * diag.sum()
    assert 1 <= kernel.rank <= 30
    assert kernel.weights.shape == (kernel.rank, lams.size)
    if rtol > 1e-8:  # far above the cancellation in F_jj - sum_q l_q^2
        residual = diag - (kernel.weights**2).sum(axis=0)
        assert kernel.residual_trace == pytest.approx(residual.sum(), rel=1e-8)
    # a function of the eigenvalue: equal across each level
    first = np.searchsorted(lams, levels)
    assert np.array_equal(kernel.weights[:, first + np.arange(200) % 3], kernel.weights[:, first])


def test_a_looser_kernel_is_a_prefix_of_the_full_factor(monkeypatch):
    # pivoted Cholesky takes its columns one after another and never revisits
    # one, so the factor a looser tolerance stops early is the first columns
    # of the full factor, bit for bit: the rank-q kernel a check stops at
    levels = np.linspace(0.0, 60.0, 200)
    lams = np.repeat(levels, np.arange(200) % 3 + 1)
    full = time_kernel(lams, 0.5, 10.0)
    ranks = []
    for rtol in (1e-10, 1e-4, 1e-1):
        monkeypatch.setattr(certify, "KERNEL_RTOL", rtol)
        cut = time_kernel(lams, 0.5, 10.0)
        assert np.array_equal(cut.weights, full.weights[: cut.rank])
        assert cut.allowance == full.allowance and cut.residual_trace >= full.residual_trace
        ranks.append(cut.rank)
    assert full.rank > ranks[0] > ranks[1] > ranks[2] >= 1


def bracket_cases():
    frac2 = make_grid(2, 10.0, 24, periodic=True)
    herm2 = make_grid(2, 6.0, 16, periodic=False)
    walls = make_grid(1, 8.0, 64, periodic=False)
    return [
        (FractionalLaplacian(s=1.0), make_grid(1, 10.0, 128, periodic=True), PeriodicSlabs(period=1.0, fill_fraction=0.25)),
        (FractionalLaplacian(s=1.0, c=0.5), frac2, BallComplement(center=(0.0, 0.0), radius=3.0)),
        (ShiftedHermite(c=3.0), walls, HalfSpace(offset=0.0)),
        (ShiftedHermite(), herm2, HalfSpace(offset=0.5)),
        # a mirror-symmetric potential: the parity layout
        (Schrodinger(potential=from_callable(walls, lambda x: x**2 - 2.0)), walls, HalfSpace(offset=0.0)),
    ]


def passing_through(dec, e, states, lams, intervals):
    """The evaluator at the upper end, sides passed through: the integrals, decayed norms and ``Evaluation``."""
    _, decayed, integrals, _, evaluation = certify.inequality_margins(
        dec, e, states, lams, intervals, lambda integrals, decayed: (decayed, integrals),
        "upper", "integral", intervals)
    return integrals, decayed, evaluation


@pytest.mark.parametrize("case", range(5))
def test_observation_bracket_contains_the_gram_closed_form(case, rng):
    # a probe takes every kernel row: its upper ends are the full rank's,
    # and less B ||u||^2 they are the lower ends
    spec, dom, shape = bracket_cases()[case]
    dec = diagonalize(spec, dom)
    e = make_set(dom, shape)
    states = rng.standard_normal((7,) + dom.shape)
    coeffs = np.stack([to_coefficients(dec, GridFunction(dom, f)) for f in states], axis=1)
    intervals = [(0.0, 2.0), (0.25, 0.5), (1.0, 6.0)]
    lams = dec.eigenvalues + 0.3
    upper, decayed, evaluation = passing_through(dec, e, states, lams, intervals)
    full = full_rank_bracket(dec, e, states, lams, intervals)
    assert np.array_equal(upper, full.upper) and np.array_equal(decayed, full.decayed)
    assert evaluation.rank_used == evaluation.kernel_rank == max(k.rank for k in full.kernels)
    gram = restricted_gram(dec, np.arange(dom.cell_count), e)
    sq_norms = (states.reshape(7, -1) ** 2).sum(axis=1) * dom.cell_volume
    rows = zip(intervals, upper, (k.bound for k in evaluation.kernels), decayed)
    for (lo, hi), upper, bound, decayed in rows:
        exact = observation_integrals(gram, lams, coeffs, lo, hi)
        assert np.all(upper - bound * sq_norms <= exact) and np.all(exact <= upper)
        assert bound < 1e-10 * max(1.0, np.abs(exact).max() / sq_norms.min())
        want = np.sqrt((np.abs(coeffs) ** 2 * np.exp(-2.0 * hi * lams)[:, None]).sum(axis=0))
        np.testing.assert_allclose(decayed, want, rtol=1e-13)


@pytest.mark.parametrize("case", range(5), ids=["fourier-1d", "fourier-2d", "assembled", "tensor", "parity"])
def test_bracket_transforms_each_state_once(case, rng, coefficient_transforms):
    # the forward transforms are to_coefficients calls and real FFTs of
    # chunks of real Fourier states, both counted by the fixture
    spec, dom, shape = bracket_cases()[case]
    dec = diagonalize(spec, dom)
    e = make_set(dom, shape)
    real = rng.standard_normal((70,) + dom.shape)
    for states in (real, real + 1j * rng.standard_normal(real.shape)):
        coefficient_transforms.clear()
        passing_through(dec, e, states, dec.eigenvalues + 0.3, [(0.0, 2.0), (0.25, 0.5), (1.0, 6.0)])
        assert sum(s[0] for s in coefficient_transforms) == len(states)


@pytest.mark.parametrize("dim, m, trials", [(2, 40, 200), (1, 256, 1000)])
def test_bracket_peak_stays_below_four_stacks(dim, m, trials):
    # a second transform of the stack, with its complex fftn output, scaled
    # and reordered copies, took the peak to 6.3 and 6.0 times the states'
    # bytes on these grids, and one chunked transform that still kept the
    # (trials, cells) squares to 2.3; reducing each chunk's squares at once
    # keeps it near 1.2, what a few chunk-sized arrays and the kernel hold
    dom = make_grid(dim, 10.0, m, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    shape = BallComplement(center=(0.0, 0.0), radius=3.0) if dim == 2 else PeriodicSlabs(period=1.0, fill_fraction=0.25)
    e = make_set(dom, shape)
    states = np.random.default_rng(5).standard_normal((trials,) + dom.shape)
    tracemalloc.start()
    try:
        passing_through(dec, e, states, dec.eigenvalues, [(0.0, 1.0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * states.nbytes


@pytest.mark.parametrize("case", range(5), ids=["fourier-1d", "fourier-2d", "assembled", "tensor", "parity"])
def test_partial_lower_ends_never_decrease_with_rank(case, rng, monkeypatch):
    # each kernel row adds h sum_E |l_q(H) u|^2 >= 0 to the lower end, and
    # adding a term >= 0 never lowers a float sum: the lower end at rank q,
    # the rows past q left at 0.0, is certified and grows with q
    spec, dom, shape = bracket_cases()[case]
    dec = diagonalize(spec, dom)
    e = make_set(dom, shape)
    states = rng.standard_normal((7,) + dom.shape)
    lams = dec.eigenvalues + 0.3
    kernel = time_kernel(lams, 0.25, 2.0)
    norms, _, sq_norms = restricted_norm_arrays(dec, e, kernel.weights, np.empty((0, dom.cell_count)), states)
    partial = np.stack([
        kernel.bracket(np.vstack([norms[:q], np.zeros_like(norms[q:])]).sum(axis=0), sq_norms)[0]
        for q in range(kernel.rank + 1)
    ])
    assert kernel.rank >= 2 and np.all(np.diff(partial, axis=0) >= 0.0)
    upper, _, full = passing_through(dec, e, states, lams, [(0.25, 2.0)])
    assert np.array_equal(upper[0], partial[-1] + kernel.bound * sq_norms) and full.rank_used == kernel.rank
    # a check whose sides hold at once stops every chunk after its first row
    pass_only(monkeypatch)
    holding = lambda integrals, decayed: (np.zeros_like(integrals), np.ones_like(integrals))
    _, _, _, lower, first = certify.inequality_margins(
        dec, e, states, lams, [(0.25, 2.0)], holding, "lower", "integral", [0])
    assert np.array_equal(lower[0], partial[1]) and first.rank_used == 1


@pytest.mark.parametrize("block, trials", [(4, 9), (1, 5)], ids=["one-state-last-chunk", "one-state-chunks"])
def test_the_stop_test_sums_the_rows_as_the_report_does(block, trials, monkeypatch):
    # numpy sums a one-column view of the kernel rows pairwise and a wider
    # (rank, P) array row by row; the evaluator sums them one row at a
    # time, so a chunk of one state that takes every row has, at its last
    # stop test and in the report, the lower ends of the whole array summed
    # row by row, bit for bit (rank 16 here: pairwise differs)
    dom = make_grid(1, 10.0, 128, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    e = make_set(dom, PeriodicSlabs(period=1.0, fill_fraction=0.25))
    monkeypatch.setattr(operators, "_SCAN_BLOCK_ENTRIES", block * dom.cell_count)
    states = np.random.default_rng(1).standard_normal((trials,) + dom.shape)
    intervals = [(0.0, 10.0), (0.0, 30.0)]
    seen = []

    def never(integrals, decayed):
        seen.append(integrals.copy())
        return np.ones_like(integrals), np.zeros_like(integrals)

    _, _, _, lower, evaluation = certify.inequality_margins(
        dec, e, states, dec.eigenvalues, intervals, never, "lower", "integral", intervals)
    full = full_rank_bracket(dec, e, states, dec.eigenvalues, intervals)
    assert min(k.rank for k in evaluation.kernels) >= 9 and seen[-2].shape == (2, 1)
    assert np.array_equal(seen[-2], full.lower[:, -1:]) and np.array_equal(lower, full.lower)


# ---------------------------------------------------------------------------
# checks on a small certified fixture


@pytest.fixture(scope="module")
def small_certified():
    dom = make_grid(1, 10.0, 128, periodic=True)
    e = make_set(dom, PeriodicSlabs(period=1.0, fill_fraction=0.25))
    spec = FractionalLaplacian(s=1.0, c=0.0)
    result = certify_end_to_end(spec, dom, e, k_max=5, trials=50, recurrence_trials=20)
    assert result.status == "certified", result.detail
    return diagonalize(spec, dom), e, result


def test_end_to_end_produces_a_full_report(small_certified):
    _, _, result = small_certified
    assert result.certificate is not None
    assert result.hypothesis_report.worst_ratio <= 1.0 + 1e-12
    assert result.recurrence_report.passed
    assert result.observability_report.passed
    assert result.observability_report.min_margin > 0.0


def test_the_verdict_reads_the_two_checks_only(monkeypatch):
    # a ratio past the slack escalates c1 to the exact envelope, and the
    # report of the chosen c1 does not enter the verdict
    dom = make_grid(1, 10.0, 128, periodic=True)
    e = make_set(dom, PeriodicSlabs(period=1.0, fill_fraction=0.25))
    def far(curve, c1, a):
        return specineq.HypothesisReport(c1=c1, worst_ratio=2.0, worst_k=1)

    monkeypatch.setattr(certify, "verify_spectral_hypothesis", far)
    result = certify_end_to_end(FractionalLaplacian(s=1.0), dom, e, k_max=5, trials=50, recurrence_trials=20)
    assert result.status == "certified"
    assert result.detail == "fitted c1 escalated to the exact envelope"
    assert result.hypothesis_report.worst_ratio == 2.0


def test_recurrence_check_rejects_bad_taus(small_certified):
    dec, e, result = small_certified
    cert = result.certificate
    with pytest.raises(ValueError):
        recurrence_check(dec, e, cert, [cert.tau0 * 1.5], trials=5)
    with pytest.raises(ValueError):
        recurrence_check(dec, e, cert, [-1.0], trials=5)


def test_recurrence_report_details(small_certified):
    dec, e, result = small_certified
    rep = result.recurrence_report
    assert rep.passed and rep.max_violation_rel <= 1e-7
    assert rep.worst_tau in rep.tau_samples


def test_observability_margins_are_reproducible(small_certified):
    dec, e, result = small_certified
    cert = result.certificate
    again = weak_observability_check(dec, e, cert, trials=30, seed=7)
    once_more = weak_observability_check(dec, e, cert, trials=30, seed=7)
    assert again.min_margin == once_more.min_margin
    assert again.observation_integrals == once_more.observation_integrals
    assert again.passed


@pytest.mark.parametrize("check", ["recurrence", "observability", "kernel-probe", "ground-state-probe"])
def test_infinite_margins_are_arithmetic_errors(small_certified, monkeypatch, check):
    # an observation integral that overflowed to +inf makes every margin
    # +inf and every recurrence violation -inf: a check that passes on them
    # tests nothing, and a probe that finds no violation in them finds
    # nothing; both ends overflow, so each caller meets the one rule of
    # `certify.inequality_margins` at the end it takes
    dec, e, result = small_certified
    cert = result.certificate
    chunks = certify.restricted_norms

    def overflowing(*args):
        for chunk, sums, sq_norms, _ in chunks(*args):
            yield chunk, sums, sq_norms, lambda q: np.full(len(sq_norms), np.inf)

    monkeypatch.setattr(certify, "restricted_norms", overflowing)
    claim = ObservationClaim(C=1.0, T=1.0, alpha=0.5)
    with pytest.raises(ArithmeticError, match="is infinite at"):
        if check == "recurrence":
            recurrence_check(dec, e, cert, [cert.tau0 / 2], trials=5)
        elif check == "observability":
            weak_observability_check(dec, e, cert, trials=5)
        elif check == "kernel-probe":  # the probe's kernel needs the finer grid to resolve its symbol
            fine = diagonalize(FractionalLaplacian(s=1.0), make_grid(1, 10.0, 512, periodic=True))
            falsify_weak_observability(fine, make_set(fine.domain, HalfSpace()), claim, [0.0])
        else:
            hermite = diagonalize(ShiftedHermite(), make_grid(1, 8.0, 64, periodic=False))
            falsify_hermite_ground_state(hermite, make_set(hermite.domain, HalfSpace()), claim)


def test_empty_set_is_unverifiable():
    dom = make_grid(1, 10.0, 64, periodic=True)
    result = certify_end_to_end(
        FractionalLaplacian(s=1.0), dom, make_set(dom, Empty()), k_max=3, trials=5,
        recurrence_trials=5,
    )
    assert result.status == "hypothesis unverifiable"
    assert result.certificate is None


def test_full_domain_certifies():
    dom = make_grid(1, 10.0, 64, periodic=True)
    result = certify_end_to_end(
        FractionalLaplacian(s=1.0), dom, make_set(dom, Full()), k_max=3, trials=10,
        recurrence_trials=5,
    )
    assert result.status == "certified"
    # C(k) = 1 throughout, so the growth constant collapses to the floor
    assert result.certificate.constants.c1 <= 1e-3


def test_end_to_end_builds_only_the_curve_gram(gram_builds, monkeypatch):
    dom = make_grid(1, 10.0, 64, periodic=True)
    e = make_set(dom, PeriodicSlabs(period=2.0, fill_fraction=0.5))

    def forbidden(*args, **kwargs):
        raise AssertionError("certify evaluates C(k, E) only through the curve")

    monkeypatch.setattr(specineq, "best_constant", forbidden)
    result = certify_end_to_end(
        FractionalLaplacian(s=1.0), dom, e, k_max=4, trials=10, recurrence_trials=5, seed=3
    )
    assert result.status == "certified"
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    d_max = int(np.searchsorted(dec.eigenvalues, 4.0, side="right"))
    assert gram_builds == [d_max]


def test_end_to_end_draws_each_random_stream_once(monkeypatch):
    # the recurrence check and the weak check each get their own seed, so
    # neither replays the other's states; the decay ratio draws none
    seeds = []
    original = np.random.default_rng

    def recording(seed=None):
        seeds.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    dom = make_grid(1, 10.0, 64, periodic=True)
    e = make_set(dom, PeriodicSlabs(period=2.0, fill_fraction=0.5))
    certify_end_to_end(
        FractionalLaplacian(s=1.0), dom, e, k_max=4, trials=10, recurrence_trials=5, seed=3
    )
    assert seeds == [3 + 1, 3 + 2]


def test_end_to_end_transforms_do_not_grow_with_the_trials(coefficient_transforms):
    dom = make_grid(1, 10.0, 64, periodic=True)
    e = make_set(dom, PeriodicSlabs(period=2.0, fill_fraction=0.5))
    counts = []
    for trials in (50, 200):
        coefficient_transforms.clear()
        certify_end_to_end(
            FractionalLaplacian(s=1.0), dom, e, k_max=4, trials=trials,
            recurrence_trials=trials, seed=3,
        )
        counts.append(len(coefficient_transforms))
    assert counts[0] == counts[1] > 0


def verdicts(small_certified):
    """Every verdict that rests on an observation bracket: two checks and two probes."""
    dec, e, result = small_certified
    cert = result.certificate
    hermite = diagonalize(ShiftedHermite(), make_grid(1, 10.0, 128, periodic=False))
    half = make_set(hermite.domain, HalfSpace(offset=0.0))
    frac = diagonalize(FractionalLaplacian(s=1.0), make_grid(1, 10.0, 512, periodic=True))
    ball = make_set(frac.domain, BallComplement(center=(0.0,), radius=5.0))
    return {
        "recurrence passed": recurrence_check(dec, e, cert, [cert.tau0 / 2, cert.tau0 / 4], trials=10).passed,
        "observability passed": weak_observability_check(dec, e, cert, trials=10).passed,
        "kernel probe violated": falsify_weak_observability(
            frac, ball, ObservationClaim(C=1.0, T=1.0, alpha=0.0), [(0.0,)]).any_violation,
        "ground-state probe violated": falsify_hermite_ground_state(
            hermite, half, ObservationClaim(C=0.5, T=1.0, alpha=0.0)).violated,
    }


@pytest.mark.parametrize(
    "setting,values",
    [("KERNEL_RTOL", (1e-8, 1e-3, 1.0)), ("_ROUNDOFF_ULPS", (1e6, 1e12, 1e17))],
)
def test_verdicts_flip_only_toward_the_safe_side_as_the_bound_grows(small_certified, monkeypatch, setting, values):
    # a looser stopping rule drops kernel columns, and a larger roundoff
    # allowance widens the bracket on both sides: either way the lower end
    # falls and B grows, so a check may only stop passing and a probe may
    # only stop reporting a violation
    exact = verdicts(small_certified)
    assert all(exact.values())
    for value in values:
        monkeypatch.setattr(certify, setting, value)
        loose = verdicts(small_certified)
        assert all(exact[name] or not loose[name] for name in exact), (value, loose)
    # with the widest bracket every verdict has flipped to its safe side
    assert not any(loose.values()), loose


def test_checks_hold_no_cells_squared_array():
    # frac 2D m = 48: the complex cells^2 Gram the checks used to hold is
    # 2304^2 * 16 bytes = 85 MB; the batched transforms need a few MB
    dom = make_grid(2, 10.0, 48, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    e = make_set(dom, BallComplement(center=(0.0, 0.0), radius=3.0))
    cert = build_certificate(CriterionConstants(c1=1.0, a=1.0, c2=1.0, b=1.0))
    tracemalloc.start()
    try:
        recurrence_check(dec, e, cert, np.geomspace(cert.tau0 / 8, cert.tau0 / 2, 4), trials=40, seed=1)
        weak_observability_check(dec, e, cert, trials=40, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dom.cell_count**2 * 16 / 4


def unit_draw(dom, trials, seed):
    """One draw of the whole (trials,) + grid stack, normalized: the states the checks drew before chunking."""
    values = np.random.default_rng(seed).standard_normal((trials,) + dom.shape)
    sizes = np.linalg.norm(values.reshape(trials, -1), axis=1) * np.sqrt(dom.cell_volume)
    return values / sizes.reshape((trials,) + (1,) * dom.dim)


@pytest.mark.parametrize("block", [1, 7, 28, 100])
def test_drawn_unit_states_are_the_one_draw_states(block):
    # Generator.standard_normal fills in stream order and the norm reduces
    # each row alone, so chunks drawn one after another, concatenated, are
    # the one draw bit for bit; a numpy that buffered its stream would fail
    dom = make_grid(2, 10.0, 48, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    drawn = certify._random_unit_states(dec, 100, np.random.default_rng(9))
    got = np.concatenate([drawn[p : p + block] for p in range(0, 100, block)])
    assert np.array_equal(got, unit_draw(dom, 100, 9))
    with pytest.raises(IndexError):
        drawn[0:block]  # each chunk is drawn once, in order


def test_a_check_on_drawn_states_is_the_check_on_the_one_draw():
    # 100 trials at 2304 cells are three chunks of 28 states and one of 16
    dom = make_grid(2, 10.0, 48, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    e = make_set(dom, BallComplement(center=(0.0, 0.0), radius=3.0))
    cert = build_certificate(CriterionConstants(c1=1.0, a=1.0, c2=1.0, b=1.0))
    # the check stops each chunk at the kernel rank that settles it, so it
    # is held to the stop rule on the one draw, not to the full rank
    report = weak_observability_check(dec, e, cert, trials=100, seed=4)
    margins, _, integrals, evaluation = certify.weak_margins(
        dec, e, unit_draw(dom, 100, 4), 1.0, cert.C, cert.T, cert.alpha, "lower")
    assert report.observation_integrals == tuple(float(v) for v in integrals)
    assert (report.min_margin, report.rank_used) == (float(margins.min()), evaluation.rank_used)


def test_the_recurrence_report_is_the_loop_over_its_taus(small_certified):
    # the check forms its two sides over (taus x states) at once, and each
    # tau stops taking kernel rows on its own test; the loop over the taus
    # that it replaced, each tau with the stop rule alone, gives the same
    # figures, bit for bit
    dec, e, result = small_certified
    cert = result.certificate
    taus = [float(t) for t in np.geomspace(cert.tau0 / 8, cert.tau0 / 2, 4)]
    report = recurrence_check(dec, e, cert, taus, trials=30, seed=3)
    lams = dec.eigenvalues + cert.constants.delta0
    worst, worst_tau, worst_rel = -np.inf, None, -np.inf
    for tau in taus:
        g_tau, g_half = np.exp(certificate_gain_log(cert, tau)), np.exp(certificate_gain_log(cert, tau / 2.0))
        _, lhs, rhs, _, _ = certify.inequality_margins(
            dec, e, unit_draw(dec.domain, 30, 3), lams, [(tau / 2.0, tau)],
            lambda integrals, decayed: (g_tau * decayed**2 - g_half, integrals + np.exp(cert.ln_alpha0) * tau),
            "lower", "recurrence violation", [tau])
        lhs, rhs = lhs[0], rhs[0]
        violation = lhs - rhs
        if violation.max() > worst:
            worst, worst_tau = float(violation.max()), tau
        worst_rel = max(worst_rel, float((violation / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))).max()))
    assert (report.max_violation, report.worst_tau, report.max_violation_rel) == (worst, worst_tau, worst_rel)


# ---------------------------------------------------------------------------
# the stop rule: a failing check reports the full rank's figures


def stop_rule_case():
    """Frac 2D m = 48 and a ball complement: 100 trials are three chunks of 28 states and one of 16."""
    dom = make_grid(2, 10.0, 48, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    return dec, make_set(dom, BallComplement(center=(0.0, 0.0), radius=3.0)), np.arange(0, 100, 28)


def settling_ranks(dec, e, states, lams, lo, hi, margin_of):
    """Per chunk of ``stop_rule_case``, the first kernel rank where every state's margin is >= 0, or None."""
    kernel = time_kernel(lams, lo, hi)
    norms, sums, sq_norms = restricted_norm_arrays(dec, e, kernel.weights, np.exp(-2.0 * hi * lams)[None], states)
    ranks = []
    for chunk in np.split(np.arange(len(states)), np.arange(28, len(states), 28)):
        passing = [(margin_of(kernel.bracket(norms[:q, chunk].sum(axis=0), sq_norms[chunk])[0],
                              np.sqrt(sums[0, chunk])) >= 0.0).all() for q in range(1, kernel.rank + 1)]
        ranks.append(passing.index(True) + 1 if any(passing) else None)
    return ranks


def test_a_failing_weak_check_reports_the_full_rank_figures():
    # C sits between the largest C_p = (||e^{-TH} phi_p|| - alpha) / sqrt(I_p)
    # and the largest of every other chunk: one chunk fails and takes every
    # kernel row, the others stop at rank 1, and the report is the full
    # rank's, bit for bit
    dec, e, starts = stop_rule_case()
    base = build_certificate(CriterionConstants(c1=1.0, a=1.0, c2=1.0, b=1.0))
    states = unit_draw(dec.domain, 100, 4)
    full = full_rank_bracket(dec, e, states, dec.eigenvalues, [(0.0, base.T)])
    needed = (full.decayed[0] - base.alpha) / np.sqrt(full.lower[0])
    worst = int(np.argmax(needed))
    chunk = slice(starts[worst // 28], starts[worst // 28] + 28)
    big_c = 0.5 * (needed[worst] + np.delete(needed, np.r_[chunk]).max())
    cert = dataclasses.replace(base, C=float(big_c), ln_C=float(np.log(big_c)))

    report = weak_observability_check(dec, e, cert, trials=100, seed=4)
    margins = np.exp(cert.ln_C) * np.sqrt(np.maximum(full.lower[0], 0.0)) + cert.alpha - full.decayed[0]
    ranks = settling_ranks(
        dec, e, states, dec.eigenvalues, 0.0, cert.T,
        lambda lower, decayed: np.exp(cert.ln_C) * np.sqrt(np.maximum(lower, 0.0)) + cert.alpha - decayed)
    assert ranks[worst // 28] is None and sum(r is not None and r < report.kernel_rank for r in ranks) >= 2
    assert (report.min_margin, report.min_margin_rel, report.passed) == (
        float(margins.min()), float((margins / np.maximum(1.0, full.decayed[0])).min()), False)
    assert report.rank_used == report.kernel_rank == full.kernels[0].rank


def test_a_failing_recurrence_check_reports_the_full_rank_figures():
    # a thin set and a small tau make g(tau) ||e^{-tau H} phi||^2 - g(tau/2)
    # exceed the integral; alpha0 tau is then set between the largest excess
    # and the largest of every other chunk, so one chunk fails on the first
    # tau and takes every row there, and the other chunks and taus stop at
    # rank 1
    dec, _, starts = stop_rule_case()
    e = make_set(dec.domain, PeriodicSlabs(period=1.0, fill_fraction=0.1))
    base = build_certificate(CriterionConstants(c1=1e-3, a=1.0, c2=1.0, b=1.0))
    taus = [0.05, 1.0]
    states = unit_draw(dec.domain, 100, 3)
    full = full_rank_bracket(dec, e, states, dec.eigenvalues, [(t / 2.0, t) for t in taus])
    g = np.array([[np.exp(certificate_gain_log(base, t)), np.exp(certificate_gain_log(base, t / 2.0))] for t in taus])
    excess = g[:, :1] * full.decayed**2 - g[:, 1:] - full.lower
    worst = int(np.argmax(excess[0]))
    chunk = slice(starts[worst // 28], starts[worst // 28] + 28)
    slack = 0.5 * (excess[0, worst] + np.delete(excess[0], np.r_[chunk]).max())
    cert = dataclasses.replace(base, ln_alpha0=float(np.log(slack / taus[0])))

    report = recurrence_check(dec, e, cert, taus, trials=100, seed=3)
    lhs = g[:, :1] * full.decayed**2 - g[:, 1:]
    rhs = full.lower + np.exp(cert.ln_alpha0) * np.array(taus)[:, None]
    violation = lhs - rhs
    ranks = settling_ranks(
        dec, e, states, dec.eigenvalues, taus[0] / 2.0, taus[0],
        lambda lower, decayed: lower + np.exp(cert.ln_alpha0) * taus[0] - (g[0, 0] * decayed**2 - g[0, 1]))
    assert ranks[worst // 28] is None and sum(r is not None and r < full.kernels[0].rank for r in ranks) >= 2
    assert violation[1].max() < 0.0
    rel = violation / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    assert (report.max_violation, report.max_violation_rel, report.worst_tau, report.passed) == (
        float(violation.max()), float(rel.max()), taus[0], False)
    assert report.rank_used == full.kernels[0].rank


@pytest.mark.parametrize("holds", [False, True])
def test_probes_take_the_full_rank_upper_end(holds):
    # a probe's upper end is not monotone in the rank, so the probes take
    # every kernel row, also where the claim holds with room at rank 1:
    # `observation` is the full factor's upper end
    hermite = diagonalize(ShiftedHermite(), make_grid(1, 10.0, 128, periodic=False))
    frac = diagonalize(FractionalLaplacian(s=1.0), make_grid(1, 10.0, 512, periodic=True))
    if holds:  # on the whole box, sqrt(int_0^T ||e^{-tH} phi||^2 dt) >= sqrt(T) ||e^{-TH} phi||
        half, ball = make_set(hermite.domain, Full()), make_set(frac.domain, Full())
        claim = ObservationClaim(C=2.0, T=1.0, alpha=0.5)
    else:
        half = make_set(hermite.domain, HalfSpace(offset=0.0))
        ball = make_set(frac.domain, BallComplement(center=(0.0,), radius=5.0))
        claim = ObservationClaim(C=0.5, T=1.0, alpha=0.0)

    def full_upper(dec, e, states):
        kernel = time_kernel(dec.eigenvalues, 0.0, claim.T)
        norms, _, sq_norms = restricted_norm_arrays(dec, e, kernel.weights, np.empty((0, dec.domain.cell_count)), states)
        assert kernel.rank >= 2
        return kernel.bracket(norms.sum(axis=0), sq_norms)[1]

    ground = falsify_hermite_ground_state(hermite, half, claim)
    phi0 = np.pi**-0.25 * np.exp(-0.5 * hermite.domain.axis_coords() ** 2)
    phi0 /= norm(GridFunction(hermite.domain, phi0))
    assert ground.observation == float(full_upper(hermite, half, phi0[None])[0])
    centers = [(0.0,), (2.5,)]
    kernel = falsify_weak_observability(frac, ball, claim, centers)
    l0 = kernel.centers[0].l0
    states = probes.kernel_probe_solution(probes.build_kernel(1.0, frac.domain), 1.0, centers, l0)
    assert [c.observation for c in kernel.centers] == [float(v) for v in full_upper(frac, ball, states)]
    assert ground.violated == kernel.any_violation == (not holds)


@pytest.mark.parametrize("check", ["recurrence", "observability"])
def test_check_memory_does_not_grow_with_the_trials(check):
    # frac 2D m = 48: a check draws and transforms its unit states a chunk
    # at a time, so 2000 trials peak where 100 do but for the per-trial
    # figures; one draw of the whole stack peaked 9 and 10 times as high
    dom = make_grid(2, 10.0, 48, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    e = make_set(dom, BallComplement(center=(0.0, 0.0), radius=3.0))
    cert = build_certificate(CriterionConstants(c1=1.0, a=1.0, c2=1.0, b=1.0))
    taus = np.geomspace(1.05 * cert.A / 4, 0.95 * cert.tau0, 8)  # the taus of certify_end_to_end at k_max = 3
    peaks = []
    for trials in (100, 2000):
        tracemalloc.start()
        try:
            if check == "recurrence":
                recurrence_check(dec, e, cert, taus, trials=trials, seed=1)
            else:
                weak_observability_check(dec, e, cert, trials=trials, seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_end_to_end_is_deterministic():
    dom = make_grid(1, 10.0, 64, periodic=True)
    e = make_set(dom, PeriodicSlabs(period=2.0, fill_fraction=0.5))
    kwargs = dict(k_max=3, trials=10, recurrence_trials=5, seed=11)
    r1 = certify_end_to_end(FractionalLaplacian(s=1.0), dom, e, **kwargs)
    r2 = certify_end_to_end(FractionalLaplacian(s=1.0), dom, e, **kwargs)
    assert r1.status == r2.status == "certified"
    assert r1.observability_report.min_margin == r2.observability_report.min_margin
    assert r1.recurrence_report.max_violation == r2.recurrence_report.max_violation


# ---------------------------------------------------------------------------
# checks that the spectrum decides


def pass_only(monkeypatch):
    """Turn the spectral decision off: every interval of every check runs its pass."""
    monkeypatch.setattr(certify, "_spectral_decision", lambda corners: np.zeros(len(corners), bool))


def hermite_certify_cases():
    """The Hermite cases of ``bracket_cases`` and the 1D set of the benchmark's Hermite ``certify``."""
    cases = [(spec, dom, shape, 4) for spec, dom, shape in bracket_cases() if isinstance(spec, ShiftedHermite)]
    return cases + [(ShiftedHermite(), make_grid(1, 8.0, 128, periodic=False), HalfSpace(offset=0.0), 8)]


def certify_outcome(spec, dom, shape, k_max):
    """((status, recurrence passed, weak passed), (decided taus, weak check decided)), or (the overflow's message, None)."""
    try:
        result = certify_end_to_end(spec, dom, make_set(dom, shape), k_max, trials=20, recurrence_trials=10, seed=5)
    except ArithmeticError as exc:
        return str(exc), None
    rec, obs = result.recurrence_report, result.observability_report
    return (result.status, rec.passed, obs.passed), (rec.decided_taus, obs.decided_by_spectrum)


@pytest.mark.parametrize("case", range(3), ids=["hermite-c3-walls", "hermite-2d", "hermite-stiff-1d"])
def test_a_decided_check_has_the_verdict_of_its_pass(case, monkeypatch):
    # the bound implies the pass, so deciding by the spectrum never moves
    # a verdict; c = 3 has lam_1 = -2, so the weak check's e^{-T lam_1}
    # overflows, nothing is decided and both runs raise the same error
    spec, dom, shape, k_max = hermite_certify_cases()[case]
    decided_verdict, decided = certify_outcome(spec, dom, shape, k_max)
    pass_only(monkeypatch)
    pass_verdict, forced = certify_outcome(spec, dom, shape, k_max)
    assert decided_verdict == pass_verdict
    if spec.c == 0.0:
        assert len(decided[0]) == 8 and decided[1] and forced == ((), False)
    else:
        assert decided is None and "C = inf" in decided_verdict


def hermite_walls():
    dom = make_grid(1, 8.0, 64, periodic=False)
    return diagonalize(ShiftedHermite(), dom), make_set(dom, HalfSpace(offset=0.0))


def test_a_weak_check_the_spectrum_does_not_decide_draws_and_runs_its_pass(monkeypatch):
    # T below -ln(alpha) / lam_1 leaves e^{-T lam_1} > alpha: the semigroup
    # alone does not give the inequality, so the states are drawn
    dec, e = hermite_walls()
    base = build_certificate(CriterionConstants(c1=1e-3, a=2.0, c2=1.0, b=1.0))
    cert = dataclasses.replace(base, T=-0.5 * np.log(base.alpha) / dec.eigenvalues[0])
    decided = weak_observability_check(dec, e, base, trials=10, seed=2)
    assert decided.decided_by_spectrum and decided.observation_integrals == () and decided.kernel_rank == 0
    draws = []
    original = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = original(seed)

        def standard_normal(self, size):
            draws.append(size)
            return self.rng.standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    report = weak_observability_check(dec, e, cert, trials=10, seed=2)
    assert np.exp(-cert.T * dec.eigenvalues[0]) > cert.alpha
    assert not report.decided_by_spectrum and report.spectral_margin < 0.0
    assert draws == [(10,) + dec.domain.shape] and len(report.observation_integrals) == 10
    assert report.kernel_rank >= 1 and report.rank_used >= 1


@pytest.mark.parametrize("decided", [True, False], ids=["decided", "undecided"])
@pytest.mark.parametrize("check", ["recurrence", "observability"])
def test_a_check_refuses_a_set_from_another_grid(check, decided):
    # a half-space built on R = 5 does not live on the R = 8 grid; a check
    # the spectrum decides reads no state, and must refuse it all the same
    dec, e = hermite_walls()
    other = make_set(make_grid(1, 5.0, 64, periodic=False), HalfSpace(offset=0.0))
    base = build_certificate(CriterionConstants(c1=1e-3, a=2.0, c2=1.0, b=1.0))
    if check == "recurrence":
        taus = [base.tau0 / 2] if decided else [base.tau0 / 32]
        def run(dec, e):
            return recurrence_check(dec, e, base, taus, trials=10, seed=1)
    else:
        cert = base if decided else dataclasses.replace(base, T=-0.5 * np.log(base.alpha) / dec.eigenvalues[0])
        def run(dec, e):
            return weak_observability_check(dec, e, cert, trials=10, seed=2)
    assert run(dec, e).decided_by_spectrum == decided
    with pytest.raises(DomainMismatchError, match="set lives on a different domain"):
        run(dec, other)


def recurrence_margins(dec, e, cert, taus, states):
    g = np.array([[np.exp(certificate_gain_log(cert, t)), np.exp(certificate_gain_log(cert, t / 2.0))] for t in taus])
    return certify.inequality_margins(
        dec, e, states, dec.eigenvalues, [(t / 2.0, t) for t in taus],
        lambda integrals, decayed: (g[:, :1] * decayed**2 - g[:, 1:], integrals + np.exp(cert.ln_alpha0) * np.array(taus)[:, None]),
        "lower", "recurrence violation", taus)


def test_the_undecided_taus_are_the_pass_bit_for_bit(monkeypatch):
    # c1 = 1e-3 on 1D Hermite: the spectrum decides 4 of these 6 taus; the
    # other 2 take the same rows of the same transforms as a run where
    # every tau takes its pass, and the decided rows hold the bound, which
    # is below every state's pass margin but for the bracket's allowance
    dec, e = hermite_walls()
    cert = build_certificate(CriterionConstants(c1=1e-3, a=2.0, c2=1.0, b=1.0))
    taus = [float(t) for t in np.geomspace(cert.tau0 / 64, cert.tau0 / 2, 6)]
    states = unit_draw(dec.domain, 30, 3)
    margins, _, _, _, evaluation = recurrence_margins(dec, e, cert, taus, states)
    decided = evaluation.decided
    assert decided.sum() == 4 and len(evaluation.kernels) == 2
    pass_only(monkeypatch)
    every, _, _, _, passes = recurrence_margins(dec, e, cert, taus, states)
    assert not passes.decided.any() and np.array_equal(passes.spectral, evaluation.spectral)
    assert np.array_equal(margins[~decided], every[~decided])
    assert np.all(margins[decided] == evaluation.spectral[decided, None])
    assert np.all(every[decided] >= evaluation.spectral[decided, None] - 1e-14)


def test_a_decided_certification_draws_no_state_and_factors_no_kernel(monkeypatch):
    # the benchmark's Hermite certify: both checks are decided, so their
    # two streams are seeded (seed + 1, seed + 2) but nothing is drawn
    seeds, draws, kernels = [], [], []
    original_rng, original_kernel = np.random.default_rng, certify.time_kernel

    class Recording:
        def __init__(self, seed):
            seeds.append(seed)
            self.rng = original_rng(seed)

        def standard_normal(self, size):
            draws.append(size)
            return self.rng.standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    monkeypatch.setattr(certify, "time_kernel", lambda *args: kernels.append(args) or original_kernel(*args))
    spec, dom, shape, k_max = hermite_certify_cases()[-1]
    result = certify_end_to_end(spec, dom, make_set(dom, shape), k_max, trials=200, seed=5)
    rec, obs = result.recurrence_report, result.observability_report
    assert result.status == "certified" and rec.decided_by_spectrum and obs.decided_by_spectrum
    assert seeds == [6, 7] and draws == [] and kernels == []
    assert (rec.kernel_rank, rec.kernel_bound, rec.rank_used) == (obs.kernel_rank, obs.kernel_bound, obs.rank_used) == (0, 0.0, 0)
    cert = result.certificate
    assert obs.min_margin == obs.spectral_margin == cert.alpha - np.exp(-cert.T * diagonalize(spec, dom).eigenvalues[0])
    assert rec.max_violation == max(rec.spectral_violations) <= 0.0
