"""Restricted spectral constants, growth fits, hypothesis verification."""

import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from stabcert import operators
from stabcert.domain import GridDomain, make_grid, norm, restrict_norm
from stabcert.geometry import BallComplement, Empty, Full, HalfSpace, PeriodicSlabs, SetIndicator, make_set
from stabcert.operators import FractionalLaplacian, ShiftedHermite, basis_block, diagonalize
from stabcert.specineq import (
    ExpPowerFit,
    SpectralConstantCurve,
    best_constant,
    curve_to_csv,
    curve_to_json,
    fit_growth,
    restricted_gram,
    spectral_constant_curve,
    verify_spectral_hypothesis,
)

from reference import best_constant_witness


@pytest.fixture(scope="module")
def slabs(frac_dec):
    return make_set(frac_dec.domain, PeriodicSlabs(period=1.0, fill_fraction=0.25))


# ---------------------------------------------------------------------------
# best_constant


def test_full_domain_constant_is_exactly_one(frac_dec):
    e = make_set(frac_dec.domain, Full())
    for k in (0.0, 1.0, 3.0, 7.0):
        assert best_constant(frac_dec, k, e) == 1.0


def test_empty_projection_range_is_vacuous(hermite_dec, slabs, frac_dec):
    # no oscillator eigenvalue sits below 0.5, so the inequality holds trivially
    e = make_set(hermite_dec.domain, HalfSpace(offset=0.0))
    assert best_constant(hermite_dec, 0.5, e) == 1.0
    const, witness = best_constant_witness(frac_dec, -1.0, slabs)
    assert const == 1.0 and witness is None


def test_empty_set_gives_infinite_constant(hermite_dec):
    e = make_set(hermite_dec.domain, Empty())
    assert best_constant(hermite_dec, 2.0, e) == np.inf


def test_witness_attains_the_constant(hermite_dec):
    e = make_set(hermite_dec.domain, HalfSpace(offset=1.0))
    const, witness = best_constant_witness(hermite_dec, 6.0, e)
    assert np.isfinite(const) and const > 1.0
    ratio = norm(witness) / restrict_norm(witness, e)
    assert ratio == pytest.approx(const, rel=1e-8)


def test_only_a_witness_asks_for_eigenvectors(hermite_dec, monkeypatch):
    # the curve and best_constant read the smallest eigenvalue of each
    # block; only the witness of tests/reference.py needs its eigenvector
    e = make_set(hermite_dec.domain, HalfSpace(offset=1.0))
    ks = [2.0, 4.0, 6.0]
    eigh, solved = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a.shape) or eigh(a))
    curve = spectral_constant_curve(hermite_dec, e, ks)
    assert best_constant(hermite_dec, 6.0, e) == curve.constants[-1]
    assert solved == []
    const, _ = best_constant_witness(hermite_dec, 6.0, e)
    assert solved == [(3, 3)]
    assert const == pytest.approx(curve.constants[-1], rel=1e-12)


def test_constant_nondecreasing_in_threshold(frac_dec, slabs):
    curve = spectral_constant_curve(frac_dec, slabs, [1.0, 2.0, 4.0, 6.0, 8.0])
    assert all(a <= b * (1 + 1e-12) for a, b in zip(curve.constants, curve.constants[1:]))


def test_constant_antimonotone_in_the_set(hermite_dec):
    # shrinking E can only make observation harder
    consts = [
        best_constant(hermite_dec, 4.0, make_set(hermite_dec.domain, HalfSpace(offset=o)))
        for o in (-2.0, 0.0, 2.0)
    ]
    assert consts[0] <= consts[1] <= consts[2]


def test_unresolved_threshold_is_refused():
    dom = make_grid(1, 10.0, 16, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    with pytest.raises(ValueError):
        best_constant(dec, 1e9, make_set(dom, Full()))


# ---------------------------------------------------------------------------
# restricted Gram matrices


def test_halfspace_gram_of_oscillator_ground_modes(hermite_dec):
    e = make_set(hermite_dec.domain, HalfSpace(offset=0.0))
    g = restricted_gram(hermite_dec, np.arange(2), e)
    # a symmetric set splits the diagonal in half; the cross term is the
    # classical first-moment integral of the Gaussian
    assert np.allclose(np.diag(g), 0.5, atol=1e-4)
    assert abs(abs(g[0, 1]) - 1.0 / np.sqrt(2.0 * np.pi)) < 1e-4


def test_halfspace_gram_cross_term_against_quadrature(hermite_dec):
    e = make_set(hermite_dec.domain, HalfSpace(offset=0.0))
    g = restricted_gram(hermite_dec, np.arange(2), e)
    phi0 = lambda x: np.pi**-0.25 * np.exp(-0.5 * x**2)
    phi1 = lambda x: np.sqrt(2.0) * x * phi0(x)
    oracle, _ = scipy.integrate.quad(lambda x: phi0(x) * phi1(x), 0.0, 10.0)
    assert abs(abs(g[0, 1]) - oracle) < 1e-4


def test_gram_is_hermitian_psd(frac_dec, slabs, frac_2d_ball_complement):
    for dec, e in [(frac_dec, slabs), frac_2d_ball_complement]:
        g = restricted_gram(dec, np.arange(6), e)
        assert np.array_equal(g, g.conj().T)
        assert np.linalg.eigvalsh(g).min() > -1e-12


def product_gram(dec, indices, e):
    """The E-restricted Gram as the product of sampled eigenfunctions, symmetrized."""
    rows = basis_block(dec, indices)[e.cells.ravel()]
    g = rows.conj().T @ rows * dec.domain.cell_volume
    return 0.5 * (g + g.conj().T)


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16), (2, 15)])
@pytest.mark.parametrize("subset", ["all", "every-third"])
def test_fourier_gram_gather_matches_the_basis_product(dim, m, subset):
    # the gather reads the DFT of the set at frequency differences; an odd m
    # has no Nyquist frequency and a subset breaks the contiguity of indices
    dom = GridDomain(dim=dim, half_width=10.0, points_per_axis=m, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    e = SetIndicator(dom, np.random.default_rng(m).random(dom.shape) < 0.4)
    idx = np.arange(dom.cell_count)
    if subset == "every-third":
        idx = idx[1::3]
    g = restricted_gram(dec, idx, e)
    assert np.array_equal(g, g.conj().T)
    assert np.abs(g - product_gram(dec, idx, e)).max() <= 1e-13


def test_dense_gram_is_the_column_block_product(shifted_potential_dec):
    # columns first, then the rows of E: the two unstable modes of V = x^2 - 4
    # must not copy the |E| x cells rows of the whole basis on the way; V is
    # mirror-symmetric, so the columns come from the parity blocks
    dec = shifted_potential_dec
    assert isinstance(dec.basis, operators._ParityBasis)
    e = make_set(dec.domain, HalfSpace(offset=0.0))
    tracemalloc.start()
    try:
        g = restricted_gram(dec, np.arange(2), e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(g, product_gram(dec, np.arange(2), e))
    # an eighth of the 8-byte |E| x cells copy that selecting rows first makes
    assert peak < int(e.cells.sum()) * dec.domain.cell_count
    dom = make_grid(2, 6.0, 16, periodic=False)
    dec = diagonalize(ShiftedHermite(), dom)
    e = make_set(dom, BallComplement(center=(1.0, 0.0), radius=2.5))
    full = np.arange(dom.cell_count)
    assert np.array_equal(restricted_gram(dec, full, e), product_gram(dec, full, e))


def test_gram_rejects_foreign_set(frac_dec):
    other = make_set(make_grid(1, 10.0, 64, periodic=True), Full())
    with pytest.raises(ValueError):
        restricted_gram(frac_dec, np.arange(2), other)


# ---------------------------------------------------------------------------
# curve and fits


def test_curve_requires_ascending_thresholds(frac_dec, slabs):
    with pytest.raises(ValueError):
        spectral_constant_curve(frac_dec, slabs, [2.0, 1.0])


@pytest.fixture(scope="module")
def frac_2d_ball_complement():
    dom = make_grid(2, 10.0, 40, periodic=True)
    e = make_set(dom, BallComplement(center=(0.0, 0.0), radius=3.0))
    return diagonalize(FractionalLaplacian(s=1.0), dom), e


def test_curve_matches_per_threshold_constants(frac_2d_ball_complement, hermite_dec):
    # the curve reads each constant from a leading block of one Gram matrix,
    # best_constant builds a Gram matrix of its own; they differ by roundoff
    halfspace = make_set(hermite_dec.domain, HalfSpace(offset=0.0))
    cases = [
        (*frac_2d_ball_complement, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        (hermite_dec, halfspace, [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 11.0]),
    ]
    for dec, e, thresholds in cases:
        curve = spectral_constant_curve(dec, e, thresholds)
        single = [best_constant(dec, k, e) for k in thresholds]
        assert np.all(np.isfinite(curve.constants))
        np.testing.assert_allclose(curve.constants, single, rtol=1e-9, atol=0.0)


def test_curve_builds_one_gram(frac_2d_ball_complement, gram_builds):
    dec, e = frac_2d_ball_complement
    curve = spectral_constant_curve(dec, e, [1.0, 2.0, 3.0])
    d_max = int(np.searchsorted(dec.eigenvalues, 3.0, side="right"))
    assert gram_builds == [d_max]
    assert all(a <= b for a, b in zip(curve.constants, curve.constants[1:]))


def test_curve_solves_once_per_range_dimension(frac_dec, slabs, monkeypatch):
    # the levels pi |k| / 10 of |xi| are double but for k = 0, so thresholds
    # between two levels share a range; each range dimension takes one
    # eigensolve, and each constant keeps the bits of its own block's solve
    thresholds = [0.1, 0.2, 0.4, 0.5, 0.7, 0.9]
    dims = [int(np.searchsorted(frac_dec.eigenvalues, k, side="right")) for k in thresholds]
    assert dims == [1, 1, 3, 3, 5, 5]
    G = restricted_gram(frac_dec, np.arange(dims[-1]), slabs)
    expected = [1.0 / np.sqrt(np.linalg.eigvalsh(G[:d, :d])[0]) for d in dims]
    solved, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
    curve = spectral_constant_curve(frac_dec, slabs, thresholds)
    assert sorted(solved) == [1, 3, 5]
    assert list(curve.constants) == expected


def test_exp_power_fit_recovers_synthetic_constants():
    ks = tuple(float(k) for k in range(1, 9))
    curve = SpectralConstantCurve(ks, tuple(np.exp(0.5 * np.sqrt(k)) for k in ks))
    fit = fit_growth(curve, 0.5)
    assert isinstance(fit, ExpPowerFit)
    assert fit.c1 == pytest.approx(0.5, rel=1e-12)
    assert fit.residual < 1e-12


def test_fit_needs_enough_finite_points():
    curve = SpectralConstantCurve((1.0, 2.0, 3.0, 4.0), (2.0, 3.0, np.inf, np.inf))
    with pytest.raises(ValueError):
        fit_growth(curve, 1.0)


def test_fit_validates_model_arguments():
    ks = tuple(float(k) for k in range(1, 6))
    curve = SpectralConstantCurve(ks, tuple(np.exp(k) for k in ks))
    with pytest.raises(ValueError):
        fit_growth(curve, -1.0)
    with pytest.raises(ValueError):
        fit_growth(curve, 0.0)


def test_curve_carries_a_fit_only_from_four_finite_constants(frac_dec, slabs):
    # the one fit rule of the spectral-constant and certify commands: with a
    # growth exponent, at least 4 constants, every one finite
    ks = [float(k) for k in range(1, 6)]
    fitted = spectral_constant_curve(frac_dec, slabs, ks, 1.0)
    assert fitted.fit == fit_growth(spectral_constant_curve(frac_dec, slabs, ks), 1.0)
    assert spectral_constant_curve(frac_dec, slabs, ks).fit is None
    assert spectral_constant_curve(frac_dec, slabs, ks[:3], 1.0).fit is None
    empty = make_set(frac_dec.domain, Empty())
    curve = spectral_constant_curve(frac_dec, empty, ks, 1.0)
    assert not np.isfinite(curve.constants).all() and curve.fit is None


# ---------------------------------------------------------------------------
# hypothesis verification


def test_verify_hypothesis_accepts_the_envelope(frac_dec, slabs):
    curve = spectral_constant_curve(frac_dec, slabs, [float(k) for k in range(1, 7)])
    envelope = max(np.log(c) / k for k, c in zip(curve.thresholds, curve.constants))
    report = verify_spectral_hypothesis(curve, envelope, 1.0)
    assert report.worst_ratio <= 1.0 + 1e-12


def test_verify_hypothesis_rejects_a_tiny_constant(frac_dec, slabs):
    curve = spectral_constant_curve(frac_dec, slabs, [float(k) for k in range(1, 5)])
    report = verify_spectral_hypothesis(curve, 1e-6, 1.0)
    assert report.worst_ratio > 1.0 + 1e-12
    assert 1 <= report.worst_k <= 4


def test_verify_hypothesis_validates_arguments(frac_dec, slabs):
    curve = spectral_constant_curve(frac_dec, slabs, [float(k) for k in range(1, 5)])
    with pytest.raises(ValueError):
        verify_spectral_hypothesis(curve, -1.0, 1.0)
    with pytest.raises(ValueError):
        verify_spectral_hypothesis(SpectralConstantCurve((), ()), 1.0, 1.0)


# ---------------------------------------------------------------------------
# export


def test_curve_json_handles_infinities():
    curve = SpectralConstantCurve((1.0, 2.0), (2.0, np.inf))
    doc = curve_to_json(curve)
    assert doc["constants"] == [2.0, "inf"]


def test_curve_json_includes_fit():
    ks = tuple(float(k) for k in range(1, 6))
    curve = SpectralConstantCurve(ks, tuple(np.exp(k) for k in ks))
    fit = fit_growth(curve, 1.0)
    doc = curve_to_json(SpectralConstantCurve(curve.thresholds, curve.constants, fit))
    assert doc["fit"]["model"] == "ExpPower"
    assert doc["fit"]["c1"] == pytest.approx(1.0)


def test_curve_csv_shape():
    curve = SpectralConstantCurve((1.0, 2.0), (2.0, 4.0))
    lines = curve_to_csv(curve).strip().splitlines()
    assert lines[0] == "k,C,lnC"
    assert len(lines) == 3
    k, c, ln_c = (float(v) for v in lines[1].split(","))
    assert (k, c) == (1.0, 2.0) and ln_c == pytest.approx(np.log(2.0))
