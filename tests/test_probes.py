"""Kernel probes and falsification of observability claims.

The s = 2 kernel has the continuum Gaussian in closed form; the s = 1
kernel on a periodic grid equals the wrapped Poisson kernel exactly (the
geometric-series identity below), so both transforms have independent
oracles.  The program builds a probe's datum at t = 0 only; its evolution
by self-similar rescaling (the reference) is checked two ways: against the
exact norm law and against the discretized semigroup applied to the
probe's own initial datum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from stabcert import certify, probes
from stabcert.certify import time_kernel
from stabcert.domain import GridFunction, make_grid, norm
from stabcert.geometry import BallComplement, Full, HalfSpace, SetIndicator, make_set
from stabcert.operators import (
    FractionalLaplacian,
    diagonalize,
    restricted_gram,
    semigroup_apply,
    spectral_apply,
    to_coefficients,
)
from stabcert.probes import (
    ObservationClaim,
    build_kernel,
    choose_l0,
    falsification_to_csv,
    falsify_hermite_ground_state,
    falsify_weak_observability,
    kernel_probe_solution,
    observation_tail,
)

from reference import c2_norm, observation_integrals, self_similar_solution


@pytest.fixture(scope="module")
def pdom():
    return make_grid(1, 10.0, 512, periodic=True)


def probe_state(s, dom, x0, l):
    """The probe's datum u(0, .; l) at one center, as a grid function."""
    return GridFunction(dom, kernel_probe_solution(build_kernel(s, dom), s, [x0], l)[0])


# ---------------------------------------------------------------------------
# the kernel transform


def test_gaussian_kernel_matches_closed_form(pdom):
    # e^{-xi^2} inverts to (4 pi)^{-1/2} e^{-x^2/4}; wrap images at |x| ~ 2R
    # are below 1e-40 here
    g = build_kernel(2.0, pdom)
    x = pdom.axis_coords()
    exact = np.exp(-(x**2) / 4.0) / np.sqrt(4.0 * np.pi)
    assert np.abs(g.values - exact).max() < 1e-11


def test_poisson_kernel_matches_lattice_sum(pdom):
    # the periodized e^{-|xi|} kernel is a geometric series in
    # z = e^{-pi/R} e^{i pi x / R}: g = (1 + 2 Re z/(1-z)) / (2R)
    g = build_kernel(1.0, pdom)
    x = pdom.axis_coords()
    z = np.exp(-np.pi / 10.0) * np.exp(1j * np.pi * x / 10.0)
    exact = (1.0 + 2.0 * np.real(z / (1.0 - z))) / 20.0
    assert np.abs(g.values - exact).max() < 1e-12


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_kernel_has_unit_mass(pdom, s):
    g = build_kernel(s, pdom)
    assert abs(g.values.sum() * pdom.cell_volume - 1.0) < 1e-14


def test_kernel_2d_matches_closed_form():
    d2 = make_grid(2, 10.0, 128, periodic=True)
    g = build_kernel(2.0, d2)
    exact = np.exp(-d2.radius_grid() ** 2 / 4.0) / (4.0 * np.pi)
    assert np.abs(g.values - exact).max() < 1e-11
    assert abs(g.values.sum() * d2.cell_volume - 1.0) < 1e-14


def test_kernel_rejects_wall_grid():
    walls = make_grid(1, 10.0, 512, periodic=False)
    with pytest.raises(ValueError, match="periodic"):
        build_kernel(2.0, walls)


def test_kernel_rejects_nonpositive_s(pdom):
    with pytest.raises(ValueError, match="s must be positive"):
        build_kernel(0.0, pdom)


def test_kernel_undecayed_symbol_raises():
    # s = 0.3 on a coarse grid: e^{-|xi|^s} is still ~0.07 at the band edge,
    # the truncation shows up as a large imaginary residue
    coarse = make_grid(1, 10.0, 64, periodic=True)
    with pytest.raises(ValueError, match="imaginary residue"):
        build_kernel(0.3, coarse)


# ---------------------------------------------------------------------------
# probe evaluation


def test_probe_at_time_zero_scale_one_is_the_kernel(pdom):
    g = build_kernel(2.0, pdom)
    assert np.array_equal(kernel_probe_solution(g, 2.0, [(0.0,)], 1.0)[0], g.values)


def test_probe_translation_is_a_roll(pdom):
    # x0 = 2.5 is exactly 64 cells, so the interpolation nodes coincide
    base, moved = kernel_probe_solution(build_kernel(2.0, pdom), 2.0, [(0.0,), (2.5,)], 1.0)
    assert np.array_equal(moved, np.roll(base, 64))


def test_probe_norm_law():
    big = make_grid(1, 10.0, 16384, periodic=True)
    g = build_kernel(2.0, big)
    for t in (0.3, 0.7, 1.3):
        u = self_similar_solution(g, 2.0, 0.0, (0.0,), 1.0, t)
        law = c2_norm(g, 2.0, (0.0,), 1.0) * (t + 1.0) ** (-1.0 / 4.0)
        assert abs(norm(u) - law) / law < 1e-6


def test_probe_norm_law_with_growth():
    big = make_grid(1, 10.0, 16384, periodic=True)
    g = build_kernel(2.0, big)
    u = self_similar_solution(g, 2.0, 1.5, (0.0,), 1.0, 0.7)
    law = c2_norm(g, 2.0, (0.0,), 1.0) * np.exp(1.5 * 0.7) * (0.7 + 1.0) ** (-1.0 / 4.0)
    assert abs(norm(u) - law) / law < 1e-6


def test_probe_norm_law_2d():
    d2 = make_grid(2, 10.0, 128, periodic=True)
    g = build_kernel(2.0, d2)
    for t in (0.5, 1.5):
        u = self_similar_solution(g, 2.0, 0.0, (0.0, 0.0), 1.0, t)
        law = c2_norm(g, 2.0, (0.0, 0.0), 1.0) * (t + 1.0) ** (-2.0 / 4.0)
        assert abs(norm(u) - law) / law < 5e-3


def assert_bilinear_interpolation(kernel, s, x0, l):
    """The datum against scipy's bilinear interpolator with fill value 0, at
    the grid's minimal images over l^{1/s}, and zero wherever a point falls
    outside the box."""
    axes, big_r = kernel.domain.axis_coords(), kernel.domain.half_width
    reference = RegularGridInterpolator((axes, axes), kernel.values, bounds_error=False, fill_value=0.0)
    points = [(np.mod(axes - x + big_r, 2.0 * big_r) - big_r) / l ** (1.0 / s) for x in x0]
    pts = np.stack([g.ravel() for g in np.meshgrid(*points, indexing="ij")], axis=1)
    expected = l ** (-2.0 / s) * reference(pts).reshape(kernel.domain.shape)
    got = kernel_probe_solution(kernel, s, [x0], l)[0]
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
    outside = [(p < axes[0]) | (p > axes[-1]) for p in points]
    assert not got[np.logical_or.outer(*outside)].any()


def test_interpolation_matrices_are_bilinear_interpolation(rng):
    # the axis-by-axis interpolation of a random grid function K, with points
    # on the nodes (x0 = 0, l = 1), one ulp outside both ends, far out but
    # for one point, and wrapped
    box = make_grid(2, 4.0, 32, periodic=True)
    axis = box.axis_coords()
    K = GridFunction(box, rng.standard_normal(box.shape))
    # R = 4 and h = 1/4 make the minimal images exact and 1/l one ulp above 1
    assert np.array_equal(np.mod(axis + 4.0, 8.0) - 4.0, axis)
    beyond = axis / np.nextafter(1.0, 0.0)
    assert beyond[0] == np.nextafter(axis[0], -np.inf) and beyond[-1] == np.nextafter(axis[-1], np.inf)
    assert np.array_equal(kernel_probe_solution(K, 1.0, [(0.0, 0.0)], 1.0)[0], K.values)
    for x0, l in [
        ((0.0, 0.0), 1.0),
        ((0.0, 0.0), np.nextafter(1.0, 0.0)),
        ((axis[5], axis[20]), 1e-31),
        ((1.3, -2.2), 0.7),
    ]:
        assert_bilinear_interpolation(K, 1.0, x0, l)


def test_2d_probe_is_the_bilinear_interpolation_of_the_kernel():
    # an off-centre probe of the true kernel, so that the two axes cannot be
    # swapped
    assert_bilinear_interpolation(build_kernel(2.0, make_grid(2, 10.0, 48, periodic=True)), 2.0, (1.3, -2.2), 0.3)


def test_probe_matches_discrete_semigroup(pdom):
    # the same state evolved two ways: self-similar rescaling vs the
    # discretized flow; they differ by the periodization of the rescaled
    # kernel, small when the probe fits well inside the box
    dec = diagonalize(FractionalLaplacian(s=2.0), pdom)
    g = build_kernel(2.0, pdom)
    u0 = self_similar_solution(g, 2.0, 0.0, (0.0,), 1.0, 0.0)
    via_probe = self_similar_solution(g, 2.0, 0.0, (0.0,), 1.0, 1.0)
    via_flow = semigroup_apply(dec, 1.0, u0)
    assert np.abs(via_probe.values - via_flow.values).max() < 1e-4


def test_probe_matches_discrete_semigroup_s1():
    dom = make_grid(1, 30.0, 512, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    g = build_kernel(1.0, dom)
    u0 = self_similar_solution(g, 1.0, 0.0, (0.0,), 1.0, 0.0)
    via_probe = self_similar_solution(g, 1.0, 0.0, (0.0,), 1.0, 1.0)
    via_flow = semigroup_apply(dec, 1.0, u0)
    assert np.abs(via_probe.values - via_flow.values).max() < 5e-3
    # the flow itself is exact: it must equal the closed-form periodization
    # of e^{-(1+t)|xi|} with the midpoint phase
    m = dom.points_per_axis
    phase = np.exp(1j * np.pi * np.fft.fftfreq(m, d=1.0 / m) * (1.0 / m - 1.0))
    sym = np.exp(-2.0 * np.abs(dom.frequency_axis()))
    closed = np.real(np.fft.ifft(sym * phase)) / dom.cell_volume
    assert np.abs(via_flow.values - closed).max() < 1e-12


def test_falsification_validates_centers_and_c(pdom):
    e = make_set(pdom, Full())
    claim = ObservationClaim(C=1.0, T=1.0, alpha=0.0)
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    with pytest.raises(ValueError, match=r"center \(11.0,\) outside the box"):
        falsify_weak_observability(dec, e, claim, [(0.0,), (11.0,)])
    with pytest.raises(ValueError, match="center has 2 components, domain is 1-dimensional"):
        falsify_weak_observability(dec, e, claim, [(0.0, 0.0)])
    with pytest.raises(ValueError, match="c must be nonnegative"):
        falsify_weak_observability(diagonalize(FractionalLaplacian(s=1.0, c=-1.0), pdom), e, claim, [(0.0,)])


# ---------------------------------------------------------------------------
# the balancing parameter


def test_choose_l0_frozen_value():
    # (2 / 1.5)^2 - 1 = 7/9
    assert choose_l0(1.0, 0.5, 1.0, 1) == 9.0 / 7.0
    assert choose_l0(1.0, 0.0, 1.0, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)


@given(
    T=st.floats(0.01, 50.0),
    alpha=st.floats(0.0, 0.99),
    s=st.floats(0.2, 3.0),
    n=st.integers(1, 2),
)
@settings(max_examples=200, deadline=None)
def test_choose_l0_balance_identity(T, alpha, s, n):
    l0 = choose_l0(T, alpha, s, n)
    assert l0 > 0.0
    # defining identity: the norm ratio at time T equals (1+alpha)/2
    ratio = (l0 / (T + l0)) ** (n / (2.0 * s))
    assert ratio == pytest.approx((1.0 + alpha) / 2.0, rel=1e-9)


def test_choose_l0_monotone_in_alpha():
    prev = 0.0
    for alpha in (0.0, 0.2, 0.5, 0.8):
        l0 = choose_l0(1.0, alpha, 1.0, 1)
        assert l0 > prev
        prev = l0


def test_choose_l0_validates():
    with pytest.raises(ValueError, match="alpha"):
        choose_l0(1.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        choose_l0(0.0, 0.5, 1.0, 1)


def test_observation_tail_profile(pdom):
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    prof = observation_tail(dec, time_kernel(dec.eigenvalues, 0.0, 1.0), probe_state(1.0, pdom, (0.0,), 0.5), (0.0,))
    tails = np.asarray(prof.tail_masses)
    assert np.all(np.diff(tails) <= 1e-15)
    assert tails[-1] < 1e-12
    assert prof.total_mass > 0.0
    assert prof.peak_density > 0.0


def test_observation_tail_brackets_the_exact_integrals():
    # the Gram closed form over E_L = {|x - x0| > L}, over the whole box and
    # over each single cell lies in [figure - B ||phi||^2, figure]
    dom = make_grid(1, 10.0, 256, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    phi = probe_state(1.0, dom, (1.3,), 0.5)
    kernel = time_kernel(dec.eigenvalues, 0.0, 1.0)
    prof = observation_tail(dec, kernel, phi, (1.3,))
    width = kernel.bound * norm(phi) ** 2
    assert 0.0 < width < 1e-12
    modes = np.arange(dom.cell_count)
    coeffs = to_coefficients(dec, phi)[:, None]

    def exact(cells):
        gram = restricted_gram(dec, modes, SetIndicator(dom, cells))
        return observation_integrals(gram, dec.eigenvalues, coeffs, 0.0, 1.0)[0]

    r = dom.radius_grid(center=(1.3,))
    for radius in (0.0, 0.3, 1.0, 2.5, 6.0):
        i = int(np.searchsorted(prof.radii, radius))
        assert prof.tail_masses[i] - width <= exact(r > prof.radii[i]) <= prof.tail_masses[i]
    assert prof.total_mass - width <= exact(np.ones(dom.shape, bool)) <= prof.total_mass
    per_cell = [exact(np.arange(dom.cell_count) == j) for j in modes]
    assert max(per_cell) / dom.cell_volume <= prof.peak_density


@pytest.mark.parametrize("dim, m, s", [(1, 512, 1.0), (2, 64, 2.0)])
def test_observation_tail_transforms_phi_once(dim, m, s, coefficient_transforms, monkeypatch):
    # the reference applies each kernel row on its own, transforming phi
    # once per row; the tail takes one transform for all rows, a real FFT
    # of the stack of the one real state phi
    dom = make_grid(dim, 10.0, m, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=s), dom)
    center = (1.3,) * dim
    phi = probe_state(s, dom, center, 0.5)
    kernel = time_kernel(dec.eigenvalues, 0.0, 1.0)
    assert kernel.rank > 1
    coefficient_transforms.clear()
    got = observation_tail(dec, kernel, phi, center)
    assert coefficient_transforms == [(1,) + dom.shape]
    monkeypatch.setattr(probes, "spectral_apply",
                        lambda dec, weights, f: tuple(spectral_apply(dec, row, f) for row in weights))
    coefficient_transforms.clear()
    want = observation_tail(dec, kernel, phi, center)
    assert coefficient_transforms == [(1,) + dom.shape] * kernel.rank
    assert got.radii == want.radii
    np.testing.assert_allclose(got.tail_masses, want.tail_masses, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose([got.total_mass, got.peak_density], [want.total_mass, want.peak_density],
                               rtol=1e-13, atol=0.0)


def test_rank_zero_kernel_leaves_only_the_bound(pdom, monkeypatch):
    # a stopping rule that keeps no column: the density is zero, every
    # figure is the kernel's bound, and no center gets a local-mass bound
    monkeypatch.setattr(certify, "KERNEL_RTOL", 1.0)
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    phi = probe_state(1.0, pdom, (0.0,), 0.5)
    kernel = time_kernel(dec.eigenvalues, 0.0, 1.0)
    assert kernel.rank == 0
    prof = observation_tail(dec, kernel, phi, (0.0,))
    slack = (kernel.bound - kernel.allowance) * norm(phi) ** 2
    assert prof.total_mass == slack > 0.0
    assert set(prof.tail_masses) == {slack}
    assert prof.peak_density == slack / pdom.cell_volume
    report = falsify_weak_observability(
        dec, make_set(pdom, Full()), ObservationClaim(C=1.0, T=1.0, alpha=0.0), [(0.0,)]
    )
    assert not report.any_violation
    assert report.centers[0].local_mass_bound is None


# ---------------------------------------------------------------------------
# falsification


def test_empty_ball_violates_small_claim(pdom):
    # E = {|x| >= 5} sees almost nothing of a probe centered at 0 living at
    # scale ~1, so C = 1 cannot hold with alpha = 0
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    e = make_set(pdom, BallComplement(center=(0.0,), radius=5.0))
    report = falsify_weak_observability(
        dec, e, ObservationClaim(C=1.0, T=1.0, alpha=0.0), [(0.0,)]
    )
    assert report.any_violation
    c = report.centers[0]
    assert c.violated
    assert c.margin < 0.0
    assert c.l0 == pytest.approx(1.0 / 3.0, rel=1e-15)
    # the decayed norm dwarfs the observation term
    assert c.lhs > 10.0 * report.claim.C * np.sqrt(c.observation)


def test_falsification_lhs_is_the_discrete_flow(pdom):
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    e = make_set(pdom, BallComplement(center=(0.0,), radius=5.0))
    report = falsify_weak_observability(
        dec, e, ObservationClaim(C=1.0, T=1.0, alpha=0.0), [(0.0,)]
    )
    c = report.centers[0]
    phi = probe_state(1.0, pdom, c.center, c.l0)
    assert abs(c.lhs - norm(semigroup_apply(dec, 1.0, phi))) < 1e-12


def test_full_domain_yields_mass_bounds(pdom):
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    e = make_set(pdom, Full())
    report = falsify_weak_observability(
        dec, e, ObservationClaim(C=1.0, T=1.0, alpha=0.0), [(0.0,), (2.5,)]
    )
    assert not report.any_violation
    for c in report.centers:
        assert not c.violated
        assert c.half_mass_radius is not None
        # the implied lower bound must not exceed the actual mass of E in
        # the half-mass ball
        inside = (pdom.radius_grid(center=c.center) < c.half_mass_radius) & e.cells
        measured = float(inside.sum()) * pdom.cell_volume
        assert 0.0 <= c.local_mass_bound <= measured


def test_falsification_builds_one_time_kernel(pdom, monkeypatch):
    # the tails of observation_tail read the kernel of the bracket, which is
    # the one over [0, T]; no second kernel is factored for them
    built = []

    class CountedKernel(certify.TimeKernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.rank)

    monkeypatch.setattr(certify, "TimeKernel", CountedKernel)
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    report = falsify_weak_observability(
        dec, make_set(pdom, Full()), ObservationClaim(C=1.0, T=1.0, alpha=0.0), [(0.0,), (2.5,)]
    )
    assert all(c.local_mass_bound is not None for c in report.centers)
    assert built == [report.kernel_rank]


def test_positive_local_mass_bound_stays_below_the_measured_mass(pdom):
    # E = {|x| < 2} holds most of the probe's mass, and C is set so that
    # the claim needs 90 % of the observation integral: then the far tail
    # cannot supply it, the bound is positive, and it may not exceed the
    # measure of E in the half-mass ball
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    e = SetIndicator(pdom, pdom.radius_grid() < 2.0)
    centers = [(0.0,), (0.7,)]
    first = falsify_weak_observability(dec, e, ObservationClaim(C=1.0, T=1.0, alpha=0.0), centers)
    for center, c in zip(centers, first.centers):
        claim = ObservationClaim(C=c.gap / np.sqrt(0.9 * c.observation), T=1.0, alpha=0.0)
        (rep,) = falsify_weak_observability(dec, e, claim, [center]).centers
        assert not rep.violated
        ball = (pdom.radius_grid(center=rep.center) <= rep.half_mass_radius) & e.cells
        assert 0.0 < rep.local_mass_bound <= float(ball.sum()) * pdom.cell_volume


def test_falsification_rejects_wrong_kind(hermite_dec):
    e = make_set(hermite_dec.domain, Full())
    with pytest.raises(TypeError, match="fractional"):
        falsify_weak_observability(
            hermite_dec, e, ObservationClaim(C=1.0, T=1.0, alpha=0.0), [(0.0,)]
        )


def test_falsification_window_guard(pdom):
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    e = make_set(pdom, Full())
    # T = 5 puts the probe scale at T + l0 = 20/3 > R/2
    with pytest.raises(ValueError, match="enlarge the domain"):
        falsify_weak_observability(dec, e, ObservationClaim(C=1.0, T=5.0, alpha=0.0), [(0.0,)])


def test_claim_validation():
    with pytest.raises(ValueError, match="C > 0"):
        ObservationClaim(C=0.0, T=1.0, alpha=0.0)
    with pytest.raises(ValueError, match="C > 0"):
        ObservationClaim(C=1.0, T=-1.0, alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        ObservationClaim(C=1.0, T=1.0, alpha=1.0)


def test_hermite_ground_state_halfspace(hermite_dec):
    # on {x > 0} the Gaussian keeps half its mass: the closed form gives
    # rhs = 0.5 sqrt((1 - e^{-2})/2) ~ 0.2325 < e^{-1}, violated
    e = make_set(hermite_dec.domain, HalfSpace(offset=0.0))
    report = falsify_hermite_ground_state(
        hermite_dec, e, ObservationClaim(C=0.5, T=1.0, alpha=0.0)
    )
    assert report.violated
    assert report.analytic_violated
    assert report.analytic_lhs == pytest.approx(np.exp(-1.0), rel=1e-14)
    # the grid quantities agree with the closed forms
    assert abs(report.lhs - report.analytic_lhs) < 1e-10
    assert abs(0.5 * np.sqrt(report.observation) - report.analytic_rhs) < 1e-9


def test_hermite_ground_state_generous_claim_stands(hermite_dec):
    e = make_set(hermite_dec.domain, HalfSpace(offset=0.0))
    report = falsify_hermite_ground_state(
        hermite_dec, e, ObservationClaim(C=2.0, T=1.0, alpha=0.0)
    )
    assert not report.violated
    assert not report.analytic_violated


def test_hermite_probe_rejects_wrong_kind(pdom):
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    e = make_set(pdom, Full())
    with pytest.raises(TypeError, match="harmonic"):
        falsify_hermite_ground_state(dec, e, ObservationClaim(C=1.0, T=1.0, alpha=0.0))


def test_falsification_csv(pdom):
    dec = diagonalize(FractionalLaplacian(s=1.0), pdom)
    e = make_set(pdom, BallComplement(center=(0.0,), radius=5.0))
    report = falsify_weak_observability(
        dec, e, ObservationClaim(C=1.0, T=1.0, alpha=0.0), [(0.0,), (2.5,)]
    )
    lines = falsification_to_csv(report).strip().split("\n")
    assert lines[0] == "x0,lhs,observation,violated"
    assert len(lines) == 3
    x0, lhs, obs, flag = lines[1].split(",")
    assert float(x0) == 0.0
    assert float(lhs) == report.centers[0].lhs
    assert flag in ("0", "1")
