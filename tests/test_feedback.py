"""Feedback construction and closed-loop decay.

The damping bound is a closed formula, so its tests pin exact values; the
finite-rank loop has a 2x2 Gram on the half line whose entries are known in
closed form (0.5 and ~1/sqrt(2 pi)).  The closed loop is propagated exactly,
so it is checked against an expm of the grid generator and against a grid
splitting that converges to it at first order, and its first mode decays at
rate exactly 1 when E is the whole box.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import feedback, operators
from stabcert.domain import DomainMismatchError, GridFunction, from_callable, make_grid, norm, restrict_norm
from stabcert.feedback import (
    AlreadyStableError,
    GramSingularError,
    NoDampingRateError,
    UnstableLoopError,
    build_damping_feedback,
    build_finite_rank_feedback,
    damping_decay_bound,
    damping_spectral_exponent,
    decay_report_to_csv,
    simulate_decay,
)
from stabcert.geometry import BallComplement, Empty, Full, HalfSpace, PeriodicSlabs, SetIndicator, make_set
from stabcert.operators import (
    FractionalLaplacian,
    Schrodinger,
    ShiftedHermite,
    dense_matrix,
    diagonalize,
    eigenfunction,
    is_resolved,
    restricted_gram,
    semigroup_apply,
    spectral_count,
)
from stabcert.specineq import best_constant, spectral_constant_curve

from reference import apply_feedback

# smallest eigenvalue of |xi| + chi_E for the quarter-filled slabs on the
# reference periodic grid (dense diagonalization, frozen)
SLAB_LOOP_GAP = 0.22955351538715263


@pytest.fixture(scope="module")
def slab_set(frac_dec):
    return make_set(frac_dec.domain, PeriodicSlabs(period=1.0, fill_fraction=0.25))


@pytest.fixture(scope="module")
def slab_damping(frac_dec, slab_set):
    # thresholds N^2 with N >= 5 outrun the set's 128 cells on this grid,
    # so the sweep stops at 4
    return build_damping_feedback(frac_dec, slab_set, delta=0.5, N_grid=range(1, 5))


@pytest.fixture(scope="module")
def half_set(shifted_potential_dec):
    return make_set(shifted_potential_dec.domain, HalfSpace(offset=0.0))


@pytest.fixture(scope="module")
def half_feedback(shifted_potential_dec, half_set):
    return build_finite_rank_feedback(shifted_potential_dec, half_set)


@pytest.fixture(scope="module")
def full_set(shifted_potential_dec):
    return make_set(shifted_potential_dec.domain, Full())


@pytest.fixture(scope="module")
def full_feedback(shifted_potential_dec, full_set):
    return build_finite_rank_feedback(shifted_potential_dec, full_set)


# ---------------------------------------------------------------------------
# damping bound


def test_damping_bound_unit_constants():
    # delta = 0, c1 = 0: omega(N) = min(N^2 - 2, 1/2), maximized at N = 2
    bound = damping_decay_bound(0.0, 0.0, range(1, 9))
    assert bound.omega == 0.5
    assert bound.chosen_N == 2


def test_damping_bound_exponential_branch():
    bound = damping_decay_bound(0.0, 0.3, range(1, 9))
    assert bound.chosen_N == 2
    assert bound.omega == pytest.approx(0.5 * np.exp(-1.2), rel=1e-15)


def test_damping_bound_hopeless_delta():
    # (1 - 0.999) N^2 - 2 < 0 for every N below 45
    with pytest.raises(NoDampingRateError, match="not thick enough"):
        damping_decay_bound(0.999, 0.0, range(1, 33))


@pytest.mark.parametrize("delta", [-0.1, 1.0, 1.5])
def test_damping_bound_rejects_bad_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        damping_decay_bound(delta, 0.0, range(1, 9))


@pytest.mark.parametrize("delta", [-0.1, 1.0, 1.5, np.nan])
def test_damping_build_refuses_a_bad_delta_before_any_matrix(frac_dec, slab_set, monkeypatch, delta):
    # the builder and the bound share one delta rule, and the builder asks it
    # before the loop matrix or the sweep's Gram is formed
    def built(*args):
        raise AssertionError("a matrix was built before delta was checked")

    for module in (operators, feedback):
        monkeypatch.setattr(module, "dense_matrix", built)
    monkeypatch.setattr(feedback, "damping_spectral_exponent", built)
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
        build_damping_feedback(frac_dec, slab_set, delta=delta)


def test_damping_bound_rejects_negative_c1():
    with pytest.raises(ValueError, match="c1"):
        damping_decay_bound(0.0, -1.0, range(1, 9))


def test_damping_feedback_rejects_foreign_set(frac_dec, monkeypatch):
    # the set is refused before the cells^2 loop matrix is built
    monkeypatch.setattr("stabcert.feedback.dense_matrix", None)
    e = make_set(make_grid(1, 10.0, 256, periodic=True), Full())
    with pytest.raises(DomainMismatchError, match="observation set lives on a different domain"):
        build_damping_feedback(frac_dec, e)


@given(lo=st.floats(0.0, 3.0), hi=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_damping_bound_monotone_in_c1(lo, hi):
    # a worse restricted-inequality exponent can only shrink the gap
    if lo > hi:
        lo, hi = hi, lo
    better = damping_decay_bound(0.0, lo, range(1, 9))
    worse = damping_decay_bound(0.0, hi, range(1, 9))
    assert better.omega >= worse.omega


def test_spectral_exponent_full_domain_is_zero(frac_dec):
    e = make_set(frac_dec.domain, Full())
    assert damping_spectral_exponent(frac_dec, e, range(1, 5)) == 0.0


def test_spectral_exponent_empty_set_propagates(frac_dec):
    e = make_set(frac_dec.domain, Empty())
    c1 = damping_spectral_exponent(frac_dec, e, range(1, 3))
    assert c1 == np.inf
    # an infinite exponent kills the exponential branch, so no N works
    with pytest.raises(NoDampingRateError, match="not thick enough"):
        damping_decay_bound(0.0, c1, range(1, 9))


def test_spectral_exponent_builds_one_gram(frac_dec, slab_set, gram_builds):
    damping_spectral_exponent(frac_dec, slab_set, range(1, 5))
    assert gram_builds == [101]  # d(16); the smaller ranges are its leading blocks


def test_spectral_exponent_matches_per_threshold_constants(frac_dec, slab_set):
    per_n = max(np.log(best_constant(frac_dec, n**2, slab_set)) / n for n in range(1, 5))
    c1 = damping_spectral_exponent(frac_dec, slab_set, range(1, 5))
    assert c1 == pytest.approx(per_n, rel=1e-9)


def spectral_exponent_by_loop(dec, e, N_grid):
    """The envelope exponent, one threshold at a time."""
    ns = sorted(float(n) for n in N_grid)
    constants = spectral_constant_curve(dec, e, [n**2 for n in ns]).constants
    worst = 0.0
    for n, c in zip(ns, constants):
        if not np.isfinite(c):
            return float("inf")
        worst = max(worst, float(np.log(c)) / n)
    return worst


@pytest.mark.parametrize("set_spec", [PeriodicSlabs(period=1.0, fill_fraction=0.25), HalfSpace(offset=0.0),
                                      BallComplement(center=(0.0,), radius=5.0), Full(), Empty()],
                         ids=["slabs", "half-space", "ball-complement", "full", "empty"])
@pytest.mark.parametrize("kind", ["frac-1", "frac-2", "hermite"])
def test_spectral_exponent_is_the_loop_bit_for_bit(kind, set_spec):
    if kind == "hermite":
        dec = diagonalize(ShiftedHermite(0.0), make_grid(1, 8.0, 128, periodic=False))
    else:
        dec = diagonalize(FractionalLaplacian(s=float(kind[-1])), make_grid(1, 10.0, 256, periodic=True))
    e = make_set(dec.domain, set_spec)
    # sorted and unsorted sweeps, fractional N, finite and infinite constants
    for grid in ([0.5, 1, 1.5, 2], [2, 0.5, 1.5], [1, 2, 3, 4], [3]):
        assert damping_spectral_exponent(dec, e, grid) == spectral_exponent_by_loop(dec, e, grid), grid


def test_build_damping_drops_unresolved_thresholds(frac_dec):
    # on 512 cells d(N^2) exceeds 256 from N = 7 on: the default sweep keeps
    # N = 1..6, and matches that sweep given explicitly
    e = make_set(frac_dec.domain, PeriodicSlabs(period=1.0, fill_fraction=0.5))
    trimmed = build_damping_feedback(frac_dec, e)
    explicit = build_damping_feedback(frac_dec, e, N_grid=range(1, 7))
    assert (trimmed.c1, trimmed.omega, trimmed.chosen_N) == (explicit.c1, explicit.omega, explicit.chosen_N)
    with pytest.raises(ValueError, match="half the cell count"):
        build_damping_feedback(frac_dec, e, N_grid=range(7, 33))


@pytest.mark.parametrize("m", [16, 14], ids=["d=cells/2", "d=cells/2+1"])
def test_both_callers_cut_the_resolved_range_at_half_the_cells(m):
    # 1D Hermite with c = 0.5 on R = 5 has d(16) = 8 on 16 and on 14 cells
    # (levels 14.4-14.5 and 16.5-16.9, none near 16): 16 cells resolve that
    # range and 14 do not, for the spectral constant and the damping sweep
    dec = diagonalize(ShiftedHermite(0.5), make_grid(1, 5.0, m, periodic=False))
    e = make_set(dec.domain, Full())
    assert spectral_count(dec, 16.0) == 8
    assert is_resolved(dec, 16.0) == (m == 16)
    if m == 16:
        assert best_constant(dec, 16.0, e) == 1.0
        assert build_damping_feedback(dec, e, N_grid=[4]).chosen_N == 4
    else:
        with pytest.raises(ValueError, match="dimension 8 exceeds half the cell count 14"):
            best_constant(dec, 16.0, e)
        with pytest.raises(ValueError, match="no N in the sweep .* half the cell count 14"):
            build_damping_feedback(dec, e, N_grid=[4])


def test_build_damping_on_slabs(frac_dec, slab_set, slab_damping):
    fb = slab_damping
    assert fb.omega > 0.0
    assert fb.chosen_N == 3
    assert np.all(np.diff(fb.loop_eigenvalues) >= 0.0)
    # the certified omega must sit below the true gap of H + chi_E
    assert fb.loop_eigenvalues[0] >= fb.omega - 1e-9
    assert fb.loop_eigenvalues[0] == pytest.approx(SLAB_LOOP_GAP, rel=1e-8)


def test_damping_simulation_matches_loop_gap(frac_dec, slab_set, slab_damping, rng):
    y0 = GridFunction(frac_dec.domain, rng.standard_normal(512))
    report = simulate_decay(frac_dec, slab_damping, slab_set, y0, t_end=16.0, dt=0.02)
    assert report.fitted_omega == pytest.approx(SLAB_LOOP_GAP, rel=1e-2)


# ---------------------------------------------------------------------------
# finite-rank construction


def test_finite_rank_unstable_pair(shifted_potential_dec, half_feedback):
    fb = half_feedback
    assert fb.unstable_count == 2
    assert fb.rho == pytest.approx(-4.0, abs=1e-9)
    # Gram of the two bound states on {x > 0}: diagonal exactly half the
    # mass by even symmetry, off-diagonal 1/sqrt(2 pi) up to midpoint error
    assert np.array_equal(fb.gram, fb.gram.T)
    assert fb.gram[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert fb.gram[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert fb.gram[0, 1] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=1e-4)
    assert fb.gram_cond == pytest.approx(8.90030610420525, rel=1e-6)


def test_norm_bound_closed_form(half_feedback):
    # for a symmetric positive-definite 2x2 [[a, b], [b, d]] the smallest
    # singular value is (a + d)/2 - hypot((a - d)/2, b), so the bound is
    # |rho| over that; a and d agree only up to roundoff (the discrete modes
    # are even and odd only to roundoff), so neither may be dropped
    fb = half_feedback
    a, b, d = fb.gram[0, 0], fb.gram[0, 1], fb.gram[1, 1]
    expected = abs(fb.rho) / ((a + d) / 2.0 - np.hypot((a - d) / 2.0, b))
    assert fb.norm_bound == pytest.approx(expected, rel=1e-12)
    assert fb.norm_bound == pytest.approx(39.60122441681833, rel=1e-6)


def test_norm_bound_is_a_bound(shifted_potential_dec, half_feedback, rng):
    bound = half_feedback.norm_bound
    dom = shifted_potential_dec.domain
    for _ in range(100):
        psi = GridFunction(dom, rng.standard_normal(512))
        out = apply_feedback(shifted_potential_dec, half_feedback, psi)
        assert norm(out) <= bound * norm(psi) * (1.0 + 1e-12)


def test_already_stable_operator_refused(hermite_dec):
    e = make_set(hermite_dec.domain, Full())
    with pytest.raises(AlreadyStableError):
        build_finite_rank_feedback(hermite_dec, e)


def test_zero_measure_set_refused(shifted_potential_dec):
    e = make_set(shifted_potential_dec.domain, Empty())
    with pytest.raises(ValueError, match="zero measure"):
        build_finite_rank_feedback(shifted_potential_dec, e)


def test_single_cell_set_is_singular(shifted_potential_dec):
    # one cell cannot distinguish two modes: the 2x2 Gram is rank one
    mask = np.zeros(512, dtype=bool)
    mask[300] = True
    e = SetIndicator(shifted_potential_dec.domain, mask)
    with pytest.raises(GramSingularError) as info:
        build_finite_rank_feedback(shifted_potential_dec, e)
    err = info.value
    assert err.cond > 1e12
    # the attached witness is invisible on E
    assert restrict_norm(err.witness, e) < 1e-12 * norm(err.witness)


def test_the_residual_gate_attaches_the_least_observed_combination(shifted_potential_dec, monkeypatch):
    # with no condition limit the rank-one Gram of one cell reaches the
    # inversion residual, whose witness is the same combination E cannot see
    monkeypatch.setattr(feedback, "GRAM_COND_LIMIT", np.inf)
    mask = np.zeros(512, dtype=bool)
    mask[300] = True
    e = SetIndicator(shifted_potential_dec.domain, mask)
    with pytest.raises(GramSingularError, match="inversion residual") as info:
        build_finite_rank_feedback(shifted_potential_dec, e)
    err = info.value
    assert restrict_norm(err.witness, e) < 1e-12 * norm(err.witness)


# ---------------------------------------------------------------------------
# applying the feedback


def test_apply_none_is_zero(shifted_potential_dec, rng):
    y = GridFunction(shifted_potential_dec.domain, rng.standard_normal(512))
    out = apply_feedback(shifted_potential_dec, None, y)
    assert np.all(out.values == 0.0)


def test_apply_damping_negates_on_set(frac_dec, slab_set, slab_damping, rng):
    y = GridFunction(frac_dec.domain, rng.standard_normal(512))
    out = apply_feedback(frac_dec, slab_damping, y)
    assert np.array_equal(out.values, -(slab_set.cells * y.values))


def test_apply_full_domain_acts_diagonally(shifted_potential_dec, full_feedback):
    # with E the whole box the Gram is the identity, so K phi_j = rho phi_j
    # on the unstable modes and K kills everything above them
    fb = full_feedback
    assert np.abs(fb.gram - np.eye(2)).max() < 1e-10
    phi1 = eigenfunction(shifted_potential_dec, 0)
    out = apply_feedback(shifted_potential_dec, fb, phi1)
    assert norm(GridFunction(phi1.domain, out.values - fb.rho * phi1.values)) < 1e-12
    phi3 = eigenfunction(shifted_potential_dec, 2)
    assert norm(apply_feedback(shifted_potential_dec, fb, phi3)) < 1e-12


# ---------------------------------------------------------------------------
# closed-loop decay


def test_full_domain_first_mode_decays_at_rate_one(shifted_potential_dec, full_set, full_feedback):
    # with E the whole box the Gram is the identity and phi_1 closes on
    # itself at rate lambda_1 - rho = 1
    phi1 = eigenfunction(shifted_potential_dec, 0)
    report = simulate_decay(shifted_potential_dec, full_feedback, full_set, phi1, t_end=6.0, dt=1e-3)
    assert report.fitted_omega == pytest.approx(1.0, rel=1e-10)
    assert report.fit_residual < 1e-10


def test_halfspace_random_states_decay(shifted_potential_dec, half_set, half_feedback):
    for seed in (100, 101, 102):
        rng = np.random.default_rng(seed)
        y0 = GridFunction(shifted_potential_dec.domain, rng.standard_normal(512))
        report = simulate_decay(
            shifted_potential_dec, half_feedback, half_set, y0, t_end=6.0, dt=0.002
        )
        assert report.fitted_omega > 0.2
        tail = np.asarray(report.norms)[len(report.norms) // 2 :]
        assert np.all(np.diff(tail) <= 1e-12)


def _finite_rank_case(case):
    if case == "schrodinger-1d":
        dom = make_grid(1, 10.0, 128, periodic=False)
        dec = diagonalize(Schrodinger(potential=from_callable(dom, lambda x: x**2 - 4.0)), dom)
    else:
        dim, m = {"frac-1d": (1, 64), "frac-2d": (2, 16)}[case]
        dec = diagonalize(FractionalLaplacian(s=1.0, c=0.5), make_grid(dim, 10.0, m, periodic=True))
    e = make_set(dec.domain, HalfSpace(offset=0.0))
    fb = build_finite_rank_feedback(dec, e)
    y = GridFunction(dec.domain, np.random.default_rng(7).standard_normal(dec.domain.shape))
    return dec, e, fb, y


def _grid_splitting_norms(dec, fb, e, y, dt, steps):
    # y <- e^{-dt H}(y + dt chi_E K y), taken on the grid
    norms = [norm(y)]
    for _ in range(steps):
        forced = y.values + dt * e.cells * apply_feedback(dec, fb, y).values
        y = semigroup_apply(dec, dt, GridFunction(dec.domain, forced))
        norms.append(norm(y))
    return np.asarray(norms)


@pytest.mark.parametrize("case", ["frac-1d", "frac-2d", "schrodinger-1d"])
def test_finite_rank_simulation_matches_grid_splitting(case):
    # the grid splitting is first order in dt and converges to the exact
    # norms: halving dt halves its error, and the Richardson extrapolation
    # of the two runs is far closer than either
    dec, e, fb, y = _finite_rank_case(case)
    dt = 0.002
    report = simulate_decay(dec, fb, e, y, t_end=100 * dt, dt=dt)
    exact = np.asarray(report.norms)
    coarse = _grid_splitting_norms(dec, fb, e, y, dt, 100)
    fine = _grid_splitting_norms(dec, fb, e, y, dt / 2, 200)[::2]
    err_coarse = np.abs(coarse - exact).max()
    err_fine = np.abs(fine - exact).max()
    assert report.times == pytest.approx(dt * np.arange(101), rel=1e-12)
    assert 1.9 < err_coarse / err_fine < 2.1
    assert np.abs(2.0 * fine - coarse - exact).max() < 0.05 * err_fine


@pytest.mark.parametrize("case", ["frac-1d", "frac-2d", "schrodinger-1d"])
def test_finite_rank_simulation_matches_expm(case):
    # expm of the closed-loop generator -H + chi_E K on the grid, with K
    # assembled column by column from apply_feedback; 3, 9 and 2 unstable
    # modes, in both basis kinds
    dec, e, fb, y = _finite_rank_case(case)
    cells = dec.domain.cell_count
    units = np.eye(cells).reshape((cells,) + dec.domain.shape)
    k_mat = np.stack(
        [apply_feedback(dec, fb, GridFunction(dec.domain, u)).values.ravel() for u in units], axis=1
    )
    generator = -dense_matrix(dec) + e.cells.ravel()[:, None] * k_mat
    report = simulate_decay(dec, fb, e, y, t_end=1.0, dt=0.01)
    # norm() of a grid function is the Euclidean norm times sqrt(cell volume)
    scale = np.sqrt(dec.domain.cell_volume)
    expected = [scale * np.linalg.norm(scipy.linalg.expm(t * generator) @ y.values.ravel()) for t in report.times]
    assert report.norms == pytest.approx(expected, rel=1e-12)


def test_finite_rank_norms_do_not_depend_on_dt(shifted_potential_dec, half_set, half_feedback, rng):
    # dt only spaces the samples: at t_end = 6 both spacings sample every
    # 0.06, and dt = 0.01 (dt ||K|| = 0.4) is as exact as dt = 0.002
    y0 = GridFunction(shifted_potential_dec.domain, rng.standard_normal(512))
    coarse = simulate_decay(shifted_potential_dec, half_feedback, half_set, y0, t_end=6.0, dt=0.01)
    fine = simulate_decay(shifted_potential_dec, half_feedback, half_set, y0, t_end=6.0, dt=0.002)
    assert len(coarse.times) == len(fine.times) == 101
    assert coarse.times == pytest.approx(fine.times, rel=1e-14, abs=1e-15)
    assert coarse.norms == pytest.approx(fine.norms, rel=1e-12)


def test_finite_rank_long_horizon_stays_finite(shifted_potential_dec, half_set, half_feedback, rng):
    # e^{-lambda t} and the forcing kernel stay finite far past the point
    # where e^{+x} forms of the kernel overflow
    y0 = GridFunction(shifted_potential_dec.domain, rng.standard_normal(512))
    report = simulate_decay(shifted_potential_dec, half_feedback, half_set, y0, t_end=400.0, dt=1.0)
    assert np.all(np.isfinite(report.norms))
    assert report.norms[-1] < report.norms[len(report.norms) // 2] < report.norms[0]


def test_finite_rank_simulation_holds_about_three_sample_arrays():
    # at its peak a finite-rank simulate holds the coefficients, the kernel
    # and the exprel argument, each (cells x samples): exprel works in blocks
    # and both buffers are gone before the norm squares the coefficients
    # (3.21 arrays measured; 4.16 with a whole-array exprel and both held)
    m = 1024
    dom = make_grid(1, 10.0, m, periodic=False)
    dec = diagonalize(Schrodinger(potential=from_callable(dom, lambda x: x**2 - 4.0)), dom)
    e = make_set(dom, HalfSpace(offset=0.0))
    fb = build_finite_rank_feedback(dec, e)
    y0 = GridFunction(dom, np.random.default_rng(1).standard_normal(m))
    tracemalloc.start()
    try:
        report = simulate_decay(dec, fb, e, y0, 6.0, 0.002)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    samples = len(report.times)
    assert samples == 101
    assert peak < 3.3 * m * samples * 8, peak / (m * samples * 8)


def test_simulate_rejects_foreign_domains(shifted_potential_dec, half_set, half_feedback):
    other = make_grid(1, 5.0, 512, periodic=False)
    y_other = GridFunction(other, np.ones(512))
    with pytest.raises(DomainMismatchError, match="y0"):
        simulate_decay(shifted_potential_dec, half_feedback, half_set, y_other, t_end=1.0, dt=0.002)
    y0 = eigenfunction(shifted_potential_dec, 0)
    with pytest.raises(DomainMismatchError, match="observation set"):
        simulate_decay(shifted_potential_dec, None, make_set(other, Full()), y0, t_end=1.0, dt=0.01)


def test_finite_rank_simulation_transforms_only_y0(shifted_potential_dec, half_set, half_feedback,
                                                  coefficient_transforms, rng):
    # the coupling of the modes through e is the feedback's own, computed
    # once when it was built: the simulation transforms y0 and nothing else
    y0 = GridFunction(shifted_potential_dec.domain, rng.standard_normal(512))
    coefficient_transforms.clear()
    simulate_decay(shifted_potential_dec, half_feedback, half_set, y0, t_end=1.0, dt=0.01)
    assert coefficient_transforms == [(512,)]


def test_finite_rank_coupling_holds_the_gram(shifted_potential_dec, half_set, half_feedback):
    fb = half_feedback
    assert fb.e is half_set
    assert fb.coupling.shape == (512, 2)
    assert np.array_equal(fb.gram, 0.5 * (fb.coupling[:2] + fb.coupling[:2].T))
    gram = restricted_gram(shifted_potential_dec, np.arange(2), half_set)
    assert np.abs(fb.gram - gram).max() <= 1e-14


def test_finite_rank_simulation_needs_the_feedback_set(shifted_potential_dec, full_set, half_feedback):
    # the closed form rests on the coupling of the unstable modes through e
    # being the feedback's own Gram
    y0 = eigenfunction(shifted_potential_dec, 0)
    with pytest.raises(ValueError, match="another observation set"):
        simulate_decay(shifted_potential_dec, half_feedback, full_set, y0, t_end=1.0, dt=0.01)


def test_damping_simulation_needs_the_feedback_set(frac_dec, slab_damping):
    # the damping law's loop spectrum is that of H + chi_E for its own set
    y0 = eigenfunction(frac_dec, 0)
    with pytest.raises(ValueError, match="another observation set"):
        simulate_decay(frac_dec, slab_damping, make_set(frac_dec.domain, Full()), y0, t_end=1.0, dt=0.01)


def test_open_loop_stable_rate(hermite_dec, rng):
    e = make_set(hermite_dec.domain, Full())
    ground = eigenfunction(hermite_dec, 0)
    report = simulate_decay(hermite_dec, None, e, ground, t_end=5.0, dt=0.01)
    assert report.fitted_omega == pytest.approx(1.0, rel=1e-10)
    assert report.fit_residual < 1e-10


def test_open_loop_unstable_raises(shifted_potential_dec, full_set):
    phi1 = eigenfunction(shifted_potential_dec, 0)
    with pytest.raises(UnstableLoopError, match="instability"):
        simulate_decay(shifted_potential_dec, None, full_set, phi1, t_end=8.0, dt=0.05)


def test_simulate_validates_inputs(shifted_potential_dec, half_set):
    phi1 = eigenfunction(shifted_potential_dec, 0)
    with pytest.raises(ValueError, match="t_end"):
        simulate_decay(shifted_potential_dec, None, half_set, phi1, t_end=0.0, dt=0.01)
    with pytest.raises(ValueError, match="dt"):
        simulate_decay(shifted_potential_dec, None, half_set, phi1, t_end=1.0, dt=0.5)
    zero = GridFunction(shifted_potential_dec.domain, np.zeros(512))
    with pytest.raises(ValueError, match="zero"):
        simulate_decay(shifted_potential_dec, None, half_set, zero, t_end=6.0, dt=0.01)


def test_decay_report_csv(hermite_dec, rng):
    e = make_set(hermite_dec.domain, Full())
    ground = eigenfunction(hermite_dec, 0)
    report = simulate_decay(hermite_dec, None, e, ground, t_end=5.0, dt=0.01)
    text = decay_report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "t,norm,ln_norm"
    assert len(lines) == len(report.times) + 1
    t0, n0, ln0 = lines[1].split(",")
    assert float(t0) == report.times[0]
    assert float(n0) == report.norms[0]
    assert float(ln0) == pytest.approx(np.log(report.norms[0]))
