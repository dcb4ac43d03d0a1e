"""Release gates: end-to-end checks with explicit wall-clock budgets.

Each test pins an exact oracle (closed-form spectra, arbitrary-precision
chain arithmetic, scipy quadrature, dense diagonalization) against the
public API, and asserts a runtime ceiling so performance regressions fail
loudly instead of rotting.  Budgets are generous on purpose: they catch
order-of-magnitude slowdowns, not jitter.
"""

import time

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from reference import best_constant_witness, dissipative_margin, inner_product, project, semigroup_norm
from test_certify import GOLDEN_UNIT, assert_matches_golden

from stabcert.certify import CriterionConstants, build_certificate, certify_end_to_end
from stabcert.cli import RunConfig, payload_json, run
from stabcert.domain import (
    GridFunction,
    from_callable,
    make_grid,
    norm,
    restrict_norm,
    save_grid_function,
)
from stabcert.feedback import (
    build_finite_rank_feedback,
    damping_decay_bound,
    damping_spectral_exponent,
    simulate_decay,
)
from stabcert.geometry import (
    BallComplement,
    Full,
    HalfSpace,
    PeriodicSlabs,
    check_thick,
    check_weakly_thick,
    make_set,
)
from stabcert.operators import (
    FractionalLaplacian,
    Schrodinger,
    ShiftedHermite,
    diagonalize,
    dense_matrix,
    eigenfunction,
    semigroup_apply,
)
from stabcert.probes import (
    ObservationClaim,
    falsify_hermite_ground_state,
    falsify_weak_observability,
)
from stabcert.specineq import best_constant


def test_hermite_spectrum_first_ten():
    started = time.perf_counter()
    dec = diagonalize(ShiftedHermite(c=0.0), make_grid(1, 10.0, 512, periodic=False))
    expected = np.arange(1.0, 20.0, 2.0)
    assert np.abs(dec.eigenvalues[:10] - expected).max() < 1e-3
    assert time.perf_counter() - started < 5.0


def test_2d_hermite_diagonalizes_from_its_factor():
    # the 4096-cell operator is a Kronecker sum, diagonalized from one
    # 64 x 64 factor solve instead of a 4096^2 eigh
    started = time.perf_counter()
    dec = diagonalize(ShiftedHermite(), make_grid(2, 8.0, 64, periodic=False))
    elapsed = time.perf_counter() - started
    assert np.allclose(dec.eigenvalues[:10], [2, 4, 4, 6, 6, 6, 8, 8, 8, 8], atol=1e-9)
    assert elapsed < 2.0


def test_semigroup_norm_identities():
    started = time.perf_counter()
    frac = diagonalize(FractionalLaplacian(s=1.0, c=2.0), make_grid(1, 10.0, 512, periodic=True))
    for t in (0.1, 1.0, 5.0):
        assert semigroup_norm(frac, t) == pytest.approx(np.exp(2.0 * t), rel=1e-10)
    wall = make_grid(1, 10.0, 512, periodic=False)
    for c in (0.0, 2.0):
        hermite = diagonalize(ShiftedHermite(c=c), wall)
        for t in (0.1, 1.0, 5.0):
            # ||e^{-tH}|| = e^{(c-n)t}: the bottom eigenvalue is n - c here
            assert semigroup_norm(hermite, t) == pytest.approx(np.exp((c - 1.0) * t), rel=1e-3)
    assert time.perf_counter() - started < 5.0


def test_dissipative_inequality_sampled(frac_dec, hermite_dec):
    started = time.perf_counter()
    for dec in (frac_dec, hermite_dec):
        for k in range(1, 11):
            report = dissipative_margin(dec, float(k), (0.1, 0.5, 1.0), trials=100, seed=k)
            assert report.max_ratio <= 1.0 + 1e-10
    assert time.perf_counter() - started < 30.0


def test_projection_algebra(frac_dec, hermite_dec):
    started = time.perf_counter()
    for dec in (frac_dec, hermite_dec):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = float(rng.integers(1, 11))
            f = GridFunction(dec.domain, rng.standard_normal(dec.domain.shape))
            g = GridFunction(dec.domain, rng.standard_normal(dec.domain.shape))
            pf = project(dec, k, f)
            # idempotence
            assert norm(GridFunction(dec.domain, project(dec, k, pf).values - pf.values)) < 1e-10 * norm(f)
            # self-adjointness
            pg = project(dec, k, g)
            assert abs(inner_product(pf, g) - inner_product(f, pg)) < 1e-10 * norm(f) * norm(g)
            # commutation with the flow
            flowed = semigroup_apply(dec, 0.7, f)
            left = project(dec, k, flowed)
            right = semigroup_apply(dec, 0.7, pf)
            assert norm(GridFunction(dec.domain, left.values - right.values)) < 1e-10 * norm(f)
            # Pythagoras
            rest = GridFunction(dec.domain, f.values - pf.values)
            assert abs(norm(f) ** 2 - norm(pf) ** 2 - norm(rest) ** 2) < 1e-10 * norm(f) ** 2
    assert time.perf_counter() - started < 10.0


def test_spectral_constant_exactness_and_monotonicity(frac_dec, hermite_dec):
    started = time.perf_counter()
    for dec in (frac_dec, hermite_dec):
        full = make_set(dec.domain, Full())
        for k in range(1, 11):
            assert best_constant(dec, float(k), full) == 1.0
    # the minimizing vector attains the returned constant
    e = make_set(hermite_dec.domain, HalfSpace(offset=1.0))
    const, witness = best_constant_witness(hermite_dec, 6.0, e)
    ratio = norm(witness) / restrict_norm(witness, e)
    assert ratio == pytest.approx(const, rel=1e-8)
    # shrinking the set can only raise the constant: nested chain of 5
    chain = [make_set(hermite_dec.domain, HalfSpace(offset=o)) for o in (3.0, 2.0, 0.0, -2.0)]
    chain.append(make_set(hermite_dec.domain, Full()))
    consts = [best_constant(hermite_dec, 6.0, s) for s in chain]
    assert all(np.isfinite(consts))
    assert all(a > b for a, b in zip(consts, consts[1:]))
    assert consts[-1] == 1.0
    assert time.perf_counter() - started < 60.0


def test_certificate_chain_against_reference():
    started = time.perf_counter()
    cert = build_certificate(CriterionConstants(c1=1.0, a=1.0, c2=1.0, b=1.0, M=1.0, delta0=0.0))
    assert_matches_golden(cert, GOLDEN_UNIT)
    assert cert.ln_beta < 0.0
    assert time.perf_counter() - started < 1.0


def test_end_to_end_certification_on_thick_slabs():
    started = time.perf_counter()
    dom = make_grid(1, 10.0, 256, periodic=True)
    e = make_set(dom, PeriodicSlabs(period=1.0, fill_fraction=0.25))
    result = certify_end_to_end(
        FractionalLaplacian(s=1.0, c=0.0), dom, e, 8,
        trials=1000, recurrence_trials=100, seed=0,
    )
    assert result.status == "certified"
    assert result.certificate is not None
    obs = result.observability_report
    assert obs.trials == 1000
    assert obs.passed
    # zero violations within the quadrature budget; here the margin is
    # positive outright
    assert obs.min_margin_rel >= -1e-7
    assert obs.min_margin > 0.0
    assert result.recurrence_report.passed
    assert time.perf_counter() - started < 30.0


def test_necessity_witnesses(hermite_dec, frac_dec):
    started = time.perf_counter()
    # a half space misses mass of the ground state: the alpha = 0 claim falls
    e_half = make_set(hermite_dec.domain, HalfSpace(offset=0.0))
    hermite_report = falsify_hermite_ground_state(
        hermite_dec, e_half, ObservationClaim(C=0.5, T=1.0, alpha=0.0)
    )
    assert hermite_report.violated
    assert hermite_report.analytic_violated
    # a set empty on a radius-5 ball cannot observe a probe centered there
    e_ball = make_set(frac_dec.domain, BallComplement(center=(0.0,), radius=5.0))
    frac_report = falsify_weak_observability(
        frac_dec, e_ball, ObservationClaim(C=1.0, T=1.0, alpha=0.0), [(0.0,)]
    )
    assert frac_report.any_violation
    assert frac_report.centers[0].margin < 0.0
    assert time.perf_counter() - started < 30.0


def test_geometry_classifier():
    started = time.perf_counter()
    dom = make_grid(1, 10.0, 320, periodic=True)
    half = make_set(dom, HalfSpace(offset=0.0))
    report = check_thick(half, [1.0])
    assert not report.is_thick
    weak = check_weakly_thick(half, [2.0, 4.0, 6.0, 8.0])
    assert weak.is_weakly_thick
    assert np.abs(np.asarray(weak.densities) - 0.5).max() <= 0.02
    slabs = make_set(dom, PeriodicSlabs(period=1.0, fill_fraction=0.25))
    report = check_thick(slabs, [1.0])
    assert report.is_thick
    assert abs(report.gamma - 0.25) <= dom.spacing
    ball = make_set(dom, BallComplement(center=(0.0,), radius=1.0))
    report = check_thick(ball, [1.0, 2.0, 3.0])
    assert report.is_thick
    assert report.gamma_by_length[3.0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert time.perf_counter() - started < 10.0


def test_damping_bound_below_true_gap():
    started = time.perf_counter()
    dom = make_grid(1, 10.0, 256, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=2.0, c=0.0), dom)
    e = make_set(dom, PeriodicSlabs(period=1.0, fill_fraction=0.25))
    c1 = damping_spectral_exponent(dec, e, range(1, 7))
    bound = damping_decay_bound(0.5, c1, range(1, 7))
    assert bound.omega > 0.0
    loop = dense_matrix(dec) + np.diag(e.cells.ravel().astype(float))
    lam_min = float(scipy.linalg.eigvalsh(0.5 * (loop + loop.T))[0])
    assert lam_min >= bound.omega
    assert time.perf_counter() - started < 30.0


def test_finite_rank_feedback_full_pipeline(shifted_potential_dec):
    started = time.perf_counter()
    # fine-grid Gram against direct quadrature of the continuum modes
    fine = make_grid(1, 10.0, 4096, periodic=False)
    pot = from_callable(fine, lambda x: x**2 - 4.0)
    fine_dec = diagonalize(Schrodinger(potential=pot), fine)
    assert np.abs(fine_dec.eigenvalues[:2] - np.array([-3.0, -1.0])).max() < 1e-3
    e_fine = make_set(fine, HalfSpace(offset=0.0))
    fb_fine = build_finite_rank_feedback(fine_dec, e_fine)

    def psi0(x):
        return np.pi**-0.25 * np.exp(-0.5 * x**2)

    def psi1(x):
        return np.sqrt(2.0) * np.pi**-0.25 * x * np.exp(-0.5 * x**2)

    oracle = np.empty((2, 2))
    for i, fi in enumerate((psi0, psi1)):
        for j, fj in enumerate((psi0, psi1)):
            oracle[i, j], _ = scipy.integrate.quad(
                lambda x: fi(x) * fj(x), 0.0, 10.0, epsabs=1e-12
            )
    # eigenvector signs are a solver convention, so compare magnitudes
    assert np.abs(np.abs(fb_fine.gram) - np.abs(oracle)).max() < 1e-6

    # closed-loop decay from random starts on the working grid
    dec = shifted_potential_dec
    e = make_set(dec.domain, HalfSpace(offset=0.0))
    fb = build_finite_rank_feedback(dec, e)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(dec.domain.shape)
        y0 = GridFunction(dec.domain, vals)
        y0 = GridFunction(dec.domain, y0.values / norm(y0))
        report = simulate_decay(dec, fb, e, y0, t_end=6.0, dt=0.002)
        assert report.fitted_omega > 0.2
        tail = np.asarray(report.norms)[len(report.norms) // 2 :]
        assert np.all(np.diff(tail) <= 1e-12)

    # with E the whole box the lowest closed-loop mode decays at rate 1
    e_full = make_set(dec.domain, Full())
    fb_full = build_finite_rank_feedback(dec, e_full)
    phi1 = eigenfunction(dec, 0)
    report = simulate_decay(dec, fb_full, e_full, phi1, t_end=6.0, dt=0.001)
    assert report.fitted_omega == pytest.approx(1.0, rel=2e-2)
    assert time.perf_counter() - started < 60.0


def test_reproducible_payloads(tmp_path):
    certify_config = RunConfig(
        operator={"kind": "frac", "s": 1.0, "c": 0.0},
        domain={"dim": 1, "half_width": 10.0, "points_per_axis": 256, "periodic": True},
        set_spec={"text": "slabs:period=1,fill=0.25"},
        options={"seed": 0, "k_max": 8, "trials": 1000, "recurrence_trials": 100},
    )
    first = run("certify", certify_config)
    second = run("certify", certify_config)
    assert payload_json(first) == payload_json(second)
    assert first.outputs["status"] == "certified"

    dom = make_grid(1, 10.0, 512, periodic=False)
    pot = from_callable(dom, lambda x: x**2 - 4.0)
    pot_path = tmp_path / "potential.json"
    save_grid_function(pot, str(pot_path))
    simulate_config = RunConfig(
        operator={"kind": "schrodinger", "potential": str(pot_path), "condition": "II"},
        domain={"dim": 1, "half_width": 10.0, "points_per_axis": 512, "periodic": False},
        set_spec={"text": "halfspace:offset=0"},
        options={"seed": 3, "feedback": "finite-rank", "delta": 0.5,
                 "t_end": 6.0, "dt": 0.002, "y0": "random"},
    )
    first = run("simulate", simulate_config)
    second = run("simulate", simulate_config)
    assert payload_json(first) == payload_json(second)
    assert first.outputs["decay"]["fitted_omega"] > 0.2
