"""The one domain rule: every public entry point refuses a grid input from another grid.

A set, state or potential on R = 5 is handed to a decomposition or grid on
R = 10 with the same cell count, so only the domain tells them apart.  Each
entry point raises DomainMismatchError naming the foreign input before it
decides anything: a check the spectrum decides, a full set and an empty
projection range included, which need no cell of the set.
"""

import numpy as np
import pytest

from stabcert.certify import (
    CriterionConstants,
    build_certificate,
    certify_end_to_end,
    recurrence_check,
    time_kernel,
    weak_observability_check,
)
from stabcert.domain import DomainMismatchError, from_callable, make_grid, restrict_norm
from stabcert.feedback import (
    build_damping_feedback,
    build_finite_rank_feedback,
    damping_spectral_exponent,
    simulate_decay,
)
from stabcert.geometry import Full, HalfSpace, make_set
from stabcert.operators import (
    FractionalLaplacian,
    Schrodinger,
    ShiftedHermite,
    diagonalize,
    eigenfunction,
    restricted_gram,
    restricted_norms,
    semigroup_apply,
    spectral_apply,
    to_coefficients,
)
from stabcert.probes import ObservationClaim, falsify_hermite_ground_state, falsify_weak_observability, observation_tail
from stabcert.specineq import best_constant, spectral_constant_curve

PERIODIC, PERIODIC_AWAY = make_grid(1, 10.0, 64), make_grid(1, 5.0, 64)
WALLS, WALLS_AWAY = make_grid(1, 10.0, 64, periodic=False), make_grid(1, 5.0, 64, periodic=False)
CERT = build_certificate(CriterionConstants(c1=1e-3, a=2.0, c2=1.0, b=1.0))
CLAIM = ObservationClaim(C=1.0, T=1.0, alpha=0.5)


@pytest.fixture(scope="module")
def decs():
    potential = from_callable(WALLS, lambda x: x**2 - 4.0)
    return {
        "frac": diagonalize(FractionalLaplacian(s=1.0), PERIODIC),
        "hermite": diagonalize(ShiftedHermite(), WALLS),
        "schrodinger": diagonalize(Schrodinger(potential), WALLS),
    }


def away_set(dec, shape=HalfSpace(offset=0.0)):
    return make_set(WALLS_AWAY if dec.domain == WALLS else PERIODIC_AWAY, shape)


def away_state(dec):
    return from_callable(away_set(dec).domain, np.cos)


def foreign_feedback():
    # built on the R = 5 grid, on a set whose cells equal those of the R = 10 half-space
    dec = diagonalize(Schrodinger(from_callable(WALLS_AWAY, lambda x: x**2 - 4.0)), WALLS_AWAY)
    return build_finite_rank_feedback(dec, make_set(WALLS_AWAY, HalfSpace(offset=0.0)))


def decided(check, dec):
    # the check on its own set is settled by the spectrum, and reads no cell of it
    assert check(make_set(dec.domain, HalfSpace(offset=0.0))).decided_by_spectrum
    return check(away_set(dec))


# id -> (the decomposition it takes, the name the refusal gives, the call)
CASES = {
    "restrict_norm": ("frac", "set", lambda dec: restrict_norm(from_callable(dec.domain, np.cos), away_set(dec))),
    "make_set": ("frac", "saved set", lambda dec: make_set(dec.domain, away_set(dec))),
    "diagonalize": ("hermite", "potential", lambda dec: diagonalize(Schrodinger(away_state(dec)), WALLS)),
    "restricted_gram": ("frac", "set", lambda dec: restricted_gram(dec, np.arange(3), away_set(dec))),
    "restricted_norms": ("frac", "set", lambda dec: next(restricted_norms(
        dec, away_set(dec), np.ones((1, 64)), np.empty((0, 64)), np.ones((1, 64))))),
    "to_coefficients": ("frac", "state", lambda dec: to_coefficients(dec, away_state(dec))),
    "spectral_apply": ("frac", "state", lambda dec: spectral_apply(dec, np.ones(64), away_state(dec))),
    "semigroup_apply": ("frac", "state", lambda dec: semigroup_apply(dec, 0.5, away_state(dec))),
    "best_constant-full": ("frac", "set", lambda dec: best_constant(dec, 4.0, away_set(dec, Full()))),
    "best_constant-empty-range": ("frac", "set", lambda dec: best_constant(dec, -1.0, away_set(dec))),
    "spectral_constant_curve-full": ("frac", "set", lambda dec: spectral_constant_curve(
        dec, away_set(dec, Full()), [1.0, 2.0, 3.0])),
    "damping_spectral_exponent": ("frac", "set", lambda dec: damping_spectral_exponent(
        dec, away_set(dec, Full()), [1, 2])),
    "recurrence_check-decided": ("hermite", "set", lambda dec: decided(
        lambda e: recurrence_check(dec, e, CERT, [CERT.tau0 / 2], trials=10, seed=1), dec)),
    "weak_observability_check-decided": ("hermite", "set", lambda dec: decided(
        lambda e: weak_observability_check(dec, e, CERT, trials=10, seed=2), dec)),
    "certify_end_to_end": ("frac", "set", lambda dec: certify_end_to_end(
        dec.spec, dec.domain, away_set(dec), k_max=3, trials=10, recurrence_trials=5)),
    "build_damping_feedback-full": ("frac", "observation set", lambda dec: build_damping_feedback(
        dec, away_set(dec, Full()))),
    "build_finite_rank_feedback": ("schrodinger", "observation set", lambda dec: build_finite_rank_feedback(
        dec, away_set(dec))),
    "simulate_decay-y0": ("hermite", "y0", lambda dec: simulate_decay(
        dec, None, make_set(dec.domain, Full()), away_state(dec), 1.0, 0.01)),
    "simulate_decay-set": ("hermite", "observation set", lambda dec: simulate_decay(
        dec, None, away_set(dec), eigenfunction(dec, 0), 1.0, 0.01)),
    "simulate_decay-feedback": ("schrodinger", "feedback", lambda dec: simulate_decay(
        dec, foreign_feedback(), make_set(dec.domain, HalfSpace(offset=0.0)), eigenfunction(dec, 0), 1.0, 0.01)),
    "falsify_weak_observability": ("frac", "set", lambda dec: falsify_weak_observability(
        dec, away_set(dec), CLAIM, [(0.0,)])),
    "falsify_hermite_ground_state": ("hermite", "set", lambda dec: falsify_hermite_ground_state(
        dec, away_set(dec), CLAIM)),
    "observation_tail": ("frac", "state", lambda dec: observation_tail(
        dec, time_kernel(dec.eigenvalues, 0.0, 1.0), away_state(dec), 0.0)),
}


@pytest.mark.parametrize("case", CASES)
def test_every_entry_point_refuses_an_input_from_another_grid(decs, case):
    kind, name, call = CASES[case]
    with pytest.raises(DomainMismatchError, match=f"^{name} lives on a different domain"):
        call(decs[kind])


def test_a_foreign_potential_is_refused_before_the_cache_is_touched(tmp_path):
    cache = tmp_path / "cache"
    with pytest.raises(DomainMismatchError, match="^potential lives on a different domain"):
        diagonalize(Schrodinger(from_callable(WALLS_AWAY, lambda x: x**2)), WALLS, cache_dir=cache)
    assert not cache.exists()
