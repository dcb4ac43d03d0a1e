"""Set fixtures, thickness and weak-thickness classification."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert.domain import make_grid
from stabcert.geometry import (
    BallComplement,
    Empty,
    Full,
    HalfSpace,
    PeriodicSlabs,
    SetIndicator,
    check_thick,
    check_weakly_thick,
    make_set,
    set_from_json,
    set_to_json,
)


def brute_force_gamma(cells: np.ndarray, w: int, h: float, periodic: bool) -> float:
    """Worst window measure fraction by direct enumeration (the oracle)."""
    dim = cells.ndim
    m = cells.shape[0]
    if periodic:
        starts = range(m)
    else:
        starts = range(m - w + 1)
    best = None
    for idx in np.ndindex(*(len(list(starts)),) * dim):
        count = cells
        for axis, s in enumerate(idx):
            count = np.take(count, np.arange(s, s + w) % m if periodic else np.arange(s, s + w), axis=axis)
        c = int(count.sum())
        best = c if best is None else min(best, c)
    return best * h**dim / (w * h) ** dim


# ---------------------------------------------------------------------------
# rasterization


def test_full_and_empty_measures():
    dom = make_grid(1, 10.0, 64)
    assert make_set(dom, Full()).measure == pytest.approx(20.0)
    assert make_set(dom, Empty()).measure == 0.0


def test_halfspace_has_half_the_cells():
    dom = make_grid(1, 10.0, 64)
    e = make_set(dom, HalfSpace(axis=0, offset=0.0))
    assert int(e.cells.sum()) == 32  # no cell center sits at 0


def test_complement_partitions_the_box():
    dom = make_grid(2, 5.0, 16)
    e = make_set(dom, BallComplement(center=(0.0, 0.0), radius=2.0))
    assert e.measure + SetIndicator(dom, ~e.cells).measure == pytest.approx(100.0)


def test_slab_fill_fraction_is_exact():
    # 16 cells per unit period at m = 320, 4 of them inside [0, 0.25)
    dom = make_grid(1, 10.0, 320)
    e = make_set(dom, PeriodicSlabs(period=1.0, fill_fraction=0.25))
    assert int(e.cells.sum()) == 80


@pytest.mark.parametrize(
    "shape",
    [
        HalfSpace(axis=1, offset=0.0),
        HalfSpace(axis=0, offset=11.0),
        BallComplement(center=(0.0,), radius=0.0),
        BallComplement(center=(0.0,), radius=25.0),
        BallComplement(center=(11.0,), radius=1.0),
        BallComplement(center=(0.0, 0.0), radius=1.0),
        PeriodicSlabs(period=1.0, fill_fraction=0.0),
        PeriodicSlabs(period=1.0, fill_fraction=1.5),
        PeriodicSlabs(period=30.0, fill_fraction=0.5),
    ],
)
def test_make_set_rejects_bad_shapes(shape):
    with pytest.raises(ValueError):
        make_set(make_grid(1, 10.0, 64), shape)


def test_make_set_unknown_shape():
    with pytest.raises(TypeError):
        make_set(make_grid(1, 10.0, 64), object())


# ---------------------------------------------------------------------------
# thickness


def test_slabs_are_thick_with_exact_gamma():
    dom = make_grid(1, 10.0, 320)
    e = make_set(dom, PeriodicSlabs(period=1.0, fill_fraction=0.25))
    rep = check_thick(e, [1.0])
    assert rep.is_thick
    assert rep.side_length == 1.0
    assert rep.gamma == 0.25


def test_halfspace_is_not_thick():
    dom = make_grid(1, 10.0, 320)
    rep = check_thick(make_set(dom, HalfSpace(offset=0.0)), [1.0, 2.0])
    assert not rep.is_thick
    assert rep.gamma is None
    assert rep.side_length is None
    assert rep.gamma_by_length == {1.0: 0.0, 2.0: 0.0}
    assert rep.worst_cube_center[0] < 0.0  # a window buried in the left half


def test_ball_complement_needs_a_window_larger_than_the_hole():
    dom = make_grid(1, 10.0, 320)
    rep = check_thick(make_set(dom, BallComplement(center=(0.0,), radius=1.0)), [1.0, 2.0, 3.0])
    assert rep.is_thick
    assert rep.side_length == 3.0
    assert rep.gamma_by_length[1.0] == 0.0
    assert rep.gamma_by_length[2.0] == 0.0
    assert rep.gamma == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_full_set_gamma_is_one():
    dom = make_grid(1, 10.0, 64)
    rep = check_thick(make_set(dom, Full()), [2.5, 5.0])
    assert rep.gamma == 1.0
    assert all(g == 1.0 for g in rep.gamma_by_length.values())


def test_check_thick_rejects_bad_lengths():
    dom = make_grid(1, 10.0, 64)  # h = 0.3125
    e = make_set(dom, Full())
    with pytest.raises(ValueError):
        check_thick(e, [])
    with pytest.raises(ValueError):
        check_thick(e, [0.4])  # 1.28 cells
    with pytest.raises(ValueError):
        check_thick(e, [25.0])


def test_truncation_flag_reflects_boundary():
    e_wall = make_set(make_grid(1, 10.0, 64, periodic=False), Full())
    e_per = make_set(make_grid(1, 10.0, 64, periodic=True), Full())
    assert check_thick(e_wall, [1.25]).truncated
    assert not check_thick(e_per, [1.25]).truncated


def test_window_minimum_matches_brute_force_1d(rng):
    dom = make_grid(1, 10.0, 64)
    h = dom.spacing
    for _ in range(20):
        cells = rng.random(64) < 0.4
        e = SetIndicator(dom, cells)
        for w in (1, 4, 16):
            rep = check_thick(e, [w * h])
            assert rep.gamma_by_length[w * h] == pytest.approx(
                brute_force_gamma(cells, w, h, periodic=True), abs=1e-14
            )


def test_window_minimum_matches_brute_force_2d(rng):
    dom = make_grid(2, 4.0, 16)
    h = dom.spacing
    for periodic in (True, False):
        d = make_grid(2, 4.0, 16, periodic=periodic)
        cells = rng.random((16, 16)) < 0.5
        e = SetIndicator(d, cells)
        rep = check_thick(e, [4 * h])
        assert rep.gamma_by_length[4 * h] == pytest.approx(
            brute_force_gamma(cells, 4, h, periodic=periodic), abs=1e-14
        )


@pytest.mark.parametrize("dim, m", [(1, 8), (1, 10), (2, 8), (2, 10)])
@pytest.mark.parametrize("periodic", [True, False])
def test_check_thick_is_brute_force_window_counting(dim, m, periodic, rng):
    # every side length from one cell to the whole box, and the worst cube's
    # centre (the first in C order) as well as its fraction: the window
    # counts by enumeration
    dom = make_grid(dim, 2.0, m, periodic=periodic)
    h = dom.spacing
    for density in (0.2, 0.6):
        e = SetIndicator(dom, rng.random(dom.shape) < density)
        for w in range(1, m + 1):
            starts = list(np.ndindex(*(m if periodic else m - w + 1,) * dim))
            counts = [int(e.cells[np.ix_(*[np.arange(s, s + w) % m for s in idx])].sum()) for idx in starts]
            worst = starts[int(np.argmin(counts))]
            rep = check_thick(e, [w * h])
            assert rep.gamma_by_length[w * h] == min(counts) * h**dim / (w * h) ** dim
            assert rep.worst_cube_center == tuple(-dom.half_width + (s + w / 2.0) * h for s in worst)


@pytest.mark.parametrize("dim", [1, 2])
def test_axis_shapes_are_the_meshgrid_comparisons(dim):
    # slabs and half-spaces compare one axis's coordinates and repeat them
    # along the others: the cells of the comparison over the full meshgrid
    dom = make_grid(dim, 10.0, 34, periodic=True)
    for axis in range(dim):
        x = dom.meshgrid()[axis]
        for offset in (-3.7, 0.0, 2.5):
            assert np.array_equal(make_set(dom, HalfSpace(axis=axis, offset=offset)).cells, x > offset)
        for period, fill in ((1.0, 0.25), (3.3, 0.6), (20.0, 1.0)):
            slabs = make_set(dom, PeriodicSlabs(period=period, fill_fraction=fill, axis=axis))
            assert np.array_equal(slabs.cells, np.mod(x, period) < fill * period)
            assert slabs.cells.flags.c_contiguous and not slabs.cells.flags.writeable


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gamma_monotone_under_set_inclusion(seed):
    dom = make_grid(1, 10.0, 64)
    r = np.random.default_rng(seed)
    small = r.random(64) < 0.3
    large = small | (r.random(64) < 0.3)
    L = 8 * dom.spacing
    g_small = check_thick(SetIndicator(dom, small), [L]).gamma_by_length[L]
    g_large = check_thick(SetIndicator(dom, large), [L]).gamma_by_length[L]
    assert g_small <= g_large + 1e-15


# ---------------------------------------------------------------------------
# weak thickness


def test_halfspace_is_weakly_thick_with_density_half():
    dom = make_grid(1, 10.0, 320)
    rep = check_weakly_thick(make_set(dom, HalfSpace(offset=0.0)), [2.0, 4.0, 6.0, 8.0])
    assert rep.is_weakly_thick
    # midpoint grid: every ball around 0 splits exactly in half
    assert rep.densities == (0.5, 0.5, 0.5, 0.5)
    assert rep.liminf_proxy == 0.5


def test_empty_set_is_not_weakly_thick():
    dom = make_grid(1, 10.0, 64)
    rep = check_weakly_thick(make_set(dom, Empty()), [2.0, 5.0])
    assert not rep.is_weakly_thick
    assert rep.liminf_proxy == 0.0


def test_ball_complement_density_grows():
    dom = make_grid(1, 10.0, 320)
    rep = check_weakly_thick(make_set(dom, BallComplement(center=(0.0,), radius=1.0)), [2.0, 5.0, 9.0])
    assert rep.is_weakly_thick
    assert rep.densities[0] < rep.densities[-1]


@pytest.mark.parametrize("radii", [[], [-1.0], [0.0, 2.0], [5.0, 2.0], [11.0]])
def test_check_weakly_thick_rejects_bad_radii(radii):
    e = make_set(make_grid(1, 10.0, 64), Full())
    with pytest.raises(ValueError):
        check_weakly_thick(e, radii)


# ---------------------------------------------------------------------------
# serialization


def test_set_json_roundtrip(rng):
    for dom in (make_grid(1, 10.0, 64), make_grid(2, 4.0, 16)):
        cells = rng.random(dom.shape) < 0.5
        e = SetIndicator(dom, cells)
        doc = json.loads(json.dumps(set_to_json(e)))
        back = set_from_json(doc)
        assert back.domain == dom
        assert np.array_equal(back.cells, cells)


def test_set_json_is_run_length_encoded():
    dom = make_grid(1, 10.0, 64)
    doc = set_to_json(make_set(dom, HalfSpace(offset=0.0)))
    assert doc["runs"] == [32, 32]
