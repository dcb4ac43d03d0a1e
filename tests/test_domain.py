"""Grid construction, discrete L2 structure, serialization, hashing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert.domain import (
    DomainMismatchError,
    GridFunction,
    atomic_write,
    content_hash,
    domain_from_header,
    domain_header,
    from_callable,
    grid_function_from_json,
    grid_function_to_json,
    load_grid_function,
    make_grid,
    norm,
    restrict_norm,
    save_grid_function,
)
from stabcert.geometry import Empty, Full, SetIndicator, make_set

from reference import inner_product


def indicator(domain, lo, hi):
    x = domain.meshgrid()[0]
    return GridFunction(domain, ((x >= lo) & (x <= hi)).astype(float))


# ---------------------------------------------------------------------------
# construction


def test_spacing_matches_definition():
    dom = make_grid(1, 10.0, 256, periodic=True)
    assert dom.spacing == 20.0 / 256
    assert dom.cell_volume == dom.spacing


def test_2d_cell_count():
    dom = make_grid(2, 5.0, 64, periodic=True)
    assert dom.cell_count == 4096
    assert dom.shape == (64, 64)
    assert dom.cell_volume == dom.spacing**2


def test_midpoints_avoid_zero():
    # cell centers sit at -R + (j + 1/2)h, so the origin is never a node
    dom = make_grid(1, 10.0, 256, periodic=False)
    x = dom.axis_coords()
    assert x[0] == -10.0 + 0.5 * dom.spacing
    assert np.abs(x).min() == dom.spacing / 2


@pytest.mark.parametrize(
    "dim,R,m",
    [(3, 10.0, 64), (0, 10.0, 64), (1, -1.0, 64), (1, 0.0, 64), (1, 10.0, 255), (1, 10.0, 6), (1, 10.0, 64.5)],
)
def test_make_grid_rejects_bad_parameters(dim, R, m):
    with pytest.raises(ValueError):
        make_grid(dim, R, m)


def test_grid_function_shape_mismatch():
    dom = make_grid(1, 10.0, 64)
    with pytest.raises(ValueError):
        GridFunction(dom, np.zeros(65))


def test_grid_function_values_are_frozen():
    dom = make_grid(1, 10.0, 64)
    f = GridFunction(dom, np.zeros(64))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_from_callable_2d_orientation():
    dom = make_grid(2, 5.0, 16)
    f = from_callable(dom, lambda x, y: x)
    # ij indexing: the first axis is x
    assert np.allclose(f.values, dom.axis_coords()[:, None])


def test_radius_grid_minimal_image():
    dom = make_grid(1, 10.0, 256, periodic=True)
    d = dom.radius_grid((9.5,))
    # wrap-around: the cell near -10 is ~0.5 away from 9.5, not ~19.5
    assert d.max() <= 10.0
    assert d.min() < dom.spacing
    walls = make_grid(1, 10.0, 256, periodic=False)
    assert walls.radius_grid((9.5,)).max() > 19.0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("center", [None, (9.5, -3.25), (-10.0, 10.0), (0.123, 0.0)])
def test_radius_grid_is_the_meshgrid_formula(dim, periodic, center):
    # the distance summed over the full meshgrid, axis by axis from 0.0: the
    # per-axis squares joined by outer sums are the same floats, bit for bit
    dom = make_grid(dim, 10.0, 34, periodic=periodic)
    c = (0.0,) * dim if center is None else center[:dim]
    sq = 0.0
    for axis, mesh in enumerate(dom.meshgrid()):
        d = mesh - c[axis]
        if periodic:
            d = (d + 10.0) % 20.0 - 10.0
        sq = sq + d * d
    got = dom.radius_grid(None if center is None else c)
    assert got.shape == dom.shape and np.array_equal(got, np.sqrt(sq))


@pytest.mark.parametrize("m", [8, 64, 4096])
def test_frequency_norm_is_the_length_of_the_frequency(m):
    xi = make_grid(1, 10.0, m).frequency_axis()
    assert np.array_equal(make_grid(1, 10.0, m).frequency_norm(), np.abs(xi))
    m2 = min(m, 64)
    xx, yy = np.meshgrid(*(make_grid(1, 10.0, m2).frequency_axis(),) * 2, indexing="ij")
    assert np.array_equal(make_grid(2, 10.0, m2).frequency_norm(), np.sqrt(xx**2 + yy**2))


def test_frequency_axis_periodic_only():
    with pytest.raises(ValueError):
        make_grid(1, 10.0, 64, periodic=False).frequency_axis()


# ---------------------------------------------------------------------------
# inner product and norms


def test_inner_product_constant_is_box_volume():
    dom = make_grid(1, 10.0, 256, periodic=True)
    one = GridFunction(dom, np.ones(256))
    assert inner_product(one, one) == 20.0


def test_inner_product_disjoint_supports():
    dom = make_grid(1, 10.0, 256, periodic=True)
    assert inner_product(indicator(dom, -9.0, -5.0), indicator(dom, 1.0, 4.0)) == 0.0


def test_gaussian_normalization():
    dom = make_grid(1, 10.0, 512, periodic=False)
    f = from_callable(dom, lambda x: np.pi**-0.25 * np.exp(-0.5 * x**2))
    assert abs(inner_product(f, f) - 1.0) < 1e-10
    assert abs(norm(f) - 1.0) < 1e-10


def test_inner_product_conjugate_linear_in_second_argument():
    dom = make_grid(1, 10.0, 64)
    rng = np.random.default_rng(0)
    f = GridFunction(dom, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    g = GridFunction(dom, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    lhs = inner_product(f, GridFunction(dom, 1j * g.values))
    assert lhs == pytest.approx(-1j * inner_product(f, g))


def test_inner_product_rejects_domain_mismatch():
    a = GridFunction(make_grid(1, 10.0, 64), np.ones(64))
    b = GridFunction(make_grid(1, 10.0, 128), np.ones(128))
    with pytest.raises(DomainMismatchError):
        inner_product(a, b)


def test_restrict_norm_full_and_empty():
    dom = make_grid(1, 10.0, 256, periodic=True)
    one = GridFunction(dom, np.ones(256))
    assert restrict_norm(one, make_set(dom, Full())) == pytest.approx(np.sqrt(20.0))
    assert restrict_norm(one, make_set(dom, Empty())) == 0.0


def test_restrict_norm_half_interval():
    dom = make_grid(1, 10.0, 256, periodic=True)
    f = indicator(dom, 0.0, 10.0)
    e = SetIndicator(dom, indicator(dom, 5.0, 10.0).values > 0)
    assert abs(restrict_norm(f, e) - np.sqrt(5.0)) < 2 * dom.spacing


def test_restrict_norm_domain_mismatch():
    dom = make_grid(1, 10.0, 64)
    other = make_grid(1, 10.0, 128)
    with pytest.raises(DomainMismatchError):
        restrict_norm(GridFunction(dom, np.ones(64)), make_set(other, Full()))


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_cauchy_schwarz(seed):
    dom = make_grid(1, 10.0, 64)
    rng = np.random.default_rng(seed)
    f = GridFunction(dom, rng.standard_normal(64))
    g = GridFunction(dom, rng.standard_normal(64))
    assert abs(inner_product(f, g)) <= norm(f) * norm(g) * (1.0 + 1e-12)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_restriction_splits_the_norm(seed):
    dom = make_grid(1, 10.0, 128)
    rng = np.random.default_rng(seed)
    f = GridFunction(dom, rng.standard_normal(128))
    e = SetIndicator(dom, rng.random(128) < 0.5)
    total = restrict_norm(f, e) ** 2 + restrict_norm(f, SetIndicator(dom, ~e.cells)) ** 2
    assert total == pytest.approx(norm(f) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# serialization


def test_header_roundtrip():
    dom = make_grid(2, 7.5, 32, periodic=False)
    assert domain_from_header(domain_header(dom)) == dom


def test_header_missing_key():
    with pytest.raises(ValueError):
        domain_from_header({"dim": 1, "half_width": 10.0})


def test_json_roundtrip_real_and_complex():
    dom = make_grid(1, 10.0, 32)
    rng = np.random.default_rng(3)
    real = GridFunction(dom, rng.standard_normal(32))
    cplx = GridFunction(dom, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    for f in (real, cplx):
        g = grid_function_from_json(json.loads(json.dumps(grid_function_to_json(f))))
        assert g.domain == dom
        assert np.array_equal(g.values, f.values)


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_non_finite_values_are_saved_as_strict_json(tmp_path, kind):
    # inf and NaN are written as their repr strings, as in a result document,
    # and read back bit for bit (-0.0 too), real parts and imaginary parts alike
    dom = make_grid(1, 10.0, 8)
    re = np.array([1.5, np.inf, -np.inf, np.nan, -0.0, 0.0, 2.0, -3.25])
    values = re.copy()
    if kind == "complex":
        values = np.empty(8, dtype=complex)
        values.real, values.imag = re, re[::-1]
    path = tmp_path / "state.json"
    save_grid_function(GridFunction(dom, values), path)
    doc = json.loads(path.read_text(), parse_constant=_refuse)
    assert doc["dtype"] == kind and "inf" in str(doc["values"]) and "nan" in str(doc["values"])
    back = load_grid_function(path)
    assert back.values.dtype == values.dtype
    assert back.values.tobytes() == values.tobytes()


def test_finite_values_are_saved_as_before(tmp_path):
    # the bytes of a finite grid function's file: each value as its float, a
    # complex one as the pair [re, im]
    dom = make_grid(1, 10.0, 64, periodic=False)
    for f in (from_callable(dom, lambda x: x**2 - 4.0), from_callable(dom, lambda x: np.exp(1j * x) / 3.0)):
        complex_ = np.iscomplexobj(f.values)
        values = [[float(v.real), float(v.imag)] if complex_ else float(v) for v in f.values]
        want = {"header": domain_header(dom), "dtype": "complex" if complex_ else "real", "values": values}
        save_grid_function(f, tmp_path / "state.json")
        assert (tmp_path / "state.json").read_text() == json.dumps(want)


def test_file_roundtrip_both_formats(tmp_path):
    dom = make_grid(2, 4.0, 16)
    rng = np.random.default_rng(4)
    f = GridFunction(dom, rng.standard_normal((16, 16)))
    for name in ("state.json", "state.bin"):
        path = tmp_path / name
        save_grid_function(f, path)
        g = load_grid_function(path)
        assert g.domain == dom
        assert np.array_equal(g.values, f.values)


def test_binary_roundtrip_complex(tmp_path):
    dom = make_grid(1, 10.0, 32)
    rng = np.random.default_rng(5)
    f = GridFunction(dom, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    save_grid_function(f, tmp_path / "state.bin")
    g = load_grid_function(tmp_path / "state.bin")
    assert np.array_equal(g.values, f.values)


@pytest.mark.parametrize("name", ["state.json", "state.bin"])
def test_an_interrupted_save_leaves_the_old_file(tmp_path, interrupt_write, name):
    dom = make_grid(1, 10.0, 32, periodic=False)
    path = tmp_path / name
    save_grid_function(from_callable(dom, np.cos), path)
    old = path.read_bytes()
    interrupt_write(2)  # the JSON's second chunk, or the binary values after the header
    with pytest.raises(OSError, match="write interrupted"):
        save_grid_function(from_callable(dom, np.sin), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_atomic_write_gives_the_permissions_of_open(tmp_path):
    with open(tmp_path / "plain", "w") as fh:
        fh.write("x")
    with atomic_write(tmp_path / "atomic") as fh:
        fh.write("x")
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


# ---------------------------------------------------------------------------
# hashing


def test_content_hash_stability_and_sensitivity():
    dom = make_grid(1, 10.0, 64)
    f = GridFunction(dom, np.ones(64))
    assert content_hash(f) == content_hash(GridFunction(dom, np.ones(64)))
    bumped = np.ones(64)
    bumped[0] += 1e-12
    assert content_hash(f) != content_hash(GridFunction(dom, bumped))
    assert content_hash(f) != content_hash(GridFunction(make_grid(1, 5.0, 64), np.ones(64)))


def test_content_hash_dict_order_independent():
    assert content_hash({"a": 1, "b": 2.5}) == content_hash({"b": 2.5, "a": 1})
    assert content_hash({"a": 1}) != content_hash({"a": 2})


def test_content_hash_distinguishes_dtype():
    v = np.arange(8)
    assert content_hash(v.astype(np.float64)) != content_hash(v.astype(np.int64))
