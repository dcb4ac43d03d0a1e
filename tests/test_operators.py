"""Diagonalization, semigroup, projections, Hermite basis."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import operators
from stabcert.domain import GridDomain, from_callable, grid_function, inner_product, make_grid, norm
from stabcert.feedback import build_finite_rank_feedback
from stabcert.geometry import BallComplement, HalfSpace, PeriodicSlabs, make_set
from stabcert.operators import (
    FractionalLaplacian,
    Schrodinger,
    ShiftedHermite,
    SpectralDecomposition,
    basis_block,
    dense_matrix,
    diagonalize,
    dissipative_margin,
    eigenfunction,
    from_coefficients,
    hermite_basis,
    project,
    restricted_gram,
    restricted_norms,
    semigroup_apply,
    semigroup_norm,
    spec_from_json,
    spec_to_json,
    to_coefficients,
    _canonicalize_signs,
)
from stabcert.probes import ObservationClaim, falsify_hermite_ground_state
from stabcert.specineq import spectral_constant_curve


def random_state(domain, rng, complex_valued=False):
    vals = rng.standard_normal(domain.shape)
    if complex_valued:
        vals = vals + 1j * rng.standard_normal(domain.shape)
    return grid_function(domain, vals)


# ---------------------------------------------------------------------------
# diagonalization


def test_hermite_spectrum(hermite_dec):
    # harmonic oscillator: eigenvalues 2k + 1 in one dimension
    assert np.allclose(hermite_dec.eigenvalues[:5], [1.0, 3.0, 5.0, 7.0, 9.0], atol=1e-4)


def test_fractional_symbol_is_exact():
    dom = make_grid(1, 10.0, 256, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=2.0), dom)
    xi = dom.frequency_axis()
    assert np.array_equal(dec.symbol, xi * xi)
    assert np.array_equal(dec.eigenvalues, np.sort(xi * xi))


def test_fractional_shift_moves_the_bottom():
    dom = make_grid(1, 10.0, 64, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0, c=2.0), dom)
    assert dec.eigenvalues[0] == -2.0


def test_schrodinger_with_square_potential_matches_hermite(hermite_dec):
    dom = hermite_dec.domain
    pot = from_callable(dom, lambda x: x**2)
    dec = diagonalize(Schrodinger(potential=pot), dom)
    assert np.allclose(dec.eigenvalues[:5], hermite_dec.eigenvalues[:5], atol=1e-4)


def test_2d_oscillator_degeneracies():
    dec = diagonalize(ShiftedHermite(c=0.0), make_grid(2, 6.0, 40, periodic=False))
    assert np.allclose(dec.eigenvalues[:6], [2.0, 4.0, 4.0, 6.0, 6.0, 6.0], atol=1e-6)


def test_grid_kind_mismatches_are_rejected():
    with pytest.raises(ValueError):
        diagonalize(FractionalLaplacian(s=1.0), make_grid(1, 10.0, 64, periodic=False))
    with pytest.raises(ValueError):
        diagonalize(ShiftedHermite(), make_grid(1, 10.0, 64, periodic=True))


def test_dense_cell_limit():
    with pytest.raises(ValueError):
        diagonalize(ShiftedHermite(), make_grid(1, 10.0, 8192, periodic=False))


def test_non_confining_potential_is_rejected():
    dom = make_grid(1, 10.0, 64, periodic=False)
    pot = from_callable(dom, lambda x: -(x**2))
    with pytest.raises(ValueError):
        diagonalize(Schrodinger(potential=pot), dom)


def test_condition_one_requires_delta():
    dom = make_grid(1, 10.0, 64, periodic=False)
    pot = from_callable(dom, lambda x: x**2)
    with pytest.raises(ValueError):
        Schrodinger(potential=pot, condition="I")
    with pytest.raises(ValueError):
        Schrodinger(potential=pot, condition="I", delta=1.5)
    Schrodinger(potential=pot, condition="I", delta=0.5)  # fine


def test_fractional_order_must_be_positive():
    with pytest.raises(ValueError):
        FractionalLaplacian(s=0.0)


def test_decomposition_cache_roundtrip(tmp_path):
    dom = make_grid(1, 10.0, 64, periodic=False)
    first = diagonalize(ShiftedHermite(c=1.0), dom, cache_dir=tmp_path)
    files = list(tmp_path.glob("decomposition-*.npz"))
    assert len(files) == 1
    second = diagonalize(ShiftedHermite(c=1.0), dom, cache_dir=tmp_path)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.vectors, second.vectors)


def test_cache_from_another_sign_convention_is_recomputed(tmp_path):
    dom = make_grid(1, 10.0, 64, periodic=False)
    first = diagonalize(ShiftedHermite(c=1.0), dom, cache_dir=tmp_path)
    (path,) = tmp_path.glob("decomposition-*.npz")
    # the layout written before eigenvector signs were pinned: no convention tag
    np.savez(path, eigenvalues=first.eigenvalues, vectors=-first.vectors, max_residual=first.max_residual)
    second = diagonalize(ShiftedHermite(c=1.0), dom, cache_dir=tmp_path)
    assert np.array_equal(second.vectors, first.vectors)
    with np.load(path) as data:
        assert np.array_equal(data["vectors"], first.vectors)


def _flip_middle_byte(path, dec):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # inside the eigenvector data, so its zip CRC fails
    path.write_bytes(bytes(raw))


def _truncate(path, dec):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _basis_arrays(dec):
    """The arrays a cache file holds for the basis of ``dec``, by name."""
    if dec.parity_blocks is None:
        return dict(vectors=dec.vectors)
    return dict(parity_blocks=dec.parity_blocks, order=dec.order)


def _savez(path, dec, **changes):
    fields = dict(eigenvalues=dec.eigenvalues, max_residual=dec.max_residual,
                  basis_convention=operators._BASIS_CONVENTION, **_basis_arrays(dec))
    np.savez(path, **{**fields, **changes})


def _basis_payload(dec):
    """The first basis array: the full vectors or the parity blocks."""
    return next(iter(_basis_arrays(dec).items()))


def _wrong_shape(path, dec):
    name, basis = _basis_payload(dec)
    _savez(path, dec, **{name: basis[..., :-1]})


def _nan_eigenvalue(path, dec):
    eigenvalues = dec.eigenvalues.copy()
    eigenvalues[3] = np.nan
    _savez(path, dec, eigenvalues=eigenvalues)


def _residual_above_tolerance(path, dec):
    _savez(path, dec, max_residual=1e-6)  # the tolerance is 1e-8


def _previous_convention(path, dec):
    # convention 1 left the basis within 2D Hermite levels to the solver; the
    # flipped signs are valid data, so only the tag makes this file a miss
    name, basis = _basis_payload(dec)
    _savez(path, dec, **{name: -basis}, basis_convention=1)


def _convention_two(path, dec):
    # convention 2 solved a mirror-symmetric 1D Schrodinger operator whole,
    # which differs from the parity-split solve at roundoff
    name, basis = _basis_payload(dec)
    _savez(path, dec, **{name: -basis}, basis_convention=2)


def _order_not_a_permutation(path, dec):
    # every entry is a valid column, but one column is read twice and one
    # never, so only the permutation check can refuse it
    order = dec.order.copy()
    order[1] = order[0]
    _savez(path, dec, order=order)


def _convention_three_full_vectors(path, dec):
    # convention 3 stored the parity-split basis as the full matrix
    np.savez(path, eigenvalues=dec.eigenvalues, max_residual=dec.max_residual, basis_convention=3,
             vectors=basis_block(dec, np.arange(dec.domain.cell_count)))


def _parity_layout_under_hermite_key(path, dec):
    # well-formed blocks and order, but 1D Hermite is never split by parity
    half = dec.domain.cell_count // 2
    np.savez(path, eigenvalues=dec.eigenvalues, max_residual=dec.max_residual,
             basis_convention=operators._BASIS_CONVENTION,
             parity_blocks=np.stack([dec.vectors[:half, :half], dec.vectors[:half, half:]]),
             order=np.arange(dec.domain.cell_count))


def _cache_hermite():
    return ShiftedHermite(c=1.0), make_grid(1, 10.0, 64, periodic=False)


def _cache_parity():
    dom = make_grid(1, 10.0, 64, periodic=False)
    pot = from_callable(dom, lambda x: x**2 - 4.0 + 0.5 * np.cos(2.0 * x))
    assert np.array_equal(pot.values, pot.values[::-1])
    return Schrodinger(potential=pot), dom


_ANY_LAYOUT = [_flip_middle_byte, _truncate, _wrong_shape, _nan_eigenvalue, _residual_above_tolerance,
               _previous_convention, _convention_two]


@pytest.mark.parametrize(
    "case, corrupt",
    [pytest.param(_cache_hermite, f, id=f.__name__.strip("_")) for f in _ANY_LAYOUT]
    + [pytest.param(_cache_hermite, _parity_layout_under_hermite_key, id="parity_layout_under_hermite_key")]
    + [pytest.param(_cache_parity, f, id="parity-" + f.__name__.strip("_"))
       for f in _ANY_LAYOUT + [_order_not_a_permutation, _convention_three_full_vectors]],
)
def test_bad_cache_file_is_recomputed(tmp_path, case, corrupt):
    spec, dom = case()
    first = diagonalize(spec, dom, cache_dir=tmp_path)
    (path,) = tmp_path.glob("decomposition-*.npz")
    corrupt(path, first)
    second = diagonalize(spec, dom, cache_dir=tmp_path)
    assert np.array_equal(second.eigenvalues, first.eigenvalues)
    everything = np.arange(dom.cell_count)
    assert np.array_equal(basis_block(second, everything), basis_block(first, everything))
    assert second.max_residual == first.max_residual
    with np.load(path) as data:
        assert sorted(data.files) == sorted(["eigenvalues", "max_residual", "basis_convention",
                                             *_basis_arrays(first)])
        for name, array in _basis_arrays(first).items():
            assert np.array_equal(data[name], array)


def test_parity_cache_roundtrip_halves_the_file(tmp_path):
    spec, dom = _cache_parity()
    first = diagonalize(spec, dom, cache_dir=tmp_path)
    (path,) = tmp_path.glob("decomposition-*.npz")
    second = diagonalize(spec, dom, cache_dir=tmp_path)
    assert second.vectors is None
    assert np.array_equal(second.parity_blocks, first.parity_blocks)
    assert np.array_equal(second.order, first.order)
    assert np.array_equal(second.eigenvalues, first.eigenvalues)
    # two (m/2)^2 blocks: half the 8 m^2 bytes of the full matrix, plus headers
    assert path.stat().st_size < 8 * dom.cell_count**2 // 2 + 4096


# ---------------------------------------------------------------------------
# eigenvector sign convention


@pytest.fixture(scope="module")
def canonical_vectors():
    dec = diagonalize(ShiftedHermite(), make_grid(1, 10.0, 64, periodic=False))
    return dec.vectors


def test_dense_signs_follow_the_hermite_convention(hermite_dec):
    # psi_k > 0 as x -> +infinity, odd k included: each eigenvector points
    # along the sampled Hermite function of the same degree
    basis = hermite_basis(1, 5, hermite_dec.domain)
    for k in range(6):
        overlap = inner_product(eigenfunction(hermite_dec, k), basis.functions[(k,)])
        assert overlap.real > 0.99


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 63)))
def test_canonicalize_signs_undoes_any_flip(canonical_vectors, flips):
    # half the columns are odd eigenfunctions, whose peak magnitude occurs
    # twice with opposite signs
    U = np.array(canonical_vectors)
    U[:, sorted(flips)] *= -1.0
    _canonicalize_signs(U)
    assert np.array_equal(U, canonical_vectors)


def test_dense_decomposition_ignores_solver_signs(monkeypatch):
    # LAPACK may return any column signs (they change with the BLAS thread
    # count); the decomposition and the finite-rank Gram built on it must not
    dom = make_grid(1, 10.0, 512, periodic=False)
    spec = Schrodinger(potential=from_callable(dom, lambda x: x**2 - 4.0))
    half = make_set(dom, HalfSpace(offset=0.0))
    plain = diagonalize(spec, dom)
    plain_gram = build_finite_rank_feedback(plain, half).gram

    rng = np.random.default_rng(7)

    def scrambled_eigh(H):
        w, U = scipy.linalg.eigh(H)
        flip = rng.random(U.shape[1]) < 0.5
        flip[0] = True  # the ground state, whose sign decides gram[0, 1]
        U[:, flip] *= -1.0
        return w, U

    monkeypatch.setattr(operators, "_dense_eigh", scrambled_eigh)
    flipped = diagonalize(spec, dom)
    assert np.array_equal(flipped.eigenvalues, plain.eigenvalues)
    # V = x^2 - 4 is mirror-symmetric, so the signs are pinned on the parity blocks
    assert plain.parity_blocks is not None
    everything = np.arange(dom.cell_count)
    assert np.array_equal(basis_block(flipped, everything), basis_block(plain, everything))
    assert flipped.max_residual == plain.max_residual
    assert np.array_equal(build_finite_rank_feedback(flipped, half).gram, plain_gram)


def test_blocked_eigen_residual_matches_the_whole_matrix(monkeypatch):
    # 8 columns per block at 64 cells, so the residual runs over 8 blocks; one
    # eigenvalue in the fifth block is off by 4e-9 relative, so that column's
    # residual stands far above roundoff and decides max_residual
    captured = {}

    def detuned_eigh(H):
        w, U = scipy.linalg.eigh(H)
        w[37] += 4e-9 * max(1.0, abs(w[37]))
        captured["H"] = H.copy()
        return w, U

    def capture_signs(U):
        _canonicalize_signs(U)
        captured["U"] = U.copy()

    monkeypatch.setattr(operators, "_RESIDUAL_BLOCK_ENTRIES", 64 * 8)
    monkeypatch.setattr(operators, "_dense_eigh", detuned_eigh)
    monkeypatch.setattr(operators, "_canonicalize_signs", capture_signs)
    dom = make_grid(1, 10.0, 64, periodic=False)
    dec = diagonalize(ShiftedHermite(), dom)
    H, U, w = captured["H"], captured["U"], dec.eigenvalues
    whole = np.linalg.norm(H @ U - U * w, axis=0) / np.maximum(1.0, np.abs(w))
    assert int(np.argmax(whole)) == 37
    assert dec.max_residual == pytest.approx(float(whole.max()), rel=1e-4)
    assert np.array_equal(dec.vectors, U / np.sqrt(dom.cell_volume))


# ---------------------------------------------------------------------------
# 2D Hermite from its 1D factor


def assembled_hermite_2d(dom, c):
    """The assembled 2D H and its dense decomposition, signs pinned."""
    m = dom.points_per_axis
    K1 = operators._sine_laplacian(dom)
    eye = np.eye(m)
    x, y = dom.meshgrid()
    H = np.kron(K1, eye) + np.kron(eye, K1) + np.diag((x**2 + y**2 - c).ravel())
    w, U = scipy.linalg.eigh(H)
    _canonicalize_signs(U)
    dense = SpectralDecomposition(ShiftedHermite(c), dom, "Dense", w, vectors=U / np.sqrt(dom.cell_volume))
    return H, dense


@pytest.fixture(scope="module")
def hermite_2d_pair():
    """(assembled H, its dense decomposition, the factored one) per (m, c)."""
    built = {}

    def pair(m, c):
        if (m, c) not in built:
            dom = make_grid(2, 6.0, m, periodic=False)
            built[m, c] = (*assembled_hermite_2d(dom, c), diagonalize(ShiftedHermite(c), dom))
        return built[m, c]

    return pair


GRIDS_2D = pytest.mark.parametrize("m, c", [(16, 0.0), (16, 3.0), (24, 0.0), (24, 3.0)])


@GRIDS_2D
def test_factored_hermite_eigenvalues_match_the_dense_solve(hermite_2d_pair, m, c):
    _, dense, factored = hermite_2d_pair(m, c)
    np.testing.assert_allclose(factored.eigenvalues, dense.eigenvalues, rtol=1e-12, atol=0.0)


@GRIDS_2D
def test_factored_hermite_cluster_projectors_match_the_dense_solve(hermite_2d_pair, m, c):
    # a cluster ends where the dense spectrum jumps; the first seven levels
    _, dense, factored = hermite_2d_pair(m, c)
    ends = [d for d in range(1, 29) if dense.eigenvalues[d] - dense.eigenvalues[d - 1] > 0.5]
    assert ends == [1, 3, 6, 10, 15, 21, 28]
    vol = dense.domain.cell_volume
    for d in ends:
        P_dense = dense.vectors[:, :d] @ dense.vectors[:, :d].T * vol
        P_factored = factored.vectors[:, :d] @ factored.vectors[:, :d].T * vol
        assert np.abs(P_factored - P_dense).max() < 1e-12


@pytest.mark.parametrize("c", [0.0, 3.0])
def test_factored_hermite_spectral_constants_match_the_dense_solve(hermite_2d_pair, c):
    # at m = 16 the levels sit 4e-7 or more off the integer thresholds, so
    # d(k) is decided by the discretization and not by roundoff (at m = 24
    # they sit within 1e-12 of them)
    _, dense, factored = hermite_2d_pair(16, c)
    ks = list(range(1, 7))
    assert np.array_equal(
        np.searchsorted(factored.eigenvalues, ks, side="right"),
        np.searchsorted(dense.eigenvalues, ks, side="right"),
    )
    half = make_set(dense.domain, HalfSpace(offset=0.0))
    np.testing.assert_allclose(
        spectral_constant_curve(factored, half, ks).constants,
        spectral_constant_curve(dense, half, ks).constants,
        rtol=1e-9,
    )


@GRIDS_2D
def test_factored_hermite_ground_state_probe_matches_the_dense_solve(hermite_2d_pair, m, c):
    _, dense, factored = hermite_2d_pair(m, c)
    half = make_set(dense.domain, HalfSpace(offset=0.0))
    claim = ObservationClaim(C=1.0, T=1.0, alpha=0.0)
    want = falsify_hermite_ground_state(dense, half, claim)
    got = falsify_hermite_ground_state(factored, half, claim)
    assert got.violated == want.violated
    assert got.lhs == pytest.approx(want.lhs, rel=1e-12)
    assert got.observation == pytest.approx(want.observation, rel=1e-12)
    assert got.margin == pytest.approx(want.margin, abs=1e-12)


@GRIDS_2D
def test_factored_hermite_residual_bounds_the_assembled_residual(hermite_2d_pair, m, c):
    H, _, factored = hermite_2d_pair(m, c)
    U = factored.vectors * np.sqrt(factored.domain.cell_volume)
    w = factored.eigenvalues
    direct = np.linalg.norm(H @ U - U * w, axis=0) / np.maximum(1.0, np.abs(w))
    assert factored.max_residual >= direct.max()
    assert factored.max_residual < 1e-12


def test_factored_hermite_ignores_solver_signs(monkeypatch):
    dom = make_grid(2, 6.0, 24, periodic=False)
    plain = diagonalize(ShiftedHermite(c=3.0), dom)
    rng = np.random.default_rng(11)
    solved = []

    def scrambled_eigh(H):
        w, U = scipy.linalg.eigh(H)
        U[:, rng.random(U.shape[1]) < 0.5] *= -1.0
        solved.append(H.shape)
        return w, U

    monkeypatch.setattr(operators, "_dense_eigh", scrambled_eigh)
    flipped = diagonalize(ShiftedHermite(c=3.0), dom)
    assert solved == [(24, 24)]  # one factor solve, no 2D matrix
    assert np.array_equal(flipped.eigenvalues, plain.eigenvalues)
    assert np.array_equal(flipped.vectors, plain.vectors)
    assert flipped.max_residual == plain.max_residual


def test_factored_hermite_clusters_carry_the_tensor_hermite_basis():
    # equal sums tie, and ties keep the order of i * m + j: (0, 1) before (1, 0)
    dom = make_grid(2, 6.0, 24, periodic=False)
    dec = diagonalize(ShiftedHermite(), dom)
    basis = hermite_basis(2, 1, dom)
    for j, alpha in enumerate([(0, 0), (0, 1), (1, 0)]):
        overlap = inner_product(eigenfunction(dec, j), basis.functions[alpha])
        assert overlap.real > 0.99


# ---------------------------------------------------------------------------
# mirror-symmetric 1D Schrodinger from its parity blocks


def full_solve(dom, potential):
    """Eigenpairs of the whole K + diag(V), signs pinned, vectors unscaled."""
    w, U = operators._dense_eigh(operators._sine_laplacian(dom) + np.diag(potential))
    _canonicalize_signs(U)
    return w, U


def gathered_laplacian(dom):
    t = operators._sine_symbol(dom)
    i, j = np.indices(dom.shape * 2)
    return t[np.abs(i - j)] - t[i + j + 1]


@pytest.fixture(scope="module")
def cosine_well():
    # confining, mirror-symmetric and not the harmonic oscillator
    dom = make_grid(1, 10.0, 256, periodic=False)
    pot = from_callable(dom, lambda x: x**2 - 4.0 + 0.5 * np.cos(2.0 * x))
    assert np.array_equal(pot.values, pot.values[::-1])
    return Schrodinger(potential=pot), dom


@pytest.mark.parametrize("m", [8, 64, 256])
def test_gathered_sine_laplacian_matches_the_product(m):
    dom = make_grid(1, 10.0, m, periodic=False)
    K = gathered_laplacian(dom)
    product = operators._sine_laplacian(dom)
    assert np.abs(K - product).max() <= 1e-12 * np.abs(product).max()
    assert np.array_equal(K, K.T)
    assert np.array_equal(K, K[::-1, ::-1])


def test_split_solve_matches_the_full_solve(cosine_well, monkeypatch):
    spec, dom = cosine_well
    solved = []

    def recording_eigh(H):
        solved.append(H.shape)
        return scipy.linalg.eigh(H)

    monkeypatch.setattr(operators, "_dense_eigh", recording_eigh)
    dec = diagonalize(spec, dom)
    assert solved == [(128, 128), (128, 128)]  # two parity blocks, no 256-wide H
    w, U = full_solve(dom, spec.potential.values)
    assert np.all(np.abs(dec.eigenvalues - w) <= 1e-12 * np.maximum(1.0, np.abs(w)))
    basis = basis_block(dec, np.arange(dom.cell_count))
    vectors = basis * np.sqrt(dom.cell_volume)
    P_split = vectors[:, :20] @ vectors[:, :20].T
    P_full = U[:, :20] @ U[:, :20].T
    assert np.abs(P_split - P_full).max() < 1e-10
    # equal only to roundoff, hence a new cache convention
    assert not np.array_equal(vectors, U)
    assert dec.max_residual <= operators._RESIDUAL_TOL
    pinned = np.array(basis)
    _canonicalize_signs(pinned)
    assert np.array_equal(pinned, basis)
    # parity alternates up the spectrum: even ground state, odd first excited
    assert np.array_equal(vectors[:, 0], vectors[::-1, 0])
    assert np.array_equal(vectors[:, 1], -vectors[::-1, 1])


def test_split_block_residual_is_the_full_residual(cosine_well, monkeypatch):
    # one eigenvalue of the odd block is off by 4e-9 relative; its column's
    # residual against the assembled K + diag(V) decides max_residual
    spec, dom = cosine_well
    blocks = []

    def detuned_eigh(H):
        w, U = scipy.linalg.eigh(H)
        if blocks:
            w[5] += 4e-9 * max(1.0, abs(w[5]))
        blocks.append(H.shape)
        return w, U

    monkeypatch.setattr(operators, "_dense_eigh", detuned_eigh)
    dec = diagonalize(spec, dom)
    H = gathered_laplacian(dom) + np.diag(spec.potential.values)
    U, w = basis_block(dec, np.arange(dom.cell_count)) * np.sqrt(dom.cell_volume), dec.eigenvalues
    whole = np.linalg.norm(H @ U - U * w, axis=0) / np.maximum(1.0, np.abs(w))
    assert dec.max_residual == pytest.approx(float(whole.max()), rel=1e-4)
    assert np.array_equal(U[:, int(np.argmax(whole))], -U[::-1, int(np.argmax(whole))])


def assembled_parity_basis(dom, potential):
    """Eigenvalues and the scaled m x m basis of the parity split, assembled the old way.

    Both blocks come from one gather of T and R over all (m/2)^2 index
    pairs; the columns [a; +-Ja] / sqrt(2) are placed in ascending order
    (ties even first) and their signs pinned on the whole matrix.
    """
    m = dom.points_per_axis
    half = m // 2
    t = operators._sine_symbol(dom)
    i = np.arange(half)
    s, d = np.add.outer(i, i), np.subtract.outer(i, i)
    T = t[np.abs(d)] - t[s + 1]
    R = t[m - 1 - s] - t[m + d]
    solved = []
    for parity in (1.0, -1.0):
        B = T + R if parity > 0 else T - R
        B[i, i] += potential[:half]
        solved.append((parity, *scipy.linalg.eigh(B)))
    position = np.empty(m, dtype=int)
    position[np.argsort(np.concatenate([solved[0][1], solved[1][1]]), kind="stable")] = np.arange(m)
    w, U = np.empty(m), np.empty((m, m))
    for (parity, wb, a), cols in zip(solved, (position[:half], position[half:])):
        a /= np.sqrt(2.0)
        U[:half, cols] = a
        U[half:, cols] = parity * a[::-1]
        w[cols] = wb
    _canonicalize_signs(U)
    return w, U / np.sqrt(dom.cell_volume)


def test_parity_blocks_are_the_assembled_basis_bit_for_bit(cosine_well):
    spec, dom = cosine_well
    dec = diagonalize(spec, dom)
    w, U = assembled_parity_basis(dom, spec.potential.values)
    assert dec.vectors is None
    assert np.array_equal(dec.eigenvalues, w)
    assert np.array_equal(basis_block(dec, np.arange(dom.cell_count)), U)
    assert np.array_equal(basis_block(dec, [7, 2, 7]), U[:, [7, 2, 7]])


def test_parity_split_holds_no_full_size_array():
    # the peak of the solve stays below 1.5 m x m float64 arrays (the old
    # assembly held U and the (m/2)^2 gather and index temporaries at once)
    dom = make_grid(1, 10.0, 1024, periodic=False)
    spec = Schrodinger(potential=from_callable(dom, lambda x: x**2 - 4.0))
    tracemalloc.start()
    try:
        dec = diagonalize(spec, dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.parity_blocks is not None
    assert peak < 1.5 * 8 * dom.cell_count**2
    for name in ("eigenvalues", "order", "vectors", "parity_blocks"):
        array = getattr(dec, name)
        assert array is None or array.size <= dom.cell_count**2 // 2


@pytest.mark.parametrize(
    "m, tilt",
    [(256, 0.1), (65, 0.0)],
    ids=["asymmetric-potential", "odd-m"],
)
def test_full_solve_is_kept_without_a_mirror_symmetry(m, tilt):
    # an odd grid has no reflection-paired halves, even for an exactly
    # mirror-symmetric V
    dom = GridDomain(dim=1, half_width=10.0, points_per_axis=m, periodic=False)
    values = from_callable(dom, lambda x: x**2 - 4.0 + 0.5 * np.cos(2.0 * x)).values
    values = 0.5 * (values + values[::-1]) + tilt * dom.axis_coords()
    assert np.array_equal(values, values[::-1]) == (tilt == 0.0)
    pot = grid_function(dom, values)
    dec = diagonalize(Schrodinger(potential=pot), dom)
    w, U = full_solve(dom, pot.values)
    assert np.array_equal(dec.eigenvalues, w)
    assert np.array_equal(dec.vectors, U / np.sqrt(dom.cell_volume))


# ---------------------------------------------------------------------------
# coefficient transforms


@pytest.mark.parametrize("kind", ["fourier", "dense"])
def test_parseval(kind, hermite_dec, frac_dec, rng):
    dec = frac_dec if kind == "fourier" else hermite_dec
    f = random_state(dec.domain, rng, complex_valued=(kind == "fourier"))
    c = to_coefficients(dec, f)
    assert np.sum(np.abs(c) ** 2) == pytest.approx(norm(f) ** 2, rel=1e-12)


@pytest.mark.parametrize("kind", ["fourier", "dense"])
def test_coefficient_roundtrip(kind, hermite_dec, frac_dec, rng):
    dec = frac_dec if kind == "fourier" else hermite_dec
    f = random_state(dec.domain, rng)
    g = from_coefficients(dec, to_coefficients(dec, f))
    assert np.allclose(g.values, f.values, atol=1e-12)


@pytest.mark.parametrize("kind", ["fourier", "dense"])
def test_eigenfunctions_have_unit_coefficients(kind, hermite_dec, frac_dec):
    dec = frac_dec if kind == "fourier" else hermite_dec
    for j in (0, 3, 17):
        c = to_coefficients(dec, eigenfunction(dec, j))
        expected = np.zeros(dec.domain.cell_count)
        expected[j] = 1.0
        assert np.allclose(c, expected, atol=1e-10)


@pytest.mark.parametrize(
    "spec,dom",
    [
        (FractionalLaplacian(s=1.0), make_grid(1, 10.0, 64, periodic=True)),
        (FractionalLaplacian(s=0.5), make_grid(2, 5.0, 16, periodic=True)),
        (ShiftedHermite(c=1.0), make_grid(1, 8.0, 64, periodic=False)),
        (ShiftedHermite(), make_grid(2, 6.0, 12, periodic=False)),
        (Schrodinger(potential=from_callable(make_grid(1, 8.0, 64, periodic=False), lambda x: x**2)),
         make_grid(1, 8.0, 64, periodic=False)),
    ],
    ids=["fourier-1d", "fourier-2d", "dense-1d", "dense-2d", "parity-1d"],
)
def test_coefficients_of_a_stack_are_the_columns_of_its_states(spec, dom, rng):
    dec = diagonalize(spec, dom)
    values = rng.standard_normal((5,) + dom.shape)
    cols = np.stack([to_coefficients(dec, grid_function(dom, v)) for v in values], axis=1)
    got = to_coefficients(dec, values)
    assert got.shape == (dom.cell_count, 5)
    if isinstance(spec, FractionalLaplacian):
        assert np.array_equal(got, cols)
    else:  # one product against one product per state: equal to roundoff
        assert np.abs(got - cols).max() <= 1e-14 * np.abs(cols).max()


@pytest.mark.parametrize("shape", [(511,), (512, 2), (2, 3, 512)])
def test_coefficients_reject_values_off_the_grid(frac_dec, shape):
    with pytest.raises(ValueError, match="nor a stack"):
        to_coefficients(frac_dec, np.zeros(shape))


def test_basis_block_is_orthonormal(frac_dec):
    B = basis_block(frac_dec, np.arange(6))
    G = B.conj().T @ B * frac_dec.domain.cell_volume
    assert np.allclose(G, np.eye(6), atol=1e-12)


def test_2d_fourier_basis_block():
    dom = make_grid(2, 5.0, 16, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    B = basis_block(dec, [0, 1, 5])
    G = B.conj().T @ B * dom.cell_volume
    assert np.allclose(G, np.eye(3), atol=1e-12)
    f = eigenfunction(dec, 5)
    c = to_coefficients(dec, f)
    assert abs(c[5] - 1.0) < 1e-10


@pytest.mark.parametrize("dim,m", [(1, 2048), (2, 64)])
def test_fourier_basis_block_phases_are_reduced_exactly(dim, m):
    # exp(2 pi i j k / m) with j k left unreduced loses 1e-12 at m = 2048;
    # the reference gathers the m-th roots of unity at (j k) mod m
    dom = make_grid(dim, 10.0, m, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    idx = np.arange(dom.cell_count - 40, dom.cell_count)
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    rows = np.arange(m)
    k = np.unravel_index(dec.order[idx], dom.shape)
    want = roots[np.outer(rows, k[0]) % m]
    if dim == 2:
        want = (want[:, None, :] * roots[np.outer(rows, k[1]) % m][None, :, :]).reshape(m * m, -1)
    got = basis_block(dec, idx) * (2.0 * dom.half_width) ** (dim / 2.0)
    assert np.abs(got - want).max() <= 1e-15


def restricted_norm_cases():
    return [
        (FractionalLaplacian(s=1.0), make_grid(1, 10.0, 64, periodic=True), PeriodicSlabs(period=1.0, fill_fraction=0.25)),
        (FractionalLaplacian(s=0.5), GridDomain(dim=2, half_width=5.0, points_per_axis=15, periodic=True),
         BallComplement(center=(1.0, 0.0), radius=2.0)),
        (ShiftedHermite(c=1.0), make_grid(1, 8.0, 64, periodic=False), HalfSpace(offset=0.3)),
        (ShiftedHermite(), make_grid(2, 6.0, 12, periodic=False), HalfSpace(axis=1, offset=0.0)),
        (Schrodinger(potential=from_callable(make_grid(1, 8.0, 64, periodic=False), lambda x: x**2 - 2.0)),
         make_grid(1, 8.0, 64, periodic=False), HalfSpace(offset=0.3)),
    ]


@pytest.mark.parametrize("case", range(5))
@pytest.mark.parametrize("states", [3, 70], ids=["few-states", "many-states"])
def test_restricted_norms_are_gram_quadratic_forms(case, states, rng):
    # ||chi_E w(H) f||^2 = (w c)^H G (w c) with c the coefficients of f; the
    # weights are functions of the eigenvalue, the states real and complex
    spec, dom, shape = restricted_norm_cases()[case]
    dec = diagonalize(spec, dom)
    e = make_set(dom, shape)
    gram = restricted_gram(dec, np.arange(dom.cell_count), e)
    levels, level_of = np.unique(dec.eigenvalues, return_inverse=True)
    weights = rng.standard_normal((5, levels.size))[:, level_of]
    for complex_valued in (False, True):
        values = np.stack([random_state(dom, rng, complex_valued).values for _ in range(states)])
        coeffs = np.stack([to_coefficients(dec, grid_function(dom, v)) for v in values], axis=1)
        weighted = weights[:, :, None] * coeffs[None]
        want = np.einsum("qjp,jl,qlp->qp", weighted.conj(), gram, weighted).real
        got = restricted_norms(dec, e, weights, values)
        assert got.shape == (5, states)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)


def test_restricted_norms_check_their_inputs(frac_dec, hermite_dec, rng):
    e = make_set(frac_dec.domain, HalfSpace(offset=0.0))
    values = rng.standard_normal((2,) + frac_dec.domain.shape)
    with pytest.raises(ValueError, match="different domains"):
        restricted_norms(hermite_dec, e, np.ones((1, 512)), values)
    with pytest.raises(ValueError, match="do not fit"):
        restricted_norms(frac_dec, e, np.ones((1, 511)), values)


# ---------------------------------------------------------------------------
# dense materialization


def test_dense_matrix_reproduces_dense_eigenpairs():
    # the full basis and the parity layout (V = x^2 - 4 is mirror-symmetric)
    dom = make_grid(1, 10.0, 64, periodic=False)
    for spec in (ShiftedHermite(), Schrodinger(potential=from_callable(dom, lambda x: x**2 - 4.0))):
        dec = diagonalize(spec, dom)
        assert (dec.parity_blocks is None) == isinstance(spec, ShiftedHermite)
        H = dense_matrix(dec)
        v = eigenfunction(dec, 2).values
        assert np.allclose(H @ v, dec.eigenvalues[2] * v, atol=1e-8)


def test_dense_matrix_of_multiplier_is_symmetric_with_the_right_spectrum():
    dom = make_grid(1, 10.0, 16, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    H = dense_matrix(dec)
    assert np.allclose(H, H.T, atol=1e-12)
    assert np.allclose(scipy.linalg.eigvalsh(H), dec.eigenvalues, atol=1e-10)


def test_dense_matrix_of_2d_multiplier():
    dom = make_grid(2, 5.0, 8, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    H = dense_matrix(dec)
    assert H.shape == (64, 64)
    assert np.allclose(scipy.linalg.eigvalsh(H), dec.eigenvalues, atol=1e-10)


# ---------------------------------------------------------------------------
# semigroup


def test_semigroup_at_zero_is_identity(frac_dec, rng):
    f = random_state(frac_dec.domain, rng)
    g = semigroup_apply(frac_dec, 0.0, f)
    assert np.allclose(g.values, f.values, atol=1e-13)


def test_semigroup_rejects_negative_time(frac_dec, rng):
    with pytest.raises(ValueError):
        semigroup_apply(frac_dec, -0.1, random_state(frac_dec.domain, rng))
    with pytest.raises(ValueError):
        semigroup_norm(frac_dec, -1.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
def test_semigroup_law(t, s, seed):
    dom = make_grid(1, 10.0, 64, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    f = random_state(dom, np.random.default_rng(seed))
    two_step = semigroup_apply(dec, t, semigroup_apply(dec, s, f))
    one_step = semigroup_apply(dec, t + s, f)
    assert norm(grid_function(dom, two_step.values - one_step.values)) <= 1e-10 * max(1.0, norm(f))


def test_fractional_growth_identity():
    dom = make_grid(1, 10.0, 512, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0, c=2.0), dom)
    assert abs(semigroup_norm(dec, 1.0) - np.e**2) < 1e-10
    # attained on the constant mode
    one = grid_function(dom, np.ones(dom.shape))
    assert norm(semigroup_apply(dec, 1.0, one)) / norm(one) == pytest.approx(np.e**2, rel=1e-10)


def test_hermite_norm_identity():
    dec = diagonalize(ShiftedHermite(c=1.0), make_grid(1, 10.0, 512, periodic=False))
    assert abs(semigroup_norm(dec, 1.0) - 1.0) < 1e-4


def test_hermite_modes_decay_at_their_eigenrate(hermite_dec):
    basis = hermite_basis(1, 4, hermite_dec.domain)
    for k in (0, 2, 4):
        phi = basis.functions[(k,)]
        evolved = semigroup_apply(hermite_dec, 0.7, phi)
        assert norm(evolved) / norm(phi) == pytest.approx(np.exp(-0.7 * (2 * k + 1)), rel=1e-4)


# ---------------------------------------------------------------------------
# projections


def test_project_below_the_spectrum_is_zero(rng):
    dom = make_grid(1, 10.0, 64, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0, c=-5.0), dom)  # spectrum starts at 5
    f = random_state(dom, rng)
    assert np.max(np.abs(project(dec, 1.0, f).values)) < 1e-13


def test_project_above_the_spectrum_is_identity(hermite_dec, rng):
    f = random_state(hermite_dec.domain, rng)
    g = project(hermite_dec, float(hermite_dec.eigenvalues[-1]) + 1.0, f)
    assert np.allclose(g.values, f.values, atol=1e-10)


def test_project_keeps_exactly_the_ground_mode(hermite_dec, rng):
    # threshold 2 sits between the first two oscillator eigenvalues 1 and 3
    f = random_state(hermite_dec.domain, rng)
    p = project(hermite_dec, 2.0, f)
    phi0 = eigenfunction(hermite_dec, 0)
    expected = inner_product(f, phi0) * phi0.values
    assert np.allclose(p.values, expected, atol=1e-10)


@pytest.mark.parametrize("kind", ["fourier", "dense"])
def test_projection_algebra(kind, hermite_dec, frac_dec, rng):
    dec = frac_dec if kind == "fourier" else hermite_dec
    k = 4.0
    f = random_state(dec.domain, rng)
    g = random_state(dec.domain, rng)
    pf = project(dec, k, f)
    # idempotent
    assert np.allclose(project(dec, k, pf).values, pf.values, atol=1e-11)
    # self-adjoint
    assert inner_product(pf, g) == pytest.approx(inner_product(f, project(dec, k, g)), abs=1e-10)
    # commutes with the semigroup
    a = semigroup_apply(dec, 0.5, pf)
    b = project(dec, k, semigroup_apply(dec, 0.5, f))
    assert np.allclose(a.values, b.values, atol=1e-12)
    # Pythagoras
    high = grid_function(dec.domain, f.values - pf.values)
    assert norm(pf) ** 2 + norm(high) ** 2 == pytest.approx(norm(f) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# dissipative bound


def test_dissipative_margin_fractional(frac_dec):
    rep = dissipative_margin(frac_dec, 3.0, (0.1, 0.5, 1.0), trials=20)
    assert rep.max_ratio <= 1.0 + 1e-10
    assert rep.worst_t in rep.t_samples


def test_dissipative_margin_shifted_hermite():
    dec = diagonalize(ShiftedHermite(c=2.0), make_grid(1, 10.0, 256, periodic=False))
    rep = dissipative_margin(dec, 4.0, (0.1, 0.5, 1.0), trials=20)
    assert rep.max_ratio <= 1.0 + 1e-10


def grid_space_dissipative_ratios(dec, k, times, trials, seed):
    """||(1 - pi_k) e^{-tH} f|| e^{tk} per (trial, time), evaluated on the grid state by state."""
    rng = np.random.default_rng(seed)
    ratios = np.empty((trials, len(times)))
    for i in range(trials):
        f = grid_function(dec.domain, rng.standard_normal(dec.domain.shape))
        f = grid_function(dec.domain, f.values / norm(f))
        for j, t in enumerate(times):
            yt = semigroup_apply(dec, t, f)
            high = grid_function(dec.domain, yt.values - project(dec, k, yt).values)
            ratios[i, j] = norm(high) * np.exp(t * k)
    return ratios


@pytest.mark.parametrize(
    "spec,dom",
    [
        (FractionalLaplacian(s=1.0), make_grid(1, 10.0, 128, periodic=True)),
        (FractionalLaplacian(s=1.0), make_grid(2, 5.0, 24, periodic=True)),
        (ShiftedHermite(c=2.0), make_grid(1, 10.0, 256, periodic=False)),
    ],
    ids=["frac-1d", "frac-2d", "hermite-1d"],
)
@pytest.mark.parametrize("k,seed", [(1.0, 4), (3.0, 0)])
def test_dissipative_margin_matches_the_grid_space_evaluation(spec, dom, k, seed):
    dec = diagonalize(spec, dom)
    times = (0.1, 0.5, 1.0)
    ratios = grid_space_dissipative_ratios(dec, k, times, 20, seed)
    worst = np.unravel_index(np.argmax(ratios), ratios.shape)
    rep = dissipative_margin(dec, k, times, 20, seed=seed)
    assert rep.max_ratio == pytest.approx(ratios[worst], rel=1e-12)
    assert rep.worst_t == times[worst[1]]


def test_dissipative_margin_needs_trials(frac_dec):
    with pytest.raises(ValueError):
        dissipative_margin(frac_dec, 3.0, (0.5,), trials=0)


# ---------------------------------------------------------------------------
# Hermite basis


def explicit_hermite(k, x):
    """Normalized Hermite functions from the textbook polynomials (k <= 5)."""
    H = {
        0: np.ones_like(x),
        1: 2 * x,
        2: 4 * x**2 - 2,
        3: 8 * x**3 - 12 * x,
        4: 16 * x**4 - 48 * x**2 + 12,
        5: 32 * x**5 - 160 * x**3 + 120 * x,
    }[k]
    return H * np.exp(-0.5 * x**2) / np.sqrt(2.0**k * math.factorial(k) * np.sqrt(np.pi))


def test_hermite_recurrence_against_explicit_polynomials():
    dom = make_grid(1, 10.0, 512, periodic=False)
    basis = hermite_basis(1, 5, dom)
    x = dom.axis_coords()
    inner = np.abs(x) <= 5.0
    for k in range(6):
        got = basis.functions[(k,)].values[inner]
        assert np.allclose(got, explicit_hermite(k, x[inner]), atol=1e-9)


def test_hermite_ground_state_peak():
    dom = make_grid(1, 10.0, 512, periodic=False)
    phi0 = hermite_basis(1, 0, dom).functions[(0,)]
    x = dom.axis_coords()
    assert np.allclose(phi0.values, np.pi**-0.25 * np.exp(-0.5 * x**2), atol=1e-15)


def test_hermite_orthonormality():
    dom = make_grid(1, 10.0, 512, periodic=False)
    basis = hermite_basis(1, 12, dom)
    fns = [basis.functions[(k,)] for k in range(13)]
    for i in range(13):
        for j in range(i, 13):
            target = 1.0 if i == j else 0.0
            assert abs(inner_product(fns[i], fns[j]) - target) < 1e-8


def test_hermite_2d_cross_orthogonality():
    dom = make_grid(2, 8.0, 64, periodic=False)
    basis = hermite_basis(2, 3, dom)
    f10, f01 = basis.functions[(1, 0)], basis.functions[(0, 1)]
    assert abs(inner_product(f10, f01)) < 1e-8
    assert abs(inner_product(f10, f10) - 1.0) < 1e-8
    assert len(basis.functions) == 10  # all |alpha| <= 3


def test_hermite_basis_validation():
    dom = make_grid(1, 10.0, 64, periodic=False)
    with pytest.raises(ValueError):
        hermite_basis(1, 201, dom)
    with pytest.raises(ValueError):
        hermite_basis(1, -1, dom)
    with pytest.raises(ValueError):
        hermite_basis(2, 3, dom)
    with pytest.raises(ValueError):
        hermite_basis(1, 3, make_grid(1, 10.0, 64, periodic=True))


# ---------------------------------------------------------------------------
# serialization


def test_spec_json_roundtrip():
    dom = make_grid(1, 10.0, 32, periodic=False)
    pot = from_callable(dom, lambda x: x**2 - 1.0)
    specs = [
        FractionalLaplacian(s=0.75, c=1.5),
        ShiftedHermite(c=2.0),
        Schrodinger(potential=pot),
        Schrodinger(potential=pot, condition="I", delta=0.25),
    ]
    for spec in specs:
        back = spec_from_json(spec_to_json(spec))
        assert type(back) is type(spec)
        if isinstance(spec, Schrodinger):
            assert np.array_equal(back.potential.values, spec.potential.values)
            assert back.condition == spec.condition and back.delta == spec.delta
        else:
            assert back == spec


def test_spec_from_json_unknown_kind():
    with pytest.raises(ValueError):
        spec_from_json({"kind": "biharmonic"})
