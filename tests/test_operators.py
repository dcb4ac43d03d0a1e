"""Diagonalization, semigroup, projections, Hermite basis."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import cli, operators
from stabcert.domain import DomainMismatchError, GridDomain, GridFunction, content_hash, from_callable, make_grid, norm
from stabcert.feedback import build_finite_rank_feedback
from stabcert.geometry import BallComplement, HalfSpace, PeriodicSlabs, make_set
from stabcert.operators import (
    EigenResidualError,
    FractionalLaplacian,
    Schrodinger,
    ShiftedHermite,
    SpectralDecomposition,
    basis_block,
    dense_matrix,
    diagonalize,
    dissipative_margin,
    eigenfunction,
    restricted_gram,
    restricted_norms,
    semigroup_apply,
    spec_hash,
    spec_to_json,
    spectral_count,
    to_coefficients,
    _canonicalize_signs,
)
from stabcert.probes import ObservationClaim, falsify_hermite_ground_state
from stabcert.specineq import spectral_constant_curve

from reference import (
    from_coefficients,
    grid_values,
    hermite_basis,
    inner_product,
    project,
    restricted_norm_arrays,
    semigroup_norm,
)


def random_state(domain, rng, complex_valued=False):
    vals = rng.standard_normal(domain.shape)
    if complex_valued:
        vals = vals + 1j * rng.standard_normal(domain.shape)
    return GridFunction(domain, vals)


# ---------------------------------------------------------------------------
# diagonalization


def test_hermite_spectrum(hermite_dec):
    # harmonic oscillator: eigenvalues 2k + 1 in one dimension
    assert np.allclose(hermite_dec.eigenvalues[:5], [1.0, 3.0, 5.0, 7.0, 9.0], atol=1e-4)


def test_fractional_symbol_is_exact():
    dom = make_grid(1, 10.0, 256, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=2.0), dom)
    xi = dom.frequency_axis()
    assert np.array_equal(dec.basis.symbol, xi * xi)
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


def test_condition_one_takes_no_delta():
    # condition I's continuum form bound is the user's hypothesis: the grid
    # cannot check it and no figure reads it, so the spec holds no bound
    dom = make_grid(1, 10.0, 64, periodic=False)
    pot = from_callable(dom, lambda x: x**2)
    assert Schrodinger(potential=pot, condition="I").condition == "I"
    with pytest.raises(TypeError):
        Schrodinger(potential=pot, condition="I", delta=0.5)


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
    assert np.array_equal(first.basis.vectors, second.basis.vectors)


def test_an_interrupted_cache_write_keeps_the_old_file(tmp_path, monkeypatch):
    dom = make_grid(1, 10.0, 64, periodic=False)
    first = diagonalize(ShiftedHermite(c=1.0), dom, cache_dir=tmp_path)
    (path,) = tmp_path.glob("decomposition-*.npz")
    old = path.read_bytes()

    def broken_writer(member, shape, order):
        # the streamed layout array, the first member written, stops halfway
        member.write(old[: len(old) // 2])
        raise OSError("write interrupted")

    with monkeypatch.context() as patch:
        patch.setattr(operators, "_load_cached", lambda *args: None)  # a miss, so the file is rewritten
        patch.setattr(operators, "_Streamed", broken_writer)
        with pytest.raises(OSError, match="write interrupted"):
            diagonalize(ShiftedHermite(c=1.0), dom, cache_dir=tmp_path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]

    def recompute(*args):
        raise AssertionError("the old cache file was not a hit")

    monkeypatch.setattr(operators, "_diagonalize_dense", recompute)
    assert np.array_equal(diagonalize(ShiftedHermite(c=1.0), dom, cache_dir=tmp_path).basis.vectors, first.basis.vectors)


def test_an_unusable_cache_directory_fails_before_the_solve(tmp_path, monkeypatch, capsys):
    # a regular file where the cache directory should be: the config error
    # comes before any dense solve, from the library and the command alike
    def solve(*args):
        raise AssertionError("the dense solve ran")

    monkeypatch.setattr(operators, "_diagonalize_dense", solve)
    blocker = tmp_path / "cache"
    blocker.write_text("")
    with pytest.raises(FileExistsError):
        diagonalize(ShiftedHermite(), make_grid(1, 10.0, 64, periodic=False), cache_dir=blocker)
    monkeypatch.setenv("STABCERT_CACHE_DIR", str(blocker))
    assert cli.main(["spectral-constant", "--operator", "hermite", "--domain", "m=64,periodic=false",
                     "--set", "full", "--k-max", "2"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_cache_from_another_sign_convention_is_recomputed(tmp_path):
    dom = make_grid(1, 10.0, 64, periodic=False)
    first = diagonalize(ShiftedHermite(c=1.0), dom, cache_dir=tmp_path)
    (path,) = tmp_path.glob("decomposition-*.npz")
    # the layout written before eigenvector signs were pinned: no convention tag
    np.savez(path, eigenvalues=first.eigenvalues, vectors=-first.basis.vectors, max_residual=first.max_residual)
    second = diagonalize(ShiftedHermite(c=1.0), dom, cache_dir=tmp_path)
    assert np.array_equal(second.basis.vectors, first.basis.vectors)
    with np.load(path) as data:
        assert np.array_equal(data["vectors"], first.basis.vectors)


def _flip_middle_byte(path, dec):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # inside the eigenvector data, so its zip CRC fails
    path.write_bytes(bytes(raw))


def _truncate(path, dec):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _basis_arrays(dec):
    """The arrays a cache file holds for the basis of ``dec``, by name: the layout's array and ``order``."""
    name = {operators._DenseBasis: "vectors", operators._ParityBasis: "parity_blocks",
            operators._KroneckerBasis: "tensor_factor"}[type(dec.basis)]
    return {name: getattr(dec.basis, name), "order": dec.order}


def _savez(path, dec, **changes):
    fields = dict(eigenvalues=dec.eigenvalues, max_residual=dec.max_residual,
                  basis_convention=operators._BASIS_CONVENTION, **_basis_arrays(dec))
    np.savez(path, **{**fields, **changes})


def _basis_payload(dec):
    """The first basis array: the full vectors, the parity blocks or the tensor factor."""
    return next(iter(_basis_arrays(dec).items()))


def _wrong_shape(path, dec):
    name, basis = _basis_payload(dec)
    _savez(path, dec, **{name: basis[..., :-1]})


def _nan_eigenvalue(path, dec):
    eigenvalues = dec.eigenvalues.copy()
    eigenvalues[3] = np.nan
    _savez(path, dec, eigenvalues=eigenvalues)


def _descending_eigenvalues(path, dec):
    # finite and valid otherwise, but d(k) bisects the eigenvalues, so a
    # reversed spectrum would count the wrong levels
    _savez(path, dec, eigenvalues=dec.eigenvalues[::-1])


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


def _convention_six_without_order(path, dec):
    # convention 6 stored no order for the full dense basis, whose order is
    # the identity; the basis itself is the same
    fields = dict(eigenvalues=dec.eigenvalues, max_residual=dec.max_residual, basis_convention=6)
    np.savez(path, **fields, vectors=dec.basis.vectors)


def _convention_three_full_vectors(path, dec):
    # convention 3 stored the parity-split basis as the full matrix
    np.savez(path, eigenvalues=dec.eigenvalues, max_residual=dec.max_residual, basis_convention=3,
             vectors=basis_block(dec, np.arange(dec.domain.cell_count)))


def _convention_four_full_vectors(path, dec):
    # convention 4 stored the 2D Hermite basis as the full, identical matrix
    np.savez(path, eigenvalues=dec.eigenvalues, max_residual=dec.max_residual, basis_convention=4,
             vectors=basis_block(dec, np.arange(dec.domain.cell_count)))


def _convention_five_signs(path, dec):
    # convention 5 stored one sign per pair next to the same factor and order;
    # the file is otherwise readable, so only the tag makes it a miss
    signs = np.ones(dec.domain.cell_count)
    signs[::7] = -1.0
    _savez(path, dec, tensor_signs=signs, basis_convention=5)


def _parity_layout_under_hermite_key(path, dec):
    # well-formed blocks and order, but 1D Hermite is never split by parity
    half = dec.domain.cell_count // 2
    np.savez(path, eigenvalues=dec.eigenvalues, max_residual=dec.max_residual,
             basis_convention=operators._BASIS_CONVENTION,
             parity_blocks=np.stack([dec.basis.vectors[:half, :half], dec.basis.vectors[:half, half:]]),
             order=np.arange(dec.domain.cell_count))


def _cache_hermite():
    return ShiftedHermite(c=1.0), make_grid(1, 10.0, 64, periodic=False)


def _cache_tensor():
    return ShiftedHermite(c=3.0), make_grid(2, 6.0, 16, periodic=False)


def _cache_parity(m=64):
    dom = make_grid(1, 10.0, m, periodic=False)
    pot = from_callable(dom, lambda x: x**2 - 4.0 + 0.5 * np.cos(2.0 * x))
    assert np.array_equal(pot.values, pot.values[::-1])
    return Schrodinger(potential=pot), dom


_ANY_LAYOUT = [_flip_middle_byte, _truncate, _wrong_shape, _nan_eigenvalue, _descending_eigenvalues,
               _residual_above_tolerance, _previous_convention, _convention_two, _order_not_a_permutation]


@pytest.mark.parametrize(
    "case, corrupt",
    [pytest.param(_cache_hermite, f, id=f.__name__.strip("_")) for f in _ANY_LAYOUT]
    + [pytest.param(_cache_hermite, f, id=f.__name__.strip("_"))
       for f in (_parity_layout_under_hermite_key, _convention_six_without_order)]
    + [pytest.param(_cache_parity, f, id="parity-" + f.__name__.strip("_"))
       for f in _ANY_LAYOUT + [_convention_three_full_vectors]]
    + [pytest.param(_cache_tensor, f, id="tensor-" + f.__name__.strip("_"))
       for f in _ANY_LAYOUT + [_convention_four_full_vectors, _convention_five_signs]],
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
        # one writer order for every layout: the streamed layout array first
        layout_array = next(iter(_basis_arrays(first)))
        assert data.files == [layout_array, "eigenvalues", "max_residual", "basis_convention", "order"]
        assert np.array_equal(data["eigenvalues"], first.eigenvalues)
        for name, array in _basis_arrays(first).items():
            assert np.array_equal(data[name], array)


def test_parity_cache_roundtrip_halves_the_file(tmp_path):
    spec, dom = _cache_parity()
    first = diagonalize(spec, dom, cache_dir=tmp_path)
    (path,) = tmp_path.glob("decomposition-*.npz")
    second = diagonalize(spec, dom, cache_dir=tmp_path)
    assert not hasattr(second.basis, "vectors")
    assert np.array_equal(second.basis.parity_blocks, first.basis.parity_blocks)
    assert np.array_equal(second.order, first.order)
    assert np.array_equal(second.eigenvalues, first.eigenvalues)
    # two (m/2)^2 blocks: half the 8 m^2 bytes of the full matrix, plus headers
    assert path.stat().st_size < 8 * dom.cell_count**2 // 2 + 4096


def test_tensor_cache_roundtrip_stores_the_factor(tmp_path):
    spec, dom = _cache_tensor()
    first = diagonalize(spec, dom, cache_dir=tmp_path)
    (path,) = tmp_path.glob("decomposition-*.npz")
    second = diagonalize(spec, dom, cache_dir=tmp_path)
    assert not hasattr(second.basis, "vectors")
    for name in ("eigenvalues", "order"):
        assert np.array_equal(getattr(second, name), getattr(first, name))
    assert np.array_equal(second.basis.tensor_factor, first.basis.tensor_factor)
    assert second.max_residual == first.max_residual
    everything = np.arange(dom.cell_count)
    assert np.array_equal(basis_block(second, everything), basis_block(first, everything))
    # the m^2 factor and two cells-long arrays, plus headers: no cells^2 array
    m = dom.points_per_axis
    assert path.stat().st_size < 8 * (m * m + 2 * dom.cell_count) + 4096


def _schrodinger_2d():
    dom = make_grid(2, 4.0, 12, periodic=False)
    return Schrodinger(potential=from_callable(dom, lambda x, y: x**2 + y**2 + 0.3 * x)), dom


@pytest.mark.parametrize("case, layout", [
    (lambda: (FractionalLaplacian(s=1.0), make_grid(2, 5.0, 12, periodic=True)), operators._FourierBasis),
    (_cache_hermite, operators._DenseBasis),
    (_schrodinger_2d, operators._DenseBasis),
    (_cache_parity, operators._ParityBasis),
    (_cache_tensor, operators._KroneckerBasis),
], ids=["fourier", "dense-1d", "dense-2d", "parity", "tensor"])
def test_every_layout_carries_an_integer_permutation_order(case, layout):
    spec, dom = case()
    dec = diagonalize(spec, dom)
    assert type(dec.basis) is layout
    assert dec.order.dtype.kind == "i" and dec.order.shape == (dom.cell_count,)
    assert np.array_equal(np.sort(dec.order), np.arange(dom.cell_count))
    assert not dec.order.flags.writeable
    if layout is operators._DenseBasis:  # the full basis is native in ascending order
        assert np.array_equal(dec.order, np.arange(dom.cell_count))


# ---------------------------------------------------------------------------
# eigenvector sign convention


@pytest.fixture(scope="module")
def canonical_vectors():
    dec = diagonalize(ShiftedHermite(), make_grid(1, 10.0, 64, periodic=False))
    return dec.basis.vectors


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

    def scrambled_eigh(H, overwrite=False):
        w, U = scipy.linalg.eigh(H)
        flip = rng.random(U.shape[1]) < 0.5
        flip[0] = True  # the ground state, whose sign decides gram[0, 1]
        U[:, flip] *= -1.0
        return w, U

    monkeypatch.setattr(operators, "_dense_eigh", scrambled_eigh)
    flipped = diagonalize(spec, dom)
    assert np.array_equal(flipped.eigenvalues, plain.eigenvalues)
    # V = x^2 - 4 is mirror-symmetric, so the signs are pinned on the parity blocks
    assert isinstance(plain.basis, operators._ParityBasis)
    everything = np.arange(dom.cell_count)
    assert np.array_equal(basis_block(flipped, everything), basis_block(plain, everything))
    assert flipped.max_residual == plain.max_residual
    assert np.array_equal(build_finite_rank_feedback(flipped, half).gram, plain_gram)


def test_blocked_eigen_residual_matches_the_whole_matrix(monkeypatch):
    # 8 rows per strip at 64 cells, so the residual runs over 8 strips; one
    # eigenvalue is off by 4e-9 relative, so that column's residual stands
    # far above roundoff and decides max_residual
    captured = {}

    def detuned_eigh(H, overwrite=False):
        w, U = scipy.linalg.eigh(H)
        w[37] += 4e-9 * max(1.0, abs(w[37]))
        captured["H"] = H.copy()
        return w, U

    def capture_signs(U):
        _canonicalize_signs(U)
        captured["U"] = U.copy()

    monkeypatch.setattr(operators, "_BLOCK_STRIPS", 8)
    monkeypatch.setattr(operators, "_dense_eigh", detuned_eigh)
    monkeypatch.setattr(operators, "_canonicalize_signs", capture_signs)
    dom = make_grid(1, 10.0, 64, periodic=False)
    dec = diagonalize(ShiftedHermite(), dom)
    H, U, w = captured["H"], captured["U"], dec.eigenvalues
    whole = np.linalg.norm(H @ U - U * w, axis=0) / np.maximum(1.0, np.abs(w))
    assert int(np.argmax(whole)) == 37
    assert dec.max_residual == pytest.approx(float(whole.max()), rel=1e-4)
    assert np.array_equal(dec.basis.vectors, U / np.sqrt(dom.cell_volume))


def kron_operator(K1, potential):
    """The assembled K1 + diag(V) in 1D or K1 (x) I + I (x) K1 + diag(V) in 2D."""
    if potential.ndim == 1:
        return K1 + np.diag(potential)
    eye = np.eye(len(K1))
    return np.kron(K1, eye) + np.kron(eye, K1) + np.diag(potential.ravel())


@pytest.mark.parametrize("dim, m, rows", [(1, 64, 7), (1, 64, 64), (2, 12, 5), (2, 12, 144)])
def test_sine_rows_are_the_kron_matrix_bit_for_bit(dim, m, rows):
    # a potential with exact zeros and negative entries, so the signed zeros
    # of the kron terms and the sums with diag(V) are all exercised
    dom = make_grid(dim, 5.0, m, periodic=False)
    K1 = operators._sine_laplacian(dom)
    potential = np.round(np.random.default_rng(dim).standard_normal(dom.shape))
    assert (potential == 0.0).any() and (potential < 0.0).any()
    want = kron_operator(K1, potential)
    gathered, scratch = np.empty_like(want), np.empty((rows, dom.cell_count))
    for r in range(0, dom.cell_count, rows):
        operators._sine_rows(K1, potential, r, gathered[r : r + rows], scratch)
    assert np.array_equal(gathered.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dim, m, arrays", [(2, 24, 2.5), (1, 512, 3.5)])
def test_a_full_solve_holds_no_assembled_operator(dim, m, arrays):
    # H is gathered straight into the array that receives the eigenvectors:
    # that array, the solver's vectors and the strips, and in 1D the sine
    # Laplacian and its product temporaries, where assembling H first held
    # about 4 (2D) and 5 (1D) cells^2 arrays
    dom = make_grid(dim, 6.0, m, periodic=False)
    if dim == 1:
        spec = Schrodinger(potential=from_callable(dom, lambda x: x**2 - 4.0 + 0.3 * x))
    else:
        spec = Schrodinger(potential=from_callable(dom, lambda x, y: x**2 + 2.0 * y**2))
    assert operators._layout(spec, dom) is operators._DenseBasis
    tracemalloc.start()
    try:
        dec = diagonalize(spec, dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.basis.vectors.flags.f_contiguous
    assert peak < arrays * 8 * dom.cell_count**2


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
    dense = SpectralDecomposition(ShiftedHermite(c), dom, w, operators._DenseBasis(dom, U / np.sqrt(dom.cell_volume)),
                                  np.arange(dom.cell_count))
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
        V = basis_block(factored, np.arange(dense.domain.cell_count))
        P_dense = dense.basis.vectors[:, :d] @ dense.basis.vectors[:, :d].T * vol
        P_factored = V[:, :d] @ V[:, :d].T * vol
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
    U = basis_block(factored, np.arange(factored.domain.cell_count)) * np.sqrt(factored.domain.cell_volume)
    w = factored.eigenvalues
    direct = np.linalg.norm(H @ U - U * w, axis=0) / np.maximum(1.0, np.abs(w))
    assert factored.max_residual >= direct.max()
    assert factored.max_residual < 1e-12


def test_factored_hermite_ignores_solver_signs(monkeypatch):
    dom = make_grid(2, 6.0, 24, periodic=False)
    plain = diagonalize(ShiftedHermite(c=3.0), dom)
    rng = np.random.default_rng(11)
    solved = []

    def scrambled_eigh(H, overwrite=False):
        w, U = scipy.linalg.eigh(H)
        U[:, rng.random(U.shape[1]) < 0.5] *= -1.0
        solved.append(H.shape)
        return w, U

    monkeypatch.setattr(operators, "_dense_eigh", scrambled_eigh)
    flipped = diagonalize(ShiftedHermite(c=3.0), dom)
    assert solved == [(24, 24)]  # one factor solve, no 2D matrix
    assert np.array_equal(flipped.eigenvalues, plain.eigenvalues)
    everything = np.arange(dom.cell_count)
    assert np.array_equal(basis_block(flipped, everything), basis_block(plain, everything))
    assert flipped.max_residual == plain.max_residual


@pytest.mark.parametrize("m, c", [(m, c) for m in (16, 40) for c in (0.0, 3.0)])
def test_2d_hermite_is_the_1d_hermite_solve_tensored_bit_for_bit(m, c):
    # the factor of H1 (x) I + I (x) H1 - c is the 1D Hermite operator with
    # c = 0 on the same axis, solved by the same pinned eigensolve
    line = diagonalize(ShiftedHermite(0.0), make_grid(1, 6.0, m, periodic=False))
    dec = diagonalize(ShiftedHermite(c), make_grid(2, 6.0, m, periodic=False))
    sums = (line.eigenvalues[:, None] + line.eigenvalues[None, :]).ravel()
    assert np.array_equal(dec.eigenvalues, np.sort(sums, kind="stable") - c)
    assert np.array_equal(dec.basis.tensor_factor / np.sqrt(line.domain.cell_volume), line.basis.vectors)


def assembled_tensor_basis(dom, c):
    """Eigenvalues and the scaled cells x cells tensor basis, assembled in full.

    The pinned 1D eigenvectors are multiplied out over every pair in
    ascending order (ties by i * m + j): column k is U_1[:, i] (x) U_1[:, j]
    / sqrt(h), with no sign pinned on the product.
    """
    m = dom.points_per_axis
    H1 = operators._sine_laplacian(dom) + np.diag(dom.axis_coords() ** 2)
    w1, U1 = scipy.linalg.eigh(H1)
    _canonicalize_signs(U1)
    sums = (w1[:, None] + w1[None, :]).ravel()
    order = np.argsort(sums, kind="stable")
    i, j = np.divmod(order, m)
    U = (U1[:, None, i] * U1[None, :, j]).reshape(m * m, m * m)
    return sums[order] - c, U / np.sqrt(dom.cell_volume)


@pytest.fixture(scope="module")
def tensor_pair():
    """(the assembled tensor basis as a dense decomposition, the factored one) per (m, c)."""
    built = {}

    def pair(m, c):
        if (m, c) not in built:
            dom = make_grid(2, 6.0, m, periodic=False)
            w, U = assembled_tensor_basis(dom, c)
            assembled = SpectralDecomposition(ShiftedHermite(c), dom, w, operators._DenseBasis(dom, U),
                                              np.arange(dom.cell_count))
            built[m, c] = assembled, diagonalize(ShiftedHermite(c), dom)
        return built[m, c]

    return pair


TENSOR_GRIDS = pytest.mark.parametrize("m, c", [(m, c) for m in (16, 24, 40) for c in (0.0, 3.0)])


@TENSOR_GRIDS
def test_tensor_layout_is_the_assembled_basis_bit_for_bit(tensor_pair, m, c):
    assembled, factored = tensor_pair(m, c)
    cells = m * m
    assert not hasattr(factored.basis, "vectors") and factored.basis.tensor_factor.shape == (m, m)
    assert np.array_equal(factored.eigenvalues, assembled.eigenvalues)
    assert np.array_equal(basis_block(factored, np.arange(cells)), assembled.basis.vectors)
    picks = [7, 2, 7, cells - 1]
    assert np.array_equal(basis_block(factored, picks), assembled.basis.vectors[:, picks])
    e = make_set(factored.domain, BallComplement(center=(0.0, 0.0), radius=2.0))
    first = np.arange(12)
    assert np.array_equal(restricted_gram(factored, first, e), restricted_gram(assembled, first, e))


@TENSOR_GRIDS
def test_tensor_transforms_match_the_assembled_basis(tensor_pair, m, c):
    # 40 states and 3 weights: one restricted_norms pass per weight
    assembled, factored = tensor_pair(m, c)
    dom = factored.domain
    rng = np.random.default_rng(m)
    real = rng.standard_normal((40,) + dom.shape)
    e = make_set(dom, BallComplement(center=(0.0, 0.0), radius=2.0))
    weights = np.exp(-np.outer([0.1, 0.5, 1.0], factored.eigenvalues))
    for states in (real, real + 1j * rng.standard_normal(real.shape)):
        want = to_coefficients(assembled, states)
        got = to_coefficients(factored, states)
        assert got.shape == want.shape == (dom.cell_count, 40)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        single = to_coefficients(factored, states[3])
        assert np.abs(single - want[:, 3]).max() <= 1e-12 * np.abs(want).max()
        back = from_coefficients(factored, want[:, 3]).values
        back_want = from_coefficients(assembled, want[:, 3]).values
        assert np.abs(back - back_want).max() <= 1e-12 * np.abs(back_want).max()
        no_decay = np.empty((0, dom.cell_count))
        np.testing.assert_allclose(restricted_norm_arrays(factored, e, weights, no_decay, states)[0],
                                   restricted_norm_arrays(assembled, e, weights, no_decay, states)[0], rtol=1e-12, atol=0.0)


def test_tensor_layout_holds_no_cells_squared_array():
    # the parent's tensor basis alone was 8 cells^2 bytes (134 MB at m = 64)
    dom = make_grid(2, 6.0, 64, periodic=False)
    e = make_set(dom, BallComplement(center=(0.0, 0.0), radius=2.0))
    states = np.random.default_rng(3).standard_normal((8,) + dom.shape)
    tracemalloc.start()
    try:
        dec = diagonalize(ShiftedHermite(), dom)
        norms, _, _ = restricted_norm_arrays(dec, e, np.exp(-np.outer([0.5, 1.0], dec.eigenvalues)),
                                       np.empty((0, dom.cell_count)), states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norms.shape == (2, 8)
    # a pass holds a few (2 x 8, cells) arrays: about 2.2 MB, 1/60 of the basis
    assert peak < 8 * dom.cell_count**2 / 32


@pytest.mark.parametrize(
    "dim, m, make_spec, limit",
    [
        (2, 66, lambda dom: Schrodinger(potential=from_callable(dom, lambda x, y: x**2 + y**2)), 4096),
        (1, 4098, lambda dom: Schrodinger(potential=from_callable(dom, lambda x: x**2)), 4096),
        (1, 4098, lambda dom: ShiftedHermite(), 4096),
        (2, 130, lambda dom: ShiftedHermite(), 128 * 128),
    ],
    ids=["assembled-2d", "parity-1d", "hermite-1d", "tensor"],
)
def test_cell_limits_refuse_before_solving(monkeypatch, dim, m, make_spec, limit):
    dom = make_grid(dim, 10.0, m, periodic=False)

    def no_solve(H, overwrite=False):
        raise AssertionError("solved past the cell limit")

    monkeypatch.setattr(operators, "_dense_eigh", no_solve)
    message = f"dense diagonalization is limited to {limit} cells, got {dom.cell_count}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        diagonalize(make_spec(dom), dom)


def test_dense_matrix_refuses_a_large_tensor_layout():
    dec = diagonalize(ShiftedHermite(), make_grid(2, 6.0, 66, periodic=False))
    assert dec.eigenvalues.size == 66 * 66
    message = r"^refusing to materialize a dense matrix of 4356 cells \(the limit is 4096\)$"
    with pytest.raises(ValueError, match=message):
        dense_matrix(dec)


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

    def recording_eigh(H, overwrite=False):
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

    def detuned_eigh(H, overwrite=False):
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


@pytest.mark.parametrize("m", [2, 4, 6, 130, 256])
def test_parity_blocks_are_the_assembled_basis_bit_for_bit(m):
    # m = 2 is one 1 x 1 block per parity; at m = 130 the blocks are gathered
    # in strips of 4 rows, the last of which holds one row
    dom = GridDomain(dim=1, half_width=10.0, points_per_axis=m, periodic=False)
    values = from_callable(dom, lambda x: x**2 - 4.0 + 0.5 * np.cos(2.0 * x)).values
    # condition I: at m = 2 every cell is on the shell that condition II checks
    spec = Schrodinger(potential=GridFunction(dom, 0.5 * (values + values[::-1])), condition="I")
    dec = diagonalize(spec, dom)
    w, U = assembled_parity_basis(dom, spec.potential.values)
    assert not hasattr(dec.basis, "vectors")
    assert np.array_equal(dec.eigenvalues, w)
    assert np.array_equal(basis_block(dec, np.arange(dom.cell_count)), U)
    picks = np.array([7, 2, 7]) % m
    assert np.array_equal(basis_block(dec, picks), U[:, picks])


@pytest.mark.parametrize("m", [2, 6, 130])
def test_strided_parity_gather_is_the_index_gather(m):
    dom = GridDomain(dim=1, half_width=10.0, points_per_axis=m, periodic=False)
    half = m // 2
    t = operators._sine_symbol(dom)
    potential = np.random.default_rng(5).standard_normal(m)
    i = np.arange(half)
    s, d = np.add.outer(i, i), np.subtract.outer(i, i)
    for parity in (1.0, -1.0):
        B = (t[np.abs(d)] - t[s + 1]) + parity * (t[m - 1 - s] - t[m + d])
        B[i, i] += potential[:half]
        for rows in sorted({1, 3, half}):
            gathered, scratch = np.empty((half, half)), np.empty((rows, half))
            for r in range(0, half, rows):
                n = min(rows, half - r)
                operators._parity_rows(t, potential, parity, r, gathered[r : r + n], scratch)
            assert np.array_equal(gathered, B)
        assert np.array_equal(B, B.T)  # so the solver may take B.T in place


def test_parity_split_holds_no_full_size_array():
    # the peak of the solve stays below one m x m float64 array: the two
    # (m/2)^2 slots of the result, the solver's vectors and the row strips,
    # with no copy of a block for the solver and no stacked result
    dom = make_grid(1, 10.0, 1024, periodic=False)
    spec = Schrodinger(potential=from_callable(dom, lambda x: x**2 - 4.0))
    tracemalloc.start()
    try:
        dec = diagonalize(spec, dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(dec.basis, operators._ParityBasis)
    assert peak < 1.0 * 8 * dom.cell_count**2
    for array in (dec.eigenvalues, dec.order, getattr(dec.basis, "vectors", None), dec.basis.parity_blocks):
        assert array is None or array.size <= dom.cell_count**2 // 2


def _peak_of(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_cached_parity_solve_streams_each_block_into_the_file(tmp_path):
    # each block is solved, pinned and scaled in one (m/2)^2 buffer and
    # written to the cache file before the next is gathered; the cold command
    # returns the file read back.  In place inside the (2, m/2, m/2) result
    # the uncached solve peaks at about 3.1 (m/2)^2 arrays; the cached one
    # held the result, the solver's vectors and the writer's copy (4.0).  The
    # parity case of the next test holds the bits of all three equal
    spec, dom = _cache_parity(1024)
    unit = 8 * (dom.cell_count // 2) ** 2
    _, uncached_peak = _peak_of(lambda: diagonalize(spec, dom))
    cold, cold_peak = _peak_of(lambda: diagonalize(spec, dom, cache_dir=tmp_path))
    assert isinstance(cold.basis, operators._ParityBasis)
    assert cold_peak < 2.5 * unit
    assert uncached_peak <= 3.2 * unit


@pytest.mark.parametrize("case", [_cache_hermite, _schrodinger_2d, lambda: _cache_parity(1024), _cache_tensor],
                         ids=["dense-1d", "dense-2d", "parity", "tensor"])
def test_cold_warm_and_uncached_solves_agree_bit_for_bit(tmp_path, case):
    # a cold cached command returns the file it wrote, read back by the
    # loader a warm one uses: the same bits and memory order as in memory
    spec, dom = case()
    uncached = diagonalize(spec, dom)
    name = uncached.basis.member
    for dec in (diagonalize(spec, dom, cache_dir=tmp_path), diagonalize(spec, dom, cache_dir=tmp_path)):
        for got, want in [(dec.eigenvalues, uncached.eigenvalues), (dec.order, uncached.order),
                          (getattr(dec.basis, name), getattr(uncached.basis, name))]:
            assert got.dtype == want.dtype and got.tobytes("A") == want.tobytes("A")
            assert got.flags.f_contiguous == want.flags.f_contiguous
        assert dec.max_residual == uncached.max_residual


def test_a_solve_that_fails_between_blocks_keeps_the_old_file(tmp_path, monkeypatch):
    # block 0 is already streamed into the temporary file when block 1's
    # solve fails: the old file stays byte for byte, and no temporary is left
    spec, dom = _cache_parity()
    first = diagonalize(spec, dom, cache_dir=tmp_path)
    (path,) = tmp_path.glob("decomposition-*.npz")
    _previous_convention(path, first)  # a miss, so the file is rewritten
    old = path.read_bytes()
    calls = []

    def fails_on_the_second_block(H, overwrite=False):
        calls.append(len(H))
        if len(calls) == 2:
            raise np.linalg.LinAlgError("block 1 did not converge")
        return scipy.linalg.eigh(H, overwrite_a=True)

    monkeypatch.setattr(operators, "_dense_eigh", fails_on_the_second_block)
    with pytest.raises(np.linalg.LinAlgError, match="block 1"):
        diagonalize(spec, dom, cache_dir=tmp_path)
    assert calls == [dom.cell_count // 2] * 2
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_a_cache_file_that_cannot_be_read_back_is_an_internal_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(operators, "_load_cached", lambda *args: None)
    spec, dom = _cache_parity()
    with pytest.raises(RuntimeError, match="cannot be read back"):
        diagonalize(spec, dom, cache_dir=tmp_path)
    monkeypatch.setenv("STABCERT_CACHE_DIR", str(tmp_path))
    assert cli.main(["spectral-constant", "--operator", "hermite", "--domain", "m=64,periodic=false",
                     "--set", "full", "--k-max", "2"]) == 3
    assert capsys.readouterr().err.startswith("internal error: the decomposition cache file ")


@pytest.mark.parametrize("tilt", [0.0, 0.1], ids=["parity-split", "full-solve"])
def test_nan_eigenvector_fails_the_residual_gate(monkeypatch, tilt):
    dom = make_grid(1, 10.0, 64, periodic=False)
    spec = Schrodinger(potential=from_callable(dom, lambda x: x**2 - 4.0 + tilt * x))
    assert (operators._layout(spec, dom) is operators._ParityBasis) == (tilt == 0.0)

    def nan_eigh(H, overwrite=False):
        w, U = scipy.linalg.eigh(H)
        U[:, 3] = np.nan
        return w, U

    monkeypatch.setattr(operators, "_dense_eigh", nan_eigh)
    with pytest.raises(EigenResidualError, match="nan"):
        diagonalize(spec, dom)


def test_spec_hash_is_the_potential_bytes(tmp_path):
    dom = make_grid(1, 10.0, 64, periodic=False)
    values = from_callable(dom, lambda x: x**2 - 4.0).values

    def key(v, **kw):
        return spec_hash(Schrodinger(potential=GridFunction(dom, v), **kw), dom)

    assert key(values.copy()) == key(values.copy())
    bumped = values.copy()
    bumped[17] = np.nextafter(bumped[17], np.inf)
    assert key(bumped) != key(values)
    assert key(values, condition="I") != key(values)
    # the cache file is named by the same key
    diagonalize(Schrodinger(potential=GridFunction(dom, values)), dom, cache_dir=tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [f"decomposition-{key(values)}.npz"]


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
    pot = GridFunction(dom, values)
    dec = diagonalize(Schrodinger(potential=pot), dom)
    w, U = full_solve(dom, pot.values)
    assert np.array_equal(dec.eigenvalues, w)
    assert np.array_equal(dec.basis.vectors, U / np.sqrt(dom.cell_volume))


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
    cols = np.stack([to_coefficients(dec, GridFunction(dom, v)) for v in values], axis=1)
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


def synthesis_cases():
    return [
        (FractionalLaplacian(s=1.0), make_grid(1, 10.0, 64, periodic=True)),
        (FractionalLaplacian(s=0.5), make_grid(2, 5.0, 16, periodic=True)),
        (ShiftedHermite(c=1.0), make_grid(1, 8.0, 64, periodic=False)),
        (Schrodinger(potential=from_callable(make_grid(1, 8.0, 64, periodic=False), lambda x: x**2)),
         make_grid(1, 8.0, 64, periodic=False)),
        (ShiftedHermite(), make_grid(2, 6.0, 12, periodic=False)),
    ]


@pytest.mark.parametrize("case", range(5), ids=["fourier-1d", "fourier-2d", "full-1d", "parity-1d", "tensor-2d"])
@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
def test_synthesis_inverts_the_coefficient_transform(case, complex_valued, rng):
    # grid_values is the one synthesis of every layout: single states and
    # stacks come back from their coefficients, through from_coefficients too
    spec, dom = synthesis_cases()[case]
    dec = diagonalize(spec, dom)
    layout = getattr(dec.basis, ["symbol", "symbol", "vectors", "parity_blocks", "tensor_factor"][case], None)
    assert layout is not None
    values = np.stack([random_state(dom, rng, complex_valued).values for _ in range(4)])
    tol = 1e-13 * np.abs(values).max()
    for f in values:
        c = to_coefficients(dec, f)
        single = grid_values(dec, c)
        assert single.shape == (dom.cell_count,)
        assert np.abs(single - f.ravel()).max() <= tol
        assert np.abs(from_coefficients(dec, c).values - f).max() <= tol
    back = grid_values(dec, to_coefficients(dec, values))
    assert back.shape == (dom.cell_count, 4)
    assert np.abs(back - values.reshape(4, -1).T).max() <= tol


@pytest.mark.parametrize("dim,m", [(1, 64), (2, 16)])
def test_fourier_spectral_apply_is_the_fft_multiplier(dim, m, rng, monkeypatch):
    # the Fourier fast path that spectral_apply no longer has, kept here as
    # the reference: scatter the weights into FFT layout and multiply there;
    # a real state goes through the real inverse FFT, never the complex one
    dec = diagonalize(FractionalLaplacian(s=1.0, c=0.5), make_grid(dim, 10.0, m, periodic=True))
    weights = np.exp(-0.3 * dec.eigenvalues)
    w = np.empty_like(weights)
    w[dec.order] = weights
    for complex_valued in (False, True):
        f = random_state(dec.domain, rng, complex_valued)
        want = np.fft.ifftn(w.reshape(dec.domain.shape) * np.fft.fftn(f.values))
        with monkeypatch.context() as patch:
            if not complex_valued:
                def refuse(*args, **kwargs):
                    raise AssertionError("a real Fourier state went through the complex inverse FFT")

                patch.setattr(np.fft, "ifftn", refuse)
            got = operators.spectral_apply(dec, weights, f).values
        assert got.dtype == (np.complex128 if complex_valued else np.float64)
        if not complex_valued:
            want = want.real
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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
        coeffs = np.stack([to_coefficients(dec, GridFunction(dom, v)) for v in values], axis=1)
        weighted = weights[:, :, None] * coeffs[None]
        want = np.einsum("qjp,jl,qlp->qp", weighted.conj(), gram, weighted).real
        got, _, _ = restricted_norm_arrays(dec, e, weights, np.empty((0, dom.cell_count)), values)
        assert got.shape == (5, states)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)


def scipy_fft_restricted_norms(dec, e, weights, states):
    # the Fourier branch of restricted_norms as it was written on scipy.fft:
    # real transforms for real states, complex ones otherwise, all in one pass
    dom = dec.domain
    grid = np.empty(weights.shape)
    grid[:, dec.order] = weights
    grid = grid.reshape((-1,) + dom.shape)
    state_axes = tuple(range(1, dom.dim + 1))
    pass_axes = tuple(a + 1 for a in state_axes)
    if np.isrealobj(states):
        spectra = scipy.fft.rfftn(states, axes=state_axes)
        half = grid[..., : spectra.shape[-1]]
        y = scipy.fft.irfftn(half[:, None] * spectra[None], s=dom.shape, axes=pass_axes)
    else:
        y = scipy.fft.ifftn(grid[:, None] * scipy.fft.fftn(states, axes=state_axes)[None], axes=pass_axes)
    return (np.abs(y) ** 2 * e.cells).reshape(y.shape[:2] + (-1,)).sum(axis=-1) * dom.cell_volume


@pytest.mark.parametrize("case", [0, 1], ids=["fourier-1d", "fourier-2d"])
def test_fourier_restricted_norms_match_the_scipy_fft_path(case, rng):
    spec, dom, shape = restricted_norm_cases()[case]
    dec = diagonalize(spec, dom)
    e = make_set(dom, shape)
    levels, level_of = np.unique(dec.eigenvalues, return_inverse=True)
    weights = rng.standard_normal((4, levels.size))[:, level_of]
    for complex_valued in (False, True):
        values = np.stack([random_state(dom, rng, complex_valued).values for _ in range(6)])
        want = scipy_fft_restricted_norms(dec, e, weights, values)
        got = restricted_norm_arrays(dec, e, weights, np.empty((0, dom.cell_count)), values)[0]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def symmetric_well(dom):
    return Schrodinger(potential=from_callable(dom, lambda x: x**2 - 2.0))


MAGNITUDE_CASES = {
    "fourier-1d": lambda: (FractionalLaplacian(s=1.0), make_grid(1, 10.0, 64, periodic=True)),
    "fourier-2d": lambda: (FractionalLaplacian(s=0.5), make_grid(2, 10.0, 40, periodic=True)),
    "fourier-2d-odd-m": lambda: (FractionalLaplacian(s=1.0),
                                 GridDomain(dim=2, half_width=5.0, points_per_axis=15, periodic=True)),
    "assembled": lambda: (ShiftedHermite(c=1.0), make_grid(1, 8.0, 64, periodic=False)),
    "parity": lambda: (symmetric_well(make_grid(1, 8.0, 64, periodic=False)), make_grid(1, 8.0, 64, periodic=False)),
    "tensor": lambda: (ShiftedHermite(), make_grid(2, 6.0, 12, periodic=False)),
}


@pytest.mark.parametrize("layout", sorted(MAGNITUDE_CASES))
def test_restricted_norms_return_the_squared_coefficients(layout, rng):
    # 90 random states span three chunks of real FFTs at 2D m = 40; the
    # constant state and the one alternating along the last axis put all
    # their weight on the k = 0 and k = m/2 columns, their own mirrors
    spec, dom = MAGNITUDE_CASES[layout]()
    dec = diagonalize(spec, dom)
    assert isinstance(dec.basis, operators._ParityBasis) == (layout == "parity")
    assert isinstance(dec.basis, operators._KroneckerBasis) == (layout == "tensor")
    e = make_set(dom, HalfSpace(offset=0.0))
    alternating = np.broadcast_to((-1.0) ** np.arange(dom.points_per_axis), dom.shape)
    real = np.concatenate([rng.standard_normal((90,) + dom.shape), np.ones((1,) + dom.shape), alternating[None]])
    levels, level_of = np.unique(dec.eigenvalues, return_inverse=True)
    indicators = (level_of == np.arange(levels.size)[:, None]).astype(float)
    for states in (real, real + 1j * rng.standard_normal(real.shape)):
        # the decay sums of one indicator row per level are the level sums of the squares
        _, sums, _ = restricted_norm_arrays(dec, e, np.ones((1, dom.cell_count)), indicators, states)
        want = indicators @ np.abs(to_coefficients(dec, states)) ** 2
        assert sums.shape == want.shape == (levels.size, len(states))
        assert np.all(np.abs(sums - want) <= 1e-13 * want.max(axis=0))


FOLD_GRIDS = {
    "1d-even-m": GridDomain(dim=1, half_width=10.0, points_per_axis=64, periodic=True),
    "1d-odd-m": GridDomain(dim=1, half_width=10.0, points_per_axis=63, periodic=True),
    "2d-even-m": GridDomain(dim=2, half_width=5.0, points_per_axis=16, periodic=True),
    "2d-odd-m": GridDomain(dim=2, half_width=5.0, points_per_axis=15, periodic=True),
}


@pytest.mark.parametrize("grid", sorted(FOLD_GRIDS))
def test_real_fourier_passes_fold_to_the_complex_pass(grid, rng):
    # a real stack takes the rfftn pass, whose decay rows are folded onto the
    # half spectrum; cast to complex it takes the full spectrum.  The constant
    # state sits on last-axis index 0 and, for even m, the alternating one on
    # m/2: the columns that are their own mirrors and count once
    dom = FOLD_GRIDS[grid]
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    e = make_set(dom, HalfSpace(offset=0.0))
    levels, level_of = np.unique(dec.eigenvalues, return_inverse=True)
    weights = rng.standard_normal((3, levels.size))[:, level_of]
    decay = rng.uniform(0.5, 1.5, (4, levels.size))[:, level_of]
    alternating = np.broadcast_to((-1.0) ** np.arange(dom.points_per_axis), dom.shape)
    real = np.concatenate([rng.standard_normal((20,) + dom.shape), np.ones((1,) + dom.shape), alternating[None]])
    got = restricted_norm_arrays(dec, e, weights, decay, real)
    want = restricted_norm_arrays(dec, e, weights, decay, real.astype(complex))
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)


def test_restricted_norms_check_their_inputs(frac_dec, hermite_dec, rng):
    e = make_set(frac_dec.domain, HalfSpace(offset=0.0))
    values = rng.standard_normal((2,) + frac_dec.domain.shape)
    # the checks run when the first chunk is asked for
    with pytest.raises(DomainMismatchError, match="set lives on a different domain"):
        next(restricted_norms(hermite_dec, e, np.ones((1, 512)), np.empty((0, 512)), values))
    with pytest.raises(ValueError, match="do not fit"):
        next(restricted_norms(frac_dec, e, np.ones((1, 511)), np.empty((0, 512)), values))


# ---------------------------------------------------------------------------
# dense materialization


def test_dense_matrix_reproduces_dense_eigenpairs():
    # the full basis and the parity layout (V = x^2 - 4 is mirror-symmetric)
    dom = make_grid(1, 10.0, 64, periodic=False)
    for spec in (ShiftedHermite(), Schrodinger(potential=from_callable(dom, lambda x: x**2 - 4.0))):
        dec = diagonalize(spec, dom)
        assert (not isinstance(dec.basis, operators._ParityBasis)) == isinstance(spec, ShiftedHermite)
        H = dense_matrix(dec)
        v = eigenfunction(dec, 2).values
        assert np.allclose(H @ v, dec.eigenvalues[2] * v, atol=1e-8)


def test_dense_matrix_of_multiplier_is_symmetric_with_the_right_spectrum():
    dom = make_grid(1, 10.0, 16, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    H = dense_matrix(dec)
    assert np.array_equal(H, scipy.linalg.circulant(np.fft.ifft(dec.basis.symbol)).real)
    assert np.allclose(H, H.T, atol=1e-12)
    assert np.allclose(scipy.linalg.eigvalsh(H), dec.eigenvalues, atol=1e-10)


def test_dense_matrix_of_2d_multiplier():
    dom = make_grid(2, 5.0, 8, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    H = dense_matrix(dec)
    assert H.shape == (64, 64)
    assert np.allclose(scipy.linalg.eigvalsh(H), dec.eigenvalues, atol=1e-10)


def fft_of_identity(dec):
    # the 2D Fourier construction that dense_matrix no longer uses, kept as
    # the reference: every column is the multiplier applied to a unit vector
    m, cells = dec.domain.points_per_axis, dec.domain.cell_count
    eye = np.eye(cells).reshape(cells, m, m)
    return np.fft.ifftn(dec.basis.symbol[None, :, :] * np.fft.fftn(eye, axes=(1, 2)), axes=(1, 2)).reshape(cells, cells).T


def test_2d_fourier_dense_matrix_is_the_transformed_identity():
    dec = diagonalize(FractionalLaplacian(s=1.5, c=0.5), make_grid(2, 5.0, 16, periodic=True))
    want = fft_of_identity(dec)
    assert np.abs(want.imag).max() < 1e-14
    H = dense_matrix(dec)
    assert H.dtype == np.float64 and H.flags.writeable
    assert np.abs(H - want.real).max() <= 1e-14 * np.abs(want.real).max()


def test_2d_fourier_dense_matrix_holds_no_transformed_identity():
    # at m = 32 one complex cells^2 array is 16 MiB; transforming the
    # identity held several of them (56 MiB at the peak), the gather of the
    # kernel holds the float64 result and little more
    dec = diagonalize(FractionalLaplacian(s=1.0), make_grid(2, 10.0, 32, periodic=True))
    tracemalloc.start()
    try:
        H = dense_matrix(dec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert H.shape == (1024, 1024)
    assert peak < 32 * 2**20


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
    assert norm(GridFunction(dom, two_step.values - one_step.values)) <= 1e-10 * max(1.0, norm(f))


def test_fractional_growth_identity():
    dom = make_grid(1, 10.0, 512, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0, c=2.0), dom)
    assert abs(semigroup_norm(dec, 1.0) - np.e**2) < 1e-10
    # attained on the constant mode
    one = GridFunction(dom, np.ones(dom.shape))
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
    high = GridFunction(dec.domain, f.values - pf.values)
    assert norm(pf) ** 2 + norm(high) ** 2 == pytest.approx(norm(f) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# high-frequency decay ratio


def test_dissipative_margin_fractional(frac_dec):
    # |xi| on R = 10 has the levels pi n / 10: the first above k = 3 is pi
    ratio = dissipative_margin(frac_dec, [3.0], (0.1, 0.5, 1.0))
    assert ratio == pytest.approx(np.exp(-0.1 * (np.pi - 3.0)), rel=1e-12)


def test_dissipative_margin_shifted_hermite():
    # with c = 0 the levels 1, 3, 5, ... sit on odd thresholds, so which side
    # of k such a level lands on is roundoff; the ratio may come within
    # roundoff of 1, and must not pass it
    dec = diagonalize(ShiftedHermite(c=0.0), make_grid(1, 8.0, 128, periodic=False))
    thresholds = [float(k) for k in range(1, 9)]
    assert min(np.abs(dec.eigenvalues - k).min() for k in thresholds) < 1e-9
    assert np.exp(-0.1) <= dissipative_margin(dec, thresholds, (0.1, 0.5, 1.0)) <= 1.0 + 1e-10


def test_dissipative_margin_is_zero_with_no_level_above_k():
    dec = diagonalize(FractionalLaplacian(s=1.0), make_grid(1, 10.0, 16, periodic=True))
    top = float(dec.eigenvalues[-1])
    assert dissipative_margin(dec, [top, top + 1.0], (0.1, 0.5, 1.0)) == 0.0
    assert dissipative_margin(dec, [1.0, top], (0.1, 0.5, 1.0)) > 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-40, 80).map(lambda n: n / 2.0), st.floats(-20.0, 40.0)), min_size=1, max_size=30),
    st.lists(st.one_of(st.integers(-10, 20).map(float), st.floats(-20.0, 40.0)), min_size=1, max_size=8),
    st.lists(st.floats(0.0, 1e6, exclude_min=True), min_size=1, max_size=4),
)
def test_dissipative_margin_is_at_most_one(levels, thresholds, times):
    # the first level above k lies above k however the spectrum repeats or
    # sits on integer thresholds, so no ratio exceeds 1 and a verdict term
    # that bounds it by 1 could never fail
    dom = make_grid(1, 10.0, 16, periodic=True)
    dec = SpectralDecomposition(FractionalLaplacian(s=1.0), dom, np.sort(levels), None, np.arange(len(levels)))
    assert 0.0 <= dissipative_margin(dec, thresholds, times) <= 1.0


def grid_space_dissipative_ratios(dec, k, times, states):
    """||(1 - pi_k) e^{-tH} f|| e^{tk} / ||f|| per (state, time), evaluated on the grid state by state."""
    ratios = np.empty((len(states), len(times)))
    for i, f in enumerate(states):
        for j, t in enumerate(times):
            yt = semigroup_apply(dec, t, f)
            high = GridFunction(dec.domain, yt.values - project(dec, k, yt).values)
            ratios[i, j] = norm(high) * np.exp(t * k) / norm(f)
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
    # the sup over all grid states is attained by the eigenfunction of the
    # first level above k, and no random state exceeds it
    dec = diagonalize(spec, dom)
    times = (0.1, 0.5, 1.0)
    ratio = dissipative_margin(dec, [k], times)
    above = eigenfunction(dec, spectral_count(dec, k))
    assert ratio == pytest.approx(grid_space_dissipative_ratios(dec, k, times, [above]).max(), rel=1e-12)
    rng = np.random.default_rng(seed)
    states = [GridFunction(dec.domain, rng.standard_normal(dec.domain.shape)) for _ in range(20)]
    assert grid_space_dissipative_ratios(dec, k, times, states).max() <= ratio * (1.0 + 1e-12)


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


@pytest.mark.parametrize("spec, digests", [
    (FractionalLaplacian(s=0.75, c=1.5),
     ("a7b244a6e5f2066bc1b8ce8ac40f8cfdf9d585c668810b090f975ed343de726a",
      "21f70c9e4944bd118ff71a0ae04623d57f7d35d90dc1a0fdc64c502683a3f847")),
    (ShiftedHermite(c=2.0),
     ("00cf59ed3e45630c45a36eb79afc11b57f7be2ca873f8b5d171642db6753c26e",
      "adc6075b620c4776587d47760dde8eb848fe376dcfcab60f99ecec39a31e9e97")),
    (dict(),
     ("3f56814c9cd10a7b0753b5188de06e226b1194618706f6af74843462cabb9733",
      "fa750f3d28d479c56c4ab50a969e0a7e1796576c260562565e08317f394d53df")),
    (dict(condition="I"),
     ("d3f7eba41b3364e134907437d91ae96c06ade1c6d9086db44359fac2d13bb5ef",
      "c7ef54b16ea848c7aeb3ddbf4b37d686cd6459684c2b55388e4478e6bddf215f")),
], ids=["frac", "hermite", "schrodinger-II", "schrodinger-I"])
def test_spec_hash_is_the_hash_of_the_spec_document(spec, digests):
    # the document keys the decomposition cache and every result's input
    # hashes: the digests are pinned so that neither drifts
    dom = make_grid(1, 10.0, 32, periodic=False)
    if isinstance(spec, dict):  # a Schrodinger spec's keywords, beside V = x^2 - 1 on dom
        spec = Schrodinger(potential=from_callable(dom, lambda x: x**2 - 1.0), **spec)
    for parts, digest in zip(((), (dom,)), digests):
        assert spec_hash(spec, *parts) == content_hash(spec_to_json(spec), *parts) == digest
