"""Diagonalized operator families, their semigroups, and spectral projections.

Three self-adjoint families are supported on the truncated box:

* fractional Laplacian  |xi|^s - c, realized as a Fourier multiplier on a
  periodic grid (the zero frequency is on the lattice, so the semigroup
  norm identity ||e^{-tH}|| = e^{ct} is exact);
* shifted harmonic oscillator  -Lap + |x|^2 - c on a wall-bounded grid;
* Schrodinger  -Lap + V(x) with a confining or form-small potential.

The wall-bounded Laplacian is discretized by sine collocation: the functions
sin(p pi (x + R) / (2R)), p = 1..m, sampled at cell midpoints form an
orthogonal family that diagonalizes the Dirichlet Laplacian with symbol
(p pi / 2R)^2.  Spectral accuracy here matters: the certificate machinery
downstream consumes eigenvalue gaps directly, and a second-order stencil
would pollute the tenth harmonic-oscillator level at the 1e-2 scale.

Each kind takes the cheapest computation its structure allows:

* the Fourier kind's E-restricted Gram matrix is translation invariant
  (G_jl depends only on k_j - k_l), so ``restricted_gram`` gathers it from
  one FFT of the set: O(d^2) work instead of the O(|E| d^2) product of
  sampled eigenfunctions;
* ``restricted_norms`` gives ||chi_E w_q(H) f_p||^2 for a batch of weights
  and states without any Gram matrix: batched (real) FFTs in the Fourier
  kind, one product with the E rows of the eigenvectors per pass in the
  dense kinds (two half-size products per pass in the parity layout);
* 2D Hermite is diagonalized from its 1D factor (fast diagonalization);
* 1D Schrodinger with even m and a potential equal to its mirror image
  commutes with the reflection x -> -x, so it is solved as two m/2-wide
  parity blocks gathered from the closed-form Toeplitz-minus-Hankel symbol
  of the sine Laplacian (``_sine_symbol``).  Neither H nor the m x m
  eigenvector matrix is ever formed: the basis is kept as the two blocks,
  and every transform folds the grid in half and takes half-size products;
* every other dense operator (1D Hermite, 2D Schrodinger, asymmetric
  potentials, odd m) is one symmetric eigensolve of the assembled matrix,
  with the Laplacian from the sine-basis product ``_sine_laplacian``.

1D Hermite is mirror-symmetric too but keeps the full solve: its levels sit
on the integer thresholds that the certificate sweeps, roundoff decides
whether a threshold counts its level, and the split moves that roundoff.
It can take the split once the eigenvalue count carries a level tolerance.

All semigroup and projection algebra happens in the eigenbasis, so
idempotence, commutation and Pythagoras identities hold to roundoff.
"""

from __future__ import annotations

import functools
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.fft
import scipy.linalg

from .domain import (
    GridDomain,
    GridFunction,
    content_hash,
    grid_function_to_json,
    grid_function_from_json,
)
from .geometry import SetIndicator

__all__ = [
    "FractionalLaplacian",
    "ShiftedHermite",
    "Schrodinger",
    "OperatorSpec",
    "SpectralDecomposition",
    "DissipativeReport",
    "EigenResidualError",
    "HermiteBasis",
    "diagonalize",
    "spectral_count",
    "spectral_apply",
    "semigroup_apply",
    "semigroup_norm",
    "project",
    "dissipative_margin",
    "hermite_basis",
    "spec_to_json",
    "spec_from_json",
    "to_coefficients",
    "from_coefficients",
    "basis_block",
    "restricted_gram",
    "restricted_norms",
    "eigenfunction",
    "dense_matrix",
]

_DENSE_CELL_LIMIT = 4096
_RESIDUAL_TOL = 1e-8
# entries per column block of the eigen residual H U - U diag(w); a block is
# 16 MB at most, small next to H and U, and 512 columns at 4096 cells keep
# the re-reads of H cheap
_RESIDUAL_BLOCK_ENTRIES = 1 << 21
# entries per block of the temporaries of the sign pinning and of the parity
# block gather (512 KB of float64), small next to any m x m array
_SCAN_BLOCK_ENTRIES = 1 << 16
# entries below this fraction of a column's peak do not decide its sign
_SIGN_RTOL = 1e-8
# version of the convention of cached dense eigenvectors (1: pinned signs;
# 2: also the tensor basis in 2D Hermite levels; 3: also the parity-split
# solve of mirror-symmetric 1D Schrodinger, whose payloads differ at roundoff
# from the full solve's; 4: that solve stored as its two parity blocks and
# their order, not as the full matrix); a cached decomposition written under
# another convention is recomputed
_BASIS_CONVENTION = 4
# state-weight columns of `cells` entries that one restricted_norms pass
# holds at most (or the P states of one weight, when P is larger): the
# weights are taken in groups of max(1, _PASS_COLUMNS // P)
_PASS_COLUMNS = 64


class EigenResidualError(ArithmeticError):
    """A dense eigensolve returned pairs whose residual exceeds the tolerance."""


@dataclass(frozen=True)
class FractionalLaplacian:
    """Symbol |xi|^s - c on a periodic grid."""

    s: float
    c: float = 0.0

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError(f"fractional order s must be positive, got {self.s}")


@dataclass(frozen=True)
class ShiftedHermite:
    """-Lap + |x|^2 - c; spectrum 2k + n - c on the full space."""

    c: float = 0.0


@dataclass(frozen=True)
class Schrodinger:
    """-Lap + V with V either form-small below (condition I) or confining (II).

    Condition I carries the relative bound delta of the negative part; the
    form inequality itself is the caller's responsibility and is not checked
    on the grid.  Condition II is checked at diagonalization time: the
    potential must attain its minimum away from the boundary shell.
    """

    potential: GridFunction
    condition: str = "II"
    delta: Optional[float] = None

    def __post_init__(self):
        if self.condition not in ("I", "II"):
            raise ValueError(f"condition must be 'I' or 'II', got {self.condition!r}")
        if self.condition == "I":
            if self.delta is None or not (0.0 < self.delta < 1.0):
                raise ValueError("condition I requires delta in (0, 1)")


OperatorSpec = Union[FractionalLaplacian, ShiftedHermite, Schrodinger]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Operator spectrum plus an orthonormal eigenbasis on the grid.

    For the Fourier kind the basis is the explicit family
    w_k(x_j) = exp(2 pi i j.k / m) / (2R)^{n/2} in FFT layout, reindexed so
    that ``eigenvalues`` ascends; ``order`` is that permutation and
    ``symbol`` keeps the multiplier in FFT layout for fast application.
    For dense kinds ``vectors`` holds the eigenvectors columnwise,
    normalized in the discrete inner product, with the sign pinned so that
    the last entry of each column above 1e-8 of its peak magnitude is
    positive: the Hermite convention psi_k > 0 as x -> +infinity, which is
    well defined for odd eigenfunctions too.  A mirror-symmetric 1D
    Schrodinger operator (even m) is solved per parity block, so each of its
    eigenvectors is exactly even or odd, and ``vectors`` is None: the
    (2, m/2, m/2) ``parity_blocks`` B_+, B_- hold the top halves, and
    ``order`` maps ascending index j to column c of [B_+, B_-].  Column
    c < m/2 is the eigenvector [B_+[:, c]; J B_+[:, c]], column m/2 + c is
    [B_-[:, c]; -J B_-[:, c]] (J reverses rows).  Every other 1D operator,
    Hermite included, is one full solve (the module docstring says why).
    The 2D Hermite operator is diagonalized from its 1D factor, so its
    (n+1)-fold levels carry the tensor Hermite basis u_i(x) u_j(y), ties
    ordered by i * m + j.  Other 2D degenerate clusters are not fixed by a
    sign; there the basis within a cluster is the solver's, and only
    quantities invariant within a cluster (eigenvalues, projections, the
    span) are canonical.
    """

    spec: OperatorSpec
    domain: GridDomain
    basis_kind: str  # "Fourier" | "Dense"
    eigenvalues: np.ndarray
    symbol: Optional[np.ndarray] = None
    order: Optional[np.ndarray] = None
    vectors: Optional[np.ndarray] = None
    parity_blocks: Optional[np.ndarray] = None
    max_residual: float = 0.0

    def __post_init__(self):
        for name in ("eigenvalues", "symbol", "order", "vectors", "parity_blocks"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class DissipativeReport:
    k: float
    t_samples: tuple
    trials: int
    seed: int
    max_ratio: float
    worst_t: float


@dataclass(frozen=True)
class HermiteBasis:
    """Tensor Hermite functions Phi_alpha for all |alpha| <= max_degree."""

    dim: int
    max_degree: int
    domain: GridDomain
    functions: dict = field(repr=False)


# ---------------------------------------------------------------------------
# diagonalization


def _fractional_symbol(spec: FractionalLaplacian, domain: GridDomain) -> np.ndarray:
    xi = domain.frequency_axis()
    if domain.dim == 1:
        mag = np.abs(xi)
    else:
        mag = np.sqrt(xi[:, None] ** 2 + xi[None, :] ** 2)
    return mag**spec.s - spec.c


def _sine_laplacian(domain: GridDomain) -> np.ndarray:
    """Dense Dirichlet Laplacian on one axis via sine collocation."""
    m = domain.points_per_axis
    p = np.arange(1, m + 1)
    S = np.sin(np.pi * np.outer(np.arange(m) + 0.5, p) / m)
    col_norm = np.full(m, np.sqrt(m / 2.0))
    col_norm[-1] = np.sqrt(m)  # the p = m column alternates +-1 at midpoints
    Q = S / col_norm
    kappa = (np.pi * p / (2.0 * domain.half_width)) ** 2
    K = (Q * kappa) @ Q.T
    return 0.5 * (K + K.T)


def _sine_symbol(domain: GridDomain) -> np.ndarray:
    """t(n), n = 0..2m-1, with the sine-collocation Laplacian K[i, j] = t(|i - j|) - t(i + j + 1).

    sin a sin b = (cos(a - b) - cos(a + b)) / 2 makes K a Toeplitz minus a
    Hankel matrix, t(n) = sum_p kappa_p / (2 c_p^2) cos(pi n p / m) with
    c_p^2 the squared column norms of ``_sine_laplacian``: 2m times the real
    part of one length-2m inverse FFT.  t(2m - n) = t(n) is set exactly, so
    the gathered K equals its transpose and its reflection [::-1, ::-1] bit
    for bit.
    """
    m = domain.points_per_axis
    g = np.zeros(2 * m)
    g[1 : m + 1] = (np.pi * np.arange(1, m + 1) / (2.0 * domain.half_width)) ** 2 / m
    g[m] *= 0.5  # the p = m column has squared norm m, the others m / 2
    # roundoff in t(0) alone (about 3e-11 at m = 4096) shifts every level;
    # which side of an integer threshold an on-level eigenvalue lands on is
    # decided at that scale, so a change in this rounding moves d(k)
    t = np.fft.ifft(g).real * (2 * m)
    t[m + 1 :] = t[m - 1 : 0 : -1]
    return t


def _reflection_split_eigh(domain: GridDomain, potential: np.ndarray):
    """Eigenpairs, parity blocks, residuals and order of 1D -Lap + V for a mirror-symmetric V.

    With V = JV (J the reflection x -> -x) and K from ``_sine_symbol``, H
    commutes with J, so its eigenvectors are [a; +-Ja] / sqrt(2) for the
    eigenvectors a of the m/2-wide blocks T +- R + diag(V[:m/2]), where
    T[i, j] = K[i, j] and R[i, j] = K[i, m - 1 - j].  The blocks are
    gathered from t(n) without forming H, and a block's residual is that of
    the full vector.  Returned are the ascending eigenvalues and residuals,
    the (2, m/2, m/2) blocks a / sqrt(2) with pinned signs (even first), and
    the order of their columns by eigenvalue, ties even first.  A block is
    gathered in row strips of about ``_SCAN_BLOCK_ENTRIES`` indices and
    freed before the next eigensolve, so the peak stays near five (m/2)^2
    arrays (even vectors, odd block and vectors, two residual temporaries).
    """
    m = domain.points_per_axis
    half = m // 2
    t = _sine_symbol(domain)
    j = np.arange(half)
    rows = max(1, _SCAN_BLOCK_ENTRIES // half)
    values, vectors, resid = [], [], []
    for parity in (1.0, -1.0):
        B = np.empty((half, half))
        for r in range(0, half, rows):
            i = np.arange(r, min(r + rows, half))[:, None]
            s, d = i + j, i - j
            # T + R or T - R, bit for bit: +-1 * R is exact
            B[r : r + rows] = (t[np.abs(d)] - t[s + 1]) + parity * (t[m - 1 - s] - t[m + d])
        B[j, j] += potential[:half]
        wb, a = _dense_eigh(B)
        values.append(wb)
        vectors.append(a)
        resid.append(_residual_norms(B, a, wb))
        del B
        a /= np.sqrt(2.0)
        # the last significant entry of [a; parity Ja] is parity a[first
        # significant]: pin a[first] positive, then multiply by the parity
        _canonicalize_signs(a[::-1])
        a *= parity
    values, resid = np.concatenate(values), np.concatenate(resid)
    order = np.argsort(values, kind="stable")
    return values[order], np.stack(vectors), resid[order], order


def _check_confining(potential: np.ndarray):
    shell = np.zeros(potential.shape, dtype=bool)
    for axis in range(potential.ndim):
        idx = [slice(None)] * potential.ndim
        idx[axis] = 0
        shell[tuple(idx)] = True
        idx[axis] = -1
        shell[tuple(idx)] = True
    if potential[shell].min() <= potential[~shell].min():
        raise ValueError(
            "condition II requires the potential to grow toward the box boundary "
            "(boundary-shell minimum must exceed the interior minimum)"
        )


def _dense_eigh(H: np.ndarray):
    return scipy.linalg.eigh(H)


def _canonicalize_signs(U: np.ndarray) -> None:
    """Flip eigenvector columns in place so each last significant entry is positive.

    An entry is significant when its magnitude exceeds ``_SIGN_RTOL`` times
    the column's peak.  LAPACK fixes no sign, and the one it returns can
    depend on the BLAS thread count.  Columns are visited in blocks of about
    ``_SCAN_BLOCK_ENTRIES`` entries, so the temporaries stay small enough
    not to raise the peak memory of a 4096-cell solve; multiplying by +-1
    is exact, so a canonical matrix passes through bit for bit.
    """
    n = U.shape[0]
    block = max(1, _SCAN_BLOCK_ENTRIES // n)
    for j in range(0, U.shape[1], block):
        cols = U[:, j : j + block]
        mag = np.abs(cols)
        significant = mag > _SIGN_RTOL * mag.max(axis=0)
        last = n - 1 - np.argmax(significant[::-1], axis=0)
        cols *= np.where(cols[last, np.arange(cols.shape[1])] < 0.0, -1.0, 1.0)


def _residual_norms(H: np.ndarray, U: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Column norms of H U - U diag(w), computed in column blocks."""
    n = U.shape[0]
    block = max(1, _RESIDUAL_BLOCK_ENTRIES // n)
    norms = np.empty(U.shape[1])
    for j in range(0, U.shape[1], block):
        cols = U[:, j : j + block]
        resid = H @ cols
        resid -= cols * w[j : j + block]
        norms[j : j + block] = np.linalg.norm(resid, axis=0)
    return norms


def _hermite_tensor_eigh(spec: ShiftedHermite, domain: GridDomain):
    """Eigenpairs and residual bounds of 2D Hermite from its 1D factor.

    H = H1 (x) I + I (x) H1 - c with H1 = K1 + x^2 (fast diagonalization,
    Lynch-Rice-Thomas 1964), so u_i (x) u_j is an eigenvector with eigenvalue
    w_i + w_j - c.  Orthonormal factors make r_i + r_j an upper bound on
    its residual, where r is the factor's; the 2D H is never formed.  The
    pairs ascend by eigenvalue, ties in the order of i * m + j.
    """
    m = domain.points_per_axis
    H1 = _sine_laplacian(domain) + np.diag(domain.axis_coords() ** 2)
    w1, U1 = _dense_eigh(H1)
    _canonicalize_signs(U1)
    r1 = _residual_norms(H1, U1, w1)
    sums = (w1[:, None] + w1[None, :]).ravel()
    order = np.argsort(sums, kind="stable")
    i, j = np.divmod(order, m)
    U = (U1[:, None, i] * U1[None, :, j]).reshape(m * m, m * m)
    _canonicalize_signs(U)
    return sums[order] - spec.c, U, r1[i] + r1[j]


def _diagonalize_dense(spec, domain: GridDomain) -> SpectralDecomposition:
    if domain.periodic:
        raise ValueError("Schrodinger and Hermite operators require a non-periodic grid")
    if domain.cell_count > _DENSE_CELL_LIMIT:
        raise ValueError(
            f"dense diagonalization is limited to {_DENSE_CELL_LIMIT} cells, "
            f"got {domain.cell_count}"
        )
    if isinstance(spec, ShiftedHermite):
        potential = domain.axis_coords() ** 2 - spec.c
    else:
        if spec.potential.domain != domain:
            raise ValueError("potential lives on a different domain")
        potential = spec.potential.values
        if spec.condition == "II":
            _check_confining(potential)
    order = None
    if isinstance(spec, ShiftedHermite) and domain.dim == 2:
        w, U, resid_norms = _hermite_tensor_eigh(spec, domain)
    elif _splits_by_parity(spec, domain):
        w, U, resid_norms, order = _reflection_split_eigh(domain, potential)
    else:
        K1 = _sine_laplacian(domain)
        if domain.dim == 1:
            H = K1 + np.diag(potential)
        else:
            m = domain.points_per_axis
            eye = np.eye(m)
            H = np.kron(K1, eye) + np.kron(eye, K1) + np.diag(potential.ravel())
        w, U = _dense_eigh(H)
        _canonicalize_signs(U)
        resid_norms = _residual_norms(H, U, w)
    max_residual = float((resid_norms / np.maximum(1.0, np.abs(w))).max())
    if max_residual > _RESIDUAL_TOL:
        raise EigenResidualError(f"eigen residual {max_residual:.3e} exceeds {_RESIDUAL_TOL}")
    U /= np.sqrt(domain.cell_volume)
    return SpectralDecomposition(
        spec=spec,
        domain=domain,
        basis_kind="Dense",
        eigenvalues=w,
        max_residual=max_residual,
        **(dict(vectors=U) if order is None else dict(parity_blocks=U, order=order)),
    )


def _splits_by_parity(spec, domain: GridDomain) -> bool:
    """Whether ``_diagonalize_dense`` solves the operator as two parity blocks."""
    return (isinstance(spec, Schrodinger) and domain.dim == 1 and domain.points_per_axis % 2 == 0
            and np.array_equal(spec.potential.values, spec.potential.values[::-1]))


def _load_cached(path: str, spec, domain: GridDomain) -> Optional[SpectralDecomposition]:
    """The decomposition stored at ``path``, or None if it is absent, unreadable or invalid.

    The file must carry the layout ``_diagonalize_dense`` gives this spec
    and domain (parity blocks and order, or ``vectors``).  The zip CRC of
    each member catches corrupt bytes, so the basis arrays are checked for
    shape and dtype only and not rescanned for finiteness; ``order``, which
    indexes the blocks, must be a permutation.  zipfile reports a damaged
    version or encryption flag as RuntimeError.
    """
    cells, half = domain.cell_count, domain.cell_count // 2
    if _splits_by_parity(spec, domain):
        expected = {"parity_blocks": ((2, half, half), "f"), "order": ((cells,), "i")}
    else:
        expected = {"vectors": ((cells, cells), "f")}
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            if data.get("basis_convention") != _BASIS_CONVENTION:
                return None
            w, resid = data["eigenvalues"], data["max_residual"]
            layout = {name: data[name] for name in expected}
    except (zipfile.BadZipFile, OSError, EOFError, KeyError, ValueError, RuntimeError):
        return None
    valid = (
        all(layout[name].shape == shape and layout[name].dtype.kind == kind
            for name, (shape, kind) in expected.items())
        and ("order" not in layout or np.array_equal(np.sort(layout["order"]), np.arange(cells)))
        and w.shape == (cells,) and w.dtype.kind == "f" and bool(np.isfinite(w).all())
        and resid.shape == () and resid.dtype.kind == "f"
        and bool(np.isfinite(resid)) and resid <= _RESIDUAL_TOL
    )
    if not valid:
        return None
    return SpectralDecomposition(spec, domain, "Dense", w, max_residual=float(resid), **layout)


def diagonalize(spec: OperatorSpec, domain: GridDomain, cache_dir=None) -> SpectralDecomposition:
    """Build the spectral decomposition of the operator on the grid.

    Fourier multipliers are assembled directly from the symbol; dense kinds
    go through a symmetric eigensolve.  When ``cache_dir`` is given (or via
    the STABCERT_CACHE_DIR handling in the CLI), dense decompositions are
    stored on disk keyed by a content hash of (spec, domain) and reloaded on
    repeat calls.  Each file records the eigenvector sign convention it was
    written under.  A file from another convention, or one that cannot be
    read or fails validation (the layout of this operator, shapes, dtypes, a
    permutation ``order``, finite eigenvalues, a stored residual within
    tolerance), counts as a miss and is overwritten.
    """
    if isinstance(spec, FractionalLaplacian):
        if not domain.periodic:
            raise ValueError("the fractional Laplacian requires a periodic grid")
        symbol = _fractional_symbol(spec, domain)
        order = np.argsort(symbol.ravel(), kind="stable")
        return SpectralDecomposition(
            spec=spec,
            domain=domain,
            basis_kind="Fourier",
            eigenvalues=symbol.ravel()[order],
            symbol=symbol,
            order=order,
        )
    if not isinstance(spec, (ShiftedHermite, Schrodinger)):
        raise TypeError(f"unknown operator spec: {spec!r}")

    key = None
    if cache_dir is not None:
        key = content_hash(spec_to_json(spec), domain)
        path = os.path.join(str(cache_dir), f"decomposition-{key}.npz")
        cached = _load_cached(path, spec, domain)
        if cached is not None:
            return cached
    dec = _diagonalize_dense(spec, domain)
    if key is not None:
        layout = {name: getattr(dec, name) for name in ("vectors", "parity_blocks", "order")
                  if getattr(dec, name) is not None}
        os.makedirs(str(cache_dir), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(cache_dir), suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    eigenvalues=dec.eigenvalues,
                    max_residual=dec.max_residual,
                    basis_convention=_BASIS_CONVENTION,
                    **layout,
                )
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return dec


# ---------------------------------------------------------------------------
# coefficient transforms


def _fft_coeff_scale(domain: GridDomain) -> float:
    return domain.cell_volume / (2.0 * domain.half_width) ** (domain.dim / 2.0)


def to_coefficients(dec: SpectralDecomposition, f: Union[GridFunction, np.ndarray]) -> np.ndarray:
    """Coefficients in the eigenbasis, aligned with ``eigenvalues``.

    ``f`` is a GridFunction or an array of values: one state of the grid
    shape gives a (cells,) vector, and a stack (P,) + the grid shape gives a
    (cells, P) array whose column p holds the coefficients of state p.  A
    stack is one batched FFT (Fourier kind), one product with ``vectors``
    (dense kinds), or in the parity layout the fold f_top +- J f_bot and one
    half-size product per parity; each column equals the single-state result
    of its state to roundoff (bit for bit in the Fourier kind).
    """
    values = f.values if isinstance(f, GridFunction) else np.asarray(f)
    shape = dec.domain.shape
    lead = values.shape[: values.ndim - len(shape)]
    if len(lead) > 1 or values.shape[len(lead):] != shape:
        raise ValueError(f"values of shape {values.shape} are neither {shape} nor a stack of it")
    flat = lead + (dec.domain.cell_count,)
    if dec.basis_kind == "Fourier":
        u = np.fft.fftn(values, axes=tuple(range(len(lead), values.ndim))).reshape(flat)
        return (u * _fft_coeff_scale(dec.domain))[..., dec.order].T
    x = values.reshape(flat).T
    if dec.parity_blocks is None:
        return (dec.vectors.T @ x) * dec.domain.cell_volume
    half = dec.domain.cell_count // 2
    top, bottom = x[:half], x[half:][::-1]
    even, odd = dec.parity_blocks[0].T @ (top + bottom), dec.parity_blocks[1].T @ (top - bottom)
    return np.concatenate([even, odd])[dec.order] * dec.domain.cell_volume


def _parity_values(dec: SpectralDecomposition, coeffs: np.ndarray) -> np.ndarray:
    """Grid values (cells,) or (cells, P) of the ascending coefficients in the parity layout.

    The even part B_+ c_+ and the odd part B_- c_- give the top half as
    their sum and the reflected bottom half as their difference.
    """
    half = dec.domain.cell_count // 2
    native = np.empty_like(coeffs)
    native[dec.order] = coeffs
    even, odd = dec.parity_blocks[0] @ native[:half], dec.parity_blocks[1] @ native[half:]
    return np.concatenate([even + odd, (even - odd)[::-1]])


def from_coefficients(dec: SpectralDecomposition, coeffs: np.ndarray) -> GridFunction:
    if dec.basis_kind == "Fourier":
        u = np.empty(dec.domain.cell_count, dtype=complex)
        u[dec.order] = coeffs
        vals = np.fft.ifftn(u.reshape(dec.domain.shape)) / _fft_coeff_scale(dec.domain)
        return GridFunction(dec.domain, vals)
    vals = dec.vectors @ coeffs if dec.parity_blocks is None else _parity_values(dec, coeffs)
    return GridFunction(dec.domain, vals.reshape(dec.domain.shape))


def basis_block(dec: SpectralDecomposition, indices) -> np.ndarray:
    """Columns (cells x len(indices)) of the selected eigenfunctions.

    ``indices`` refer to the ascending-eigenvalue ordering.  Fourier phases
    are exp(2 pi i r / m) with r = j k mod m reduced in integers, so their
    error does not grow with j k.  The parity layout mirrors the selected
    block columns, which is exact.
    """
    indices = np.asarray(indices, dtype=int)
    if dec.basis_kind == "Dense":
        if dec.parity_blocks is None:
            return dec.vectors[:, indices]
        odd, col = np.divmod(dec.order[indices], dec.domain.cell_count // 2)
        top = dec.parity_blocks[odd, :, col].T
        return np.concatenate([top, top[::-1] * np.where(odd, -1.0, 1.0)])
    m = dec.domain.points_per_axis
    flat = dec.order[indices]
    rows = np.arange(m)
    scale = (2.0 * dec.domain.half_width) ** (dec.domain.dim / 2.0)

    def phases(k):
        return np.exp(2j * np.pi * (np.outer(rows, k) % m) / m)

    if dec.domain.dim == 1:
        return phases(flat) / scale
    k1, k2 = np.divmod(flat, m)
    A1, A2 = phases(k1), phases(k2)
    return (A1[:, None, :] * A2[None, :, :]).reshape(m * m, len(flat)) / scale


def restricted_gram(dec: SpectralDecomposition, indices, e: SetIndicator) -> np.ndarray:
    """Gram matrix h sum_{x in E} conj(v_j(x)) v_l(x) of the selected eigenfunctions.

    ``indices`` refer to the ascending-eigenvalue ordering.  In the Fourier
    kind the entry depends only on the frequency difference:
    G_jl = h (2R)^{-n} chi_hat[(k_j - k_l) mod m] with chi_hat the DFT of
    E's indicator, so the matrix is gathered from one FFT of the set and no
    eigenfunction is sampled.  chi_hat is laid out on the differences
    -(m - 1)..m - 1 of each axis and averaged with the conjugate of its
    reflection, which makes entry (l, j) exactly conj(entry (j, l)).  Dense
    kinds take the selected columns first and then the rows of E (rows
    first would copy |E| x cells).
    """
    if e.domain != dec.domain:
        raise ValueError("set and decomposition live on different domains")
    if dec.basis_kind == "Dense":
        rows = basis_block(dec, indices)[e.cells.ravel()]
        G = rows.conj().T @ rows * dec.domain.cell_volume
        return 0.5 * (G + G.conj().T)
    domain = dec.domain
    m, n = domain.points_per_axis, domain.dim
    diff_shape = (2 * m - 1,) * n
    chi = np.fft.fftn(e.cells)[np.ix_(*[(np.arange(2 * m - 1) - (m - 1)) % m] * n)]
    chi = 0.5 * (chi + np.flip(chi).conj()) * (domain.cell_volume / (2.0 * domain.half_width) ** n)
    # entry (j, l) sits at p_j - p_l plus the offset of the zero difference:
    # one index per pair and no modulo over the d^2 pairs
    k = np.unravel_index(dec.order[np.asarray(indices, dtype=int)], domain.shape)
    p = np.ravel_multi_index(k, diff_shape)
    pairs = np.subtract.outer(p, p)
    pairs += np.ravel_multi_index((m - 1,) * n, diff_shape)
    return chi.ravel()[pairs]


def restricted_norms(dec: SpectralDecomposition, e: SetIndicator, weights, states) -> np.ndarray:
    """h sum_{x in E} |(w_q(H) f_p)(x)|^2 for every weight row w_q and state f_p, as an (r, P) array.

    ``weights`` is (r, cells), each row given per eigenvalue in ascending
    order and equal across each level (any function of the eigenvalue is);
    ``states`` is (P,) + the grid shape, the values of the f_p.  No Gram
    matrix is formed.  The Fourier kind transforms each state once and
    each (weight, state) pair back, with real transforms for real states
    (the symbol is even in the frequency, so w_q(H) f_p is real).  Dense
    kinds take the coefficients V^T f h once, then per pass one product of
    the E rows of ``vectors`` with the weighted coefficients; the parity
    layout synthesizes each pass on the grid with two half-size products
    and keeps the rows of E.  A pass holds the states of
    max(1, _PASS_COLUMNS // P) weights, so the temporaries
    stay at O(P cells) for many states and no pass stacks all r P columns.
    """
    if e.domain != dec.domain:
        raise ValueError("set and decomposition live on different domains")
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    states = np.asarray(states)
    domain = dec.domain
    shape, cells, h = domain.shape, domain.cell_count, domain.cell_volume
    if weights.shape[1] != cells or states.shape[1:] != shape:
        raise ValueError(f"weights {weights.shape} or states {states.shape} do not fit {shape}")
    r, P = weights.shape[0], states.shape[0]
    out = np.empty((r, P))
    group = max(1, _PASS_COLUMNS // max(P, 1))
    if dec.basis_kind == "Dense":
        coeffs = to_coefficients(dec, states)
        inside = e.cells.ravel()
        rows = dec.vectors[inside] if dec.parity_blocks is None else None
        for q in range(0, r, group):
            w = weights[q : q + group]
            z = (w.T[:, :, None] * coeffs[:, None, :]).reshape(cells, -1)
            y = rows @ z if rows is not None else _parity_values(dec, z)[inside]
            out[q : q + group] = (np.abs(y) ** 2).sum(axis=0).reshape(len(w), P) * h
        return out
    grid = np.empty((r, cells))
    grid[:, dec.order] = weights
    grid = grid.reshape((r,) + shape)
    # states carry axes 1..n, a pass (weights, states, grid) axes 2..n+1
    state_axes = tuple(range(1, domain.dim + 1))
    pass_axes = tuple(a + 1 for a in state_axes)
    if np.isrealobj(states):
        spectra = scipy.fft.rfftn(states, axes=state_axes)
        grid = grid[..., : spectra.shape[-1]]
        inverse = functools.partial(scipy.fft.irfftn, s=shape, axes=pass_axes)
    else:
        spectra = scipy.fft.fftn(states, axes=state_axes)
        inverse = functools.partial(scipy.fft.ifftn, axes=pass_axes)
    mask = e.cells.ravel().astype(float)
    for q in range(0, r, group):
        y = inverse(grid[q : q + group, None] * spectra[None]).reshape(-1, cells)
        out[q : q + group] = (np.abs(y) ** 2 @ mask).reshape(-1, P) * h
    return out


def eigenfunction(dec: SpectralDecomposition, j: int) -> GridFunction:
    col = basis_block(dec, [int(j)])[:, 0]
    return GridFunction(dec.domain, col.reshape(dec.domain.shape))


def dense_matrix(dec: SpectralDecomposition) -> np.ndarray:
    """Materialize the operator as a dense (cells x cells) matrix."""
    if dec.domain.cell_count > _DENSE_CELL_LIMIT:
        raise ValueError("refusing to materialize a dense matrix this large")
    if dec.basis_kind == "Dense":
        V = dec.vectors if dec.parity_blocks is None else basis_block(dec, np.arange(dec.domain.cell_count))
        return (V * dec.eigenvalues) @ V.T * dec.domain.cell_volume
    if dec.domain.dim == 1:
        col = np.fft.ifft(dec.symbol)
        H = scipy.linalg.circulant(col)
    else:
        m = dec.domain.points_per_axis
        cells = dec.domain.cell_count
        eye = np.eye(cells).reshape(cells, m, m)
        H = np.fft.ifftn(dec.symbol[None, :, :] * np.fft.fftn(eye, axes=(1, 2)), axes=(1, 2))
        H = H.reshape(cells, cells).T
    if np.abs(H.imag).max() > 1e-10 * max(1.0, np.abs(H.real).max()):
        raise ArithmeticError("multiplier matrix has a non-real residue; symbol not even?")
    return H.real


# ---------------------------------------------------------------------------
# semigroup and projections


def spectral_count(dec: SpectralDecomposition, k: float) -> int:
    """d(k): the number of eigenvalues at most k, the dimension of the range of pi_k."""
    return int(np.searchsorted(dec.eigenvalues, k, side="right"))


def spectral_apply(dec: SpectralDecomposition, weights, f: GridFunction) -> GridFunction:
    """w(H) f for the weights w(lambda_j), given in ascending-eigenvalue order.

    The Fourier kind scatters the weights into FFT layout and multiplies
    there.  For a real ``f`` the result is real: the imaginary part, which
    is roundoff when the weights are equal across each level, is dropped.
    """
    if dec.basis_kind == "Fourier":
        w = np.empty_like(weights)
        w[dec.order] = weights
        out = np.fft.ifftn(w.reshape(dec.domain.shape) * np.fft.fftn(f.values))
        if np.isrealobj(f.values):
            out = out.real
        return GridFunction(dec.domain, out)
    return from_coefficients(dec, weights * to_coefficients(dec, f))


def semigroup_apply(dec: SpectralDecomposition, t: float, f: GridFunction) -> GridFunction:
    """Apply e^{-tH} by damping each spectral coefficient with e^{-t lambda}."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return spectral_apply(dec, np.exp(-t * dec.eigenvalues), f)


def semigroup_norm(dec: SpectralDecomposition, t: float) -> float:
    """Operator norm of e^{-tH}: the largest modal damping factor."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return float(np.exp(-t * dec.eigenvalues[0]))


def project(dec: SpectralDecomposition, k: float, f: GridFunction) -> GridFunction:
    """Component of ``f`` in span of the eigenfunctions with eigenvalue <= k.

    When no eigenvalue qualifies this is the zero function, which also
    covers the degenerate low-threshold branches of both operator families.
    """
    return spectral_apply(dec, np.arange(dec.domain.cell_count) < spectral_count(dec, k), f)


def dissipative_margin(dec, k, t_samples, trials, seed: int = 0) -> DissipativeReport:
    """Sampled check of the high-frequency decay bound.

    For random unit-norm f reports the maximum of
    ||(1 - pi_k) e^{-tH} f|| * e^{tk} over the given times; the contract for
    the fractional and harmonic families (with unit rate constants) is that
    this never exceeds 1, because every mode above the threshold k decays at
    least as fast as e^{-tk}.

    The trials are one draw of (trials,) + the grid shape, transformed once.
    Each norm is a coefficient sum: ||(1 - pi_k) e^{-tH} f||^2 is
    sum_j 1[j >= d(k)] e^{-2t lambda_j} |c_j|^2, divided by ||f||^2 on the
    grid.  The worst ratio is the first maximum in trial-major order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((trials,) + dec.domain.shape)
    mags = np.abs(to_coefficients(dec, values)) ** 2
    sizes = np.linalg.norm(values.reshape(trials, -1), axis=1) * np.sqrt(dec.domain.cell_volume)
    times = np.asarray(t_samples, dtype=float)
    high = np.arange(dec.domain.cell_count) >= spectral_count(dec, k)
    with np.errstate(under="ignore"):
        weights = np.exp(-2.0 * np.outer(times, dec.eigenvalues)) * high
    ratios = (np.sqrt(weights @ mags) / sizes).T * np.exp(times * k)
    worst = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return DissipativeReport(
        k=float(k),
        t_samples=tuple(float(t) for t in times),
        trials=int(trials),
        seed=int(seed),
        max_ratio=float(ratios[worst]),
        worst_t=float(times[worst[1]]),
    )


# ---------------------------------------------------------------------------
# Hermite functions


def _hermite_axis_values(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions phi_0..phi_K on a coordinate axis.

    Uses the stable normalized three-term recurrence
    phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1};
    the raw polynomial route overflows long before degree 200.
    """
    vals = np.empty((max_degree + 1, x.size))
    vals[0] = np.pi**-0.25 * np.exp(-0.5 * x**2)
    if max_degree >= 1:
        vals[1] = np.sqrt(2.0) * x * vals[0]
    for k in range(1, max_degree):
        vals[k + 1] = np.sqrt(2.0 / (k + 1)) * x * vals[k] - np.sqrt(k / (k + 1.0)) * vals[k - 1]
    return vals


def hermite_basis(dim: int, max_degree: int, domain: GridDomain) -> HermiteBasis:
    """Tensor-product Hermite functions for all multi-indices |alpha| <= max_degree."""
    if domain.periodic:
        raise ValueError("Hermite functions are sampled on non-periodic grids")
    if dim != domain.dim:
        raise ValueError(f"dim {dim} does not match domain dim {domain.dim}")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if max_degree > 200:
        raise ValueError("max_degree > 200 refused (recurrence accuracy not validated there)")
    axis_vals = _hermite_axis_values(max_degree, domain.axis_coords())
    functions = {}
    if dim == 1:
        for k in range(max_degree + 1):
            functions[(k,)] = GridFunction(domain, axis_vals[k])
    else:
        for a in range(max_degree + 1):
            for b in range(max_degree + 1 - a):
                functions[(a, b)] = GridFunction(domain, np.outer(axis_vals[a], axis_vals[b]))
    return HermiteBasis(dim=dim, max_degree=max_degree, domain=domain, functions=functions)


# ---------------------------------------------------------------------------
# spec (de)serialization, shared with the CLI and the cache key


def spec_to_json(spec: OperatorSpec) -> dict:
    if isinstance(spec, FractionalLaplacian):
        return {"kind": "fractional", "s": spec.s, "c": spec.c}
    if isinstance(spec, ShiftedHermite):
        return {"kind": "hermite", "c": spec.c}
    if isinstance(spec, Schrodinger):
        doc = {"kind": "schrodinger", "condition": spec.condition,
               "potential": grid_function_to_json(spec.potential)}
        if spec.delta is not None:
            doc["delta"] = spec.delta
        return doc
    raise TypeError(f"unknown operator spec: {spec!r}")


def spec_from_json(doc: dict) -> OperatorSpec:
    kind = doc.get("kind")
    if kind == "fractional":
        return FractionalLaplacian(s=float(doc["s"]), c=float(doc.get("c", 0.0)))
    if kind == "hermite":
        return ShiftedHermite(c=float(doc.get("c", 0.0)))
    if kind == "schrodinger":
        return Schrodinger(
            potential=grid_function_from_json(doc["potential"]),
            condition=doc.get("condition", "II"),
            delta=doc.get("delta"),
        )
    raise ValueError(f"unknown operator kind {kind!r}")
