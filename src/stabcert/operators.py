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

A decomposition keeps its ascending eigenvalues, the permutation ``order``
(ascending index -> native index; the identity where native is ascending)
and one basis object, whose class (``_Basis`` and its subclasses) is the
layout of the eigenfunctions and takes the cheapest computation its
structure allows; ``_layout`` picks the class of a dense operator, and no
other code here tells layouts apart.

All semigroup and projection algebra happens in the eigenbasis, so
idempotence, commutation and Pythagoras identities hold to roundoff.
"""

from __future__ import annotations

import contextlib
import functools
import os
import zipfile
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .domain import (
    GridDomain,
    GridFunction,
    atomic_write,
    content_hash,
    require_domain,
)
from .geometry import SetIndicator

_DENSE_CELL_LIMIT = 4096
# cells of the 2D Hermite tensor layout, which holds only its m x m factor;
# a pass holds a few chunk-sized arrays of states, however many states there are
_TENSOR_CELL_LIMIT = 128 * 128
_RESIDUAL_TOL = 1e-8
# entries per block of the temporaries of the sign pinning (512 KB of
# float64), small next to any m x m array, and per chunk of the states that a
# pass of any layout transforms at once (at least one state per chunk)
_SCAN_BLOCK_ENTRIES = 1 << 16
# a dense n x n matrix is gathered, and its residual taken, in row strips of
# max(1, n // _BLOCK_STRIPS) rows; the gather holds one strip buffer and the
# residual two (an eighth of the matrix), neither of them during the solve
_BLOCK_STRIPS = 16
# entries below this fraction of a column's peak do not decide its sign
_SIGN_RTOL = 1e-8
# version of the convention of cached dense eigenvectors (1: pinned signs;
# 2: also the tensor basis in 2D Hermite levels; 3: also the parity-split
# solve of mirror-symmetric 1D Schrodinger, whose payloads differ at roundoff
# from the full solve's; 4: that solve stored as its two parity blocks and
# their order, not as the full matrix; 5: 2D Hermite stored as its 1D factor,
# the order of its pairs and their signs; 6: each 2D Hermite column the plain
# product of its pinned factor columns, with no sign per pair; 7: every layout
# stores ``order``); a cached decomposition written under another convention
# is recomputed
_BASIS_CONVENTION = 7


class EigenResidualError(ArithmeticError):
    """A dense eigensolve returned pairs whose residual exceeds the tolerance."""


@dataclass(frozen=True)
class FractionalLaplacian:
    """Symbol |xi|^s - c on a periodic grid."""

    s: float = 1.0
    c: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.s < np.inf and np.isfinite(self.c)):
            raise ValueError(f"need a finite order s > 0 and a finite shift c, got s = {self.s}, c = {self.c}")


@dataclass(frozen=True)
class ShiftedHermite:
    """-Lap + |x|^2 - c; spectrum 2k + n - c on the full space."""

    c: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise ValueError(f"shift c must be finite, got {self.c}")


@dataclass(frozen=True)
class Schrodinger:
    """-Lap + V with V either form-small below (condition I) or confining (II).

    Condition I's continuum form bound (relative size below 1) is the
    user's hypothesis: the grid cannot check it and no computed figure reads
    it, so condition I only skips condition II's check, which runs when the
    spec is built: V's minimum over the boundary shell (the cells with an
    index 0 or m - 1) must exceed its minimum inside.
    """

    potential: GridFunction
    condition: str = "II"

    def __post_init__(self):
        values = self.potential.values
        if np.iscomplexobj(values):
            raise ValueError("the potential must be real, got a complex grid function")
        if self.condition not in ("I", "II"):
            raise ValueError(f"condition must be 'I' or 'II', got {self.condition!r}")
        if self.condition == "I":
            return
        shell = np.ones(values.shape, dtype=bool)
        shell[(slice(1, -1),) * values.ndim] = False
        if values[shell].min() <= values[~shell].min():
            raise ValueError("condition II requires the potential to grow toward the box boundary "
                             "(boundary-shell minimum must exceed the interior minimum)")


# the operator kinds: each --operator name, which is also the kind of the spec
# document, and its spec class, whose fields are the kind's options
OPERATOR_KINDS = {"frac": FractionalLaplacian, "hermite": ShiftedHermite, "schrodinger": Schrodinger}


OperatorSpec = Union[FractionalLaplacian, ShiftedHermite, Schrodinger]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Operator spectrum plus an orthonormal eigenbasis on the grid.

    ``eigenvalues`` ascend; ``basis`` keeps the eigenfunctions in its native
    order, and ascending index j is native index order[j], in every layout.
    """

    spec: OperatorSpec
    domain: GridDomain
    eigenvalues: np.ndarray
    basis: _Basis
    order: np.ndarray
    max_residual: float = 0.0

    def __post_init__(self):
        for name in ("eigenvalues", "order"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
            getattr(self, name).setflags(write=False)

    @property
    def basis_kind(self) -> str:  # "Fourier" or "Dense"
        return self.basis.kind


# ---------------------------------------------------------------------------
# diagonalization


def _sine_laplacian(domain: GridDomain) -> np.ndarray:
    """Dense Dirichlet Laplacian on one axis via sine collocation."""
    m = domain.points_per_axis
    p = np.arange(1, m + 1)
    Q = np.sin(np.pi * np.outer(np.arange(m) + 0.5, p) / m)
    col_norm = np.full(m, np.sqrt(m / 2.0))
    col_norm[-1] = np.sqrt(m)  # the p = m column alternates +-1 at midpoints
    Q /= col_norm
    kappa = (np.pi * p / (2.0 * domain.half_width)) ** 2
    K = (Q * kappa) @ Q.T
    K += K.T
    K *= 0.5
    return K


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


def _parity_rows(t, potential, parity: float, r: int, out, scratch) -> None:
    """Rows r .. r + len(out) of the parity block T + parity R + diag(V), written into ``out``.

    Each term is a strip of windows of t, so no strip-sized index array is
    formed: t(|i - j|) is read from t(|n|), n = 1 - m/2 .. m/2 - 1, and
    t(2m - n) = t(n) turns t(m - 1 - i - j) and t(m + i - j) into
    t(m + 1 + i + j) and t(m - i + j).  The floats and their order of
    summation are those of the index gather, so every entry is the same bit
    for bit.  ``scratch`` has at least n rows.
    """
    n, half = out.shape
    m, scratch = 2 * half, scratch[:n]
    window = np.lib.stride_tricks.sliding_window_view
    w, mirror = window(t, half), window(t[np.abs(np.arange(1 - half, half))], half)
    np.subtract(mirror[half - r - n : half - r][::-1], w[r + 1 : r + n + 1], out=out)
    np.subtract(w[m + 1 + r : m + 1 + r + n], w[m - r - n + 1 : m - r + 1][::-1], out=scratch)
    scratch *= parity  # T + R or T - R, bit for bit: +-1 * R is exact
    out += scratch
    out[np.arange(n), np.arange(r, r + n)] += potential[r : r + n]


def _sine_rows(K1, potential, r: int, out, scratch) -> None:
    """Rows r .. r + len(out) of K1 + diag(V), or K1 (x) I + I (x) K1 + diag(V) for a 2D V, written into ``out``.

    The entries take the products and sums of the Kronecker assembly in its
    order, so they are its entries bit for bit, signed zeros included.
    """
    n, m = len(out), len(K1)
    cells, scratch = np.arange(r, r + n), scratch[:n]
    if potential.ndim == 1:
        out[...] = K1[r : r + n]
    else:
        a, b = np.divmod(cells, m)
        eye = np.eye(m)
        out[...] = (K1[a, :, None] * eye[b, None, :] + eye[a, :, None] * K1[b, None, :]).reshape(n, -1)
    scratch[...] = 0.0
    scratch[np.arange(n), cells] = potential.ravel()[cells]
    out += scratch


def _reflection_split_eigh(domain: GridDomain, potential: np.ndarray, sink):
    """Eigenvalues, residuals and order of 1D -Lap + V for a mirror-symmetric V; its parity blocks to ``sink``.

    With V = JV (J the reflection x -> -x) and K from ``_sine_symbol``, H
    commutes with J, so its eigenvectors are [a; +-Ja] / sqrt(2) for the
    eigenvectors a of the m/2-wide blocks T +- R + diag(V[:m/2]), where
    T[i, j] = K[i, j] and R[i, j] = K[i, m - 1 - j], gathered from t(n); a
    block's residual is the full vector's.  Returned: the ascending
    eigenvalues and residuals and the blocks' column order, ties even first.
    Block p is gathered, solved, sign-pinned and scaled to a / sqrt(2 h) in
    the buffer ``sink(p)`` lends, before block p + 1 is gathered.  In place
    inside the (2, m/2, m/2) result the solve peaks at about 3.1 (m/2)^2
    arrays; streamed into a cache file from one buffer, at about 2.2.
    """
    half = domain.points_per_axis // 2
    t = _sine_symbol(domain)
    values, resid = np.empty((2, half)), np.empty((2, half))
    for p, parity in enumerate((1.0, -1.0)):
        with sink(p) as a:
            rows = functools.partial(_parity_rows, t, potential, parity)
            values[p], resid[p] = _gathered_eigh(rows, a, a)
            a /= np.sqrt(2.0)
            # the last significant entry of [a; parity Ja] is parity a[first
            # significant]: pin a[first] positive, then multiply by the parity
            _canonicalize_signs(a[::-1])
            a *= parity
            a /= np.sqrt(domain.cell_volume)
    values, resid = values.ravel(), resid.ravel()
    order = np.argsort(values, kind="stable")
    return values[order], resid[order], order


def _dense_eigh(H: np.ndarray):
    return scipy.linalg.eigh(H, overwrite_a=True)


def _canonicalize_signs(U: np.ndarray) -> None:
    """Flip eigenvector columns in place so each last significant entry is positive.

    An entry is significant above ``_SIGN_RTOL`` times the column's peak:
    the Hermite convention psi_k > 0 as x -> +infinity, well defined for odd
    eigenfunctions too.  LAPACK fixes no sign, and its sign can depend on the
    BLAS thread count.  Columns go in blocks of about ``_SCAN_BLOCK_ENTRIES``
    entries, so the temporaries do not raise the peak of a 4096-cell solve;
    +-1 is exact, so a canonical matrix passes through bit for bit.
    """
    n = U.shape[0]
    block = max(1, _SCAN_BLOCK_ENTRIES // n)
    for j in range(0, U.shape[1], block):
        cols = U[:, j : j + block]
        mag = np.abs(cols)
        significant = mag > _SIGN_RTOL * mag.max(axis=0)
        last = n - 1 - np.argmax(significant[::-1], axis=0)
        cols *= np.where(cols[last, np.arange(cols.shape[1])] < 0.0, -1.0, 1.0)


def _gathered_eigh(rows, work: np.ndarray, out: np.ndarray):
    """Eigenvalues and residual norms of the symmetric H that ``rows(r, strip, scratch)`` writes; vectors to ``out``.

    H, equal to H.T bit for bit, is gathered in row strips into the
    C-ordered ``work``, whose transpose LAPACK solves in place (``out`` may
    share its memory); the residuals re-gather H in the same strips.
    """
    n = len(work)
    step = max(1, n // _BLOCK_STRIPS)
    scratch = np.empty((step, n))
    for r in range(0, n, step):
        rows(r, work[r : r + step], scratch)
    del scratch
    w, out[...] = _dense_eigh(work.T)
    strip, scratch = np.empty((2, step, n))
    sq = np.zeros(n)
    for r in range(0, n, step):
        k = min(step, n - r)
        rows(r, strip[:k], scratch)
        resid = np.matmul(strip[:k], out, out=scratch[:k])
        resid -= np.multiply(out[r : r + k], w, out=strip[:k])
        sq += np.einsum("ij,ij->j", resid, resid)
    return w, np.sqrt(sq)


def _pinned_eigh(K1: np.ndarray, potential: np.ndarray, U: np.ndarray):
    """Eigenvalues and residuals of the ``_sine_rows`` matrix; its sign-pinned eigenvectors to the Fortran-ordered ``U``."""
    w, resid = _gathered_eigh(functools.partial(_sine_rows, K1, potential), U.T, U)
    _canonicalize_signs(U)
    return w, resid


# ---------------------------------------------------------------------------
# basis layouts


class _Basis:
    """An eigenbasis in one layout, and what the dense layouts share.

    A layout keeps one array, the attribute ``member`` of shape ``shape(domain)``
    and memory order ``memory_order``.  ``solve`` returns the ascending
    eigenvalues, their residual norms and ``order``, and hands the array to
    its ``sink``: ``with sink(*index) as part`` lends the buffer of one part,
    the whole array (no index) or each slab along the first axis in turn,
    and takes it finished when the block exits.  Coefficients are native and
    cells first.
    """

    # the Fortran order of the vectors of ``_pinned_eigh``
    kind, cell_limit, memory_order = "Dense", _DENSE_CELL_LIMIT, "F"

    def __init__(self, domain: GridDomain, array):
        self.domain = domain
        setattr(self, self.member, np.asarray(array))
        getattr(self, self.member).setflags(write=False)

    @classmethod
    def from_arrays(cls, domain: GridDomain, arrays):
        """The basis of the cached ``arrays``, or None unless its array has this layout's shape and a float dtype."""
        array = arrays[cls.member]
        return cls(domain, array) if array.shape == cls.shape(domain) and array.dtype.kind == "f" else None

    def _flat(self, values):
        """A state (cells,) or a stack (P, cells) of the grid-shaped ``values``."""
        return values.reshape(values.shape[: values.ndim - self.domain.dim] + (self.domain.cell_count,))

    def synthesis(self, rows):
        """The synthesis of a pass that reads only the cells of the mask ``rows``: here the whole grid's."""
        return self.synthesize

    def gram(self, native, e: SetIndicator) -> np.ndarray:
        # the selected columns first, then the rows of E (rows first would copy |E| x cells)
        rows = self.columns(native)[e.cells.ravel()]
        G = rows.conj().T @ rows * self.domain.cell_volume
        return 0.5 * (G + G.conj().T)

    def matrix(self, eigenvalues, native) -> np.ndarray:
        V = self.columns(native)
        return (V * eigenvalues) @ V.T * self.domain.cell_volume

    def passes(self, weights, decay, rows):
        """The pass over one chunk of states: values -> (decay sums, its synthesis of row q by q).

        ``weights`` and ``decay`` are rows in native order.  The chunk is
        transformed by one ``forward``; its squares |c_jp|^2 are summed
        against each ``decay`` row, and weight row q is one synthesis of the
        weighted coefficients, made when the caller asks for q, so a caller
        that has what it needs skips the rest.
        """
        synthesize = self.synthesis(rows)

        def chunk_pass(values):
            native = self.forward(values)
            sq = np.abs(native)
            sq *= sq
            z = np.empty_like(native, dtype=np.result_type(weights, native))
            return decay @ sq, lambda q: synthesize(np.multiply(weights[q][:, None], native, out=z)).T

        return chunk_pass


class _FourierBasis(_Basis):
    """The Fourier kind: w_k(x_j) = exp(2 pi i j.k / m) / (2R)^{n/2}, native in FFT layout.

    ``symbol`` is the multiplier in FFT layout.  Transforms are batched FFTs,
    the Gram comes from one FFT of the set and the matrix from the kernel.
    """

    kind, member = "Fourier", "symbol"

    @classmethod
    def solve(cls, spec: FractionalLaplacian, domain: GridDomain):
        symbol = domain.frequency_norm() ** spec.s - spec.c
        order = np.argsort(symbol.ravel(), kind="stable")
        return symbol.ravel()[order], cls(domain, symbol), order

    @property
    def scale(self) -> float:
        return self.domain.cell_volume / (2.0 * self.domain.half_width) ** (self.domain.dim / 2.0)

    def forward(self, values):
        lead = values.ndim - self.domain.dim
        u = np.fft.fftn(values, axes=tuple(range(lead, values.ndim))).reshape(self._flat(values).shape)
        return (u * self.scale).T

    def synthesize(self, native):
        cells = self.domain.cell_count
        u = np.ascontiguousarray(native.reshape(cells, -1).T).reshape((-1,) + self.domain.shape)
        values = np.fft.ifftn(u, axes=tuple(range(1, self.domain.dim + 1)))
        return (values / self.scale).reshape(-1, cells).T.reshape(native.shape)

    def columns(self, native):
        # phases exp(2 pi i r / m), r = j k mod m reduced in integers: the error does not grow with j k
        m, rows = self.domain.points_per_axis, np.arange(self.domain.points_per_axis)
        k_first, *k_rest = np.unravel_index(native, self.domain.shape)

        def phases(k):
            return np.exp(2j * np.pi * (np.outer(rows, k) % m) / m)

        block = phases(k_first)
        for k in k_rest:  # the next axis varies fastest, as in the flat cell index
            block = (block[:, None, :] * phases(k)[None, :, :]).reshape(-1, len(native))
        return block / (2.0 * self.domain.half_width) ** (self.domain.dim / 2.0)

    def gram(self, native, e: SetIndicator) -> np.ndarray:
        """G_jl = h (2R)^{-n} chi_hat[(k_j - k_l) mod m], chi_hat the DFT of E's indicator.

        chi_hat is laid out on the differences -(m - 1)..m - 1 of each axis and
        averaged with the conjugate of its reflection, so that entry (l, j) is
        exactly conj(entry (j, l)).
        """
        m, n, h = self.domain.points_per_axis, self.domain.dim, self.domain.cell_volume
        diff_shape = (2 * m - 1,) * n
        chi = np.fft.fftn(e.cells)[np.ix_(*[(np.arange(2 * m - 1) - (m - 1)) % m] * n)]
        chi = 0.5 * (chi + np.flip(chi).conj()) * (h / (2.0 * self.domain.half_width) ** n)
        # entry (j, l) sits at p_j - p_l plus the offset of the zero difference:
        # one index per pair and no modulo over the d^2 pairs
        p = np.ravel_multi_index(np.unravel_index(native, self.domain.shape), diff_shape)
        pairs = np.subtract.outer(p, p)
        pairs += np.ravel_multi_index((m - 1,) * n, diff_shape)
        return chi.ravel()[pairs]

    def matrix(self, eigenvalues, native) -> np.ndarray:
        # entry (x, y) is the convolution kernel g = ifftn(symbol) at (x - y) mod m per axis
        g = np.fft.ifftn(self.symbol)
        if np.abs(g.imag).max() > 1e-10 * max(1.0, np.abs(g.real).max()):
            raise ArithmeticError("multiplier matrix has a non-real residue; symbol not even?")
        m, n = self.domain.points_per_axis, self.domain.dim
        diff = np.subtract.outer(np.arange(m), np.arange(m)) % m
        # axis k of the difference index runs over (x_k, y_k): axes k and n + k of the (x, y) grid
        index = tuple(diff.reshape([m if a in (k, n + k) else 1 for a in range(2 * n)]) for k in range(n))
        return g.real[index].reshape((self.domain.cell_count,) * 2)

    def passes(self, weights, decay, rows):
        """The pass over one chunk: real states by rfftn, complex ones as in every layout.

        Every row is a function of the eigenvalue, so it is even in the
        frequency, and a real state's spectrum is conjugate symmetric.  So a
        pass is one real inverse FFT, and each decay row is folded once onto
        the rfftn half spectrum: a column counts twice unless its last index
        is 0 or, for even m, m/2, its own mirror; scale^2 is folded in too.
        """
        complex_pass = super().passes(weights, decay, rows)
        domain = self.domain
        m, axes = domain.points_per_axis, tuple(range(1, domain.dim + 1))
        grid = weights.reshape((len(weights),) + domain.shape)[..., : m // 2 + 1]
        folded = decay.reshape((len(decay),) + domain.shape)[..., : m // 2 + 1] * self.scale**2
        folded[..., 1 : (m + 1) // 2] *= 2.0
        folded = folded.reshape(len(decay), np.prod(folded.shape[1:]))

        def chunk_pass(values):
            if not np.isrealobj(values):
                return complex_pass(values)
            spectra = np.fft.rfftn(values, axes=axes)
            sq = np.abs(spectra)
            sq *= sq
            row = lambda q: np.fft.irfftn(grid[q] * spectra, s=domain.shape, axes=axes).reshape(len(values), -1)
            return folded @ sq.reshape(len(sq), -1).T, row

        return chunk_pass


class _DenseBasis(_Basis):
    """The full eigenvector matrix, for a dense operator with no cheaper layout.

    ``vectors`` (Fortran order) holds the eigenvectors of one ``_pinned_eigh``
    of K1 + diag V or K1 (x) I + I (x) K1 + diag V in ascending order, so
    ``order`` is the identity.  1D Hermite is mirror-symmetric but not
    split: its levels sit on integer thresholds, where the split moves the
    roundoff that decides whether a threshold counts its level.  In a 2D
    cluster the basis is the solver's: only the span is canonical.
    """

    member = "vectors"
    shape = staticmethod(lambda domain: (domain.cell_count,) * 2)

    @classmethod
    def solve(cls, spec, domain: GridDomain, potential, sink):
        K1 = _sine_laplacian(domain)  # its temporaries are gone before the sink makes its array
        with sink() as U:
            w, resid = _pinned_eigh(K1, potential, U)
            U /= np.sqrt(domain.cell_volume)
        return w, resid, np.arange(domain.cell_count)

    def forward(self, values):
        return (self.vectors.T @ self._flat(values).T) * self.domain.cell_volume

    def synthesize(self, native):
        return self.vectors @ native

    def synthesis(self, rows):
        return self.synthesize if rows is None else functools.partial(np.matmul, self.vectors[rows])

    def columns(self, native):
        return self.vectors[:, native]


class _ParityBasis(_Basis):
    """A mirror-symmetric 1D Schrodinger operator on an even grid, kept as two parity blocks.

    H commutes with the reflection J, so ``_reflection_split_eigh`` solves two
    m/2-wide blocks and each eigenvector is exactly even or odd.  The
    (2, m/2, m/2) ``parity_blocks`` B_+, B_- hold the top halves: native
    column c < m/2 is [B_+[:, c]; J B_+[:, c]], column m/2 + c is
    [B_-[:, c]; -J B_-[:, c]], and transforms fold the grid (f_top +- J f_bot).
    """

    member, memory_order = "parity_blocks", "C"
    shape = staticmethod(lambda domain: (2,) + (domain.cell_count // 2,) * 2)

    @classmethod
    def solve(cls, spec, domain: GridDomain, potential, sink):
        return _reflection_split_eigh(domain, potential, sink)

    def forward(self, values):
        x, half = self._flat(values).T, self.domain.cell_count // 2
        top, bottom = x[:half], x[half:][::-1]
        even, odd = self.parity_blocks[0].T @ (top + bottom), self.parity_blocks[1].T @ (top - bottom)
        return np.concatenate([even, odd]) * self.domain.cell_volume

    def synthesize(self, native):
        half = self.domain.cell_count // 2
        even, odd = self.parity_blocks[0] @ native[:half], self.parity_blocks[1] @ native[half:]
        return np.concatenate([even + odd, (even - odd)[::-1]])

    def columns(self, native):
        odd, col = np.divmod(native, self.domain.cell_count // 2)
        top = self.parity_blocks[odd, :, col].T
        return np.concatenate([top, top[::-1] * np.where(odd, -1.0, 1.0)])  # the mirror is exact


class _KroneckerBasis(_Basis):
    """2D Hermite, kept as the 1D factor of fast diagonalization (Lynch, Rice & Thomas 1964).

    H = H1 (x) I + I (x) H1 - c, H1 the 1D Hermite matrix with c = 0: pair
    (i, j) has eigenvalue w_i + w_j - c and residual at most r_i + r_j, ties
    ordered by i * m + j.  ``tensor_factor`` U_1 holds the pinned, unscaled 1D
    eigenvectors; native index i * m + j is (U_1[:, i] (x) U_1[:, j]) / sqrt(h),
    with no sign of its own.  The factor keeps a cache file small (130 KB at
    m = 64), hence the 128^2 limit.
    """

    member, cell_limit = "tensor_factor", _TENSOR_CELL_LIMIT
    shape = staticmethod(lambda domain: (domain.points_per_axis,) * 2)

    @classmethod
    def solve(cls, spec: ShiftedHermite, domain: GridDomain, potential, sink):
        with sink() as U1:
            w1, r1 = _pinned_eigh(_sine_laplacian(domain), domain.axis_coords() ** 2, U1)
        sums = (w1[:, None] + w1[None, :]).ravel()
        order = np.argsort(sums, kind="stable")
        i, j = np.divmod(order, domain.points_per_axis)
        return sums[order] - spec.c, r1[i] + r1[j], order

    def forward(self, values):
        # U_1^T times each F_p U_1 batched: the flat form of that product
        # needs a transposed copy of the stack, and measured slower
        m, U = self.domain.points_per_axis, self.tensor_factor
        C = np.matmul(U.T, (values.reshape(-1, m) @ U).reshape(-1, m, m)).reshape(-1, self.domain.cell_count)
        native = np.empty(self._flat(values).shape[::-1], dtype=C.dtype)
        return np.multiply(C.T.reshape(native.shape), np.sqrt(self.domain.cell_volume), out=native)

    def synthesize(self, native):
        # U_1 C_p U_1^T / sqrt(h) with the states on the last axis: one product
        # batched over i and one flat product, and no transposed copy
        m, U = self.domain.points_per_axis, self.tensor_factor / self.domain.cell_volume**0.25
        return np.matmul(U, np.matmul(U, native.reshape(m, m, -1)).reshape(m, -1)).reshape(native.shape)

    def columns(self, native):
        U1, (i, j) = self.tensor_factor, np.divmod(native, self.domain.points_per_axis)
        block = (U1[:, None, i] * U1[None, :, j]).reshape(self.domain.cell_count, len(native))
        return block / np.sqrt(self.domain.cell_volume)


def _layout(spec, domain: GridDomain) -> type:
    """The basis class of a dense operator, which the solve, its cell limit and the cache follow."""
    if isinstance(spec, ShiftedHermite) and domain.dim == 2:
        return _KroneckerBasis
    if (isinstance(spec, Schrodinger) and domain.dim == 1 and domain.points_per_axis % 2 == 0
            and np.array_equal(spec.potential.values, spec.potential.values[::-1])):
        return _ParityBasis
    return _DenseBasis


def _max_residual(w, resid_norms) -> float:
    """The largest residual norm relative to max(1, |lambda|); above ``_RESIDUAL_TOL``, or NaN, it raises."""
    max_residual = float((resid_norms / np.maximum(1.0, np.abs(w))).max())
    if not (max_residual <= _RESIDUAL_TOL):  # a NaN residual fails too
        raise EigenResidualError(f"eigen residual {max_residual:.3e} exceeds {_RESIDUAL_TOL}")
    return max_residual


class _InMemory:
    """The sink of an uncached solve: each part is solved in place inside ``array``, made at the first part."""

    def __init__(self, shape, order: str):
        self.shape, self.order, self.array = shape, order, None

    def __call__(self, *index):
        if self.array is None:
            self.array = np.empty(self.shape, order=self.order)
        return contextlib.nullcontext(self.array[index])


class _Streamed:
    """The sink of a cached solve: a float64 array streamed into the open zip member ``member`` as a ``.npy``.

    Every part is solved in one buffer, made at the first part, and written
    when its block exits without error, its zip CRC taken as it goes, so the
    array is never whole in memory.  Parts come in the order of the file, so
    an array in Fortran order is handed whole.
    """

    def __init__(self, member, shape, order: str):
        self.member, self.shape, self.order, self.buffer = member, shape, order, None
        header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)), "fortran_order": order == "F",
                  "shape": shape}
        np.lib.format.write_array_header_1_0(member, header)

    @contextlib.contextmanager
    def __call__(self, *index):
        if self.buffer is None:
            self.buffer = np.empty(self.shape[len(index):], order=self.order)
        yield self.buffer
        self.member.write(self.buffer.ravel(order="K"))


def _diagonalize_dense(spec, domain: GridDomain, path=None) -> SpectralDecomposition:
    """The dense decomposition, solved in memory, or with ``path`` written there as a cache file and read back.

    The cache file's members come in one order for every layout: the
    layout's array, streamed part by part as the solve finishes it, then the
    eigenvalues, the residual, the convention and ``order``.  A file that
    ``_load_cached`` cannot read back is an internal error.
    """
    if domain.periodic:
        raise ValueError("Schrodinger and Hermite operators require a non-periodic grid")
    layout = _layout(spec, domain)
    if domain.cell_count > layout.cell_limit:
        raise ValueError(f"dense diagonalization is limited to {layout.cell_limit} cells, got {domain.cell_count}")
    potential = domain.axis_coords() ** 2 - spec.c if isinstance(spec, ShiftedHermite) else spec.potential.values
    shape = layout.shape(domain)
    if path is None:
        sink = _InMemory(shape, layout.memory_order)
        w, resid_norms, order = layout.solve(spec, domain, potential, sink)
        return SpectralDecomposition(spec, domain, w, layout(domain, sink.array), order, _max_residual(w, resid_norms))
    with atomic_write(path, "wb") as fh, zipfile.ZipFile(fh, "w") as npz:
        with npz.open(layout.member + ".npy", "w", force_zip64=True) as member:
            # no name holds the sink, so its buffer is freed before the file is read back
            w, resid_norms, order = layout.solve(spec, domain, potential, _Streamed(member, shape, layout.memory_order))
        arrays = dict(eigenvalues=w, max_residual=_max_residual(w, resid_norms),
                      basis_convention=_BASIS_CONVENTION, order=order)
        for name, value in arrays.items():
            with npz.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asarray(value), allow_pickle=False)
    dec = _load_cached(path, spec, domain)
    if dec is None:
        raise RuntimeError(f"the decomposition cache file {path} cannot be read back after it was written")
    return dec


def _load_cached(path: str, spec, domain: GridDomain) -> Optional[SpectralDecomposition]:
    """The decomposition stored at ``path``, or None if it is absent, unreadable or invalid.

    The file must carry the convention, finite ascending eigenvalues, a
    residual within tolerance, a permutation ``order`` and the array of the
    class ``_layout`` picks, whose zip CRC catches corrupt bytes, so it is
    checked for shape and dtype only.  zipfile reports a damaged version or
    encryption flag as RuntimeError.
    """
    cells, layout = domain.cell_count, _layout(spec, domain)
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            if data.get("basis_convention") != _BASIS_CONVENTION:
                return None
            w, resid = data["eigenvalues"], data["max_residual"]
            basis = layout.from_arrays(domain, data)
            order = data["order"]
    except (zipfile.BadZipFile, OSError, EOFError, KeyError, ValueError, RuntimeError):
        return None
    valid = (
        basis is not None
        and order.shape == (cells,) and order.dtype.kind == "i"
        and np.array_equal(np.sort(order), np.arange(cells))
        and w.shape == (cells,) and w.dtype.kind == "f" and bool(np.isfinite(w).all())
        and bool((np.diff(w) >= 0.0).all())  # spectral_count bisects them
        and resid.shape == () and resid.dtype.kind == "f"
        and bool(np.isfinite(resid)) and resid <= _RESIDUAL_TOL
    )
    return SpectralDecomposition(spec, domain, w, basis, order, float(resid)) if valid else None


def diagonalize(spec: OperatorSpec, domain: GridDomain, cache_dir=None) -> SpectralDecomposition:
    """Build the spectral decomposition of the operator on the grid.

    Fourier multipliers come straight from the symbol; dense kinds, their
    potential's domain checked first, go through a symmetric eigensolve.
    ``cache_dir`` is made before any solve; it stores dense decompositions
    by a content hash of (spec, domain), with their basis convention.  A
    file that ``_load_cached`` refuses is a miss and is overwritten, and a
    miss returns the file it wrote, read back by the same loader.
    """
    if isinstance(spec, FractionalLaplacian):
        if not domain.periodic:
            raise ValueError("the fractional Laplacian requires a periodic grid")
        return SpectralDecomposition(spec, domain, *_FourierBasis.solve(spec, domain))
    if not isinstance(spec, (ShiftedHermite, Schrodinger)):
        raise TypeError(f"unknown operator spec: {spec!r}")
    if isinstance(spec, Schrodinger):
        require_domain(domain, potential=spec.potential)
    if cache_dir is None:
        return _diagonalize_dense(spec, domain)
    os.makedirs(str(cache_dir), exist_ok=True)
    path = os.path.join(str(cache_dir), f"decomposition-{spec_hash(spec, domain)}.npz")
    cached = _load_cached(path, spec, domain)
    return _diagonalize_dense(spec, domain, path) if cached is None else cached


# ---------------------------------------------------------------------------
# coefficient transforms


def _ascending(order, native):
    """Native coefficients, cells first, gathered into ascending order in a new array of their memory order."""
    return np.take(native, order, axis=0, out=np.empty_like(native))


def _native(order, ascending):
    """Ascending coefficients, cells first, scattered into native order."""
    native = np.empty(ascending.shape, dtype=ascending.dtype)
    native[order] = ascending
    return native


def to_coefficients(dec: SpectralDecomposition, f: Union[GridFunction, np.ndarray]) -> np.ndarray:
    """Coefficients in the eigenbasis, aligned with ``eigenvalues``: the basis's ``forward``, gathered.

    One state of the grid shape (a GridFunction or values) gives (cells,), a
    stack (P,) + the grid shape (cells, P), column p state p's to roundoff.
    """
    if isinstance(f, GridFunction):
        require_domain(dec.domain, state=f)
        f = f.values
    values = np.asarray(f)
    shape = dec.domain.shape
    lead = values.shape[: values.ndim - len(shape)]
    if len(lead) > 1 or values.shape[len(lead):] != shape:
        raise ValueError(f"values of shape {values.shape} are neither {shape} nor a stack of it")
    return _ascending(dec.order, dec.basis.forward(values))


def basis_block(dec: SpectralDecomposition, indices) -> np.ndarray:
    """Columns (cells x len(indices)) of the selected eigenfunctions, ``indices`` in ascending order."""
    return dec.basis.columns(dec.order[np.asarray(indices, dtype=int)])


def restricted_gram(dec: SpectralDecomposition, indices, e: SetIndicator) -> np.ndarray:
    """Gram matrix h sum_{x in E} conj(v_j(x)) v_l(x) of the eigenfunctions at the ascending ``indices``."""
    require_domain(dec.domain, set=e)
    return dec.basis.gram(dec.order[np.asarray(indices, dtype=int)], e)


class DrawnStates:
    """``count`` states of one grid shape, made by ``draw(n)`` when a pass slices them.

    A pass takes its states a chunk at a time by slicing, so a (P,) + grid
    stack and drawn states go through the same loop; drawn, only the chunk
    the pass holds exists.  Slices come in order, each once: consecutive
    chunks are consecutive in the stream that ``draw`` reads.
    """

    def __init__(self, count: int, draw):
        self.count, self.draw, self.drawn = int(count), draw, 0

    def __len__(self):
        return self.count

    def __getitem__(self, chunk: slice):
        start, stop, _ = chunk.indices(self.count)
        if start != self.drawn:
            raise IndexError(f"states {start}:{stop} asked for after {self.drawn} were drawn")
        self.drawn = stop
        return self.draw(stop - start)


def _weighted_passes(dec: SpectralDecomposition, weights, decay, states, rows=None):
    """Transform ``states`` a chunk at a time; yield each chunk's decay sums and passes w_q(H) f_p.

    ``weights`` (r, cells) and ``decay`` (s, cells) are rows in ascending
    order, each a real function of the eigenvalue (equal across each level),
    and both are permuted to native order once here.  ``states`` is a (P,) +
    grid stack or ``DrawnStates``, sliced in chunks of about
    ``_SCAN_BLOCK_ENTRIES`` entries.  Each yield (chunk, sums, row) holds
    the chunk's slice of the states, the (s, chunk length) sums
    sum_j decay[i, j] |c_jp|^2 and a function whose value at q holds
    w_q(H) f_p in row p - chunk.start (the full dense basis gives only the
    cells of ``rows``), synthesized when asked for and only before the next
    chunk.
    """
    weights, decay = (_native(dec.order, x.T).T for x in (weights, decay))
    chunk_pass = dec.basis.passes(weights, decay, rows)
    block = max(1, _SCAN_BLOCK_ENTRIES // dec.domain.cell_count)
    for p in range(0, len(states), block):
        values = np.asarray(states[p : p + block])
        if values.shape[1:] != dec.domain.shape:
            raise ValueError(f"states of shape {values.shape[1:]} do not fit {dec.domain.shape}")
        yield (slice(p, p + len(values)),) + chunk_pass(values)


def restricted_norms(dec: SpectralDecomposition, e: SetIndicator, weights, decay, states):
    """Per chunk of the states f_p: (chunk, decay sums, squared norms, ``set_norm``).

    The decay sums (s, chunk length) are sum_j decay[i, j] |c_jp|^2 and the
    squared norms h ||f_p||^2 the decay sums of one more row of ones
    (Parseval, in every orthonormal layout); ``set_norm(q)`` is the chunk's
    h sum_{x in E} |(w_q(H) f_p)(x)|^2, its pass of ``_weighted_passes``
    squared in place and summed over E, synthesized only when asked for and
    only before the next chunk.  ``weights`` (r, cells) and ``decay``
    (s, cells), every row equal across each level, are in ascending order;
    ``states`` is a (P,) + grid stack or ``DrawnStates``.
    """
    require_domain(dec.domain, set=e)
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    decay = np.asarray(decay, dtype=float)
    cells = dec.domain.cell_count
    if weights.shape[1] != cells or decay.ndim != 2 or decay.shape[1] != cells:
        raise ValueError(f"weights {weights.shape} or decay rows {decay.shape} do not fit {dec.domain.shape}")
    inside = e.cells.ravel()
    mask = inside.astype(float)
    for chunk, sums, row in _weighted_passes(dec, weights, np.vstack([decay, np.ones(cells)]), states, inside):

        def set_norm(q):
            y = row(q)
            y = np.abs(y) if np.iscomplexobj(y) else y
            y *= y
            # the full dense basis gives the cells of E alone
            norm = y @ mask if y.shape[1] == len(mask) else y.sum(axis=1)
            norm *= dec.domain.cell_volume
            return norm

        yield chunk, sums[:-1], sums[-1], set_norm


def eigenfunction(dec: SpectralDecomposition, j: int) -> GridFunction:
    col = basis_block(dec, [int(j)])[:, 0]
    return GridFunction(dec.domain, col.reshape(dec.domain.shape))


def dense_matrix(dec: SpectralDecomposition) -> np.ndarray:
    """The operator as a dense (cells x cells) matrix: V diag(lambda) V^T h over the ascending columns, or the Fourier kernel's gather."""
    cells = dec.domain.cell_count
    if cells > _DENSE_CELL_LIMIT:
        raise ValueError(f"refusing to materialize a dense matrix of {cells} cells "
                         f"(the limit is {_DENSE_CELL_LIMIT})")
    return dec.basis.matrix(dec.eigenvalues, dec.order)


# ---------------------------------------------------------------------------
# semigroup and projections


def spectral_count(dec: SpectralDecomposition, k: float) -> int:
    """d(k): the number of eigenvalues at most k, the dimension of the range of pi_k."""
    return int(np.searchsorted(dec.eigenvalues, k, side="right"))


def is_resolved(dec: SpectralDecomposition, k: float) -> bool:
    """Whether 2 d(k) <= cells; a wider range is not resolved by the grid (its degeneracy would be aliasing)."""
    return 2 * spectral_count(dec, k) <= dec.domain.cell_count


def require_resolved(dec: SpectralDecomposition, k: float) -> None:
    """The one refusal, a ValueError, of a threshold ``k`` that the grid does not resolve."""
    if not is_resolved(dec, k):
        raise ValueError(f"projection range dimension {spectral_count(dec, k)} exceeds half the cell count "
                         f"{dec.domain.cell_count}; refine the grid before probing this threshold")


def spectral_apply(dec: SpectralDecomposition, weights, f: GridFunction):
    """w(H) f for the real weights w(lambda_j), given in ascending-eigenvalue order.

    ``weights`` is (cells,), or a stack (r, cells) whose rows w_q give an
    iterator over the w_q(H) f, the passes of one ``_weighted_passes``
    transform of ``f`` with no decay rows, each synthesized when reached and
    real for a real f, which must live on the decomposition's domain.
    """
    require_domain(dec.domain, state=f)
    weights = np.asarray(weights)
    stack = np.atleast_2d(weights)
    no_decay = np.empty((0, dec.domain.cell_count))
    _, _, row = next(_weighted_passes(dec, stack, no_decay, f.values[None]))
    rows = (GridFunction(dec.domain, row(q).reshape(dec.domain.shape)) for q in range(len(stack)))
    return next(rows) if weights.ndim == 1 else rows


def semigroup_apply(dec: SpectralDecomposition, t: float, f: GridFunction) -> GridFunction:
    """Apply e^{-tH} by damping each spectral coefficient with e^{-t lambda}."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return spectral_apply(dec, np.exp(-t * dec.eigenvalues), f)


def dissipative_margin(dec: SpectralDecomposition, thresholds, times) -> float:
    """Max over k in ``thresholds`` and t in ``times`` of the exact high-frequency decay ratio.

    The sup of ||(1 - pi_k) e^{-tH} f|| e^{tk} / ||f|| over all f, attained
    in the orthonormal eigenbasis by the eigenfunction of the first level
    above k, is e^{-t (lambda_{d(k)+1} - k)}: at most 1 by the definition of
    d(k), and 0 when no level lies above k.  So it decides nothing, and no
    command calls it; it stays because the benchmark's tracer wraps it by
    name, and moves to ``tests/reference.py`` once the tracer no longer does.
    """
    gaps = [dec.eigenvalues[d] - float(k) for k in thresholds
            if (d := spectral_count(dec, k)) < len(dec.eigenvalues)]
    if not gaps:
        return 0.0
    with np.errstate(under="ignore"):
        return float(np.exp(-np.outer(times, gaps)).max())


# ---------------------------------------------------------------------------
# the spec document, which keys the decomposition cache and every result's input hashes


def spec_to_json(spec: OperatorSpec) -> dict:
    """The spec's fields and its kind, its name in ``OPERATOR_KINDS``: the document ``spec_hash`` hashes.

    A potential stays a GridFunction, which ``content_hash`` takes by its
    bytes, and nothing reads the document back.  The name stays because the
    benchmark's tracer computes a cache file's key from it by that name.
    """
    return dict(vars(spec), kind=next(kind for kind, cls in OPERATOR_KINDS.items() if cls is type(spec)))


def spec_hash(spec: OperatorSpec, *parts) -> str:
    """``content_hash`` of the spec document, a Schrodinger potential by its bytes, and ``parts``."""
    return content_hash(spec_to_json(spec), *parts)
