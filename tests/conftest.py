"""Shared fixtures: the expensive spectral decompositions are built once."""

import os

import numpy as np
import pytest

from stabcert import domain, operators, specineq
from stabcert.domain import from_callable, make_grid
from stabcert.operators import FractionalLaplacian, Schrodinger, ShiftedHermite, diagonalize


@pytest.fixture(scope="session")
def hermite_dec():
    """Shifted harmonic oscillator with c = 0 on the reference wall grid."""
    return diagonalize(ShiftedHermite(c=0.0), make_grid(1, 10.0, 512, periodic=False))


@pytest.fixture(scope="session")
def frac_dec():
    """|xi| symbol (s = 1, c = 0) on the reference periodic grid."""
    return diagonalize(FractionalLaplacian(s=1.0), make_grid(1, 10.0, 512, periodic=True))


@pytest.fixture(scope="session")
def shifted_potential_dec():
    """Schrodinger with V = x^2 - 4: exactly two unstable modes."""
    dom = make_grid(1, 10.0, 512, periodic=False)
    pot = from_callable(dom, lambda x: x**2 - 4.0)
    return diagonalize(Schrodinger(potential=pot), dom)


@pytest.fixture()
def gram_builds(monkeypatch):
    """Range dimension of every restricted_gram call made during the test, in order."""
    built = []
    original = specineq.restricted_gram

    def counting(dec, indices, e):
        built.append(len(indices))
        return original(dec, indices, e)

    monkeypatch.setattr(specineq, "restricted_gram", counting)
    return built


@pytest.fixture()
def coefficient_transforms(monkeypatch):
    """Shape of the values of every forward transform made during the test, in order.

    A forward transform is a basis ``forward`` call (``to_coefficients``
    makes one) or a real FFT of a chunk of real Fourier states
    (``np.fft.rfftn``, which only ``operators`` calls).
    """
    shapes = []

    def counting(original):
        def count(*args, **kwargs):
            shapes.append(np.shape(args[-1]))
            return original(*args, **kwargs)
        return count

    for layout in (operators._FourierBasis, operators._DenseBasis, operators._ParityBasis,
                   operators._KroneckerBasis):
        monkeypatch.setattr(layout, "forward", counting(layout.forward))
    monkeypatch.setattr(np.fft, "rfftn", counting(np.fft.rfftn))
    return shapes


class _BreakingFile:
    """A file open for writing; the write that brings the shared countdown
    to zero writes half its data and raises OSError."""

    def __init__(self, fh, countdown):
        self._fh, self._countdown = fh, countdown

    def write(self, data):
        self._countdown[0] -= 1
        if self._countdown[0] == 0:
            self._fh.write(data[: len(data) // 2])
            raise OSError("write interrupted")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture()
def interrupt_write(monkeypatch):
    """Call with n: the n-th write to a file stabcert writes then breaks off part-way.

    Files are opened with ``os.fdopen`` or, in ``domain``, with ``open``.
    """

    def arm(n):
        countdown = [n]
        fdopen, builtin_open = os.fdopen, open

        def breaking(opener):
            def wrapped(*args, **kwargs):
                fh = opener(*args, **kwargs)
                return fh if "r" in fh.mode else _BreakingFile(fh, countdown)
            return wrapped

        monkeypatch.setattr(os, "fdopen", breaking(fdopen))
        monkeypatch.setattr(domain, "open", breaking(builtin_open), raising=False)

    return arm


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
