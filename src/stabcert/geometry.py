"""Grid subsets and the geometric classes they fall into.

A set E is carried as one boolean per grid cell (membership of the cell
center).  Three nested classes matter downstream: positive measure, weak
thickness (positive asymptotic density in balls around the origin), and
thickness (every cube of a fixed side meets E in a fixed measure fraction).
Thickness is decided by sliding a cube over every grid-aligned position,
with periodic wrap when the domain wraps; on wall-bounded grids only cubes
inside the box are tested and the report says so, since the continuum
quantifier ranges over all translates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import GridDomain, domain_header, domain_from_header, require_domain, require_keys

@dataclass(frozen=True)
class SetIndicator:
    domain: GridDomain
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=bool).copy()
        if cells.shape != self.domain.shape:
            raise ValueError(
                f"cells shape {cells.shape} does not match grid shape {self.domain.shape}"
            )
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def measure(self) -> float:
        return float(self.cells.sum() * self.domain.cell_volume)


@dataclass(frozen=True)
class ThicknessReport:
    is_thick: bool
    gamma: Optional[float]
    side_length: Optional[float]
    worst_cube_center: tuple
    gamma_by_length: dict
    truncated: bool


@dataclass(frozen=True)
class WeakThicknessReport:
    radii: tuple
    densities: tuple
    liminf_proxy: float
    is_weakly_thick: bool
    truncation_note: str


# ---------------------------------------------------------------------------
# fixture shapes


@dataclass(frozen=True)
class Full:
    pass


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class HalfSpace:
    axis: int = 0
    offset: float = 0.0


@dataclass(frozen=True)
class BallComplement:
    center: tuple = (0.0,)  # one component stands for every axis
    radius: float = 1.0


@dataclass(frozen=True)
class PeriodicSlabs:
    period: float = 1.0
    fill_fraction: float = 0.25
    axis: int = 0


def _along_axis(domain: GridDomain, axis: int, flags) -> np.ndarray:
    """The grid of ``flags`` taken along ``axis`` and repeated along every other (a read-only view)."""
    return np.broadcast_to(flags.reshape([-1 if a == axis else 1 for a in range(domain.dim)]), domain.shape)


def make_set(domain: GridDomain, shape) -> SetIndicator:
    """Rasterize a fixture shape by cell-center membership; a saved set must lie on ``domain``."""
    R = domain.half_width
    if isinstance(shape, SetIndicator):
        require_domain(domain, saved_set=shape)
        return shape
    if isinstance(shape, Full):
        return SetIndicator(domain, np.ones(domain.shape, dtype=bool))
    if isinstance(shape, Empty):
        return SetIndicator(domain, np.zeros(domain.shape, dtype=bool))
    if isinstance(shape, HalfSpace):
        if not 0 <= shape.axis < domain.dim:
            raise ValueError(f"axis {shape.axis} out of range for dim {domain.dim}")
        if not abs(shape.offset) <= R:
            raise ValueError(f"half-space offset {shape.offset} outside the box")
        return SetIndicator(domain, _along_axis(domain, shape.axis, domain.axis_coords() > shape.offset))
    if isinstance(shape, BallComplement):
        if not 0 < shape.radius <= 2 * R:
            raise ValueError(f"ball radius must lie in (0, 2R], got {shape.radius}")
        center = np.atleast_1d(np.asarray(shape.center, dtype=float))
        if center.shape == (1,):
            center = np.repeat(center, domain.dim)
        if center.shape != (domain.dim,):
            raise ValueError(f"center must have {domain.dim} components")
        if not np.abs(center).max() <= R:
            raise ValueError(f"ball center {tuple(center)} outside the box")
        return SetIndicator(domain, domain.radius_grid(tuple(center)) >= shape.radius)
    if isinstance(shape, PeriodicSlabs):
        if not 0 < shape.fill_fraction <= 1:
            raise ValueError("fill_fraction must lie in (0, 1]")
        if not 0 < shape.period <= 2 * R:
            raise ValueError("period must lie in (0, 2R]")
        if not 0 <= shape.axis < domain.dim:
            raise ValueError(f"axis {shape.axis} out of range for dim {domain.dim}")
        inside = np.mod(domain.axis_coords(), shape.period) < shape.fill_fraction * shape.period
        return SetIndicator(domain, _along_axis(domain, shape.axis, inside))
    raise TypeError(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# thickness


def _window_counts(cells: np.ndarray, w: int, periodic: bool) -> np.ndarray:
    """Cube-window cell counts at every admissible start index (prefix sums)."""
    a = cells.astype(np.int64)
    for axis in range(a.ndim):
        def along(start, stop=None):
            return (slice(None),) * axis + (slice(start, stop),)

        if periodic:
            a = np.concatenate([a, a[along(0, w - 1)]], axis=axis)
        cs = np.cumsum(a, axis=axis)
        # window s sums a[s : s + w]: cs[s + w - 1] less cs[s - 1], which is 0 at s = 0
        a = cs[along(w - 1)]
        a[along(1)] -= cs[along(0, cs.shape[axis] - w)]
    return a


def check_thick(e: SetIndicator, side_lengths) -> ThicknessReport:
    """Decide thickness over the given cube side lengths.

    Each side length must be a whole number of cells.  gamma(L) is the worst
    measure fraction |E meet Q_L(x)| / L^n over all tested cube positions;
    the report keeps the whole gamma(L) table and flags the first L whose
    gamma is positive.
    """
    domain = e.domain
    h = domain.spacing
    side_lengths = [float(L) for L in side_lengths]
    if not side_lengths:
        raise ValueError("need at least one side length")
    gamma_by_length = {}
    found = None
    worst_center = None
    for L in side_lengths:
        if not 0.0 < L <= 2 * domain.half_width + 1e-12:
            raise ValueError(f"side length {L} is not positive or exceeds the box size")
        w = L / h
        w_int = int(round(w))
        if w_int < 1 or abs(w - w_int) > 1e-9 * max(1.0, w):
            raise ValueError(f"side length {L} is not a whole number of cells (h = {h})")
        counts = _window_counts(e.cells, w_int, domain.periodic)
        idx = np.unravel_index(np.argmin(counts), counts.shape)
        gamma = counts[idx] * h**domain.dim / L**domain.dim
        gamma_by_length[L] = float(gamma)
        center = tuple(-domain.half_width + (s + w_int / 2.0) * h for s in idx)
        if gamma > 0 and found is None:
            found = (L, float(gamma), center)
        worst_center = center
    L, gamma, center = found if found is not None else (None, None, worst_center)
    return ThicknessReport(
        is_thick=found is not None,
        gamma=gamma,
        side_length=L,
        worst_cube_center=center,
        gamma_by_length=gamma_by_length,
        truncated=not domain.periodic,
    )


def check_weakly_thick(e: SetIndicator, radii) -> WeakThicknessReport:
    """Density of E in balls around the origin, with a liminf proxy.

    The density at radius r is the cell-count fraction |E meet B(0,r)| / |B(0,r)|;
    the liminf over r -> infinity is proxied by the minimum over the larger
    half of the tested radii.  Both the truncation and the proxy are recorded.
    """
    domain = e.domain
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("need at least one radius")
    if not all(0.0 < r <= domain.half_width for r in radii):
        raise ValueError(f"radii must be positive and stay within the box, got {radii}")
    if sorted(radii) != radii:
        raise ValueError("radii must ascend")
    dist = domain.radius_grid()
    densities = []
    for r in radii:
        ball = dist <= r
        total = int(ball.sum())
        hits = int((ball & e.cells).sum())
        densities.append(hits / total if total else 0.0)
    tail = densities[len(densities) // 2 :]
    proxy = float(min(tail))
    return WeakThicknessReport(
        radii=tuple(radii),
        densities=tuple(densities),
        liminf_proxy=proxy,
        is_weakly_thick=proxy > 0.0,
        truncation_note=(
            "densities are computed on the truncated box; the liminf is proxied "
            "by the minimum over the largest tested radii"
        ),
    )


# ---------------------------------------------------------------------------
# serialization (run-length encoded row-major bitmap)


def set_to_json(e: SetIndicator) -> dict:
    flat = e.cells.ravel(order="C")
    edges = np.concatenate([[0], np.flatnonzero(np.diff(flat)) + 1, [flat.size]])
    return {"header": domain_header(e.domain), "first": bool(flat[0]), "runs": np.diff(edges).tolist()}


def set_from_json(doc: dict) -> SetIndicator:
    require_keys(doc, ("header", "first", "runs"), "set document")
    domain = domain_from_header(doc["header"])
    flat = np.empty(domain.cell_count, dtype=bool)
    value = doc["first"]
    if not isinstance(value, bool):  # bool("false") is True: the complement of the set named
        raise ValueError(f"first must be a JSON boolean (true or false), got {value!r}")
    pos = 0
    for run in doc["runs"]:
        if isinstance(run, bool) or not isinstance(run, int) or not 0 <= run <= domain.cell_count - pos:
            raise ValueError(f"run length {run!r} at cell {pos} is not an integer from 0 to the "
                             f"{domain.cell_count - pos} cells left")
        flat[pos : pos + run] = value
        pos += run
        value = not value
    if pos != domain.cell_count:
        raise ValueError(f"run lengths cover {pos} cells, expected {domain.cell_count}")
    return SetIndicator(domain, flat.reshape(domain.shape))
