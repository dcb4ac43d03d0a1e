"""Uniform grids on a truncated box and the shared discrete L2 structure.

Every computation in this package lives on the box [-R, R]^n (n = 1 or 2)
split into m cells per axis.  Cell centers sit at the midpoints

    x_j = -R + (j + 1/2) h,        h = 2R / m,

for both periodic and wall-bounded grids, and all inner products are
midpoint-rule sums weighted by the cell volume h^n.  With this convention
the discrete Fourier transform on periodic grids is an exact isometry
(Parseval holds to roundoff), which keeps projection algebra and semigroup
evaluation exact downstream.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np


class DomainMismatchError(ValueError):
    """Two grid objects that must share a domain do not."""


def require_domain(domain: GridDomain, **inputs) -> None:
    """The one domain rule: the first of the grid ``inputs`` not on ``domain`` raises, named by its keyword."""
    for name, obj in inputs.items():
        if obj.domain != domain:
            raise DomainMismatchError(f"{name.replace('_', ' ')} lives on a different domain ({obj.domain}) than {domain}")


@dataclass(frozen=True)
class GridDomain:
    """Uniform grid on [-R, R]^dim with midpoint cell centers."""

    dim: int
    half_width: float
    points_per_axis: int
    periodic: bool

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def cell_count(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    def axis_coords(self) -> np.ndarray:
        """Midpoint coordinates along one axis."""
        m = self.points_per_axis
        return -self.half_width + (np.arange(m) + 0.5) * self.spacing

    def meshgrid(self) -> tuple:
        """Coordinate arrays of the full grid, one per axis, ij indexed."""
        axes = (self.axis_coords(),) * self.dim
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def radius_grid(self, center=None) -> np.ndarray:
        """Euclidean distance of each cell center from ``center`` (default origin).

        On periodic grids distances use the minimal image convention.
        """
        if center is None:
            center = (0.0,) * self.dim
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.dim,):
            raise ValueError(f"center must have {self.dim} components")
        sq = []
        for c in center:  # per axis, then joined by outer sums: the floats of a sum over the full grid
            d = self.axis_coords() - c
            if self.periodic:
                width = 2.0 * self.half_width
                d = (d + self.half_width) % width - self.half_width
            sq.append(d * d)
        return np.sqrt(functools.reduce(np.add.outer, sq))

    def frequency_axis(self) -> np.ndarray:
        """Fourier frequencies (pi/R) * {-m/2, ..., m/2 - 1} in FFT layout."""
        if not self.periodic:
            raise ValueError("frequency lattice is defined for periodic grids only")
        m = self.points_per_axis
        return (np.pi / self.half_width) * np.fft.fftfreq(m, d=1.0 / m)

    def frequency_norm(self) -> np.ndarray:
        """|xi| on the frequency grid, of the grid's shape and in FFT layout on every axis."""
        sq = self.frequency_axis() ** 2
        return np.sqrt(functools.reduce(np.add.outer, (sq,) * self.dim))


@dataclass(frozen=True)
class GridFunction:
    """Scalar values, one per grid cell, attached to their domain."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != self.domain.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.domain.shape}"
            )
        if not np.issubdtype(values.dtype, np.floating) and not np.issubdtype(
            values.dtype, np.complexfloating
        ):
            values = values.astype(float)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def make_grid(dim: int, half_width: float, points_per_axis: int, periodic: bool = True) -> GridDomain:
    """Validate parameters and build a GridDomain.

    Parameters
    ----------
    dim : 1 or 2.  Higher dimensions are refused; the dense eigensolvers
        downstream would not be affordable.
    half_width : box half width R > 0.
    points_per_axis : even integer >= 8.
    periodic : periodic wrap (Fourier operators) or walls at +-R.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if not 0.0 < half_width < np.inf:
        raise ValueError(f"half_width R must be positive and finite, got {half_width}")
    m = int(points_per_axis)
    if m != points_per_axis or m % 2 != 0 or m < 8:
        raise ValueError(f"points_per_axis must be an even integer >= 8, got {points_per_axis}")
    return GridDomain(dim=dim, half_width=float(half_width), points_per_axis=m, periodic=bool(periodic))


def from_callable(domain: GridDomain, fn) -> GridFunction:
    """Sample ``fn`` at the cell centers; fn receives one array per axis."""
    return GridFunction(domain, np.asarray(fn(*domain.meshgrid())))


def norm(f: GridFunction) -> float:
    return float(np.sqrt(f.domain.cell_volume) * np.linalg.norm(f.values.ravel()))


def restrict_norm(f: GridFunction, e) -> float:
    """Discrete L2 norm of ``f`` over the cells where the indicator ``e`` is true.

    ``e`` is any object with a matching ``domain`` and a boolean ``cells``
    array (see geometry.SetIndicator).  Always <= norm(f).
    """
    require_domain(f.domain, set=e)
    sq = np.abs(f.values[e.cells]) ** 2
    return float(np.sqrt(f.domain.cell_volume * sq.sum()))


# ---------------------------------------------------------------------------
# serialization


def domain_header(domain: GridDomain) -> dict:
    return dataclasses.asdict(domain)


def require_keys(doc: dict, keys, what: str) -> None:
    """Raise ValueError naming the ``keys`` that the document ``doc`` lacks."""
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{what} is missing keys: {missing}")


def domain_from_header(header: dict) -> GridDomain:
    keys = [f.name for f in dataclasses.fields(GridDomain)]
    require_keys(header, keys, "domain header")
    return make_grid(**{key: header[key] for key in keys})


def grid_function_to_json(f: GridFunction) -> dict:
    """Flat row-major values, through ``jsonable`` (a non-finite one is its repr), and the domain header."""
    flat = f.values.ravel(order="C")
    dtype = "complex" if np.iscomplexobj(flat) else "real"
    return {"header": domain_header(f.domain), "dtype": dtype, "values": jsonable(flat)}


def grid_function_from_json(doc: dict) -> GridFunction:
    require_keys(doc, ("header", "values"), "grid function document")
    domain = domain_from_header(doc["header"])
    vals = np.asarray(doc["values"], dtype=float)  # a repr string ("inf", "nan") reads as its float
    if doc.get("dtype") == "complex":
        vals = vals.view(complex)  # the pairs [re, im], bit for bit
    return GridFunction(domain, vals.reshape(domain.shape))


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Open a file that replaces ``path`` only once the block completes.

    The data goes to a temporary file in the directory of ``path``, which
    is given the permissions ``open`` would give a new file and renamed onto
    ``path`` at the end of the block; on any exception the temporary file is
    removed and ``path`` is left as it was.
    """
    path = str(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".stabcert-")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_grid_function(f: GridFunction, path) -> None:
    """Write ``f`` to ``path``; JSON when the suffix is .json, raw binary otherwise.

    The binary layout is one UTF-8 header line (JSON: domain header plus
    dtype) followed by the row-major values buffer.  Either is written
    through ``atomic_write``.
    """
    path = str(path)
    if path.endswith(".json"):
        with atomic_write(path) as fh:
            json.dump(grid_function_to_json(f), fh)
        return
    dtype = "complex128" if np.iscomplexobj(f.values) else "float64"
    header = dict(domain_header(f.domain), dtype=dtype)
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(f.values.astype(dtype).tobytes(order="C"))


def load_grid_function(path) -> GridFunction:
    path = str(path)
    if path.endswith(".json"):
        with open(path) as fh:
            return grid_function_from_json(json.load(fh))
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        buf = fh.read()
    require_keys(header, ("dtype",), "grid function header")
    domain = domain_from_header(header)
    vals = np.frombuffer(buf, dtype=header["dtype"]).reshape(domain.shape)
    return GridFunction(domain, vals)


def jsonable(x):
    """Builtin-type mirror of x; non-finite floats become repr strings.

    A complex scalar becomes the pair [re, im], as in grid_function_to_json.
    """
    if isinstance(x, (np.floating, np.complexfloating, np.integer, np.bool_)):
        x = x.item()
    if isinstance(x, float):
        return x if np.isfinite(x) else repr(x)
    if isinstance(x, complex):
        return [jsonable(x.real), jsonable(x.imag)]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, np.ndarray):
        return jsonable(x.tolist())
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


# ---------------------------------------------------------------------------
# content hashing (drives the decomposition cache and result provenance)


def _hash_update(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, GridFunction):
        _hash_update(h, domain_header(obj.domain))
        _hash_update(h, obj.values)
    elif isinstance(obj, GridDomain):
        _hash_update(h, domain_header(obj))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _hash_update(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            h.update(str(key).encode())
            _hash_update(h, obj[key])
        h.update(b"}")
    else:
        h.update(repr(obj).encode())


def content_hash(*parts) -> str:
    """Stable SHA-256 over nested scalars, dicts, arrays and grid objects."""
    h = hashlib.sha256()
    for part in parts:
        _hash_update(h, part)
    return h.hexdigest()
