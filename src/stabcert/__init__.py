"""Stabilization certificates for parabolic equations on discretized domains.

The package answers, for a discretized generator H (fractional Laplacian,
shifted harmonic oscillator, or Schrodinger with a confining potential) and
an observation set E, three related questions: does E satisfy a weak
observability inequality with explicit constants (certify), is E thick or
weakly thick (geometry), and which explicit feedback stabilizes the
equation (feedback).  Necessity is handled by falsification probes that
refute over-optimistic observability claims (probes).
"""

__version__ = "0.1.0"

from .certify import certify_end_to_end
from .domain import GridFunction, make_grid, norm
from .geometry import HalfSpace, PeriodicSlabs, make_set
from .operators import FractionalLaplacian

# the README quick start and what the scripts import from the package root
__all__ = [
    "FractionalLaplacian",
    "GridFunction",
    "HalfSpace",
    "PeriodicSlabs",
    "certify_end_to_end",
    "make_grid",
    "make_set",
    "norm",
]
