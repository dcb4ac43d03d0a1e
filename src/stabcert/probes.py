"""Falsification probes for claimed observability triples (C, T, alpha).

A claimed inequality ||e^{-TH} phi|| <= C (int_0^T ||e^{-tH} phi||_E^2 dt)^{1/2}
+ alpha ||phi|| is universal in phi, so a single well-chosen state refutes
it.  For fractional generators the probe family is the self-similar heat
kernel: with g = F^{-1} e^{-|xi|^s},

    u(t, x; l) = e^{ct} (t + l)^{-n/s} g((x - x0) / (t + l)^{1/s}),

solving (d_t + (-Lap)^{s/2} - c) u = 0 with initial datum concentrated near
x0 at scale l^{1/s}.  Its norm obeys the exact law
||u(t)|| = C2 (t + l)^{-n/(2s)} e^{ct}, and the parameter l0 below balances
the decayed norm at time T against alpha times the initial norm, leaving a
definite gap that only mass of E near x0 can close.  If E is empty near x0
the observation integral stays small and the claim is violated there;
otherwise the probe yields a computable lower bound on |E inside B(x0, L0)|.

For the harmonic oscillator the probe is the ground state
Phi0(x) = pi^{-n/4} e^{-|x|^2 / 2} (the unit-norm convention; the variant
with the positive quarter-power of pi that is sometimes quoted is not
normalized), whose modal flow e^{(c-n)t} Phi0 is exact, so every quantity
in the test has a closed form.

Every observation integral is taken on the discretized semigroup itself,
through the certified low-rank time kernel of the certificate checks
(certify.time_kernel): a probe reports a violation only if the upper end
of its bracket still violates (certify.weak_margins, the weak check's
margins), so the kernel can hide a violation but never invent one, and
the local-mass bounds use the upper ends of the probe's tail masses and
peak density, so they hold on the grid.  The self-similar formula is
evaluated at t = 0 only, to build every centre's initial datum from one
scale-1 kernel; their evolution is the grid flow's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .certify import TimeKernel, weak_margins
from .domain import GridDomain, GridFunction, from_callable, norm as _norm, require_domain, restrict_norm, to_csv
from .geometry import SetIndicator
from .operators import FractionalLaplacian, ShiftedHermite, SpectralDecomposition, spectral_apply


@dataclass(frozen=True)
class ObservationClaim:
    C: float
    T: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.C < np.inf and 0.0 < self.T < np.inf):
            raise ValueError(f"claim requires finite C > 0 and T > 0, got C = {self.C}, T = {self.T}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")


def build_kernel(s: float, domain: GridDomain) -> GridFunction:
    """Inverse FFT of e^{-|xi|^s} on the midpoint grid.

    The midpoint offset enters as a per-axis phase e^{i pi k (1/m - 1)} on
    the integer frequencies.  The unpaired Nyquist mode leaves an imaginary
    residue of size e^{-|xi_max|^s} / h^n; exceeding 1e-12 means the symbol
    has not decayed across the resolved band (small s on a coarse grid) and
    is raised rather than discarded.
    """
    if not domain.periodic:
        raise ValueError("kernel construction requires a periodic domain")
    if s <= 0:
        raise ValueError("s must be positive")
    m = domain.points_per_axis
    k_int = np.fft.fftfreq(m, d=1.0 / m)
    phase = np.exp(1j * np.pi * k_int * (1.0 / m - 1.0))
    phases = functools.reduce(np.multiply.outer, (phase,) * domain.dim)
    g = np.fft.ifftn(np.exp(-domain.frequency_norm() ** s) * phases) / domain.cell_volume
    resid = float(np.abs(g.imag).max())
    if resid > 1e-12:
        raise ValueError(
            f"imaginary residue {resid:.3e} in the kernel transform; the symbol has not "
            "decayed across the resolved band, refine the grid or enlarge the domain"
        )
    return GridFunction(domain, g.real)


def kernel_probe_solution(kernel: GridFunction, s: float, centers, l: float) -> np.ndarray:
    """The (P,) + grid stack of data u(0, x; l) = l^{-n/s} g((x - x0) / l^{1/s}), one per centre.

    ``kernel`` is g = build_kernel(s, domain).  Each datum interpolates it
    linearly at the periodic minimal image of x - x0, one axis at a time by
    np.interp (bilinear interpolation in 2D); arguments outside the box take
    the value zero, which is accurate to the kernel's tail size.
    """
    domain = kernel.domain
    axes, big_r = domain.axis_coords(), domain.half_width
    sigma = l ** (1.0 / s)
    stack = np.empty((len(centers),) + domain.shape)
    for i, x0 in enumerate(centers):
        vals = kernel.values
        for axis, x in enumerate(x0):
            points = (np.mod(axes - x + big_r, 2.0 * big_r) - big_r) / sigma
            vals = np.apply_along_axis(lambda v: np.interp(points, axes, v, left=0.0, right=0.0), axis, vals)
        stack[i] = l ** (-domain.dim / s) * vals
    return stack


def choose_l0(T: float, alpha: float, s: float, n: int) -> float:
    """The balancing parameter l0 = T / ((2/(1+alpha))^{2s/n} - 1).

    It is defined by (T + l0)^{-n/(2s)} = ((1 + alpha)/2) l0^{-n/(2s)}, so
    the norm at time T exceeds alpha times the initial norm by the definite
    amount ((1-alpha)/2) l0^{-n/(2s)} (times the c-growth factor).  The
    identity is asserted to 1e-12 at every call.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if T <= 0 or s <= 0 or n < 1:
        raise ValueError("need T > 0, s > 0, n >= 1")
    spread = (2.0 / (1.0 + alpha)) ** (2.0 * s / n) - 1.0
    if not spread > 0.0:
        raise ValueError(f"alpha = {alpha!r} is too close to 1 to balance the probe in double precision")
    l0 = T / spread
    p = -n / (2.0 * s)
    lhs = (T + l0) ** p - alpha * l0**p
    rhs = 0.5 * (1.0 - alpha) * l0**p
    if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs), 1e-300):
        raise ArithmeticError(f"l0 defining identity violated: {lhs} vs {rhs}")
    return float(l0)


@dataclass(frozen=True)
class TailProfile:
    radii: tuple
    tail_masses: tuple
    total_mass: float
    peak_density: float


def observation_tail(dec: SpectralDecomposition, kernel: TimeKernel, phi: GridFunction, center) -> TailProfile:
    """Certified upper ends of the time-integrated mass of e^{-tH} phi beyond each radius.

    ``kernel`` is certify.time_kernel(dec.eigenvalues, 0, T).  Its rows
    l_q give the per-cell density q(x) = sum_q |(l_q(H) phi)(x)|^2, from one
    spectral_apply of the stack of rows: phi is transformed once, and each
    row is one synthesis on the grid, a real inverse FFT of the half
    spectrum when phi is a real state in the Fourier kind.  Over
    any set E, I = h sum_E q less the roundoff allowance brackets
    int_0^T ||chi_E e^{-tH} phi||^2 dt in [I, I + B ||phi||^2], B the
    kernel's bound: TimeKernel.bracket, the rule of
    certify.inequality_margins.  Every figure is that upper end: tail(L)
    over {|x - center| > L}, the total mass, and peak_density, the largest
    upper end over one cell divided by h, which converts mass bounds into
    measure bounds.  The tails decrease in L.
    """
    domain = dec.domain
    q = np.zeros(domain.shape)
    for row in spectral_apply(dec, kernel.weights, phi):
        q += np.abs(row.values) ** 2
    h = domain.cell_volume
    radii, shell_of = np.unique(domain.radius_grid(center=center), return_inverse=True)
    shells = np.bincount(shell_of.ravel(), weights=q.ravel()) * h
    sums = np.concatenate([shells.sum() - np.cumsum(shells), [shells.sum(), q.max() * h]])
    upper = kernel.bracket(sums, _norm(phi) ** 2)[1]
    return TailProfile(
        radii=tuple(float(v) for v in radii),
        tail_masses=tuple(float(v) for v in upper[:-2]),
        total_mass=float(upper[-2]),
        peak_density=float(upper[-1] / h),
    )


@dataclass(frozen=True)
class CenterReport:
    center: tuple
    l0: float
    probe_norm: float
    lhs: float
    gap: float
    observation: float
    margin: float
    violated: bool
    half_mass_radius: Optional[float]
    local_mass_bound: Optional[float]


@dataclass(frozen=True)
class FalsificationReport:
    claim: ObservationClaim
    centers: tuple
    any_violation: bool
    kernel_rank: int
    kernel_bound: float


def falsify_weak_observability(
    dec: SpectralDecomposition,
    e: SetIndicator,
    claim: ObservationClaim,
    centers: Sequence,
) -> FalsificationReport:
    """Test the claimed (C, T, alpha) against kernel probes at each center.

    The data phi = u(0, .; l0) of all centers are one stack from
    ``kernel_probe_solution``, passed to ``certify.weak_margins`` as it is.
    The verdict per center compares, on the discretized semigroup, the
    decayed norm ||e^{-TH} phi|| against C (observation integral)^{1/2}
    + alpha ||phi||, with the integral at the upper end of its certified
    bracket (the reported ``observation``).
    A negative margin is a witnessed violation.  Centers that do not
    violate get the implied local-mass bound: if the claim holds, the
    observation integral is at least (gap/C)^2, and whatever part of it the
    far tail cannot supply must come from E inside the probe's half-mass
    ball B(x0, L0), giving |E intersect B(x0, L0)| >= ((gap/C)^2 -
    tail(L0)) / peak density.  The tail, the total mass that fixes L0 and
    the peak density are the certified upper ends of ``observation_tail``,
    all from one time kernel over [0, T], so the bound holds on the grid.
    """
    require_domain(dec.domain, set=e)
    if not isinstance(dec.spec, FractionalLaplacian):
        raise TypeError("kernel probes apply to the fractional kind only")
    s, c = dec.spec.s, dec.spec.c
    domain = dec.domain
    n = domain.dim
    l0 = choose_l0(claim.T, claim.alpha, s, n)
    if (claim.T + l0) ** (1.0 / s) > domain.half_width / 2.0:
        raise ValueError(
            f"probe scale (T+l0)^(1/s) = {(claim.T + l0) ** (1.0 / s):.4g} exceeds R/2; "
            "enlarge the domain half-width"
        )
    if c < 0:
        raise ValueError("c must be nonnegative")
    centers = [tuple(float(v) for v in np.atleast_1d(x0)) for x0 in centers]
    for x0 in centers:
        if len(x0) != n:
            raise ValueError(f"center has {len(x0)} components, domain is {n}-dimensional")
        if not all(abs(v) <= domain.half_width for v in x0):
            raise ValueError(f"center {x0} outside the box [-R, R]^n")
    states = kernel_probe_solution(build_kernel(s, domain), s, centers, l0)
    phi_norms = np.array([_norm(GridFunction(domain, phi)) for phi in states])
    margins, lhs, obs, evaluation = weak_margins(dec, e, states, phi_norms, claim.C, claim.T, claim.alpha, "upper")
    kernel = evaluation.kernels[0]
    reports = []
    for i, x0 in enumerate(centers):
        gap = float(lhs[i] - claim.alpha * phi_norms[i])
        violated = bool(margins[i] < 0.0)
        half_mass_radius = local_mass_bound = None
        if not violated and gap > 0.0:
            profile = observation_tail(dec, kernel, GridFunction(domain, states[i]), x0)
            k = next((k for k, tail in enumerate(profile.tail_masses) if tail <= 0.5 * profile.total_mass), None)
            if k is not None:  # none when the kernel has rank 0: every figure is then the bound alone
                half_mass_radius = profile.radii[k]
                needed = (gap / claim.C) ** 2 - profile.tail_masses[k]
                local_mass_bound = max(needed, 0.0) / profile.peak_density
        reports.append(
            CenterReport(
                center=x0,
                l0=l0,
                probe_norm=float(phi_norms[i]),
                lhs=float(lhs[i]),
                gap=gap,
                observation=float(obs[i]),
                margin=float(margins[i]),
                violated=violated,
                half_mass_radius=half_mass_radius,
                local_mass_bound=local_mass_bound,
            )
        )
    return FalsificationReport(
        claim=claim,
        centers=tuple(reports),
        any_violation=any(r.violated for r in reports),
        kernel_rank=kernel.rank,
        kernel_bound=kernel.bound,
    )


@dataclass(frozen=True)
class HermiteFalsificationReport:
    claim: ObservationClaim
    lhs: float
    observation: float
    margin: float
    violated: bool
    analytic_lhs: float
    analytic_rhs: float
    analytic_violated: bool
    kernel_rank: int
    kernel_bound: float


def falsify_hermite_ground_state(
    dec: SpectralDecomposition, e: SetIndicator, claim: ObservationClaim
) -> HermiteFalsificationReport:
    """Ground-state probe for the harmonic kind: everything in closed form.

    The flow of Phi0 is e^{(c-n)t} Phi0 exactly, so the claim reduces to

        e^{(c-n)T} - alpha <= C ( I_T ||Phi0||_E^2 )^{1/2},
        I_T = (e^{2(c-n)T} - 1) / (2(c-n))   (= T when c = n),

    and a set with tiny Gaussian mass makes the right side arbitrarily
    small.  The discrete verdict (margin, violated) uses the grid semigroup
    and the upper end of its certified observation bracket (the reported
    ``observation``); the analytic pair is reported alongside.
    """
    if not isinstance(dec.spec, ShiftedHermite):
        raise TypeError("the ground-state probe applies to the harmonic kind only")
    domain = dec.domain
    n, c = domain.dim, dec.spec.c
    phi0 = from_callable(
        domain,
        lambda *xs: np.pi ** (-n / 4.0) * np.exp(-0.5 * sum(x**2 for x in xs)),
    )
    phi0 = GridFunction(domain, phi0.values / _norm(phi0))
    margins, lhs, obs, evaluation = weak_margins(dec, e, phi0.values[None], 1.0, claim.C, claim.T, claim.alpha, "upper")
    kernel = evaluation.kernels[0]
    rate = c - n
    with np.errstate(over="ignore", invalid="ignore"):  # the closed form may overflow where the grid flow does not
        analytic_lhs = float(np.exp(rate * claim.T) - claim.alpha)
        time_integral = claim.T if rate == 0.0 else (np.exp(2.0 * rate * claim.T) - 1.0) / (2.0 * rate)
        analytic_rhs = float(claim.C * np.sqrt(time_integral) * restrict_norm(phi0, e))
    return HermiteFalsificationReport(
        claim=claim,
        lhs=float(lhs[0]),
        observation=float(obs[0]),
        margin=float(margins[0]),
        violated=bool(margins[0] < 0.0),
        analytic_lhs=analytic_lhs,
        analytic_rhs=analytic_rhs,
        analytic_violated=bool(analytic_rhs < analytic_lhs),
        kernel_rank=kernel.rank,
        kernel_bound=kernel.bound,
    )


def falsification_to_csv(report: FalsificationReport) -> str:
    rows = [(":".join(repr(float(v)) for v in r.center), float(r.lhs), float(r.observation), int(r.violated))
            for r in report.centers]
    return to_csv(("x0", "lhs", "observation", "violated"), rows)
