"""The benchmark's workloads: fixed CLI command sequences.

Each workload is a list of steps.  A step is one CLI invocation, run
``repeat`` times in a row; every invocation gets the run's seed as ``--seed``
and an ``--out`` path in the run's scratch directory.  The seed is the only
input that varies between runs.

``{potential}`` in an argument is replaced by the path of the potential file
that the run writes during set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

FRAC = ["--operator", "frac", "--s", "1"]
SCHRODINGER = ["--operator", "schrodinger", "--potential", "{potential}"]
HERMITE = ["--operator", "hermite"]

DENSE_DOMAIN = "dim=1,R=10,m=4096,periodic=false"
HERMITE_2D = "dim=2,R=6,m=40,periodic=false"


@dataclass(frozen=True)
class Step:
    label: str
    command: str
    args: tuple
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple
    # Typical wall time of one run on 2 cores; with --seconds it fixes how
    # many runs an invocation makes.
    nominal_s: float
    # Environment of the run: "fresh" points STABCERT_CACHE_DIR to a new
    # directory per run, "off" removes it.
    cache: str = "off"
    # Grid on which set-up writes V(x) = x^2 - 4 to the potential file.
    potential_domain: str = ""


def _step(label, command, *args, repeat=1):
    return Step(label, command, tuple(args), repeat)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fourier-certify",
            why=(
                "periodic frac s=1 in the Fourier basis: the quadrature ladder and the "
                "complex Fourier Gram do the work, the dense eigensolver none"
            ),
            steps=(
                _step("thick-2d", "check-thick",
                      "--domain", "dim=2,R=10,m=320,periodic=true",
                      "--set", "slabs:period=1,fill=0.25",
                      "--lengths", "1,2", "--radii", "2,4,6", repeat=5),
                _step("certify-1d", "certify", *FRAC,
                      "--domain", "dim=1,R=10,m=256,periodic=true",
                      "--set", "slabs:period=1,fill=0.25",
                      "--k-max", "8", "--trials", "1000"),
                _step("certify-2d", "certify", *FRAC,
                      "--domain", "dim=2,R=10,m=40,periodic=true",
                      "--set", "ballcomplement:radius=3",
                      "--k-max", "3", "--trials", "200"),
                _step("probe-1d", "probe", *FRAC,
                      "--domain", "dim=1,R=20,m=2048,periodic=true",
                      "--set", "slabs:period=1,fill=0.25",
                      "--claim", "C=50,T=1,alpha=0.5",
                      "--centers", "0;2.5;-5;7.5;-9"),
            ),
            nominal_s=11.0,
        ),
        Workload(
            name="dense-feedback-cache",
            why=(
                "Schroedinger V=x^2-4 at the dense cap m=4096: one cold eigh that writes the "
                "decomposition cache, then warm commands that read it; no quadrature"
            ),
            steps=(
                _step("feedback-cold", "feedback-build", *SCHRODINGER,
                      "--domain", DENSE_DOMAIN, "--set", "halfspace:offset=0",
                      "--feedback", "finite-rank"),
                _step("simulate-warm", "simulate", *SCHRODINGER,
                      "--domain", DENSE_DOMAIN, "--set", "halfspace:offset=0",
                      "--feedback", "finite-rank", "--t-end", "6", "--dt", "0.002",
                      "--y0", "random", repeat=3),
                _step("spectral-warm", "spectral-constant", *SCHRODINGER,
                      "--domain", DENSE_DOMAIN, "--set", "halfspace:offset=0",
                      "--k-max", "12", repeat=3),
            ),
            nominal_s=16.0,
            cache="fresh",
            potential_domain=DENSE_DOMAIN,
        ),
        Workload(
            name="hermite-stiff",
            why=(
                "shifted Hermite with Dirichlet walls, dense basis, cache off: eigenvalues grow "
                "like |xi|^2 so the ladder runs long, and 2D commands pay a 1600^2 eigh"
            ),
            steps=(
                _step("certify-1d", "certify", *HERMITE,
                      "--domain", "dim=1,R=8,m=128,periodic=false",
                      "--set", "halfspace:offset=0",
                      "--k-max", "8", "--trials", "200"),
                _step("spectral-2d", "spectral-constant", *HERMITE,
                      "--domain", HERMITE_2D, "--set", "halfspace:offset=0",
                      "--k-max", "6"),
                _step("probe-2d", "probe", *HERMITE,
                      "--domain", HERMITE_2D, "--set", "halfspace:offset=0",
                      "--claim", "C=1,T=1,alpha=0"),
            ),
            nominal_s=17.0,
        ),
    )
}


def parse_domain(text: str) -> tuple:
    """(dim, cells, fourier) of a ``--domain`` argument."""
    kv = dict(item.split("=", 1) for item in text.split(","))
    dim, m = int(kv["dim"]), int(kv["m"])
    return dim, m**dim, kv.get("periodic", "true") == "true"


def step_domain(step: Step) -> str:
    return step.args[step.args.index("--domain") + 1]


def working_set(workload: Workload) -> dict:
    """Computed sizes of the largest arrays each step builds, in bytes.

    ``gram`` is the full-basis restricted Gram of the flow checks and probes
    (complex in the Fourier basis), ``pair_sums`` the cells^2 array of
    eigenvalue pair sums the quadrature ladder takes np.unique of, and
    ``dense_matrix`` the operator matrix of a dense eigensolve, which is also
    the size of the eigenvector array the cache file stores.
    """
    out = {}
    for step in workload.steps:
        if step.command == "check-thick":
            continue
        dim, cells, fourier = parse_domain(step_domain(step))
        sizes = {"cells": cells}
        quadrature = step.command in ("certify", "probe")
        if quadrature:
            sizes["gram"] = cells * cells * (16 if fourier else 8)
            sizes["pair_sums"] = cells * cells * 8
        if not fourier:
            sizes["dense_matrix"] = cells * cells * 8
        out[step.label] = sizes
    return out
