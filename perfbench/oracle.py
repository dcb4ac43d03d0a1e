"""Correctness checks for the result documents of the benchmark's commands.

Three kinds of check:

* the exit code and the verdict fields (``status``, ``any_violation``,
  ``is_thick``) match the reference;
* values that do not depend on ``--seed`` (certificate constants, C(k)
  curves, feedback Gram figures, probe left-hand sides and analytic fields)
  match the reference recorded by ``record_reference.py``;
* the closed loop of ``simulate`` decays: a fitted rate above 0.2, as in
  the acceptance tests, and a smaller norm at the end than at the middle.
  The acceptance tests also require a non-increasing trailing half; that
  holds for their seeds but not for every random start (see tail_max_rise),
  so it is recorded and not gated.

Gram entries are compared by magnitude: the sign of an eigenvector is a
solver convention until the program pins it.
"""

from __future__ import annotations

import math

import numpy as np

# Linear-algebra values agree across conforming LAPACKs far below this.
RTOL = 1e-7
# Values that go through the time quadrature of observation integrals.  The
# Simpson ladder converges to 1e-9 and exact integrals differ from it by a
# few 1e-8, while a wrong integrand moves them by far more than this.
QUAD_RTOL = 1e-5
QUAD_KEYS = ("observation",)
MIN_OMEGA = 0.2


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}", value[key], out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, out)
    else:
        out[prefix] = value


def extract(command: str, outputs: dict) -> dict:
    """The seed-independent fields of a command's outputs, flattened."""
    picked = {}
    if "error" in outputs:
        picked["error"] = outputs["error"]
    elif command == "check-thick":
        thick = outputs["thickness"]
        picked["is_thick"] = thick["is_thick"]
        picked["gamma_by_length"] = thick["gamma_by_length"]
        if "weak_thickness" in outputs:
            picked["densities"] = outputs["weak_thickness"]["densities"]
    elif command in ("certify", "spectral-constant"):
        picked["constants"] = outputs["curve"]["constants"]
        if "fit" in outputs["curve"]:
            picked["fit_c1"] = outputs["curve"]["fit"]["c1"]
        if command == "certify":
            picked["status"] = outputs["status"]
            if "certificate" in outputs:
                picked["certificate"] = outputs["certificate"]
                picked["hypothesis_c1"] = outputs["hypothesis"]["c1"]
    elif command == "feedback-build":
        fb = outputs["feedback"]
        for key in ("rho", "unstable_count", "gram_cond", "norm_bound"):
            picked[key] = fb[key]
        picked["abs_gram"] = np.abs(np.asarray(fb["gram"], dtype=float)).tolist()
    elif command == "probe":
        picked["any_violation"] = outputs["any_violation"]
        if "hermite_probe" in outputs:
            hp = outputs["hermite_probe"]
            for key in ("lhs", "observation", "violated", "analytic_lhs",
                        "analytic_rhs", "analytic_violated"):
                picked[key] = hp[key]
        else:
            picked["centers"] = [
                {key: c[key] for key in ("lhs", "observation", "violated")}
                for c in outputs["centers"]
            ]
    flat = {}
    for key, value in picked.items():
        _flatten(key, value, flat)
    return flat


def _same(key: str, got, want) -> bool:
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return got == want
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    rtol = QUAD_RTOL if any(q in key for q in QUAD_KEYS) else RTOL
    return math.isclose(got, want, rel_tol=rtol, abs_tol=1e-300)


def tail_max_rise(outputs: dict) -> float:
    """Largest step-to-step rise of the closed-loop norm in the trailing half.

    Recorded, not gated: the feedback law promises exponential decay with a
    prefactor, not a monotone norm, and a random start at m=4096 can rise a
    few per cent late in the run (seed 1000020: 6.03e-5 to 6.28e-5 around
    t = 4.2, at dt = 0.002 and at dt = 0.0005 alike).
    """
    norms = np.asarray(outputs["decay"]["norms"], dtype=float)
    return float(np.diff(norms[len(norms) // 2 :]).max())


def _closed_loop_problems(outputs: dict) -> list:
    decay = outputs.get("decay")
    if decay is None:
        return ["no decay report"]
    problems = []
    if not decay["fitted_omega"] > MIN_OMEGA:
        problems.append(f"fitted_omega {decay['fitted_omega']} <= {MIN_OMEGA}")
    norms = np.asarray(decay["norms"], dtype=float)
    if not norms[-1] < norms[len(norms) // 2]:
        problems.append("closed-loop norm does not decay over the trailing half")
    return problems


def check(command: str, exit_code: int, doc: dict, expected: dict) -> list:
    """Problems found in one command's result; empty when it is correct."""
    problems = []
    if exit_code != expected["exit"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit']}")
    outputs = doc["outputs"]
    if command == "simulate":
        problems += _closed_loop_problems(outputs)
    got = extract(command, outputs)
    want = expected["values"]
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one of result and reference")
        elif not _same(key, got[key], want[key]):
            problems.append(f"{key}: got {got[key]!r}, reference {want[key]!r}")
    return problems
