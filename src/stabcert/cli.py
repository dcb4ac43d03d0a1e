"""Command-line front end: config parsing, dispatch, result persistence.

One command per process.  Results are JSON documents with the config
snapshot, content hashes of the inputs, the command outputs, and wall-clock
metadata; curves and trajectories additionally go to CSV side files next to
the JSON.  The numeric payload (everything except timing) is canonical:
identical config and seed reproduce it bit for bit on the same platform,
which scripted sweeps rely on.  Exit codes separate "math said no" (1:
violation witnessed, set not thick, hypothesis unverifiable, already
stable, no positive damping rate, a loop that grows) from usage errors
and unreadable inputs (2) and from internal failures (3: ArithmeticErrors
such as an eigen residual above tolerance, a broken certificate constant
chain or a multiplier matrix with a non-real residue, and any RuntimeError
that is not one of the feedback verdicts), which never read as a
mathematical verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .certify import certificate_to_json, certify_end_to_end, growth_exponent
from .domain import (
    DomainMismatchError,
    GridDomain,
    GridFunction,
    content_hash,
    jsonable,
    load_grid_function,
    make_grid,
    norm as _norm,
)
from .feedback import (
    AlreadyStableError,
    DampingFeedback,
    GramSingularError,
    NoDampingRateError,
    UnstableLoopError,
    build_damping_feedback,
    build_finite_rank_feedback,
    decay_report_to_csv,
    feedback_norm_bound,
    simulate_decay,
)
from .geometry import (
    BallComplement,
    Custom,
    Empty,
    Full,
    HalfSpace,
    PeriodicSlabs,
    SetIndicator,
    check_thick,
    check_weakly_thick,
    make_set,
    set_from_json,
)
from .operators import (
    FractionalLaplacian,
    Schrodinger,
    ShiftedHermite,
    diagonalize,
    eigenfunction,
    spec_to_json,
)
from .probes import (
    ObservationClaim,
    falsification_to_csv,
    falsify_hermite_ground_state,
    falsify_weak_observability,
)
from .specineq import curve_to_csv, curve_to_json, fit_growth, spectral_constant_curve

__all__ = ["RunConfig", "ResultDocument", "run", "payload_json", "document_to_json", "main"]

SCHEMA_VERSION = 3
COMMANDS = ("check-thick", "spectral-constant", "certify", "feedback-build", "simulate", "probe")


@dataclass(frozen=True)
class RunConfig:
    operator: dict
    domain: dict
    set_spec: dict
    options: dict


@dataclass(frozen=True)
class ResultDocument:
    schema_version: int
    command: str
    config: dict
    input_hashes: dict
    outputs: dict
    version: str
    timing: dict
    # CSV side files by name, written next to the JSON and not part of it
    side_files: dict = dataclasses.field(default_factory=dict, repr=False, compare=False)


def _document_body(doc: ResultDocument) -> dict:
    body = dataclasses.asdict(doc)
    body.pop("side_files")
    return body


def payload_json(doc: ResultDocument) -> str:
    """Canonical JSON of the numeric payload, timing excluded."""
    body = _document_body(doc)
    body.pop("timing")
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def document_to_json(doc: ResultDocument) -> str:
    return json.dumps(_document_body(doc), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# config parsing


def _parse_kv(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_domain(text: str) -> GridDomain:
    kv = _parse_kv(text)
    try:
        return make_grid(
            dim=int(kv.get("dim", "1")),
            half_width=float(kv.get("R", "10")),
            points_per_axis=int(kv.get("m", "512")),
            periodic=_parse_bool(kv.get("periodic", "true")),
        )
    except KeyError as exc:
        raise ValueError(f"missing domain key {exc}") from exc


def _parse_vector(text: str, dim: int) -> tuple:
    parts = [float(v) for v in text.split(":")]
    if len(parts) == 1 and dim > 1:
        parts = parts * dim
    if len(parts) != dim:
        raise ValueError(f"vector {text!r} has {len(parts)} components, need {dim}")
    return tuple(parts)


def parse_set(domain: GridDomain, text: str) -> SetIndicator:
    kind, _, rest = text.partition(":")
    kv = _parse_kv(rest) if rest else {}
    kind = kind.strip().lower()
    if kind == "full":
        return make_set(domain, Full())
    if kind == "empty":
        return make_set(domain, Empty())
    if kind == "halfspace":
        return make_set(
            domain,
            HalfSpace(axis=int(kv.get("axis", "0")), offset=float(kv.get("offset", "0"))),
        )
    if kind == "ballcomplement":
        return make_set(
            domain,
            BallComplement(
                center=_parse_vector(kv.get("center", "0"), domain.dim),
                radius=float(kv.get("radius", "1")),
            ),
        )
    if kind == "slabs":
        return make_set(
            domain,
            PeriodicSlabs(
                period=float(kv.get("period", "1")),
                fill_fraction=float(kv.get("fill", "0.25")),
                axis=int(kv.get("axis", "0")),
            ),
        )
    if kind == "custom":
        path = kv.get("file")
        if path is None:
            raise ValueError("custom set needs file=<path.json>")
        with open(path) as fh:
            e = set_from_json(json.load(fh))
        if e.domain != domain:
            raise DomainMismatchError("custom set was saved on a different domain")
        return e
    raise ValueError(f"unknown set kind {kind!r}")


def parse_operator(kind: str, args) -> tuple:
    """Returns (spec, extra input hashes)."""
    hashes = {}
    if kind == "frac":
        spec = FractionalLaplacian(s=args.s, c=args.c)
    elif kind == "hermite":
        spec = ShiftedHermite(c=args.c)
    elif kind == "schrodinger":
        if not args.potential:
            raise ValueError("schrodinger kind needs --potential <file>")
        potential = load_grid_function(args.potential)
        spec = Schrodinger(potential=potential, condition=args.condition, delta=args.delta)
        hashes["potential"] = content_hash(potential)
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return spec, hashes


# ---------------------------------------------------------------------------
# dispatch


def _thickness_outputs(e, options):
    out = {"thickness": dataclasses.asdict(check_thick(e, options["lengths"]))}
    if options["radii"]:
        out["weak_thickness"] = dataclasses.asdict(check_weakly_thick(e, options["radii"]))
    return out


def _certify_outputs(spec, domain, e, options, cache_dir):
    result = certify_end_to_end(
        spec,
        domain,
        e,
        options["k_max"],
        trials=options["trials"],
        recurrence_trials=options["recurrence_trials"],
        dissipative_trials=options["dissipative_trials"],
        seed=options["seed"],
        cache_dir=cache_dir,
    )
    out = {
        "status": result.status,
        "detail": result.detail,
        "curve": curve_to_json(result.curve),
    }
    if result.certificate is not None:
        out["certificate"] = certificate_to_json(result.certificate)
        out["dissipative_max_ratio"] = result.dissipative_max_ratio
        recurrence = result.recurrence_report
        out["recurrence"] = None if recurrence is None else dataclasses.asdict(recurrence)
        out["observability"] = dataclasses.asdict(result.observability_report)
        hyp = dataclasses.asdict(result.hypothesis_report)
        hyp.pop("constants")  # the curve already carries them
        out["hypothesis"] = hyp
    return out, result


def _build_law(dec, e, options):
    kind = options["feedback"]
    if kind == "none":
        return None
    if kind == "damping":
        return build_damping_feedback(dec, e, delta=options["delta"])
    if kind == "finite-rank":
        return build_finite_rank_feedback(dec, e)
    raise ValueError(f"unknown feedback kind {kind!r}")


def _feedback_outputs(spec, domain, e, options, cache_dir):
    fb = _build_law(diagonalize(spec, domain, cache_dir=cache_dir), e, options)
    if fb is None:
        raise ValueError("feedback-build needs a feedback law, not 'none'")
    if isinstance(fb, DampingFeedback):
        return {
            "feedback": {
                "kind": "damping",
                "omega": fb.omega,
                "chosen_N": fb.chosen_N,
                "delta": fb.delta,
                "c1": fb.c1,
                "loop_lambda_min": float(fb.loop_eigenvalues[0]),
            }
        }
    return {
        "feedback": {
            "kind": "finite-rank",
            "rho": fb.rho,
            "unstable_count": fb.unstable_count,
            "gram": jsonable(np.real_if_close(fb.gram)),
            "gram_inverse": jsonable(np.real_if_close(fb.gram_inverse)),
            "gram_cond": fb.gram_cond,
            "norm_bound": feedback_norm_bound(fb),
        }
    }


def _initial_state(dec, options) -> GridFunction:
    text = options["y0"]
    if text == "random":
        rng = np.random.default_rng(options["seed"])
        vals = rng.standard_normal(dec.domain.shape)
        f = GridFunction(dec.domain, vals)
        return GridFunction(dec.domain, f.values / _norm(f))
    if text.startswith("eig:"):
        j = int(text[4:])
        if not 0 <= j < dec.domain.cell_count:
            raise ValueError(f"y0 eigenfunction index {j} is outside 0..{dec.domain.cell_count - 1}")
        return eigenfunction(dec, j)
    if text.startswith("file:"):
        return load_grid_function(text[5:])
    raise ValueError(f"unknown y0 spec {text!r} (use random, eig:<j>, or file:<path>)")


def _simulate_outputs(spec, domain, e, options, cache_dir):
    dec = diagonalize(spec, domain, cache_dir=cache_dir)
    fb = _build_law(dec, e, options)
    y0 = _initial_state(dec, options)
    report = simulate_decay(dec, fb, e, y0, options["t_end"], options["dt"])
    out = {"decay": dataclasses.asdict(report)}
    if isinstance(fb, DampingFeedback):
        out["decay"]["certified_omega"] = fb.omega
    return out, report


def _probe_outputs(spec, domain, e, options, cache_dir):
    claim = ObservationClaim(**options["claim"])
    dec = diagonalize(spec, domain, cache_dir=cache_dir)
    if isinstance(spec, ShiftedHermite):
        rep = falsify_hermite_ground_state(dec, e, claim)
        probe = dataclasses.asdict(rep)
        for key in ("claim", "kernel_rank", "kernel_bound"):
            probe.pop(key)  # the claim and the kernel figures are reported beside the probe
        return {
            "claim": options["claim"],
            "hermite_probe": probe,
            "any_violation": rep.violated,
            "kernel_rank": rep.kernel_rank,
            "kernel_bound": rep.kernel_bound,
        }, None
    centers = options["centers"]
    if not centers:
        raise ValueError("fractional probe needs --centers")
    rep = falsify_weak_observability(dec, e, claim, centers)
    return {
        "claim": options["claim"],
        "centers": [dataclasses.asdict(r) for r in rep.centers],
        "any_violation": rep.any_violation,
        "kernel_rank": rep.kernel_rank,
        "kernel_bound": rep.kernel_bound,
    }, rep


def run(command: str, config: RunConfig, *, cache_dir=None) -> ResultDocument:
    """Dispatch a parsed config to the owning module and assemble the document."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    started = time.perf_counter()
    domain = make_grid(**config.domain)
    e = parse_set(domain, config.set_spec["text"])
    hashes = {"domain": content_hash(domain), "set": content_hash(domain, e.cells)}
    spec = None
    if config.operator:
        ns = argparse.Namespace(**{**{"s": 1.0, "c": 0.0, "potential": None,
                                      "condition": "II", "delta": None},
                                   **config.operator})
        spec, extra = parse_operator(config.operator["kind"], ns)
        hashes["operator"] = content_hash(spec_to_json(spec))
        hashes.update(extra)
    options = config.options
    side_files = {}

    if command == "check-thick":
        outputs = _thickness_outputs(e, options)
    elif command == "spectral-constant":
        dec = diagonalize(spec, domain, cache_dir=cache_dir)
        curve = spectral_constant_curve(dec, e, options["thresholds"])
        if all(np.isfinite(curve.constants)):
            fit = fit_growth(curve, "ExpPower", a=growth_exponent(spec))
            curve = dataclasses.replace(curve, fit=fit)
        outputs = {"curve": curve_to_json(curve)}
        side_files["curve.csv"] = curve_to_csv(curve)
    elif command == "certify":
        outputs, result = _certify_outputs(spec, domain, e, options, cache_dir)
        side_files["curve.csv"] = curve_to_csv(result.curve)
    elif command == "feedback-build":
        try:
            outputs = _feedback_outputs(spec, domain, e, options, cache_dir)
        except AlreadyStableError as exc:
            outputs = {"error": "already stable", "detail": str(exc)}
        except GramSingularError as exc:
            outputs = {"error": "gram singular", "detail": str(exc), "gram_cond": exc.cond}
        except NoDampingRateError as exc:
            outputs = {"error": str(exc)}
    elif command == "simulate":
        try:
            outputs, report = _simulate_outputs(spec, domain, e, options, cache_dir)
            side_files["decay.csv"] = decay_report_to_csv(report)
        except (AlreadyStableError, GramSingularError, NoDampingRateError, UnstableLoopError) as exc:
            outputs = {"error": str(exc)}
    else:  # probe
        outputs, rep = _probe_outputs(spec, domain, e, options, cache_dir)
        if rep is not None:
            side_files["centers.csv"] = falsification_to_csv(rep)

    doc = ResultDocument(
        schema_version=SCHEMA_VERSION,
        command=command,
        config=jsonable(dataclasses.asdict(config)),
        input_hashes=hashes,
        outputs=jsonable(outputs),
        version=__version__,
        timing={"wall_seconds": time.perf_counter() - started},
        side_files=side_files,
    )
    doc.outputs["_side_files"] = sorted(side_files)
    return doc


def _exit_code(command: str, outputs: dict) -> int:
    if "error" in outputs:
        return 1
    if command == "check-thick":
        return 0 if outputs["thickness"]["is_thick"] else 1
    if command == "spectral-constant":
        finite = all(not isinstance(c, str) for c in outputs["curve"]["constants"])
        return 0 if finite else 1
    if command == "certify":
        return 0 if outputs["status"] == "certified" else 1
    if command == "probe":
        return 1 if outputs["any_violation"] else 0
    return 0


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stabcert-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(doc: ResultDocument, out_path: str):
    _atomic_write(out_path, document_to_json(doc) + "\n")
    stem = out_path[:-5] if out_path.endswith(".json") else out_path
    for name, text in doc.side_files.items():
        _atomic_write(f"{stem}.{name}", text)


# ---------------------------------------------------------------------------
# argument surface


def _float_list(text: str):
    return [float(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabcert",
        description="stabilization certificates for parabolic equations on discretized domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, operator=True):
        p.add_argument("--domain", default="dim=1,R=10,m=512,periodic=true")
        p.add_argument("--set", dest="set_spec", default="full")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="result JSON path (side CSVs derive from it)")
        if operator:
            p.add_argument("--operator", choices=("frac", "hermite", "schrodinger"), default="frac")
            p.add_argument("--s", type=float, default=1.0)
            p.add_argument("--c", type=float, default=0.0)
            p.add_argument("--potential", default=None)
            p.add_argument("--condition", choices=("I", "II"), default="II")
            p.add_argument("--delta", type=float, default=None)

    p = sub.add_parser("check-thick", help="thickness and weak-thickness verdicts for a set")
    common(p, operator=False)
    p.add_argument("--lengths", type=_float_list, default=[1.0])
    p.add_argument("--radii", type=_float_list, default=[])

    p = sub.add_parser("spectral-constant", help="restricted-inequality constants C(k, E)")
    common(p)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--thresholds", type=_float_list, default=None)

    p = sub.add_parser("certify", help="build and check a stabilization certificate")
    common(p)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--recurrence-trials", type=int, default=100)
    p.add_argument("--dissipative-trials", type=int, default=20)

    p = sub.add_parser("feedback-build", help="construct a stabilizing feedback")
    common(p)
    p.add_argument("--feedback", choices=("damping", "finite-rank"), default="finite-rank")
    p.add_argument("--feedback-delta", type=float, default=0.5)

    p = sub.add_parser("simulate", help="closed-loop decay simulation")
    common(p)
    p.add_argument("--feedback", choices=("none", "damping", "finite-rank"), default="finite-rank")
    p.add_argument("--feedback-delta", type=float, default=0.5)
    p.add_argument("--t-end", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=0.001,
                   help="sample spacing; every law is propagated exactly (0 < dt <= t_end/100)")
    p.add_argument("--y0", default="random")

    p = sub.add_parser("probe", help="falsify a claimed observability triple")
    common(p)
    p.add_argument("--claim", required=True, help="C=1,T=1,alpha=0.5")
    p.add_argument("--centers", default="", help="semicolon-separated centers, components by colon")
    return parser


def _config_from_args(args) -> RunConfig:
    operator = {}
    if hasattr(args, "operator"):
        operator = {"kind": args.operator, "s": args.s, "c": args.c,
                    "potential": args.potential, "condition": args.condition,
                    "delta": args.delta}
    domain = parse_domain(args.domain)
    domain_cfg = {
        "dim": domain.dim,
        "half_width": domain.half_width,
        "points_per_axis": domain.points_per_axis,
        "periodic": domain.periodic,
    }
    options = {"seed": args.seed}
    cmd = args.command
    if cmd == "check-thick":
        options.update(lengths=args.lengths, radii=args.radii)
    elif cmd == "spectral-constant":
        thresholds = args.thresholds or [float(k) for k in range(1, args.k_max + 1)]
        options.update(thresholds=thresholds)
    elif cmd == "certify":
        options.update(
            k_max=args.k_max,
            trials=args.trials,
            recurrence_trials=args.recurrence_trials,
            dissipative_trials=args.dissipative_trials,
        )
    elif cmd == "feedback-build":
        options.update(feedback=args.feedback, delta=args.feedback_delta)
    elif cmd == "simulate":
        options.update(
            feedback=args.feedback,
            delta=args.feedback_delta,
            t_end=args.t_end,
            dt=args.dt,
            y0=args.y0,
        )
    elif cmd == "probe":
        claim_kv = _parse_kv(args.claim)
        claim = {"C": float(claim_kv["C"]), "T": float(claim_kv["T"]),
                 "alpha": float(claim_kv["alpha"])}
        centers = []
        for part in args.centers.split(";"):
            if part:
                centers.append([float(v) for v in part.split(":")])
        options.update(claim=claim, centers=centers)
    return RunConfig(operator=operator, domain=domain_cfg,
                     set_spec={"text": args.set_spec}, options=options)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"the directory of --out {args.out!r} does not exist")
    except (ValueError, KeyError, DomainMismatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    cache_dir = os.environ.get("STABCERT_CACHE_DIR")
    try:
        doc = run(args.command, config, cache_dir=cache_dir)
    except (ValueError, TypeError, DomainMismatchError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        kind = "numerical" if isinstance(exc, ArithmeticError) else "internal"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        _write_outputs(doc, args.out)
    else:
        print(document_to_json(doc))
    return _exit_code(args.command, doc.outputs)


if __name__ == "__main__":
    sys.exit(main())
