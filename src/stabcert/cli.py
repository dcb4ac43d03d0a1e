"""Command-line front end: config parsing, dispatch, result persistence.

One command per process, and only that command's parser is built.  Results
are JSON documents (schema ``SCHEMA_VERSION``) with the config snapshot,
content hashes of the inputs, the command outputs, and wall-clock metadata;
curves and trajectories additionally go to CSV side files next to the JSON.
The numeric payload (everything except timing) is canonical: identical
config and seed reproduce it bit for bit on the same platform, which
scripted sweeps rely on.

``_COMMANDS`` declares each command once: its help, whether it takes the
operator options, its own options, its outputs builder and its "the
mathematics said no" test (exit 1); a feedback.VerdictError is that too,
written as {"error": kind, "detail": message}.  Any other exception takes
its exit code from ``_ERRORS``, first match wins.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .certify import certify_end_to_end, growth_exponent
from .domain import (
    GridDomain,
    GridFunction,
    atomic_write,
    content_hash,
    domain_header,
    jsonable,
    load_grid_function,
    make_grid,
    norm as _norm,
    require_domain,
)
from .feedback import (
    DampingFeedback,
    GramSingularError,
    VerdictError,
    build_damping_feedback,
    build_finite_rank_feedback,
    decay_report_to_csv,
    require_delta,
    require_window,
    simulate_decay,
)
from .geometry import (
    BallComplement,
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
    OPERATOR_KINDS,
    FractionalLaplacian,
    Schrodinger,
    ShiftedHermite,
    diagonalize,
    eigenfunction,
    spec_hash,
)
from .probes import (
    ObservationClaim,
    falsification_to_csv,
    falsify_hermite_ground_state,
    falsify_weak_observability,
)
from .specineq import curve_to_csv, curve_to_json, require_thresholds, spectral_constant_curve

SCHEMA_VERSION = 9


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
    """The document's fields but its side files, as they are: ``run`` has made each one plain."""
    return {f.name: getattr(doc, f.name) for f in dataclasses.fields(doc) if f.name != "side_files"}


def payload_json(doc: ResultDocument) -> str:
    """Canonical JSON of the numeric payload, timing excluded."""
    body = _document_body(doc)
    body.pop("timing")
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def document_to_json(doc: ResultDocument) -> str:
    return json.dumps(_document_body(doc), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# config parsing: every key=value vocabulary is a table key -> (field, reader)


class _ConfigError(ValueError, argparse.ArgumentTypeError):
    """A config error that argparse, reading a ``type=`` option, reports by its own message."""


def _parse_kv(text: str, keys: dict, what: str) -> dict:
    """Reads ``key=value,...`` into {field: reader(value)}, refusing a key outside ``keys``."""
    out = {}
    for item in text.split(","):
        if not item:
            continue
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise _ConfigError(f"expected key=value in {what}, got {item!r}")
        if key not in keys:
            raise _ConfigError(f"unknown {what} key {key!r}; the keys are {', '.join(keys) or 'none'}")
        field, read = keys[key]
        if field in out:
            raise _ConfigError(f"repeated {what} key {key!r}")
        out[field] = read(val.strip())
    return out


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v]


def _vector(text: str) -> tuple:
    return tuple(float(v) for v in text.split(":"))


def parse_domain(text: str) -> GridDomain:
    """The default grid (1D, R = 10, m = 512, periodic) with the keys of ``text`` in place."""
    keys = {"dim": ("dim", int), "R": ("half_width", float), "m": ("points_per_axis", int),
            "periodic": ("periodic", _parse_bool)}
    return make_grid(**{"dim": 1, "half_width": 10.0, "points_per_axis": 512, **_parse_kv(text, keys, "--domain")})


def _saved_set(path=None) -> SetIndicator:
    if path is None:
        raise ValueError("custom set needs file=<path.json>")
    with open(path) as fh:
        return set_from_json(json.load(fh))


# --set kinds: kind -> (shape class, or the loader of a saved set; its keys)
_SETS = {
    "full": (Full, {}),
    "empty": (Empty, {}),
    "halfspace": (HalfSpace, {"axis": ("axis", int), "offset": ("offset", float)}),
    "ballcomplement": (BallComplement, {"center": ("center", _vector), "radius": ("radius", float)}),
    "slabs": (PeriodicSlabs, {"period": ("period", float), "fill": ("fill_fraction", float),
                              "axis": ("axis", int)}),
    "custom": (_saved_set, {"file": ("path", str)}),
}


def parse_set(domain: GridDomain, text: str) -> SetIndicator:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _SETS:
        raise ValueError(f"unknown set kind {kind!r}; the kinds are {', '.join(_SETS)}")
    shape, keys = _SETS[kind]
    return make_set(domain, shape(**_parse_kv(rest, keys, f"{kind} set")))


def _claim(text: str) -> dict:
    keys = {f.name: (f.name, float) for f in dataclasses.fields(ObservationClaim)}
    return _parse_kv(text, keys, "claim")


def _centers(text: str) -> list:
    return [list(_vector(part)) for part in text.split(";") if part]


def _load_finite(what: str, path: str) -> GridFunction:
    f = load_grid_function(path)
    if not np.isfinite(f.values).all():
        raise ValueError(f"{what} {path!r} has non-finite values (inf or NaN)")
    return f


def parse_operator(kind: str, **given) -> tuple:
    """(spec, config, extra input hashes) of an operator config, by one rule for the CLI and the library.

    The options of a kind (``operators.OPERATOR_KINDS``) are its spec's
    fields: an option of another kind is refused, and the config is the kind
    and every field, as given or by the spec's default.  A schrodinger
    potential is given by its file, which is read here.
    """
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    cls, hashes = OPERATOR_KINDS[kind], {}
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    foreign = [name for name in given if name not in names]
    if foreign:
        raise ValueError(f"--{foreign[0]} is not an option of --operator {kind}, which takes --{', --'.join(names)}")
    config = {"kind": kind, **{f.name: f.default for f in fields if f.default is not dataclasses.MISSING}, **given}
    if cls is Schrodinger:
        if not given.get("potential"):
            raise ValueError("schrodinger kind needs --potential <file>")
        given = dict(given, potential=_load_finite("potential", given["potential"]))
        hashes["potential"] = content_hash(given["potential"])
    return cls(**given), config, hashes


# ---------------------------------------------------------------------------
# dispatch: every outputs builder takes (spec, domain, e, options, cache_dir)
# and returns (outputs, side files); spec is None for check-thick.  A builder
# refuses its own options before it diagonalizes, by the rules that own them


def _thickness_outputs(spec, domain, e, options, cache_dir):
    out = {"thickness": dataclasses.asdict(check_thick(e, options["lengths"]))}
    if options["radii"]:
        out["weak_thickness"] = dataclasses.asdict(check_weakly_thick(e, options["radii"]))
    return out, {}


def _spectral_outputs(spec, domain, e, options, cache_dir):
    dec = diagonalize(spec, domain, cache_dir=cache_dir)
    curve = spectral_constant_curve(dec, e, options["thresholds"], growth_exponent(spec))
    return {"curve": curve_to_json(curve)}, {"curve.csv": curve_to_csv(curve)}


def _certify_outputs(spec, domain, e, options, cache_dir):
    result = certify_end_to_end(spec, domain, e, cache_dir=cache_dir, **options)
    out = {
        "status": result.status,
        "detail": result.detail,
        "curve": curve_to_json(result.curve),
    }
    if result.certificate is not None:
        out["certificate"] = dataclasses.asdict(result.certificate)
        recurrence = result.recurrence_report
        out["recurrence"] = None if recurrence is None else dataclasses.asdict(recurrence)
        out["observability"] = dataclasses.asdict(result.observability_report)
        out["hypothesis"] = dataclasses.asdict(result.hypothesis_report)
    return out, {"curve.csv": curve_to_csv(result.curve)}


def _feedback_law(options):
    """The builder (dec, e) -> law of ``--feedback``, its delta refused before any solve; None for 'none'."""
    kind = options["feedback"]
    if kind == "none":
        return None
    if kind == "damping":
        require_delta(options["delta"])
        return lambda dec, e: build_damping_feedback(dec, e, delta=options["delta"])
    if kind == "finite-rank":
        return build_finite_rank_feedback
    raise ValueError(f"unknown feedback kind {kind!r}")


def _feedback_outputs(spec, domain, e, options, cache_dir):
    law = _feedback_law(options)
    if law is None:
        raise ValueError("feedback-build needs a feedback law, not 'none'")
    fb = law(diagonalize(spec, domain, cache_dir=cache_dir), e)
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
        }, {}
    return {
        "feedback": {
            "kind": "finite-rank",
            "rho": fb.rho,
            "unstable_count": fb.unstable_count,
            "gram": np.real_if_close(fb.gram),
            "gram_inverse": np.real_if_close(fb.gram_inverse),
            "gram_cond": fb.gram_cond,
            "norm_bound": fb.norm_bound,
        }
    }, {}


def _initial_state(domain, options):
    """The ``--y0`` state as a function of the decomposition, read and checked before any solve."""
    text = options["y0"]
    if text.startswith("eig:"):
        j = int(text[4:])
        if not 0 <= j < domain.cell_count:
            raise ValueError(f"y0 eigenfunction index {j} is outside 0..{domain.cell_count - 1}")
        return lambda dec: eigenfunction(dec, j)
    if text == "random":
        rng = np.random.default_rng(options["seed"])
        f = GridFunction(domain, rng.standard_normal(domain.shape))
        f = GridFunction(domain, f.values / _norm(f))
    elif text.startswith("file:"):
        f = _load_finite("y0 file", text[5:])
        require_domain(domain, y0=f)
    else:
        raise ValueError(f"unknown y0 spec {text!r} (use random, eig:<j>, or file:<path>)")
    return lambda dec: f


def _simulate_outputs(spec, domain, e, options, cache_dir):
    require_window(options["t_end"], options["dt"])
    law, initial = _feedback_law(options), _initial_state(domain, options)
    dec = diagonalize(spec, domain, cache_dir=cache_dir)
    fb = None if law is None else law(dec, e)
    report = simulate_decay(dec, fb, e, initial(dec), options["t_end"], options["dt"])
    out = {"decay": dataclasses.asdict(report)}
    if isinstance(fb, DampingFeedback):
        out["decay"]["certified_omega"] = fb.omega
    return out, {"decay.csv": decay_report_to_csv(report)}


def _probe_outputs(spec, domain, e, options, cache_dir):
    # the kind decides which probe runs, so it is checked before its options
    if isinstance(spec, Schrodinger):
        raise ValueError("probe needs --operator frac (a kernel probe per center) or hermite "
                         "(the ground-state probe), not schrodinger")
    if isinstance(spec, ShiftedHermite) and options["centers"]:
        raise ValueError("the hermite ground-state probe takes no --centers")
    if isinstance(spec, FractionalLaplacian) and not options["centers"]:
        raise ValueError("fractional probe needs --centers")
    claim = ObservationClaim(**options["claim"])
    dec = diagonalize(spec, domain, cache_dir=cache_dir)
    if isinstance(spec, ShiftedHermite):
        rep = falsify_hermite_ground_state(dec, e, claim)
        probe = dataclasses.asdict(rep)
        for key in ("claim", "kernel_rank", "kernel_bound"):
            probe.pop(key)  # the claim and the kernel figures are reported beside the probe
        out, side_files, violated = {"hermite_probe": probe}, {}, rep.violated
    else:
        rep = falsify_weak_observability(dec, e, claim, options["centers"])
        out = {"centers": [dataclasses.asdict(r) for r in rep.centers]}
        side_files, violated = {"centers.csv": falsification_to_csv(rep)}, rep.any_violation
    out.update(claim=options["claim"], any_violation=violated,
               kernel_rank=rep.kernel_rank, kernel_bound=rep.kernel_bound)
    return out, side_files


@dataclass(frozen=True)
class _Command:
    help: str
    operator: bool  # whether it takes the operator options
    options: tuple  # its own options as (flag, add_argument keywords)
    outputs: object  # its outputs builder
    said_no: object  # "the mathematics said no" on its outputs: exit 1


# every option default is immutable, as parsers share them
_COMMANDS = {
    "check-thick": _Command(
        "thickness and weak-thickness verdicts for a set", False, (
            ("--lengths", dict(type=_float_list, default=(1.25,))),  # 32 cells of the default domain
            ("--radii", dict(type=_float_list, default=())),
        ), _thickness_outputs, lambda out: not out["thickness"]["is_thick"]),
    "spectral-constant": _Command(
        "restricted-inequality constants C(k, E)", True, (
            ("--k-max", dict(type=int, default=10)),
            ("--thresholds", dict(type=_float_list, default=None)),
        ), _spectral_outputs, lambda out: any(isinstance(c, str) for c in out["curve"]["constants"])),
    "certify": _Command(
        "build and check a stabilization certificate", True, (
            ("--k-max", dict(type=int, default=10)),
            ("--trials", dict(type=int, default=200)),
            ("--recurrence-trials", dict(type=int, default=100)),
        ), _certify_outputs, lambda out: out["status"] != "certified"),
    "feedback-build": _Command(
        "construct a stabilizing feedback", True, (
            ("--feedback", dict(choices=("damping", "finite-rank"), default="finite-rank")),
            ("--feedback-delta", dict(dest="delta", type=float, default=0.5)),
        ), _feedback_outputs, lambda out: False),
    "simulate": _Command(
        "closed-loop decay simulation", True, (
            ("--feedback", dict(choices=("none", "damping", "finite-rank"), default="finite-rank")),
            ("--feedback-delta", dict(dest="delta", type=float, default=0.5)),
            ("--t-end", dict(type=float, default=5.0)),
            ("--dt", dict(type=float, default=0.001,
                          help="sample spacing; every law is propagated exactly (0 < dt <= t_end/100)")),
            ("--y0", dict(default="random")),
        ), _simulate_outputs, lambda out: False),
    "probe": _Command(
        "falsify a claimed observability triple", True, (
            ("--claim", dict(type=_claim, required=True, help="C=1,T=1,alpha=0.5")),
            ("--centers", dict(type=_centers, default=(),
                               help="semicolon-separated centers, components by colon")),
        ), _probe_outputs, lambda out: out["any_violation"]),
}
COMMANDS = tuple(_COMMANDS)

# (exception classes, exit code, stderr label), first match wins: LinAlgError
# is a ValueError, and anything unforeseen still ends in one stderr line
_ERRORS = (
    ((np.linalg.LinAlgError,), 3, "numerical error"),
    ((ValueError, TypeError, KeyError, OSError), 2, "config error"),
    ((ArithmeticError,), 3, "numerical error"),
    ((Exception,), 3, "internal error"),
)


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
        spec, operator, extra = parse_operator(**config.operator)
        config = dataclasses.replace(config, operator=operator)
        hashes["operator"] = spec_hash(spec)
        hashes.update(extra)
    try:
        outputs, side_files = _COMMANDS[command].outputs(spec, domain, e, config.options, cache_dir)
    except VerdictError as exc:  # the mathematics said no: an error document, exit 1
        outputs, side_files = {"error": exc.kind, "detail": str(exc)}, {}
        if isinstance(exc, GramSingularError):
            outputs["gram_cond"] = exc.cond
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
    return int("error" in outputs or _COMMANDS[command].said_no(outputs))


def _write_outputs(doc: ResultDocument, out_path: str):
    stem = out_path[:-5] if out_path.endswith(".json") else out_path
    files = {out_path: document_to_json(doc) + "\n"}
    files.update({f"{stem}.{name}": text for name, text in doc.side_files.items()})
    # every file is complete before any is renamed, the document last: a failed write leaves the old set
    with contextlib.ExitStack() as stack:
        for path, text in files.items():
            stack.enter_context(atomic_write(path)).write(text)


# ---------------------------------------------------------------------------
# argument surface: a command's options are its own arguments, keyed by dest


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a ValueError, so the error table decides it
        raise ValueError(message)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The argument parser of every command, or of ``command`` alone, which parses its arguments alike."""
    parser = _Parser(
        prog="stabcert",
        description="stabilization certificates for parabolic equations on discretized domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        entry = _COMMANDS[name]
        p = sub.add_parser(name, help=entry.help)
        p.add_argument("--domain", default="")
        p.add_argument("--set", dest="set_spec", default="full")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="result JSON path (side CSVs derive from it)")
        if entry.operator:  # the operator's options, under an "operator." dest, set only when given
            p.add_argument("--operator", dest="operator.kind", choices=OPERATOR_KINDS, default="frac")
            unset = dict(default=argparse.SUPPRESS)
            p.add_argument("--s", dest="operator.s", type=float, **unset)
            p.add_argument("--c", dest="operator.c", type=float, **unset)
            p.add_argument("--potential", dest="operator.potential", **unset)
            p.add_argument("--condition", dest="operator.condition", choices=("I", "II"), **unset)
        for flag, keywords in entry.options:
            p.add_argument(flag, **keywords)
    return parser


def _config_from_args(args) -> RunConfig:
    options = dict(vars(args))
    for key in ("command", "out"):
        del options[key]
    domain = domain_header(parse_domain(options.pop("domain")))
    set_spec = {"text": options.pop("set_spec")}
    operator = {key.partition(".")[2]: options.pop(key) for key in list(options) if key.startswith("operator.")}
    if args.command == "spectral-constant":  # --k-max stands for the thresholds 1..k_max
        k_max = options.pop("k_max")
        if k_max < 1:
            raise ValueError(f"--k-max must be at least 1, got {k_max}")
        if options["thresholds"] == []:
            raise ValueError("--thresholds must name at least one threshold")
        options["thresholds"] = require_thresholds(options["thresholds"] or range(1, k_max + 1))
    return RunConfig(operator=operator, domain=domain, set_spec=set_spec, options=options)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a known command needs only its own parser; anything else (no
        # command, an unknown one, a top-level -h) gets every command's
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = build_parser(command).parse_args(argv)
        config = _config_from_args(args)
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"the directory of --out {args.out!r} does not exist")
        doc = run(args.command, config, cache_dir=os.environ.get("STABCERT_CACHE_DIR"))
        if args.out:
            _write_outputs(doc, args.out)
    except Exception as exc:
        code, label = next((code, label) for classes, code, label in _ERRORS if isinstance(exc, classes))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    if not args.out:
        print(document_to_json(doc))
    return _exit_code(args.command, doc.outputs)


if __name__ == "__main__":
    sys.exit(main())
