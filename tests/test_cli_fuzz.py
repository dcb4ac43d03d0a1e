"""CLI fuzz: every call ends in exit 0, 1, 2 or 3, never in a traceback.

Commands, sets and claims are drawn with every numeric option, domain key,
set key and claim field taking finite, zero, negative, NaN and infinite
values, domains and sets now and then carry a key outside their vocabulary,
and some values are passed as argv items of their own, so argparse sees them.  Exit 2 or 3 must print one stderr line that starts with its
label in the error table and write no document; exit 0 or 1 must write a
document in which no margin is NaN.  Grids stay tiny (1D m <= 64, 2D
m <= 16), so no draw can reach the dense-solver limits.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stabcert import cli, operators
from stabcert.cli import main

SPECIAL = (0.0, -1.0, math.nan, math.inf, -math.inf)
LABELS = {2: ("config error: ",), 3: ("numerical error: ", "internal error: ")}
MARGIN_KEYS = {"margin", "min_margin", "max_violation"}


def mostly(usual, unusual):
    """Draws from ``usual``, and one time in twelve from ``unusual``.

    Most fields then hold a valid value, so that a call with one unusual
    value gets past the checks of the others and reaches the code behind them.
    """
    return st.sampled_from([usual] * 11 + [unusual]).flatmap(lambda strategy: strategy)


def num(lo, hi):
    """A finite value in [lo, hi], or zero, -1, NaN or +-inf."""
    return mostly(st.floats(lo, hi), st.sampled_from(SPECIAL))


def token(usual, unusual):
    return mostly(st.sampled_from(usual), st.sampled_from(unusual))


def stray_key(sep):
    """Nothing, or a key outside the vocabulary (a typo, another set kind's key, a repeat)."""
    return token([""], [f"{sep}periodc=false", f"{sep}radius=2", f"{sep}axis=0"])


def text(value):
    return repr(float(value))


def numbers(lo, hi, min_size, max_size):
    return st.lists(num(lo, hi), min_size=min_size, max_size=max_size).map(
        lambda vs: ",".join(text(v) for v in vs))


@st.composite
def domains(draw, periodic):
    dim = draw(token(["1", "2"], ["0", "3", "nan"]))
    m = draw(token(["8", "16", "32", "64"] if dim == "1" else ["8", "16"], ["0", "-8", "7", "nan", "inf"]))
    periodic = draw(token([periodic], [not periodic]))
    return (f"dim={dim},R={text(draw(num(1.0, 30.0)))},m={m},periodic={str(periodic).lower()}"
            + draw(stray_key(",")))


@st.composite
def sets(draw):
    kind = draw(st.sampled_from(["full", "empty", "halfspace", "ballcomplement", "slabs"]))
    axis = draw(token(["0"], ["1", "2", "-1", "nan"]))
    if kind == "halfspace":
        spec = f"halfspace:axis={axis},offset={text(draw(num(-5.0, 5.0)))}"
    elif kind == "ballcomplement":
        center = ":".join(text(v) for v in draw(st.lists(num(-5.0, 5.0), min_size=1, max_size=2)))
        spec = f"ballcomplement:center={center},radius={text(draw(num(0.0, 8.0)))}"
    elif kind == "slabs":
        spec = (f"slabs:period={text(draw(num(0.1, 4.0)))},fill={text(draw(num(0.0, 1.0)))},"
                f"axis={axis}")
    else:
        return kind + draw(stray_key(":"))
    return spec + draw(stray_key(","))


@st.composite
def options(draw, argv):
    """Joins some options to their values with '=' and passes the others as two items.

    A value such as -inf given as an item of its own reaches argparse as an
    unknown option, a usage error that must exit 2 like any other.
    """
    out = [argv[0]]
    for k, v in zip(argv[1::2], argv[2::2]):
        out += [f"{k}={v}"] if draw(st.booleans()) else [k, v]
    return out


@st.composite
def raw_argvs(draw):
    command = draw(st.sampled_from(cli.COMMANDS))
    operator = draw(st.sampled_from(["frac", "hermite"]))
    argv = [command, "--domain", draw(domains(operator == "frac")), "--set", draw(sets())]
    counts = token(["1", "5", "20"], ["-1", "0"])
    if command == "check-thick":
        return argv + ["--lengths", draw(numbers(0.1, 25.0, 1, 2)),
                       "--radii", draw(numbers(0.1, 12.0, 0, 2))]
    argv += ["--operator", operator, "--c", text(draw(num(-2.0, 4.0)))]
    if operator == "frac":  # --s is an option of frac alone
        argv += ["--s", text(draw(num(0.25, 3.0)))]
    k_max = draw(token(["1", "3", "4"], ["-1", "0"]))
    if command == "spectral-constant":
        argv += ["--k-max", k_max]
        if draw(st.booleans()):
            argv += ["--thresholds", draw(numbers(0.0, 8.0, 1, 4))]
    elif command == "certify":
        argv += ["--k-max", k_max, "--trials", draw(counts), "--recurrence-trials", draw(counts)]
    elif command in ("feedback-build", "simulate"):
        laws = ["damping", "finite-rank"] + (["none"] if command == "simulate" else [])
        argv += ["--feedback", draw(st.sampled_from(laws)),
                 "--feedback-delta", text(draw(num(0.0, 1.0)))]
        if command == "simulate":
            argv += ["--t-end", text(draw(num(0.01, 10.0))), "--dt", text(draw(num(1e-4, 0.1))),
                     "--y0", draw(token(["random", "eig:0", "eig:3"], ["eig:-1", "eig:nan"]))]
    else:
        claim = (draw(num(0.1, 10.0)), draw(num(0.1, 5.0)), draw(num(0.0, 1.0)))
        argv += ["--claim", "C={},T={},alpha={}".format(*map(text, claim))]
        centers = draw(st.lists(st.lists(num(-5.0, 5.0), min_size=1, max_size=2), max_size=2))
        argv += ["--centers", ";".join(":".join(text(v) for v in c) for c in centers)]
    return argv + ["--seed", draw(token(["0", "3"], ["-1"]))]


def argvs():
    return raw_argvs().flatmap(options)


def _nan_margins(value, key=None):
    if isinstance(value, dict):
        return any(_nan_margins(v, k) for k, v in value.items())
    if isinstance(value, list):
        return any(_nan_margins(v, key) for v in value)
    return key in MARGIN_KEYS and value == "nan"


def _call(argv):
    """Run the CLI in process; returns (exit code, stderr, document or None, warnings)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv + ["--out", out])
        doc = None
        if os.path.exists(out):
            with open(out) as fh:
                doc = json.load(fh)
    return code, err.getvalue(), doc, caught


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=argvs())
def test_every_call_ends_in_an_exit_code(argv):
    code, err, doc, caught = _call(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (2, 3):
        assert err.count("\n") == 1 and err.startswith(LABELS[code]), (argv, err)
        assert doc is None, argv
    else:
        assert err == "", (argv, err)
        assert not _nan_margins(doc["outputs"]), (argv, doc["outputs"])
    assert not caught, (argv, [str(w.message) for w in caught])


def _failing_eigh(H, overwrite=False):
    raise np.linalg.LinAlgError("eigenvalue algorithm did not converge")


def test_linalg_failure_is_a_numerical_error(monkeypatch):
    # LinAlgError subclasses ValueError, so only its own row keeps it out of exit 2
    monkeypatch.setattr(operators, "_dense_eigh", _failing_eigh)
    code, err, doc, _ = _call(["spectral-constant", "--operator", "hermite", "--k-max", "4",
                               "--domain", "dim=1,R=8,m=32,periodic=false"])
    assert (code, err, doc) == (3, "numerical error: eigenvalue algorithm did not converge\n", None)
