"""Command-line behavior: exit codes, result documents, side files.

Exit-code contract: 0 success, 1 the math said no (violation witnessed,
set not thick, hypothesis unverifiable, already stable, no damping rate,
an unstable loop), 2 usage errors (a damping law for a generator below 0
and a non-finite number where a finite one is needed among them), 3
internal failures (a damping rate the loop spectrum contradicts, a LAPACK
failure and a margin that overflows among them).
Documents must be reproducible bit for bit, timing aside, for equal config
and seed.
"""

import argparse
import json
import os
import pathlib
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from stabcert import certify, cli, feedback, operators, specineq
from stabcert.cli import RunConfig, main, payload_json, run
from stabcert.domain import (
    GridFunction,
    from_callable,
    grid_function_to_json,
    make_grid,
    save_grid_function,
)
from stabcert.feedback import build_finite_rank_feedback
from stabcert.geometry import HalfSpace, make_set, set_to_json
from stabcert.operators import FractionalLaplacian, diagonalize

DOC_KEYS = {"schema_version", "command", "config", "input_hashes", "outputs", "version", "timing"}


@pytest.fixture()
def potential_file(tmp_path):
    dom = make_grid(1, 10.0, 512, periodic=False)
    pot = from_callable(dom, lambda x: x**2 - 4.0)
    path = tmp_path / "potential.json"
    save_grid_function(pot, str(path))
    return str(path)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_no_command_exits_with_usage(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err == "config error: the following arguments are required: command\n"


@pytest.mark.parametrize("argv, message", [
    (["check-thick", "--lengths", "-inf"], "argument --lengths: expected one argument"),
    (["certify", "--k-max", "three"], "argument --k-max: invalid int value: 'three'"),
    (["probe", "--centers", "0"], "the following arguments are required: --claim"),
    (["check-thick", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    # the decay ratio is computed from the spectrum, so its trial count is gone
    (["certify", "--dissipative-trials", "0"], "unrecognized arguments: --dissipative-trials 0"),
], ids=["negative-inf-value", "bad-int", "missing-required", "unknown-option", "removed-option"])
def test_argparse_errors_go_through_the_error_table(capsys, argv, message):
    # one stderr line and exit 2, not the usage block and a SystemExit
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check-thick", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: stabcert check-thick")


def test_every_command_runs_on_its_defaults(capsys):
    # each subcommand with only the options it requires, so the defaults
    # must agree with each other: check-thick's side length must be a whole
    # number of cells of the default domain (h = 20 / 512)
    for argv in (["check-thick"], ["spectral-constant"], ["certify"], ["feedback-build"], ["simulate"],
                 ["probe", "--claim", "C=1,T=1,alpha=0.5", "--centers", "0"]):
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]


def test_bad_domain_is_usage_error(capsys):
    code = main(["check-thick", "--domain", "dim=3,R=10,m=64", "--set", "full"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_check_thick_slabs(tmp_path):
    out = tmp_path / "thick.json"
    code = main(
        [
            "check-thick",
            "--domain", "dim=1,R=10,m=320",
            "--set", "slabs:period=1,fill=0.25",
            "--lengths", "1,2",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = read(out)
    assert set(doc) == DOC_KEYS
    assert doc["outputs"]["thickness"]["is_thick"]
    assert doc["outputs"]["thickness"]["gamma"] == 0.25
    assert doc["outputs"]["thickness"]["side_length"] == 1.0


def test_check_thick_halfspace_fails_with_weak_report(tmp_path):
    out = tmp_path / "half.json"
    code = main(
        [
            "check-thick",
            "--domain", "dim=1,R=10,m=320",
            "--set", "halfspace:offset=0",
            "--radii", "2,4,6",
            "--out", str(out),
        ]
    )
    assert code == 1
    doc = read(out)
    assert not doc["outputs"]["thickness"]["is_thick"]
    weak = doc["outputs"]["weak_thickness"]
    assert weak["is_weakly_thick"]
    assert weak["densities"] == [0.5, 0.5, 0.5]


def test_custom_set_roundtrip_and_mismatch(tmp_path):
    dom = make_grid(1, 10.0, 80, periodic=True)
    e = make_set(dom, HalfSpace(offset=0.0))
    path = tmp_path / "set.json"
    path.write_text(json.dumps(set_to_json(e)))
    code = main(
        ["check-thick", "--domain", "dim=1,R=10,m=80", "--set", f"custom:file={path}"]
    )
    assert code == 1  # loads fine, halfspace is simply not thick
    code = main(
        ["check-thick", "--domain", "dim=1,R=10,m=160", "--set", f"custom:file={path}"]
    )
    assert code == 2  # saved on a different grid


def test_spectral_constant_full_domain(tmp_path):
    out = tmp_path / "curve.json"
    code = main(
        [
            "spectral-constant",
            "--domain", "dim=1,R=10,m=64",
            "--set", "full",
            "--k-max", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = read(out)
    assert doc["outputs"]["curve"]["constants"] == [1.0, 1.0, 1.0, 1.0]
    assert doc["outputs"]["curve"]["fit"] is not None
    side = tmp_path / "curve.curve.csv"
    assert side.exists()
    rows = side.read_text().strip().split("\n")
    assert rows[0].startswith("k,")
    assert len(rows) == 5


@pytest.mark.parametrize("k_max", [3, 4])
def test_spectral_constant_fits_only_four_or_more_constants(tmp_path, k_max):
    # the fit rule of certify: every constant finite and at least 4 of them;
    # fewer thresholds still give the curve, with no fit
    out = tmp_path / "curve.json"
    code = main(["spectral-constant", "--domain", "dim=1,R=10,m=64", "--set", "slabs:period=1,fill=0.5",
                 "--k-max", str(k_max), "--out", str(out)])
    assert code == 0
    curve = read(out)["outputs"]["curve"]
    assert len(curve["constants"]) == k_max
    assert all(isinstance(c, float) for c in curve["constants"])
    assert ("fit" in curve) == (k_max >= 4)
    if k_max >= 4:
        assert curve["fit"]["model"] == "ExpPower"


@pytest.mark.parametrize(
    "argv, option",
    [(["certify", "--k-max", "0"], "--k-max"),
     (["certify", "--k-max", "3", "--trials", "0"], "--trials"),
     (["certify", "--k-max", "3", "--recurrence-trials", "0"], "--recurrence-trials"),
     (["spectral-constant", "--k-max", "0"], "--k-max")],
    ids=["certify-k-max", "certify-trials", "certify-recurrence-trials", "spectral-constant-k-max"],
)
def test_zero_counts_are_refused(tmp_path, capsys, argv, option):
    out = tmp_path / "out.json"
    code = main([*argv, "--domain", "dim=1,R=10,m=64", "--set", "slabs:period=1,fill=0.5",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert option in err
    assert not out.exists()


def test_an_unresolved_k_max_is_refused_before_its_thresholds_are_counted(capsys, monkeypatch):
    # 64 Fourier cells resolve up to 32 levels, and d(k) for k up to 1e5 is
    # all 64: the largest threshold is refused first, whatever k_max is, by
    # certify and by the constant curve under it
    counted = []
    original = operators.spectral_count

    def count(dec, k):
        counted.append(k)
        return original(dec, k)

    monkeypatch.setattr(operators, "spectral_count", count)
    monkeypatch.setattr(specineq, "spectral_count", count)
    assert main(["certify", "--domain", "dim=1,R=10,m=64", "--set", "full", "--k-max", "100000"]) == 2
    assert "dimension 64 exceeds half the cell count 64" in capsys.readouterr().err
    assert counted == [100000.0, 100000.0]
    counted.clear()
    dec = diagonalize(FractionalLaplacian(s=1.0), make_grid(1, 10.0, 64))
    with pytest.raises(ValueError, match="dimension 64 exceeds half the cell count 64"):
        specineq.spectral_constant_curve(dec, make_set(dec.domain, HalfSpace()), range(1, 100001))
    assert counted == [100000.0, 100000.0]


@pytest.mark.parametrize(
    "domain, want_code, want_err",
    [("dim=2,R=6,m=128,periodic=false", 0, ""),
     ("dim=1,R=10,m=4098,periodic=false", 2,
      "config error: dense diagonalization is limited to 4096 cells, got 4098\n")],
    ids=["tensor-16384-cells", "full-4098-cells"],
)
def test_hermite_cell_limits(tmp_path, capsys, domain, want_code, want_err):
    # 2D Hermite keeps its basis as the 1D factor, so it runs past the 4096
    # cells that still bound the assembled solve
    out = tmp_path / "curve.json"
    code = main(["spectral-constant", "--operator", "hermite", "--domain", domain, "--out", str(out)])
    assert (code, capsys.readouterr().err) == (want_code, want_err)
    assert out.exists() == (code == 0)


def test_damping_on_a_large_tensor_grid_is_refused_before_the_sweep(tmp_path, capsys, monkeypatch):
    # 6400 cells: the 2D Hermite basis fits, the damping loop matrix does not,
    # and no Gram of the sweep is built before that is known
    def no_gram(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("stabcert.specineq.restricted_gram", no_gram)
    out = tmp_path / "fb.json"
    code = main(["feedback-build", "--operator", "hermite", "--c", "0",
                 "--domain", "dim=2,R=6,m=80,periodic=false", "--set", "halfspace:offset=0",
                 "--feedback", "damping", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: refusing to materialize a dense matrix of 6400 cells (the limit is 4096)\n"
    assert not out.exists()


def test_spectral_constant_unresolved_set_exits_one(tmp_path):
    # the half-space Gram degenerates past k = 2 on this coarse grid; the
    # constants go infinite and the command reports failure
    out = tmp_path / "curve.json"
    code = main(
        [
            "spectral-constant",
            "--domain", "dim=1,R=10,m=64",
            "--set", "halfspace:offset=0",
            "--k-max", "4",
            "--out", str(out),
        ]
    )
    assert code == 1
    constants = read(out)["outputs"]["curve"]["constants"]
    assert constants[-1] == "inf"


def test_certify_empty_set_unverifiable(tmp_path):
    out = tmp_path / "cert.json"
    code = main(
        [
            "certify",
            "--domain", "dim=1,R=10,m=64",
            "--set", "empty",
            "--k-max", "3",
            "--out", str(out),
        ]
    )
    assert code == 1
    doc = read(out)
    assert doc["outputs"]["status"] == "hypothesis unverifiable"
    assert "certificate" not in doc["outputs"]


def test_probe_fractional_violation(tmp_path):
    out = tmp_path / "probe.json"
    code = main(
        [
            "probe",
            "--domain", "dim=1,R=10,m=256",
            "--set", "ballcomplement:center=0,radius=5",
            "--operator", "frac", "--s", "1",
            "--claim", "C=1,T=1,alpha=0",
            "--centers", "0",
            "--out", str(out),
        ]
    )
    assert code == 1
    doc = read(out)
    assert doc["outputs"]["any_violation"]
    assert doc["outputs"]["centers"][0]["violated"]
    assert doc["outputs"]["kernel_rank"] >= 1
    assert 0.0 < doc["outputs"]["kernel_bound"] < 1e-10
    csv = (tmp_path / "probe.centers.csv").read_text().strip().split("\n")
    assert csv[0] == "x0,lhs,observation,violated"
    assert csv[1].endswith(",1")


def test_probe_hermite_halfspace(tmp_path):
    out = tmp_path / "hprobe.json"
    code = main(
        [
            "probe",
            "--domain", "dim=1,R=10,m=256,periodic=false",
            "--set", "halfspace:offset=0",
            "--operator", "hermite", "--c", "0",
            "--claim", "C=0.5,T=1,alpha=0",
            "--out", str(out),
        ]
    )
    assert code == 1
    doc = read(out)
    assert doc["outputs"]["hermite_probe"]["violated"]
    assert doc["outputs"]["hermite_probe"]["analytic_violated"]
    assert doc["outputs"]["kernel_rank"] >= 1
    assert 0.0 < doc["outputs"]["kernel_bound"] < 1e-10
    # the ground-state probe has no center sweep, hence no CSV
    assert not (tmp_path / "hprobe.centers.csv").exists()


def test_certify_reports_the_kernel_health(tmp_path):
    argv = ["certify", "--domain", "dim=1,R=10,m=64", "--set", "slabs:period=2,fill=0.5",
            "--k-max", "4", "--trials", "10", "--recurrence-trials", "5"]
    code = main(argv + ["--out", str(tmp_path / "a.json")])
    assert code == 0
    main(argv + ["--out", str(tmp_path / "b.json")])
    outputs = read(tmp_path / "a.json")["outputs"]
    for check in ("recurrence", "observability"):
        assert outputs[check]["kernel_rank"] >= 1
        assert 0.0 < outputs[check]["kernel_bound"] < 1e-10
    assert outputs == read(tmp_path / "b.json")["outputs"]


def test_certify_reports_each_figure_once(tmp_path):
    # T, alpha, C and a live in the certificate and the last threshold in the
    # curve; the decay ratio, at most 1 by the definition of d(k), is gone
    out = tmp_path / "cert.json"
    assert main(["certify", "--domain", "dim=1,R=10,m=64", "--set", "slabs:period=2,fill=0.5",
                 "--k-max", "4", "--trials", "10", "--recurrence-trials", "5", "--out", str(out)]) == 0
    doc = read(out)
    outputs = doc["outputs"]
    assert doc["schema_version"] == 8
    assert set(outputs) == {"status", "detail", "curve", "certificate", "recurrence", "observability",
                            "hypothesis", "_side_files"}
    assert not {"T", "alpha", "C"} & set(outputs["observability"])
    assert set(outputs["hypothesis"]) == {"verified", "c1", "worst_ratio", "worst_k"}
    assert {"T", "alpha", "C"} <= set(outputs["certificate"]) and "a" in outputs["certificate"]["constants"]


@pytest.mark.parametrize("operator, decided", [("hermite", True), ("frac", False)])
def test_certify_says_which_checks_the_spectrum_decided(tmp_path, operator, decided):
    # Hermite c = 0 decays at rate lam_1 = 1 by itself, so both checks pass
    # on every unit state without a pass; the periodic frac spectrum starts
    # at 0 and decides nothing
    walls = ["--domain", "dim=1,R=8,m=64,periodic=false", "--set", "halfspace:offset=0"]
    slabs = ["--domain", "dim=1,R=10,m=64", "--set", "slabs:period=2,fill=0.5"]
    argv = ["certify", "--operator", operator, "--k-max", "4", "--trials", "10", "--recurrence-trials", "5"]
    argv += walls if decided else slabs
    assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
    outputs = read(tmp_path / "a.json")["outputs"]
    weak, recurrence = outputs["observability"], outputs["recurrence"]
    assert weak["decided_by_spectrum"] is recurrence["decided_by_spectrum"] is decided
    assert (recurrence["decided_taus"] == recurrence["tau_samples"]) is decided
    assert len(recurrence["spectral_violations"]) == len(recurrence["tau_samples"])
    if decided:
        assert weak["min_margin"] == weak["spectral_margin"] > 0.0 and weak["observation_integrals"] == []
        assert recurrence["max_violation"] == max(recurrence["spectral_violations"]) <= 0.0
        assert all(check[key] == 0 for check in (weak, recurrence) for key in ("kernel_rank", "kernel_bound", "rank_used"))
    else:
        assert weak["spectral_margin"] < 0.0 and len(weak["observation_integrals"]) == 10


def _action_table(parser):
    return [(a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.help) for a in parser._actions]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_single_command_parser_is_the_full_parsers_subcommand(command):
    # main builds only the invoked command's parser; it must take exactly
    # the options, dests and defaults of that command in the full parser
    def subparsers(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    single = subparsers(cli.build_parser(command))
    assert list(single) == [command]
    assert _action_table(single[command]) == _action_table(subparsers(cli.build_parser())[command])
    assert single[command].prog == f"stabcert {command}"


def test_main_builds_the_invoked_commands_parser_alone(monkeypatch, capsys):
    # a known command builds its own parser; no command, an unknown one or
    # a top-level option builds every command's, for the usage and errors
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or original(command))
    main(["check-thick", "--domain", "dim=1,R=10,m=64", "--lengths", "2.5"])
    for argv in ([], ["frobnicate"], ["--out", "x.json", "certify"]):
        assert main(argv) == 2
    assert built == ["check-thick", None, None, None]
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def _perturbed_eigh(H, overwrite=False):
    w, U = scipy.linalg.eigh(H)
    return w, U + 1e-3 * np.random.default_rng(0).standard_normal(U.shape)


def _nan_eigh(H, overwrite=False):
    w, U = scipy.linalg.eigh(H)
    U[:, 3] = np.nan
    return w, U


def _failing_chain(constants):
    raise ArithmeticError("beta = exp(0.5) not in (0, 1); the constant chain is miscomputed")


HERMITE_32 = ["--domain", "dim=1,R=8,m=32,periodic=false", "--operator", "hermite"]


@pytest.mark.parametrize(
    "argv,target,replacement",
    [
        (["feedback-build", "--c", "2", "--set", "full"] + HERMITE_32, (operators, "_dense_eigh"), _perturbed_eigh),
        (["simulate", "--feedback", "none", "--set", "full"] + HERMITE_32, (operators, "_dense_eigh"), _perturbed_eigh),
        (["feedback-build", "--c", "2", "--set", "full"] + HERMITE_32, (operators, "_dense_eigh"), _nan_eigh),
        (["certify", "--domain", "dim=1,R=10,m=64", "--set", "full", "--k-max", "3"],
         (certify, "build_certificate"), _failing_chain),
    ],
    ids=["feedback-build-residual", "simulate-residual", "nan-residual", "certify-chain"],
)
def test_numerical_failures_exit_three(tmp_path, capsys, monkeypatch, argv, target, replacement):
    monkeypatch.setattr(*target, replacement)
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_probe_fractional_needs_centers(capsys):
    code = main(
        [
            "probe",
            "--domain", "dim=1,R=10,m=256",
            "--set", "full",
            "--operator", "frac",
            "--claim", "C=1,T=1,alpha=0",
        ]
    )
    assert code == 2
    assert "--centers" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--c", "-1", "--centers", "0"], "c must be nonnegative"),
    (["--centers", "0;11"], "center (11.0,) outside the box [-R, R]^n"),
    (["--centers", "0:1"], "center has 2 components, domain is 1-dimensional"),
], ids=["negative-c", "outside-the-box", "two-components"])
def test_probe_refuses_a_fractional_probe_it_cannot_build(tmp_path, capsys, args, message):
    out = tmp_path / "probe.json"
    code = main(["probe", "--domain", "dim=1,R=10,m=256", "--set", "full", "--operator", "frac", "--s", "1",
                 "--claim", "C=1,T=1,alpha=0", *args, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("centers", [[], ["--centers", "0"]], ids=["no-centers", "centers"])
def test_probe_refuses_a_schrodinger_operator_first(tmp_path, capsys, potential_file, centers):
    # the kind is checked before --centers: with or without them, one message names the probe kinds
    out = tmp_path / "probe.json"
    code = main(["probe", "--domain", "dim=1,R=10,m=512,periodic=false", "--set", "halfspace:offset=0",
                 "--operator", "schrodinger", "--potential", potential_file,
                 "--claim", "C=1,T=1,alpha=0", *centers, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "frac" in err and "hermite" in err
    assert not out.exists()


def test_probe_claim_must_be_complete(capsys):
    code = main(
        [
            "probe",
            "--domain", "dim=1,R=10,m=256",
            "--set", "full",
            "--operator", "frac",
            "--claim", "C=1",
            "--centers", "0",
        ]
    )
    assert code == 2


def test_feedback_build_already_stable(tmp_path):
    out = tmp_path / "fb.json"
    code = main(
        [
            "feedback-build",
            "--domain", "dim=1,R=10,m=256,periodic=false",
            "--set", "full",
            "--operator", "hermite", "--c", "0",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert read(out)["outputs"]["error"] == "already stable"


def test_feedback_build_damping_on_the_default_domain(tmp_path):
    # the default sweep N = 1..32 outruns the default 512-cell grid from
    # N = 7 on; the unresolved N are dropped instead of failing the build
    out = tmp_path / "fb.json"
    code = main(
        [
            "feedback-build",
            "--operator", "frac", "--s", "1",
            "--set", "slabs:period=1,fill=0.5",
            "--feedback", "damping",
            "--out", str(out),
        ]
    )
    assert code == 0
    fb = read(out)["outputs"]["feedback"]
    assert fb["kind"] == "damping"
    assert fb["omega"] > 0.0
    assert fb["chosen_N"] <= 6


@pytest.mark.parametrize("c", [0.0, 0.5, 1.5])
@pytest.mark.parametrize("operator,bottom,domain", [
    (["frac", "--s", "1"], 0.0, "dim=1,R=10,m=512,periodic=true"),
    (["frac", "--s", "2"], 0.0, "dim=1,R=10,m=512,periodic=true"),
    (["hermite"], 1.0, "dim=1,R=8,m=128,periodic=false"),
], ids=["frac-s1", "frac-s2", "hermite"])
def test_damping_law_is_built_only_where_its_rate_holds(tmp_path, capsys, operator, bottom, domain, c):
    # the bound omega needs H >= 0: a shift past the bottom of the spectrum
    # is refused with exit 2, and every law that is built has its certified
    # rate below the exact loop spectrum
    out = tmp_path / "fb.json"
    code = main(["feedback-build", "--operator", *operator, "--c", str(c), "--domain", domain,
                 "--set", "slabs:period=1,fill=0.5", "--feedback", "damping", "--out", str(out)])
    err = capsys.readouterr().err
    if c > bottom:
        assert code == 2
        assert err == ("config error: the damping law needs H >= 0, but the smallest eigenvalue "
                       f"is lambda_1 = {bottom - c:.6g}\n")
        assert not out.exists()
    else:
        assert (code, err) == (0, "")
        fb = read(out)["outputs"]["feedback"]
        assert 0.0 < fb["omega"] <= fb["loop_lambda_min"]


def test_damping_rate_above_the_loop_spectrum_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("stabcert.feedback.damping_decay_bound",
                        lambda *args: feedback.DampingBound(omega=10.0, chosen_N=1))
    out = tmp_path / "fb.json"
    code = main(["feedback-build", "--domain", "dim=1,R=10,m=64", "--set", "slabs:period=1,fill=0.5",
                 "--feedback", "damping", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical error: the loop's smallest eigenvalue")
    assert not out.exists()


@pytest.mark.parametrize("command", ["feedback-build", "simulate"])
def test_no_damping_rate_exits_one(tmp_path, command):
    # (1 - 0.999) N^2 - 2 < 0 at every N the 64-cell grid resolves
    out = tmp_path / "out.json"
    code = main(
        [
            command,
            "--domain", "dim=1,R=10,m=64",
            "--set", "slabs:period=1,fill=0.5",
            "--feedback", "damping", "--feedback-delta", "0.999",
            "--out", str(out),
        ]
    )
    assert code == 1
    outputs = read(out)["outputs"]
    assert outputs["error"] == "no damping rate" and "not thick enough" in outputs["detail"]


def _internal_failure(*args, **kwargs):
    raise RuntimeError("solver gave up")


@pytest.mark.parametrize(
    "command,target",
    [("feedback-build", "build_finite_rank_feedback"), ("simulate", "simulate_decay")],
)
def test_other_runtime_errors_exit_three(tmp_path, capsys, monkeypatch, command, target):
    # a RuntimeError that is not a feedback verdict is an internal failure,
    # not an "error" document
    monkeypatch.setattr(cli, target, _internal_failure)
    out = tmp_path / "out.json"
    code = main([command, "--domain", "dim=1,R=8,m=32,periodic=false", "--operator", "hermite",
                 "--c", "2", "--set", "full", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "internal error: solver gave up\n"
    assert not out.exists()


def test_feedback_build_schrodinger(tmp_path, potential_file, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("STABCERT_CACHE_DIR", str(cache))
    out = tmp_path / "fb.json"
    code = main(
        [
            "feedback-build",
            "--domain", "dim=1,R=10,m=512,periodic=false",
            "--set", "halfspace:offset=0",
            "--operator", "schrodinger", "--potential", potential_file,
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = read(out)
    fb = doc["outputs"]["feedback"]
    assert fb["kind"] == "finite-rank"
    assert fb["rho"] == pytest.approx(-4.0, abs=1e-9)
    assert fb["unstable_count"] == 2
    assert fb["norm_bound"] == pytest.approx(39.601, rel=1e-3)
    assert "potential" in doc["input_hashes"]
    # the decomposition landed in the cache directory
    assert any(name.startswith("decomposition-") for name in os.listdir(cache))


def test_feedback_build_writes_a_complex_gram_as_pairs(tmp_path):
    # in the Fourier basis the half-space Gram is complex Hermitian
    out = tmp_path / "fb.json"
    code = main(
        [
            "feedback-build",
            "--operator", "frac", "--s", "1", "--c", "0.5",
            "--domain", "dim=1,R=10,m=64,periodic=true",
            "--set", "halfspace:offset=0",
            "--out", str(out),
        ]
    )
    assert code == 0
    pairs = np.array(read(out)["outputs"]["feedback"]["gram"])
    dom = make_grid(1, 10.0, 64, periodic=True)
    fb = build_finite_rank_feedback(
        diagonalize(FractionalLaplacian(s=1.0, c=0.5), dom), make_set(dom, HalfSpace(offset=0.0))
    )
    assert np.abs(fb.gram.imag).max() > 0.1
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], fb.gram)


def test_simulate_closed_loop(tmp_path, potential_file, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("STABCERT_CACHE_DIR", str(cache))
    out = tmp_path / "sim.json"
    code = main(
        [
            "simulate",
            "--domain", "dim=1,R=10,m=512,periodic=false",
            "--set", "halfspace:offset=0",
            "--operator", "schrodinger", "--potential", potential_file,
            "--feedback", "finite-rank",
            "--t-end", "6", "--dt", "0.002",
            "--y0", "random", "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = read(out)
    assert doc["outputs"]["decay"]["fitted_omega"] > 0.2
    csv = (tmp_path / "sim.decay.csv").read_text().strip().split("\n")
    assert csv[0] == "t,norm,ln_norm"
    assert len(csv) == len(doc["outputs"]["decay"]["times"]) + 1


def test_simulate_open_loop_instability(tmp_path, potential_file):
    out = tmp_path / "sim.json"
    code = main(
        [
            "simulate",
            "--domain", "dim=1,R=10,m=512,periodic=false",
            "--set", "halfspace:offset=0",
            "--operator", "schrodinger", "--potential", potential_file,
            "--feedback", "none",
            "--t-end", "6", "--dt", "0.05",
            "--y0", "eig:0",
            "--out", str(out),
        ]
    )
    assert code == 1
    outputs = read(out)["outputs"]
    assert outputs["error"] == "unstable loop" and "instability" in outputs["detail"]
    assert not (tmp_path / "sim.decay.csv").exists()


def test_bad_y0_spec_is_usage_error(capsys):
    code = main(
        [
            "simulate",
            "--domain", "dim=1,R=10,m=64,periodic=false",
            "--set", "full",
            "--operator", "hermite",
            "--feedback", "none",
            "--y0", "nonsense",
        ]
    )
    assert code == 2


def test_y0_from_another_domain_is_usage_error(tmp_path, capsys):
    path = tmp_path / "y0.json"
    save_grid_function(from_callable(make_grid(1, 5.0, 64, periodic=False), np.cos), str(path))
    code = main(
        [
            "simulate",
            "--domain", "dim=1,R=10,m=64,periodic=false",
            "--set", "full",
            "--operator", "hermite",
            "--feedback", "none",
            "--y0", f"file:{path}",
        ]
    )
    assert code == 2
    assert "different domain" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--t-end", "-1"], "t_end must be positive and finite, got -1.0"),
        (["simulate", "--dt", "1"], "need 0 < dt <= t_end / 100, got dt = 1.0"),
        (["simulate", "--y0", "bogus"], "unknown y0 spec 'bogus'"),
        (["simulate", "--y0", "eig:999999"], "y0 eigenfunction index 999999 is outside 0..63"),
        (["simulate", "--y0", "file:{tmp}/missing.json"], "No such file"),
        (["simulate", "--y0", "file:{tmp}/away.json"], "y0 lives on a different domain"),
        (["simulate", "--feedback", "damping", "--feedback-delta", "1.5"], "delta must lie in [0, 1), got 1.5"),
        (["feedback-build", "--feedback", "damping", "--feedback-delta", "1.5"],
         "delta must lie in [0, 1), got 1.5"),
    ],
    ids=["t-end", "dt", "y0-grammar", "y0-index", "y0-missing-file", "y0-other-domain", "simulate-delta",
         "feedback-build-delta"],
)
def test_option_errors_are_refused_before_the_solve(tmp_path, monkeypatch, capsys, argv, message):
    # each rule that owns an option is asked before the dense solve; on
    # Hermite with c = 0 the finite-rank law would otherwise say "already
    # stable" (exit 1) after the solve, before the window was looked at
    def solve(*args):
        raise AssertionError("the dense solve ran")

    save_grid_function(from_callable(make_grid(1, 5.0, 64, periodic=False), np.cos), str(tmp_path / "away.json"))
    monkeypatch.setattr(operators, "_diagonalize_dense", solve)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv + ["--operator", "hermite", "--domain", WALLS_64, "--set", "halfspace:offset=0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("feedback", ["none", "finite-rank"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_y0_files_are_config_errors(tmp_path, capsys, feedback, bad):
    # refused where the file is read, not reported as an unstable loop
    dom = make_grid(1, 10.0, 64, periodic=False)
    values = from_callable(dom, np.cos).values.copy()
    values[20] = bad
    path = tmp_path / "y0.json"
    save_grid_function(GridFunction(dom, values), str(path))
    out = tmp_path / "out.json"
    code = main(["simulate", "--domain", WALLS_64, "--set", "halfspace:offset=0",
                 "--operator", "hermite", "--c", "2", "--feedback", feedback,
                 "--y0", f"file:{path}", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: y0 file {str(path)!r} has non-finite values (inf or NaN)\n"
    assert not out.exists()


def test_a_tiny_dt_only_spaces_the_samples(tmp_path):
    # 10^20 steps: the sample indices pass 2^64 and stay floating point
    out = tmp_path / "sim.json"
    code = main(["simulate", "--domain", WALLS_64, "--set", "full", "--operator", "hermite",
                 "--feedback", "none", "--t-end", "1", "--dt", "1e-20", "--out", str(out)])
    assert code == 0
    times = read(out)["outputs"]["decay"]["times"]
    assert len(times) <= 102
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0) and np.all(np.diff(times) > 0)


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _headerless_set(tmp_path):
    doc = set_to_json(make_set(make_grid(1, 10.0, 64, periodic=True), HalfSpace()))
    del doc["header"]
    return ["check-thick", "--domain", "dim=1,R=10,m=64",
            "--set", f"custom:file={_write_json(tmp_path / 'set.json', doc)}"]


def _set_with_runs(tmp_path, runs):
    # runs that still end at the 8 cells, so only a check of each run refuses them
    doc = dict(set_to_json(make_set(make_grid(1, 10.0, 8, periodic=True), HalfSpace())), runs=runs)
    return ["check-thick", "--domain", "dim=1,R=10,m=8", "--lengths", "2.5",
            "--set", f"custom:file={_write_json(tmp_path / 'set.json', doc)}"]


def _string_first_flag(tmp_path):
    # "false" read with bool() is True, and loaded the complement of the set named
    doc = dict(set_to_json(make_set(make_grid(1, 10.0, 8, periodic=True), HalfSpace())), first="false")
    return ["check-thick", "--domain", "dim=1,R=10,m=8", "--lengths", "2.5",
            "--set", f"custom:file={_write_json(tmp_path / 'set.json', doc)}"]


def _negative_set_run(tmp_path):
    return _set_with_runs(tmp_path, [4, -1, 5])


def _set_run_past_the_grid(tmp_path):
    return _set_with_runs(tmp_path, [3, 7, -2])


def _valueless_potential(tmp_path):
    doc = grid_function_to_json(from_callable(make_grid(1, 10.0, 64, periodic=False), np.cos))
    del doc["values"]
    return ["spectral-constant", "--domain", "dim=1,R=10,m=64,periodic=false",
            "--operator", "schrodinger", "--potential", _write_json(tmp_path / "v.json", doc)]


def _directory_potential(tmp_path):
    return ["spectral-constant", "--domain", "dim=1,R=10,m=64,periodic=false",
            "--operator", "schrodinger", "--potential", str(tmp_path)]


def _out_in_missing_directory(tmp_path):
    return ["check-thick", "--domain", "dim=1,R=10,m=64", "--lengths", "2.5",
            "--out", str(tmp_path / "missing" / "out.json")]


def _eigenfunction_index_past_the_grid(tmp_path):
    return ["simulate", "--domain", "dim=1,R=10,m=64,periodic=false", "--set", "full",
            "--operator", "hermite", "--feedback", "none", "--y0", "eig:64"]


def _centers_for_the_hermite_probe(tmp_path):
    # the ground-state probe has no center sweep; centers given to it are not ignored
    return ["probe", "--domain", "dim=1,R=10,m=256,periodic=false", "--set", "halfspace:offset=0",
            "--operator", "hermite", "--claim", "C=0.5,T=1,alpha=0", "--centers", "0"]


def _empty_thresholds(tmp_path):
    # an explicit empty list, not the --k-max default it would otherwise run on
    return ["spectral-constant", "--domain", "m=64", "--thresholds=,", "--k-max", "2"]


@pytest.mark.parametrize(
    "argv",
    [_headerless_set, _string_first_flag, _negative_set_run, _set_run_past_the_grid, _valueless_potential,
     _directory_potential, _out_in_missing_directory, _eigenfunction_index_past_the_grid,
     _centers_for_the_hermite_probe, _empty_thresholds],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_bad_inputs_are_config_errors(tmp_path, capsys, argv):
    code = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


def _saved_set_with_a_flag(tmp_path):
    doc = set_to_json(make_set(make_grid(1, 10.0, 64, periodic=True), HalfSpace(offset=1.0)))
    return ["check-thick", "--domain", "dim=1,R=10,m=64", "--lengths", "1.25",
            "--set", f"custom:file={_write_json(tmp_path / 'set.json', doc)},first=true"]


@pytest.mark.parametrize(
    "argv,key",
    [
        (lambda tmp_path: ["check-thick", "--domain", "dim=1,R=10,m=64,periodc=false", "--lengths", "1.25"],
         "unknown --domain key 'periodc'"),
        (lambda tmp_path: ["check-thick", "--domain", "dim=1,R=10,m=64", "--lengths", "1.25",
                           "--set", "slabs:perod=3,fill=0.5"], "unknown slabs set key 'perod'"),
        (lambda tmp_path: ["check-thick", "--domain", "dim=1,dim=2,R=10,m=64", "--lengths", "1.25"],
         "repeated --domain key 'dim'"),
        (_saved_set_with_a_flag, "unknown custom set key 'first'"),
        (lambda tmp_path: ["probe", "--operator", "frac", "--s", "1", "--domain", "dim=1,R=10,m=256,periodic=true",
                           "--set", "ballcomplement:radius=5", "--claim", "C=1,T=1,alpha=0,beta=2",
                           "--centers", "0"], "unknown claim key 'beta'"),
        (lambda tmp_path: ["check-thick", "--domain", "dim=1,R,m=64"], "expected key=value in --domain, got 'R'"),
    ],
    ids=["domain-typo", "set-typo", "domain-repeat", "custom-set-flag", "claim-extra", "domain-bare-key"],
)
def test_keys_outside_a_vocabulary_are_config_errors(tmp_path, capsys, argv, key):
    # each would otherwise run on a default it did not ask for, or on the
    # last of two values
    code = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1 and key in err


@pytest.mark.parametrize("imag", [0.0, 50.0], ids=["mirror-symmetric", "asymmetric"])
def test_complex_potentials_are_config_errors(tmp_path, capsys, imag):
    # refused before the solve, whichever layout would take it: V = x^2 - 4
    # saved as complex is its own mirror image, so the parity split would
    # take it; an imaginary part 50ix is not, so the full solve would
    dom = make_grid(1, 10.0, 64, periodic=False)
    values = from_callable(dom, lambda x: x**2 - 4.0 + 1j * imag * x).values
    assert np.iscomplexobj(values) and np.array_equal(values, values[::-1]) == (imag == 0.0)
    path = tmp_path / "v.json"
    save_grid_function(GridFunction(dom, values), str(path))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an imaginary part is not dropped with a ComplexWarning either
        code = main(["spectral-constant", "--domain", "dim=1,R=10,m=64,periodic=false",
                     "--operator", "schrodinger", "--potential", str(path), "--set", "halfspace:offset=0",
                     "--k-max", "3", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "config error: the potential must be real, got a complex grid function\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["symmetric-inf", "nan"])
def test_non_finite_potentials_are_config_errors(tmp_path, capsys, bad):
    # refused before the solve, naming the file: an inf on both walls keeps V
    # equal to its mirror image, so the parity split would take it; a NaN
    # never equals its mirror, so the full solve would
    dom = make_grid(1, 10.0, 64, periodic=False)
    values = from_callable(dom, lambda x: x**2 - 4.0).values.copy()
    values[[0, -1] if bad == np.inf else [20]] = bad
    assert np.array_equal(values, values[::-1]) == (bad == np.inf)
    path = tmp_path / "v.json"
    save_grid_function(GridFunction(dom, values), str(path))
    out = tmp_path / "out.json"
    code = main(["spectral-constant", "--domain", "dim=1,R=10,m=64,periodic=false",
                 "--operator", "schrodinger", "--potential", str(path), "--set", "full",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: potential {str(path)!r} has non-finite values (inf or NaN)\n"
    assert not out.exists()


WALLS_64 = "dim=1,R=10,m=64,periodic=false"


@pytest.mark.parametrize(
    "argv,named",
    [
        (["probe", "--operator", "hermite", "--domain", WALLS_64, "--claim", "C=1,T=nan,alpha=0.5"], "T = nan"),
        (["probe", "--domain", "dim=1,R=20,m=1024", "--claim", "C=nan,T=1,alpha=0.5", "--centers", "0"],
         "C = nan"),
        (["spectral-constant", "--domain", "dim=1,R=10,m=64", "--c", "nan", "--k-max", "4"],
         "s = 1.0, c = nan"),
        (["spectral-constant", "--domain", "dim=1,R=10,m=64", "--s", "inf", "--k-max", "4"],
         "s = inf, c = 0.0"),
        (["spectral-constant", "--operator", "hermite", "--domain", WALLS_64, "--c=-inf", "--k-max", "4"],
         "shift c must be finite, got -inf"),
        (["check-thick", "--domain", "dim=1,R=10,m=64", "--lengths", "inf"], "side length inf"),
        (["check-thick", "--domain", "dim=1,R=10,m=64", "--lengths", "2.5", "--radii", "nan"], "got [nan]"),
        (["check-thick", "--domain", "dim=1,R=nan,m=64"], "half_width R must be positive and finite, got nan"),
        (["simulate", "--domain", "dim=1,R=10,m=64", "--t-end", "inf"], "t_end must be positive and finite, got inf"),
        (["simulate", "--domain", "dim=1,R=10,m=64", "--dt", "nan"], "got dt = nan"),
        (["probe", "--domain", "dim=1,R=20,m=1024", "--claim", "C=1,T=1,alpha=0.9999999999999999",
          "--centers", "0"], "too close to 1"),
        (["spectral-constant", "--domain", "dim=1,R=10,m=64", "--thresholds", "nan"],
         "thresholds must be finite, got [nan]"),
    ],
    ids=["claim-T", "claim-C", "frac-c", "frac-s", "hermite-c", "side-length", "radius", "half-width",
         "t-end", "dt", "alpha-near-one", "threshold"],
)
def test_non_finite_inputs_are_config_errors(tmp_path, capsys, argv, named):
    # refused where the value is taken, naming it: no NaN passes a comparison
    # as a valid value, and no infinity reaches an integer conversion
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1 and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["probe", "--operator", "hermite", "--domain", WALLS_64, "--c", "5", "--claim", "C=1,T=1000,alpha=0.5",
          "--set", "halfspace:offset=2"], "observability margin is NaN at C = 1.0, T = 1000.0"),
        (["probe", "--domain", "dim=1,R=20,m=1024", "--c", "400", "--claim", "C=1,T=2,alpha=0.5", "--centers", "0",
          "--set", "halfspace:offset=2"], "observability margin is NaN at C = 1.0, T = 2.0"),
        (["certify", "--operator", "hermite", "--domain", "dim=1,R=8,m=64,periodic=false", "--c", "2",
          "--k-max", "4", "--trials", "20", "--set", "halfspace:offset=2"], "observability margin is NaN at C = inf"),
        # C = 3.1e242 is finite, but C times the observation term overflows
        # to a margin of +inf, which tests nothing
        (["certify", "--operator", "hermite", "--domain", "dim=1,R=8,m=64,periodic=false", "--c", "2",
          "--k-max", "4", "--trials", "5", "--seed", "1", "--set", "halfspace:offset=0"],
         "observability margin is infinite at C = 3.07"),
    ],
    ids=["hermite-probe", "frac-probe", "certify", "certify-infinite"],
)
def test_overflowing_margins_are_numerical_errors(tmp_path, capsys, argv, message):
    # e^{-TH} or the constant C overflows double precision: a NaN or
    # infinite margin is no verdict, and the overflow prints no warning
    # beside the error line
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"numerical error: {message}") and err.count("\n") == 1
    assert not caught and not out.exists()


def test_document_prints_to_stdout_without_out(capsys):
    # lengths must be whole numbers of cells: h = 0.3125 here, so 2.5 works
    code = main(
        ["check-thick", "--domain", "dim=1,R=10,m=64", "--set", "full", "--lengths", "2.5"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == DOC_KEYS
    assert doc["schema_version"] == 8


def test_payload_is_reproducible():
    config = RunConfig(
        operator={"kind": "hermite", "c": 0.0},
        domain={"dim": 1, "half_width": 10.0, "points_per_axis": 256, "periodic": False},
        set_spec={"text": "full"},
        options={"seed": 5, "feedback": "none", "delta": 0.5, "t_end": 5.0,
                 "dt": 0.01, "y0": "random"},
    )
    first = run("simulate", config)
    second = run("simulate", config)
    assert payload_json(first) == payload_json(second)
    # timing differs between runs, so only the payload is canonical
    assert json.loads(payload_json(first)).keys() == {
        "schema_version", "command", "config", "input_hashes", "outputs", "version",
    }


def test_an_interrupted_write_leaves_the_old_outputs(tmp_path, interrupt_write):
    argv = ["spectral-constant", "--domain", "dim=1,R=10,m=64", "--k-max", "4",
            "--out", str(tmp_path / "res.json")]
    assert main(argv) == 0
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(old) == ["res.curve.csv", "res.json"]
    interrupt_write(1)  # the document, half written
    assert main(argv) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def test_a_failed_side_file_write_leaves_the_old_set(tmp_path, interrupt_write, capsys):
    # the document is written in full, the side CSV breaks off: neither may
    # be replaced, or the new document would describe the old curve
    argv = ["spectral-constant", "--domain", "dim=1,R=10,m=64", "--k-max", "4",
            "--out", str(tmp_path / "res.json")]
    assert main(argv) == 0
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(old) == ["res.curve.csv", "res.json"]
    interrupt_write(2)
    argv[argv.index("4")] = "3"
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: write interrupted\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def test_a_failed_result_write_is_a_config_error(tmp_path, monkeypatch, capsys):
    # the directory of --out is removed while the command runs
    out = tmp_path / "gone"
    out.mkdir()
    original = cli.run

    def run_then_remove(*args, **kwargs):
        doc = original(*args, **kwargs)
        out.rmdir()
        return doc

    monkeypatch.setattr(cli, "run", run_then_remove)
    argv = ["spectral-constant", "--domain", "dim=1,R=10,m=64", "--k-max", "4",
            "--out", str(out / "res.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_run_rejects_unknown_command():
    config = RunConfig(operator={}, domain={"dim": 1, "half_width": 10.0,
                                            "points_per_axis": 64, "periodic": True},
                       set_spec={"text": "full"}, options={})
    with pytest.raises(ValueError, match="unknown command"):
        run("frobnicate", config)


def test_readme_names_exactly_the_parser_options():
    # every --option in README's "Command line" section is one the parser
    # takes, and every option of every subcommand is named there; the pip
    # flag --no-build-isolation is not a stabcert option
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    start = readme.index("\n## Command line\n")
    section = readme[start : readme.find("\n## ", start + 1)]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section)) - {"--no-build-isolation"}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings if o.startswith("--")}
    assert named - options == set(), "README names options the parser does not take"
    assert options - named == set(), "parser options README does not name"
