"""Command-line behavior: exit codes, result documents, side files.

Exit-code contract: 0 success, 1 the math said no (violation witnessed,
set not thick, hypothesis unverifiable, already stable, no damping rate,
an unstable loop), 2 usage errors, 3 internal failures.
Documents must be reproducible bit for bit, timing aside, for equal config
and seed.
"""

import json
import os

import numpy as np
import pytest
import scipy.linalg

from stabcert import certify, cli, operators
from stabcert.cli import RunConfig, build_parser, main, payload_json, run
from stabcert.domain import from_callable, grid_function_to_json, make_grid, save_grid_function
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


def test_no_command_exits_with_usage():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([])
    assert info.value.code == 2


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


def _perturbed_eigh(H):
    w, U = scipy.linalg.eigh(H)
    return w, U + 1e-3 * np.random.default_rng(0).standard_normal(U.shape)


def _failing_chain(constants):
    raise ArithmeticError("beta = exp(0.5) not in (0, 1); the constant chain is miscomputed")


HERMITE_32 = ["--domain", "dim=1,R=8,m=32,periodic=false", "--operator", "hermite"]


@pytest.mark.parametrize(
    "argv,target,replacement",
    [
        (["feedback-build", "--c", "2", "--set", "full"] + HERMITE_32, (operators, "_dense_eigh"), _perturbed_eigh),
        (["simulate", "--feedback", "none", "--set", "full"] + HERMITE_32, (operators, "_dense_eigh"), _perturbed_eigh),
        (["certify", "--domain", "dim=1,R=10,m=64", "--set", "full", "--k-max", "3"],
         (certify, "build_certificate"), _failing_chain),
    ],
    ids=["feedback-build-residual", "simulate-residual", "certify-chain"],
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
    assert "not thick enough" in read(out)["outputs"]["error"]


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
    assert "instability" in read(out)["outputs"]["error"]
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


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _headerless_set(tmp_path):
    doc = set_to_json(make_set(make_grid(1, 10.0, 64, periodic=True), HalfSpace()))
    del doc["header"]
    return ["check-thick", "--domain", "dim=1,R=10,m=64",
            "--set", f"custom:file={_write_json(tmp_path / 'set.json', doc)}"]


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


@pytest.mark.parametrize(
    "argv",
    [_headerless_set, _valueless_potential, _directory_potential, _out_in_missing_directory,
     _eigenfunction_index_past_the_grid],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_bad_inputs_are_config_errors(tmp_path, capsys, argv):
    code = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_document_prints_to_stdout_without_out(capsys):
    # lengths must be whole numbers of cells: h = 0.3125 here, so 2.5 works
    code = main(
        ["check-thick", "--domain", "dim=1,R=10,m=64", "--set", "full", "--lengths", "2.5"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == DOC_KEYS
    assert doc["schema_version"] == 3


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


def test_run_rejects_unknown_command():
    config = RunConfig(operator={}, domain={"dim": 1, "half_width": 10.0,
                                            "points_per_axis": 64, "periodic": True},
                       set_spec={"text": "full"}, options={})
    with pytest.raises(ValueError, match="unknown command"):
        run("frobnicate", config)
