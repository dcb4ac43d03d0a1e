"""Smoke runs of the scripts in scripts/ at small sizes.

Each script runs in-process as __main__ with its own argument list and
writes into a temporary directory.
"""

import csv
import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def run_script(monkeypatch, tmp_path, name, *args):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_slab_certification_default_fills(monkeypatch, tmp_path):
    # the finest default fill has a +inf constant at this resolution: its
    # row carries the status and empty constants
    out = tmp_path / "slabs.csv"
    run_script(monkeypatch, tmp_path, "slab_certification.py", "--m", "128", "--k-max", "4", "--out", str(out))
    rows = read_rows(out)
    assert [row["fill"] for row in rows] == ["0.5", "0.25", "0.125"]
    assert [row["status"] for row in rows] == ["certified", "certified", "hypothesis unverifiable"]
    assert float(rows[0]["C"]) > 0.0
    assert rows[2]["C"] == rows[2]["c1"] == ""


def test_slab_certification_records_refused_fills(monkeypatch, tmp_path):
    # at m = 64 the default --k-max 10 asks for a projection range the grid
    # does not resolve: every fill gets a "refused" row and the run completes
    out = tmp_path / "slabs.csv"
    run_script(monkeypatch, tmp_path, "slab_certification.py", "--m", "64", "--out", str(out))
    rows = read_rows(out)
    assert [row["fill"] for row in rows] == ["0.5", "0.25", "0.125"]
    assert all(row["status"] == "refused" for row in rows)
    assert all(row[name] == "" for row in rows for name in ("c1", "A", "T", "alpha", "C", "min_margin"))


def test_hermite_feedback_demo(monkeypatch, tmp_path):
    out = tmp_path / "decay.csv"
    run_script(
        monkeypatch, tmp_path, "hermite_feedback_demo.py",
        "--m", "128", "--t-end", "2", "--dt", "0.02", "--out", str(out),
    )
    rows = read_rows(out)
    assert len(rows) == 101
    # the open loop grows past 10 ||y0|| by t = 2, so only the closed loop is tabulated
    assert all(row["open_norm"] == "" for row in rows)
    assert float(rows[-1]["closed_norm"]) < float(rows[0]["closed_norm"])


def test_certificate_reference_values_match_the_frozen_dicts(monkeypatch, tmp_path, capsys):
    pytest.importorskip("mpmath")
    from test_certify import GOLDEN_SECOND, GOLDEN_UNIT

    run_script(monkeypatch, tmp_path, "certificate_reference_values.py")
    printed = {}
    exec(capsys.readouterr().out, {}, printed)
    assert printed["GOLDEN_UNIT"] == pytest.approx(GOLDEN_UNIT, rel=1e-15)
    assert printed["GOLDEN_SECOND"] == pytest.approx(GOLDEN_SECOND, rel=1e-15)
