"""The stabcert benchmark: fixed CLI workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn.  Workloads are defined in
workloads.py and metric names come from BENCHMARK.json.

Every run of a workload is a fresh Python process (child.py), so no
module-global state of the program carries over.  An invocation makes as
many runs as fit ``--seconds`` at the workload's nominal run time, each with
its own seed derived from ``--seed`` (see rep_seeds), and reports medians
over them.  Untraced (``--trace 0``) it first starts three processes that
only set up, so ``setup_s`` is a median over at least four samples.  Traced
(``--trace 1``) every run is made twice, untraced then traced: per-layer
figures are medians over the traced runs, and the tracing overhead is the
traced ``run_s`` minus the untraced ``run_s``.

Every command's result is checked by oracle.py against reference.json.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (commands attempted and commands whose result failed a check)
and ``metrics``; the lines before it name each metric with its unit, and a
detailed report with per-run records, spans and provenance is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import provenance
from workloads import WORKLOADS, working_set

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 3
SEED_STRIDE = 1_000_003
# A run's wall time must stay well inside the 180 s a benchmark run may take.
HARD_LIMIT_S = 170.0
COMMAND_METRICS = {
    "check-thick": "check_thick_s",
    "spectral-constant": "spectral_constant_s",
    "certify": "certify_s",
    "feedback-build": "feedback_build_s",
    "simulate": "simulate_s",
    "probe": "probe_s",
}


class ChildFailed(RuntimeError):
    pass


def _run_child(workload, seed, scratch, env, *, trace=False, setup_only=False,
               reference=REFERENCE, timeout=HARD_LIMIT_S):
    fd, result_path = tempfile.mkstemp(dir=scratch, suffix=".json")
    os.close(fd)
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--scratch", scratch, "--result", result_path]
    if reference:
        argv += ["--reference", reference]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    argv += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=max(1.0, timeout))
        if proc.returncode != 0:
            raise ChildFailed(f"workload process exited with code {proc.returncode}")
        with open(result_path) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"workload process killed after {exc.timeout:.0f} s") from exc
    finally:
        os.unlink(result_path)


def _median(values):
    return statistics.median(values) if values else 0.0


def _command_seconds(rep) -> dict:
    out = {}
    for c in rep["commands"]:
        name = COMMAND_METRICS[c["command"]]
        out[name] = out.get(name, 0.0) + c["seconds"]
    return out


def _layer_metrics(rep, names) -> dict:
    layers = rep["layers"]
    values = {}
    for name in names:
        if name.endswith(".unique_ratio"):
            base = name[: -len(".unique_ratio")]
            calls = layers.get(base + ".calls", 0)
            values[name] = layers.get(base + ".distinct", 0) / calls if calls else 0.0
        else:
            values[name] = layers.get(name, 0.0)
    values["cli.out_bytes"] = sum(c["out_bytes"] for c in rep["commands"])
    return values


def rep_seeds(workload, seed, seconds, trace):
    """The ``--seed`` of each run: as many runs as fit ``seconds`` at the nominal run time.

    The count depends only on the arguments, so a commit that runs faster
    does the same work, not more.  Run r gets seed + r * SEED_STRIDE: the
    work of ``certify`` depends on the seed through the quadrature ladder,
    and a median over several seeds is steadier than one seed repeated.
    """
    per_run = workload.nominal_s * (2 if trace else 1)
    return [seed + r * SEED_STRIDE for r in range(max(1, int(seconds // per_run)))]


def measure(name, seed, seconds, trace, spec, out_dir):
    """Run one workload for about ``seconds``; returns (result line, report)."""
    env = provenance.pinned_env()
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    scratch = tempfile.mkdtemp(dir=out_dir, prefix="scratch-")
    attempted = failed = 0
    problems = []
    setups, plain, traced = [], [], []
    invocations = sum(step.repeat for step in WORKLOADS[name].steps)
    try:
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(_run_child(name, seed, scratch, env, setup_only=True)["setup_s"])
        for run_seed in rep_seeds(WORKLOADS[name], seed, seconds, trace):
            for traced_run in ((False, True) if trace else (False,)):
                attempted += invocations
                try:
                    rep = _run_child(name, run_seed, scratch, env, trace=traced_run,
                                     timeout=hard_deadline - time.monotonic())
                except ChildFailed as exc:
                    failed += invocations
                    problems.append(str(exc))
                    continue
                failed += sum(1 for c in rep["commands"] if c["problems"])
                problems += [f"{c['label']}: {p}" for c in rep["commands"] for p in c["problems"]]
                (traced if traced_run else plain).append(rep)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not plain or (trace and not traced):
        raise ChildFailed("no run of the workload completed: " + "; ".join(problems))
    setups += [r["setup_s"] for r in plain]
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {}
        per_rep = [_layer_metrics(r, names) for r in traced]
        for metric in names:
            metrics[metric] = _median([v[metric] for v in per_rep])
        for metric in COMMAND_METRICS.values():
            metrics[metric] = _median([_command_seconds(r).get(metric, 0.0) for r in plain])
        metrics["trace.run_s"] = _median([r["run_s"] for r in traced])
        metrics["trace.untraced_run_s"] = _median([r["run_s"] for r in plain])
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "setup_s": _median(setups),
            "run_s": _median([r["run_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    commands = {
        metric: _median([_command_seconds(r)[metric] for r in plain])
        for metric in sorted(set().union(*(_command_seconds(r) for r in plain)))
    }
    cache_bytes = _median([r["cache_file_bytes"] for r in plain])
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "result": line,
        "error_rate": failed / attempted,
        "problems": problems,
        "command_s": commands,
        "setup_samples": setups,
        "gram_offdiag_sign": [r["layers"].get("feedback.gram_offdiag_sign") for r in traced],
        "tail_max_rise": [c["tail_max_rise"] for r in plain for c in r["commands"]
                          if "tail_max_rise" in c],
        "working_set": dict(working_set(WORKLOADS[name]), cache_file_bytes=cache_bytes),
        "provenance": provenance.collect(ROOT, env),
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in plain + traced],
        "spans": traced[-1]["spans"] if traced else None,
    }
    return line, report


def _largest_arrays(working) -> dict:
    """Largest computed array per step, plus the cache file, for comparison with the LLC."""
    out = {label: max(v for k, v in sizes.items() if k != "cells")
           for label, sizes in working.items()
           if isinstance(sizes, dict) and len(sizes) > 1}
    if working["cache_file_bytes"]:
        out["cache file"] = working["cache_file_bytes"]
    return out


def _print_block(name, line, report):
    m = line["metrics"]
    print(f"== {name}  seed={report['seed']}  trace={int(report['trace'])}  "
          f"runs={len(report['runs'])}")
    for key, val in m.items():
        print(f"  {key:<45} {val['value']:>16.6g} {val['unit']}")
    if not report["trace"]:
        for key, val in report["command_s"].items():
            print(f"  {key:<45} {val:>16.6g} s")
    print(f"  {'error_rate':<45} {report['error_rate']:>16.6g} failed/attempted")
    llc = report["provenance"]["llc_bytes"]
    for label, size in _largest_arrays(report["working_set"]).items():
        share = f"{size / llc:.2f} x LLC" if llc else "LLC size unknown"
        print(f"  working set {label:<33} {size:>16.0f} bytes ({share})")
    if report["gram_offdiag_sign"] and report["gram_offdiag_sign"][0] is not None:
        print(f"  gram[0,1] sign (not gated) {report['gram_offdiag_sign']}")
    if report["tail_max_rise"]:
        print(f"  closed-loop tail max rise (not gated) {max(report['tail_max_rise']):.3g}")
    for p in report["problems"][:20]:
        print(f"  PROBLEM {p}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {sorted(WORKLOADS)} or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # workload process instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "stabcert", "cli.py")):
        print("stabcert sources not found under src/; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    lines = {}
    for name in names:
        try:
            line, report = measure(name, args.seed, args.seconds, bool(args.trace), spec, out_dir)
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(out_dir, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
        _print_block(name, line, report)
        lines[name] = line
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{n}.{k}": v for n, l in lines.items() for k, v in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
