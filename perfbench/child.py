"""One run of one workload, in a fresh Python process.

Usage (normally started by run.py):

    python3 perfbench/child.py --workload NAME --seed N --t0 MONOTONIC \
        --scratch DIR --result FILE [--trace] [--setup-only] [--reference FILE]

``--t0`` is the CLOCK_MONOTONIC reading of the parent just before it
started this process, so ``setup_s`` covers interpreter start, imports and
input generation up to the first command.  Each command goes through
``stabcert.cli.main(argv)``, the path a CLI user takes, with ``--out`` in
the run's scratch directory.  The result is one JSON object in ``--result``.
Without ``--reference`` nothing is checked and the seed-independent fields of
each step's first invocation are returned instead (see record_reference.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def _invoke(cli, argv):
    """Exit code of one CLI call; a traceback or an argparse exit is reported as such."""
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return exc.code, f"SystemExit({exc.code})"
    except Exception:  # the benchmark records the failure and goes on
        return None, traceback.format_exc()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import oracle
    import stabcert.cli as cli
    from stabcert.domain import from_callable, save_grid_function
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = None
    if args.reference:
        with open(args.reference) as fh:
            reference = json.load(fh)[workload.name]

    workdir = tempfile.mkdtemp(dir=args.scratch, prefix=f"{workload.name}-")
    try:
        potential = os.path.join(workdir, "potential.json")
        if workload.potential_domain:
            dom = cli.parse_domain(workload.potential_domain)
            save_grid_function(from_callable(dom, lambda x: x**2 - 4.0), potential)
        cache_dir = os.path.join(workdir, "cache")
        if workload.cache == "fresh":
            os.environ["STABCERT_CACHE_DIR"] = cache_dir
        else:
            os.environ.pop("STABCERT_CACHE_DIR", None)
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(_run_steps(cli, oracle, workload, args.seed, workdir,
                                     potential, reference, tracer))
            result["cache_file_bytes"] = _dir_bytes(cache_dir) if os.path.isdir(cache_dir) else 0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _run_steps(cli, oracle, workload, seed, workdir, potential, reference, tracer):
    """Run the command sequence, then check the results outside the timed part."""
    commands = []
    started = time.perf_counter()
    for step in workload.steps:
        base = [a.replace("{potential}", potential) for a in step.args]
        for rep in range(step.repeat):
            outdir = os.path.join(workdir, "out", f"{step.label}-{rep}")
            os.makedirs(outdir)
            argv = [step.command, *base, "--seed", str(seed),
                    "--out", os.path.join(outdir, "result.json")]
            t = time.perf_counter()
            if tracer is None:
                code, crash = _invoke(cli, argv)
            else:
                with tracer.span("cmd." + step.command):
                    code, crash = _invoke(cli, argv)
                tracer.new_scope()
            commands.append((step, rep, outdir, code, crash, time.perf_counter() - t))
    out = {"run_s": time.perf_counter() - started, "commands": []}

    extracted = {}
    for step, rep, outdir, code, crash, seconds in commands:
        result_path = os.path.join(outdir, "result.json")
        if crash is None and not os.path.exists(result_path):
            crash = f"no result document (exit code {code})"
        record = {"label": step.label, "command": step.command, "seconds": seconds,
                  "exit": code, "out_bytes": _dir_bytes(outdir), "problems": []}
        if crash is not None:
            record["problems"].append(crash)
        else:
            with open(result_path) as fh:
                doc = json.load(fh)
            if step.command == "simulate" and "decay" in doc["outputs"]:
                record["tail_max_rise"] = oracle.tail_max_rise(doc["outputs"])
            if reference is not None:
                record["problems"] += oracle.check(
                    step.command, code, doc, reference[step.label])
            elif rep == 0:
                extracted[step.label] = {
                    "exit": code, "values": oracle.extract(step.command, doc["outputs"])}
        out["commands"].append(record)
    if reference is None:
        out["extracted"] = extracted
    if tracer is not None:
        out["layers"] = tracer.totals()
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    sys.exit(main())
