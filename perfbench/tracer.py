"""Spans and counters around calls into stabcert's modules.

The tracer wraps functions from the outside: each target is replaced, in
every loaded ``stabcert`` module that holds a reference to it, by a wrapper
that records a span (name, start, end, parent) and bumps counters.  The
program itself is not modified, so the tracing only sees calls that cross a
module attribute lookup; calls a module makes through a local alias are
invisible (none of the targets below is called that way).

Self time of a span is its duration minus the time covered by its children.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _array_bytes(obj) -> int:
    """Bytes of array data reachable from a content_hash argument."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    values = getattr(obj, "values", None)
    return values.nbytes if isinstance(values, np.ndarray) else 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self._stack = []  # (span index, child seconds)
        self.counts = defaultdict(int)
        self.sums = defaultdict(float)
        self._keys = defaultdict(set)

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append([len(self.spans) - 1, 0.0])
        try:
            yield
        finally:
            self._close()

    def _close(self):
        index, child_s = self._stack.pop()
        span = self.spans[index]
        span[3] = time.perf_counter()
        duration = span[3] - span[2]
        name = span[0]
        self.counts[name + ".calls"] += 1
        self.sums[name + ".self_s"] += duration - child_s
        if not any(self.spans[i][0] == name for i, _ in self._stack):
            self.sums[name + ".s"] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def distinct(self, name, key):
        """Count a call key; ``<name>.unique_ratio`` is distinct keys over calls."""
        self._keys[name].add(key)

    def new_scope(self):
        """Forget call keys: object ids are only meaningful within one command."""
        for name, keys in self._keys.items():
            self.sums[name + ".distinct"] += len(keys)
        self._keys.clear()

    # -- patching --------------------------------------------------------

    def wrap(self, module, attr, name, after=None):
        """Replace ``module.attr`` everywhere stabcert references it."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "stabcert" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def totals(self) -> dict:
        self.new_scope()
        out = dict(self.counts)
        out.update(self.sums)
        return out


def install(tracer: Tracer):
    """Wrap the public functions of each module named by the benchmark's layers."""
    from stabcert import certify, cli, domain, feedback, geometry, operators, probes, specineq

    def cells_of(e):
        return int(np.count_nonzero(e.cells))

    def after_gram(t, args, kwargs, result):
        dec, indices, e = args
        d = len(np.atleast_1d(indices))
        t.sums["specineq.restricted_gram.work"] += cells_of(e) * d * d
        t.distinct("specineq.restricted_gram", (id(dec), d, id(e)))

    def after_best(t, args, kwargs, result):
        dec, k, e = args[:3]
        t.distinct("specineq.best_constant", (id(dec), float(k), id(e)))

    def after_block(t, args, kwargs, result):
        t.sums["operators.basis_block.entries"] += result.size

    def after_hash(t, args, kwargs, result):
        t.sums["domain.content_hash.bytes"] += sum(_array_bytes(p) for p in args)

    def after_dense(t, args, kwargs, result):
        t.sums["operators.diagonalize.dense_n3"] += float(result.domain.cell_count) ** 3

    hash_original = domain.content_hash
    dense_seen = [0]

    def after_diagonalize(t, args, kwargs, result):
        cold = t.counts["operators.diagonalize_dense.calls"] - dense_seen[0]
        dense_seen[0] += cold
        spec, dom = args[:2]
        cache_dir = kwargs.get("cache_dir", args[2] if len(args) > 2 else None)
        if cache_dir is None or result.basis_kind != "Dense":
            return
        key = hash_original(operators.spec_to_json(spec), dom)
        path = os.path.join(str(cache_dir), f"decomposition-{key}.npz")
        if os.path.exists(path):
            t.sums["operators.diagonalize.cache_bytes"] += os.path.getsize(path)
        if not cold:
            t.sums["operators.diagonalize.cache_hits"] += 1

    def after_simulate(t, args, kwargs, result):
        dt = args[5] if len(args) > 5 else kwargs["dt"]
        t_end = args[4] if len(args) > 4 else kwargs["t_end"]
        t.sums["feedback.simulate_decay.steps"] += int(np.ceil(t_end / dt - 1e-12))

    def after_finite_rank(t, args, kwargs, result):
        gram = np.real_if_close(result.gram)
        if gram.shape[0] > 1:
            t.sums["feedback.gram_offdiag_sign"] = float(np.sign(gram[0, 1].real))

    targets = [
        (certify, "certify_end_to_end", None),
        (certify, "weak_observability_check", None),
        (certify, "recurrence_check", None),
        (certify, "build_certificate", None),
        (specineq, "restricted_gram", after_gram),
        (specineq, "best_constant", after_best),
        (specineq, "spectral_constant_curve", None),
        (specineq, "verify_spectral_hypothesis", None),
        (operators, "diagonalize", after_diagonalize),
        (operators, "_diagonalize_dense", after_dense),
        (operators, "dissipative_margin", None),
        (operators, "basis_block", after_block),
        (operators, "to_coefficients", None),
        (operators, "semigroup_apply", None),
        (feedback, "build_finite_rank_feedback", after_finite_rank),
        (feedback, "simulate_decay", after_simulate),
        (probes, "falsify_weak_observability", None),
        (probes, "falsify_hermite_ground_state", None),
        (probes, "observation_tail", None),
        (probes, "kernel_probe_solution", None),
        (geometry, "make_set", None),
        (geometry, "check_thick", None),
        (geometry, "check_weakly_thick", None),
        (domain, "content_hash", after_hash),
        (domain, "load_grid_function", None),
        (cli, "run", None),
        (cli, "_write_outputs", None),
    ]
    for module, attr, after in targets:
        short = module.__name__.split(".")[-1]
        tracer.wrap(module, attr, f"{short}.{attr.lstrip('_')}", after)
