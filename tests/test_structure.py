"""Structural rules of the package source, checked on its syntax tree.

No module imports another module's private names, no module keeps a
module-global cache (a name bound to an empty dict or list at module level,
or a top-level function under `functools.lru_cache` or `functools.cache`),
and only `operators` reads the basis object or layout of a spectral
decomposition or counts eigenvalues below a threshold itself; every other
module goes through `spectral_count`, `spectral_apply` and the coefficient
transforms. `specineq`, `certify` and `probes` never sample eigenfunctions
with `basis_block`: the restricted Gram is built by `operators`, and
`certify` and `probes` never build one at all (their observation integrals
go through `operators.restricted_norms`), `certify` takes its decayed norms
from the decay sums that `restricted_norms` returns, and `probes`
takes them from the observation bracket, neither from `to_coefficients`;
`certify` does not reference `dissipative_margin`: the decay bound holds
exactly in the grid's eigenbasis, so its ratio, at most 1, decides nothing
and is neither computed nor reported; for the same reason
`operators.Schrodinger` has no `delta` field (condition I's form bound,
which the grid cannot check) and `certify` reads no `.verified`;
only `certify.inequality_margins`, the evaluator of both checks and both
probes, factors a time kernel (`time_kernel`) and drives the chunks of
`restricted_norms`, and it tests whether a chunk may stop taking kernel
rows for a check's lower end alone (`end == "lower"`);
`probes` evaluates its self-similar
probe only at t = 0, from one kernel transform. `operators` draws no
random states: its figures are computed from the decomposition. In
`operators`,
every `eigh` call is inside `_dense_eigh`, which only `_gathered_eigh`
calls: every dense matrix is gathered there in row strips and solved in
place, for the pinned full solve `_pinned_eigh` and the parity split
`_reflection_split_eigh` alike, and every real FFT of a stack of states
(`rfftn`, `irfftn`) is inside the Fourier basis's pass. Inside `operators`,
only the basis classes (one per layout) and `_layout`, which picks one,
read a layout's array (`vectors`, `parity_blocks`, `tensor_factor`,
`symbol`), compare `basis_kind` or a basis class, or ask `isinstance` of
one. No basis `passes` method takes `order`: a pass's rows reach the basis
in native order, and only `to_coefficients` gathers to ascending order.
Every layout keeps `order`: no function there compares it with None, and
no basis class has an `ordered` flag.
`feedback.build_finite_rank_feedback` factors its Gram with one `eigh`,
and `feedback` takes no condition number, inverse or SVD besides it.
scipy is imported only by `operators`, and only as `scipy.linalg` for
that eigensolver, so importing the CLI loads no other scipy subpackage.
Every file is written through `domain.atomic_write`, the one caller of
`tempfile.mkstemp` and `os.replace`, and no module, test module included,
imports a name it does not use. `cli` declares its commands in one table,
and `operators.spec_hash` hashes the document of `spec_to_json`, neither
with a branch on the spec's type. One table, `operators.OPERATOR_KINDS`,
names each operator kind, for the CLI and the spec document alike, and
`_diagonalize_dense` reads no condition: the spec checks its own. Every
public top-level name in `src/` is reached outside the tests: by other
package code, a script, the benchmark
(by name, as its tracer wraps functions) or a backticked mention in the
README, and every public method or property by an attribute of its name
outside its own definition; the references only the tests use live in
`tests/reference.py`.
The benchmark's tracer still finds every function it wraps. The rule that
an input shares a grid's domain is written once: no `.domain` is compared
with `==` or `!=` outside `domain.require_domain`.
"""

import ast
import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from stabcert import cli, operators
from stabcert.certify import inequality_margins
from stabcert.domain import make_grid
from stabcert.geometry import PeriodicSlabs, make_set
from stabcert.operators import FractionalLaplacian, diagonalize

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "stabcert").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "specineq.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    # `from . import __version__` names the package, not a sibling module
    private = [
        f"line {node.lineno}: from .{node.module} import {alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


def _empty_container(value):
    return (isinstance(value, ast.Dict) and not value.keys) or (
        isinstance(value, ast.List) and not value.elts
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_empty_containers(path):
    found = [
        f"line {node.lineno}"
        for node in _tree(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _empty_container(node.value)
    ]
    assert not found, found


def _is_cache_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_cached_top_level_functions(path):
    found = [
        f"line {node.lineno}: {node.name}"
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_cache_decorator(d) for d in node.decorator_list)
    ]
    assert not found, found


DECOMPOSITION_LAYOUT = {"basis_kind", "basis", "vectors", "parity_blocks", "tensor_factor", "tensor_signs",
                        "symbol", "order"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "operators.py"], ids=lambda p: p.name)
def test_decomposition_layout_is_read_only_in_operators(path):
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Attribute) and node.attr in DECOMPOSITION_LAYOUT | {"searchsorted"})
        or (isinstance(node, ast.Name) and node.id == "searchsorted")
    ]
    assert not found, found


def _names(tree, name):
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.alias) and node.name == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)
    ]


@pytest.mark.parametrize("name", ["specineq.py", "certify.py", "probes.py"])
def test_gram_consumers_do_not_sample_the_basis(name):
    # the E-restricted Gram is built in `operators` (`restricted_gram`, which
    # gathers the Fourier kind from one FFT of the set); its consumers never
    # sample eigenfunctions themselves
    found = _names(_tree(next(p for p in SOURCES if p.name == name)), "basis_block")
    assert not found, found


@pytest.mark.parametrize("name", ["certify.py", "probes.py"])
def test_flow_checks_and_probes_build_no_gram(name):
    # the observation integrals of the checks and probes come from the
    # low-rank time kernel and batched transforms, never from a cells^2 Gram
    found = _names(_tree(next(p for p in SOURCES if p.name == name)), "restricted_gram")
    assert not found, found


def test_probes_take_their_decayed_norms_from_the_bracket():
    # ||e^{-TH} phi|| of every probe comes with its observation bracket
    # (`certify.inequality_margins`), from one batched coefficient transform
    found = _names(_tree(next(p for p in SOURCES if p.name == "probes.py")), "to_coefficients")
    assert not found, found


def test_certify_takes_its_decayed_norms_from_restricted_norms():
    # the bracket's ||e^{-hi H} u|| come from the decay sums of |c|^2 that
    # `operators.restricted_norms` returns beside its set norms, from the
    # one transform of each state its passes use
    found = _names(_tree(next(p for p in SOURCES if p.name == "certify.py")), "to_coefficients")
    assert not found, found


def test_certify_does_not_reference_the_decay_ratio():
    # e^{-t (lambda_{d(k)+1} - k)} is at most 1 by the definition of d(k):
    # a figure that cannot fail is not computed, nor reported in a document
    source = next(p for p in SOURCES if p.name == "certify.py").read_text()
    assert "dissipative_margin" not in source


def test_no_input_or_figure_that_decides_nothing():
    # condition I's form bound cannot be checked on a grid and fed no figure,
    # and the hypothesis ratio of the chosen c1 is within its slack by the
    # rule that chooses c1: neither is an input or a verdict any more
    assert "delta" not in {f.name for f in dataclasses.fields(operators.Schrodinger)}
    tree = _tree(next(p for p in SOURCES if p.name == "certify.py"))
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "verified"]


def test_operators_draw_no_random_states():
    # a decomposition's figures (the decay ratio among them) are computed,
    # not sampled; the checks draw their own states and pass them in
    found = _names(_tree(next(p for p in SOURCES if p.name == "operators.py")), "random")
    assert not found, found


def _callers(name):
    """(file, function) of every call of ``name``, by name or attribute, in the package source."""
    found = set()
    for path in SOURCES:
        tree = _tree(path)
        owner = {id(node): fname for fname, func in _functions(tree) for node in ast.walk(func)}
        found |= {
            (path.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        }
    return found


def test_only_the_evaluator_forms_an_observation_bracket():
    # the two checks and the two probes evaluate their inequality through
    # `certify.inequality_margins`, which factors the time kernels, drives
    # the chunks of `operators.restricted_norms` row by row, picks the
    # bracket end, forms the margins and holds the one rule for a NaN or
    # infinite margin; no second owner of the kernel rows grows back
    for name in ("restricted_norms", "time_kernel"):
        assert _callers(name) == {("certify.py", "inequality_margins")}, (name, sorted(_callers(name), key=str))


def _chunk_loop(func):
    """``func``'s one loop over the chunks of ``restricted_norms``."""
    (loop,) = [node for node in ast.walk(func)
               if isinstance(node, ast.For) and "restricted_norms" in ast.unparse(node.iter)]
    return loop


def _checks_only(test) -> bool:
    """Whether the test of an ``if`` is ``end == "lower"`` or a conjunction with it."""
    conjuncts = test.values if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) else [test]
    return any(ast.unparse(c) == "end == 'lower'" for c in conjuncts)


def _stop_tests(func):
    """The calls of ``sides`` in ``func``'s loop over the chunks, and those not under ``end == "lower"``."""
    loop = _chunk_loop(func)
    guarded = {
        id(node)
        for guard in ast.walk(loop) if isinstance(guard, ast.If) and _checks_only(guard.test)
        for statement in guard.body
        for node in ast.walk(statement)
    }
    calls = [node for node in ast.walk(loop) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sides"]
    return calls, [f"line {node.lineno}: {ast.unparse(node)}" for node in calls if id(node) not in guarded]


def test_only_a_check_stops_at_the_rank_that_settles_it():
    # a check's lower end only grows with the kernel rank, so it may stop a
    # chunk once every margin is >= 0; a probe's upper end is not monotone
    # in the rank and takes every row: the stop test, the evaluator's call
    # of the caller's sides inside its one loop over the chunks, runs
    # under `end == "lower"` alone
    tree = _tree(next(p for p in SOURCES if p.name == "certify.py"))
    evaluator = dict(_functions(tree))["inequality_margins"]
    calls, unguarded = _stop_tests(evaluator)
    assert calls and not unguarded, unguarded
    # a stop test for every end, inserted into the syntax tree, is found
    _chunk_loop(evaluator).body.insert(0, ast.parse("lhs, rhs = sides(integrals[:, chunk], decayed[:, chunk])").body[0])
    assert len(_stop_tests(evaluator)[1]) == 1


def test_a_probe_takes_every_row_where_a_check_stops_at_rank_one():
    # the same states and sides, whose margin is >= 0 for every state at
    # rank 1 and not decided by the spectrum: the lower end (a check)
    # stops every chunk there, and the upper end (a probe) takes every
    # kernel row
    dom = make_grid(1, 10.0, 128, periodic=True)
    dec = diagonalize(FractionalLaplacian(s=1.0), dom)
    e = make_set(dom, PeriodicSlabs(period=1.0, fill_fraction=0.25))
    states = np.random.default_rng(3).standard_normal((1100,) + dom.shape)  # chunks of 512, 512 and 76

    def sides(integrals, decayed):
        return np.full_like(integrals, 1e-9), integrals

    ranks = {}
    for end in ("lower", "upper"):
        *_, evaluation = inequality_margins(dec, e, states, dec.eigenvalues, [(0.0, 1.0)], sides, end, "integral", [0])
        ranks[end] = (evaluation.rank_used, evaluation.kernel_rank)
    kernel_rank = ranks["upper"][1]
    assert kernel_rank >= 2 and ranks == {"lower": (1, kernel_rank), "upper": (kernel_rank, kernel_rank)}, ranks


SPECTRA = {"eigenvalues", "lams"}


def _reads_the_bottom_of_a_spectrum(node) -> bool:
    """``eigenvalues[0]``, ``lams[0]``, or a ``min`` of either."""
    def named(n):
        return getattr(n, "id", getattr(n, "attr", None)) in SPECTRA

    if isinstance(node, ast.Subscript):
        return named(node.value) and isinstance(node.slice, ast.Constant) and node.slice.value == 0
    if isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "min":
        return any(named(n) for n in node.args + [getattr(node.func, "value", None)])
    return False


def _bottom_readers(tree) -> set:
    return {name for name, func in _functions(tree) for node in ast.walk(func) if _reads_the_bottom_of_a_spectrum(node)}


def test_only_the_evaluator_bounds_a_check_by_the_spectrum():
    # a check's spectral bound, its sides at a zero integral and the decayed
    # norm e^{-hi lam_1}, is evaluated in `certify.inequality_margins` alone,
    # beside the stop rule; `certify_end_to_end` reads lam_1 only for the
    # shift delta0, and no check or probe bounds itself by lam_1
    found = {(path.name, name) for path in SOURCES if path.name in ("certify.py", "probes.py")
             for name in _bottom_readers(_tree(path))}
    assert found == {("certify.py", "inequality_margins"), ("certify.py", "certify_end_to_end")}, found
    # a weak check that decided itself by e^{-T lam_1} <= alpha is found
    tree = _tree(next(p for p in SOURCES if p.name == "certify.py"))
    check = dict(_functions(tree))["weak_observability_check"]
    check.body.insert(1, ast.parse("decided = np.exp(-cert.T * dec.eigenvalues[0]) <= cert.alpha").body[0])
    assert "weak_observability_check" in _bottom_readers(tree)


def test_probes_evaluate_the_self_similar_formula_only_at_time_zero():
    # the probe's evolution is the grid semigroup's, through the time kernel;
    # the rescaled kernel only builds the initial data, so the builder takes
    # no time, and the scale-1 kernel is transformed once for every center
    tree = _tree(next(p for p in SOURCES if p.name == "probes.py"))
    builder = dict(_functions(tree))["kernel_probe_solution"]
    assert [a.arg for a in builder.args.args] == ["kernel", "s", "centers", "l"]
    assert not (builder.args.vararg or builder.args.kwonlyargs or builder.args.kwarg)
    calls = [getattr(node.func, "id", None) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert calls.count("build_kernel") == 1
    assert calls.count("kernel_probe_solution") == 1


def test_eigh_is_called_only_in_dense_eigh():
    # every dense eigensolve (the whole operator, the Hermite factor and the
    # parity blocks) goes through `operators._dense_eigh`, which the sign
    # tests replace by a solver that scrambles column signs
    tree = _tree(next(p for p in SOURCES if p.name == "operators.py"))
    (wrapper,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_dense_eigh"
    ]
    inside = {id(node) for node in ast.walk(wrapper)}
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "eigh"
    ]
    assert calls, "operators.py calls no eigh at all"
    outside = [f"line {node.lineno}: {ast.unparse(node)}" for node in calls if id(node) not in inside]
    assert not outside, outside


@pytest.mark.parametrize("name, owners", [
    ("_dense_eigh", {"_gathered_eigh"}),
    ("_canonicalize_signs", {"_pinned_eigh", "_reflection_split_eigh"}),
    ("_gathered_eigh", {"_pinned_eigh", "_reflection_split_eigh"}),
])
def test_the_pinned_eigensolve_has_two_owners(name, owners):
    # every dense matrix is gathered, solved in place and checked by
    # `_gathered_eigh`; the full solve of the operator or the 2D Hermite
    # factor (`_pinned_eigh`) and the parity blocks (`_reflection_split_eigh`)
    # are its only callers, and no third private solver grows back
    tree = _tree(next(p for p in SOURCES if p.name == "operators.py"))
    callers = {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    }
    assert callers == owners, sorted(callers)


def test_the_finite_rank_gram_is_factored_once():
    # condition, inverse, witness and norm bound of the finite-rank law all
    # come from one `eigh` of its Gram, so no second factorization of it (a
    # condition number, an inverse, an SVD or a matrix 2-norm) grows back; the
    # one `np.linalg.norm` left is the closed loop's norm of each sample
    functions = dict(_functions(_tree(ROOT / "src" / "stabcert" / "feedback.py")))
    calls = [
        (name, node.func.attr)
        for name, func in functions.items()
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func.value) == "np.linalg"
    ]
    assert "feedback_norm_bound" not in functions
    assert not [c for c in calls if c[1] in ("cond", "inv", "pinv", "svd")], calls
    assert [a for name, a in calls if name == "build_finite_rank_feedback"] == ["eigh"], calls
    assert {name for name, a in calls if a == "norm"} == {"simulate_decay"}, calls


def _domain_comparisons(node):
    return [
        f"line {cmp.lineno}: {ast.unparse(cmp)}"
        for cmp in ast.walk(node)
        if isinstance(cmp, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in cmp.ops)
        and any(isinstance(side, ast.Attribute) and side.attr == "domain" for side in [cmp.left, *cmp.comparators])
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_domain_rule_is_written_once(path):
    # every function that takes grid inputs together calls `require_domain`,
    # so no hand-written comparison of two domains, with its own wording or
    # exception class, grows back
    tree = _tree(path)
    found = _domain_comparisons(tree)
    if path.name == "domain.py":
        helper = dict(_functions(tree))["require_domain"]
        assert len(_domain_comparisons(helper)) == 1
        found = sorted(set(found) - set(_domain_comparisons(helper)))
    assert not found, found


def _functions(tree):
    """(qualified name, node) of every top-level function and every method of a top-level class."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, ast.FunctionDef))


def test_the_cli_declares_its_commands_in_one_table():
    # help, options, outputs builder and exit test of a command are read
    # from one entry, so no second table keyed by command names grows back
    tables = [
        f"line {node.lineno}: {ast.unparse(node.targets[0])}"
        for node in _tree(ROOT / "src" / "stabcert" / "cli.py").body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value in cli.COMMANDS for k in node.value.keys)
    ]
    assert len(tables) == 1 and tables[0].endswith("_COMMANDS"), tables


def test_each_operator_kind_is_declared_once():
    # one table maps each --operator name to its spec class, the CLI's
    # choices and the spec document's kind among its readers, so no second
    # vocabulary (a "fractional" kind) grows back; condition II is checked
    # by the spec, so the dense solve reads no condition
    classes = {"FractionalLaplacian", "ShiftedHermite", "Schrodinger"}
    tables = [
        f"{path.name} line {node.lineno}"
        for path in SOURCES for node in ast.walk(_tree(path))
        if isinstance(node, ast.Dict) and any(isinstance(name, ast.Name) and name.id in classes
                                              for item in node.keys + node.values if item is not None
                                              for name in ast.walk(item))
    ]
    assert len(tables) == 1 and tables[0].startswith("operators.py"), tables
    assert cli.OPERATOR_KINDS is operators.OPERATOR_KINDS
    assert list(operators.OPERATOR_KINDS) == ["frac", "hermite", "schrodinger"]
    assert operators.spec_to_json(FractionalLaplacian())["kind"] == "frac"
    kinds = [f"{path.name} line {node.lineno}" for path in SOURCES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Constant) and node.value == "fractional"]
    assert not kinds, kinds
    solve = dict(_functions(_tree(ROOT / "src" / "stabcert" / "operators.py")))["_diagonalize_dense"]
    reads = [node.lineno for node in ast.walk(solve) if isinstance(node, ast.Attribute) and node.attr == "condition"]
    assert not reads, reads


@pytest.mark.parametrize("name", ["spec_to_json", "spec_hash"])
def test_the_spec_document_has_no_type_branch(name):
    # every spec kind reaches one document, so `spec_hash` hashes exactly
    # what `spec_to_json` returns
    func = dict(_functions(_tree(ROOT / "src" / "stabcert" / "operators.py")))[name]
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(func)
        if isinstance(node, (ast.If, ast.IfExp))
        or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance")
    ]
    assert not found, found


def test_real_ffts_are_called_only_in_the_fourier_pass():
    # the real FFTs of a stack of real Fourier states, forward and inverse,
    # belong to the Fourier basis's pass of `_weighted_passes`, so no second
    # pass over the states grows back elsewhere
    found = {
        (path.name, name)
        for path in SOURCES
        for name, func in _functions(_tree(path))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("rfftn", "irfftn")
    }
    assert found == {("operators.py", "_FourierBasis.passes")}, sorted(found)


BASIS_CLASSES = {"_Basis", "_FourierBasis", "_DenseBasis", "_ParityBasis", "_KroneckerBasis"}
LAYOUT_ARRAYS = {"vectors", "parity_blocks", "tensor_factor", "symbol"}


def test_pass_rows_are_native_before_they_reach_a_basis():
    # `_weighted_passes` puts every weight and decay row in native order once
    # per call, so no basis `passes` method takes `order` and no chunk is
    # gathered back to ascending order: `_ascending` serves `to_coefficients` alone
    functions = dict(_functions(_tree(next(p for p in SOURCES if p.name == "operators.py"))))
    with_order = [
        name for name, func in functions.items()
        if name.split(".")[0] in BASIS_CLASSES and name.endswith(".passes")
        and "order" in {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
    ]
    gathers = {
        name for name, func in functions.items()
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_ascending"
    }
    assert not with_order, with_order
    assert gathers == {"to_coefficients"}, sorted(gathers)


def test_every_layout_carries_its_order():
    # `order` is a permutation in every layout, the identity where native is
    # ascending, so no function in `operators` tests it against None and no
    # basis class says whether it keeps one: the identity path cannot grow back
    functions = _functions(_tree(next(p for p in SOURCES if p.name == "operators.py")))
    found = [
        f"{name}, line {node.lineno}: {ast.unparse(node)}"
        for name, func in functions
        for node in ast.walk(func)
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Constant) and n.value is None for n in (node.left, *node.comparators))
        and "order" in {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node)}
    ]
    assert not found, found
    layouts = [operators._Basis, *operators._Basis.__subclasses__()]
    assert {cls.__name__ for cls in layouts} == BASIS_CLASSES
    assert not [cls.__name__ for cls in layouts if hasattr(cls, "ordered")]


def _tells_layouts_apart(node):
    # reads a layout's array, compares `basis_kind` or a basis class, or asks isinstance of one
    names = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node)}
    return ((isinstance(node, ast.Attribute) and node.attr in LAYOUT_ARRAYS)
            or (isinstance(node, ast.Compare) and names & (BASIS_CLASSES | {"basis_kind"}))
            or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and names & BASIS_CLASSES))


def test_only_the_basis_classes_and_layout_tell_layouts_apart():
    # each basis class owns its layout's array and `_layout` picks one, so no
    # other code in `operators` branches on a layout: a new layout is one class
    tree = _tree(next(p for p in SOURCES if p.name == "operators.py"))
    classes = {top.name: top for top in tree.body if isinstance(top, ast.ClassDef)}
    assert set(classes) >= BASIS_CLASSES
    assert all(isinstance(base, ast.Name) and base.id in BASIS_CLASSES
               for name in BASIS_CLASSES - {"_Basis"} for base in classes[name].bases)
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for top in tree.body if getattr(top, "name", None) not in BASIS_CLASSES | {"_layout"}
        for node in ast.walk(top)
        if _tells_layouts_apart(node)
    ]
    assert not found, found


def _scipy_imports(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
            found += [f"{node.module}.{alias.name}" for alias in node.names]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_is_imported_only_for_the_dense_eigensolver(path):
    # numpy does the FFTs, exprel, the circulant and the interpolation; the
    # dense eigensolver stays scipy's, whose results the references pin
    expected = ["scipy.linalg"] if path.name == "operators.py" else []
    assert _scipy_imports(_tree(path)) == expected


def test_cli_import_loads_no_other_scipy_subpackage():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, stabcert.cli; print(' '.join(sorted(sys.modules)))"
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True, timeout=120).stdout.split())
    assert "scipy.linalg" in loaded
    heavy = {"scipy.fft", "scipy.special", "scipy.interpolate", "scipy.optimize"}
    assert not heavy & loaded, sorted(heavy & loaded)


def _creates_or_renames(node):
    # a reference to tempfile.mkstemp or os.replace, as an attribute, a name or an import
    if isinstance(node, ast.Attribute):
        return node.attr == "mkstemp" or (node.attr == "replace" and getattr(node.value, "id", None) == "os")
    if isinstance(node, ast.ImportFrom):
        return any((node.module, alias.name) in (("tempfile", "mkstemp"), ("os", "replace"))
                   for alias in node.names)
    return isinstance(node, ast.Name) and node.id == "mkstemp"


def test_only_atomic_write_creates_and_renames_files():
    # the temp-file-and-rename write has one owner, so every document, side
    # file, grid function and cache file is replaced whole or not at all
    found = {
        (path.name, getattr(top, "name", "module level"))
        for path in SOURCES
        for top in _tree(path).body
        for node in ast.walk(top)
        if _creates_or_renames(node)
    }
    assert found == {("domain.py", "atomic_write")}, sorted(found)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"] + TESTS,
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)
    assert not unused, unused


def _public_names(node):
    """Public names a top-level statement defines: a function, a class or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _references(tree, strings=False):
    """Names and attributes used in ``tree``, and its string constants if asked."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _public_methods(node):
    """Public methods and properties of a top-level class."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [f for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def test_every_public_name_is_reached_outside_the_tests():
    # perfbench counts its string constants too: the tracer wraps by name; a
    # public method or property is reached in src/ by an attribute of its
    # name outside its own definition
    readme = (ROOT / "README.md").read_text()
    outside = set().union(
        *(_references(_tree(path)) for path in (ROOT / "scripts").glob("*.py")),
        *(_references(_tree(path), strings=True) for path in (ROOT / "perfbench").glob("*.py")),
        *(re.findall(r"\w+", span) for span in re.findall(r"`+([^`]+)`+", readme)),
    )
    statements = [(path.name, node, _references(node)) for path in SOURCES for node in _tree(path).body]
    unreached = [
        f"{name}: {public}"
        for name, node, _ in statements
        for public in _public_names(node)
        if public not in outside and not any(public in refs for _, other, refs in statements if other is not node)
    ]
    attributes = [a for _, node, _ in statements for a in ast.walk(node) if isinstance(a, ast.Attribute)]
    for name, node, _ in statements:
        for method in _public_methods(node):
            own = {id(a) for a in ast.walk(method)}
            if method.name not in outside and not any(
                    a.attr == method.name and id(a) not in own for a in attributes):
                unreached.append(f"{name}: {node.name}.{method.name}")
    assert not unreached, unreached


def test_the_benchmark_tracer_still_finds_what_it_wraps(tmp_path):
    # perfbench/tracer.py wraps functions by module attribute name and reads
    # `basis_kind` and `spec_to_json`; a rename there would crash a traced
    # benchmark run, so it fails here instead.  Every cached dense call
    # counts the bytes of its cache file, which the tracer finds by the key
    # of `spec_to_json`: a Schrodinger file too.  A fractional falsification
    # over three centers builds its probe data in one call
    root = pathlib.Path(__file__).parent.parent
    code = (
        "import json, tracer\n"
        "from stabcert import domain, geometry, operators, probes\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "dom = domain.make_grid(2, 6.0, 12, periodic=False)\n"
        "pot = domain.from_callable(domain.make_grid(1, 10.0, 64, periodic=False), lambda x: x**2 - 4.0)\n"
        "for _ in range(2):\n"
        f"    operators.diagonalize(operators.ShiftedHermite(), dom, cache_dir={str(tmp_path)!r})\n"
        f"    operators.diagonalize(operators.Schrodinger(pot), pot.domain, cache_dir={str(tmp_path)!r})\n"
        "dom = domain.make_grid(1, 10.0, 256, periodic=True)\n"
        "dec = operators.diagonalize(operators.FractionalLaplacian(s=1.0), dom)\n"
        "claim = probes.ObservationClaim(C=1.0, T=1.0, alpha=0.0)\n"
        "probes.falsify_weak_observability(dec, geometry.make_set(dom, geometry.Full()), claim,\n"
        "                                  [(0.0,), (2.5,), (-5.0,)])\n"
        "print(json.dumps(t.totals()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "perfbench"), str(root / "src")]))
    totals = json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                       text=True, check=True, timeout=120).stdout)
    assert totals["operators.diagonalize.calls"] == 5
    assert totals["operators.diagonalize.cache_hits"] == 2
    sizes = [path.stat().st_size for path in tmp_path.iterdir()]
    assert len(sizes) == 2 and min(sizes) > 0
    assert totals["operators.diagonalize.cache_bytes"] == 2 * sum(sizes)
    assert totals["probes.falsify_weak_observability.calls"] == 1
    assert totals["probes.kernel_probe_solution.calls"] == 1
