"""Structural rules of the package source, checked on its syntax tree.

No module imports another module's private names, no module keeps an
unbounded module-global cache (a name bound to an empty dict or list at
module level), and only `operators` reads the basis layout of a spectral
decomposition or counts eigenvalues below a threshold itself; every other
module goes through `spectral_count`, `spectral_apply` and the coefficient
transforms. `specineq`, `certify` and `probes` never sample eigenfunctions
with `basis_block`: the restricted Gram is built by `operators`, and
`certify` and `probes` never build one at all (their observation integrals
go through `operators.restricted_norms`), and `probes` takes its decayed
norms from the observation bracket, not from `to_coefficients`. In `operators`,
`scipy.linalg.eigh` is called only inside `_dense_eigh`.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "stabcert").glob("*.py"))


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


DECOMPOSITION_LAYOUT = {"basis_kind", "vectors", "parity_blocks", "symbol", "order"}


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
    # (`certify.observation_bracket`), from one batched coefficient transform
    found = _names(_tree(next(p for p in SOURCES if p.name == "probes.py")), "to_coefficients")
    assert not found, found


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
