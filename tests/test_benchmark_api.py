"""The benchmark under perfbench/ drives the package through its Python API.

A full benchmark run is too slow for this suite, so these checks read the
benchmark's source instead: every odmrsim name it reaches must still
resolve, and every call must still bind to the callee's signature.
Deleting or renaming public API the benchmark uses fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(BENCH.glob("*.py"))


def _trees(path):
    """The module's syntax tree plus those of code it runs from strings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    trees = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "import odmrsim" not in node.value:
                continue
            try:
                trees.append(ast.parse(node.value))
            except SyntaxError:  # prose, such as a docstring
                pass
    return trees


def _bindings(tree):
    """Local names that import statements bind to odmrsim objects."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "odmrsim":
                    continue
                if alias.asname:
                    names[alias.asname] = importlib.import_module(alias.name)
                else:
                    importlib.import_module(alias.name)
                    names["odmrsim"] = importlib.import_module("odmrsim")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] != "odmrsim":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _chain(node):
    """('odmrsim', 'io_formats', 'format_float') for odmrsim.io_formats.format_float."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return (node.id, *reversed(parts))
    return None


def _resolve(chain, names):
    obj = names[chain[0]]
    for i, attr in enumerate(chain[1:], start=2):
        assert hasattr(obj, attr), f"{'.'.join(chain[:i])} does not resolve"
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_benchmark_api_resolves(path):
    for tree in _trees(path):
        names = _bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain = _chain(node)
                if chain and chain[0] in names:
                    _resolve(chain, names)
            if not isinstance(node, ast.Call):
                continue
            chain = _chain(node.func)
            if not chain or chain[0] not in names:
                continue
            unpacked = any(isinstance(a, ast.Starred) for a in node.args)
            if unpacked or any(k.arg is None for k in node.keywords):
                continue
            # bind_partial raises TypeError for a removed keyword or too
            # many positional arguments.
            inspect.signature(_resolve(chain, names)).bind_partial(
                *node.args, **{k.arg: k.value for k in node.keywords}
            )


def test_benchmark_trace_sites_resolve():
    from odmrsim import signal_chain

    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    sites = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "SIGNAL_CHAIN_SITES" for t in node.targets)
    ]
    assert len(sites) == 1 and sites[0]
    for name in sites[0]:
        assert inspect.isfunction(getattr(signal_chain, name, None)), name


def _reads_arguments(node):
    """True for b[...] and bound(...)[...], the probes' bound arguments."""
    if isinstance(node, ast.Name):
        return node.id == "b"
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bound"


def test_benchmark_probe_keys_name_parameters():
    # The tracer's probes read call arguments by parameter name only in the
    # traced pass, so a renamed parameter would pass every other check.
    from odmrsim import cli, signal_chain

    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    probe = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_probe"
    )
    keys = 0
    for branch in ast.walk(probe):
        test = getattr(branch, "test", None)
        if not isinstance(test, ast.Compare) or not isinstance(test.ops[0], ast.Eq):
            continue
        name = ast.literal_eval(test.comparators[0])
        fn = getattr(cli, name, None) or getattr(signal_chain, name)
        params = inspect.signature(fn).parameters
        for node in (n for stmt in branch.body for n in ast.walk(stmt)):
            if isinstance(node, ast.Subscript) and _reads_arguments(node.value):
                key = ast.literal_eval(node.slice)
                assert key in params, f"{name} has no parameter {key!r}"
                keys += 1
    assert keys
