"""Checks on the files around the package: the benchmark's layer names, the
demos, the README's command examples, that the package defines nothing
that no code names, and which of its functions no command enters."""

import ast
import functools
import hashlib
import importlib
import json
import re
import runpy
import shlex
import sys
from pathlib import Path

import pytest
from test_route_independence import _called

from cyclic_wonderful.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _layer_targets():
    """The ``<module>.<qualname>`` each non-``trace.`` per-layer metric names."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = (m["name"] for m in metrics if not m["name"].startswith("trace."))
    return sorted({name.rsplit(".", 1)[0] for name in names})


@pytest.mark.parametrize("target", _layer_targets())
def test_benchmark_layer_names_resolve(target):
    # a traced benchmark pass wraps these by name; a rename must not pass silently
    module_name, qualname = target.split(".", 1)
    obj = importlib.import_module(f"cyclic_wonderful.{module_name}")
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    assert callable(obj) or isinstance(obj, functools.cached_property), target


# every demo is deterministic: its stdout is pinned byte for byte, so a
# change that moves any line the demos print fails here
DEMO_STDOUT_SHA256 = {
    "chow_walkthrough.py": "3c7932e725cac6fdd6fb6dd0483222f9fc44a2fdf048db8e23e8400dc596c1b3",
    "fan_walkthrough.py": "e3c805d7d413063611c01d102dd23083cd1a199e4f30db73b820c6c419ce57dc",
    "normal_complex_walkthrough.py": "4dc9f887f5ff65cc1b64869f331aa8ae9b34748d66bd56f25f980abe4ad7be0f",
    "tropical_walkthrough.py": "20823f19b79f39ede64e0bd50900e6b6235090cffa88921032b913cd7d68bebf",
}


@pytest.mark.parametrize(
    "path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_STDOUT_SHA256[path.name]


def _readme_commands():
    """Each line of the README's "Command line" ``sh`` block as argv lists:
    without its bracketed options, and with them when it has any."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        variants = {re.sub(r"\s*\[[^]]*\]", "", line), re.sub(r"[][]", "", line)}
        for variant in sorted(variants):
            prog, *argv = shlex.split(variant)
            assert prog == "cyclic-wonderful", line
            commands.append(argv)
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, capsys, monkeypatch):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()


def _definitions(tree, prefix=""):
    """``(qualified name, name)`` of every function, class and method under
    ``tree``, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}{node.name}", node.name
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def _names_used(tree):
    """Every name that code under ``tree`` reads, calls or imports: a bare
    name, an attribute or an imported name, but no comment or string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_package_definition_is_named_by_code():
    # a dunder runs through the language's protocols, so no code has to name it
    used = set()
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            used.update(_names_used(ast.parse(path.read_text())))
    unnamed = [
        f"{path.stem}.{qualname}"
        for path in sorted((ROOT / "src" / "cyclic_wonderful").glob("*.py"))
        for qualname, name in _definitions(ast.parse(path.read_text()))
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unnamed == []


def _dotted_references(text):
    """Each backquoted ``module.name`` in ``text`` whose first part is a
    package module (or the package), file names such as ``lattice.py``
    left out."""
    heads = {path.stem for path in (ROOT / "src" / "cyclic_wonderful").glob("*.py")}
    heads.add("cyclic_wonderful")
    refs = re.findall(r"`+([A-Za-z_]\w*(?:\.\w+)+)`+", text)
    return {ref for ref in refs if ref.split(".")[0] in heads and not ref.endswith(".py")}


def _resolves(ref):
    parts = ref.split(".")
    if parts[0] != "cyclic_wonderful":
        parts.insert(0, "cyclic_wonderful")
    try:
        obj = importlib.import_module(".".join(parts[:2]))
        for attr in parts[2:]:
            obj = getattr(obj, attr)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_dotted_reference_in_the_docs_resolves():
    # a deleted or renamed function must not live on in a docstring or the README
    src = set()
    for path in (ROOT / "src" / "cyclic_wonderful").glob("*.py"):
        src |= _dotted_references(path.read_text())
    readme = _dotted_references((ROOT / "README.md").read_text())
    assert src and readme
    assert sorted(ref for ref in src | readme if not _resolves(ref)) == []


def _commands(out_dir):
    """The ``cli.main`` calls that stand for every command path: each command
    and option in text and JSON, and ``check``, at five specs; ``locate`` by
    point and by curve; a refused ``check``; and one ``--out`` file in
    ``out_dir``."""
    commands = []
    for r, n in [(2, 0), (2, 1), (2, 2), (3, 2), (2, 3)]:
        spec = ["--r", str(r), "--n", str(n)]
        for command in (
            ["fan"],
            ["fan", "--via-stellar"],
            ["chow"],
            ["chow", "--betti-only"],
            ["normal-complex"],
            ["normal-complex", "--union-extremes"],
        ):
            commands += [[*command, *spec, "--format", f] for f in ("text", "json")]
        commands.append(["check", *spec])
    for target in (["--point", "0,3,0,1"], ["--curve", "1:0:2,2:2:1"]):
        commands += [["locate", "--r", "3", "--n", "2", *target, "--format", f] for f in ("text", "json")]
    out = ["fan", "--r", "2", "--n", "1", "--out", str(out_dir / "fan.txt")]
    return [*commands, ["check", "--r", "60", "--n", "3"], out]


# every package function that no command enters, and why it stays: the
# benchmark names it, a demo prints it, the tests use it as a reference, or
# an open ROADMAP item decides it
UNREACHED = {
    "cli.run": "tests: a command's status and text, written on main's one path",
    "fan.Cone.coefficients": "benchmark: a per-layer metric (ROADMAP item 7)",
    "fan.Fan._cone_index": "benchmark: the query workload's cone scan (locate_point) builds it",
    "fan.fans_equal": "demo: fan_walkthrough compares the two routes with it",
    "fan.locate_point": "benchmark: a per-layer metric, and the query workload's cone scan",
    "lattice.Chain.decoration": "tests: part of Chain.sort_key",
    "lattice.Chain.empty": "ROADMAP item 7: parse_chain's empty chain, in fan_from_dict's round trip",
    "lattice.Chain.of": "tests: the tests write their chains with it",
    "lattice.Chain.sets": "demo: render_pinwheel reads each level's orbits from it",
    "lattice.Chain.sort_key": "tests: the one chain order, which the enumerators yield with no sort",
    "lattice.DecoratedSubset.indices": "demo: Chain.sets, which render_pinwheel reads",
    "lattice.DecoratedSubset.of": "ROADMAP item 7: parse_subset builds its subset with it",
    "lattice.chain_intersect": "tests: the meet a ∧ b of the intersection law",
    "lattice.is_nested": "benchmark: a per-layer metric (ROADMAP item 7)",
    "lattice.parse_chain": "ROADMAP item 7: fan_from_dict's JSON round trip",
    "lattice.parse_subset": "ROADMAP item 7: fan_from_dict's JSON round trip",
    "linalg._rref": "tests: the rank and nullspace references, and solve_columns",
    "linalg.SharedRowIndex.first": "benchmark: the query workload's cone scan (locate_point) runs it",
    "linalg.in_convex_hull": "benchmark: a per-layer metric (ROADMAP item 7)",
    "linalg.solve_columns": "benchmark: a per-layer metric (ROADMAP item 7)",
    "normal_complex.NormalComplex._cell_index": "demo: NormalComplex.contains scans it",
    "normal_complex.NormalComplex.contains": "demo: normal_complex_walkthrough locates points with it",
    "normal_complex.Polytope.h_rep": "tests: the dense rows of the cell and JSON references",
    "normal_complex.in_delta": "benchmark: a per-layer metric, and the normal complex demo prints it",
    "normal_complex.z_vector": "ROADMAP item 3: the degree of D(z)^n reads it",
    "serialize.fan_from_dict": "ROADMAP item 7: a documented JSON round trip",
    "serialize.fan_to_dict": "benchmark: a per-layer metric, and the tests' reference for fan JSON",
    "tropical.TropicalCurve.of": "benchmark: the query workload builds its curves with it",
    "tropical.render_pinwheel": "demo: tropical_walkthrough prints it",
}


def _functions(tree, prefix=""):
    """The qualified name of every function and method under ``tree``, but
    not a function nested in a function, which counts as part of it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}"
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_the_functions_no_command_enters_are_the_allow_listed_ones(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    paths = sorted((ROOT / "src" / "cyclic_wonderful").glob("*.py"))
    # no cached result may stand in for a call
    for path in paths:
        if path.stem != "__main__":
            for obj in vars(importlib.import_module(f"cyclic_wonderful.{path.stem}")).values():
                if hasattr(obj, "cache_clear") and obj.__module__.startswith("cyclic_wonderful"):
                    obj.cache_clear()
    entered = _called(lambda: [main(argv) for argv in _commands(tmp_path)])
    assert capsys.readouterr().out
    defined = {f"{path.stem}.{name}" for path in paths for name in _functions(ast.parse(path.read_text()))}
    # a dunder runs through the language's protocols
    unreached = {name for name in defined - entered if not name.rpartition(".")[2].startswith("__")}
    assert sorted(unreached) == sorted(UNREACHED)
    kinds = {reason.split(":")[0] for reason in UNREACHED.values()}
    assert kinds <= {"benchmark", "demo", "tests", "ROADMAP item 3", "ROADMAP item 7"}
    layers = set(_layer_targets())
    assert all(name in layers for name, reason in UNREACHED.items() if reason.startswith("benchmark: a per-layer"))
