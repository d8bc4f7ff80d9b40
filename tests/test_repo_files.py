"""Checks on the files around the package: the benchmark's layer names, the
demos, the README's command examples, and that the package defines nothing
that no code names."""

import ast
import functools
import hashlib
import importlib
import json
import re
import runpy
import shlex
from pathlib import Path

import pytest

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
