"""Guards for the repository's tooling outside ``src/``."""

import argparse
import ast
import importlib.util
import re
import sys
from pathlib import Path

from gradedlie import cli
from gradedlie.algebra import GradedAlgebra

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
SRC = ROOT / "src" / "gradedlie"


def test_trace_targets_resolve(monkeypatch):
    # bench/run.py --trace 1 wraps each target by attribute lookup, so a
    # removed or renamed entry point must fail here rather than there.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses need it
    spec.loader.exec_module(tracing)
    for owner, attr, _name in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)


def _children(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _leaves(parser, path=()):
    children = _children(parser)
    if not children:
        yield path, parser
    for name, child in children.items():
        yield from _leaves(child, path + (name,))


def _options(parser):
    return {
        action.dest: set(action.option_strings)
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def test_readme_cli_matches_parser():
    # each usage line in README's CLI block names exactly the options its
    # (sub)parser accepts, and every (sub)parser has a line
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
    leaves = dict(_leaves(cli._build_parser()))
    documented = set()
    for line in block.splitlines():
        words = line.split()
        assert words[0] == "gradedlie", line
        (path,) = [p for p in leaves if tuple(words[1:1 + len(p)]) == p]
        documented.add(path)
        named = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", line))
        accepted = _options(leaves[path])
        assert {
            dest for dest, strings in accepted.items() if strings & named
        } == set(accepted), line
        assert named <= set().union(*accepted.values()), line
    assert documented == set(leaves)


def test_readme_library_tour_runs():
    # README's python block runs as written, and every GradedAlgebra method
    # its prose lists exists
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library quick tour\n", 1)[1]
    exec(tour.split("```python\n", 1)[1].split("```\n", 1)[0], {})
    (listed,) = re.findall(r"`GradedAlgebra` methods\s*\(([^)]*)\)", tour)
    methods = re.findall(r"`(\w+)`", listed)
    assert methods
    for name in methods:
        assert callable(getattr(GradedAlgebra, name, None)), name


def test_src_has_no_unused_imports():
    # every name a module imports is used there, so a deletion cannot leave
    # a dead import behind
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used - {"annotations"} == set(), path.name
