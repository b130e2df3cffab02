"""Guards for the repository's tooling and documentation around ``src/``."""

import argparse
import ast
import importlib.util
import re
import sys
from collections import Counter
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


def test_readme_dotted_names_resolve():
    # every backticked `<module>.<name>` in README names a live attribute,
    # so renaming or removing one cannot leave the prose behind
    readme = (ROOT / "README.md").read_text()
    names = re.findall(r"`(algebra|builders|cli|derivations|linalg)\.(\w+)`", readme)
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"gradedlie.{module}"), name), name


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


def _public_defs(tree):
    """Each public module-level function, and each method of a public class,
    as (qualified name, def node)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(node, aliases):
    """Every name that ``node`` reads, bare or as an attribute, with an
    ``import ... as`` alias read as the name it stands for."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield aliases.get(sub.id, sub.id)
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_name_has_a_caller():
    # Each public function and method in src/ is read somewhere in src/
    # outside its own body, is the console script, or is named in README's
    # code.  __init__.py only re-exports, so its imports call nothing.
    # Names are matched as bare strings: a method that shares its name with
    # a method of a builtin type (a dict's get, a bytes' decode) counts as
    # called wherever that one is, so such a method can slip through.
    readme = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    named = set(re.findall(r"\w+", " ".join(code)))
    pyproject = (ROOT / "pyproject.toml").read_text()
    named.update(re.findall(r'= "gradedlie\.\w+:(\w+)"', pyproject))
    trees = {
        p.name: ast.parse(p.read_text())
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    aliases = {
        module: {
            a.asname: a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names
            if a.asname
        }
        for module, tree in trees.items()
    }
    reads = Counter()
    for module, tree in trees.items():
        reads.update(_references(tree, aliases[module]))
    uncalled = []
    for module, tree in trees.items():
        for qualname, node in _public_defs(tree):
            own = Counter(_references(node, aliases[module]))[node.name]
            if reads[node.name] == own and node.name not in named:
                uncalled.append(f"{module}: {qualname}")
    assert uncalled == []


# Dunders that src/ needs: construction, dataclass checks, len() of an
# index and a readable repr.  Any other one, such as an __eq__ that only
# tests call, is behaviour the public-name test above cannot see.
_NEEDED_DUNDERS = {"__init__", "__post_init__", "__len__", "__repr__"}


def test_no_dunder_beyond_the_needed_ones():
    # every hand-written dunder method in src/ is one src/ needs, or README
    # names it
    readme = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    allowed = _NEEDED_DUNDERS | set(re.findall(r"\w+", " ".join(code)))
    extra = [
        f"{path.name}: {node.name}.{item.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and item.name.startswith("__") and item.name.endswith("__")
        and item.name not in allowed
    ]
    assert extra == []
