"""The README's examples stay runnable as the code changes, and the
docstrings' cross-references name things that exist."""

import argparse
import ast
import importlib
import json
import re
from pathlib import Path

import pytest

from poco.cli import build_parser
from poco.config import EXPERIMENTS, KINDS, resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "poco").glob("*.py"))
XREF = re.compile(r":(func|class|meth|mod):`~?([\w.]+)`")


def test_config_files_example_resolves():
    # a key deleted from the schema must leave the documented example too
    section = README.read_text().split("## Config files", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    example = json.loads(blocks[0])
    cfg = resolve_config(example, "exp1")
    for name, value in example.items():
        if isinstance(value, dict):
            assert {k: cfg[name][k] for k in value} == value
        else:
            assert cfg[name] == value


def _dotted(departures: dict) -> dict:
    """``{"scenario": {"dwell": v}}`` as ``{"scenario.dwell": v}``."""
    flat = {}
    for key, value in departures.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{sub}": v for sub, v in value.items()})
        else:
            flat[key] = value
    return flat


def test_config_files_table_matches_the_experiments():
    # an experiment's sections or departures change in the docs with the code
    section = README.read_text().split("## Config files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \| (.*?) \|$", section, flags=re.MULTILINE)
    documented = {
        name: (
            tuple(re.findall(r"`(\w+)`", sections)),
            {key: json.loads(value) for key, value in re.findall(r"`([\w.]+)`: `(.*?)`", departs)},
        )
        for name, sections, departs in rows
    }
    assert documented == {
        name: (sections, _dotted(departures))
        for name, (sections, departures) in EXPERIMENTS.items()
    }


def test_config_files_kinds_table_matches_the_kinds():
    # a key a kind gains or loses changes in the docs with the code
    section = README.read_text().split("## Config files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` (\w+) \| (.*?) \|$", section, flags=re.MULTILINE)
    documented = {(sec, kind): tuple(re.findall(r"`(\w+)`", keys)) for kind, sec, keys in rows}
    assert documented == {
        (sec, kind): held for sec, kinds in KINDS.items() for kind, held in kinds.items()
    }


def test_command_line_synopsis_matches_the_parser():
    # a flag added to or deleted from a command changes in the synopsis too;
    # a "..." line repeats the flags of the line above, a line that does not
    # start with "poco" continues the command above, and a command's lines
    # combine
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, flags=re.DOTALL).group(1)
    documented, command, flags = {}, None, set()
    for line in block.splitlines():
        words = line.split()
        if words[0] == "poco":
            command, rest = words[1], " ".join(words[2:])
            if rest != "...":
                flags = set()
        else:
            rest = line
        flags = flags | set(re.findall(r"--[\w-]+", rest))
        documented[command] = documented.get(command, set()) | flags
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parsed = {
        name: {opt for action in sub._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == parsed


def _lookup(obj, dotted: str) -> bool:
    for attr in filter(None, dotted.split(".")):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _resolves(module, target: str) -> bool:
    """A target relative to ``module``, a dotted path from a package
    (``poco.smad.ExpertPool.step``), or a method of a class of ``module``."""
    if _lookup(module, target):
        return True
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            top = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _lookup(top, ".".join(parts[cut:]))
    return any(
        isinstance(obj, type) and obj.__module__ == module.__name__ and hasattr(obj, target)
        for obj in vars(module).values()
    )


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_docstring_cross_references_resolve(source):
    # a deleted or renamed function must leave no reference behind
    module = importlib.import_module(f"poco.{source.stem}".removesuffix(".__init__"))
    nodes = [ast.parse(source.read_text())]
    nodes += [
        node for node in ast.walk(nodes[0])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    stale = [
        f"{kind}:{target}"
        for node in nodes
        for kind, target in XREF.findall(ast.get_docstring(node) or "")
        if not _resolves(module, target)
    ]
    assert stale == []
