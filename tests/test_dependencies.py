"""numpy is poco's only runtime dependency, every module reads each name
it imports, something reads each module-level definition, importing the
package loads neither scipy nor logging, a check-bounds run loads no
numpy.ma, and the config layer loads no study code.

Guards: static scans of every import statement and module-level definition
under ``src/poco``, and fresh interpreters that import part of the package
and then list what got loaded.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _imported_top_levels(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_numpy_is_the_only_third_party_import():
    files = sorted((SRC / "poco").glob("*.py"))
    assert files
    third_party = {}
    for path in files:
        for name in _imported_top_levels(path):
            if name != "poco" and name not in sys.stdlib_module_names:
                third_party.setdefault(name, []).append(path.name)
    assert set(third_party) == {"numpy"}, third_party


def _unread_imports(path: Path) -> list:
    """The names that ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_every_imported_name_is_read():
    # the package re-exports its names, so __init__.py is not scanned
    files = [path for path in sorted((SRC / "poco").glob("*.py")) if path.name != "__init__.py"]
    assert files
    unread = {path.name: _unread_imports(path) for path in files}
    assert {name: names for name, names in unread.items() if names} == {}


def _module_definitions(path: Path) -> list:
    """The functions, classes and assigned names at the top level of ``path``."""
    names = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _loaded_names(path: Path) -> set:
    """Every name ``path`` reads, as a variable or an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _traced_definitions() -> set:
    """(module, top-level name) of every function ``benchmark/spans.py`` traces."""
    spec = importlib.util.spec_from_file_location("_bench_spans", ROOT / "benchmark" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {
        (module, qualname.split(".")[0])
        for targets in spans.LAYERS.values()
        for module, qualname in (target.split(":") for target in targets)
    }


def test_every_module_definition_is_read():
    # a definition counts as read when some module of the package (other than
    # the re-exporting __init__.py) or of the benchmark loads its name, when
    # the package exports it, or when the benchmark traces it
    import poco

    modules = [path for path in sorted((SRC / "poco").glob("*.py")) if path.name != "__init__.py"]
    readers = modules + sorted((ROOT / "benchmark").glob("*.py"))
    assert modules and len(readers) > len(modules)
    loaded = set().union(*(_loaded_names(path) for path in readers))
    traced = _traced_definitions()
    unread = [
        f"{path.stem}.{name}"
        for path in modules
        for name in _module_definitions(path)
        if name not in loaded and name not in poco.__all__
        and (f"poco.{path.stem}", name) not in traced
    ]
    assert unread == []


def _loaded_after(statement: str, modules: tuple) -> str:
    """Which of ``modules`` a fresh interpreter has loaded after running
    ``statement``, as a printed sorted list."""
    code = (
        "import sys\n"
        f"{statement}\n"
        f"print(sorted(set(sys.modules) & set({modules!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return proc.stdout.strip()


def test_importing_poco_loads_no_scipy():
    assert _loaded_after("import poco, poco.cli", ("scipy",)) == "[]"


def test_importing_poco_loads_no_logging():
    # the CLI's import time is a benchmark metric; logging costs milliseconds of it
    assert _loaded_after("import poco, poco.cli", ("logging",)) == "[]"


def test_check_bounds_loads_no_numpy_ma(tmp_path):
    # numpy.ma (np.median imports it) adds about a megabyte to the peak memory
    # of a check-bounds run, a benchmark metric
    argv = ["check-bounds", "--runs", "1", "--expert-runs", "1", "--out", str(tmp_path), "--quiet"]
    statement = f"from poco.cli import main\nmain({argv!r})"
    assert _loaded_after(statement, ("numpy.ma",)) == "[]"


def test_config_imports_no_study_code():
    studies = ("poco.experiments", "poco.scenarios")
    assert _loaded_after("import poco.config", studies) == "[]"
