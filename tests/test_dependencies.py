"""numpy is poco's only runtime dependency.

Two guards: a static scan of every import statement under ``src/poco``,
and a fresh interpreter that imports the package and its CLI and then
lists what got loaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_importing_poco_loads_no_scipy():
    code = (
        "import sys\n"
        "import poco, poco.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
