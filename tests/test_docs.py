"""The README's examples stay runnable as the code changes."""

import json
import re
from pathlib import Path

from poco.config import resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"


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
