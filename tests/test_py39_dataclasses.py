"""No ``dataclass(...)`` call under ``src/`` uses a Python 3.10+ keyword.

``pyproject.toml`` declares ``requires-python >=3.9``, where
``dataclass()`` rejects ``slots``, ``kw_only`` and ``match_args`` with a
``TypeError`` at import time. A class that needs ``__slots__`` declares
them itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PY310_KEYWORDS = {"slots", "kw_only", "match_args"}


def _dataclass_calls(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "dataclass":
            yield node


def test_no_py310_dataclass_keywords():
    offenders = []
    files = sorted(SRC.rglob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for call in _dataclass_calls(tree):
            for keyword in call.keywords:
                if keyword.arg in PY310_KEYWORDS:
                    offenders.append(
                        f"{path.relative_to(SRC)}:{call.lineno}: {keyword.arg}="
                    )
    assert offenders == []


def test_detects_a_py310_keyword():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(slots=True)\nclass A: pass\n"
        "@dataclasses.dataclass(frozen=True, kw_only=True)\nclass B: pass\n"
    )
    found = [
        keyword.arg
        for call in _dataclass_calls(tree)
        for keyword in call.keywords
        if keyword.arg in PY310_KEYWORDS
    ]
    assert found == ["slots", "kw_only"]
