"""The repo's import checker (``tools/check_imports.py``).

CI's Lint step runs the checker over ``src tests benchmarks examples
tools``. Besides unused imports it rejects a library module (any file
under a ``src`` directory) that imports ``tests`` or ``hypothesis``, so
the reference implementations under ``tests/`` cannot leak back into
the package.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_imports", REPO / "tools" / "check_imports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TestTestOnlyImports:
    def test_library_import_of_tests_or_hypothesis_is_an_offence(self, checker, tmp_path):
        module = write(
            tmp_path / "src" / "pkg" / "mod.py",
            "from tests.core.reference import ReferenceCava  # noqa\n"
            "import hypothesis.strategies as st\n"
            "\n"
            "def f():\n"
            "    import tests\n"
            "    return ReferenceCava, st, tests\n",
        )
        problems = checker.check_file(module)
        assert [line for line, _ in problems] == [1, 2, 5]
        assert all("test-only module" in problem for _, problem in problems)
        assert checker.main([str(tmp_path / "src")]) == 3

    def test_same_imports_outside_src_are_fine(self, checker, tmp_path):
        module = write(
            tmp_path / "tests" / "test_mod.py",
            "from tests.core.reference import ReferenceCava\n"
            "import hypothesis\n"
            "\n"
            "USED = (ReferenceCava, hypothesis)\n",
        )
        assert checker.check_file(module) == []

    def test_unused_import_still_reported(self, checker, tmp_path):
        module = write(tmp_path / "tools" / "t.py", "import os\n")
        assert checker.check_file(module) == [(1, "unused import 'os'")]

    def test_the_package_is_clean(self, checker):
        assert checker.main([str(REPO / "src")]) == 0
