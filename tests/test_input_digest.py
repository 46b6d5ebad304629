"""Bit-identity pin: the canonical synthetic inputs vs. the committed digest.

``tools/input_digest.py`` digests what the §6.1 evaluation replays at
seed 0 (every dataset spec, ED's CBR counterpart, 200 LTE and 200 FCC
traces). A change to a generator that moves any of those bits fails
here; re-pin with ``tools/input_digest.py --write`` only when the
change of inputs is intended.
"""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).parent / "golden_input_digest.json"


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "input_digest", REPO / "tools" / "input_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_canonical_inputs_match_golden_digest():
    tool = load_tool()
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["seed"] == tool.SEED
    assert tool.input_digest() == golden["digest"]


def test_tool_prints_the_digest(capsys):
    tool = load_tool()
    assert tool.main([]) == 0
    assert capsys.readouterr().out.strip() == json.loads(GOLDEN_PATH.read_text())["digest"]
