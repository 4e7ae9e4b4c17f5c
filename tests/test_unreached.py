"""tools/unreached.py: the allowlist that turns its report into a gate."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_unreached():
    spec = importlib.util.spec_from_file_location("unreached", ROOT / "tools" / "unreached.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gate_matches_lines_by_module_and_text():
    gate = load_unreached().gate
    sources = {"cli": ["def run():", "    code = main()", "    sys.exit(code)"],
               "scalars": ["x = 1", "    code = main()"]}
    allowed = [{"module": "cli", "line": "code = main()", "reason": "child only"},
               {"module": "cli", "line": "def run():", "reason": "stale"}]
    # the same text in another module is not allowed by an entry for cli
    assert gate({"cli": [2, 3], "scalars": [2]}, sources, allowed) == (
        {"not_allowed": {"cli": [3], "scalars": [2]},
         "allowed_but_reached": [{"module": "cli", "line": "def run():"}]}, 1)
    assert gate({"cli": [2]}, sources, allowed[:1]) == (
        {"not_allowed": {}, "allowed_but_reached": []}, 0)


def test_gate_fails_on_a_listed_line_that_is_reached():
    gate = load_unreached().gate
    sources = {"cli": ["def run():", "    code = main()"]}
    allowed = [{"module": "cli", "line": "code = main()", "reason": "child only"}]
    assert gate({}, sources, allowed) == (
        {"not_allowed": {}, "allowed_but_reached": [{"module": "cli", "line": "code = main()"}]},
        1)


def test_allowlist_entries_name_a_line_of_their_module_and_a_reason():
    allowed = json.loads(load_unreached().ALLOWED.read_text(encoding="utf-8"))
    for entry in allowed:
        assert set(entry) == {"module", "line", "reason"} and entry["reason"]
        source = (ROOT / "src" / "involute" / f"{entry['module']}.py").read_text(encoding="utf-8")
        assert entry["line"] in (line.strip() for line in source.splitlines())
