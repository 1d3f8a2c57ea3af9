"""The line collector of tools/linecov.py, on a canned module."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"

CANNED = '''\
def called(x):
    y = x + 1
    return y


def never(x):
    y = x * 2
    return y
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collector_reports_the_body_of_the_function_never_called(tmp_path):
    linecov = load("linecov", TOOL)
    path = tmp_path / "canned.py"
    path.write_text(CANNED)
    collector = linecov.LineCollector(tmp_path)
    before = sys.gettrace()
    collector.start()
    try:
        canned = load("canned", path)
        assert canned.called(1) == 2
    finally:
        collector.stop()
    assert sys.gettrace() is before
    # both def lines ran when the module was imported; only never's body did not
    assert linecov.executable_lines(path) == {1, 2, 3, 6, 7, 8}
    assert collector.unrun(path) == [7, 8]
    assert linecov.spans([1, 4, 5, 6, 9]) == "1, 4-6, 9"
