"""The package's cold import and its lazily loaded names."""

import subprocess
import sys

from test_cli import checkout_env

CHECK = """
import sys
import limtower
loaded = [m for m in ("limtower.walker", "limtower.serialize", "json") if m in sys.modules]
assert not loaded, loaded
for name, sub in limtower._LAZY.items():
    assert getattr(limtower, name) is getattr(sys.modules["limtower." + sub], name), name
    assert name not in vars(limtower), name
try:
    limtower.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'limtower' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("no AttributeError")
"""


def test_walker_and_json_load_on_first_use():
    """A cold `import limtower` compiles neither walker nor serialize and imports no json."""
    proc = subprocess.run([sys.executable, "-c", CHECK], env=checkout_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
