"""The package's cold import and its lazily loaded names."""

import subprocess
import sys

from test_cli import checkout_env

CHECK = """
import sys
import limtower
assert "limtower.ordinals" in sys.modules
deferred = ("limtower.groups", "limtower.towers", "limtower.walker", "limtower.serialize", "decimal", "json")
loaded = [m for m in deferred if m in sys.modules]
assert not loaded, loaded
# the 14 group and 30 tower names, each lazy like the walker and JSON ones
GROUP_AND_TOWER = {
    "groups": (
        "FgAbGroup", "GroupMap", "Subgroup", "TRIVIAL_GROUP", "direct_sum", "fg_group", "identity_map", "image",
        "image_of_subgroup", "kernel", "multiplication_map", "quotient_by_subgroup", "smith_normal_form", "zero_map",
    ),
    "towers": (
        "ConstantEndo", "DEFAULT_HORIZON", "Decomposition", "Filtration", "FiltrationStage", "LengthValue",
        "Lim1Status", "MLStatus", "Tower", "TowerMorphism", "ZeroTail", "analyze", "constant_tower", "image_tower",
        "is_epimorphic_tower", "is_null_tower", "iterate_image", "limit_of_towers", "multiplication_tower",
        "null_extension", "null_tower", "quotient_tower", "shift", "stabilize", "subtower",
        "truncated_constant_tower", "truncation_adjunction_check", "window_difference_map", "window_shift_map",
        "zero_tower",
    ),
}
assert sum(map(len, GROUP_AND_TOWER.values())) == 44
listed = dir(limtower)
for sub, names in GROUP_AND_TOWER.items():
    for name in names:
        assert limtower._LAZY[name] == sub, name
assert set(limtower._LAZY) | set(vars(limtower)) == set(listed), listed
for name, sub in limtower._LAZY.items():
    assert getattr(limtower, name) is getattr(sys.modules["limtower." + sub], name), name
    assert name not in vars(limtower), name
# a never-stabilizing Z^6 tail at horizon 64, as the deep-tail benchmark draws, writes its witness without decimal
mat = ((1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 1, -1, 0, 0), (0, 0, 0, 2, 1, 0), (0, 0, 0, 0, -1, 2), (1, 0, 0, 0, 0, 1))
g = limtower.FgAbGroup(6, ())
f = limtower.analyze(limtower.Tower((), (), limtower.ConstantEndo(g, limtower.GroupMap(g, g, mat))), horizon=64)
assert f.ml_status.witness == "image lattice covolume grows by 7 per step on the eventual free part", f.ml_status
assert "decimal" not in sys.modules
try:
    limtower.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'limtower' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("no AttributeError")
"""


def run(code):
    return subprocess.run([sys.executable, "-c", code], env=checkout_env(), capture_output=True, text=True, timeout=60)


def test_walker_and_json_load_on_first_use():
    """A cold `import limtower` loads the ordinal layer alone: groups, towers, walker, serialize,
    decimal and json wait for the first name that needs them, and `dir` lists every name.
    No tower analysis that `str` can write imports decimal either."""
    proc = run(CHECK)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_cli_imports_no_decimal():
    proc = run("import sys, limtower.cli; assert 'decimal' not in sys.modules")
    assert (proc.returncode, proc.stderr) == (0, "")
