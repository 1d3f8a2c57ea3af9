"""Acceptance gate: every row of `suites.CRITERIA` at its acceptance scale, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the [PASS]/[FAIL]
lines; each row also is its own test, named after its place and its name
in the table, so plain -v gives the same per-criterion verdicts through
test outcomes.  Seeds are fixed; each criterion runs well under its 60
second budget.  Each row is also seen to fail on a wrong engine answer,
and so is each walker and adjunction scenario of `paper-examples`, whose
detail then names the condition that broke.
"""

import dataclasses

import pytest

from limtower import suites
from limtower.groups import fg_group
from limtower.suites import CRITERIA
from limtower.towers import multiplication_tower

SEED = 0


def _gate_test(number, row):
    def test():
        result = row.run("acceptance", SEED)
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] criterion {number}: {result.name} - {result.detail}")
        assert result.passed, f"criterion {number} failed: {result.detail}"

    return test


for _number, _row in enumerate(CRITERIA, 1):
    globals()[f"test_criterion_{_number:02d}_{_row.name.replace('-', '_')}"] = _gate_test(_number, _row)


NEVER = multiplication_tower(fg_group(0), 2)  # never stabilizes, so it is not local and keeps no stage

# per row: an engine name that the row calls, and a wrong answer for it made from the right one
WRONG = {
    "snf-certificates": (suites, "smith_normal_form", lambda snf: lambda mat: snf([[2 * x for x in r] for r in mat])),
    "finite-ml-soundness": (suites, "analyze", lambda analyze: lambda tw: analyze(NEVER)),
    "shift-invariance": (suites, "shift", lambda shift: lambda tw: shift(NEVER)),
    "image-quotient-vanishing": (suites, "quotient_tower", lambda quotient: lambda tw, subs: (tw, None)),
    "multiplication-closed-forms": (suites, "stabilize", lambda stabilize: lambda tw: stabilize(NEVER)),
    "decomposition-signature": (suites, "is_epimorphic_tower", lambda epi: lambda tw: not epi(tw)),
    "locality-closure": (suites, "stabilize", lambda stabilize: lambda tw: stabilize(NEVER)),
    "walker-normal-form": (suites.wk, "normalize", lambda normalize: lambda x: x),
    "ulm-length": (suites.wk, "ulm_probe", lambda probe: lambda *args: dataclasses.replace(probe(*args), ok=False)),
    "adjunction-and-window": (suites, "truncation_adjunction_check", lambda check: lambda *args: not check(*args)),
    "general-tails": (suites, "iterate_image", lambda iterate: lambda tw, n: iterate(tw, 0)),
}


@pytest.mark.parametrize("row", CRITERIA, ids=lambda row: row.name)
def test_criterion_fails_on_a_wrong_engine_answer(row, monkeypatch):
    module, name, wrong = WRONG[row.name]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    result = row.run("acceptance", SEED)
    assert result.passed is False and result.detail, result


# per walker or adjunction scenario of the paper-examples suite: an engine name, a wrong answer made
# from the right one, and the detail of every scenario that then fails
SCENARIO_WRONG = {
    "walker-alpha-1": (
        suites.wk, "mul_by_p", lambda mul: lambda x: x,
        {"walker-alpha-1": "failed: p*e[0] = 0", "walker-carry-chain-p2": "failed: p*e[0,1] = e[1]"},
    ),
    "walker-carry-chain-p2": (
        suites.wk, "add", lambda add: lambda x, y: x,
        {"walker-carry-chain-p2": "failed: e[0,1]+e[0,1] = e[1]; e[1]+e[1] = 0"},
    ),
    "walker-ulm-w2-3": (
        suites.wk, "ulm_probe", lambda probe: lambda *args: dataclasses.replace(probe(*args), top_stage_trivial=False),
        {"walker-ulm-w2-3": "failed: top stage trivial"},
    ),
    "walker-relations-p3": (
        suites.wk, "in_relations", lambda in_relations: lambda x: not in_relations(x),
        {"walker-relations-p3": "failed: relation combos vanish; basis class e[3] nonzero"},
    ),
    "adjunction-z2-small": (
        suites, "truncation_adjunction_check", lambda check: lambda a, n, s: check(a, n, s) != (n == 1),
        {"adjunction-z2-small": "failed: hom-set bijection at n = 1, null Z/2"},
    ),
}


@pytest.mark.parametrize("scenario", SCENARIO_WRONG)
def test_paper_example_scenario_names_the_condition_that_failed(scenario, monkeypatch):
    module, name, wrong, details = SCENARIO_WRONG[scenario]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    failed = {c.name: c.detail for c in suites.paper_examples_suite() if not c.passed}
    assert failed == details
