"""Tests of the benchmark itself: inputs, answer checks and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import limtower  # noqa: E402
from limtower import serialize, suites  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

NAMES = sorted(W.WORKLOADS)


def first(name: str, seed: int, n: int) -> list:
    return list(itertools.islice(W.WORKLOADS[name].inputs(name, seed), n))


def digest(inputs) -> str:
    log = W.InputLog()
    for inp in inputs:
        log.add(inp)
    return log.digest()


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_inputs(name):
    assert digest(first(name, 5, 20)) == digest(first(name, 5, 20))
    assert digest(first(name, 5, 20)) != digest(first(name, 6, 20))


def test_corpus_towers_pairwise_distinct():
    towers = [serialize.tower_from_json(json.loads(inp.key)) for inp in first("tower-corpus", 2, 300)]
    assert len(set(towers)) == len(towers)


@pytest.mark.parametrize("name", ["deep-tail", "walker-normalize"])
def test_inputs_pairwise_distinct(name):
    keys = [inp.key for inp in first(name, 2, 150)]
    assert len(set(keys)) == len(keys)


def test_repeated_draws_are_dropped_and_counted():
    @dataclass
    class Item:
        key: int

    draws = itertools.count()
    inputs = W.Inputs(lambda rng, i: Item(next(draws) // 2), 0, "toy")
    assert [inp.key for inp in itertools.islice(inputs, 3)] == [0, 1, 2]
    assert inputs.dropped == 2


@pytest.mark.parametrize("name", NAMES)
def test_seed_code_gives_the_recorded_answers(name):
    wl = W.WORKLOADS[name]
    errors: list[str] = []
    durations, failed = worker._run(wl, first(name, 9, 12), None, errors)
    assert failed == 0, errors
    assert len(durations) == 12


def _tamper(name, inp):
    if name == "deep-tail":
        inp.d += 1
    elif name == "tower-corpus":
        inp.expected["local"] = not inp.expected["local"]
    else:
        inp.normal_form = inp.normal_form.replace("1*e", "2*e", 1) + " + 1*e[0]"
    return inp


@pytest.mark.parametrize("name", NAMES)
def test_tampered_answer_counts_as_failure(name):
    wl = W.WORKLOADS[name]
    inputs = first(name, 4, 3)
    _tamper(name, inputs[1])
    errors: list[str] = []
    durations, failed = worker._run(wl, inputs, None, errors)
    assert failed == 1 and errors[0].startswith("input 1:")
    assert durations[1] is None and None not in (durations[0], durations[2])


def test_raising_operation_counts_as_failure():
    def op(inp):
        raise RuntimeError("broken invariant")

    wl = W.Workload(W.draw_tail, op, W.check_tail)
    errors: list[str] = []
    durations, failed = worker._run(wl, first("deep-tail", 1, 2), None, errors)
    assert (durations, failed) == ([None, None], 2) and "broken invariant" in errors[0]


def test_each_input_takes_its_median_pass():
    passes = [[0.3, None, 0.5, 0.2], [0.1, 0.4, 0.6, 0.2], [0.2, 0.4, 0.9, 0.5]]
    assert run.median_times(passes) == [0.2, 0.6, 0.2]


def _traced_calls(name: str, n: int) -> dict:
    wl = W.WORKLOADS[name]
    inputs = first(name, 3, n)
    tracer = Tracer()
    tracer.install()
    try:
        for i, inp in enumerate(inputs):
            out, _ = tracer.run_op(wl.op, inp, i)
            assert wl.check(inp, out) is None
    finally:
        assert tracer.restore() == []
    return tracer.calls


def test_walker_workload_does_no_groups_work():
    calls = _traced_calls("walker-normalize", 3)
    assert calls["walker.normalize"] > 0 and calls["ordinals.ord_compare"] > 0
    assert all(n == 0 for k, n in calls.items() if k.startswith("groups."))


def test_deep_tail_does_no_walker_work():
    calls = _traced_calls("deep-tail", 2)
    assert calls["groups.row_hermite_basis"] > 0 and calls["towers.analyze"] == 2
    assert all(n == 0 for k, n in calls.items() if k.startswith(("walker.", "serialize.")))


def test_restore_puts_back_every_binding():
    originals = (limtower.towers.image_of_subgroup, limtower.analyze, limtower.groups.Subgroup.__init__)
    tracer = Tracer()
    tracer.install()
    assert limtower.towers.image_of_subgroup is not originals[0]
    assert limtower.analyze is limtower.towers.analyze is not originals[1]
    assert tracer.restore() == []
    assert (limtower.towers.image_of_subgroup, limtower.analyze, limtower.groups.Subgroup.__init__) == originals


def test_charpoly_and_covolume_factor():
    assert W.charpoly([[2, 0], [0, 3]]) == [1, -5, 6]
    assert W.covolume_factor([[0, 0, 0], [0, 2, 0], [0, 0, 3]]) == 6
    assert W.covolume_factor([[0, 1], [0, 0]]) == 1


def test_walker_reference_matches_random_order_normalization():
    rng = random.Random(1)
    for inp in first("walker-normalize", 8, 9):
        ctx = inp.context
        x = limtower.parse_element(ctx, inp.key[1])
        assert limtower.format_element(suites.normalize_random_order(ctx, x, rng)) == inp.normal_form


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "deep-tail", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
