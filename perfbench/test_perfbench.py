"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_table, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_children_on_a_nested_tree():
    spans = [
        Span("a", 0, 100),              # 0: children 1 and 3 cover 30 + 40
        Span("b", 10, 40, parent=0),    # 1: child 2 covers 10
        Span("c", 15, 25, parent=1),    # 2: leaf
        Span("b", 50, 90, parent=0),    # 3: leaf
        Span("a", 60, 70, parent=3),    # 4: leaf, nested in a span of its own name's ancestor
    ]
    assert self_times(spans) == [30, 20, 10, 30, 10]
    table = layer_table(spans)
    assert table["a"]["calls"] == 2
    assert table["a"]["self_s"] == pytest.approx(40e-9)
    assert table["a"]["total_s"] == pytest.approx(100e-9)   # the nested call is inside
    assert table["b"]["total_s"] == pytest.approx(70e-9)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(100e-9)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0, 100), Span("x", 10, 60, parent=0), Span("y", 40, 120, parent=0)]
    assert self_times(spans)[0] == 10


def test_metric_names_match_the_pattern_and_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_an_op_that_raises_is_counted_as_failed():
    ledger = workloads.Ledger()
    assert ledger.attempt("fine", lambda: 3) == 3
    assert ledger.attempt("broken", lambda: 1 / 0) is None
    ledger.fail("checked", "bound exceeded")
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.ops["broken"].error.startswith("ZeroDivisionError")


def test_a_raising_call_leaves_a_failed_span():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("m.boom", boom)()
    assert layer_table(tracer.spans)["m.boom"]["failed"] == 1


def test_install_wraps_every_namespace_that_imported_a_name():
    from lgcomplexity import adversary, lgsolver

    original = lgsolver.dual_feasibility_margin
    tracer = Tracer()
    tracer.install()
    try:
        assert adversary.dual_feasibility_margin is lgsolver.dual_feasibility_margin
        assert lgsolver.dual_feasibility_margin is not original
    finally:
        tracer.uninstall()
    assert adversary.dual_feasibility_margin is original is lgsolver.dual_feasibility_margin
