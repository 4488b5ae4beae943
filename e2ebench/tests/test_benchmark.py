"""Tests for the benchmark's own logic (no program run needed).

Run from the repository root with::

    python3 -m pytest e2ebench/tests
"""

import json
import os
import random
import types

import pytest

import common
import inputs
import layers
import shim
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- percentiles -----------------------------------------------------------------


@pytest.mark.parametrize("q", [0, 1, 50, 90, 99, 99.9, 100])
def test_single_observation_is_every_percentile(q):
    assert common.percentile([37.8], q) == 37.8


def test_percentile_never_exceeds_maximum_and_is_observed():
    rng = random.Random(7)
    for _ in range(200):
        values = [rng.expovariate(1.0) for _ in range(rng.randint(1, 50))]
        for q in (50, 90, 99, 100):
            p = common.percentile(values, q)
            assert p <= max(values)
            assert p in values


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert common.percentile(values, 50) == 50
    assert common.percentile(values, 99) == 99
    assert common.percentile(values, 100) == 100
    assert common.percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        common.percentile([], 50)
    with pytest.raises(ValueError):
        common.percentile([1.0], 101)


def test_median():
    assert common.median([3, 1, 2]) == 2
    assert common.median([4, 1, 3, 2]) == 2.5


# -- span self time --------------------------------------------------------------


def test_self_time_subtracts_union_of_overlapping_children():
    # Children [1,4) and [3,6) overlap on [3,4): together they cover 5.
    assert common.self_time(0, 10, [(1, 4), (3, 6)]) == pytest.approx(5)


def test_self_time_nested_and_duplicate_children():
    assert common.self_time(0, 10, [(2, 8), (3, 4), (2, 8)]) == \
        pytest.approx(4)


def test_self_time_clips_children_to_parent():
    assert common.self_time(0, 10, [(-5, 2), (9, 20)]) == pytest.approx(7)


def test_self_time_without_children_is_duration():
    assert common.self_time(2.5, 4.0, []) == pytest.approx(1.5)


def test_trace_self_times_per_process(tmp_path):
    spans = [
        {"id": 0, "parent": -1, "name": "root", "start": 0, "end": 10,
         "pid": 1},
        {"id": 1, "parent": 0, "name": "provider.get", "start": 1, "end": 6,
         "pid": 1},
        {"id": 2, "parent": 1, "name": "codec.load", "start": 2, "end": 4,
         "pid": 1},
        {"id": 3, "parent": 1, "name": "codec.load", "start": 3, "end": 5,
         "pid": 1},
        # Same ids in a forked child must not count as children above.
        {"id": 1, "parent": 0, "name": "exec.shard", "start": 0, "end": 9,
         "pid": 2},
    ]
    with open(tmp_path / "spans-1.jsonl", "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    selfs = layers.Trace(str(tmp_path)).self_times()
    assert selfs["root"] == pytest.approx(5)
    assert selfs["provider.get"] == pytest.approx(2)
    assert selfs["codec.load"] == pytest.approx(4)
    assert selfs["exec.shard"] == pytest.approx(9)


# -- tracer ----------------------------------------------------------------------


def test_tracer_records_parent_links_and_hook(tmp_path):
    tracer = shim.Tracer(str(tmp_path))

    def inner(x):
        return [x] * 3

    inner_traced = tracer.wrap(inner, "inner", lambda a, k, r: {"n": len(r)})
    outer = tracer.wrap(lambda: inner_traced(1), "outer")
    outer()
    by_name = {record["name"]: record for record in tracer.records}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] == 0
    assert by_name["inner"]["attrs"] == {"n": 3}


def test_tracer_records_failed_calls(tmp_path):
    tracer = shim.Tracer(str(tmp_path))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert tracer.records[0]["error"] is True


def test_rebind_replaces_module_level_copies(monkeypatch):
    def original():
        return 1

    copy = types.ModuleType("repro._e2e_probe")
    copy.fn = original
    monkeypatch.setitem(__import__("sys").modules, "repro._e2e_probe", copy)
    shim._rebind(original, "wrapped")
    assert copy.fn == "wrapped"


def test_span_cost_is_small_and_positive(tmp_path):
    cost = shim.span_cost(shim.Tracer(str(tmp_path)), calls=2000)
    assert 0.0 <= cost < 1e-3


# -- seeded inputs ---------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda seed: inputs.paper_run(seed),
    lambda seed: inputs.paper_batch(seed),
    lambda seed: inputs.serve_mix(seed, 5),
])
def test_inputs_are_deterministic_per_seed(make):
    assert make(3) == make(3)
    assert make(3)["digest"] != make(4)["digest"]


def test_serve_mix_composition_is_fixed_across_seeds():
    """Seeds reorder and retime the popular evals; they never change which."""
    def key(params):
        return json.dumps({"formula": params.get("formula"),
                           "catalog": params.get("catalog")}, sort_keys=True)

    popular = {key(f) for f in inputs.POPULAR}

    def evals(seed):
        return sorted(json.dumps(r["params"], sort_keys=True)
                      for r in inputs.serve_mix(seed, 5)["schedule"]
                      if r["op"] == "eval" and key(r["params"]) in popular)

    assert evals(1) == evals(2)


def test_paper_run_rounds_run_every_experiment_in_seeded_orders():
    rounds = inputs.paper_run(1)["rounds"]
    assert len(rounds) == inputs.PAPER_RUN_ROUNDS
    assert all(sorted(r["cold"]) == sorted(inputs.PAPER_RUN_IDS)
               and sorted(r["warm"]) == sorted(inputs.PAPER_RUN_WARM_IDS)
               for r in rounds)
    assert set(inputs.PAPER_RUN_WARM_IDS) < set(inputs.PAPER_RUN_IDS)
    assert len({tuple(r["cold"]) for r in rounds}) > 1
    leaders = inputs.PAPER_RUN_LEADERS
    assert all(r[name][:len(leaders)] == leaders
               for r in rounds for name in ("cold", "warm"))
    assert "E9" not in inputs.PAPER_RUN_IDS
    assert "E14" not in inputs.PAPER_RUN_IDS


def test_serve_mix_schedule_shape():
    drawn = inputs.serve_mix(1, 5)
    times = [r["at"] for r in drawn["schedule"]]
    assert times == sorted(times)
    assert len(times) == int(inputs.RATE * 5)
    assert all(0 <= t < 5 for t in times)
    assert len(drawn["cells"]) > 16  # more cells than the provider's LRU


def test_first_seen_formulas_are_new():
    rng = random.Random(0)
    seen = set()
    drawn = [inputs.first_seen_formula(rng, seen) for _ in range(50)]
    assert len({json.dumps(f, sort_keys=True) for f in drawn}) == 50


def test_apportion_sums_and_follows_weights():
    counts = inputs.apportion(100, [3.0, 1.0, 1.0])
    assert sum(counts) == 100
    assert counts == [60, 20, 20]
    assert sum(inputs.apportion(7, [1.0] * 3)) == 7


# -- result parsing --------------------------------------------------------------


def test_batch_verdicts_ignore_instrumentation_and_timings():
    out = "\n".join([
        "== E4: Continual common knowledge [REPRODUCED] ==",
        "mode  runs  took",
        "crash 224   0.123",
        "instrumentation:",
        "  build_system 0.5s",
        "(batch E4_x_bitset_limb: 4 shards, took 0.9s)",
        "== E9: Omission [NOT REPRODUCED] ==",
        "row",
    ])
    verdicts = workloads._batch_verdicts(out)
    assert verdicts["E4"][0] == "REPRODUCED"
    assert "0.123" not in verdicts["E4"][1]
    assert "build_system" not in verdicts["E4"][1]
    assert verdicts["E9"][0] == "NOT REPRODUCED"


# -- BENCHMARK.json --------------------------------------------------------------


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_match_pattern_and_are_unique():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    common.check_metric_names(names)
    with pytest.raises(ValueError):
        common.check_metric_names(["ok", "not ok"])
    with pytest.raises(ValueError):
        common.check_metric_names(["dup", "dup"])


def test_benchmark_json_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    self_timed = set(layers.SELF_TIME)
    assert self_timed <= {m["name"] for m in spec["per_layer"]}
