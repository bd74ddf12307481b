"""Fast tests of the benchmark's span arithmetic and target table.

    python3 -m pytest perfbench
"""

import json
import logging
from pathlib import Path

import pytest

import spans


def span(name, start, end, parent=-1, detail=None):
    return [name, detail, start, end, parent]


def test_self_time_subtracts_union_of_children():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: together they cover 1..6
        span("a.inner", 2.0, 3.0, parent=1),
        span("c", 8.0, 12.0, parent=0),  # runs past the root: clipped at 10
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_self_times_of_a_tree_add_up_to_its_root():
    tree = [
        span("root", 0.0, 9.0),
        span("x", 0.5, 4.0, parent=0),
        span("y", 1.0, 2.0, parent=1),
        span("z", 2.5, 3.5, parent=1),
        span("w", 5.0, 8.5, parent=0),
    ]
    assert sum(spans.self_times(tree)) == pytest.approx(9.0)


def fake_clock(ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_recorded_spans_give_calls_and_self_times():
    recorder = spans.Recorder(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    leaf = recorder.wrap(spans.Target("m", "leaf"), lambda kind: kind)
    outer_target = spans.Target("m", "outer", detail_arg="kind", details=("aam", "ce"))

    def outer(kind):
        leaf("x")
        leaf("y")
        return kind

    outer = recorder.wrap(outer_target, outer)
    assert outer(kind="aam") == "aam"
    metrics, absent = spans.layer_metrics(
        [recorder.dump()], targets=(spans.Target("m", "leaf"), outer_target)
    )
    assert absent == []
    assert metrics["m.leaf.calls"] == (2, "count")
    assert metrics["m.leaf.self_s"][0] == pytest.approx(4.0)  # 1..3 and 4..6
    assert metrics["m.outer.self_s"][0] == pytest.approx(6.0)  # 0..10 minus 4
    assert metrics["m.outer.aam.self_s"][0] == pytest.approx(6.0)
    assert metrics["m.outer.ce.self_s"] == (0.0, "s")


def test_absent_target_is_left_out_not_zero():
    recorder = spans.Recorder()
    missing = spans.Target("no_such_module", "merged_away")
    recorder.install(targets=(missing,))
    logging.getLogger("spklab").removeHandler(recorder.handler)
    metrics, absent = spans.layer_metrics([recorder.dump()], targets=(missing,))
    assert absent == ["no_such_module.merged_away"]
    assert metrics == {}


def test_disqualified_warnings_give_ok_ratio_with_its_base():
    recorder = spans.Recorder()
    target = spans.Target("training", "grid_search", ("self_s",), tried_arg="grid",
                          ok_prefix="training.grid_candidates")
    handler = spans.DisqualifiedCounter(recorder.counts)
    logger = logging.getLogger("spklab.training")
    logger.addHandler(handler)
    try:
        def grid_search(grid):
            logger.warning("grid config %s disqualified: diverged", grid[0])
            return grid[1]

        assert recorder.wrap(target, grid_search)(["a", "b", "c", "d"]) == "b"
    finally:
        logger.removeHandler(handler)
    metrics, _ = spans.layer_metrics([recorder.dump()], targets=(target,))
    assert metrics["training.grid_candidates_tried"] == (4, "count")
    assert metrics["training.grid_candidates_ok_ratio"] == (0.75, "ratio")


def test_counters_run_apart_from_spans():
    assert set(spans.MODES["spans"]) | set(spans.MODES["counts"]) == set(spans.TARGETS)
    assert all(t.span for t in spans.MODES["spans"])
    assert not any(t.span or t.ok_prefix for t in spans.MODES["counts"])
    recorder = spans.Recorder()
    counted = recorder.wrap(spans.Target("m", "hot", ("calls",), span=False), abs)
    assert [counted(-1), counted(2)] == [1, 2]
    metrics, _ = spans.layer_metrics(
        [recorder.dump()], targets=(spans.Target("m", "hot", ("calls",), span=False),)
    )
    assert recorder.spans == []
    assert metrics == {"m.hot.calls": (2, "count")}


def test_benchmark_file_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, (_, unit) in spans.layer_metrics([])[0].items()}
    # Added by the benchmark run: tracing overhead and the models' EERs.
    reported["trace.overhead_s"] = "s"
    reported.update(dict.fromkeys(("eer_raw_mean", "eer_snorm_mean", "dev_eer_best_mean"), "ratio"))
    assert listed == reported
