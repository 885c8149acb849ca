"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Target, Tracer, self_times, tail, wrapped_sites  # noqa: E402


def test_tail_needs_ten_samples_beyond_the_percentile():
    values = list(range(1000, 0, -1))
    assert tail(values) == (990, 99.0, 1000)     # 990 has 991..1000 beyond it
    assert tail(range(100)) == (89, 90.0, 100)
    assert tail(range(20)) == (9, 50.0, 20)
    assert tail(range(21)) == (10, 50.0, 21)


def test_tail_falls_back_to_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail(range(19)) == (18, 100.0, 19)
    with pytest.raises(ValueError):
        tail([])


def _span(id, parent, start, end):
    return Span(id, f"s{id}", parent, 1, start, end)


def test_self_time_with_nested_and_back_to_back_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),      # has its own child
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 4.0, 6.0),      # starts where span 1 ends
        _span(4, 0, 6.0, 9.0),      # starts where span 3 ends
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0 - 3.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def _fake_program():
    """A defining module, a module that imports its function by name,
    and a class with a method, as the program has them."""
    home = types.ModuleType("home")
    user = types.ModuleType("user")

    def leaf(x):
        return x + 1

    def outer(x):
        return home.leaf(x) * 2

    class Layer:
        def forward(self, x):
            return user.leaf(x)

    home.leaf, home.outer, home.Layer = leaf, outer, Layer
    user.leaf = leaf
    targets = [Target(home, "leaf", "home.leaf"), Target(home, "outer", "home.outer"),
               Target(Layer, "forward", "layers.layer.fwd")]
    return home, user, targets


def test_spans_link_parents_and_requests():
    home, user, targets = _fake_program()
    tracer = Tracer()
    tracer.install(targets, [home, user])
    try:
        with tracer.request("first", topology="nv4x4"):
            assert home.outer(1) == 4
        with tracer.request("second"):
            assert home.Layer().forward(1) == 2
    finally:
        tracer.uninstall()
    names = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert names == [("bench.first", None, 1), ("home.outer", 0, 1), ("home.leaf", 1, 1),
                     ("bench.second", None, 2), ("layers.layer.fwd", 3, 2),
                     ("home.leaf", 4, 2)]
    assert all(s.tags == {"topology": "nv4x4"} for s in tracer.spans[:3])
    assert all(s.tags == {} for s in tracer.spans[3:])
    assert all(s.end >= s.start for s in tracer.spans)


def test_uninstall_restores_every_import_site():
    home, user, targets = _fake_program()
    originals = (home.leaf, home.outer, vars(home.Layer)["forward"])
    tracer = Tracer()
    tracer.install(targets, [home, user])
    assert user.leaf is home.leaf is not originals[0]
    assert len(wrapped_sites(targets, [home, user])) == 4
    with pytest.raises(RuntimeError):
        tracer.install(targets, [home, user])
    tracer.uninstall()
    assert (home.leaf, home.outer, vars(home.Layer)["forward"]) == originals
    assert user.leaf is originals[0]
    assert wrapped_sites(targets, [home, user]) == []


def test_a_raising_call_still_closes_its_span():
    home, user, targets = _fake_program()
    tracer = Tracer()
    tracer.install(targets, [home, user])
    try:
        with pytest.raises(TypeError):
            home.leaf("x")
        assert home.leaf(1) == 2
    finally:
        tracer.uninstall()
    assert [s.parent for s in tracer.spans] == [None, None]


def test_program_wrappers_install_at_every_site_and_uninstall():
    from seizurecnn import cli, data, evaluation, layers, training
    before = (cli.load_split_segments, evaluation.preprocess_clip, training.reshape_batch,
              training.adam_step, vars(layers.Conv)["forward"])
    assert tracing.wrapped() == []
    tracer = Tracer()
    tracing.install(tracer)
    try:
        assert cli.load_split_segments is data.load_split_segments is not before[0]
        assert evaluation.preprocess_clip is cli.preprocess_clip is data.preprocess_clip
        assert training.reshape_batch is not before[2]
        assert training.adam_step is not before[3]
        assert vars(layers.Conv)["forward"] is not before[4]
    finally:
        tracer.uninstall()
    assert tracing.wrapped() == []
    assert (cli.load_split_segments, evaluation.preprocess_clip, training.reshape_batch,
            training.adam_step, vars(layers.Conv)["forward"]) == before


def test_layer_metrics_pair_steps_and_group_layers():
    def s(id, name, parent, start, end, **tags):
        return Span(id, name, parent, 1, start, end,
                    tags={"topology": "nv1x16", "pass_index": 0, **tags})
    spans = [
        s(0, "bench.train", None, 0.0, 1.0),
        s(1, "training.fit", 0, 0.0, 1.0),
        s(2, "training.batch_loss_and_grads", 1, 0.1, 0.5),
        s(3, "layers.conv.fwd", 2, 0.1, 0.2, layer="conv1", mode="train"),
        s(4, "layers.conv.fwd", 2, 0.2, 0.25, layer="conv2", mode="train"),
        s(5, "layers.conv.bwd", 2, 0.3, 0.4, layer="conv1", mode="train"),
        s(6, "training.adam_step", 1, 0.5, 0.6),
    ]
    m = tracing.layer_metrics(spans, n_passes=1)
    assert m["training.steps"] == 1
    assert m["training.step_p50_ms.nv1x16"] == pytest.approx(500.0)
    assert m["training.adam_ms.nv1x16"] == pytest.approx(100.0)
    assert m["layers.conv.fwd_ms.nv1x16"] == pytest.approx(150.0)
    assert m["layers.conv1.bwd_ms.nv1x16"] == pytest.approx(100.0)
    assert m["layers.block1_share.nv1x16"] == pytest.approx(0.2 / 0.5)
    assert m["training.loss_self_ms"] == pytest.approx(400.0 - 250.0)
    assert m["layers.calls"] == 3
    assert m["layers.conv.infer_ms.nv1x16"] == 0.0
    assert set(m) == {name for name, _, _ in tracing.catalog()}


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    e2e = run.end_to_end([types.SimpleNamespace(seconds=1.0, segments=4, busy=1.0)],
                         setup_s=1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.catalog()
    assert len(spec["per_layer"]) <= 128
