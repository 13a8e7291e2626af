"""Tests for the benchmark's span recorder and per-layer metrics.

    python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
import tracer  # noqa: E402
from tracer import Span, Tracer  # noqa: E402


def pcapass(name):
    return importlib.import_module(f"pcapass.{name}")


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracer.covered([(8, 12), (1, 3), (2, 4)], 0, 10) == pytest.approx(5.0)
    assert tracer.covered([], 0, 10) == 0.0


def test_self_time_is_parent_minus_covered_child_intervals():
    spans = [
        Span(0, "a.parent", 1, None, 0.0, 10.0),
        Span(1, "b.child", 1, 0, 1.0, 3.0),
        Span(2, "b.child", 1, 0, 2.0, 4.0),
        Span(3, "c.grandchild", 1, 1, 1.5, 2.5),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(7.0)  # 10 minus the union [1, 4]
    assert selfs[1] == pytest.approx(1.0)  # grandchildren count for their parent only
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)


def test_nested_wrapped_calls_record_parents_and_nonnegative_self_time():
    rec = Tracer()
    inner = rec.wrap(lambda: time.sleep(0.02), "m.inner")

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    rec.wrap(outer_body, "m.outer")()
    (outer,) = [s for s in rec.spans if s.name == "m.outer"]
    inners = [s for s in rec.spans if s.name == "m.inner"]
    assert len(inners) == 2 and all(s.parent == outer.id for s in inners)
    selfs = tracer.self_times(rec.spans)
    assert selfs[outer.id] == pytest.approx(outer.wall - sum(s.wall for s in inners))
    assert 0.0 <= selfs[outer.id] < outer.wall
    # sleeping uses no CPU, so the thread CPU time stays below the wall time
    assert outer.cpu < outer.wall


def test_generator_is_timed_per_step_of_its_iteration():
    rec = Tracer()

    def gen(n):
        for i in range(n):
            time.sleep(0.02)
            yield i
        return "done"

    wrapped = rec.wrap(gen, "m.gen", probe=lambda counts, a, k, item: counts.update(hops=1))
    it = wrapped(3)
    assert rec.spans == []  # the call itself does no work
    got = []
    for item in it:
        time.sleep(0.1)  # the consumer's time is not the generator's
        got.append(item)
    assert got == [0, 1, 2]
    assert len(rec.spans) == 4  # three items, then the step that ends the iteration
    assert sum(s.counts.get("hops", 0) for s in rec.spans) == 3
    assert all(s.wall < 0.09 for s in rec.spans)
    assert sum(s.wall for s in rec.spans) >= 0.06

    def delegate():
        return (yield from rec.wrap(gen, "m.gen")(1))

    with pytest.raises(StopIteration) as stop:
        it = delegate()
        next(it)
        next(it)
    assert stop.value.value == "done"


def test_parent_is_the_innermost_open_span_of_the_same_thread():
    rec = Tracer()
    leaf = rec.wrap(lambda: None, "m.leaf")
    both_open = threading.Barrier(2, timeout=5)

    def body(name):
        with rec.span(name):
            both_open.wait()  # both threads hold an open span at once
            leaf()

    worker = threading.Thread(target=body, args=("w.outer",))
    worker.start()
    body("main.outer")
    worker.join(timeout=5)
    assert not worker.is_alive()
    outers = {s.name: s for s in rec.spans if s.name.endswith(".outer")}
    for s in rec.spans:
        if s.name == "m.leaf":
            (parent,) = [o for o in outers.values() if o.thread == s.thread]
            assert s.parent == parent.id
    assert outers["w.outer"].thread != outers["main.outer"].thread
    assert all(o.parent is None for o in outers.values())


def test_worker_thread_cpu_wait_and_parallelism():
    main, other = 1, 2
    spans = [
        Span(0, "analysis.random_search", main, None, 0.0, 4.0, cpu=0.1),
        Span(1, "gbdt.gbdt_train", other, None, 0.0, 4.0, cpu=2.5),
        Span(2, "gbdt.gbdt_train", other + 1, None, 1.0, 3.0, cpu=1.5),
    ]
    m = layers.per_layer(spans, ops=1, main_thread=main)
    assert m["analysis.worker_cpu_s"] == pytest.approx(4.0)
    assert m["analysis.gil_wait_s"] == pytest.approx(2.0)
    assert m["analysis.parallelism"] == pytest.approx(1.0)  # 4 CPU s over 4 s of pool wall
    assert m["gbdt.train_s"] == pytest.approx(6.0)


def test_spmm_flop_and_byte_counts_on_a_tiny_graph():
    graph, aggregate = pcapass("graph"), pcapass("aggregate")
    g = graph.prepare(graph.EdgeList(3, np.array([[0, 1], [1, 2]])))
    assert g.n_entries == 7  # four directed edges and three self-loops
    assert layers.spmm_model(nnz=7, n=3, f=2) == (28, 16 * 7 + 8 * 4 + 2 * 8 * 3 * 2)
    rec = Tracer()
    restore = tracer.install(rec, layers.PROBES)
    try:
        aggregate.aggregate(g, np.ones((3, 2)), aggregate.Aggregator.MEAN)
    finally:
        restore()
    (s,) = [s for s in rec.spans if s.name == "aggregate.aggregate"]
    assert s.counts == {"flop": 28, "bytes": 240}
    m = layers.per_layer(rec.spans, ops=1, main_thread=threading.get_ident())
    assert m["aggregate.computed_gflop"] == pytest.approx(28e-9)
    assert m["aggregate.computed_gbyte"] == pytest.approx(240e-9)
    assert m["aggregate.calls"] == 1


def test_install_wraps_functions_where_callers_look_them_up():
    graph, datasets, gbdt = pcapass("graph"), pcapass("datasets"), pcapass("gbdt")
    assert all(inspect.ismodule(m) for m in tracer.pcapass_modules())
    prepare, predict = graph.prepare, gbdt.Tree.predict
    restore = tracer.install(Tracer())
    try:
        assert datasets.prepare is graph.prepare is not prepare
        assert datasets.prepare.__wrapped__ is prepare
        assert gbdt.Tree.predict is not predict
    finally:
        restore()
    assert graph.prepare is prepare and datasets.prepare is prepare
    assert gbdt.Tree.predict is predict


def test_traced_embed_nests_hops_under_embed_and_layers_under_hops():
    graph, embed = pcapass("graph"), pcapass("embed")
    rng = np.random.default_rng(0)
    g = graph.prepare(graph.EdgeList(50, rng.integers(0, 50, (200, 2))))
    cfg = embed.EmbedConfig(k=3, d=4)
    rec = Tracer()
    restore = tracer.install(rec, layers.PROBES)
    try:
        embed.embed(g, rng.standard_normal((50, 6)), cfg)
    finally:
        restore()
    by_id = {s.id: s for s in rec.spans}
    (top,) = [s for s in rec.spans if s.name == "embed.embed"]
    hops = [s for s in rec.spans if s.name == "embed.hop_states"]
    assert all(s.parent == top.id for s in hops)
    for s in rec.spans:
        if s.layer in ("aggregate", "pca"):
            assert by_id[s.parent].name == "embed.hop_states"
    m = layers.per_layer(rec.spans, ops=1, main_thread=threading.get_ident())
    assert m["embed.hops"] == 3 and m["pca.fit_calls"] == 3 and m["aggregate.calls"] == 3
    assert all(v >= 0.0 for k, v in m.items() if k.endswith("self_s"))


def test_every_listed_per_layer_metric_is_computed_and_in_benchmark_json():
    computed = set(layers.per_layer([], ops=1, main_thread=0))
    traced_only = {n for n in layers.METRICS if n.startswith("trace.")}
    assert computed | traced_only == set(layers.METRICS)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.METRICS.items()
    ]
