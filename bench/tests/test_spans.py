"""Self-time arithmetic, tracer install/uninstall, and traced runs of small workloads.

Run with ``python3 -m pytest bench/tests`` from the root of a checkout.
"""

import csv
import io
import json
from dataclasses import replace

import pytest

import dothash.cli
from dothash import linkpred
from dothash.encoding import Codebook
from spans import PER_LAYER, Tracer, install_probes, layer_metrics, self_times
from worker import Ledger, run_calls, serve, traced_iteration
from workloads import WORKLOADS


def test_self_times_subtract_the_union_of_clipped_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),   # overlaps its sibling: [1, 6] is covered once
        ("c", 2.0, 3.0, 1),   # grandchild of root, child of the first "a"
        ("a", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts against root
    ]
    times = self_times(spans)
    assert times["root"] == pytest.approx((10.0, 10.0 - 5.0 - 2.0))
    assert times["a"] == pytest.approx((3.0 + 4.0, 2.0 + 4.0))
    assert times["b"] == pytest.approx((3.0, 3.0))
    assert times["c"] == pytest.approx((1.0, 1.0))


def test_a_missing_probe_target_is_an_error(monkeypatch):
    original = linkpred.load_edge_list  # wrapped before the missing name is reached
    monkeypatch.delattr(linkpred, "split_edges")
    tracer = Tracer()
    with pytest.raises(AttributeError, match="split_edges"):
        install_probes(tracer)
    tracer.uninstall()
    assert linkpred.load_edge_list is original


def test_tracer_restores_every_wrapped_name():
    originals = (linkpred.dothash_build, Codebook.sign_bits, vars(linkpred.Graph)["has_edge"],
                 dothash.cli.main)
    tracer = Tracer()
    install_probes(tracer)
    assert linkpred.dothash_build is not originals[0]
    tracer.uninstall()
    assert (linkpred.dothash_build, Codebook.sign_bits, vars(linkpred.Graph)["has_edge"],
            dothash.cli.main) == originals


def _traced_run(workload, tmp_path):
    inputs, outputs = tmp_path / "inputs", tmp_path / "outputs"
    inputs.mkdir(parents=True)
    outputs.mkdir()
    workload.generate(7, inputs)
    calls = workload.calls(inputs, outputs, cli_seed=3)
    ledger = Ledger(workload)
    ledger.check(run_calls(dothash.cli, calls))
    layers = []
    for _ in range(2):
        results, metrics = traced_iteration(dothash.cli, calls)
        ledger.check(results)
        layers.append(metrics)
    assert ledger.failed == 0, ledger.notes
    return layers


SMALL = {
    "linkpred-aa": replace(WORKLOADS["linkpred-aa"], nodes=300, attach=4, dims=1024, repeats=2,
                           k_at=10),
    "dedup-idf": replace(WORKLOADS["dedup-idf"], docs=60, dup_pairs=15, words_per_doc=60,
                         vocab=2000, edit_rate=0.1, dims=1024, negatives=100, k_at=10),
}


@pytest.mark.parametrize("name, key", [("linkpred-aa", "linkpred.negatives.accept_ratio"),
                                       ("dedup-idf", "encoding.element_id.calls")])
def test_traced_counts_repeat_exactly(tmp_path, name, key):
    first = _traced_run(SMALL[name], tmp_path / "first")
    second = _traced_run(SMALL[name], tmp_path / "second")
    units = dict(PER_LAYER)
    counts = [{m: v for m, v in layer.items() if units[m] != "s"} for layer in first + second]
    assert all(c == counts[0] for c in counts)
    assert counts[0][key] > 0


def test_sketch_neighborhoods_span_matches_cli_build_seconds(tmp_path):
    workload = SMALL["linkpred-aa"]
    workload.generate(5, tmp_path)
    out = tmp_path / "timed.csv"
    tracer = Tracer()
    install_probes(tracer)
    try:
        assert dothash.cli.main(["linkpred", "--edges", str(tmp_path / "edges.txt"),
                                 "--estimator", "dothash", "--metric", "adamic_adar",
                                 "--dims", "1024", "--repeats", "3", "--timings",
                                 "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    build_seconds = float(next(csv.DictReader(io.StringIO(out.read_text())))["build_seconds"])
    total, _ = self_times(tracer.spans)["linkpred.sketch_neighborhoods"]
    per_repeat = total / tracer.counts["linkpred.sketch_neighborhoods.calls"]
    assert per_repeat == pytest.approx(build_seconds, rel=0.05, abs=1e-3)
    assert layer_metrics(tracer.spans, tracer.counts)["sketches.dothash_build.calls"] == 3 * 300


def test_worker_protocol_gates_calls_and_reports(tmp_path):
    workload = SMALL["dedup-idf"]
    workload.generate(2, tmp_path)
    calls = workload.calls(tmp_path, tmp_path, cli_seed=1)
    commands = [json.dumps(c) + "\n" for c in
                ({"call": 0}, {"call": 1}, {"check": True}, {"trace": True}, {"report": True})]
    replies = []
    serve(dothash.cli, workload, calls, commands, replies.append)
    ready, first, second, check, trace, report = replies
    assert ready["ready"] and ready["cpu_s"] > 0
    for call in (first, second):
        assert 0 < call["cpu_s"] <= 2 * call["wall_s"]
    assert trace["quality_gap"] == check["quality_gap"]
    assert trace["layers"]["dedup.shingle.docs"] == 2 * workload.docs
    assert (report["attempted"], report["failed"]) == (4, 0)
    assert sorted(report["digests"]) == ["dedup-dothash", "dedup-exact"]
