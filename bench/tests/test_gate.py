"""Correctness gate, compare verdicts, input generators and BENCHMARK.json agreement."""

import json
from pathlib import Path

import numpy as np
import pytest

from compare import failure_verdict, gap_verdict, verdict
from dothash.dedup import make_planted_corpus
from dothash.linkpred import preferential_attachment_graph
from run import END_TO_END
from spans import PER_LAYER
from worker import Ledger
from workloads import WORKLOADS, CallResult, planted_corpus, preferential_attachment_edges

ROOT = Path(__file__).resolve().parents[2]


def _bounds_result(empirical: float, code: int = 0) -> dict[str, CallResult]:
    csv = f"d,epsilon,chebyshev,clt,empirical\n512,0.1,0.9,0.5,{empirical}\n".encode()
    return {"bounds": CallResult(code, 1.0, "", "", (csv,))}


def test_ledger_fails_changed_outputs_bad_exits_and_quality_gaps():
    ledger = Ledger(WORKLOADS["bounds-mc"])
    run_s, gap = ledger.check(_bounds_result(0.52))
    assert run_s == 1.0 and gap == pytest.approx(0.02)
    ledger.check(_bounds_result(0.52))
    assert (ledger.attempted, ledger.failed) == (2, 0)
    ledger.check(_bounds_result(0.53))  # differs from the first run's bytes
    ledger.check(_bounds_result(0.52, code=2))
    assert (ledger.attempted, ledger.failed) == (4, 2)

    far = Ledger(WORKLOADS["bounds-mc"])
    far.check(_bounds_result(0.9))  # |0.9 - 0.5| is outside the 0.1 tolerance
    assert far.failed == 1 and "quality gap" in far.notes[0]


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert verdict(parent, [x * 0.8 for x in parent], 0.1)[0] == "improved"
    assert verdict(parent, [x * 1.2 for x in parent], 0.1)[0] == "worse"
    assert verdict(parent, [x * 1.02 for x in parent], 0.1)[0] == "unchanged"
    assert verdict([1.0, 2.0], [0.5, 0.4], 0.1)[0] == "unchanged"  # too few pairs to claim
    # Host drift shared by both sides of each pair cancels in the ratios.
    drifting = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    assert verdict(drifting, [x * 1.2 for x in drifting], 0.1)[0] == "worse"
    assert verdict(drifting, [x * 1.02 for x in drifting], 0.1)[0] == "unchanged"
    # Noise within the pairs does not.
    jitter = [1.2, 0.8, 1.25, 0.85, 1.15, 0.75, 1.3, 0.9, 1.1, 0.8]
    assert verdict(parent, [a * j for a, j in zip(parent, jitter)], 0.1)[0] == "unresolved"


def test_guard_verdicts():
    assert gap_verdict([0.1, 0.2, 0.0], [0.1, 0.2, 0.0]) == "unchanged"
    assert gap_verdict([0.1, 0.2, 0.0], [0.1, 0.25, 0.0]) == "worse"  # one seed is enough
    assert gap_verdict([0.1, 0.2, 0.0], [0.05, 0.2, 0.0]) == "improved"
    assert gap_verdict([0.1, 0.2, 0.0], [0.05, 0.25, 0.0]) == "unresolved"
    # One failed operation in many is worse, although the median failed_frac is 0.
    assert failure_verdict(0, 1) == "worse"
    assert failure_verdict(2, 0) == "improved"
    assert failure_verdict(0, 0) == "unchanged"


def test_generators_follow_the_library_algorithms():
    edges = preferential_attachment_edges(200, 5, np.random.default_rng(9))
    canonical = sorted([min(u, v), max(u, v)] for u, v in edges)
    assert canonical == preferential_attachment_graph(200, 5, seed=9).edges().tolist()

    docs, pairs = planted_corpus(40, 10, 30, 500, 0.1, np.random.default_rng(4))
    lib_docs, lib_pairs = make_planted_corpus(40, 10, 30, 500, 0.1, seed=4)
    assert docs == [(d.doc_id, d.text) for d in lib_docs]
    assert pairs == lib_pairs


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
