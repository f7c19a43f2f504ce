"""The estimator table is the one list of estimators, and every file-coded entry round-trips.

``sketches.ESTIMATORS`` names the estimators that the CLI offers and that
``linkpred.Estimator`` enumerates; ``sketch`` offers only those with a file
code.  Each such entry writes, reads and prints an empty and a non-empty
sketch, and the bytes and JSON it reads back are those it wrote.
"""

import io
import json

import numpy as np
import pytest

from dothash import cli
from dothash.dedup import DedupMetric
from dothash.linkpred import Estimator, Metric
from dothash.sketches import _HEADER, ESTIMATORS, build_sketch, read_sketch, sketch_to_json, write_sketch

FILE_CODED = [name for name, entry in ESTIMATORS.items() if entry.code is not None]


def _choices(subcommand: str, dest: str = "estimator") -> list[str]:
    subparsers = next(action for action in cli._PARSER._actions if action.dest == "subcommand")
    parser = subparsers.choices[subcommand]
    return next(action for action in parser._actions if action.dest == dest).choices


def test_every_estimator_choice_is_a_table_name():
    assert list(ESTIMATORS) == ["dothash", "minhash", "simhash", "exact"]
    assert [estimator.value for estimator in Estimator] == list(ESTIMATORS)
    assert _choices("linkpred") == list(ESTIMATORS)
    assert _choices("dedup") == list(ESTIMATORS)
    assert _choices("sketch") == FILE_CODED == ["dothash", "minhash", "simhash"]


def test_every_metric_choice_is_an_enum_value():
    # cli spells these out, since it must not import linkpred or dedup at start-up.
    assert _choices("linkpred", "metric") == [metric.value for metric in Metric]
    assert _choices("dedup", "metric") == [metric.value for metric in DedupMetric]


def test_file_codes_are_distinct_and_only_sketches_take_a_size():
    codes = [ESTIMATORS[name].code for name in FILE_CODED]
    assert len(set(codes)) == len(codes)
    assert all(ESTIMATORS[name].size_flag in ("dims", "k") for name in FILE_CODED)
    assert ESTIMATORS["exact"].size_flag is None


def _round_trip(sketch) -> tuple[bytes, object]:
    out = io.BytesIO()
    write_sketch(sketch, out)
    return out.getvalue(), read_sketch(io.BytesIO(out.getvalue()))


@pytest.mark.parametrize("name", FILE_CODED)
@pytest.mark.parametrize("elements", [[], [3, 1, 4, 1, 5, 9, 2, 6, 2**64 - 1]], ids=["empty", "set"])
def test_each_sketch_kind_round_trips_byte_for_byte(name, elements):
    entry = ESTIMATORS[name]
    sketch = build_sketch(name, np.int64(-7), 77, np.array(elements, dtype=np.uint64))
    data, back = _round_trip(sketch)
    again, _ = _round_trip(back)
    assert type(back) is entry.sketch and again == data
    assert sketch_to_json(back) == sketch_to_json(sketch)
    record = json.loads(sketch_to_json(back))
    assert (record["kind"], record["seed"], record["dims_or_k"]) == (name, 2**64 - 7, 77)
    assert record["cardinality"] == len(set(elements))
    payload = getattr(back, entry.payload)
    assert payload.dtype == entry.dtype and payload.size == entry.width(77)
    assert payload.tobytes() == getattr(sketch, entry.payload).tobytes()
    assert not payload.flags.writeable
    if not elements:
        assert data[_HEADER.size:] == entry.empty * (len(data) - _HEADER.size)
