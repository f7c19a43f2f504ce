"""Fuzzers for the file readers: any bytes give a parsed value or ValueError.

The CLI maps ValueError to exit code 2, so every other exception type a
reader lets escape would be an internal error (exit 3) on malformed input.
"""

import io
import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dothash.dedup import load_corpus_jsonl, load_pairs_csv
from dothash.linkpred import load_edge_list
from dothash.sketches import read_sketch

fuzz = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Lines that are mostly near-valid, some arbitrary bytes, some invalid UTF-8.
words = st.text(alphabet="ab1 #,\t\r\x0b\x85é　", max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["id", "text", "x"]), inner, max_size=3),
    max_leaves=6,
)
json_lines = st.one_of(
    st.builds(lambda i, t: json.dumps({"id": i, "text": t}), json_values, json_values),
    json_values.map(json.dumps),
    st.sampled_from(['{"id": 1e999, "text": ""}', '{"id": ' + "9" * 5000 + ', "text": ""}',
                     '{"id": "a", "text": "\\ud800"}', "[" * 3000, "{", '"']),
)


def byte_lines(text_lines):
    line = st.one_of(
        text_lines.map(lambda s: s.encode("utf-8")),
        st.binary(max_size=16),
        st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\r"]),
    )
    return st.lists(line, max_size=8).flatmap(
        lambda lines: st.sampled_from([b"\n", b"\r\n", b"\r"]).map(lambda sep: sep.join(lines))
    )


def parses_or_value_error(read, data):
    try:
        read(data)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "input"

    def write(data: bytes):
        path.write_bytes(data)
        return path

    return write


@fuzz
@given(byte_lines(words))
def test_edge_list(data):
    parses_or_value_error(lambda d: load_edge_list(io.BytesIO(d)), data)


@fuzz
@given(byte_lines(json_lines | words))
def test_corpus_jsonl(scratch_file, data):
    parses_or_value_error(load_corpus_jsonl, scratch_file(data))


@fuzz
@given(st.one_of(byte_lines(words), byte_lines(words).map(lambda d: b"id_a,id_b\n" + d)))
def test_pairs_csv(scratch_file, data):
    parses_or_value_error(load_pairs_csv, scratch_file(data))


headers = st.builds(
    lambda magic, version, kind, seed, size, card: struct.pack("<4sBBQIQ", magic, version, kind, seed, size, card),
    st.sampled_from([b"SKCH", b"SKCX"]),
    st.sampled_from([1, 1, 2]),
    st.integers(0, 4),
    st.integers(0, 2**64 - 1),
    st.one_of(st.integers(0, 20), st.just(2**32 - 1)),
    st.one_of(st.integers(0, 3), st.just(2**64 - 1)),
)
payloads = st.one_of(
    st.binary(max_size=200),
    st.lists(st.floats(width=64), max_size=20).map(lambda xs: struct.pack(f"<{len(xs)}d", *xs)),
    st.integers(0, 25).map(lambda n: b"\xff" * n),
    st.integers(0, 25).map(lambda n: b"\0" * n),
)


@fuzz
@given(st.one_of(st.binary(max_size=80), st.builds(lambda h, p: h + p, headers, payloads)))
def test_read_sketch(data):
    parses_or_value_error(lambda d: read_sketch(io.BytesIO(d)), data)
