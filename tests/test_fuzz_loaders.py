"""Fuzzers for the file readers: any bytes give a parsed value or ValueError.

The CLI maps ValueError to exit code 2, so every other exception type a
reader lets escape would be an internal error (exit 3) on malformed input.
The edge-list loader is also checked against a line-by-line parser, kept
here as the reference.
"""

import io
import json
import struct
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dothash import linkpred
from dothash.dedup import load_corpus_jsonl, load_pairs_csv
from dothash.linkpred import decode_line, graph_from_edges, load_edge_list
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


def stream(data: bytes | str):
    return io.StringIO(data) if isinstance(data, str) else io.BytesIO(data)


def reference_edge_list(data: bytes | str):
    """The edge-list loader as a Python loop over the lines of a binary or text stream."""
    label_index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    self_loops = 0
    for lineno, raw in enumerate(stream(data), start=1):
        line = decode_line(raw, lineno).strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        idx = []
        for token in tokens:
            if token not in label_index:
                label_index[token] = len(label_index)
            idx.append(label_index[token])
        u, v = idx
        if u == v:
            self_loops += 1
            continue
        edges.append((u, v))
    if not edges:
        raise ValueError("graph has no edges")
    labels = sorted(label_index, key=label_index.__getitem__)
    return graph_from_edges(len(label_index), edges, labels=labels, self_loops_dropped=self_loops)


def graph_or_error(load, data):
    try:
        g = load(data)
    except ValueError as exc:
        return str(exc)
    return g.indptr.tolist(), g.indices.tolist(), g.indices.dtype, g.labels, g.self_loops_dropped


# Edge files of ASCII two-label lines, with self-loops, '#' inside labels,
# whitespace around and between labels, comments and blank lines; half
# of them get one odd line: 1 or 3 labels, non-ASCII whitespace or labels,
# or bytes that are not UTF-8.
labels = st.sampled_from(["a", "b", "c", "10", "a#b", "\x00", "z\x7f"])
edge_line = st.builds(lambda lead, u, gap, v, tail: f"{lead}{u}{gap}{v}{tail}",
                      st.sampled_from(["", "", " ", "\t"]), labels,
                      st.sampled_from([" ", " ", "\t", "  ", "\r", "\x0b", "\x1f"]), labels,
                      st.sampled_from(["", "", " ", "\r"]))
comment_line = st.sampled_from(["#", "# a b c", "  #x", "#a b"])
blank_line = st.sampled_from(["", " ", "\t\r"])
odd_line = st.one_of(
    st.lists(labels, min_size=1, max_size=3).filter(lambda toks: len(toks) != 2).map(" ".join),
    st.sampled_from(["a\x85b", "\u00e9 b", "a\u3000b c", "\u2028a b"]),
).map(lambda line: line.encode("utf-8")) | st.sampled_from([b"\xff b", b"a \xc3", b"\xed\xa0\x80"])
edge_files = st.builds(
    lambda lines, odd, at, end: b"\n".join(lines[:at] + ([odd] if odd else []) + lines[at:]) + end,
    st.lists(st.one_of(edge_line, edge_line, comment_line, blank_line).map(str.encode), max_size=10),
    st.none() | odd_line, st.integers(0, 10), st.sampled_from([b"", b"\n", b"\r\n"]),
)


@fuzz
@given(edge_files)
# A multibyte sequence cut short before LF and at the end of the input.
@example(b"1 2\na \xc3\n3 4\n")
@example(b"1 2\na \xc3")
@example(b"\xed\xa0\x80 a\n")  # an encoded surrogate
@example(b"# \xff\n1 2\n")  # a comment is decoded too
# The first bad line is reported, whichever of the two errors it holds.
@example(b"1 2\n1 2 3\n\xff\n")
@example(b"1 2\n\xff\n1 2 3\n")
@example("1 2\na \ud800\n")  # a text stream with a lone surrogate
def test_edge_list_matches_the_line_parser(data):
    expected = graph_or_error(reference_edge_list, data)
    assert graph_or_error(lambda d: load_edge_list(stream(d)), data) == expected


@fuzz
@given(edge_files, st.integers(1, 12), st.booleans())
# CRLF lines on both sides of a cut, and a cut between CR and LF if a window ended there.
@example(b"a b\r\nc d\r\n1 2 3\r\n", 4, False)
@example(b"a b\r\nc d\r\n\xff\r\n", 3, False)
@example(b"1 2\n\xc3\xa9 3\n\xc3 4\n", 5, False)  # a cut inside a two-byte sequence, then one cut short
@example(b"# a b c\n\n1 2\n#\n\n2 2 2\n", 1, True)
@example(b"a b\r\n\r\n  \r\nb c\r\n\xed\xa0\x80 x\r\n", 2, True)
def test_edge_windows_match_the_line_parser(data, window, as_text):
    # Windows of a few bytes or characters, so most lines span windows; a
    # window cut anywhere but just after an LF splits a line in two.
    if as_text:
        data = data.decode("utf-8", "surrogateescape")
    with mock.patch.object(linkpred, "_EDGE_WINDOW", window):
        got = graph_or_error(lambda d: load_edge_list(stream(d)), data)
    assert got == graph_or_error(reference_edge_list, data)


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
