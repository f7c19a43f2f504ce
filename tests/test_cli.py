"""Tests for the command-line interface: wiring, formats, and exit codes."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dothash import bounds as bounds_mod
from dothash import cli, sketches
from dothash import dedup as dedup_mod
from dothash import linkpred as linkpred_mod
from dothash.bounds import BoundsQuery, clt_tail
from dothash.cli import main
from dothash.dedup import make_planted_corpus
from dothash.encoding import Codebook, element_id, element_ids
from dothash.linkpred import erdos_renyi_graph, preferential_attachment_graph
from dothash.sketches import dothash_build, dothash_intersection, read_sketch


def _subprocess_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports this checkout's dothash."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_run(argv: list[str]) -> None:
    """Run ``dothash <argv>`` to exit 0 in a new interpreter, with its own ``str`` hash seed.

    glibc fills the interpreter's fresh allocations with 0x5a bytes, so an
    output that reads unset ``np.empty`` memory differs from the first run's
    even where a new page would hold zeros.
    """
    env = dict(_subprocess_env(), PYTHONHASHSEED="random", MALLOC_PERTURB_="165")
    result = subprocess.run([sys.executable, "-m", "dothash.cli", *argv], capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.fixture()
def element_file(tmp_path):
    path = tmp_path / "elements.txt"
    path.write_text("".join(f"item-{i}\n" for i in range(100)))
    return path


def _write_graph(tmp_path, graph, name="graph.txt", shuffle_seed=None):
    """The graph's edges as "u v" lines, sorted, or in a seeded random order."""
    path = tmp_path / name
    lines = [f"{u} {v}" for u, v in graph.edges().tolist()]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_corpus(tmp_path, n_docs=40, n_dup_pairs=10, words_per_doc=60, **planted):
    docs, pairs = make_planted_corpus(n_docs, n_dup_pairs, words_per_doc, seed=20, **planted)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": d.doc_id, "text": d.text}) + "\n" for d in docs))
    labels = tmp_path / "labels.csv"
    labels.write_text("id_a,id_b\n" + "".join(f"{a},{b}\n" for a, b in pairs))
    return corpus, labels


@pytest.fixture(scope="module")
def console_inputs(tmp_path_factory) -> Path:
    """The input files of the console runs below: a few lines each, or just over one read window."""
    root = tmp_path_factory.mktemp("console")
    rng = random.Random(1)
    crlf_edges = b"".join(b"%d %d\r\n" % (rng.randrange(300), min(rng.randrange(300) for _ in range(3)))
                          for _ in range(10000))
    documents = [("a", "the quick brown fox jumps over the lazy dog"),
                 ("b", "the quick brown fox leaps over the lazy dog"),
                 ("d", "lorem ipsum dolor sit amet consectetur"),
                 ("c", "caf\u00e9 na\u00efve r\u00e9sum\u00e9, d\u00e9j\u00e0 vu encore")]
    files = {
        # CRLF lines, a comment and a non-ASCII label.
        "edges.txt": b"a b\r\nb c\r\n# x y z\nc \xc3\xa9\n\xc3\xa9 a\n",
        # Over one 64 KiB read window with CRLF lines on both sides of every cut, and its LF copy.
        "crlf_edges.txt": crlf_edges,
        "lf_edges.txt": crlf_edges.replace(b"\r", b""),
        # A labeled duplicate pair and a non-ASCII document, in raw UTF-8.
        "corpus.jsonl": "".join(f'{{"id": "{i}", "text": "{text}"}}\n' for i, text in documents).encode(),
        "labels.csv": b"id_a,id_b\na,b\n",
        # Over one 256 KiB read window, mixing ASCII and non-ASCII lines.
        "mixed.txt": "".join(f"tok-{i}\n" if i % 3 else f"caf\u00e9-{i}\n" for i in range(30000)).encode(),
        "tokens70k.txt": "".join(f"tok-{i}\n" for i in range(70000)).encode(),
    }
    for name, data in files.items():
        (root / name).write_bytes(data)
    return root


class TestSketchCommand:
    @pytest.mark.parametrize("data, flags, cardinality", [
        (None, ["--estimator", "dothash", "--dims", "32"], 0),
        (b"a\rb\rc\r", ["--estimator", "simhash", "--dims", "64"], 3),
    ], ids=["empty", "cr-line-ends"])
    def test_stdin_cardinality(self, tmp_path, monkeypatch, capsys, data, flags, cardinality):
        stdin = io.StringIO("") if data is None else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        out = tmp_path / "s.bin"
        assert main(["sketch", *flags, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cardinality"] == cardinality

    @pytest.mark.parametrize("tokens, flags, digest", [
        (None, ["--estimator", "minhash", "--k", "64", "--seed", "9"],
         "f8252ed4460dc48ef599d75b5709cba8176e5207cbf536a3be93b25111c1e246"),
        # The unit-sum counter takes 3 and 69 row chunks at d = 65 and 4096.
        ("tokens70k.txt", ["--estimator", "dothash", "--dims", "65", "--seed", "7"],
         "60d2bdc453454b488e11eef32c4373906815bd8cebc271b77392d3dd3ba3a51d"),
        ("tokens70k.txt", ["--estimator", "dothash", "--dims", "4096", "--seed", "7"],
         "faf59c7c8a8b1145ef5fc73df673e5760476f3fd1bb80ed743f355acf9100c0b"),
        ("tokens70k.txt", ["--estimator", "simhash", "--dims", "65", "--seed", "7"],
         "61d4a0caaff930674a0d909df2ab82f8b51cabf66fbf5f3c17035ef82bfe5176"),
        ("tokens70k.txt", ["--estimator", "simhash", "--dims", "4096", "--seed", "7"],
         "2df580cc3c48c39243be46dd1fd435391aa1ead0df7fce131c0d732bd1bb111f"),
    ], ids=["minhash-64", "dothash-65", "dothash-4096", "simhash-65", "simhash-4096"])
    def test_deterministic_bytes(self, tmp_path, element_file, console_inputs, tokens, flags, digest):
        # Sketch files are the same bytes on every CPU.
        out1, out2 = tmp_path / "s1.bin", tmp_path / "s2.bin"
        args = ["sketch", *flags, "--input", str(console_inputs / tokens if tokens else element_file)]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert hashlib.sha256(out1.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("tokens, flags, summary", [
        (None, ["--estimator", "dothash", "--dims", "4096", "--seed", "3"],
         {"kind": "dothash", "dims_or_k": 4096, "cardinality": 100, "seed": 3}),
        ("mixed.txt", ["--estimator", "minhash", "--k", "16"],
         {"kind": "minhash", "dims_or_k": 16, "cardinality": 30000, "seed": 0}),
    ], ids=["items", "mixed-windows"])
    def test_summary_fields(self, tmp_path, element_file, console_inputs, capsys, tokens, flags, summary):
        out = tmp_path / "s.bin"
        assert main(["sketch", *flags, "--input", str(console_inputs / tokens if tokens else element_file),
                     "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out) == summary

    def test_summary_prints_the_seed_as_given(self, tmp_path, element_file, capsys):
        # The codebook keeps -1 as 2**64 - 1, so both seeds write one file.
        files = []
        for seed in ("-1", str(2**64 - 1)):
            files.append(tmp_path / f"seed{seed}.bin")
            assert main(["sketch", "--estimator", "simhash", "--dims", "64", "--seed", seed,
                         "--input", str(element_file), "--out", str(files[-1])]) == 0
            assert json.loads(capsys.readouterr().out)["seed"] == int(seed)
        assert files[0].read_bytes() == files[1].read_bytes()

    @pytest.mark.parametrize("estimator, flag", [("dothash", "--dims"), ("simhash", "--dims"), ("minhash", "--k")])
    def test_size_past_the_file_header_exits_two_before_building(
        self, tmp_path, element_file, monkeypatch, capsys, estimator, flag
    ):
        # The header stores the size as a u32; simhash at 2**32 dims once
        # tried to allocate 32 GiB and exited 3 with MemoryError.
        def refuse(*args, **kwargs):
            raise AssertionError("no codebook, family or sketch may be built")

        for name in ("Codebook", "MinwiseFamily", "dothash_build_many", "simhash_build_many", "minhash_build_many"):
            monkeypatch.setattr(sketches, name, refuse)
        out = tmp_path / "s.bin"
        code = main(["sketch", "--estimator", estimator, flag, str(2**32),
                     "--input", str(element_file), "--out", str(out)])
        assert code == 2
        assert f"{flag} 4294967296 exceeds the sketch file's limit of 4294967295" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_size_flag_is_usage_error(self, tmp_path, element_file):
        code = main(["sketch", "--estimator", "dothash", "--input", str(element_file),
                     "--out", str(tmp_path / "x.bin")])
        assert code == 1

    @pytest.mark.parametrize("estimator, flags", [("minhash", ["--k", "8", "--dims", "999"]),
                                                  ("dothash", ["--dims", "8", "--k", "999"]),
                                                  ("simhash", ["--dims", "8", "--k", "999"])])
    def test_size_flag_the_estimator_does_not_take_is_usage_error(self, tmp_path, element_file, capsys,
                                                                  estimator, flags):
        out = tmp_path / "x.bin"
        assert main(["sketch", "--estimator", estimator, *flags, "--input", str(element_file),
                     "--out", str(out)]) == 1
        assert f"dothash: error: {estimator} does not take {flags[-2]}" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_input_is_data_error(self, tmp_path):
        code = main(["sketch", "--estimator", "dothash", "--dims", "8",
                     "--input", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "x.bin")])
        assert code == 2

    @pytest.mark.parametrize("data, dims, error", [
        (b"a\n\xff\n", "32", "line 2: 'utf-8' codec can't decode byte 0xff"),
        # After the first 256 KiB read window.
        (b"tok\n" * 70000 + b"\xff\n", "64", "line 70001: 'utf-8' codec can't decode byte 0xff in position 280000"),
    ], ids=["second-line", "past-a-window"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_tokens_name_the_line(self, tmp_path, monkeypatch, capsys, source, data, dims, error):
        args = ["sketch", "--estimator", "dothash", "--dims", dims, "--out", str(tmp_path / "s.bin")]
        if source == "file":
            tokens = tmp_path / "tokens.txt"
            tokens.write_bytes(data)
            args += ["--input", str(tokens)]
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(args) == 2
        assert f"dothash: error: {error}" in capsys.readouterr().err

    def test_stdin_and_file_give_one_sketch(self, tmp_path, monkeypatch):
        # Both are read as UTF-8 bytes, whatever encoding stdin's text layer has.
        data = "caf\u00e9\r\nb\n\n  c  \rd".encode("utf-8")
        tokens = tmp_path / "tokens.txt"
        tokens.write_bytes(data)
        from_file, from_stdin = tmp_path / "f.bin", tmp_path / "s.bin"
        args = ["sketch", "--estimator", "minhash", "--k", "16"]
        assert main(args + ["--input", str(tokens), "--out", str(from_file)]) == 0
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))
        assert main(args + ["--out", str(from_stdin)]) == 0
        assert from_file.read_bytes() == from_stdin.read_bytes()
        with open(from_file, "rb") as fp:
            assert read_sketch(fp).cardinality == 4


def _reference_read_elements(data: bytes) -> np.ndarray:
    """The token reader without windows: decode the whole input, split lines, strip, hash."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {lineno}: {exc}") from None
    return element_ids(token for token in map(str.strip, lines) if token)


# Token text with whitespace that str.strip removes at line edges (tab,
# space, \x1f, \x85 in UTF-8) and control bytes it keeps; every line break
# of str.splitlines; bytes that are not UTF-8.
_token_text = st.text(alphabet="ab#\u00e9\x00\x1f\x85 \t", max_size=6)
_line_breaks = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                "\u2028", "\u2029"])
_utf8_tokens = st.lists(st.one_of(_token_text, _line_breaks), max_size=12).map(
    lambda pieces: "".join(pieces).encode("utf-8"))
_token_files = st.one_of(
    _utf8_tokens,
    st.tuples(_utf8_tokens, st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x85"]), _utf8_tokens)
    .map(b"".join),
)


@pytest.fixture(scope="module")
def token_file(tmp_path_factory):
    return tmp_path_factory.mktemp("tokens") / "tokens.txt"


def _ids_or_error(read, source) -> list | str:
    """``read(source)``'s ids as a list, or the text of the ValueError it raised."""
    try:
        return read(source).tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=_token_files, from_stdin=st.booleans())
@example(data=b"", from_stdin=False)
@example(data=b"", from_stdin=True)
@example(data=b"tok-1\r\ntok-2\rtok-3\x0btok-4\x0c\x1ctok-5\x1d\x1etok 6\ttab\n\ntok-7", from_stdin=False)
@example(data=b" a\n", from_stdin=False)
@example(data=b"a\t\n", from_stdin=True)
@example(data=b"a\n\xff\n", from_stdin=True)
def test_token_reader_matches_the_decoding_path(token_file, data, from_stdin):
    try:
        expected = _reference_read_elements(data).tolist()
    except ValueError as exc:
        expected = str(exc)
    token_file.write_bytes(data)
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with mock.patch.object(sys, "stdin", stdin):
        try:
            got = cli._read_elements("-" if from_stdin else str(token_file))
        except ValueError as exc:
            got = str(exc)
        else:
            assert got.dtype == np.uint64
            got = got.tolist()
    assert got == expected


@pytest.mark.parametrize("data", [b"", b"\n\n", b"tok-1\n", b"a b\r\nc\x00d\x1c\x0b\x0c\r\x1d\x1eLast"])
def test_plain_ascii_tokens_take_the_byte_path(token_file, data):
    token_file.write_bytes(data)
    with mock.patch.object(cli, "_token_bytes", side_effect=AssertionError("window decoded")):
        got = _ids_or_error(cli._read_elements, str(token_file))
    assert got == _ids_or_error(_reference_read_elements, data)


@pytest.mark.parametrize("data", [b" a\n", b"a \n", b"a\t", b"a\x1f\n", "caf\u00e9\n".encode("utf-8"), b"\xff"])
def test_edge_whitespace_and_other_bytes_take_the_decoding_path(token_file, data):
    token_file.write_bytes(data)
    with mock.patch.object(cli, "_token_bytes", wraps=cli._token_bytes) as decode:
        got = _ids_or_error(cli._read_elements, str(token_file))
    assert got == _ids_or_error(_reference_read_elements, data)
    decode.assert_called_once()


class TestCompareCommand:
    def test_self_compare_minhash(self, tmp_path, element_file, capsys):
        out = tmp_path / "m.bin"
        main(["sketch", "--estimator", "minhash", "--k", "32", "--input", str(element_file),
              "--out", str(out)])
        capsys.readouterr()
        assert main(["compare", str(out), str(out)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["metric"] == "jaccard"
        assert record["estimate"] == 1.0

    def test_kind_mismatch_exits_nonzero(self, tmp_path, element_file, capsys):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        main(["sketch", "--estimator", "minhash", "--k", "32", "--input", str(element_file),
              "--out", str(a)])
        main(["sketch", "--estimator", "dothash", "--dims", "32", "--input", str(element_file),
              "--out", str(b)])
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 2
        assert "kind mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, error", [(["--k", "16", "--seed", "2"], "k mismatch (8 vs 16)"),
                                              (["--k", "8", "--seed", "2"], "seed mismatch (1 vs 2)")],
                             ids=["k", "seed"])
    def test_mismatched_empty_minhash_sketches_exit_two(self, tmp_path, capsys, flags, error):
        # Two empty sets have no Jaccard estimate, but sketches of another k
        # or seed are still not comparable; such a pair once printed null.
        empty, a, b = tmp_path / "empty.txt", tmp_path / "a.bin", tmp_path / "b.bin"
        empty.write_text("")
        sketch = ["sketch", "--estimator", "minhash", "--input", str(empty)]
        assert main([*sketch, "--k", "8", "--seed", "1", "--out", str(a)]) == 0
        assert main([*sketch, *flags, "--out", str(b)]) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 2
        assert capsys.readouterr().err == f"dothash: error: incompatible sketches: {error}\n"

    @pytest.mark.parametrize("flags, views", [
        (["--estimator", "dothash", "--dims", "8"], '"estimate": 0.0, "jaccard": null, "kind": "dothash", '
                                                    '"metric": "intersection"'),
        (["--estimator", "minhash", "--k", "8"], '"estimate": null, "kind": "minhash", "metric": "jaccard"'),
        (["--estimator", "simhash", "--dims", "8"], '"estimate": 1.0, "kind": "simhash", "metric": "similarity"'),
    ], ids=["dothash", "minhash", "simhash"])
    def test_two_empty_sketches_print_the_scalar_compare(self, tmp_path, capsys, flags, views):
        # compare's both-empty rule (the dothash.sketches docstring): what the
        # scalar compare gives, and null where it is an undefined Jaccard.
        empty, a, b = tmp_path / "empty.txt", tmp_path / "a.bin", tmp_path / "b.bin"
        empty.write_text("")
        assert main(["sketch", *flags, "--input", str(empty), "--out", str(a)]) == 0
        assert main(["sketch", *flags, "--input", str(empty), "--out", str(b)]) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        assert capsys.readouterr().out == '{"cardinalities": [0, 0], "dims_or_k": 8, %s}\n' % views

    def test_malformed_sketch_files_exit_two(self, tmp_path, element_file, capsys):
        good = tmp_path / "d.bin"
        main(["sketch", "--estimator", "dothash", "--dims", "8", "--input", str(element_file),
              "--out", str(good)])
        trailing, non_finite = tmp_path / "trailing.bin", tmp_path / "nan.bin"
        trailing.write_bytes(good.read_bytes() + b"\x00")
        non_finite.write_bytes(good.read_bytes()[:-8] + np.float64("nan").tobytes())
        capsys.readouterr()
        assert main(["compare", str(good), str(trailing)]) == 2
        assert "trailing bytes" in capsys.readouterr().err
        assert main(["compare", str(non_finite), str(good)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_simhash_padding_bits_exit_two(self, tmp_path, element_file, capsys):
        good = tmp_path / "s.bin"
        main(["sketch", "--estimator", "simhash", "--dims", "3", "--input", str(element_file),
              "--out", str(good)])
        padded = tmp_path / "padded.bin"
        padded.write_bytes(good.read_bytes()[:-1] + bytes([good.read_bytes()[-1] | 0b1111_1000]))
        capsys.readouterr()
        assert main(["compare", str(good), str(padded)]) == 2
        assert "padding bits" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [1, 2, 3], ids=["dothash", "minhash", "simhash"])
    def test_size_zero_exits_two(self, tmp_path, capsys, kind):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(struct.pack("<4sBBQIQ", b"SKCH", 1, kind, 0, 0, 5))
        b.write_bytes(struct.pack("<4sBBQIQ", b"SKCH", 1, kind, 0, 0, 3))
        assert main(["compare", str(a), str(b)]) == 2
        assert "size 0" in capsys.readouterr().err

    def test_cardinality_zero_with_payload_exits_two(self, tmp_path, capsys):
        # Read as is, this file compared with itself as estimate 4.0.
        forged = tmp_path / "forged.bin"
        forged.write_bytes(struct.pack("<4sBBQIQ", b"SKCH", 1, 1, 0, 4, 0) + np.ones(4, "<f8").tobytes())
        assert main(["compare", str(forged), str(forged)]) == 2
        assert "cardinality 0" in capsys.readouterr().err

    def test_oversized_header_exits_two_without_allocating(self, tmp_path):
        pytest.importorskip("resource")
        # 26 header bytes that declare 2**32 - 1 DotHash dims, a 32 GiB payload.
        sketch = tmp_path / "huge.bin"
        sketch.write_bytes(struct.pack("<4sBBQIQ", b"SKCH", 1, 1, 0, 2**32 - 1, 0))
        # Under a 2 GiB address-space limit, allocating the declared size fails.
        script = (
            "import resource, sys\n"
            "from dothash.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "sys.exit(main(['compare', sys.argv[1], sys.argv[1]]))\n"
        )
        result = subprocess.run([sys.executable, "-c", script, str(sketch)], capture_output=True,
                                text=True, env=_subprocess_env(), timeout=120)
        assert result.returncode == 2, result.stderr
        assert "payload too short" in result.stderr

    def test_matches_library_intersection(self, tmp_path, element_file, capsys):
        out = tmp_path / "d.bin"
        main(["sketch", "--estimator", "dothash", "--dims", "2048", "--seed", "5",
              "--input", str(element_file), "--out", str(out)])
        capsys.readouterr()
        assert main(["compare", str(out), str(out)]) == 0
        record = json.loads(capsys.readouterr().out)
        elements = [element_id(f"item-{i}") for i in range(100)]
        sketch = dothash_build(Codebook(seed=5, dims=2048), elements)
        assert record["estimate"] == dothash_intersection(sketch, sketch)
        with open(out, "rb") as fp:
            assert np.array_equal(read_sketch(fp).values, sketch.values)

    def test_self_estimate_within_three_sigma(self, tmp_path, element_file, capsys):
        # |A| = 100 at d=4096: self-intersection within 3*sqrt(Var) of 100
        out = tmp_path / "d.bin"
        main(["sketch", "--estimator", "dothash", "--dims", "4096", "--seed", "6",
              "--input", str(element_file), "--out", str(out)])
        capsys.readouterr()
        main(["compare", str(out), str(out)])
        record = json.loads(capsys.readouterr().out)
        sigma = math.sqrt((100 * 100 + 100 * 100 - 200) / 4096)
        assert abs(record["estimate"] - 100) <= 3 * sigma


class TestBoundsCommand:
    def test_clt_column_matches_library(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--size-a", "100", "--size-b", "100", "--size-int", "50",
                     "--dims", "256", "--eps-min", "0.1", "--eps-max", "0.4",
                     "--eps-points", "4", "--trials", "50", "--seed", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d,epsilon,chebyshev,clt,empirical"
        for line in lines[1:]:
            d, eps, cheb, clt, emp = line.split(",")
            q = BoundsQuery(size_a=100, size_b=100, size_int=50, dims=int(d), epsilon=float(eps))
            assert float(clt) == pytest.approx(clt_tail(q), abs=1e-6)
            assert 0.0 <= float(emp) <= 1.0

    def test_zero_trials_exits_two(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--size-a", "10", "--size-b", "10", "--size-int", "5",
                     "--dims", "64", "--trials", "0", "--out", str(out)]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--size-a", "50", "--size-b", "50", "--size-int", "20", "--dims", "128", "--trials", "100", "--seed", "7"],
        # 5 seed chunks, the last one partial.
        ["--size-a", "60", "--size-b", "80", "--size-int", "30", "--dims", "8", "--trials", "70000"],
    ], ids=["one-chunk", "partial-chunk"])
    def test_byte_identical_reruns(self, tmp_path, flags):
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert main(["bounds", *flags, "--out", str(out1)]) == 0
        _fresh_run(["bounds", *flags, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flags, columns, digest", [
        # The benchmark's bounds-mc flags at seed 7, whose seed chunks count
        # each set in one row chunk; the digest was recorded before the sweep
        # hashed once at the largest d.
        (["--size-a", "200", "--size-b", "200", "--size-int", "100", "--dims", "512", "1024", "2048",
          "--trials", "1000", "--seed", "7"],
         None, "216c2b2b898997050bbbcba7fc2054076cbbd7646cc6534d45651c4a79157688"),
        # Sets too large for one row chunk at any seed count.  Only the d,
        # epsilon and empirical columns: they come from integer counts and
        # linspace, and the chebyshev and clt columns from the C library's erf.
        (["--size-a", "6000", "--size-b", "6000", "--size-int", "1000", "--dims", "2048", "64", "--trials", "20",
          "--eps-points", "5", "--seed", "7"],
         [0, 1, 4], "a5361c629394795c471eb0a6a14e4eaf90dcdb5ab1780272968761158dbcf688"),
    ], ids=["benchmark-flags", "row-chunks"])
    def test_output_is_pinned(self, tmp_path, flags, columns, digest):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", *flags, "--out", str(out)]) == 0
        data = out.read_bytes()
        if columns is not None:
            # The columns as ``cut -d, -f`` keeps them: lines end at b"\n"
            # only, so a stray b"\r" stays in the last field.
            rows = [line.split(b",") for line in data.removesuffix(b"\n").split(b"\n")]
            data = b"".join(b",".join(row[c] for c in columns) + b"\n" for row in rows)
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("dims, digest", [
        ("256", "8ecf2e7e51a70012d2c947b3e896b55945804671e8105136dda994d277700e77"),
        ("200", "4f46a679bcd4c4447ba4b9fb708b56bb37850f75682b06b5bb10ebbc667a3132"),
    ])
    def test_weighted_dothash_linkpred_output_is_pinned(self, tmp_path, dims, digest):
        # Adamic-Adar DotHash over 3 repeats at a d whose root is a power of
        # two, where the build scales its roots, and at one where it divides
        # its sums.  The digests were recorded before the repeats built into
        # one output.  The scores take BLAS ddot, whose last bits may depend
        # on the CPU; Hits@K moves only if that reorders a positive and the
        # K-th negative.
        edges = _write_graph(tmp_path, preferential_attachment_graph(300, 6, seed=44))
        out = tmp_path / "linkpred.csv"
        assert main(["linkpred", "--edges", str(edges), "--estimator", "dothash", "--metric", "adamic_adar",
                     "--dims", dims, "--k-at", "5", "20", "--repeats", "3", "--seed", "45", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_unsorted_and_repeated_dims_match_each_dims_alone(self, tmp_path):
        args = ["bounds", "--size-a", "40", "--size-b", "30", "--size-int", "30",
                "--eps-points", "3", "--trials", "90", "--seed", "5"]
        swept = tmp_path / "swept.csv"
        assert main(args + ["--dims", "300", "64", "300", "1", "--out", str(swept)]) == 0
        expected = ["d,epsilon,chebyshev,clt,empirical"]
        for dims in ("300", "64", "300", "1"):
            alone = tmp_path / f"d{dims}.csv"
            assert main(args + ["--dims", dims, "--out", str(alone)]) == 0
            expected += alone.read_text().splitlines()[1:]
        assert swept.read_text().splitlines() == expected

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551615"])
    def test_seeds_outside_zero_to_two_to_the_64_wrap(self, tmp_path, seed):
        # Seeds count from --seed modulo 2**64, so -1 reads as 2**64 - 1.
        args = ["bounds", "--size-a", "30", "--size-b", "30", "--size-int", "10",
                "--dims", "64", "--eps-points", "3", "--trials", "40"]
        out, wrapped = tmp_path / "out.csv", tmp_path / "wrapped.csv"
        assert main(args + ["--seed", seed, "--out", str(out)]) == 0
        assert main(args + ["--seed", str(int(seed) % 2**64), "--out", str(wrapped)]) == 0
        assert out.read_bytes() == wrapped.read_bytes()
        assert len(out.read_text().splitlines()) == 4

    def test_zero_eps_points_writes_the_header_without_sampling(self, tmp_path, monkeypatch):
        sampled = []
        monkeypatch.setattr(bounds_mod, "sign_sums", lambda *args: sampled.append(args))
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--size-a", "200", "--size-b", "200", "--size-int", "100",
                     "--dims", "4096", "--trials", "20000", "--eps-points", "0",
                     "--out", str(out)]) == 0
        assert out.read_text() == "d,epsilon,chebyshev,clt,empirical\n"
        assert sampled == []

    @pytest.mark.parametrize("flags", [
        ["--size-int", "100", "--dims", "0"],
        ["--size-int", "100", "--dims", "64", "0"],
        ["--size-int", "0", "--trials", "20000", "--dims", "4096"],
    ])
    def test_bad_query_exits_two_before_sampling(self, tmp_path, monkeypatch, capsys, flags):
        sampled = []
        monkeypatch.setattr(bounds_mod, "sign_sums", lambda *args: sampled.append(args))
        out = tmp_path / "bounds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bounds", "--size-a", "200", "--size-b", "200", *flags, "--out", str(out)])
        assert code == 2
        assert "dothash: error:" in capsys.readouterr().err
        assert sampled == []
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--eps-min", "nan"], ["--eps-max", "nan"], ["--eps-min", "inf", "--eps-max", "inf"],
        ["--eps-max", "inf"], ["--eps-min=-inf"],
    ])
    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_non_finite_epsilon_exits_two(self, tmp_path, monkeypatch, capsys, flags, to_stdout):
        sampled = []
        monkeypatch.setattr(bounds_mod, "sign_sums", lambda *args: sampled.append(args))
        out = tmp_path / "bounds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bounds", "--size-a", "20", "--size-b", "20", "--size-int", "10",
                         "--dims", "16", "--eps-points", "3", *flags,
                         "--out", "-" if to_stdout else str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("dothash: error: epsilon must be positive")
        assert captured.out == "" and not out.exists() and sampled == []


class TestLinkpredCommand:
    @pytest.mark.parametrize("edges, flags, rows", [
        ((None, None), ["--metric", "adamic_adar", "--k-at", "5", "10", "--repeats", "3", "--seed", "4"],
         ["exact,adamic_adar,0,5,", "exact,adamic_adar,0,10,"]),
        (("edges.txt", "edges.txt"), ["--metric", "jaccard", "--k-at", "1", "--repeats", "1", "--neg-per-pos", "1"],
         ["exact,jaccard,0,1,"]),
        # The CRLF file's CSV must equal its LF copy's.
        (("crlf_edges.txt", "lf_edges.txt"), ["--metric", "jaccard", "--k-at", "20", "--repeats", "1"],
         ["exact,jaccard,0,20,0.051044"]),
    ], ids=["generated", "crlf-comment-non-ascii", "crlf-then-lf-windows"])
    def test_exact_run_and_rerun_identical(self, tmp_path, console_inputs, edges, flags, rows):
        generated = _write_graph(tmp_path, erdos_renyi_graph(40, 0.2, seed=30))
        first, second = (console_inputs / name if name else generated for name in edges)
        args = ["linkpred", "--estimator", "exact", *flags]
        out1, out2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
        assert main([*args, "--edges", str(first), "--out", str(out1)]) == 0
        _fresh_run([*args, "--edges", str(second), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,metric,dims_or_k,K,")
        assert len(lines) == 1 + len(rows) and all(map(str.startswith, lines[1:], rows))
        fields = [line.split(",") for line in lines[1:]]
        # exact scoring is repeat-invariant: zero confidence interval
        assert all(float(r[5]) == 0.0 for r in fields)
        # timings zeroed by default for reproducible bytes
        assert all(r[6] == "0.000000" and r[7] == "0.000000" for r in fields)

    @pytest.mark.parametrize("edges, flags, hits_inside", [
        ((erdos_renyi_graph(30, 0.25, seed=31), None),
         ["--metric", "jaccard", "--dims", "256", "--k-at", "5", "--repeats", "2", "--seed", "1"], True),
        # Weighted over 3 repeats built into one output: at d = 256 = 4^4 the
        # build folds the 2^-4 scale into its square-rooted weights, at d = 200
        # it divides its sums by sqrt(200).
        ("edges.txt", ["--metric", "adamic_adar", "--dims", "256", "--repeats", "3", "--k-at", "1",
                       "--neg-per-pos", "1"], False),
        ("edges.txt", ["--metric", "resource_allocation", "--dims", "200", "--repeats", "3", "--k-at", "1",
                       "--neg-per-pos", "1"], False),
        # Enough ranked pairs, and lines that name two new labels, that a CSV
        # which depends on the process, such as one from labels numbered in
        # str-hash order or from weighted sums started on np.empty rows,
        # differs from the rerun's.
        ((preferential_attachment_graph(300, 4, seed=3), 5),
         ["--metric", "adamic_adar", "--dims", "256", "--repeats", "3", "--k-at", "20"], True),
    ], ids=["generated", "adamic-adar-256", "resource-allocation-200", "shuffled-adamic-adar"])
    def test_dothash_with_dims(self, tmp_path, console_inputs, edges, flags, hits_inside):
        if isinstance(edges, str):
            edges = console_inputs / edges
        else:
            edges = _write_graph(tmp_path, edges[0], shuffle_seed=edges[1])
        args = ["linkpred", "--edges", str(edges), "--estimator", "dothash", *flags]
        out1, out2 = tmp_path / "dh1.csv", tmp_path / "dh2.csv"
        assert main([*args, "--out", str(out1)]) == 0
        _fresh_run([*args, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        row = out1.read_text().strip().splitlines()[1].split(",")
        assert row[0] == "dothash" and row[2] == flags[flags.index("--dims") + 1]
        if hits_inside:
            assert 0.0 < float(row[4]) < 1.0

    def test_zero_repeats_exits_two(self, tmp_path, capsys):
        edges = _write_graph(tmp_path, erdos_renyi_graph(20, 0.3, seed=34))
        assert main(["linkpred", "--edges", str(edges), "--estimator", "exact",
                     "--metric", "jaccard", "--repeats", "0", "--out", str(tmp_path / "x.csv")]) == 2
        assert "repeats" in capsys.readouterr().err

    @pytest.mark.parametrize("data, flags, error", [
        (b"1 2\n\xff 3\n", [], "line 2: 'utf-8' codec can't decode byte 0xff"),
        (b"a b\nb c d\n", ["--k-at", "1", "--repeats", "1", "--neg-per-pos", "1"], "line 2: expected 2 tokens, got 3"),
        # After the first 64 KiB read window.
        (b"1 2\n" * 20000 + b"3 \xff\n", ["--k-at", "1", "--repeats", "1", "--neg-per-pos", "1"],
         "line 20001: 'utf-8' codec can't decode byte 0xff in position 2"),
    ], ids=["undecodable", "three-labels", "undecodable-past-a-window"])
    def test_malformed_edge_list_exits_two(self, tmp_path, capsys, data, flags, error):
        edges = tmp_path / "edges.txt"
        edges.write_bytes(data)
        assert main(["linkpred", "--edges", str(edges), "--estimator", "exact",
                     "--metric", "jaccard", *flags, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"dothash: error: {error}" in capsys.readouterr().err

    def test_minhash_requires_k(self, tmp_path):
        graph = erdos_renyi_graph(20, 0.3, seed=32)
        edges = _write_graph(tmp_path, graph)
        assert main(["linkpred", "--edges", str(edges), "--estimator", "minhash",
                     "--metric", "jaccard", "--dims", "64", "--out",
                     str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("estimator, flags, unused", [("exact", ["--dims", "64", "--k", "9"], "--dims"),
                                                          ("exact", ["--k", "9"], "--k"),
                                                          ("dothash", ["--dims", "64", "--k", "9"], "--k"),
                                                          ("minhash", ["--k", "9", "--dims", "64"], "--dims")])
    def test_size_flag_the_estimator_does_not_take_is_usage_error(self, tmp_path, capsys, estimator, flags,
                                                                  unused):
        edges = _write_graph(tmp_path, erdos_renyi_graph(20, 0.3, seed=35))
        out = tmp_path / "x.csv"
        assert main(["linkpred", "--edges", str(edges), "--estimator", estimator,
                     "--metric", "jaccard", *flags, "--out", str(out)]) == 1
        assert f"dothash: error: {estimator} does not take {unused}" in capsys.readouterr().err
        assert not out.exists()

    def test_simhash_nonjaccard_is_data_error(self, tmp_path):
        graph = erdos_renyi_graph(20, 0.3, seed=33)
        edges = _write_graph(tmp_path, graph)
        assert main(["linkpred", "--edges", str(edges), "--estimator", "simhash",
                     "--metric", "adamic_adar", "--dims", "64", "--out",
                     str(tmp_path / "x.csv")]) == 2


class TestDedupCommand:
    @pytest.mark.parametrize("planted, flags, hits_inside", [
        ({}, ["--dims", "1024", "--k-at", "10", "--negatives", "200", "--seed", "8"], False),
        (None, ["--dims", "256", "--k-at", "1", "--negatives", "3"], False),
        # Heavy edits over a small vocabulary, so that duplicates rank among
        # the negatives and a CSV which depends on the process, such as one
        # from documents taken in str-hash order, differs from the rerun's.
        (dict(n_docs=1000, n_dup_pairs=500, words_per_doc=30, vocab_size=30, edit_rate=0.65),
         ["--dims", "128", "--k-at", "25", "--negatives", "50", "--seed", "8"], True),
    ], ids=["planted", "non-ascii", "heavy-edits"])
    def test_run_and_rerun_identical(self, tmp_path, console_inputs, planted, flags, hits_inside):
        corpus, labels = (_write_corpus(tmp_path, **planted) if planted is not None
                          else (console_inputs / "corpus.jsonl", console_inputs / "labels.csv"))
        args = ["dedup", "--corpus", str(corpus), "--labels", str(labels),
                "--estimator", "dothash", "--metric", "idf", *flags]
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        _fresh_run(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        header, row = out1.read_text().strip().splitlines()
        assert header == "estimator,metric,dims_or_k,shingle_width,K,hits,build_seconds,compare_seconds"
        fields = row.split(",")
        assert fields[0] == "dothash" and fields[1] == "idf"
        assert 0.0 < float(fields[5]) < 1.0 if hits_inside else 0.0 <= float(fields[5]) <= 1.0

    def test_deeply_nested_corpus_line_exits_two(self, tmp_path, capsys):
        corpus, labels = _write_corpus(tmp_path)
        corpus.write_text(corpus.read_text() + "[" * 200_000 + "\n")
        assert main(["dedup", "--corpus", str(corpus), "--labels", str(labels),
                     "--estimator", "exact", "--metric", "jaccard",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "line 41" in capsys.readouterr().err

    def test_undecodable_corpus_exits_two(self, tmp_path, capsys):
        corpus, labels = _write_corpus(tmp_path)
        corpus.write_bytes(corpus.read_bytes() + b'{"id": "z", "text": "\xff"}\n')
        assert main(["dedup", "--corpus", str(corpus), "--labels", str(labels),
                     "--estimator", "exact", "--metric", "jaccard",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "dothash: error: line 41: 'utf-8' codec" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator, flags", [("exact", ["--dims", "64"]),
                                                  ("simhash", ["--dims", "64", "--k", "9"]),
                                                  ("minhash", ["--k", "9", "--dims", "64"])])
    def test_size_flag_the_estimator_does_not_take_is_usage_error(self, tmp_path, capsys, estimator, flags):
        corpus, labels = _write_corpus(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["dedup", "--corpus", str(corpus), "--labels", str(labels),
                     "--estimator", estimator, "--metric", "jaccard", *flags, "--out", str(out)]) == 1
        assert f"dothash: error: {estimator} does not take {flags[-2]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, error", [
        ("a,a\n", "line 2: label pairs document 'a' with itself"),
        ("a,b\nb,a\n", "line 3: label pair ('b', 'a') is listed twice"),
    ])
    def test_self_or_repeated_label_exits_two(self, tmp_path, capsys, rows, error):
        # A self label once read Hits@1 = 1.0 with exit 0 on this corpus.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"id": doc_id, "text": text}) + "\n" for doc_id, text in
                                  [("a", "one two three four"), ("b", "one two three five"), ("c", "six seven eight")]))
        labels = tmp_path / "labels.csv"
        labels.write_text("id_a,id_b\n" + rows)
        out = tmp_path / "x.csv"
        assert main(["dedup", "--corpus", str(corpus), "--labels", str(labels), "--estimator", "exact",
                     "--metric", "idf", "--k-at", "1", "--negatives", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"dothash: error: {error}\n"
        assert not out.exists()

    def test_missing_labels_file(self, tmp_path):
        corpus, _ = _write_corpus(tmp_path)
        assert main(["dedup", "--corpus", str(corpus), "--labels", str(tmp_path / "no.csv"),
                     "--estimator", "exact", "--metric", "jaccard",
                     "--out", str(tmp_path / "x.csv")]) == 2


@dataclasses.dataclass
class _Row:
    score: float
    count: int
    dims: int
    k: int
    wait_seconds: float


@pytest.mark.parametrize("timings, seconds", [(False, "0.000000"), (True, "12.345679")])
def test_write_rows_takes_its_columns_from_the_row_type(tmp_path, timings, seconds):
    # The header is the field names, with only dims and k renamed; a float is
    # written as its repr; a *_seconds field is zeroed unless timings is set.
    out = tmp_path / "rows.csv"
    rows = [_Row(score, 3, 64, 8, 12.3456789) for score in (0.1 + 0.2, 1e-17, 2.5e300, -0.0, math.inf, 1 / 3)]
    cli._write_rows(str(out), _Row, rows, timings)
    assert out.read_bytes().decode() == "score,count,d,K,wait_seconds\n" + "".join(
        f"{row.score!r},3,64,8,{seconds}\n" for row in rows)


@pytest.mark.parametrize("timings", [False, True])
@pytest.mark.parametrize("subcommand", ["linkpred", "dedup"])
def test_timings_flag_reaches_the_seconds_columns(tmp_path, monkeypatch, subcommand, timings):
    # The runner's row stands in for a measured one, so its seconds are known.
    if subcommand == "linkpred":
        edges = _write_graph(tmp_path, erdos_renyi_graph(30, 0.3, seed=3))
        row = linkpred_mod.BenchmarkRow("exact", "jaccard", 0, 5, 0.5, 0.0, 1.25, 2.5, 1)
        monkeypatch.setattr(linkpred_mod, "run_linkpred_benchmark", lambda *args, **kwargs: [row])
        inputs = ["--edges", str(edges), "--metric", "jaccard"]
    else:
        corpus, labels = _write_corpus(tmp_path)
        row = dedup_mod.DedupResult("exact", "jaccard", 0, 3, 25, 0.5, 1.25, 2.5)
        monkeypatch.setattr(dedup_mod, "run_dedup_benchmark", lambda *args, **kwargs: row)
        inputs = ["--corpus", str(corpus), "--labels", str(labels), "--metric", "jaccard"]
    out = tmp_path / "out.csv"
    flags = ["--timings"] if timings else []
    assert main([subcommand, *inputs, "--estimator", "exact", *flags, "--out", str(out)]) == 0
    (written,) = csv.DictReader(io.StringIO(out.read_text()))
    expected = ("1.250000", "2.500000") if timings else ("0.000000", "0.000000")
    assert (written["build_seconds"], written["compare_seconds"]) == expected


# --k or --dims of each sketch estimator in the pinned runs.
_SIZE_FLAGS = {"exact": [], "minhash": ["--k", "32"], "simhash": ["--dims", "128"]}


class TestPinnedPipelineOutputs:
    """The dedup and linkpred CSVs, byte for byte, on small generated inputs.

    These runs score with integer counts and correctly rounded divisions
    only.  DotHash and the log-weighted metrics are left out: their last
    bits depend on the BLAS ``ddot`` kernel and on ``log``.
    """

    @pytest.mark.parametrize("estimator, metric, digest", [
        ("exact", "jaccard", "12aedbc747665de58d2d03830450426e8857fc0509e5d599af00d7a1270ad87c"),
        ("exact", "common_neighbors", "a13f7eac02e27971a5744d434c06414cc3db06f2d105e78796de8f5950c3a205"),
        ("minhash", "jaccard", "6c75216acb182e23d95e8760a5311f3c76874f806d6e6837538c7c94b01525d4"),
        ("simhash", "jaccard", "572bc71765c2ba5654f0c3c458aeb1d25c0e4d49abca47cb7f3ec20a48e4d7a1"),
    ])
    def test_linkpred_csv_is_pinned(self, tmp_path, estimator, metric, digest):
        edges = _write_graph(tmp_path, preferential_attachment_graph(150, 4, seed=40))
        out = tmp_path / "linkpred.csv"
        assert main(["linkpred", "--edges", str(edges), "--estimator", estimator,
                     "--metric", metric, *_SIZE_FLAGS[estimator], "--k-at", "5", "20",
                     "--repeats", "2", "--seed", "41", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("estimator, digest", [
        ("exact", "11928477b97e8c24970735de8ad8bddf73ce9147789a6fb3004a1e7805698331"),
        ("minhash", "5b4d6e848eae968372b07d457ef249cc3b39f847dbc8a8b65d50206fef8c278a"),
        ("simhash", "656599a9161ee071eef6c97675c1fd63f096c1968599ed31d431e071b3bf9015"),
    ])
    def test_dedup_csv_is_pinned(self, tmp_path, estimator, digest):
        # Heavy edits, so that no estimator ranks every duplicate first.
        corpus, labels = _write_corpus(tmp_path, n_docs=60, n_dup_pairs=15, words_per_doc=40,
                                       vocab_size=300, edit_rate=0.6)
        out = tmp_path / "dedup.csv"
        assert main(["dedup", "--corpus", str(corpus), "--labels", str(labels),
                     "--estimator", estimator, "--metric", "jaccard", *_SIZE_FLAGS[estimator],
                     "--k-at", "10", "--negatives", "200", "--seed", "42",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestExitCodes:
    @pytest.mark.parametrize("command, target", [
        (["linkpred", "--estimator", "dothash", "--metric", "jaccard", "--dims", "64"],
         "dothash.sketches.dothash_build_many"),
        (["linkpred", "--estimator", "minhash", "--metric", "jaccard", "--k", "64"],
         "dothash.sketches.minhash_build_many"),
        (["dedup", "--estimator", "dothash", "--metric", "idf", "--dims", "64"],
         "dothash.sketches.dothash_build_many"),
        (["bounds", "--size-a", "20", "--size-b", "20", "--size-int", "10", "--dims", "64"],
         "dothash.bounds.sign_sums"),
    ])
    def test_out_of_memory_is_a_data_error(self, tmp_path, monkeypatch, capsys, command, target):
        # Stands in for a size the host cannot allocate, such as --dims 5000000000.
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 37.3 GiB for an array")

        monkeypatch.setattr(target, refuse)
        edges = _write_graph(tmp_path, erdos_renyi_graph(30, 0.3, seed=3))
        corpus, labels = _write_corpus(tmp_path)
        inputs = {"linkpred": ["--edges", str(edges)],
                  "dedup": ["--corpus", str(corpus), "--labels", str(labels), "--negatives", "50"],
                  "bounds": []}[command[0]]
        out = tmp_path / "out.csv"
        assert main([*command, *inputs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "dothash: error: out of memory: Unable to allocate 37.3 GiB for an array\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["linkpred", "--estimator", "exact", "--metric", "jaccard"],
                                         ["dedup", "--estimator", "exact", "--metric", "jaccard"]])
    def test_negative_sampling_seed_exits_two_naming_it(self, tmp_path, capsys, command):
        # The seed of a random generator has no wrap-around; numpy once
        # refused -1 with a bare "expected non-negative integer".
        edges = _write_graph(tmp_path, erdos_renyi_graph(30, 0.3, seed=3))
        corpus, labels = _write_corpus(tmp_path)
        inputs = {"linkpred": ["--edges", str(edges)],
                  "dedup": ["--corpus", str(corpus), "--labels", str(labels), "--negatives", "50"]}[command[0]]
        out = tmp_path / "out.csv"
        assert main([*command, *inputs, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "dothash: error: seed must be >= 0\n"
        assert not out.exists()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["sketch", "--help"]) == 0

    def test_unknown_flag_is_usage_error(self):
        assert main(["bounds", "--bogus"]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_closed_stdout_pipe_exits_zero_quietly(self):
        # About 1.6 MB of CSV: far more than the pipe holds, so writes go on
        # after the reader has taken one line and closed its end.
        argv = [sys.executable, "-m", "dothash.cli", "bounds", "--size-a", "60", "--size-b", "80",
                "--size-int", "30", "--dims", "8", "--eps-points", "20000", "--trials", "1"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=_subprocess_env()) as proc:
            assert proc.stdout.readline() == "d,epsilon,chebyshev,clt,empirical\n"
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stderr) == (0, "")

    def _run_with_closed(self, cwd, redirect, *args):
        # A shell closes descriptor 1 (``>&-``) or 0 (``<&-``) before exec, so
        # the interpreter starts with sys.stdout or sys.stdin None.
        argv = ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "dothash.cli",
                *map(str, args)]
        return subprocess.run(argv, cwd=cwd, stderr=subprocess.PIPE, text=True,
                              env=_subprocess_env(), timeout=120)

    @pytest.mark.parametrize("command", [
        ["sketch", "--estimator", "dothash", "--dims", "8", "--input", "tokens.txt", "--out", "out.skch"],
        ["compare", "a.skch", "a.skch"],
        ["bounds", "--size-a", "6", "--size-b", "8", "--size-int", "3", "--dims", "8",
         "--eps-points", "3", "--trials", "2"],
        ["linkpred", "--edges", "graph.txt", "--estimator", "exact", "--metric", "jaccard",
         "--k-at", "5", "--repeats", "1", "--out", "-"],
        ["dedup", "--corpus", "corpus.jsonl", "--labels", "labels.csv", "--estimator", "exact",
         "--metric", "jaccard", "--negatives", "50", "--out", "-"],
    ], ids=lambda command: command[0])
    def test_closed_stdout_is_a_data_error(self, tmp_path, command):
        (tmp_path / "tokens.txt").write_text("a\nb\n")
        assert main(["sketch", "--estimator", "dothash", "--dims", "8",
                     "--input", str(tmp_path / "tokens.txt"), "--out", str(tmp_path / "a.skch")]) == 0
        _write_graph(tmp_path, erdos_renyi_graph(30, 0.3, seed=3))
        _write_corpus(tmp_path)
        result = self._run_with_closed(tmp_path, ">&-", *command)
        assert (result.returncode, result.stderr) == (2, "dothash: error: stdout is closed\n")
        assert not (tmp_path / "out.skch").exists()

    def test_closed_stdout_with_an_output_file_runs(self, tmp_path, capsys):
        flags = ["bounds", "--size-a", "6", "--size-b", "8", "--size-int", "3", "--dims", "8",
                 "--eps-points", "3", "--trials", "2"]
        result = self._run_with_closed(tmp_path, ">&-", *flags, "--out", "closed.csv")
        assert (result.returncode, result.stderr) == (0, "")
        assert main([*flags, "--out", str(tmp_path / "open.csv")]) == 0
        assert (tmp_path / "closed.csv").read_bytes() == (tmp_path / "open.csv").read_bytes()

    def test_closed_stdin_is_a_data_error(self, tmp_path):
        # ``sketch`` reads '-' by default.
        result = self._run_with_closed(tmp_path, "<&-", "sketch", "--estimator", "dothash",
                                       "--dims", "8", "--out", "out.skch")
        assert (result.returncode, result.stderr) == (2, "dothash: error: stdin is closed\n")
        assert not (tmp_path / "out.skch").exists()


class TestSharedParser:
    """``main`` parses every call with the one parser built at import."""

    @staticmethod
    def _argvs(tmp_path) -> list[list[str]]:
        """Every subcommand, with its defaults and with explicit flags."""
        path = str(tmp_path / "f")
        return [
            ["sketch", "--estimator", "dothash", "--dims", "64", "--out", path],
            ["sketch", "--estimator", "minhash", "--k", "8", "--input", path, "--seed", "3", "--out", path],
            ["compare", path, path],
            ["bounds", "--size-a", "6", "--size-b", "8", "--size-int", "3", "--dims", "8"],
            ["bounds", "--size-a", "6", "--size-b", "8", "--size-int", "3", "--dims", "8", "16",
             "--eps-min", "0.1", "--eps-max", "0.2", "--eps-points", "3", "--trials", "5",
             "--seed", "4", "--out", path],
            ["linkpred", "--edges", path, "--estimator", "exact", "--metric", "jaccard"],
            ["linkpred", "--edges", path, "--estimator", "dothash", "--metric", "adamic_adar",
             "--dims", "64", "--test-fraction", "0.2", "--neg-per-pos", "3", "--k-at", "5", "20",
             "--repeats", "2", "--seed", "5", "--out", path, "--timings"],
            ["dedup", "--corpus", path, "--labels", path, "--estimator", "exact", "--metric", "jaccard"],
            ["dedup", "--corpus", path, "--labels", path, "--estimator", "minhash", "--metric", "jaccard",
             "--k", "16", "--shingle-width", "2", "--k-at", "5", "--negatives", "40", "--seed", "6",
             "--out", path, "--timings"],
        ]

    def test_each_parse_matches_a_fresh_parser(self, tmp_path):
        argvs = self._argvs(tmp_path)
        for argv in argvs:
            cli._PARSER.parse_args(argv)
        for argv in argvs:
            assert vars(cli._PARSER.parse_args(argv)) == vars(cli.build_parser().parse_args(argv)), argv

    def test_no_parse_shares_a_mutable_default(self):
        argv = ["linkpred", "--edges", "e.txt", "--estimator", "exact", "--metric", "jaccard"]
        first = cli._PARSER.parse_args(argv)
        first.k_at += (7,)  # would extend a shared list default in place
        assert tuple(cli._PARSER.parse_args(argv).k_at) == (50,)
        subcommands = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
        for parser in [cli._PARSER, *subcommands.choices.values()]:
            for action in parser._actions:
                hash(action.default)  # a list, dict or set default would raise TypeError

    def test_main_builds_no_parser(self, tmp_path, element_file, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        sketch = str(tmp_path / "a.skch")
        assert main(["sketch", "--estimator", "dothash", "--dims", "64", "--input", str(element_file),
                     "--out", sketch]) == 0
        assert main(["compare", sketch, sketch]) == 0
        assert main(["bounds", "--size-a", "6", "--size-b", "8", "--size-int", "3", "--dims", "8",
                     "--eps-points", "3", "--trials", "2", "--out", str(tmp_path / "b.csv")]) == 0
        assert built == []

    def test_a_second_pass_repeats_the_first(self, tmp_path, element_file, capsys):
        sketch, csv_path = tmp_path / "a.skch", tmp_path / "b.csv"
        sequence = [
            [],  # usage error
            ["--help"],
            ["sketch", "--estimator", "simhash", "--dims", "64", "--input", str(element_file),
             "--out", str(sketch)],
            ["compare", str(sketch), str(sketch)],
            ["bounds", "--size-a", "6", "--size-b", "8", "--size-int", "3", "--dims", "8",
             "--eps-points", "3", "--trials", "2", "--out", str(csv_path)],
        ]
        passes = []
        for _ in range(2):
            results = []
            for argv in sequence:
                code = main(argv)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            passes.append((results, sketch.read_bytes(), csv_path.read_bytes()))
        results = passes[0][0]
        assert [code for code, _, _ in results] == [1, 0, 0, 0, 0]
        assert results[0][2].startswith("usage: dothash") and results[0][1] == ""
        assert results[1][1].startswith("usage: dothash")
        assert passes[1] == passes[0]


_IMPORTED_PIPELINES = """
import json, sys
from dothash import cli

def run(*argv):
    assert cli.main(list(argv)) == 0, argv
    return [name for name in ("dothash.linkpred", "dothash.dedup") if name in sys.modules]

tokens, edges, out = sys.argv[1:]
loaded = {
    "sketch": run("sketch", "--estimator", "dothash", "--dims", "64", "--input", tokens,
                  "--out", out + "/a.skch"),
    "compare": run("compare", out + "/a.skch", out + "/a.skch"),
    "bounds": run("bounds", "--size-a", "10", "--size-b", "10", "--size-int", "5", "--dims", "64",
                  "--eps-points", "2", "--trials", "5", "--out", out + "/bounds.csv"),
    "linkpred": run("linkpred", "--edges", edges, "--estimator", "exact", "--metric", "jaccard",
                    "--k-at", "5", "--repeats", "1", "--out", out + "/linkpred.csv"),
}
print(json.dumps(loaded))
"""


def test_each_subcommand_loads_only_the_pipelines_it_runs(tmp_path, element_file):
    edges = _write_graph(tmp_path, erdos_renyi_graph(30, 0.3, seed=3))
    result = subprocess.run([sys.executable, "-c", _IMPORTED_PIPELINES, str(element_file),
                             str(edges), str(tmp_path)],
                            capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    # Modules in sys.modules after each call, in order, in one fresh interpreter.
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "sketch": [], "compare": [], "bounds": [], "linkpred": ["dothash.linkpred"]}


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.text(alphabet="ab#\x00 \t\x1f\n\r\v\x1c", max_size=40).map(str.encode), _token_files),
       window=st.integers(1, 12), lines=st.integers(1, 4))
@example(data=b"a\r\nb\rc\n\nd\ne", window=2, lines=1)
@example(data=b"abcdefgh\ri\rj", window=3, lines=1)
@example(data="a\n\u00e9\u00e9\u00e9 \u2028b\x85\nc".encode("utf-8"), window=2, lines=1)
@example(data=b"ab\ncd\n\xffx", window=2, lines=1)
@example(data=b"abc\n\xe2\x82", window=2, lines=1)
def test_token_windows_give_the_same_ids(token_file, data, window, lines):
    # Files in windows of a few bytes and a few lines, so most lines end a
    # window and some span windows; non-ASCII windows are decoded on their
    # own, and an undecodable byte names its line and position in the file.
    token_file.write_bytes(data)
    with mock.patch.object(cli, "_TOKEN_WINDOW", window), mock.patch.object(cli, "_TOKEN_LINES", lines):
        got = _ids_or_error(cli._read_elements, str(token_file))
    assert got == _ids_or_error(_reference_read_elements, data)
