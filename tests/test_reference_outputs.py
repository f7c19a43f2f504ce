"""Every CLI primary output against the frozen seed implementation, byte for byte.

``bench/reference/dothash`` is the code the project started from.  It is
loaded in-process under the package name ``dothash_ref``, without writing
bytecode under ``bench/``, and both CLIs run one fixed table of small seeded
calls: ``dedup`` and ``linkpred`` CSVs for every estimator and metric the
pipelines accept, ``.skch`` files of all three kinds with the ``compare``
JSON of each pair, and one ``bounds`` CSV.  The two trees must write the
same bytes.  ``sketch`` and ``compare`` are also driven with hypothesis over
generated token files, estimators, sizes and seeds, ``bounds`` over
generated set sizes, dims lists, trials, epsilon counts and seeds,
``linkpred`` over generated sparse graphs and ``dedup`` over generated
planted corpora, each with every estimator, metric, size, seed and
sampling flag.  Inputs the reference misread, and this tree rejects, are
listed with the exit code and message they now give.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from dothash import cli
from dothash.dedup import Document, csr_idf, make_planted_corpus, shingle_csr
from dothash.linkpred import Estimator, Metric, graph_from_edges, preferential_attachment_graph
from dothash.linkpred import sketch_neighborhoods

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference" / "dothash"

SIZE_FLAGS = {"exact": [], "dothash": ["--dims", "1024"], "minhash": ["--k", "32"],
              "simhash": ["--dims", "128"]}


@pytest.fixture(scope="module")
def reference():
    """The reference package's ``cli`` module, imported as ``dothash_ref.cli``."""
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "dothash_ref", REFERENCE / "__init__.py", submodule_search_locations=[str(REFERENCE)])
        package = importlib.util.module_from_spec(spec)
        sys.modules["dothash_ref"] = package
        spec.loader.exec_module(package)
        reference_cli = importlib.import_module("dothash_ref.cli")
    finally:
        sys.dont_write_bytecode = writes_bytecode
    yield reference_cli
    for name in [name for name in sys.modules if name.partition(".")[0] == "dothash_ref"]:
        del sys.modules[name]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    """The test inputs, by file name.

    A small graph, a corpus with heavily edited duplicates, the same corpus
    in mixed text, and two overlapping token files.
    """
    root = tmp_path_factory.mktemp("inputs")
    graph = preferential_attachment_graph(150, 4, seed=40)
    (root / "edges.txt").write_text("".join(f"{u} {v}\n" for u, v in graph.edges().tolist()))
    docs, pairs = make_planted_corpus(60, 15, 40, vocab_size=300, edit_rate=0.6, seed=20)
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps({"id": d.doc_id, "text": d.text}) + "\n" for d in docs))
    (root / "labels.csv").write_text("id_a,id_b\n" + "".join(f"{a},{b}\n" for a, b in pairs))
    (root / "mixed.jsonl").write_text("".join(
        json.dumps({"id": d.doc_id, "text": _decorate(d.text, i)}) + "\n" for i, d in enumerate(docs)))
    (root / "a.txt").write_text("".join(f"item-{i}\n" for i in range(300)))
    (root / "b.txt").write_text("".join(f"item-{i}\n" for i in range(150, 400)))
    names = ("edges.txt", "corpus.jsonl", "mixed.jsonl", "labels.csv", "a.txt", "b.txt")
    return {name: str(root / name) for name in names}


_SEPARATORS = [" ", ", ", "\t", "\r\n", "_", " -- ", "... ", "\r", "'s "]
_NON_ASCII = ["Stra\u00dfe", "caf\u00e9", "\u0130stanbul", "\u0663\u0664", "\u00a0", "\u2028", "\u4e2d\u6587"]


def _decorate(text: str, seed: int) -> str:
    """``text`` with mixed case, digits, punctuation, underscores, tabs and CRs.

    Every third document also gets non-ASCII words, so it takes the regex
    path.
    """
    rng = random.Random(seed)
    pieces = []
    for word in text.split():
        word = rng.choice([word, word.upper(), word.title(), f"{word}:{rng.randrange(100)}"])
        if seed % 3 == 0 and rng.random() < 0.2:
            word = f"{rng.choice(_NON_ASCII)} {word}"
        pieces += [word, rng.choice(_SEPARATORS)]
    return "".join(pieces)


def _outputs(main, argv: list[str], directory: Path, capsys) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stdout and the bytes of every file ``main(argv)`` wrote into ``directory``.

    ``{out}`` in an argument stands for ``directory``.
    """
    directory.mkdir(parents=True)
    code = main([arg.replace("{out}", str(directory)) for arg in argv])
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return code, capsys.readouterr().out, files


def _assert_same_outputs(reference, tmp_path, capsys, *calls: list[str]) -> None:
    """Run ``calls`` in order through each CLI, call ``i`` writing into ``<tree>/<i>``."""
    current = [_outputs(cli.main, argv, tmp_path / "current" / str(i), capsys) for i, argv in enumerate(calls)]
    ref = [_outputs(reference.main, argv, tmp_path / "reference" / str(i), capsys) for i, argv in enumerate(calls)]
    assert all(code == 0 and files for code, _, files in current)
    assert current == ref


@pytest.mark.parametrize("estimator, metric", [
    ("exact", "jaccard"), ("exact", "idf"), ("dothash", "jaccard"), ("dothash", "idf"),
    ("minhash", "jaccard"), ("simhash", "jaccard"),
])
def test_dedup_csv(reference, inputs, tmp_path, capsys, estimator, metric):
    _assert_same_outputs(reference, tmp_path, capsys, [
        "dedup", "--corpus", inputs["corpus.jsonl"], "--labels", inputs["labels.csv"],
        "--estimator", estimator, "--metric", metric, *SIZE_FLAGS[estimator],
        "--k-at", "10", "--negatives", "200", "--seed", "42", "--out", "{out}/dedup.csv"])


@pytest.mark.parametrize("estimator, metric", [
    ("exact", "jaccard"), ("exact", "idf"), ("dothash", "jaccard"), ("dothash", "idf"),
])
def test_dedup_csv_on_mixed_text(reference, inputs, tmp_path, capsys, estimator, metric):
    # ASCII documents take the byte normalizer, the rest the regex; the
    # reference runs the regex on all of them.
    _assert_same_outputs(reference, tmp_path, capsys, [
        "dedup", "--corpus", inputs["mixed.jsonl"], "--labels", inputs["labels.csv"],
        "--estimator", estimator, "--metric", metric, *SIZE_FLAGS[estimator],
        "--k-at", "10", "--negatives", "200", "--seed", "42", "--out", "{out}/dedup.csv"])


# Corpus records the reference read as the str() of a non-string, which now
# exit 2 naming the line, since load_corpus_jsonl checks the record types.
@pytest.mark.parametrize("record", [
    '{"id": "z", "text": null}',
    '{"id": "z", "text": 42}',
    '{"id": "z", "text": ["a", "b"]}',
    '{"id": "z", "text": {"a": "b"}}',
    '{"id": true, "text": "a b c"}',
    '{"id": null, "text": "a b c"}',
    '{"id": 1.5, "text": "a b c"}',
    '{"id": ["z"], "text": "a b c"}',
])
def test_dedup_rejects_records_the_reference_read(reference, inputs, tmp_path, capsys, record):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(Path(inputs["corpus.jsonl"]).read_text() + record + "\n")
    argv = ["dedup", "--corpus", str(corpus), "--labels", inputs["labels.csv"],
            "--estimator", "exact", "--metric", "jaccard", "--k-at", "10", "--negatives", "200",
            "--out", str(tmp_path / "dedup.csv")]
    assert reference.main(argv) == 0
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("dothash: error: line 61: invalid corpus record (")


# Two empty MinHash sketches of another k or seed, which the reference
# compared as a null estimate, now exit 2, since compare checks the kind,
# size and seed of every pair before it looks at the cardinalities.
@pytest.mark.parametrize("flags, error", [(["--k", "16", "--seed", "2"], "k mismatch (8 vs 16)"),
                                          (["--k", "8", "--seed", "2"], "seed mismatch (1 vs 2)")],
                         ids=["k", "seed"])
def test_compare_rejects_empty_sketch_pairs_the_reference_read(reference, tmp_path, capsys, flags, error):
    empty, a, b = tmp_path / "empty.txt", tmp_path / "a.skch", tmp_path / "b.skch"
    empty.write_text("")
    sketch = ["sketch", "--estimator", "minhash", "--input", str(empty)]
    assert cli.main([*sketch, "--k", "8", "--seed", "1", "--out", str(a)]) == 0
    assert cli.main([*sketch, *flags, "--out", str(b)]) == 0
    capsys.readouterr()
    assert reference.main(["compare", str(a), str(b)]) == 0
    assert json.loads(capsys.readouterr().out)["estimate"] is None
    assert cli.main(["compare", str(a), str(b)]) == 2
    assert capsys.readouterr().err == f"dothash: error: incompatible sketches: {error}\n"


@pytest.mark.parametrize("estimator, metric", [
    *[(estimator, metric) for estimator in ("exact", "dothash")
      for metric in ("jaccard", "common_neighbors", "adamic_adar", "resource_allocation")],
    ("minhash", "jaccard"), ("simhash", "jaccard"),
])
def test_linkpred_csv(reference, inputs, tmp_path, capsys, estimator, metric):
    _assert_same_outputs(reference, tmp_path, capsys, [
        "linkpred", "--edges", inputs["edges.txt"], "--estimator", estimator, "--metric", metric,
        *SIZE_FLAGS[estimator], "--k-at", "5", "20", "--repeats", "2", "--seed", "41",
        "--out", "{out}/linkpred.csv"])


_ESTIMATORS = ["exact", "dothash", "minhash", "simhash"]
_LINKPRED_METRICS = ["jaccard", "common_neighbors", "adamic_adar", "resource_allocation"]


def _size_flags(draw, estimator: str) -> list[str]:
    """The estimator's size flag with a small value; the exact oracle takes none."""
    size = str(draw(st.integers(1, 300)))
    return {"exact": [], "minhash": ["--k", size]}.get(estimator, ["--dims", size])


@st.composite
def _linkpred_runs(draw) -> tuple[str, list[str]]:
    """A sparse edge list and ``linkpred`` flags for it.

    A random tree over 6-40 nodes plus a few random edges, self-loops and
    repeats among them, in any order.  Most metrics are ones the estimator
    can express, and most Hits@K cutoffs are at most the negatives drawn.
    """
    nodes = draw(st.integers(6, 40))
    parents = draw(st.lists(st.integers(0, 2**16), min_size=nodes - 1, max_size=nodes - 1))
    node = st.integers(0, nodes - 1)
    extra = draw(st.lists(st.tuples(node, node), max_size=nodes // 2))
    edges = draw(st.permutations([(child, parent % child) for child, parent in enumerate(parents, 1)] + extra))
    estimator = draw(st.sampled_from(_ESTIMATORS))
    weighted = estimator in ("exact", "dothash") or draw(st.integers(0, 9)) == 0
    metric = draw(st.sampled_from(_LINKPRED_METRICS) if weighted else st.just("jaccard"))
    test_fraction, neg_per_pos = draw(st.sampled_from([0.1, 0.25, 0.5])), draw(st.integers(1, 3))
    distinct = len({(min(u, v), max(u, v)) for u, v in edges if u != v})
    negatives = neg_per_pos * math.ceil(test_fraction * distinct)
    k_at = draw(st.lists(st.integers(1, negatives) | st.integers(1, negatives + 3), min_size=1, max_size=3))
    flags = ["linkpred", "--estimator", estimator, "--metric", metric, *_size_flags(draw, estimator),
             "--test-fraction", str(test_fraction), "--neg-per-pos", str(neg_per_pos),
             "--k-at", *map(str, k_at), "--repeats", str(draw(st.integers(1, 3))),
             "--seed", str(draw(st.integers(0, 2**64 - 1)))]
    return "".join(f"{u} {v}\n" for u, v in edges), flags


@st.composite
def _dedup_runs(draw) -> tuple[str, str, list[str]]:
    """A planted corpus of up to 24 documents with its labels, and ``dedup`` flags for it."""
    pairs = draw(st.integers(1, 6))
    docs, labels = make_planted_corpus(draw(st.integers(2 * pairs, 24)), pairs, draw(st.integers(1, 30)),
                                       vocab_size=draw(st.integers(2, 60)),
                                       edit_rate=draw(st.sampled_from([0.0, 0.2, 0.6])),
                                       seed=draw(st.integers(0, 2**32)))
    estimator = draw(st.sampled_from(_ESTIMATORS))
    metric = draw(st.sampled_from(["jaccard", "idf"]) if estimator in ("exact", "dothash") else st.just("jaccard"))
    negatives = draw(st.integers(1, 40))
    flags = ["dedup", "--estimator", estimator, "--metric", metric, *_size_flags(draw, estimator),
             "--shingle-width", str(draw(st.integers(1, 5))), "--k-at", str(draw(st.integers(1, negatives))),
             "--negatives", str(negatives), "--seed", str(draw(st.integers(0, 2**64 - 1)))]
    corpus = "".join(json.dumps({"id": d.doc_id, "text": d.text}) + "\n" for d in docs)
    return corpus, "id_a,id_b\n" + "".join(f"{a},{b}\n" for a, b in labels), flags


def _csv_runs(reference, directory: Path, flags: list[str]) -> list:
    """Exit code, stdout and CSV bytes of ``flags`` in each tree, this one first."""
    results = []
    for tree, main in (("current", cli.main), ("reference", reference.main)):
        out = directory / f"{tree}.csv"
        out.unlink(missing_ok=True)
        results.append((*_quiet_call(main, [*flags, "--out", str(out)]), out.read_bytes() if out.exists() else None))
    return results


@settings(max_examples=150, deadline=None)
@given(run=_linkpred_runs())
@example(run=("".join(f"{i} {(i * 7 + 3) % 12}\n{i} {(i + 1) % 12}\n" for i in range(12)),
              ["linkpred", "--estimator", "dothash", "--metric", "jaccard", "--dims", "4", "--test-fraction", "0.5",
               "--neg-per-pos", "3", "--k-at", "2", "4", "2", "--repeats", "3", "--seed", "1"]))
def test_linkpred_csv_on_generated_graphs(reference, tmp_path_factory, run):
    edges, flags = run
    directory = tmp_path_factory.mktemp("linkpred")
    (directory / "edges.txt").write_text(edges)
    flags = [*flags, "--edges", str(directory / "edges.txt")]
    current, ref = _csv_runs(reference, directory, flags)
    start, stop = flags.index("--k-at") + 1, flags.index("--repeats")
    k_at = flags[start:stop]
    if len(set(k_at)) < len(k_at):
        # The reference takes a K's hits once per listing, so a K listed
        # twice reads a narrower hits_ci95 there.  It reruns on the distinct
        # Ks, and each listed K takes its row, in the order listed.
        _, ref = _csv_runs(reference, directory, [*flags[:start], *dict.fromkeys(k_at), *flags[stop:]])
        if ref[2] is not None:
            header, *rows = ref[2].splitlines(keepends=True)
            row_of = {row.split(b",")[3].decode(): row for row in rows}
            ref = (*ref[:2], b"".join([header, *(row_of[k] for k in k_at)]))
    assert current == ref


@settings(max_examples=150, deadline=None)
@given(run=_dedup_runs())
def test_dedup_csv_on_generated_corpora(reference, tmp_path_factory, run):
    corpus, labels, flags = run
    directory = tmp_path_factory.mktemp("dedup")
    (directory / "corpus.jsonl").write_text(corpus)
    (directory / "labels.csv").write_text(labels)
    current, ref = _csv_runs(reference, directory, [*flags, "--corpus", str(directory / "corpus.jsonl"),
                                                    "--labels", str(directory / "labels.csv")])
    assert current == ref


# Scores, not only the hits@K a CSV reduces them to: this tree's batch scorer
# against the reference's per-pair scorers, on one small graph and one corpus,
# each with some empty sets.  Exact, MinHash, SimHash and unit DotHash scores
# must have equal bits.  Weighted DotHash scores may differ in their last
# bits, because the reference adds a set's weighted sign rows with a BLAS
# matmul and this tree through the byte table of ``sketches._root_sums``,
# which rounds in another order; they must agree to WEIGHTED_RTOL of the
# largest score, since an estimate near 0 is a difference of large sums.
WEIGHTED_RTOL = 1e-12
SCORE_SIZES = {"exact": None, "dothash": 256, "minhash": 32, "simhash": 100}
LINKPRED_CASES = [*[(estimator, metric) for estimator in ("exact", "dothash")
                    for metric in ("jaccard", "common_neighbors", "adamic_adar", "resource_allocation")],
                  ("minhash", "jaccard"), ("simhash", "jaccard")]


def _assert_same_scores(current: np.ndarray, ref: np.ndarray, weighted_dothash: bool) -> None:
    assert current.dtype == ref.dtype == np.float64 and current.shape == ref.shape
    if weighted_dothash:
        np.testing.assert_allclose(current, ref, rtol=0, atol=WEIGHTED_RTOL * np.abs(ref).max())
    else:
        assert current.tobytes() == ref.tobytes()


@pytest.mark.parametrize("estimator, metric", LINKPRED_CASES)
def test_linkpred_scores(reference, estimator, metric):
    ref = importlib.import_module("dothash_ref.linkpred")
    # 60 attached nodes and 4 isolated ones; every pair, a node with itself included.
    edges = preferential_attachment_graph(60, 3, seed=9).edges().tolist()
    pairs = np.stack(np.triu_indices(64), axis=1)
    size = SCORE_SIZES[estimator]
    current = sketch_neighborhoods(graph_from_edges(64, edges), Metric(metric), Estimator(estimator),
                                   size, seed=11).score_pairs(pairs)
    expected = ref.sketch_neighborhoods(ref.graph_from_edges(64, edges), ref.Metric(metric),
                                        ref.Estimator(estimator), size, seed=11).score_pairs(pairs)
    _assert_same_scores(current, expected, estimator == "dothash" and metric in ("adamic_adar",
                                                                                  "resource_allocation"))


@pytest.mark.parametrize("estimator, metric", [
    ("exact", "jaccard"), ("exact", "idf"), ("dothash", "jaccard"), ("dothash", "idf"),
    ("minhash", "jaccard"), ("simhash", "jaccard"),
])
def test_dedup_scores(reference, estimator, metric):
    ref = importlib.import_module("dothash_ref.dedup")
    docs, _ = make_planted_corpus(40, 10, 30, vocab_size=200, edit_rate=0.3, seed=3)
    docs += [Document("short", "two words"), Document("blank", "")]
    pairs = np.stack(np.triu_indices(len(docs)), axis=1)
    size = SCORE_SIZES[estimator]
    sets = shingle_csr(docs)
    weights = csr_idf(sets) if metric == "idf" else Metric.JACCARD
    current = sketch_neighborhoods(sets, weights, Estimator(estimator), size, seed=11).score_pairs(pairs)
    shingles = {doc.doc_id: ref.shingle(ref.Document(doc.doc_id, doc.text)) for doc in docs}
    scorer = ref._DocScorer(shingles, ref.build_idf(shingles.values()), ref.Estimator(estimator),
                            ref.DedupMetric(metric), size, 11)
    expected = np.array([scorer.score(docs[a].doc_id, docs[b].doc_id) for a, b in pairs.tolist()])
    _assert_same_scores(current, expected, estimator == "dothash" and metric == "idf")


@pytest.mark.parametrize("estimator", ["dothash", "minhash", "simhash"])
def test_sketch_files_and_compare_json(reference, inputs, tmp_path, capsys, estimator):
    # compare reads the two files the same call list wrote, in the same tree.
    sketch = ["sketch", "--estimator", estimator, *SIZE_FLAGS[estimator], "--seed", "7"]
    _assert_same_outputs(
        reference, tmp_path, capsys,
        [*sketch, "--input", inputs["a.txt"], "--out", "{out}/a.skch"],
        [*sketch, "--input", inputs["b.txt"], "--out", "{out}/b.skch"],
    )
    for tree, main in (("current", cli.main), ("reference", reference.main)):
        directory = tmp_path / tree
        assert main(["compare", str(directory / "0" / "a.skch"), str(directory / "1" / "b.skch")]) == 0
    current, ref = capsys.readouterr().out.splitlines()
    assert json.loads(current)["kind"] == estimator
    assert current == ref


def test_bounds_csv(reference, tmp_path, capsys):
    _assert_same_outputs(reference, tmp_path, capsys, [
        "bounds", "--size-a", "60", "--size-b", "80", "--size-int", "30", "--dims", "64", "256",
        "--eps-points", "5", "--trials", "200", "--seed", "3", "--out", "{out}/bounds.csv"])


@st.composite
def _bounds_flags(draw) -> list[str]:
    """``bounds`` flags: sets of up to 60 elements, some overlap larger than a
    set, 1-3 dims in any order and repeated, and seeds up to 2**64 - 1 - trials."""
    size_a, size_b = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    size_int = draw(st.integers(0, min(size_a, size_b)) | st.integers(0, 60))
    dims = draw(st.lists(st.sampled_from([1, 7, 8, 63, 64, 65, 129, 300]) | st.integers(1, 300),
                         min_size=1, max_size=3))
    trials = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**64 - 1 - trials) | st.integers(2**64 - 1 - trials - 3, 2**64 - 1 - trials))
    return ["bounds", "--size-a", str(size_a), "--size-b", str(size_b), "--size-int", str(size_int),
            "--dims", *map(str, dims), "--eps-points", str(draw(st.integers(0, 5))),
            "--trials", str(trials), "--seed", str(seed)]


@settings(max_examples=150, deadline=None)
@given(flags=_bounds_flags())
@example(flags=["bounds", "--size-a", "60", "--size-b", "60", "--size-int", "60", "--dims", "300", "65", "300",
                "--eps-points", "5", "--trials", "20", "--seed", str(2**64 - 21)])
def test_bounds_csv_on_generated_flags(reference, tmp_path_factory, flags):
    directory = tmp_path_factory.mktemp("bounds")
    results = []
    for tree, main in (("current", cli.main), ("reference", reference.main)):
        out = directory / f"{tree}.csv"
        code, stdout = _quiet_call(main, [*flags, "--out", str(out)])
        results.append((code, stdout, out.read_bytes() if out.exists() else None))
    assert results[0] == results[1]


# Short ASCII words, and any UTF-8 text, which may hold whitespace and line
# breaks of its own; whitespace that str.strip removes from a line's ends.
_ascii_tokens = st.from_regex(r"[a-z0-9_.-]{1,10}", fullmatch=True)
_utf8_tokens = st.text(st.characters(codec="utf-8"), min_size=1, max_size=6)
_ASCII_EDGES = ["", " ", "\t", "\x1f"]
_OTHER_EDGES = ["\u3000", "\xa0", "\x85"]


@st.composite
def _token_file_pairs(draw) -> tuple[bytes, bytes]:
    """Two token files over one pool of tokens, so their sets overlap.

    Half the pairs are all ASCII, so the byte path reads them.  Lines repeat
    tokens, are blank, or pad a token with whitespace, and end in LF, CRLF
    or CR, with or without a break after the last line.
    """
    ascii_only = draw(st.booleans())
    tokens = _ascii_tokens if ascii_only else st.one_of(_ascii_tokens, _utf8_tokens)
    edges = st.sampled_from(_ASCII_EDGES if ascii_only else _ASCII_EDGES + _OTHER_EDGES)
    pool = draw(st.lists(tokens, min_size=1, max_size=12))
    line = st.one_of(st.sampled_from(pool), st.just(""),
                     st.tuples(edges, st.sampled_from(pool), edges).map("".join))

    def token_file() -> bytes:
        lines = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r"])), max_size=40))
        text = "".join(token + end for token, end in lines)
        if lines and draw(st.booleans()):
            text = text[: -len(lines[-1][1])]
        return text.encode("utf-8")

    return token_file(), token_file()


@pytest.fixture(scope="module")
def token_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("tokens")


def _sketch_and_compare(main, directory: Path, inputs: tuple[Path, Path], flags: list[str]) -> list:
    """Exit code and stdout of ``sketch`` of each input and of ``compare`` of the two,
    with the bytes of each sketch file; ``compare`` runs only when both sketches were written.
    """
    directory.mkdir(exist_ok=True)
    results = []
    for name, source in zip("ab", inputs):
        out = directory / f"{name}.skch"
        out.unlink(missing_ok=True)
        results.append(_quiet_call(main, ["sketch", *flags, "--input", str(source), "--out", str(out)]))
        results.append(out.read_bytes() if out.exists() else None)
    if results[0][0] == results[2][0] == 0:
        results.append(_quiet_call(main, ["compare", str(directory / "a.skch"), str(directory / "b.skch")]))
    return results


def _quiet_call(main, argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


@settings(max_examples=100, deadline=None)
@given(files=_token_file_pairs(), estimator=st.sampled_from(["dothash", "minhash", "simhash"]),
       size=st.integers(0, 200),
       seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**65, 2**65)))
@example(files=(b"a\nb\nc\n", b"b\r\nc\r\nd"), estimator="dothash", size=100, seed=2**63)
@example(files=(b"", b"\n\r\n\r"), estimator="minhash", size=7, seed=2**64 - 1)
@example(files=(b" x \r\x1fy\t\n", "caf\u00e9\u2028x".encode()), estimator="simhash",
         size=65, seed=2**63 + 1)
def test_sketch_and_compare_on_generated_tokens(reference, token_dir, files, estimator, size, seed):
    inputs = (token_dir / "a.txt", token_dir / "b.txt")
    for path, data in zip(inputs, files):
        path.write_bytes(data)
    flags = ["--estimator", estimator, "--k" if estimator == "minhash" else "--dims", str(size),
             "--seed", str(seed)]
    current = _sketch_and_compare(cli.main, token_dir / "current", inputs, flags)
    ref = _sketch_and_compare(reference.main, token_dir / "reference", inputs, flags)
    # Sizes below 1 exit 2 in both trees; everything else runs through compare.
    assert len(current) == (5 if size >= 1 else 4)
    assert current == ref
