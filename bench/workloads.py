"""The benchmark's workloads: generated inputs, CLI call plans and quality gaps.

Each workload turns a seed into input files, a fixed list of ``dothash``
CLI calls over those files, and an accuracy guard (``quality_gap``) computed
from the calls' primary outputs.  Inputs come from the benchmark's own
generators, not the library's, so a change to the program under test
cannot change what it is fed.  The generators follow the same algorithms as
``dothash.linkpred.preferential_attachment_graph`` and
``dothash.dedup.make_planted_corpus``.

Sizes live in the frozen dataclasses below; the benchmark's tests shrink
them with :func:`dataclasses.replace` to stay fast.  Each workload's
``reference_s`` is the wall seconds of one iteration of the frozen
reference program (``bench/reference``) running alone on the baseline host;
``run.py`` reports ``run_s`` in these units.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``dothash.cli.main(argv)`` plus its primary output files."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class CallResult:
    code: int
    seconds: float
    stdout: str
    stderr: str
    outputs: tuple[bytes, ...]


@dataclass(frozen=True)
class Quality:
    """The accuracy guard of one workload iteration.

    ``gap`` is None when an output could not be parsed; ``blame`` is the
    label of the estimator call that fails when the gap is out of bounds.
    """

    gap: float | None
    tolerance: float
    blame: str

    @property
    def ok(self) -> bool:
        return self.gap is not None and self.gap <= self.tolerance


def derive_seeds(seed: int) -> tuple[int, int]:
    """Independent (input generator, CLI --seed) seeds from the workload seed."""
    gen_seed, cli_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(gen_seed), int(cli_seed) % (1 << 31)


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


@dataclass(frozen=True)
class LinkpredAA:
    """Link prediction with Adamic-Adar weights: DotHash against the exact oracle."""

    name: str = "linkpred-aa"
    nodes: int = 2000
    attach: int = 12
    dims: int = 4096
    repeats: int = 3
    k_at: int = 50
    # Largest |Hits@K(DotHash) - Hits@K(exact)| accepted at d=4096; seeds 1-12
    # gave at most 0.006, against Hits@50 of about 0.09.
    tolerance: float = 0.03
    reference_s: float = 2.67

    def generate(self, seed: int, inputs: Path) -> None:
        rng = np.random.default_rng(seed)
        edges = preferential_attachment_edges(self.nodes, self.attach, rng)
        (inputs / "edges.txt").write_text("".join(f"{u} {v}\n" for u, v in edges))

    def calls(self, inputs: Path, outputs: Path, cli_seed: int) -> list[Call]:
        common = ("linkpred", "--edges", str(inputs / "edges.txt"), "--metric", "adamic_adar",
                  "--repeats", str(self.repeats), "--k-at", str(self.k_at),
                  "--seed", str(cli_seed))
        sketch_csv, exact_csv = str(outputs / "dothash.csv"), str(outputs / "exact.csv")
        return [
            Call("linkpred-dothash", common + ("--estimator", "dothash", "--dims", str(self.dims),
                                               "--out", sketch_csv), (sketch_csv,)),
            Call("linkpred-exact", common + ("--estimator", "exact", "--out", exact_csv),
                 (exact_csv,)),
        ]

    def quality(self, results: dict[str, CallResult]) -> Quality:
        return _hits_gap(results, "linkpred-dothash", "linkpred-exact", "hits_mean",
                         self.tolerance)


@dataclass(frozen=True)
class DedupIdf:
    """Planted-duplicate dedup with IDF weights: DotHash against the exact oracle."""

    name: str = "dedup-idf"
    docs: int = 400
    dup_pairs: int = 100
    words_per_doc: int = 120
    # A small vocabulary gives unrelated documents shared shingles and heavy
    # edits leave few shingles in common, so neither estimator ranks every
    # duplicate first: exact Hits@25 was 0.93-0.95 and DotHash 0.74-0.83 on
    # seeds 1-4, and a change to the numerics moves the gap.
    vocab: int = 30
    edit_rate: float = 0.65
    dims: int = 8192
    negatives: int = 1000
    k_at: int = 25
    # Largest |Hits@K(DotHash) - Hits@K(exact)| accepted at d=8192.
    tolerance: float = 0.35
    reference_s: float = 1.43

    def generate(self, seed: int, inputs: Path) -> None:
        rng = np.random.default_rng(seed)
        docs, pairs = planted_corpus(self.docs, self.dup_pairs, self.words_per_doc, self.vocab,
                                     self.edit_rate, rng)
        (inputs / "corpus.jsonl").write_text(
            "".join(json.dumps({"id": doc_id, "text": text}) + "\n" for doc_id, text in docs))
        (inputs / "labels.csv").write_text("id_a,id_b\n" + "".join(f"{a},{b}\n" for a, b in pairs))

    def calls(self, inputs: Path, outputs: Path, cli_seed: int) -> list[Call]:
        common = ("dedup", "--corpus", str(inputs / "corpus.jsonl"),
                  "--labels", str(inputs / "labels.csv"), "--metric", "idf",
                  "--negatives", str(self.negatives), "--k-at", str(self.k_at),
                  "--seed", str(cli_seed))
        sketch_csv, exact_csv = str(outputs / "dothash.csv"), str(outputs / "exact.csv")
        return [
            Call("dedup-dothash", common + ("--estimator", "dothash", "--dims", str(self.dims),
                                            "--out", sketch_csv), (sketch_csv,)),
            Call("dedup-exact", common + ("--estimator", "exact", "--out", exact_csv),
                 (exact_csv,)),
        ]

    def quality(self, results: dict[str, CallResult]) -> Quality:
        return _hits_gap(results, "dedup-dothash", "dedup-exact", "hits", self.tolerance)


@dataclass(frozen=True)
class SketchIO:
    """Two large unit-weight token files through sketch, file I/O and compare."""

    name: str = "sketch-io"
    tokens: int = 10_000
    overlap: float = 0.5
    dims: int = 4096
    k: int = 128
    # Accepted relative error of the DotHash intersection, in standard
    # deviations of the estimator, (|A||B| + i^2 - 2i) / d.
    sigmas: float = 5.0
    reference_s: float = 1.35

    @property
    def shared(self) -> int:
        return int(self.tokens * self.overlap)

    def generate(self, seed: int, inputs: Path) -> None:
        rng = np.random.default_rng(seed)
        total = 2 * self.tokens - self.shared
        ids = np.unique(rng.integers(0, 1 << 62, size=total + total // 8, dtype=np.int64))
        ids = rng.permutation(ids)[:total]
        if len(ids) < total:  # the true overlap would be wrong
            raise RuntimeError("token draw produced too few distinct ids")
        tokens = [f"tok-{int(x):016x}" for x in ids]
        a = tokens[: self.tokens]
        b = tokens[self.tokens - self.shared : total]
        for name, part in (("a.txt", a), ("b.txt", b)):
            order = rng.permutation(len(part))
            (inputs / name).write_text("".join(part[i] + "\n" for i in order))

    def calls(self, inputs: Path, outputs: Path, cli_seed: int) -> list[Call]:
        sizes = {"dothash": ("--dims", str(self.dims)), "minhash": ("--k", str(self.k)),
                 "simhash": ("--dims", str(self.dims))}
        calls = []
        for estimator, size in sizes.items():
            for side in ("a", "b"):
                out = str(outputs / f"{estimator}-{side}.skch")
                calls.append(Call(f"sketch-{estimator}-{side}",
                                  ("sketch", "--estimator", estimator, *size,
                                   "--input", str(inputs / f"{side}.txt"), "--out", out,
                                   "--seed", str(cli_seed)),
                                  (out,)))
        for estimator in sizes:
            calls.append(Call(f"compare-{estimator}",
                              ("compare", str(outputs / f"{estimator}-a.skch"),
                               str(outputs / f"{estimator}-b.skch"))))
        return calls

    def quality(self, results: dict[str, CallResult]) -> Quality:
        i = self.shared
        sigma = math.sqrt((self.tokens * self.tokens + i * i - 2 * i) / self.dims)
        tolerance = self.sigmas * sigma / i
        result = results.get("compare-dothash")
        try:
            estimate = float(json.loads(result.stdout)["estimate"])
        except (AttributeError, ValueError, KeyError, TypeError):
            return Quality(None, tolerance, "compare-dothash")
        return Quality(abs(estimate - i) / i, tolerance, "compare-dothash")


@dataclass(frozen=True)
class BoundsMC:
    """The Monte-Carlo error-curve sweep of ``dothash bounds``."""

    name: str = "bounds-mc"
    size_a: int = 200
    size_b: int = 200
    size_int: int = 100
    dims: tuple[int, ...] = (512, 1024, 2048)
    trials: int = 1000
    # Largest |empirical - clt| accepted over the (d, epsilon) grid.
    tolerance: float = 0.10
    reference_s: float = 1.90

    def generate(self, seed: int, inputs: Path) -> None:
        """No input files: the sweep's sets are fixed by its flags."""

    def calls(self, inputs: Path, outputs: Path, cli_seed: int) -> list[Call]:
        out = str(outputs / "bounds.csv")
        return [Call("bounds", ("bounds", "--size-a", str(self.size_a),
                                "--size-b", str(self.size_b), "--size-int", str(self.size_int),
                                "--dims", *map(str, self.dims), "--trials", str(self.trials),
                                "--seed", str(cli_seed), "--out", out), (out,))]

    def quality(self, results: dict[str, CallResult]) -> Quality:
        try:
            rows = _csv_rows(results["bounds"].outputs[0])
            gap = max(abs(float(r["empirical"]) - float(r["clt"])) for r in rows)
        except (KeyError, IndexError, ValueError, UnicodeDecodeError):
            return Quality(None, self.tolerance, "bounds")
        return Quality(gap, self.tolerance, "bounds")


def _hits_gap(results: dict[str, CallResult], sketch: str, exact: str, column: str,
              tolerance: float) -> Quality:
    try:
        a = float(_csv_rows(results[sketch].outputs[0])[0][column])
        b = float(_csv_rows(results[exact].outputs[0])[0][column])
    except (KeyError, IndexError, ValueError, UnicodeDecodeError):
        return Quality(None, tolerance, sketch)
    return Quality(abs(a - b), tolerance, sketch)


WORKLOADS = {w.name: w for w in (LinkpredAA(), DedupIdf(), SketchIO(), BoundsMC())}


def preferential_attachment_edges(n: int, m: int,
                                  rng: np.random.Generator) -> list[tuple[int, int]]:
    """Edges of a growing graph where each new node picks m degree-weighted targets."""
    edges: list[tuple[int, int]] = []
    targets = list(range(m))
    repeated: list[int] = []
    for v in range(m, n):
        edges.extend((v, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(0, len(repeated)))])
        targets = sorted(chosen)
    return edges


def planted_corpus(n_docs: int, n_dup_pairs: int, words_per_doc: int, vocab_size: int,
                   edit_rate: float, rng: np.random.Generator
                   ) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """Random-word documents plus edited copies of the first n_dup_pairs of them."""
    vocab = [f"w{i:05d}" for i in range(vocab_size)]
    docs: list[tuple[str, str]] = []
    for i in range(n_docs - n_dup_pairs):
        words = [vocab[j] for j in rng.integers(0, vocab_size, size=words_per_doc)]
        docs.append((f"doc{i:04d}", " ".join(words)))
    pairs: list[tuple[str, str]] = []
    n_edits = math.ceil(edit_rate * words_per_doc)
    for i in range(n_dup_pairs):
        words = docs[i][1].split()
        for pos in rng.choice(words_per_doc, size=n_edits, replace=False):
            words[int(pos)] = vocab[int(rng.integers(0, vocab_size))]
        docs.append((f"doc{i:04d}-dup", " ".join(words)))
        pairs.append((docs[i][0], f"doc{i:04d}-dup"))
    return docs, pairs
