"""Near-duplicate document detection over shingled text.

Documents are normalized (lowercased, each run of characters other than
letters and digits turned into one space, ASCII text on bytes), tokenized
on whitespace, and turned into sets of hashed w-word shingles.
Corpus-level inverse document frequency supplies the weights for the
weighted similarity sum(idf(x)) over shared shingles, which DotHash
estimates directly; MinHash and SimHash provide unweighted Jaccard
baselines.  The benchmark scores labeled duplicate pairs against
sampled non-duplicate pairs and reports Hits@K.
"""

from __future__ import annotations

import enum
import json
import math
import re
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .encoding import as_element_array, chunk_ranges, slice_ids, whole
from .exact import SortedSet
from .linkpred import Estimator, Metric, decode_line, hits_at_k, per_level, sample_pairs, sketch_neighborhoods
from .sketches import DistinctSets, WeightFn, WeightKind, distinct_sets

# Not called here; bench/spans.py wraps these names until ROADMAP item 1 moves its probes.
from .encoding import element_id  # noqa: F401
from .exact import exact_jaccard, exact_weighted  # noqa: F401
from .sketches import dothash_build, dothash_intersection, dothash_jaccard  # noqa: F401
from .sketches import minhash_build, minhash_jaccard, simhash_build, simhash_similarity  # noqa: F401

_NON_WORD = re.compile(r"[\W_]+", re.UNICODE)
# Keeps the bytes ``_NON_WORD`` leaves in ASCII text, the letters and digits;
# every other byte becomes a space.
_ASCII_WORD = bytes(byte if bytes([byte]).isalnum() else ord(" ") for byte in range(256))


class DedupMetric(enum.Enum):
    JACCARD = "jaccard"
    IDF = "idf"


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass(frozen=True)
class ShingleSet:
    """A document's distinct hashed w-word shingles."""

    doc_id: str
    shingles: SortedSet


def csr_idf(sets: DistinctSets) -> WeightFn:
    """IDF weights ``ln(|D| / doc_freq)`` of the documents ``sets``, as :func:`shingle_csr` gives them.

    An element's doc_freq is the number of sets that hold it, counted by one
    ``np.bincount`` of the ranks, since a set holds each rank once; unseen
    elements use doc_freq = 1.  A weight is ``math.log(corpus_size /
    doc_freq)``, taken once per distinct doc_freq by
    :func:`~dothash.linkpred.per_level`, so batch and scalar paths agree.
    """
    corpus_size = sets.indptr.size - 1
    if corpus_size < 1:
        raise ValueError("cannot build IDF table from an empty corpus")
    freqs = np.bincount(sets.ranks, minlength=sets.distinct.size)
    # A sentinel past the last key has the unseen level doc_freq = 1, whatever it matches.
    keys = np.append(sets.distinct, np.uint64(0))
    weights = per_level(np.append(freqs, 1), lambda df: math.log(corpus_size / df))

    def batch(elements: np.ndarray) -> np.ndarray:
        elements = as_element_array(elements)
        at = np.searchsorted(keys[:-1], elements)
        return np.where(keys[at] == elements, weights[at], weights[-1])

    def scalar(element: int) -> float:
        return float(batch([element])[0])

    return WeightFn(WeightKind.IDF, scalar, batch)


def normalize_text(text: str) -> str:
    """Lowercase ``text``, turn each run of non-alphanumerics (``_`` too) into one space, trim the ends."""
    return _normalized_utf8(text).decode("utf-8")


def _normalized_utf8(text: str) -> bytes:
    """:func:`normalize_text` as UTF-8: ASCII text on bytes, other text by the regex ``[\\W_]+``.

    On ASCII, ``[\\W_]`` is every character but ``[0-9A-Za-z]`` and
    ``bytes.lower`` is ``str.lower``.  So after the lowercased bytes go
    through ``_ASCII_WORD`` only letters, digits and spaces are left, and
    joining the space-separated words with one space gives the regex path's
    text, with no per-word ``str``.  The regex turns lone surrogates into
    spaces too, so the UTF-8 encoding cannot fail.
    """
    if text.isascii():
        return b" ".join(text.encode("ascii").lower().translate(_ASCII_WORD).split())
    return _NON_WORD.sub(" ", text.lower()).strip().encode("utf-8")


def shingle(doc: Document, w: int = 3) -> ShingleSet:
    """All consecutive w-token sequences of the normalized text, hashed.

    Shingle ``i`` hashes ``" ".join(tokens[i : i + w])`` with
    :func:`~dothash.encoding.element_id`.  Documents shorter than w tokens
    yield the empty set.
    """
    ids = shingle_csr([doc], w).distinct
    return ShingleSet(doc_id=doc.doc_id, shingles=SortedSet(tuple(ids.tolist())))


def shingle_csr(docs: Sequence[Document], w: int = 3) -> DistinctSets:
    """Every document's :func:`shingle` set, document ``i`` as set ``i``.

    Documents are hashed in batches of up to ``_CHUNK_BYTES`` of shingle
    text (w times their normalized UTF-8 bytes), so the hashing temporaries
    stay bounded, and the shingle ids of the whole corpus go through one
    :func:`~dothash.sketches.distinct_sets` call.
    """
    w = whole("shingle width", w, 1)
    texts = [_normalized_utf8(doc.text) for doc in docs]
    sizes = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    counts, pieces = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.uint64)]
    for lo, hi in chunk_ranges(w * sizes):
        indptr, ids = _shingle_batch(texts[lo:hi], w)
        counts.append(np.diff(indptr))
        pieces.append(ids)
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return distinct_sets(indptr, np.concatenate(pieces))


def _shingle_batch(texts: list[bytes], w: int) -> tuple[np.ndarray, np.ndarray]:
    """Every shingle of normalized UTF-8 texts as CSR ``(indptr, ids)``, hashed in one call.

    A normalized text is its tokens joined by single spaces, so shingle
    ``i`` is the byte range from the start of token ``i`` to the end of
    token ``i + w - 1``.  The texts are joined by spaces too (empty ones
    left out), which makes every token the run between two spaces.
    """
    buffer = b" ".join(text for text in texts if text)
    spaces = np.flatnonzero(np.frombuffer(buffer, dtype=np.uint8) == ord(" "))
    token_starts = np.concatenate(([0], spaces + 1))
    token_stops = np.append(spaces, len(buffer))
    tokens = np.array([text.count(b" ") + 1 if text else 0 for text in texts], dtype=np.int64)
    counts = np.maximum(tokens - w + 1, 0)
    # First token of every shingle, text by text.
    offsets = np.cumsum(tokens) - tokens - (np.cumsum(counts) - counts)
    first = np.arange(counts.sum()) + np.repeat(offsets, counts)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return indptr, slice_ids(buffer, token_starts[first], token_stops[first + w - 1])


def build_idf(corpus: Iterable[ShingleSet]) -> WeightFn:
    """IDF weights ``ln(|D| / doc_freq)`` of a corpus; unseen shingles use doc_freq = 1."""
    corpus = list(corpus)
    indptr = np.cumsum([0] + [len(s.shingles) for s in corpus])
    ids = np.fromiter(chain.from_iterable(s.shingles.elements for s in corpus), dtype=np.uint64)
    return csr_idf(distinct_sets(indptr, ids))


def load_corpus_jsonl(source: Union[str, Path]) -> list[Document]:
    """Read a JSON-lines corpus with one {"id": ..., "text": ...} per line.

    ``text`` must be a JSON string and ``id`` a string or an integer, read
    as its decimal digits; any other record raises ``ValueError("line N:
    invalid corpus record (...)")``.
    """
    docs: list[Document] = []
    seen: set[str] = set()
    with open(source, "r", encoding="utf-8", errors="surrogateescape") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = decode_line(line, lineno).strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                doc_id, text = _record_fields(record)
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise ValueError(f"line {lineno}: invalid corpus record ({exc})") from None
            if doc_id in seen:
                raise ValueError(f"line {lineno}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            docs.append(Document(doc_id=doc_id, text=text))
    if not docs:
        raise ValueError("corpus has no documents")
    return docs


def _record_fields(record: object) -> tuple[str, str]:
    """A corpus record's ``(doc_id, text)``.

    Raises TypeError unless the record is an object whose ``text`` is a
    string and whose ``id`` is a string or an integer.
    """
    if not isinstance(record, dict):
        raise TypeError(f"expected a JSON object, got {type(record).__name__}")
    doc_id, text = record["id"], record["text"]
    # bool is an int subclass, but JSON true and false are not ids.
    if not isinstance(doc_id, (str, int)) or isinstance(doc_id, bool):
        raise TypeError(f"id must be a string or an integer, got {type(doc_id).__name__}")
    if not isinstance(text, str):
        raise TypeError(f"text must be a string, got {type(text).__name__}")
    return str(doc_id), text


def _label_error(a: str, b: str, seen: set[tuple[str, str]]) -> str | None:
    """Why the label ``(a, b)`` is invalid, else None and the pair joins ``seen``.

    A label may not pair a document with itself, nor repeat a pair in
    ``seen``, in either order.
    """
    if a == b:
        return f"label pairs document {a!r} with itself"
    key = (a, b) if a < b else (b, a)
    if key in seen:
        return f"label pair ({a!r}, {b!r}) is listed twice"
    seen.add(key)
    return None


def load_pairs_csv(source: Union[str, Path]) -> list[tuple[str, str]]:
    """Read duplicate-pair labels from a CSV with header id_a,id_b.

    A row that pairs a document with itself or repeats an earlier pair, in
    either order, raises ValueError naming its line.
    """
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    with open(source, "r", encoding="utf-8", errors="surrogateescape") as fp:
        header = decode_line(fp.readline(), 1).strip()
        if header != "id_a,id_b":
            raise ValueError(f"labels file must start with header 'id_a,id_b', got {header!r}")
        for lineno, line in enumerate(fp, start=2):
            line = decode_line(line, lineno).strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected 2 fields, got {len(fields)}")
            error = _label_error(fields[0], fields[1], seen)
            if error:
                raise ValueError(f"line {lineno}: {error}")
            pairs.append((fields[0], fields[1]))
    return pairs


def make_planted_corpus(
    n_docs: int = 200,
    n_dup_pairs: int = 50,
    words_per_doc: int = 120,
    vocab_size: int = 2000,
    edit_rate: float = 0.10,
    seed: int = 0,
) -> tuple[list[Document], list[tuple[str, str]]]:
    """Synthetic corpus with planted near-duplicates for benchmarking.

    Generates ``n_docs - n_dup_pairs`` base documents of random vocabulary
    words, then copies the first ``n_dup_pairs`` of them with
    ``edit_rate`` of the word positions rewritten to random words.
    Returns the documents plus the labeled (original, copy) pairs.
    """
    n_dup_pairs = whole("n_dup_pairs", n_dup_pairs, 0)
    n_docs = whole("n_docs", n_docs, 2 * n_dup_pairs)
    words_per_doc = whole("words_per_doc", words_per_doc, 0)
    vocab_size = whole("vocab_size", vocab_size, 1)
    rng = np.random.default_rng(whole("seed", seed, 0))
    vocab = [f"w{i:05d}" for i in range(vocab_size)]
    n_base = n_docs - n_dup_pairs
    docs: list[Document] = []
    for i in range(n_base):
        words = [vocab[j] for j in rng.integers(0, vocab_size, size=words_per_doc)]
        docs.append(Document(doc_id=f"doc{i:04d}", text=" ".join(words)))
    pairs: list[tuple[str, str]] = []
    n_edits = math.ceil(edit_rate * words_per_doc)
    for i in range(n_dup_pairs):
        words = docs[i].text.split()
        positions = rng.choice(words_per_doc, size=n_edits, replace=False)
        for pos in positions:
            words[int(pos)] = vocab[int(rng.integers(0, vocab_size))]
        dup_id = f"doc{i:04d}-dup"
        docs.append(Document(doc_id=dup_id, text=" ".join(words)))
        pairs.append((docs[i].doc_id, dup_id))
    return docs, pairs


@dataclass(frozen=True)
class DedupConfig:
    estimator: Estimator
    metric: DedupMetric
    dims_or_k: int | None = None
    shingle_width: int = 3
    hits_k: int = 25
    negatives: int = 1000
    seed: int = 0


@dataclass(frozen=True)
class DedupResult:
    estimator: str
    metric: str
    dims_or_k: int
    shingle_width: int
    k: int
    hits: float
    build_seconds: float
    compare_seconds: float


def _doc_rows(doc_ids: Sequence[str]) -> dict[str, int]:
    """Each doc id's position in ``doc_ids``; ValueError on a repeated id."""
    rows: dict[str, int] = {}
    for row, doc_id in enumerate(doc_ids):
        if doc_id in rows:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        rows[doc_id] = row
    return rows


def sample_negative_pairs(
    doc_ids: Sequence[str],
    positive_pairs: Sequence[tuple[str, str]],
    count: int,
    seed: int,
) -> list[tuple[str, str]]:
    """Uniform distinct document pairs that are not labeled duplicates.

    Index pairs are drawn by :func:`~dothash.linkpred.sample_pairs`, the
    sampler of link prediction's negatives, with the labeled pairs as its
    exclusion, and returned in draw order as ``(doc_ids[i], doc_ids[j])``
    for each taken draw ``(i, j)``.  Raises ValueError on a repeated doc id,
    when fewer than ``count`` pairs are available, and when the sampler's
    budget of ``max(100 * count, 10_000)`` draws runs out.
    """
    rows, n = _doc_rows(doc_ids), len(doc_ids)
    labeled = {(min(rows[a], rows[b]), max(rows[a], rows[b]))
               for a, b in positive_pairs if a in rows and b in rows and a != b}
    max_pairs = n * (n - 1) // 2 - len(labeled)
    if count > max_pairs:
        raise ValueError(f"cannot sample {count} negative pairs from {max_pairs} available")
    pairs = sample_pairs(np.random.default_rng(whole("seed", seed, 0)), n, count, lambda i, j: (i, j) in labeled)
    return [(doc_ids[i], doc_ids[j]) for i, j in pairs.tolist()]


def run_dedup_benchmark(
    corpus: Sequence[Document],
    duplicate_pairs: Sequence[tuple[str, str]],
    config: DedupConfig,
) -> DedupResult:
    """Shingle, weight, sketch, and rank labeled duplicates against negatives.

    Raises ValueError on a repeated doc id, a label naming an unknown one,
    and a label that pairs a document with itself or repeats an earlier
    pair, in either order.
    """
    doc_ids = [doc.doc_id for doc in corpus]
    row = _doc_rows(doc_ids)
    seen: set[tuple[str, str]] = set()
    for index, (a, b) in enumerate(duplicate_pairs, start=1):
        if a not in row or b not in row:
            raise ValueError(f"unknown doc_id in labels: {a if a not in row else b!r}")
        error = _label_error(a, b, seen)
        if error:
            raise ValueError(f"label {index}: {error}")
    hits_k = whole("hits_k", config.hits_k, 1)
    if whole("negatives", config.negatives) < hits_k:
        raise ValueError(f"fewer negatives available than K ({config.negatives} < {hits_k})")
    t0 = time.perf_counter()
    sets = shingle_csr(corpus, config.shingle_width)
    metric = csr_idf(sets) if config.metric is DedupMetric.IDF else Metric.JACCARD
    scorer = sketch_neighborhoods(sets, metric, config.estimator, config.dims_or_k, config.seed)
    t1 = time.perf_counter()
    negatives = sample_negative_pairs(doc_ids, duplicate_pairs, config.negatives, config.seed)
    pos_scores = scorer.score_pairs(np.array([(row[a], row[b]) for a, b in duplicate_pairs]))
    neg_scores = scorer.score_pairs(np.array([(row[a], row[b]) for a, b in negatives]))
    t2 = time.perf_counter()
    return DedupResult(
        estimator=config.estimator.value,
        metric=config.metric.value,
        dims_or_k=whole("dims_or_k", config.dims_or_k or 0),
        shingle_width=whole("shingle width", config.shingle_width),
        k=hits_k,
        hits=hits_at_k(pos_scores, neg_scores, hits_k),
        build_seconds=t1 - t0,
        compare_seconds=t2 - t1,
    )
