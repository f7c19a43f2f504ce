"""Tests for shingling, IDF weighting, and the deduplication benchmark."""

import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dothash import dedup, encoding
from dothash.dedup import (
    DedupConfig,
    DedupMetric,
    Document,
    ShingleSet,
    build_idf,
    csr_idf,
    load_corpus_jsonl,
    load_pairs_csv,
    make_planted_corpus,
    run_dedup_benchmark,
    sample_negative_pairs,
    shingle,
    shingle_csr,
)
from dothash.encoding import element_id
from dothash.exact import SortedSet, exact_weighted
from dothash.linkpred import Estimator
from dothash.sketches import WeightKind, distinct_sets


def _doc_freq(sets) -> dict[int, int]:
    """Per element, the number of sets holding it, counted one set at a time."""
    doc_freq: dict[int, int] = {}
    for s in sets:
        for element in s:
            doc_freq[element] = doc_freq.get(element, 0) + 1
    return doc_freq


def _reference_idf(corpus_size: int, doc_freq: dict[int, int], element: int) -> float:
    """ln(|D| / doc_freq); an unseen shingle has doc_freq = 1."""
    return math.log(corpus_size / doc_freq.get(element, 1))


def _csr_rows(sets) -> list[tuple[int, ...]]:
    ids = sets.distinct[sets.ranks]
    return [tuple(ids[lo:hi].tolist()) for lo, hi in zip(sets.indptr[:-1], sets.indptr[1:])]


def _regex_normalize(text: str) -> str:
    """The regex normalizer, the reference for both of ``dedup._normalized_utf8``'s paths."""
    return re.sub(r"[\W_]+", " ", text.lower()).strip()


def _reference_shingles(text: str, w: int) -> list[int]:
    """Sorted distinct ids of ``text``'s w-word shingles, one ``element_id`` call per shingle."""
    tokens = _regex_normalize(text).split()
    return sorted({element_id(" ".join(tokens[i : i + w])) for i in range(len(tokens) - w + 1)})


# Every ASCII code point, plus characters on which the regex and ASCII rules
# could part: underscore, letters whose lowercase differs in length or form,
# an Arabic-Indic digit, no-break space, line separator and CJK.
_ASCII = [chr(c) for c in range(128)]
_MIXED = _ASCII + ["_", "\u00e9", "\u00df", "\u0130", "\u0663", "\u00a0", "\u2028", "\u4e2d", "\u6587"]
_TEXTS = st.one_of(st.text(alphabet=_ASCII, max_size=80), st.text(alphabet=_MIXED, max_size=80))


class TestNormalize:
    @given(_TEXTS)
    @example("".join(_ASCII))
    @example(" _Hello,\tWORLD_again\r\n42\x00x\x7f ")
    @example("Stra\u00dfe \u0130stanbul caf\u00e9 \u0663\u00a0\u2028\u4e2d\u6587_x")
    @example("a\ud800B \udfff")
    @settings(max_examples=500)
    def test_equals_the_regex(self, text):
        assert dedup._normalized_utf8(text) == _regex_normalize(text).encode("utf-8")

    def test_ascii_text_skips_the_regex(self, monkeypatch):
        class Refuse:
            def sub(self, *args):
                raise AssertionError("the regex ran on ASCII text")

        monkeypatch.setattr(dedup, "_NON_WORD", Refuse())
        assert dedup._normalized_utf8("It's A_b\tC-3!") == b"it s a b c 3"
        assert _csr_rows(shingle_csr([Document("d", "One, two: THREE")], 3)) == [
            (element_id("one two three"),)]


class TestShingle:
    def test_two_word_shingles(self):
        result = shingle(Document("d", "A b, C"), w=2)
        expected = {element_id("a b"), element_id("b c")}
        assert set(result.shingles) == expected

    def test_unigrams_are_distinct_tokens(self):
        result = shingle(Document("d", "cat dog cat bird"), w=1)
        assert len(result.shingles) == 3

    def test_short_document_is_empty(self):
        assert len(shingle(Document("d", "one two"), w=3).shingles) == 0

    def test_width_validation(self):
        with pytest.raises(ValueError):
            shingle(Document("d", "a b c"), w=0)

    def test_punctuation_and_case_folded(self):
        a = shingle(Document("d", "Hello, World! Again"), w=2)
        b = shingle(Document("d", "hello world again"), w=2)
        assert set(a.shingles) == set(b.shingles)

    @given(st.text(max_size=120))
    @settings(max_examples=100)
    def test_normalization_idempotent(self, text):
        once = dedup._normalized_utf8(text)
        assert dedup._normalized_utf8(once.decode("utf-8")) == once

    @given(st.text(max_size=80))
    @settings(max_examples=50)
    def test_shingling_normalized_text_is_stable(self, text):
        doc = Document("d", text)
        renorm = Document("d", dedup._normalized_utf8(text).decode("utf-8"))
        assert set(shingle(doc, 2).shingles) == set(shingle(renorm, 2).shingles)


    @given(st.text(max_size=120), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200)
    def test_matches_scalar_shingling(self, text, w):
        assert shingle(Document("d", text), w).shingles.elements == tuple(_reference_shingles(text, w))

    @given(st.lists(st.text(alphabet="ab é,\n", max_size=30), max_size=25), st.integers(1, 3))
    @settings(max_examples=100)
    def test_batches_equal_single_documents(self, texts, w):
        docs = [Document(f"d{i}", text) for i, text in enumerate(texts)]
        expected = [shingle(doc, w).shingles.elements for doc in docs]
        assert _csr_rows(shingle_csr(docs, w)) == expected

    def test_corpus_larger_than_one_batch(self):
        # About 3 MiB of shingle text at w=3, so several batches.
        docs, _ = make_planted_corpus(n_docs=2000, n_dup_pairs=10, words_per_doc=200, seed=3)
        rows = _csr_rows(shingle_csr(docs, 3))
        assert len(rows) == len(docs)
        for doc in docs[::97] + docs[-3:]:
            assert rows[docs.index(doc)] == tuple(_reference_shingles(doc.text, 3))

    def test_many_width_validation(self):
        with pytest.raises(ValueError, match="shingle width"):
            shingle_csr([], w=0)

    @given(st.lists(st.text(alphabet="ab é,\n", max_size=30), max_size=25), st.integers(1, 3),
           st.sampled_from([1, 16, 64, 1 << 20]))
    @settings(max_examples=100, deadline=None)
    def test_csr_equals_scalar_shingling_across_batches(self, texts, w, chunk_bytes):
        # At 1 to 64 bytes of shingle text per batch, most documents get a batch of their own.
        docs = [Document(f"d{i}", text) for i, text in enumerate(texts)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoding, "_CHUNK_BYTES", chunk_bytes)
            sets = shingle_csr(docs, w)
            singles = [shingle(doc, w) for doc in docs]
        indptr, ids = sets.indptr, sets.distinct[sets.ranks]
        assert indptr.tolist()[0] == 0 and len(indptr) == len(docs) + 1 and ids.dtype == np.uint64
        for i, doc in enumerate(docs):
            expected = _reference_shingles(doc.text, w)
            assert ids[indptr[i] : indptr[i + 1]].tolist() == expected
            assert singles[i] == ShingleSet(doc.doc_id, SortedSet(tuple(expected)))

    @given(st.lists(st.one_of(_TEXTS, st.sampled_from(["", "one", "Two words", "_ \t\r\n"])),
                    max_size=20),
           st.integers(1, 4), st.sampled_from([1, 16, 64, 1 << 20]))
    @example(["", "Hello, World_again\tTAB\r\nline 42", "Stra\u00dfe \u0130stanbul caf\u00e9 \u0663",
              "x", "A b", "\u00a0", "plain ascii words here"], 3, 16)
    @settings(max_examples=150, deadline=None)
    def test_mixed_corpus_equals_reference_shingling(self, texts, w, chunk_bytes):
        # ASCII and non-ASCII documents, empty ones and ones shorter than w,
        # in batches small enough to split the corpus.
        docs = [Document(f"d{i}", text) for i, text in enumerate(texts)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoding, "_CHUNK_BYTES", chunk_bytes)
            rows = _csr_rows(shingle_csr(docs, w))
        assert rows == [tuple(_reference_shingles(text, w)) for text in texts]


class TestIdf:
    def _corpus(self):
        docs = [
            Document("a", "red green blue"),
            Document("b", "red yellow purple"),
            Document("c", "red cyan white"),
            Document("d", "red black grey"),
        ]
        return [shingle(d, w=1) for d in docs]

    def test_ubiquitous_shingle_has_zero_idf(self):
        w = build_idf(self._corpus())
        assert w.kind is WeightKind.IDF
        assert w(element_id("never in the corpus")) == math.log(4)
        assert w(element_id("red")) == 0.0

    def test_rare_shingle_idf(self):
        w = build_idf(self._corpus())
        assert w(element_id("cyan")) == pytest.approx(math.log(4))

    def test_unseen_shingle_uses_unit_frequency(self):
        # 100 empty documents: nothing is seen.
        w = csr_idf(distinct_sets(np.zeros(101, dtype=np.int64), np.empty(0, dtype=np.uint64)))
        assert w(12345) == pytest.approx(math.log(100))

    def test_batch_weights_equal_scalar_path(self):
        docs, _ = make_planted_corpus(n_docs=60, n_dup_pairs=15, words_per_doc=40, vocab_size=50, seed=7)
        sets = [shingle(doc) for doc in docs]
        w, doc_freq = build_idf(sets), _doc_freq(s.shingles for s in sets)
        seen = np.array(sorted(doc_freq), dtype=np.uint64)
        unseen = np.array([0, 1, 2**64 - 1, element_id("never in the corpus")], dtype=np.uint64)
        probe = np.concatenate([seen[::-1], unseen, seen + np.uint64(1)])
        batch = w.weights_for(probe)
        scalar = np.array([_reference_idf(60, doc_freq, int(e)) for e in probe])
        assert batch.tobytes() == scalar.tobytes()
        assert [w(int(e)) for e in probe] == scalar.tolist()

    def test_batch_weights_on_empty_table(self):
        # 7 empty documents: no shingle has a document frequency.
        w = csr_idf(distinct_sets(np.zeros(8, dtype=np.int64), np.empty(0, dtype=np.uint64)))
        probe = np.array([0, 5, 2**64 - 1], dtype=np.uint64)
        assert w.weights_for(probe).tolist() == [math.log(7)] * 3

    def test_weights_never_negative(self):
        sets = self._corpus()
        w = build_idf(sets)
        assert all(w(x) >= 0.0 for x in _doc_freq(s.shingles for s in sets))

    def test_doc_freq_bounded_by_corpus_size(self):
        # 1 <= doc_freq <= |D| is 0 <= weight <= ln |D|.
        sets = self._corpus()
        w = build_idf(sets)
        assert all(0.0 <= w(x) <= math.log(4) for x in _doc_freq(s.shingles for s in sets))

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_idf([])
        with pytest.raises(ValueError, match="empty corpus"):
            csr_idf(shingle_csr([]))

    def test_doc_freq_equals_a_per_document_count(self):
        docs, _ = make_planted_corpus(n_docs=80, n_dup_pairs=20, words_per_doc=30, vocab_size=20, seed=4)
        sets = shingle_csr(docs)
        doc_freq = _doc_freq(_csr_rows(sets))
        probe = np.array(sorted(doc_freq), dtype=np.uint64)
        expected = np.array([_reference_idf(80, doc_freq, int(e)) for e in probe])
        assert csr_idf(sets).weights_for(probe).tobytes() == expected.tobytes()
        assert build_idf(shingle(doc) for doc in docs).weights_for(probe).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk_bytes", [64, 1 << 20])
    def test_csr_idf_equals_build_idf(self, monkeypatch, chunk_bytes):
        docs, _ = make_planted_corpus(n_docs=80, n_dup_pairs=20, words_per_doc=30, vocab_size=20, seed=4)
        docs += [Document("short", "two words"), Document("blank", "")]
        monkeypatch.setattr(encoding, "_CHUNK_BYTES", chunk_bytes)
        csr = shingle_csr(docs)
        sets = [shingle(doc) for doc in docs]
        doc_freq = _doc_freq(s.shingles for s in sets)
        seen = np.array(sorted(doc_freq), dtype=np.uint64)
        unseen = np.array([0, 2**64 - 1, element_id("never in the corpus")], dtype=np.uint64)
        probe = np.concatenate([seen, unseen, seen + np.uint64(1)])
        expected = np.array([_reference_idf(82, doc_freq, int(e)) for e in probe])
        got = csr_idf(csr)
        assert got.weights_for(probe).tobytes() == expected.tobytes()
        assert got.weights_for(probe).tobytes() == build_idf(sets).weights_for(probe).tobytes()
        assert [got(int(e)) for e in probe] == expected.tolist()

    def test_sim_idf_composition(self):
        # sim_idf(A, B) = sum of idf over shared shingles, via exact_weighted
        sets = self._corpus()
        w = build_idf(sets)
        score = exact_weighted(sets[0].shingles, sets[1].shingles, w)
        assert score == pytest.approx(_reference_idf(4, _doc_freq(s.shingles for s in sets),
                                                     element_id("red")))

    def test_self_similarity_is_total_weight(self):
        sets = self._corpus()
        w = build_idf(sets)
        doc_freq = _doc_freq(s.shingles for s in sets)
        total = sum(_reference_idf(4, doc_freq, x) for x in sets[1].shingles)
        assert exact_weighted(sets[1].shingles, sets[1].shingles, w) == pytest.approx(total)


class TestLoaders:
    def test_corpus_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "hello"}\n{"id": "b", "text": "world"}\n')
        docs = load_corpus_jsonl(path)
        assert [d.doc_id for d in docs] == ["a", "b"]

    def test_corpus_bad_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_corpus_jsonl(path)

    @pytest.mark.parametrize("record, reason", [
        ('{"id": "b", "text": null}', "text must be a string, got NoneType"),
        ('{"id": "b", "text": 7}', "text must be a string, got int"),
        ('{"id": "b", "text": true}', "text must be a string, got bool"),
        ('{"id": "b", "text": ["x"]}', "text must be a string, got list"),
        ('{"id": "b", "text": {"x": "y"}}', "text must be a string, got dict"),
        ('{"id": null, "text": "x"}', "id must be a string or an integer, got NoneType"),
        ('{"id": true, "text": "x"}', "id must be a string or an integer, got bool"),
        ('{"id": 1.0, "text": "x"}', "id must be a string or an integer, got float"),
        ('{"id": ["b"], "text": "x"}', "id must be a string or an integer, got list"),
        ('{"id": {}, "text": "x"}', "id must be a string or an integer, got dict"),
        ('["b", "x"]', "expected a JSON object, got list"),
        ('"b x"', "expected a JSON object, got str"),
    ])
    def test_corpus_record_types_are_checked(self, tmp_path, record, reason):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + record + "\n")
        with pytest.raises(ValueError, match=f"^line 2: invalid corpus record \\({re.escape(reason)}\\)$"):
            load_corpus_jsonl(path)

    def test_corpus_integer_ids_read_as_decimal(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 7, "text": "x"}\n{"id": -12, "text": "y"}\n{"id": "7a", "text": ""}\n')
        assert load_corpus_jsonl(path) == [Document("7", "x"), Document("-12", "y"), Document("7a", "")]

    def test_corpus_deeply_nested_record(self, tmp_path):
        # json.loads raises RecursionError here; the loader reports the line.
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + "[" * 200_000 + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_corpus_jsonl(path)

    def test_corpus_overlong_integer_reports_line(self, tmp_path):
        # json.loads refuses integers of more than 4300 digits with a bare ValueError.
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": ' + "9" * 5000 + ', "text": "y"}\n')
        with pytest.raises(ValueError, match="^line 2: invalid corpus record"):
            load_corpus_jsonl(path)

    def test_corpus_duplicate_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(ValueError, match="duplicate doc_id"):
            load_corpus_jsonl(path)

    def test_corpus_undecodable_utf8_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a", "text": "x"}\n{"id": "b", "text": "\xff"}\n')
        with pytest.raises(ValueError, match="^line 2: 'utf-8' codec can't decode byte 0xff"):
            load_corpus_jsonl(path)

    def test_pairs_undecodable_utf8_reports_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"id_a,id_b\na,b\n\xfe,c\n")
        with pytest.raises(ValueError, match="^line 3: 'utf-8' codec can't decode byte 0xfe"):
            load_pairs_csv(path)
        path.write_bytes(b"id_a,\xffid_b\n")
        with pytest.raises(ValueError, match="^line 1: "):
            load_pairs_csv(path)

    def test_pairs_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id_a,id_b\na,b\nc,d\n")
        assert load_pairs_csv(path) == [("a", "b"), ("c", "d")]

    def test_pairs_csv_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("x,y\na,b\n")
        with pytest.raises(ValueError, match="header"):
            load_pairs_csv(path)

    def test_pairs_csv_self_label_names_its_line(self, tmp_path):
        # Scored, it was a positive with the top score.
        path = tmp_path / "labels.csv"
        path.write_text("id_a,id_b\na,b\n\nc,c\n")
        with pytest.raises(ValueError, match="^line 4: label pairs document 'c' with itself$"):
            load_pairs_csv(path)

    @pytest.mark.parametrize("repeat", ["a,b", "b,a"])
    def test_pairs_csv_repeated_pair_names_its_line(self, tmp_path, repeat):
        # Scored, it counted twice.
        path = tmp_path / "labels.csv"
        path.write_text(f"id_a,id_b\na,b\nc,d\n{repeat}\n")
        first, second = repeat.split(",")
        with pytest.raises(ValueError, match=re.escape(
                f"line 4: label pair ('{first}', '{second}') is listed twice")):
            load_pairs_csv(path)


class TestPlantedCorpus:
    def test_shape_and_determinism(self):
        docs1, pairs1 = make_planted_corpus(n_docs=40, n_dup_pairs=10, seed=5)
        docs2, pairs2 = make_planted_corpus(n_docs=40, n_dup_pairs=10, seed=5)
        assert len(docs1) == 40 and len(pairs1) == 10
        assert [d.text for d in docs1] == [d.text for d in docs2]
        assert pairs1 == pairs2

    def test_duplicates_share_most_words(self):
        docs, pairs = make_planted_corpus(n_docs=20, n_dup_pairs=5, edit_rate=0.1, seed=6)
        by_id = {d.doc_id: d for d in docs}
        for orig, dup in pairs:
            a = by_id[orig].text.split()
            b = by_id[dup].text.split()
            same = sum(1 for x, y in zip(a, b) if x == y)
            assert same >= 0.85 * len(a)

    def test_edit_rate_must_lie_in_the_unit_interval(self):
        # On 10-word documents -0.05 once gave the documents of 0.0, and 1.5,
        # -0.1 and NaN raised numpy's or math's own errors, which named no
        # argument.
        for bad in (-0.05, 1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"^edit_rate must lie in \[0, 1\]$"):
                make_planted_corpus(n_docs=20, n_dup_pairs=5, words_per_doc=10, edit_rate=bad, seed=6)
        # The ends are taken: no word rewritten, and every word position drawn anew.
        docs, pairs = make_planted_corpus(n_docs=20, n_dup_pairs=5, words_per_doc=10, edit_rate=0.0, seed=6)
        by_id = {d.doc_id: d.text for d in docs}
        assert all(by_id[orig] == by_id[dup] for orig, dup in pairs)
        docs, pairs = make_planted_corpus(n_docs=20, n_dup_pairs=5, words_per_doc=10, edit_rate=1.0, seed=6)
        assert len(docs) == 20 and len(pairs) == 5


class TestNegativeSampling:
    def test_excludes_labeled_pairs(self):
        ids = [f"d{i}" for i in range(10)]
        labeled = [("d0", "d1"), ("d2", "d3")]
        negs = sample_negative_pairs(ids, labeled, count=30, seed=0)
        assert len(negs) == 30
        labeled_sets = {frozenset(p) for p in labeled}
        assert all(frozenset(p) not in labeled_sets for p in negs)
        assert len({frozenset(p) for p in negs}) == 30

    def test_too_many_requested(self):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_negative_pairs(["a", "b", "c"], [], count=10, seed=0)

    @staticmethod
    def _scalar_reference(doc_ids, positive_pairs, count, seed):
        """The one-draw-at-a-time rejection loop the batched sampler must reproduce."""
        forbidden = {frozenset(p) for p in positive_pairs}
        rng = np.random.default_rng(seed)
        n = len(doc_ids)
        chosen, negatives = set(), []
        while len(negatives) < count:
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            a, b = doc_ids[int(i)], doc_ids[int(j)]
            key = frozenset((a, b))
            if key in forbidden or key in chosen:
                continue
            chosen.add(key)
            negatives.append((a, b))
        return negatives

    @given(st.integers(2, 40), st.data(), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_batched_draws_equal_scalar_loop(self, n, data, seed):
        ids = [f"d{i}" for i in range(n)]
        index = st.integers(0, n - 1)
        labeled = [(ids[a], ids[b]) for a, b in data.draw(st.lists(st.tuples(index, index), max_size=20))]
        available = n * (n - 1) // 2 - len({frozenset(p) for p in labeled if p[0] != p[1]})
        # Up to every available pair, where the last draws are mostly rejected.
        count = data.draw(st.integers(0, available))
        got = sample_negative_pairs(ids, labeled, count, seed)
        assert got == self._scalar_reference(ids, labeled, count, seed)

    def test_batched_draws_equal_scalar_loop_on_a_corpus(self):
        ids = [f"doc{i:04d}" for i in range(400)]
        labeled = [(ids[i], ids[i + 300]) for i in range(100)]
        for seed in range(3):
            assert (sample_negative_pairs(ids, labeled, 1000, seed)
                    == self._scalar_reference(ids, labeled, 1000, seed))

    @pytest.mark.parametrize("n", [7, 400, 3 * 2**30, 2**40 + 3])
    def test_one_batch_draws_what_single_draws_do(self, n):
        # The batched sampler relies on this: one (B, 2) draw consumes the
        # stream as B draws of size 2, also where many 32-bit draws are
        # rejected (n = 3 * 2**30) and across uneven batches.
        rng = np.random.default_rng(3)
        single = np.array([rng.integers(0, n, size=2) for _ in range(3000)])
        rng = np.random.default_rng(3)
        batched = np.concatenate([rng.integers(0, n, size=(b, 2)) for b in (1, 999, 2000)])
        assert np.array_equal(single, batched)

    def test_self_label_leaves_every_pair_available(self):
        negs = sample_negative_pairs(["a", "b", "c"], [("a", "a")], count=3, seed=0)
        assert sorted(map(frozenset, negs), key=sorted) == [
            frozenset("ab"), frozenset("ac"), frozenset("bc")]

    def test_repeated_doc_id_raises_without_hanging(self):
        # Before the check, the available pairs were overcounted and this
        # call never returned; a subprocess with a timeout turns a hang into
        # a failure.
        script = textwrap.dedent("""
            from dothash.dedup import sample_negative_pairs
            try:
                sample_negative_pairs(["a", "a", "b", "c"], [("a", "b")], count=5, seed=0)
            except ValueError as exc:
                print(exc)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                timeout=60, env={"PYTHONPATH": src}, check=True)
        assert result.stdout.strip() == "duplicate doc_id 'a'"


class TestBenchmark:
    def _exact_copy_corpus(self):
        docs, _ = make_planted_corpus(n_docs=60, n_dup_pairs=0, words_per_doc=60, seed=7)
        copies = [Document(d.doc_id + "-copy", d.text) for d in docs[:15]]
        pairs = [(d.doc_id, c.doc_id) for d, c in zip(docs[:15], copies)]
        return docs + copies, pairs

    def test_exact_copies_idf_dothash_perfect(self):
        docs, pairs = self._exact_copy_corpus()
        result = run_dedup_benchmark(docs, pairs, DedupConfig(
            estimator=Estimator.DOTHASH, metric=DedupMetric.IDF,
            dims_or_k=4096, negatives=500, seed=1))
        assert result.hits == 1.0

    def test_exact_copies_minhash_scores_one(self):
        docs, pairs = self._exact_copy_corpus()
        result = run_dedup_benchmark(docs, pairs, DedupConfig(
            estimator=Estimator.MINHASH, metric=DedupMetric.JACCARD,
            dims_or_k=128, negatives=500, seed=1))
        assert result.hits == 1.0

    def test_dothash_idf_converges_to_exact_oracle(self):
        docs, pairs = make_planted_corpus(n_docs=200, n_dup_pairs=50, seed=80)
        exact = run_dedup_benchmark(docs, pairs, DedupConfig(
            estimator=Estimator.EXACT, metric=DedupMetric.IDF, negatives=1000, seed=81))
        estimated = run_dedup_benchmark(docs, pairs, DedupConfig(
            estimator=Estimator.DOTHASH, metric=DedupMetric.IDF,
            dims_or_k=1 << 16, negatives=1000, seed=81))
        assert abs(exact.hits - estimated.hits) <= 0.02

    @pytest.mark.parametrize("chunk_bytes", [64, 1 << 20])
    def test_one_distinct_pass_per_run(self, monkeypatch, distinct_passes, chunk_bytes):
        # Shingling, in many hashing batches or in one, makes the corpus's
        # one DistinctSets; the IDF counts and the build reuse it.
        docs, pairs = make_planted_corpus(n_docs=40, n_dup_pairs=10, words_per_doc=30, seed=11)
        monkeypatch.setattr(encoding, "_CHUNK_BYTES", chunk_bytes)
        run_dedup_benchmark(docs, pairs, DedupConfig(estimator=Estimator.DOTHASH, metric=DedupMetric.IDF,
                                                     dims_or_k=64, negatives=100, seed=2))
        assert len(distinct_passes) == 1

    def test_unknown_doc_id_in_labels(self):
        docs, pairs = make_planted_corpus(n_docs=20, n_dup_pairs=5, seed=9)
        with pytest.raises(ValueError, match="unknown doc_id"):
            run_dedup_benchmark(docs, pairs + [("ghost", docs[0].doc_id)], DedupConfig(
                estimator=Estimator.EXACT, metric=DedupMetric.JACCARD, negatives=50))

    @pytest.mark.parametrize("extra, error", [
        (("doc0002", "doc0002"), "label 6: label pairs document 'doc0002' with itself"),
        (("doc0001-dup", "doc0001"), "label 6: label pair ('doc0001-dup', 'doc0001') is listed twice"),
    ])
    def test_self_and_repeated_labels_rejected(self, extra, error):
        docs, pairs = make_planted_corpus(n_docs=20, n_dup_pairs=5, seed=9)
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            run_dedup_benchmark(docs, pairs + [extra], DedupConfig(
                estimator=Estimator.EXACT, metric=DedupMetric.JACCARD, negatives=50))

    def test_repeated_doc_id_rejected(self):
        docs, pairs = make_planted_corpus(n_docs=20, n_dup_pairs=5, seed=9)
        docs.append(Document(docs[0].doc_id, "another text under the same id"))
        with pytest.raises(ValueError, match="duplicate doc_id 'doc0000'"):
            run_dedup_benchmark(docs, pairs, DedupConfig(
                estimator=Estimator.EXACT, metric=DedupMetric.JACCARD, negatives=50))

    def test_negatives_below_k_rejected(self):
        docs, pairs = make_planted_corpus(n_docs=20, n_dup_pairs=5, seed=9)
        with pytest.raises(ValueError, match="fewer negatives available than K"):
            run_dedup_benchmark(docs, pairs, DedupConfig(
                estimator=Estimator.EXACT, metric=DedupMetric.JACCARD,
                negatives=10, hits_k=25))

    def test_idf_metric_rejected_for_baselines(self):
        docs, pairs = make_planted_corpus(n_docs=20, n_dup_pairs=5, seed=9)
        with pytest.raises(ValueError, match="estimator cannot express metric"):
            run_dedup_benchmark(docs, pairs, DedupConfig(
                estimator=Estimator.MINHASH, metric=DedupMetric.IDF,
                dims_or_k=32, negatives=50))

    def test_deterministic_given_seed(self):
        docs, pairs = make_planted_corpus(n_docs=40, n_dup_pairs=10, seed=10)
        config = DedupConfig(estimator=Estimator.DOTHASH, metric=DedupMetric.IDF,
                             dims_or_k=512, negatives=100, seed=3)
        r1 = run_dedup_benchmark(docs, pairs, config)
        r2 = run_dedup_benchmark(docs, pairs, config)
        assert r1.hits == r2.hits
