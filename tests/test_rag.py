"""Retrieval tests: chunk geometry and reconstruction, embedder
determinism, and index queries checked against a brute-force scan."""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import itertools
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svagen.cli import main
from svagen.rag import (
    _BLOCK_ENTRIES,
    HashedBowEmbedder,
    RagChunk,
    VectorIndex,
    build_index_from_dir,
    chunk,
    chunk_spans,
    format_context,
)


class TestChunk:
    def test_short_text_single_chunk(self):
        text = "0123456789"
        assert chunk(text, size=10, overlap=0) == [text]

    def test_window_arithmetic(self):
        # whitespace-free text: starts are exact step multiples
        text = "x" * 100
        spans = chunk_spans(text, size=40, overlap=10)
        assert [s for s, _ in spans] == [0, 30, 60, 90]
        assert [e for _, e in spans] == [40, 70, 100, 100]

    def test_overlap_equal_to_size_rejected(self):
        with pytest.raises(ValueError):
            chunk("abc", size=10, overlap=10)

    @pytest.mark.parametrize("size", [0, -5])
    def test_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match="chunk size must be positive"):
            chunk("abc", size=size, overlap=0)

    def test_negative_overlap_rejected(self):
        with pytest.raises(ValueError):
            chunk("abc", size=10, overlap=-1)

    def test_whitespace_preferred_boundary(self):
        text = "aaaa bbbb cccc dddd eeee ffff"
        size, overlap = 12, 4
        spans = chunk_spans(text, size, overlap)
        for (prev_start, _), (start, _) in zip(spans, spans[1:]):
            # either the nominal step, or nudged to just after a whitespace
            assert start == prev_start + (size - overlap) or text[start - 1].isspace()
        # at least one boundary actually snapped to whitespace in this text
        assert any(text[start - 1].isspace() for start, _ in spans[1:])

    def test_empty_text(self):
        assert chunk("", size=10, overlap=2) == []

    @given(
        text=st.text(
            alphabet=st.sampled_from("ab cd\nef"), min_size=0, max_size=400
        ),
        size=st.integers(min_value=2, max_value=60),
        overlap_frac=st.floats(min_value=0, max_value=0.9),
    )
    @settings(max_examples=150, deadline=None)
    def test_reconstruction(self, text, size, overlap_frac):
        overlap = min(int(size * overlap_frac), size - 1)
        spans = chunk_spans(text, size, overlap)
        chunks = chunk(text, size, overlap)
        assert [text[a:b] for a, b in spans] == chunks
        if not text:
            assert spans == []
            return
        # contiguous coverage: de-overlapped concatenation equals the text
        assert spans[0][0] == 0
        assert max(e for _, e in spans) == len(text)
        rebuilt = ""
        covered = 0
        for (start, end), piece in zip(spans, chunks):
            assert start <= covered  # no gaps
            assert len(piece) <= size
            if end > covered:
                rebuilt += piece[covered - start :]
                covered = end
        assert rebuilt == text


def reference_embed(text: str, dimension: int) -> np.ndarray:
    """The embedder's definition, one md5 and one += 1.0 per token."""
    vec = np.zeros(dimension, dtype=np.float64)
    tokens = re.findall(r"[a-z0-9_$]+", text.lower())
    if not tokens and text:
        tokens = [text]
    for token in tokens:
        digest = hashlib.md5(token.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:8], "big") % dimension] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def embed_one(e, text: str) -> np.ndarray:
    return e.embed_many([text])[0]


def bits(array: np.ndarray) -> np.ndarray:
    return array.view(np.uint64)


# case folding beyond ASCII: KELVIN SIGN lowers to ASCII `k`, I WITH DOT
# ABOVE to two characters, and SIGMA to a form that depends on its context
TEXT_ALPHABET = "ab_$ 9!\nÄ\tAKZ\u0130\u03a3\u212a"


class TestEmbedder:
    def test_deterministic(self):
        e1, e2 = HashedBowEmbedder(), HashedBowEmbedder()
        text = "the reset signal rst_n is active low"
        assert np.array_equal(embed_one(e1, text), embed_one(e2, text))

    def test_nonzero_for_nonempty(self):
        e = HashedBowEmbedder()
        assert np.linalg.norm(embed_one(e, "hello")) > 0
        assert np.linalg.norm(embed_one(e, "!!!")) > 0  # no word tokens, still nonzero

    def test_unit_norm(self):
        e = HashedBowEmbedder()
        assert np.linalg.norm(embed_one(e, "a b c")) == pytest.approx(1.0, abs=1e-12)

    def test_dimension(self):
        assert HashedBowEmbedder(dimension=64).embed_many(["x", "y z"]).shape == (2, 64)

    def test_empty_batch(self):
        got = HashedBowEmbedder(dimension=24).embed_many([])
        assert got.shape == (0, 24) and got.dtype == np.float64

    @pytest.mark.parametrize("dimension", [1, 7, 512])
    def test_equals_per_token_loop(self, dimension):
        texts = [
            "",
            "!!! ???",  # no word tokens: the raw string is the one token
            "ack ack ack req ACK",  # repeated tokens, case folded
            "the reset signal rst_n is active low; rst_n deasserts after $rose(clk)",
            "ack req",  # tokens the embedder has already bucketed
            "!!! ???",
            # lowers to `key`, `i` + U+0307 + `d`, final and other sigmas, `a_b$`
            "\u212aEY \u0130D\t\u03a3\u03a3 \u03a3 A_B$",
        ]
        e = HashedBowEmbedder(dimension)
        for text in texts:
            got = embed_one(e, text)
            assert got.dtype == np.float64
            assert np.array_equal(bits(got), bits(reference_embed(text, dimension)))
        batch = HashedBowEmbedder(dimension).embed_many(texts)
        assert batch.dtype == np.float64 and batch.shape == (len(texts), dimension)
        for row, text in zip(batch, texts, strict=True):
            assert np.array_equal(bits(row), bits(reference_embed(text, dimension)))

    @given(
        batches=st.lists(
            st.lists(st.text(alphabet=st.sampled_from(TEXT_ALPHABET), max_size=40), max_size=8),
            max_size=3,
        ),
        dimension=st.sampled_from([1, 13, 512]),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_embedder_equals_per_token_loop(self, batches, dimension):
        e = HashedBowEmbedder(dimension)  # one embedder: later batches reuse its buckets
        for texts in batches:
            got = e.embed_many(texts)
            assert got.dtype == np.float64 and got.shape == (len(texts), dimension)
            for row, text in zip(got, texts, strict=True):
                assert np.array_equal(bits(row), bits(reference_embed(text, dimension)))


class TestIndex:
    def test_add_five(self):
        index = VectorIndex()
        index.add("doc", [f"chunk {i}" for i in range(5)], HashedBowEmbedder())
        assert len(index) == 5

    def test_dimension_mismatch(self):
        index = VectorIndex()
        index.add("doc", ["a"], HashedBowEmbedder(dimension=32))
        with pytest.raises(ValueError):
            index.add("doc2", ["b"], HashedBowEmbedder(dimension=64))

    def test_one_batch_per_document(self):
        calls = []

        class Counting(HashedBowEmbedder):
            def embed_many(self, texts):
                calls.append(list(texts))
                return super().embed_many(texts)

        e = Counting(dimension=32)
        index = VectorIndex()
        index.add("a", ["alpha", "beta", "gamma"], e)
        index.add("b", ["delta"], e)
        assert calls == [["alpha", "beta", "gamma"], ["delta"]]

    def test_wrong_batch_shape_rejected(self):
        class Short(HashedBowEmbedder):
            def embed_many(self, texts):
                return super().embed_many(texts)[:-1]

        with pytest.raises(ValueError, match=r"shape \(1, 16\) for 2 texts"):
            VectorIndex().add("doc", ["a", "b"], Short(dimension=16))

    def test_readd_replaces(self):
        e = HashedBowEmbedder()
        index = VectorIndex()
        index.add("doc", ["a", "b", "c"], e)
        index.add("doc", ["only one"], e)
        assert len(index) == 1
        assert index.chunks[0].text == "only one"

    def test_identical_text_query_perfect_similarity(self):
        e = HashedBowEmbedder()
        index = VectorIndex()
        index.add("doc", ["reset is active low", "clock gating description"], e)
        results = index.query("reset is active low", k=1, embedder=e)
        assert results[0][0].text == "reset is active low"
        assert results[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_k_larger_than_index(self):
        e = HashedBowEmbedder()
        index = VectorIndex()
        index.add("doc", ["a b", "c d"], e)
        assert len(index.query("a", k=10, embedder=e)) == 2

    def test_empty_index_returns_empty(self):
        assert VectorIndex().query("x", k=3, embedder=HashedBowEmbedder()) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            VectorIndex().query("x", k=0, embedder=HashedBowEmbedder())

    def test_token_disjoint_chunks(self):
        # token-disjoint texts embed into (almost surely) disjoint buckets;
        # verify orthogonality explicitly by brute force before relying on it
        e = HashedBowEmbedder()
        texts = ["alpha bravo", "charlie delta", "echo foxtrot"]
        vecs = e.embed_many(texts)
        assert float(np.dot(vecs[0], vecs[1])) == 0.0
        assert float(np.dot(vecs[0], vecs[2])) == 0.0
        index = VectorIndex()
        index.add("doc", texts, e)
        results = index.query("charlie delta", k=3, embedder=e)
        assert results[0][0].text == "charlie delta"
        assert results[0][1] > results[1][1]

    def test_tie_break_by_doc_and_index(self):
        e = HashedBowEmbedder()
        index = VectorIndex()
        index.add("b_doc", ["same text"], e)
        index.add("a_doc", ["same text"], e)
        results = index.query("same text", k=2, embedder=e)
        assert [r[0].doc_id for r in results] == ["a_doc", "b_doc"]


def brute_force_topk(index: VectorIndex, query: str, k: int, e) -> list[tuple[str, int]]:
    q = embed_one(e, query)
    scored = []
    for c in index.chunks:
        denom = np.linalg.norm(q) * np.linalg.norm(c.vector)
        sim = float(np.dot(q, c.vector) / denom) if denom > 0 else 0.0
        scored.append((-sim, c.doc_id, c.chunk_index))
    scored.sort()
    return [(d, i) for _, d, i in scored[:k]]


class TestOracleEquivalence:
    def test_matches_brute_force(self):
        e = HashedBowEmbedder(dimension=64)
        index = VectorIndex()
        rng = np.random.default_rng(7)
        words = ["clk", "rst", "ack", "req", "data", "bus", "fifo", "irq"]
        for d in range(6):
            texts = [
                " ".join(rng.choice(words, size=rng.integers(2, 6)))
                for _ in range(20)
            ]
            index.add(f"doc{d}", texts, e)
        for q in range(25):
            query = " ".join(rng.choice(words, size=3))
            got = [(c.doc_id, c.chunk_index) for c, _ in index.query(query, 5, e)]
            assert got == brute_force_topk(index, query, 5, e)


def per_chunk_query(index: VectorIndex, query: str, k: int, e) -> list[tuple[str, int, float]]:
    """The exact top-k by definition: one np.dot per chunk, sorted by
    (-similarity, doc_id, chunk_index)."""
    q = embed_one(e, query)
    qn = np.linalg.norm(q)
    scored = []
    for c in index.chunks:
        cn = np.linalg.norm(c.vector)
        sim = float(np.dot(q, c.vector) / (qn * cn)) if qn > 0 and cn > 0 else 0.0
        scored.append((c.doc_id, c.chunk_index, sim))
    scored.sort(key=lambda hit: (-hit[2], hit[0], hit[1]))
    return scored[:k]


def index_lines(path) -> list[dict]:
    """An index file's records, one per line."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_lines(path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def hits(results) -> list[tuple[str, int, float]]:
    return [(c.doc_id, c.chunk_index, sim) for c, sim in results]


def held_arrays(index: VectorIndex) -> list[np.ndarray]:
    """Every array the index holds: in its attributes, its chunks, its
    postings, and the arrays those are views of."""
    found, todo = [], [vars(index)]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            found.append(obj)
            todo.append(obj.base)
        elif isinstance(obj, dict):
            todo += obj.values()
        elif isinstance(obj, (list, tuple)):
            todo += obj
        elif isinstance(obj, RagChunk):  # slotted: no __dict__
            todo += [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    return found


class DenseEmbedder:
    """Dense, signed components seeded by the text's md5. Empty text embeds
    to the zero vector, and a `-0` token sets a negative zero."""

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension

    def embed_many(self, texts: list[str]) -> np.ndarray:
        rows = np.zeros((len(texts), self.dimension))
        for text, row in zip(texts, rows):
            if text:
                seed = int.from_bytes(hashlib.md5(text.encode("utf-8")).digest()[:8], "big")
                row[:] = np.random.default_rng(seed).standard_normal(self.dimension)
                if "-0" in text.split():
                    row[0] = -0.0
        return rows


def colliding_tokens(dimension: int) -> tuple[str, str]:
    """Two distinct tokens the hashed embedder puts in the same bucket."""
    seen: dict[int, str] = {}
    for i in range(10 * dimension):
        token = f"sig{i}"
        bucket = int.from_bytes(hashlib.md5(token.encode()).digest()[:8], "big") % dimension
        if bucket in seen:
            return seen[bucket], token
        seen[bucket] = token
    raise AssertionError("no collision found")


class TestExactness:
    """`query` equals the per-chunk loop, near-ties and edge cases included."""

    def assert_exact(self, index, e, queries, ks=range(1, 11)):
        for query in queries:
            for k in ks:
                assert hits(index.query(query, k, e)) == per_chunk_query(index, query, k, e)

    def test_proportional_counts(self):
        e = HashedBowEmbedder(dimension=64)
        index = VectorIndex()
        index.add("a.txt", ["a b", "a b a b a b", "c d", "a b a b"], e)
        index.add("b.txt", ["b a b a", "a b c", "a a b b a b"], e)
        self.assert_exact(index, e, ["a b", "a b a b a b", "b", "a b c d"])
        top = index.query("a b", 5, e)
        assert {(c.doc_id, c.chunk_index) for c, _ in top} == {
            ("a.txt", 0), ("a.txt", 1), ("a.txt", 3), ("b.txt", 0), ("b.txt", 2)
        }

    def test_permuted_counts(self):
        # every chunk gives the query tokens the counts 1-5 in some order, so
        # all similarities are equal in exact arithmetic; summed in different
        # orders they differ in the last bits, and the order there decides
        e = HashedBowEmbedder(dimension=512)
        tokens = ["ack", "req", "gnt", "rdy", "vld"]
        texts = [
            " ".join(" ".join([t] * n) for t, n in zip(tokens, counts)) + " filler filler other"
            for counts in itertools.permutations(range(1, 6))
        ]
        index = VectorIndex()
        index.add("doc", texts, e)
        self.assert_exact(index, e, [" ".join(tokens), "ack req", "ack req gnt", "vld rdy"])

    def test_duplicate_texts_in_different_docs(self):
        e = HashedBowEmbedder(dimension=32)
        index = VectorIndex()
        for doc in ["d3", "d1", "d4", "d0", "d2"]:
            index.add(doc, ["other words here", "same text"], e)
        self.assert_exact(index, e, ["same text", "same", "other same"])
        assert [c.doc_id for c, _ in index.query("same text", 3, e)] == ["d0", "d1", "d2"]

    def test_hash_collision(self):
        e = HashedBowEmbedder(dimension=64)
        first, second = colliding_tokens(64)
        assert np.array_equal(embed_one(e, first), embed_one(e, second))
        index = VectorIndex()
        index.add("doc", [second, "unrelated", first, f"{first} unrelated"], e)
        self.assert_exact(index, e, [first, second, f"{second} unrelated"])
        assert [c.chunk_index for c, _ in index.query(first, 2, e)] == [0, 2]

    def test_zero_query_keeps_every_chunk(self):
        e = HashedBowEmbedder(dimension=16)
        index = VectorIndex()
        index.add("b", ["x y", "z"], e)
        index.add("a", ["y", "w w"], e)
        assert not embed_one(e, "").any()
        self.assert_exact(index, e, [""])
        assert hits(index.query("", 3, e)) == [("a", 0, 0.0), ("a", 1, 0.0), ("b", 0, 0.0)]

    def test_k_at_least_count(self):
        e = HashedBowEmbedder(dimension=16)
        index = VectorIndex()
        index.add("doc", ["x y", "z", "y y x"], e)
        self.assert_exact(index, e, ["x", "y z", "q"], ks=[3, 4, 100])

    def test_rebuilds_only_reached_chunks(self, monkeypatch):
        # each query's buckets reach fewer than k chunks; the others score
        # exactly 0 and their rows are not rebuilt
        e = HashedBowEmbedder(dimension=512)
        index = VectorIndex()
        index.add("doc", [f"filler text number{i}" for i in range(50)] + ["clk rst edge"], e)
        rebuilt = []
        vector = RagChunk.vector.fget
        monkeypatch.setattr(RagChunk, "vector", property(lambda c: rebuilt.append(c.chunk_index) or vector(c)))
        for query in ["clk rst", "zzqx", ""]:
            q = embed_one(e, query)
            reached = [c.chunk_index for c in index.chunks if np.dot(q, vector(c)) > 0]
            assert len(reached) < 4
            rebuilt.clear()
            result = hits(index.query(query, 4, e))
            assert rebuilt == reached
            assert result == per_chunk_query(index, query, 4, e)

    def test_add_after_query_is_seen(self):
        e = HashedBowEmbedder(dimension=32)
        index = VectorIndex()
        index.add("a", ["alpha", "beta"], e)
        assert index.query("gamma", 1, e)[0][1] == 0.0
        index.add("b", ["gamma"], e)
        assert hits(index.query("gamma", 1, e)) == [("b", 0, 1.0)]
        index.add("b", ["epsilon"], e)  # a re-add replaces the queried chunk
        assert index.query("gamma", 1, e)[0][1] == 0.0
        self.assert_exact(index, e, ["alpha", "epsilon", "gamma"])

    def test_dense_signed_embedder(self):
        e = DenseEmbedder(dimension=24)
        rng = np.random.default_rng(5)
        words = ["clk", "rst", "ack", "req", "-0"]
        index = VectorIndex()
        for d in range(4):
            texts = [" ".join(rng.choice(words, size=rng.integers(0, 4))) for _ in range(15)]
            index.add(f"doc{d}", texts, e)
        assert any(sim < 0 for *_, sim in per_chunk_query(index, "clk", 60, e))
        self.assert_exact(index, e, ["clk", "ack req", "-0 rst", "", "zzz"])

    @given(
        docs=st.lists(
            st.lists(st.lists(st.sampled_from("abcd"), max_size=6).map(" ".join), max_size=6),
            min_size=1,
            max_size=4,
        ),
        query=st.lists(st.sampled_from("abcde"), max_size=4).map(" ".join),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_chunk_loop(self, docs, query):
        e = HashedBowEmbedder(dimension=8)  # few buckets: many ties and collisions
        index = VectorIndex()
        for d, texts in enumerate(docs):
            index.add(f"doc{d}", texts, e)
        self.assert_exact(index, e, [query])


def reference_postings(index: VectorIndex) -> tuple[np.ndarray, ...]:
    """The postings as one stable argsort of all the entries builds them:
    every entry in row order, sorted by column, with one bincount of the
    squared values for the norms; rows in the narrowest type for the chunk
    count."""
    row_nnz = [len(c.columns) for c in index.chunks]
    columns = np.concatenate([c.columns for c in index.chunks])
    values = np.concatenate([c.values for c in index.chunks])
    entry_rows = np.repeat(np.arange(len(row_nnz), dtype=np.int32), row_nnz)
    order = np.argsort(columns, kind="stable")
    starts = np.zeros(index.dimension + 1, dtype=np.intp)
    np.cumsum(np.bincount(columns, minlength=index.dimension), out=starts[1:])
    norms = np.sqrt(np.bincount(entry_rows, values * values, minlength=len(row_nnz)))
    return starts, entry_rows[order].astype(np.min_scalar_type(len(row_nnz) - 1)), values[order], norms


def words_index(docs: int, chunks: int, words: int, seed: int = 7) -> VectorIndex:
    e = HashedBowEmbedder(dimension=512)
    rng = np.random.default_rng(seed)
    vocabulary = [f"{w}{i}" for w in ["clk", "rst_n", "ack", "req", "data", "fifo", "irq"] for i in range(40)]
    index = VectorIndex()
    for d in range(docs):
        index.add(f"doc{d:04}.txt", [" ".join(rng.choice(vocabulary, size=words)) for _ in range(chunks)], e)
    return index


class TestPostings:
    """The postings built one block of rows at a time equal one stable
    argsort of all the entries, bit for bit and dtype for dtype."""

    @staticmethod
    def readded():
        index = words_index(5, 20, 12)
        index.query("ack0", 1, HashedBowEmbedder(512))
        texts = [c.text for c in index.chunks if c.doc_id == "doc0002.txt"]
        index.add("doc0002.txt", texts[::-1], HashedBowEmbedder(512))
        return index

    @staticmethod
    def dense(texts_per_doc, dimension=24):
        e = DenseEmbedder(dimension)
        index = VectorIndex()
        for d, texts in enumerate(texts_per_doc):
            index.add(f"doc{d}", texts, e)
        return index

    @pytest.mark.parametrize(
        "case",
        [
            "built",
            "readded",
            "loaded",
            "negative zero",
            "chunks storing no entry",
            "3000 one-chunk documents",
            "a document longer than a block",
            "rows longer than a block",
        ],
    )
    def test_equal_one_stable_argsort(self, tmp_path, case):
        if case == "built":
            index = words_index(6, 25, 20)
        elif case == "readded":
            index = self.readded()
        elif case == "loaded":
            words_index(6, 25, 20).save(str(tmp_path / "index.json"))
            index = VectorIndex.load(str(tmp_path / "index.json"))
        elif case == "negative zero":
            index = self.dense([["-0 clk", "ack", "-0"], ["req -0 ack"]])
            assert any((c.values == 0).any() for c in index.chunks)  # a stored -0.0
        elif case == "chunks storing no entry":
            index = self.dense([["", "clk", ""], [""], ["ack", "", "req"], ["", ""]])
            assert sum(len(c.columns) == 0 for c in index.chunks) == 6
        elif case == "3000 one-chunk documents":
            index = words_index(3000, 1, 12)
        elif case == "a document longer than a block":
            index = words_index(1, 3 * _BLOCK_ENTRIES // 20, 30)
            assert len(index._docs["doc0000.txt"][0]) > 2 * _BLOCK_ENTRIES
        else:  # a row longer than a block is a block alone; blocks of empty rows store nothing
            index = self.dense([["", "clk", "", ""], ["ack req", ""]], dimension=_BLOCK_ENTRIES + 100)
            assert [len(c.columns) > _BLOCK_ENTRIES for c in index.chunks] == [0, 1, 0, 0, 1, 0]
        for got, want in zip(index._posting_lists(), reference_postings(index), strict=True):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_first_query_after_load_holds_the_postings_and_one_block(self, tmp_path):
        e = HashedBowEmbedder(dimension=512)
        path = str(tmp_path / "index.json")
        words_index(40, 50, 40, seed=5).save(path)
        loaded = VectorIndex.load(path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loaded.query("ack0 req1 data3", 5, e)
            above = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        postings = sum(a.nbytes for a in loaded._posting_lists())
        assert len(loaded._posting_lists()[1]) > 8 * _BLOCK_ENTRIES
        # a block's arrays, and the query's own, hold under 64 bytes a block entry
        assert above < postings + 64 * _BLOCK_ENTRIES


def u4_file(docs: dict[str, list[str]], e) -> str:
    """The index file for `docs` in the `<u4` layout, as `json.dumps` writes
    each line whole, with every array taken from the embedder's dense rows."""

    def b64(array, dtype: str) -> str:
        return base64.b64encode(np.asarray(array, dtype=dtype).tobytes()).decode()

    count = sum(map(len, docs.values()))
    lines = [json.dumps({"count": count, "dimension": e.dimension}, sort_keys=True)]
    for doc_id, texts in docs.items():
        dense = e.embed_many(texts)
        stored = dense.view(np.uint64) != 0
        rows, columns = np.nonzero(stored)
        record = {"columns": b64(columns, "<u4"), "doc_id": doc_id, "row_nnz": b64(stored.sum(axis=1), "<u4")}
        record |= {"texts": texts, "values": b64(dense[rows, columns], "<f8")}
        lines.append(json.dumps(record, sort_keys=True))
    return "".join(line + "\n" for line in lines)


class TestNarrowTypes:
    """Entry columns take the narrowest unsigned type for the dimension, and
    the postings' rows the narrowest for the chunk count."""

    @pytest.mark.parametrize(
        "chunks, dimension, row_type, column_type",
        [
            (256, 24, np.uint8, np.uint8),
            (257, 24, np.uint16, np.uint8),
            (40, 256, np.uint8, np.uint8),
            (40, 257, np.uint8, np.uint16),
        ],
    )
    def test_types_at_their_boundaries(self, tmp_path, chunks, dimension, row_type, column_type):
        e = DenseEmbedder(dimension)
        texts = [f"clk{i} ack" if i % 7 else "" for i in range(chunks)]  # every 7th row stores no entry
        docs = {"b.txt": texts[: chunks // 3], "a.txt": texts[chunks // 3 :]}
        index = VectorIndex()
        for doc_id, part in docs.items():
            index.add(doc_id, part, e)
        path = tmp_path / "index.json"
        index.save(str(path))
        assert path.read_text() == u4_file(docs, e)
        loaded = VectorIndex.load(str(path))
        loaded.save(str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        for idx in (index, loaded):
            assert {c.columns.dtype for c in idx.chunks} == {np.dtype(column_type)}
            assert max(int(c.columns.max()) for c in idx.chunks if c.end > c.start) == dimension - 1
            rows = idx._posting_lists()[1]
            assert rows.dtype == row_type and int(rows.max()) == chunks - 1
            for query in ["clk3 ack", "ack", "-0 clk", ""]:
                for k in (1, 5, chunks):
                    assert hits(idx.query(query, k, e)) == per_chunk_query(idx, query, k, e)

    def test_loaded_index_holds_little_per_chunk_beyond_texts_and_entries(self, tmp_path):
        path = tmp_path / "index.json"
        words_index(4, 500, 30).save(str(path))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = VectorIndex.load(str(path))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        texts = sum(sys.getsizeof(c.text) for c in loaded.chunks)
        entries = sum(a.nbytes for arrays in loaded._docs.values() for a in arrays)
        assert {a.dtype.char for arrays in loaded._docs.values() for a in arrays} == {"H", "d"}  # uint16, float64
        # a slotted chunk, its row's offsets and its list slot: about 140 bytes;
        # a chunk with a __dict__ and two array views held about 380
        assert (held - texts - entries) / len(loaded) < 192


class TestPersistence:
    def test_round_trip(self, tmp_path):
        e = HashedBowEmbedder(dimension=48)
        index = VectorIndex()
        index.add("doc", ["alpha", "beta"], e)
        path = str(tmp_path / "index.json")
        index.save(path)
        loaded = VectorIndex.load(path)
        assert loaded.dimension == 48
        assert len(loaded) == 2
        assert np.array_equal(loaded.chunks[0].vector, index.chunks[0].vector)

    def test_compact_round_trip_keeps_vectors_and_norms(self, tmp_path):
        e = HashedBowEmbedder(dimension=64)
        index = VectorIndex()
        index.add("doc", ["alpha beta", "gamma", "delta delta epsilon"], e)
        index.add("more", ["zeta"], e)
        path = tmp_path / "index.json"
        index.save(str(path))
        lines = path.read_text().split("\n")
        assert len(lines) == 4 and lines[-1] == ""  # the header, one compact line per document
        assert lines[0] == '{"count": 4, "dimension": 64}'
        loaded = VectorIndex.load(str(path))
        for got, want in zip(loaded.chunks, index.chunks, strict=True):
            assert np.array_equal(got.vector, want.vector)
        assert np.array_equal(loaded._posting_lists()[-1], index._posting_lists()[-1])

    def test_loads_lines_with_inner_whitespace(self, tmp_path):
        e = HashedBowEmbedder(dimension=32)
        index = VectorIndex()
        index.add("doc", ["alpha", "beta"], e)
        path = tmp_path / "index.json"
        index.save(str(path))
        spaced = [json.dumps(r, indent=None, separators=(" ,  ", " :\t")) for r in index_lines(path)]
        path.write_text("".join(f"  {line} \r\n" for line in spaced))
        loaded = VectorIndex.load(str(path))
        assert [c.text for c in loaded.chunks] == ["alpha", "beta"]
        for got, want in zip(loaded.chunks, index.chunks, strict=True):
            assert np.array_equal(got.vector, want.vector)
        assert [(c.text, s) for c, s in loaded.query("beta", 2, e)] == [
            (c.text, s) for c, s in index.query("beta", 2, e)
        ]

    def test_file_layout(self, tmp_path):
        e = HashedBowEmbedder(dimension=16)
        index = VectorIndex()
        index.add("doc", ["alpha beta", "gamma"], e)
        index.add("b.md", ["delta"], e)
        path = tmp_path / "index.json"
        index.save(str(path))
        header, *docs = index_lines(path)
        assert header == {"count": 3, "dimension": 16}
        assert [sorted(d) for d in docs] == [["columns", "doc_id", "row_nnz", "texts", "values"]] * 2
        assert [(d["doc_id"], d["texts"]) for d in docs] == [("doc", ["alpha beta", "gamma"]), ("b.md", ["delta"])]
        for doc, chunks in zip(docs, [index.chunks[:2], index.chunks[2:]], strict=True):
            # little-endian arrays: entries per row, then each entry's column and value, row by row
            row_nnz = np.frombuffer(base64.b64decode(doc["row_nnz"]), dtype="<u4")
            columns = np.frombuffer(base64.b64decode(doc["columns"]), dtype="<u4")
            values = np.frombuffer(base64.b64decode(doc["values"]), dtype="<f8")
            want = np.stack([c.vector for c in chunks])
            assert row_nnz.tolist() == [np.count_nonzero(row) for row in want]
            rows = np.repeat(np.arange(len(chunks)), row_nnz)
            assert np.array_equal(columns, np.nonzero(want)[1])
            assert np.array_equal(values, want[rows, columns])
            assert len(values) < want.size  # only the non-zero entries are stored

    @pytest.mark.parametrize("dimension", [37, 512])
    @pytest.mark.parametrize("embedder", ["hashed", "dense"])
    def test_round_trip_rows_bit_identical(self, tmp_path, dimension, embedder):
        e = HashedBowEmbedder(dimension) if embedder == "hashed" else DenseEmbedder(dimension)
        rng = np.random.default_rng(dimension)
        words = ["clk", "rst_n", "ack", "req", "data", "fifo", "full", "irq", "-0"]
        index = VectorIndex()
        for d in range(3):
            texts = [" ".join(rng.choice(words, size=rng.integers(0, 7))) for _ in range(25)]
            index.add(f"doc{d}.txt", texts, e)
        path = str(tmp_path / "index.json")
        index.save(path)
        loaded = VectorIndex.load(path)
        assert len(loaded) == len(index)
        for got, want in zip(loaded.chunks, index.chunks, strict=True):
            assert got.vector.dtype == np.float64
            assert np.array_equal(got.vector.view(np.uint64), want.vector.view(np.uint64))

    def test_holds_no_dense_matrix(self, tmp_path):
        e = HashedBowEmbedder(dimension=512)
        index = VectorIndex()
        for d in range(5):
            index.add(f"doc{d}", [f"alpha beta {d}", "gamma", f"delta {d} {d}"] * 4, e)
        path = str(tmp_path / "index.json")
        index.save(path)
        for idx in (index, VectorIndex.load(path)):
            idx.query("alpha gamma", 3, e)  # builds the postings
            dense = len(idx) * idx.dimension
            sizes = [a.size for a in held_arrays(idx)]
            assert sizes and max(sizes) < dense // 10

    def test_save_computes_no_chunk_norms(self, tmp_path, monkeypatch):
        e = HashedBowEmbedder(dimension=32)
        index = VectorIndex()
        index.add("a", ["alpha beta", "gamma", "delta"], e)

        def no_postings(self):
            raise AssertionError("save built the postings and chunk norms")

        with monkeypatch.context() as patched:
            patched.setattr(VectorIndex, "_posting_lists", no_postings)
            index.save(str(tmp_path / "index.json"))
        assert hits(index.query("alpha", 1, e)) == [("a", 0, pytest.approx(0.5 ** 0.5))]

    @pytest.mark.parametrize(
        "field, values, dtype, message",
        [
            ("row_nnz", [1, 1], "<u4", "row_nnz holds 2 rows, not one per text (1)"),
            ("row_nnz", [3], "<u4", "hold 2 and 2 entries, not the row_nnz sum 3"),
            ("columns", [0], "<u4", "hold 1 and 2 entries, not the row_nnz sum 2"),
            ("columns", [0, 16], "<u4", "column 16 is not below dimension 16"),
            ("values", [1.0, 2.0, 3.0], "<f8", "hold 2 and 3 entries, not the row_nnz sum 2"),
            ("values", [1.0], "<u4", "values holds 4 bytes, not a multiple of 8"),
            ("columns", [5, 3], "<u4", "columns do not ascend within each row"),
            ("columns", [3, 3], "<u4", "columns do not ascend within each row"),
        ],
    )
    def test_load_rejects_inconsistent_arrays(self, tmp_path, field, values, dtype, message):
        index = VectorIndex()
        index.add("doc", ["alpha beta"], HashedBowEmbedder(dimension=16))
        path = tmp_path / "index.json"
        index.save(str(path))
        header, doc = index_lines(path)
        assert len(np.frombuffer(base64.b64decode(doc["columns"]), dtype="<u4")) == 2
        doc[field] = base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()
        write_lines(path, [header, doc])
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            VectorIndex.load(str(path))
        assert f"index file {str(path)!r}, line 2: " in str(err.value)

    @pytest.mark.parametrize(
        "case, line, message",
        [
            ("torn last line", 3, "not valid JSON"),
            ("missing document line", 1, "chunk total 2 is not count = 3"),
            ("more chunks than count", 2, "chunk total 2 so far exceeds count = 1"),
            ("doc_id on two lines", 3, "doc_id 'a.txt' is on an earlier line too"),
            ("header not first", 1, "unknown key columns"),
            ("blank line", 2, "not valid JSON"),
            ("empty file", 1, "not valid JSON"),
            ("old single-object layout", 1, "unknown key chunks"),
            ("negative count", 1, "count must be non-negative, not -1"),
            ("dimension 0", 1, "dimension must be a positive integer, not 0"),
            ("no dimension", 1, "dimension must be a positive integer, not None"),
        ],
    )
    def test_load_rejects_a_bad_line_naming_it(self, tmp_path, case, line, message):
        index = VectorIndex()
        index.add("a.txt", ["alpha beta", "gamma"], HashedBowEmbedder(dimension=16))
        index.add("b.txt", ["delta"], HashedBowEmbedder(dimension=16))
        path = tmp_path / "index.json"
        index.save(str(path))
        text = path.read_text()
        header, first, second = index_lines(path)
        if case == "torn last line":
            path.write_text(text[: len(text) - 20])
        elif case == "missing document line":
            write_lines(path, [header, first])
        elif case == "more chunks than count":
            write_lines(path, [{**header, "count": 1}, first, second])
        elif case == "doc_id on two lines":
            write_lines(path, [header, first, {**second, "doc_id": "a.txt"}])
        elif case == "header not first":
            write_lines(path, [first, header, second])
        elif case == "blank line":
            path.write_text(text.replace("\n", "\n\n", 1))
        elif case == "empty file":
            path.write_text("")
        elif case == "old single-object layout":
            chunks = [{"doc_id": c.doc_id, "chunk_index": c.chunk_index, "text": c.text} for c in index.chunks]
            payload = {k: first[k] for k in ("row_nnz", "columns", "values")}
            write_lines(path, [{**header, "chunks": chunks, **payload}])
        elif case == "negative count":
            write_lines(path, [{**header, "count": -1}, first, second])
        elif case == "dimension 0":
            write_lines(path, [{**header, "dimension": 0}, first, second])
        elif case == "no dimension":
            write_lines(path, [{**header, "dimension": None}, first, second])
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            VectorIndex.load(str(path))
        assert str(err.value).startswith(f"index file {str(path)!r}, line {line}: ")

    def test_last_line_without_newline_loads(self, tmp_path):
        index = VectorIndex()
        index.add("a.txt", ["alpha beta", "gamma"], HashedBowEmbedder(dimension=16))
        path = tmp_path / "index.json"
        index.save(str(path))
        path.write_text(path.read_text().rstrip("\n"))
        assert hits(VectorIndex.load(str(path)).query("gamma", 2, HashedBowEmbedder(16))) == hits(
            index.query("gamma", 2, HashedBowEmbedder(16))
        )

    def test_save_and_load_hold_one_document_at_a_time(self, tmp_path):
        e = HashedBowEmbedder(dimension=512)
        rng = np.random.default_rng(5)
        words = [f"{w}{i}" for w in ["clk", "rst_n", "ack", "req", "data", "fifo", "irq"] for i in range(40)]
        index = VectorIndex()
        for d in range(40):
            index.add(f"doc{d:02}.txt", [" ".join(rng.choice(words, size=40)) for _ in range(30)], e)
        path = tmp_path / "index.json"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            index.save(str(path))
            save_above = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            loaded = VectorIndex.load(str(path))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert len(loaded) == 1200 and size > 900_000
        # what save or load holds beyond the index is about one document's line
        assert save_above < size / 10
        assert peak - retained < size / 10

    def test_save_of_one_large_document_holds_less_than_its_line(self, tmp_path):
        index = words_index(1, 100, 40, seed=5)
        path = tmp_path / "index.json"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            index.save(str(path))
            above = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 80_000 and len(index_lines(path)) == 2
        # beyond the index, save holds a few base64 pieces and one text, not the whole line
        assert above < size
        # the line is written field by field, as json.dumps writes it whole
        assert path.read_text() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in index_lines(path))

    @pytest.mark.parametrize("dimension", [37, 512])
    def test_loaded_copy_answers_queries_identically(self, tmp_path, dimension):
        e = HashedBowEmbedder(dimension=dimension)
        rng = np.random.default_rng(11)
        words = ["clk", "rst_n", "ack", "req", "data", "fifo", "full", "empty", "irq", "$rose"]
        index = VectorIndex()
        for d in range(4):
            texts = [" ".join(rng.choice(words, size=rng.integers(1, 9))) for _ in range(30)]
            index.add(f"doc{d}.txt", texts, e)
        path = str(tmp_path / "index.json")
        index.save(path)
        loaded = VectorIndex.load(path)
        for query in ["ack req", "fifo full empty", "clk", "nothing matches", "", "!!!"]:
            want = [(c.doc_id, c.chunk_index, sim) for c, sim in index.query(query, 120, e)]
            got = [(c.doc_id, c.chunk_index, sim) for c, sim in loaded.query(query, 120, e)]
            assert got == want

    def test_built_readded_and_loaded_copies_agree(self, tmp_path):
        e = HashedBowEmbedder(dimension=64)
        rng = np.random.default_rng(3)
        words = ["clk", "rst_n", "ack", "req", "data", "fifo", "full", "empty", "irq", "$rose"]
        docs = {
            f"doc{d}.txt": [" ".join(rng.choice(words, size=rng.integers(0, 9))) for _ in range(20)]
            for d in range(5)
        }
        built, readded = VectorIndex(), VectorIndex()
        for doc_id, texts in docs.items():
            built.add(doc_id, texts, e)
            readded.add(doc_id, texts, e)
        readded.query("ack", 1, e)  # postings built before the re-add must be dropped
        readded.add("doc2.txt", docs["doc2.txt"], e)
        path = str(tmp_path / "index.json")
        built.save(path)
        loaded = VectorIndex.load(path)
        loaded.save(str(tmp_path / "again.json"))  # the decoded arrays, encoded as they are
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "index.json").read_bytes()
        queries = [" ".join(rng.choice(words, size=rng.integers(0, 5))) for _ in range(40)]
        for query in queries + ["nothing matches", ""]:
            for k in (1, 2, 4, 10, 100):
                want = hits(built.query(query, k, e))
                assert hits(readded.query(query, k, e)) == want
                assert hits(loaded.query(query, k, e)) == want

    def test_empty_index_round_trip(self, tmp_path):
        path = str(tmp_path / "index.json")
        VectorIndex().save(path)
        loaded = VectorIndex.load(path)
        assert len(loaded) == 0 and loaded.dimension is None

    def test_build_from_dir(self, tmp_path):
        (tmp_path / "a.txt").write_text("assertion writing guide " * 50)
        (tmp_path / "b.md").write_text("clocking blocks explained " * 50)
        (tmp_path / "ignored.bin").write_text("skip me")
        index = build_index_from_dir(str(tmp_path), size=200, overlap=40)
        docs = {c.doc_id for c in index.chunks}
        assert docs == {"a.txt", "b.md"}


def write_golden_corpus(directory) -> None:
    """Two indexed files and one skipped: a multi-chunk guide mixing case,
    `_`, `$`, digits and non-ASCII letters, and a note with no word token."""
    words = ["clk", "rst_n", "ACK", "req", "$rose", "fifo_full", "data0"]
    words += ["\u0130rq", "\u212aelvin", "\u03a3\u0391\u03a3"]
    body = " ".join(f"{words[i % 10]}{i % 7}" if i % 3 else words[(i * 7) % 10] for i in range(900))
    (directory / "guide.txt").write_text("Reset: " + body + "\n", encoding="utf-8")
    (directory / "notes.md").write_text("!!! ??? ...\n", encoding="utf-8")
    (directory / "skip.bin").write_text("not indexed", encoding="utf-8")


# sha256 of the index file `svagen rag build` writes for this corpus, in the
# one-line-per-document layout; its rows are bit for bit those that the
# single-object layout before it stored, as built before embedding was batched
GOLDEN_INDEX_SHA256 = "63830239e8ec26ed1dd096f540bb3551147c285df3bf14352af2997d78a1bac7"


def test_rag_build_writes_golden_index(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_golden_corpus(corpus)
    out = tmp_path / "index.json"
    assert main(["rag", "build", str(corpus), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"index written to {out}: 7 chunks, dimension 512\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_INDEX_SHA256


def test_format_context_shape():
    e = HashedBowEmbedder()
    index = VectorIndex()
    index.add("guide.txt", ["use disable iff for resets"], e)
    out = format_context(index.query("disable iff", 1, e))
    assert "guide.txt#0" in out
    assert "use disable iff for resets" in out


@pytest.mark.parametrize("dimension", [512, 64])
@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_context_embeds_the_query_at_the_index_dimension(tmp_path, dimension, loaded):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_golden_corpus(corpus)
    index = build_index_from_dir(str(corpus), HashedBowEmbedder(dimension), size=200, overlap=40)
    if loaded:
        index.save(str(tmp_path / "index.json"))
        index = VectorIndex.load(str(tmp_path / "index.json"))
    for query, k in [("rst_n ack", 4), ("clk3 $rose data0", 2)]:
        expected = format_context(index.query(query, k, HashedBowEmbedder(dimension)))
        assert expected and index.context(query, k) == expected


def test_empty_index_context_is_empty():
    assert VectorIndex().context("x", 4) == ""
