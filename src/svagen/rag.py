"""Flat exact-cosine retrieval over chunked reference documents.

Deliberately no ANN structure: corpora are a few reference texts, and an
exact index keeps every query brute-force checkable. A query is one BLAS
product over the whole vector matrix, used only as a filter: the few chunks
near the k-th best score are rescored one `np.dot` each and ranked by that,
so the answer is the per-chunk scan's, bit for bit. The index file stores
the matrix's non-zero entries. An Embedder's one method, `embed_many`,
maps a batch of texts to one float64 row each, and an `add` embeds one
document's chunks in one batch. The default embedder is a hashed
bag-of-words so offline runs are deterministic across platforms; real
embedding services plug in through the Embedder protocol.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
import threading
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from svagen import read_text
from svagen.records import load

DEFAULT_DIMENSION = 512
DEFAULT_CHUNK_SIZE = 1200
DEFAULT_CHUNK_OVERLAP = 200
DEFAULT_TOP_K = 4
# how far below the k-th best BLAS score a chunk may fall and still be
# rescored exactly; BLAS and np.dot differ by about dimension x eps
_FILTER_SLACK = 1e-9


class Embedder(Protocol):
    """Embeds a batch: one float64 row per text, shape `(len(texts), dimension)`."""

    dimension: int

    def embed_many(self, texts: list[str]) -> np.ndarray: ...


class _WordChars(dict):
    """A `str.translate` table, filled as characters are met: each of
    `[a-z0-9_$]` maps to itself, every other character to a space. One
    table serves every embedder, so a new one starts with it filled."""

    def __missing__(self, code: int) -> int:
        char = chr(code)
        kept = "a" <= char <= "z" or "0" <= char <= "9" or char in "_$"
        self[code] = value = code if kept else ord(" ")
        return value


_WORD_CHARS = _WordChars()


class HashedBowEmbedder:
    """Deterministic hashed bag-of-words with L2 normalization.

    A text's tokens are the runs of `[a-z0-9_$]` in its lowercased form.
    Token buckets come from md5, not the builtin hash(), so embeddings are
    identical across processes and platforms; each distinct token is hashed
    once per embedder and its bucket kept. Non-empty text always embeds to
    a non-zero vector (textless input falls back to hashing the raw
    string).
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._buckets: dict[str, int] = {}

    def embed_many(self, texts: list[str]) -> np.ndarray:
        dimension, buckets = self.dimension, self._buckets
        rows = [t.lower().translate(_WORD_CHARS).split() or ([t] if t else []) for t in texts]
        tokens = list(itertools.chain.from_iterable(rows))
        for token in set(tokens).difference(buckets):
            digest = hashlib.md5(token.encode("utf-8")).digest()
            buckets[token] = int.from_bytes(digest[:8], "big") % dimension
        # one bincount over the batch, on row * dimension + bucket
        cells = np.fromiter(map(buckets.__getitem__, tokens), np.intp, len(tokens))
        cells += np.repeat(np.arange(len(rows)) * dimension, [len(r) for r in rows])
        counts = np.bincount(cells, minlength=len(rows) * dimension).reshape(-1, dimension)
        # every partial sum of squared counts is an integer below 2**53, so
        # this is np.linalg.norm of the float row, bit for bit
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
        # a non-zero row's norm is at least 1, and an empty text's row stays zero
        return counts / np.maximum(norms, 1.0)[:, None]


@dataclass
class RagChunk:
    doc_id: str
    chunk_index: int
    text: str
    vector: np.ndarray


def chunk_spans(doc_text: str, size: int, overlap: int) -> list[tuple[int, int]]:
    """Window offsets over the document: width at most `size`, nominal step
    `size - overlap`, boundaries nudged back to the nearest whitespace
    within a small tolerance band.

    Consecutive spans always overlap or touch, so concatenating the chunks
    with the overlapped prefixes removed reproduces the document exactly.
    """
    if size < 1:
        raise ValueError("chunk size must be positive")
    if not (0 <= overlap < size):
        raise ValueError("require 0 <= overlap < size")
    n = len(doc_text)
    if n == 0:
        return []
    step = size - overlap
    tolerance = min(step - 1, max(size // 5, 0))
    spans: list[tuple[int, int]] = []
    start = 0
    while start < n:
        end = min(start + size, n)
        spans.append((start, end))
        ideal = start + step
        if ideal >= n:
            break
        next_start = ideal
        lo = max(start + 1, ideal - tolerance)
        for pos in range(ideal - 1, lo - 1, -1):
            if doc_text[pos].isspace():
                next_start = pos + 1
                break
        start = next_start
    return spans


def chunk(doc_text: str, size: int = DEFAULT_CHUNK_SIZE, overlap: int = DEFAULT_CHUNK_OVERLAP) -> list[str]:
    """The chunk texts for `doc_text`; see chunk_spans for the geometry."""
    return [doc_text[a:b] for a, b in chunk_spans(doc_text, size, overlap)]


class VectorIndex:
    """Exact flat cosine index; the first add fixes the dimension.

    The vectors live in one float64 `count x dimension` matrix, and each
    chunk's `vector` is a row view of it. `load` decodes straight into the
    matrix. An `add` leaves each chunk's `vector` a row of its document's
    `embed_many` batch; the next query or save stacks the rows once, and
    the batches are let go.
    """

    def __init__(self, dimension: int | None = None) -> None:
        self.dimension = dimension
        self.chunks: list[RagChunk] = []
        self._matrix: np.ndarray | None = None  # None until the rows are stacked after an add
        self._norms: np.ndarray | None = None  # the chunks' norms, once a query needs them
        self._stack_lock = threading.Lock()
        self._doc_ids: set[str] = set()  # each doc_id added: a new one needs no scan

    def __len__(self) -> int:
        return len(self.chunks)

    def add(self, doc_id: str, chunk_texts: list[str], embedder: Embedder) -> None:
        """Embed one document's chunks in one `embed_many` batch and store
        them, each `vector` a row of that batch; re-adding a doc_id
        replaces its previous chunks."""
        if self.dimension is None:
            self.dimension = embedder.dimension
        if embedder.dimension != self.dimension:
            raise ValueError(
                f"embedder dimension {embedder.dimension} != index dimension {self.dimension}"
            )
        vectors = np.asarray(embedder.embed_many(chunk_texts), dtype=np.float64)
        if vectors.shape != (len(chunk_texts), self.dimension):
            raise ValueError(f"embedder returned shape {vectors.shape} for {len(chunk_texts)} texts")
        self._matrix = self._norms = None
        if doc_id in self._doc_ids:
            self.chunks = [c for c in self.chunks if c.doc_id != doc_id]
        self._doc_ids.add(doc_id)
        self.chunks += [
            RagChunk(doc_id, i, text, row) for i, (text, row) in enumerate(zip(chunk_texts, vectors))
        ]

    def _stacked(self) -> np.ndarray:
        """The vector matrix, stacked once after an add."""
        with self._stack_lock:
            if self._matrix is None:
                matrix = np.zeros((len(self.chunks), self.dimension or 0))
                for c, row in zip(self.chunks, matrix):
                    row[:] = c.vector
                    c.vector = row
                self._matrix = matrix
            return self._matrix

    def _chunk_norms(self, matrix: np.ndarray) -> np.ndarray:
        """The norms of `matrix`'s rows, computed by the first query that
        needs them; `save` never does."""
        with self._stack_lock:
            if self._norms is None:  # einsum: no temporary the size of the matrix
                self._norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
            return self._norms

    def query(self, query_text: str, k: int, embedder: Embedder) -> list[tuple[RagChunk, float]]:
        """Top-k chunks by cosine similarity, descending; ties broken by
        (doc_id, chunk_index). An empty index yields an empty result."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.chunks:
            return []
        if embedder.dimension != self.dimension:
            raise ValueError(
                f"embedder dimension {embedder.dimension} != index dimension {self.dimension}"
            )
        q = embedder.embed_many([query_text])[0]
        qn = np.linalg.norm(q)
        chunks = self.chunks
        if qn > 0 and k < len(chunks):
            # Filter, then score exactly. One BLAS product and one pass of
            # row norms score every chunk, but may round a similarity
            # differently in the last bits than the per-chunk np.dot and norm
            # below (by about dimension x eps), so they only pick candidates:
            # every chunk within _FILTER_SLACK of the k-th best. That keeps
            # each true top-k chunk and each chunk tied with the k-th; a zero
            # query or k >= count keeps them all.
            matrix = self._stacked()
            denom = qn * self._chunk_norms(matrix)
            approx = np.divide(matrix @ q, denom, out=np.zeros(len(chunks)), where=denom > 0)
            kth = np.partition(approx, -k)[-k]
            chunks = [chunks[i] for i in np.flatnonzero(approx >= kth - _FILTER_SLACK)]
        scored = []
        for c in chunks:
            cn = np.linalg.norm(c.vector) if qn > 0 else 0.0
            sim = float(np.dot(q, c.vector) / (qn * cn)) if cn > 0 else 0.0
            scored.append((c, sim))
        scored.sort(key=lambda item: (-item[1], item[0].doc_id, item[0].chunk_index))
        return scored[:k]

    # -- persistence

    def save(self, path: str) -> None:
        """Write the index as compact JSON: the chunk texts, and the vector
        matrix's non-zero entries in row-major order as three base64
        little-endian arrays: `row_nnz` (uint32, entries per row), `columns`
        (uint32) and `values` (float64). An entry counts as non-zero unless
        its bits are all zero, so `load` rebuilds every row bit for bit.
        `load` reads any whitespace."""
        matrix = self._stacked()
        stored = matrix.view(np.uint64) != 0
        rows, columns = np.nonzero(stored)
        payload = {
            "dimension": self.dimension,
            "count": len(self.chunks),
            "chunks": [
                {"doc_id": c.doc_id, "chunk_index": c.chunk_index, "text": c.text}
                for c in self.chunks
            ],
            "row_nnz": _b64(np.count_nonzero(stored, axis=1), "<u4"),
            "columns": _b64(columns, "<u4"),
            "values": _b64(matrix[rows, columns], "<f8"),
        }
        with open(path, "w", encoding="utf-8") as f:
            # two writes: `text + "\n"` would copy the whole file once more
            f.write(json.dumps(payload, sort_keys=True))
            f.write("\n")

    @classmethod
    def load(cls, path: str) -> VectorIndex:
        """Read a file written by `save`. ValueError naming the file when it
        is not one: invalid JSON, a missing, unknown or wrongly typed field
        (an older layout, with one dense `vectors` field or a `vector` per
        chunk, has unknown fields), a chunk list or `row_nnz` length that
        does not match `count`, `columns` and `values` lengths that do not
        match the sum of `row_nnz`, or a column `>= dimension`."""
        return load(_IndexFile, path, "index", ValueError, cls._from_file)

    @classmethod
    def _from_file(cls, stored: _IndexFile) -> VectorIndex:
        dimension, count, chunks = stored.dimension, stored.count, stored.chunks
        if count < 0:
            raise ValueError(f"index count must be non-negative, not {count}")
        # the first add fixes the dimension, so an index with no chunks may have none
        if not (count == 0 if dimension is None else dimension >= 1):
            raise ValueError(f"index dimension must be a positive integer, not {dimension!r}")
        if len(chunks) != count:
            raise ValueError("index file count does not match stored chunks")
        row_nnz = _unb64(stored.row_nnz, "<u4", "row_nnz")
        columns = _unb64(stored.columns, "<u4", "columns")
        values = _unb64(stored.values, "<f8", "values")
        if len(row_nnz) != count:
            raise ValueError(f"index row_nnz holds {len(row_nnz)} rows, not count = {count}")
        total = int(row_nnz.sum(dtype=np.int64))
        if not (len(columns) == len(values) == total):
            raise ValueError(
                f"index columns and values hold {len(columns)} and {len(values)} entries, "
                f"not the row_nnz sum {total}"
            )
        width = dimension or 0
        if total and int(columns.max()) >= width:
            raise ValueError(f"index column {int(columns.max())} is not below dimension {width}")
        matrix = np.zeros((count, width))
        matrix[np.repeat(np.arange(count), row_nnz), columns] = values
        index = cls(dimension=dimension)
        index.chunks = [
            RagChunk(c.doc_id, c.chunk_index, c.text, row) for c, row in zip(chunks, matrix)
        ]
        index._matrix = matrix
        index._doc_ids = {c.doc_id for c in chunks}
        return index


def _b64(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(array.astype(dtype).tobytes()).decode("ascii")


def _unb64(text: str, dtype: str, name: str) -> np.ndarray:
    raw = base64.b64decode(text, validate=True)
    size = np.dtype(dtype).itemsize
    if len(raw) % size:
        raise ValueError(f"index {name} holds {len(raw)} bytes, not a multiple of {size}")
    return np.frombuffer(raw, dtype=dtype)


@dataclass
class _IndexChunk:
    doc_id: str
    chunk_index: int
    text: str


@dataclass
class _IndexFile:
    """An index file as `VectorIndex.save` writes it; each array is base64
    of its little-endian bytes."""

    dimension: int | None
    count: int
    chunks: list[_IndexChunk]
    row_nnz: str  # uint32 per row: how many of its entries are stored
    columns: str  # uint32 per stored entry, row by row
    values: str  # float64 per stored entry


def build_index_from_dir(
    directory: str,
    embedder: Embedder | None = None,
    size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_CHUNK_OVERLAP,
) -> VectorIndex:
    """Index every .txt/.md file in `directory` (sorted, for determinism);
    ValueError naming a file that cannot be read as UTF-8."""
    embedder = embedder or HashedBowEmbedder()
    index = VectorIndex()
    names = sorted(
        f for f in os.listdir(directory) if f.endswith((".txt", ".md"))
    )
    for name in names:
        text = read_text(os.path.join(directory, name), "reference", ValueError)
        if text:
            index.add(name, chunk(text, size, overlap), embedder)
    return index


def format_context(results: list[tuple[RagChunk, float]]) -> str:
    """Render query hits as the reference material given to the refiner."""
    parts = []
    for c, sim in results:
        parts.append(f"[{c.doc_id}#{c.chunk_index} sim={sim:.3f}]\n{c.text}")
    return "\n\n".join(parts)
