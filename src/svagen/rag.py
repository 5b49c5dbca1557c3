"""Flat exact-cosine retrieval over chunked reference documents.

Deliberately no ANN structure: corpora are a few reference texts, and an
exact index keeps every query brute-force checkable. The index holds each
chunk's non-zero vector entries, as its file does. A query scores every
chunk through per-bucket postings, used only as a filter: the few chunks
near the k-th best score that a posting reaches are rescored one `np.dot`
each on their rebuilt rows, and the others score exactly 0, so the answer
is the per-chunk scan's, bit for bit. An Embedder's one method,
`embed_many`, maps a batch of texts to one float64 row each; an `add`
embeds one document's chunks in one batch. The default embedder, a hashed
bag-of-words, is deterministic across platforms.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import itertools
import json
import os
import threading
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from svagen import read_text
from svagen.config import DEFAULT_CHUNK_OVERLAP, DEFAULT_CHUNK_SIZE
from svagen.records import encode, loads

DEFAULT_DIMENSION = 512
# how far below the k-th best filter score a chunk may fall and still be
# rescored exactly; the two differ by about dimension x eps
_FILTER_SLACK = 1e-9
# the postings build sorts the entries in blocks of whole rows holding at
# most this many entries each (a longer row is a block alone)
_BLOCK_ENTRIES = 1 << 13
# `save` encodes an array's base64 this many bytes at a time (a multiple of 3)
_B64_PIECE = 3 << 12


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
    once per embedder and its bucket kept. Non-empty text always embeds to a
    non-zero vector (textless input falls back to hashing the raw string).
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


@dataclass(slots=True)
class RagChunk:
    """A chunk and its vector's entries whose bits are not all zero, by column."""

    doc_id: str
    chunk_index: int
    text: str
    dimension: int
    entries: tuple[np.ndarray, np.ndarray]  # its document's columns and float64 values
    start: int  # the chunk's row is entries start..end
    end: int
    columns = property(lambda c: c.entries[0][c.start : c.end])  # views, made on access
    values = property(lambda c: c.entries[1][c.start : c.end])

    @property
    def vector(self) -> np.ndarray:
        """The dense row, rebuilt from the stored entries bit for bit."""
        row = np.zeros(self.dimension)
        row[self.columns] = self.values
        return row


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

    Each chunk is a row of its document's stored entries, its batch after an
    add or the arrays `load` decodes from its line; columns, like the
    postings' rows, take the narrowest unsigned type. The first query after
    a change builds per-bucket postings from those per-document arrays, one
    block of rows at a time: the entries grouped by column.
    """

    def __init__(self, dimension: int | None = None) -> None:
        self.dimension = dimension
        self.chunks: list[RagChunk] = []
        self._postings: tuple[np.ndarray, ...] | None = None  # None until a query after a change
        self._postings_lock = threading.Lock()
        # doc_id -> the columns and values its chunks slice, in `chunks` order
        self._docs: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.chunks)

    def _check_dimension(self, embedder: Embedder) -> None:
        if embedder.dimension != self.dimension:
            raise ValueError(f"embedder dimension {embedder.dimension} != index dimension {self.dimension}")

    def add(self, doc_id: str, chunk_texts: list[str], embedder: Embedder) -> None:
        """Embed one document's chunks in one `embed_many` batch and keep
        each row's stored entries; re-adding a doc_id replaces its previous
        chunks."""
        if self.dimension is None:
            self.dimension = embedder.dimension
        self._check_dimension(embedder)
        vectors = np.ascontiguousarray(embedder.embed_many(chunk_texts), dtype=np.float64)
        if vectors.shape != (len(chunk_texts), self.dimension):
            raise ValueError(f"embedder returned shape {vectors.shape} for {len(chunk_texts)} texts")
        # the flat positions of the entries to store, row by row
        stored = np.flatnonzero(vectors.view(np.uint64) != 0)
        ends = np.searchsorted(stored, np.arange(1, len(chunk_texts) + 1) * self.dimension)
        columns = (stored % self.dimension).astype(np.min_scalar_type(self.dimension - 1))
        if self._docs.pop(doc_id, None) is not None:  # a new doc_id needs no scan
            self.chunks = [c for c in self.chunks if c.doc_id != doc_id]
        self._append(doc_id, chunk_texts, ends, columns, vectors.reshape(-1)[stored])

    def _append(
        self, doc_id: str, texts: list[str], ends: np.ndarray, columns: np.ndarray, values: np.ndarray
    ) -> None:
        """Keep one document's chunks, whose row r's entries end at `ends[r]`."""
        self._postings = None
        self._docs[doc_id] = entries = (columns, values)
        ends = ends.tolist()  # row r + 1 starts at the int that ends row r
        rows = enumerate(zip(texts, [0, *ends], ends))
        self.chunks += [RagChunk(doc_id, i, t, self.dimension, entries, a, z) for i, (t, a, z) in rows]

    def _posting_lists(self) -> tuple[np.ndarray, ...]:
        """Bucket b's entries are `rows[starts[b]:starts[b + 1]]` with their
        `values`, in row order; `norms` are the chunks' norms from their
        stored values. Called only when the index holds a chunk.

        A counting inversion (Zobel & Moffat 2006), built in place: the
        column counts fix where each bucket starts, then each block of
        whole rows, in row order, sorts its entries by column and puts each
        after its column's entries already placed. So the build holds the
        postings and one block beyond the index, and its arrays are one
        stable argsort of all the entries by column, bit for bit."""
        with self._postings_lock:
            if self._postings is not None:
                return self._postings
            dimension, blocks = self.dimension, self._blocks()
            doc_columns, doc_values = zip(*self._docs.values())
            # document d holds entries bounds[d]..bounds[d + 1] of the index
            bounds = [0, *itertools.accumulate(map(len, doc_columns))]
            starts = np.zeros(dimension + 1, dtype=np.intp)
            for _, _, a, z in blocks:
                starts[1:] += np.bincount(_span(doc_columns, bounds, a, z), minlength=dimension)
            np.cumsum(starts, out=starts)
            row_type = np.min_scalar_type(len(self.chunks) - 1)
            rows, values = np.empty(starts[-1], dtype=row_type), np.empty(starts[-1])
            norms = np.zeros(len(self.chunks))  # a row that stores no entry keeps norm 0
            free = starts[:-1].copy()  # each bucket's next free slot
            for first, row_nnz, a, z in blocks:
                block_columns = _span(doc_columns, bounds, a, z)
                block_values = _span(doc_values, bounds, a, z)
                block_rows = np.repeat(np.arange(len(row_nnz), dtype=row_type), row_nnz)
                squares = np.bincount(block_rows, block_values * block_values, minlength=len(row_nnz))
                norms[first : first + len(row_nnz)] = np.sqrt(squares)
                order = np.argsort(block_columns, kind="stable")  # 16-bit columns or fewer: a radix sort
                counts = np.bincount(block_columns, minlength=dimension)
                # a column's entries in the block go to its next free slots, in order
                slots = np.repeat(free - np.cumsum(counts) + counts, counts)
                slots += np.arange(len(slots))
                block_rows += first
                rows[slots] = block_rows[order]
                values[slots] = block_values[order]
                free += counts
            self._postings = (starts, rows, values, norms)
            return self._postings

    def _blocks(self) -> list[tuple[int, np.ndarray, int, int]]:
        """The stored entries in row order, cut into blocks of whole rows
        that hold at most _BLOCK_ENTRIES entries (a longer row is a block
        alone) and at least one: each block's first row, its entries per
        row, and the span a..z of the index's entries it holds."""
        row_nnz = np.array([c.end - c.start for c in self.chunks], dtype=np.intp)
        row_ends = np.cumsum(row_nnz)
        blocks, first = [], 0
        while first < len(row_nnz):
            a = int(row_ends[first] - row_nnz[first])
            last = max(int(np.searchsorted(row_ends, a + _BLOCK_ENTRIES, side="right")), first + 1)
            z = int(row_ends[last - 1])
            if z > a:
                blocks.append((first, row_nnz[first:last], a, z))
            first = last
        return blocks

    def query(self, query_text: str, k: int, embedder: Embedder) -> list[tuple[RagChunk, float]]:
        """Top-k chunks by cosine similarity, descending; ties broken by
        (doc_id, chunk_index). An empty index yields an empty result."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.chunks:
            return []
        self._check_dimension(embedder)
        q = embedder.embed_many([query_text])[0]
        qn = np.linalg.norm(q)
        # Filter, then score exactly. One bincount over the postings of the
        # query's buckets scores every chunk but may round unlike the np.dot
        # below, so it only picks the chunks within _FILTER_SLACK of the k-th
        # best: each true top-k chunk and each tie with the k-th. A chunk no
        # posting reaches shares no non-zero bucket with the query, so both
        # its scores are exactly 0 and it is not rescored. The empty slices
        # serve a query with no non-zero bucket.
        starts, rows, values, norms = self._posting_lists()
        spans = [(starts[b], starts[b + 1], q[b]) for b in np.flatnonzero(q)]
        hit_rows = np.concatenate([rows[a:z] for a, z, _ in spans] + [rows[:0]])
        weighted = np.concatenate([values[a:z] * w for a, z, w in spans] + [values[:0]])
        chunks = self.chunks
        dots = np.bincount(hit_rows, weighted, len(chunks))
        scale = qn * norms
        approx = np.divide(dots, scale, out=np.zeros(len(chunks)), where=scale > 0)
        top = min(k, len(chunks))
        kth = np.partition(approx, -top)[-top]
        reached = np.bincount(hit_rows, minlength=len(chunks)) > 0
        scored = []
        for i in np.flatnonzero(approx >= kth - _FILTER_SLACK):
            c, sim = chunks[i], 0.0
            if reached[i] and (cn := np.linalg.norm(vector := c.vector)) > 0:
                sim = float(np.dot(q, vector) / (qn * cn))
            scored.append((c, sim))
        scored.sort(key=lambda item: (-item[1], item[0].doc_id, item[0].chunk_index))
        return scored[:k]

    def context(self, query_text: str, k: int) -> str:
        """The top-k chunks for `query_text` as `format_context` renders
        them, the query embedded as svagen builds every index: hashed
        bag-of-words at the index's dimension. An empty index gives ""."""
        return format_context(self.query(query_text, k, HashedBowEmbedder(self.dimension or DEFAULT_DIMENSION)))

    def save(self, path: str) -> None:
        """Write the index as JSON Lines, one document at a time: a header
        `{"count", "dimension"}`, then one line per document in `chunks`
        order with its chunk `texts` and their stored entries as three
        base64 little-endian arrays: `row_nnz` (uint32, entries per row),
        `columns` (uint32) and `values` (float64). An entry is stored unless
        its bits are all zero, so every row rebuilds bit for bit."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(encode(_Header(len(self.chunks), self.dimension)), sort_keys=True) + "\n")
            # `add` keeps each document's chunks together, in chunk_index order
            for doc_id, group in itertools.groupby(self.chunks, key=lambda c: c.doc_id):
                _write_document(f, doc_id, list(group), *self._docs[doc_id])

    @classmethod
    def load(cls, path: str) -> VectorIndex:
        """Read a file written by `save` line by line. ValueError naming the
        file and the line when it is not one: a line that is not JSON, a
        first line that is not the header, a missing, unknown or wrongly
        typed field (as in an older layout), a doc_id on two lines, a
        `row_nnz` length other than the line's text count, `columns` and
        `values` lengths other than the `row_nnz` sum, a column `>=
        dimension`, columns not ascending, or a chunk total other than
        `count`."""
        number = 1  # the line an error is charged to
        try:
            with open(path, encoding="utf-8") as lines:
                header = loads(_Header, lines.readline(), ValueError)
                count, dimension = header.count, header.dimension
                if count < 0:
                    raise ValueError(f"count must be non-negative, not {count}")
                # the first add fixes the dimension, so an index with no chunks may have none
                if not (count == 0 if dimension is None else dimension >= 1):
                    raise ValueError(f"dimension must be a positive integer, not {dimension!r}")
                index = cls(dimension=dimension)
                for line in lines:
                    number += 1
                    doc = loads(_Document, line, ValueError)
                    del line  # freed before the arrays are decoded: a line is as large as they are
                    index._add_stored(doc)
                    if len(index.chunks) > count:
                        raise ValueError(f"chunk total {len(index.chunks)} so far exceeds count = {count}")
                number = 1  # fewer chunks than the header's count: a truncated file
                if len(index.chunks) != count:
                    raise ValueError(f"chunk total {len(index.chunks)} is not count = {count}")
                return index
        except (OSError, UnicodeDecodeError) as err:
            raise ValueError(f"cannot read index file {path!r}: {err}") from err
        except ValueError as err:
            raise ValueError(f"index file {path!r}, line {number}: {err}") from err

    def _add_stored(self, doc: _Document) -> None:
        """Append one document line's chunks, after checking its arrays."""
        if doc.doc_id in self._docs:
            raise ValueError(f"doc_id {doc.doc_id!r} is on an earlier line too")
        row_nnz = _unb64(doc.row_nnz, "<u4", "row_nnz")
        columns = _unb64(doc.columns, "<u4", "columns")
        values = _unb64(doc.values, "<f8", "values")
        if len(row_nnz) != len(doc.texts):
            raise ValueError(f"row_nnz holds {len(row_nnz)} rows, not one per text ({len(doc.texts)})")
        total = int(row_nnz.sum(dtype=np.int64))
        if not (len(columns) == len(values) == total):
            raise ValueError(
                f"columns and values hold {len(columns)} and {len(values)} entries, "
                f"not the row_nnz sum {total}"
            )
        width = self.dimension or 0
        if total and int(columns.max()) >= width:
            raise ValueError(f"column {int(columns.max())} is not below dimension {width}")
        keys = np.repeat(np.arange(len(row_nnz), dtype=np.int64) * width, row_nnz)
        keys += columns
        if np.any(keys[1:] <= keys[:-1]):  # each row's columns ascend: no entry is stored twice
            raise ValueError("columns do not ascend within each row")
        columns = columns.astype(np.min_scalar_type(max(width - 1, 0)))  # checked, so narrowed
        self._append(doc.doc_id, doc.texts, np.cumsum(row_nnz), columns, values)


def _write_document(f, doc_id: str, rows: list[RagChunk], columns: np.ndarray, values: np.ndarray) -> None:
    """One document's line, the bytes `json.dumps` gives its `_Document` with
    sorted keys, written one field at a time and the texts one at a time, so
    no two fields are held at once. A base64 string needs no JSON escape."""
    f.write('{"columns": "')
    _write_b64(f, columns, "<u4")
    f.write(f'", "doc_id": {json.dumps(doc_id)}, "row_nnz": "')
    _write_b64(f, np.array([c.end - c.start for c in rows]), "<u4")
    f.write('", "texts": [')
    for i, c in enumerate(rows):
        f.write(", " if i else "")
        f.write(json.dumps(c.text))
    f.write('], "values": "')
    _write_b64(f, values, "<f8")
    f.write('"}\n')


def _span(arrays: tuple[np.ndarray, ...], bounds: list[int], a: int, z: int) -> np.ndarray:
    """Entries a..z (z > a) of `arrays` laid end to end, where array d holds
    entries `bounds[d]..bounds[d + 1]`."""
    lo, hi = bisect.bisect_right(bounds, a) - 1, bisect.bisect_left(bounds, z) - 1
    if lo == hi:
        return arrays[lo][a - bounds[lo] : z - bounds[lo]]
    return np.concatenate([arrays[lo][a - bounds[lo] :], *arrays[lo + 1 : hi], arrays[hi][: z - bounds[hi]]])


def _write_b64(f, array: np.ndarray, dtype: str) -> None:
    """Write the base64 of `array`'s bytes as `dtype`, converting _B64_PIECE bytes at a
    time: pieces whose lengths are multiples of 3 encode to the whole's base64."""
    step = _B64_PIECE // np.dtype(dtype).itemsize
    for at in range(0, len(array), step):
        f.write(base64.b64encode(array[at : at + step].astype(dtype)).decode("ascii"))


def _unb64(text: str, dtype: str, name: str) -> np.ndarray:
    raw = base64.b64decode(text, validate=True)
    size = np.dtype(dtype).itemsize
    if len(raw) % size:
        raise ValueError(f"{name} holds {len(raw)} bytes, not a multiple of {size}")
    return np.frombuffer(raw, dtype=dtype)


@dataclass
class _Header:
    """An index file's first line."""

    count: int  # the chunks in the whole file
    dimension: int | None


@dataclass
class _Document:
    """One document's line: its chunks, in chunk_index order, and their
    stored entries; arrays are base64, little-endian."""

    doc_id: str
    texts: list[str]
    row_nnz: str  # uint32 per text: how many of its row's entries are stored
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
    index = VectorIndex(embedder.dimension)
    for name in sorted(f for f in os.listdir(directory) if f.endswith((".txt", ".md"))):
        text = read_text(os.path.join(directory, name), "reference", ValueError)
        if text:
            index.add(name, chunk(text, size, overlap), embedder)
    return index


def format_context(results: list[tuple[RagChunk, float]]) -> str:
    """Render query hits as the reference material given to the refiner."""
    return "\n\n".join(f"[{c.doc_id}#{c.chunk_index} sim={sim:.3f}]\n{c.text}" for c, sim in results)
