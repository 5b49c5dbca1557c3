"""Flat exact-cosine retrieval over chunked reference documents.

Deliberately no ANN structure: corpora are a few reference texts, and an
exact index keeps every query brute-force checkable. The default embedder
is a hashed bag-of-words so offline runs are deterministic across platforms;
real embedding services plug in through the Embedder protocol.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from svagen import read_text
from svagen.records import load

DEFAULT_DIMENSION = 512
DEFAULT_CHUNK_SIZE = 1200
DEFAULT_CHUNK_OVERLAP = 200
DEFAULT_TOP_K = 4

_WORD_RE = re.compile(r"[a-z0-9_$]+")


class Embedder(Protocol):
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


class HashedBowEmbedder:
    """Deterministic hashed bag-of-words with L2 normalization.

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

    def embed(self, text: str) -> np.ndarray:
        tokens = _WORD_RE.findall(text.lower())
        if not tokens and text:
            tokens = [text]
        buckets = self._buckets
        for token in set(tokens).difference(buckets):
            digest = hashlib.md5(token.encode("utf-8")).digest()
            buckets[token] = int.from_bytes(digest[:8], "big") % self.dimension
        # integer counts, so the float64 vector equals one built by += 1.0
        counts = np.bincount([buckets[t] for t in tokens], minlength=self.dimension)
        vec = counts.astype(np.float64)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


@dataclass
class RagChunk:
    doc_id: str
    chunk_index: int
    text: str
    vector: np.ndarray
    # computed once here, by add and by load alike, and read by every query
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.norm = np.linalg.norm(self.vector)


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
    """Exact flat cosine index; the first add fixes the dimension."""

    def __init__(self, dimension: int | None = None) -> None:
        self.dimension = dimension
        self.chunks: list[RagChunk] = []

    def __len__(self) -> int:
        return len(self.chunks)

    def add(self, doc_id: str, chunk_texts: list[str], embedder: Embedder) -> None:
        """Embed and store chunks for one document; re-adding a doc_id
        replaces its previous chunks."""
        if self.dimension is None:
            self.dimension = embedder.dimension
        if embedder.dimension != self.dimension:
            raise ValueError(
                f"embedder dimension {embedder.dimension} != index dimension {self.dimension}"
            )
        self.chunks = [c for c in self.chunks if c.doc_id != doc_id]
        for i, text in enumerate(chunk_texts):
            self.chunks.append(
                RagChunk(doc_id=doc_id, chunk_index=i, text=text, vector=embedder.embed(text))
            )

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
        q = embedder.embed(query_text)
        qn = np.linalg.norm(q)
        scored = []
        # one np.dot per chunk, not one matrix product: BLAS may round a
        # product differently in the last bits, and near-ties must stay exact
        for c in self.chunks:
            cn = c.norm
            sim = float(np.dot(q, c.vector) / (qn * cn)) if qn > 0 and cn > 0 else 0.0
            scored.append((c, sim))
        scored.sort(key=lambda item: (-item[1], item[0].doc_id, item[0].chunk_index))
        return scored[:k]

    # -- persistence

    def save(self, path: str) -> None:
        """Write the index as compact JSON: the chunk texts, and all vectors
        as one base64 little-endian float64 `count x dimension` matrix,
        row-major. `load` reads any whitespace."""
        payload = {
            "dimension": self.dimension,
            "count": len(self.chunks),
            "chunks": [
                {"doc_id": c.doc_id, "chunk_index": c.chunk_index, "text": c.text}
                for c in self.chunks
            ],
            "vectors": base64.b64encode(
                b"".join(np.asarray(c.vector, dtype="<f8").tobytes() for c in self.chunks)
            ).decode("ascii"),
        }
        with open(path, "w", encoding="utf-8") as f:
            # two writes: `text + "\n"` would copy the whole file once more
            f.write(json.dumps(payload, sort_keys=True))
            f.write("\n")

    @classmethod
    def load(cls, path: str) -> VectorIndex:
        """Read a file written by `save`. ValueError naming the file when it
        is not one: invalid JSON, a missing, unknown or wrongly typed field
        (the older layout, with a `vector` per chunk, has no `vectors`), or
        a chunk list or vector byte length that does not match `count` and
        `dimension`."""
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
        raw = base64.b64decode(stored.vectors, validate=True)
        width = dimension or 0
        if len(raw) != count * width * 8:
            raise ValueError(
                f"index vectors hold {len(raw)} bytes, not count x dimension x 8 = {count * width * 8}"
            )
        # one aligned native copy; each chunk's vector is a row of it
        matrix = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(count, width)
        index = cls(dimension=dimension)
        index.chunks = [
            RagChunk(c.doc_id, c.chunk_index, c.text, row) for c, row in zip(chunks, matrix)
        ]
        return index


@dataclass
class _IndexChunk:
    doc_id: str
    chunk_index: int
    text: str


@dataclass
class _IndexFile:
    """An index file as `VectorIndex.save` writes it."""

    dimension: int | None
    count: int
    chunks: list[_IndexChunk]
    vectors: str  # base64 of the little-endian float64 count x dimension matrix


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
