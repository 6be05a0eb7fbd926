"""Word embeddings: PPMI co-occurrence matrix + truncated SVD.

The SA pipeline's costly pre-processing steps "process the external corpora
and pre-trained word embeddings" (paper section VII-A). With no pre-trained
vectors available offline, we *train* embeddings from the synthetic corpus:
positive pointwise mutual information over a sliding co-occurrence window,
factorized with sparse truncated SVD (scipy). Documents are then embedded
as the mean of their word vectors — the feature matrix the classifier
consumes. This is deliberately the slowest stage of the SA pipeline,
matching the paper's observation that SA's pre-processing dominates.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import svds

from ..errors import NotFittedError
from .text import Vocabulary


def cooccurrence_matrix(
    encoded_docs: list[np.ndarray],
    vocab_size: int,
    window: int = 4,
) -> sparse.csr_matrix:
    """Symmetric within-window co-occurrence counts.

    Every token ``i`` of a document pairs with the ``min(i, window)``
    tokens before it, ``j`` ascending, and each pair is emitted as
    ``(i, j)`` then ``(j, i)``: the order of a loop over the pairs, built
    with numpy. The CSR conversion sums duplicates into sorted rows, and
    sums of ones are exact, so ``indptr``, ``indices`` and ``data`` are
    the very arrays that loop produces.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    lengths = np.array([doc.shape[0] for doc in encoded_docs], dtype=np.int64)
    tokens = (
        np.concatenate(encoded_docs).astype(np.int64)
        if encoded_docs
        else np.zeros(0, dtype=np.int64)
    )
    # Position of every token within its document, and how many
    # predecessors it pairs with.
    positions = np.arange(tokens.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    pairs = np.minimum(positions, window)
    i = np.repeat(np.arange(tokens.size), pairs)
    # j runs i - pairs[i] .. i - 1: the rank of each entry within its run.
    rank = np.arange(i.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    j = i - np.repeat(pairs, pairs) + rank
    a, b = tokens[i], tokens[j]
    rows = np.stack([a, b], axis=1).ravel()
    cols = np.stack([b, a], axis=1).ravel()
    data = np.ones(rows.size, dtype=np.float64)
    return sparse.csr_matrix(
        (data, (rows, cols)), shape=(vocab_size, vocab_size)
    )


def ppmi_matrix(cooc: sparse.csr_matrix, shift: float = 1.0) -> sparse.csr_matrix:
    """Positive (shifted) PMI transform of a co-occurrence matrix."""
    total = cooc.sum()
    if total == 0:
        return cooc.copy()
    row_sums = np.asarray(cooc.sum(axis=1)).ravel()
    col_sums = np.asarray(cooc.sum(axis=0)).ravel()
    coo = cooc.tocoo()
    with np.errstate(divide="ignore"):
        pmi = np.log(
            (coo.data * total)
            / (row_sums[coo.row] * col_sums[coo.col] + 1e-12)
        ) - np.log(shift)
    positive = pmi > 0
    return sparse.csr_matrix(
        (pmi[positive], (coo.row[positive], coo.col[positive])),
        shape=cooc.shape,
    )


class WordEmbedder:
    """PPMI + truncated-SVD word vectors with mean-pooled doc embeddings."""

    def __init__(self, dimensions: int = 32, window: int = 4, seed: int = 0):
        if dimensions < 2:
            raise ValueError(f"dimensions must be >= 2, got {dimensions}")
        self.dimensions = dimensions
        self.window = window
        self.seed = seed
        self.vocabulary: Vocabulary | None = None
        self.vectors_: np.ndarray | None = None

    def fit(self, encoded_docs: list[np.ndarray], vocabulary: Vocabulary) -> "WordEmbedder":
        self.vocabulary = vocabulary
        vocab_size = len(vocabulary)
        cooc = cooccurrence_matrix(encoded_docs, vocab_size, self.window)
        ppmi = ppmi_matrix(cooc)
        k = min(self.dimensions, vocab_size - 1)
        rng = np.random.default_rng(self.seed)
        v0 = rng.standard_normal(vocab_size)
        u, s, _ = svds(ppmi, k=k, v0=v0)
        # svds returns ascending singular values; flip for determinism
        order = np.argsort(-s)
        vectors = u[:, order] * np.sqrt(s[order])[None, :]
        if vectors.shape[1] < self.dimensions:
            pad = np.zeros((vocab_size, self.dimensions - vectors.shape[1]))
            vectors = np.hstack([vectors, pad])
        # Fix sign convention (largest-magnitude entry positive per column).
        for col in range(vectors.shape[1]):
            pivot = np.argmax(np.abs(vectors[:, col]))
            if vectors[pivot, col] < 0:
                vectors[:, col] = -vectors[:, col]
        self.vectors_ = vectors
        return self

    def embed_document(self, encoded_doc: np.ndarray) -> np.ndarray:
        if self.vectors_ is None:
            raise NotFittedError("WordEmbedder")
        if encoded_doc.size == 0:
            return np.zeros(self.vectors_.shape[1])
        return self.vectors_[encoded_doc].mean(axis=0)

    def embed_documents(self, encoded_docs: list[np.ndarray]) -> np.ndarray:
        return np.vstack([self.embed_document(d) for d in encoded_docs])

    def get_params(self) -> dict:
        if self.vectors_ is None:
            raise NotFittedError("WordEmbedder")
        return {"vectors": self.vectors_}
