"""Synthetic movie-review corpus for the SA pipeline (section VII-A).

The sentiment-analysis pipeline's first three steps "process the external
corpora and pre-trained word embeddings". With no network, we synthesize a
corpus from two class-conditional unigram mixtures over a shared
vocabulary: sentiment-bearing words are sampled preferentially by their
class, neutral words by both. The embedding step (PPMI + SVD in
:mod:`repro.ml.embeddings`) then has real co-occurrence structure to learn,
and the classifier has a planted signal to find.
"""

from __future__ import annotations

import numpy as np

from ..table import Table


def vocabulary(n_sentiment: int = 60, n_neutral: int = 240) -> list[str]:
    """Deterministic synthetic vocabulary: pos_i, neg_i, w_i tokens."""
    pos = [f"pos{i}" for i in range(n_sentiment)]
    neg = [f"neg{i}" for i in range(n_sentiment)]
    neutral = [f"w{i}" for i in range(n_neutral)]
    return pos + neg + neutral


def make_reviews(
    n_docs: int = 400,
    doc_len: int = 40,
    n_sentiment: int = 60,
    n_neutral: int = 240,
    sentiment_strength: float = 0.35,
    seed: int = 13,
    day: int = 0,
) -> Table:
    """Generate labelled synthetic reviews.

    Each document mixes neutral tokens with class-matched sentiment tokens
    at rate ``sentiment_strength``; a small fraction of off-class sentiment
    tokens keeps the task non-trivial.

    Every token takes two uniform draws, in order: a roll that picks its
    kind (own-class, other-class or neutral word) and a pick among the
    Zipf weights of that kind. The pick is what ``Generator.choice(n,
    p=p)`` does with the one double it draws: ``searchsorted(cdf, u,
    side="right")`` over ``p.cumsum() / cdf[-1]``. So one ``rng.random``
    call after the labels gives every draw of the corpus, the same stream
    a per-token ``random()`` + ``choice(p=)`` loop consumes, and the same
    tokens.
    """
    if not 0.0 < sentiment_strength < 1.0:
        raise ValueError("sentiment_strength must be in (0, 1)")
    rng = np.random.default_rng(seed + 104729 * day)
    words = np.array(vocabulary(n_sentiment, n_neutral), dtype=object)  # pos, neg, neutral

    def pick(n: int, u: np.ndarray) -> np.ndarray:
        # Zipf-ish weights make co-occurrence statistics realistic.
        weights = 1.0 / np.arange(1, n + 1)
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        return np.searchsorted(cdf, u, side="right")

    labels = rng.integers(0, 2, n_docs)
    draws = rng.random(2 * n_docs * doc_len).reshape(n_docs, doc_len, 2)
    roll, u = draws[..., 0], draws[..., 1]
    # own-class words are the pos ones for label 1, other-class ones for 0
    positive = (roll < sentiment_strength) == (labels[:, None] == 1)
    sentiment = np.where(positive, 0, n_sentiment) + pick(n_sentiment, u)
    neutral = 2 * n_sentiment + pick(n_neutral, u)
    tokens = np.where(roll < sentiment_strength + 0.05, sentiment, neutral)
    docs = [" ".join(words[row]) for row in tokens]

    return Table({
        "doc_id": np.arange(n_docs, dtype=np.int64) + 10000 * (day + 1),
        "text": np.array(docs, dtype=object),
        "sentiment": labels.astype(np.int64),
    })
