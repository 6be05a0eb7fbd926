"""Frozen reference: the synthetic review corpus as it stood at
``545fc31``, when every token took its own ``random()`` roll and
``choice(p=)`` pick.

Production now draws the whole corpus's uniforms in one ``rng.random``
call and picks the tokens with ``searchsorted``, so it can no longer
vouch for itself. This copy is the oracle ``test_sentiment_reference.py``
compares it against, byte for byte. It is verbatim but for its name
(``make_reviews`` -> ``reference_make_reviews``) and the absolute import
of ``Table``. Do not tidy it; change it only when the corpus is changed
on purpose, and say so here.

Import as ``from data.reference_sentiment import ...`` (``tests/`` is on
``sys.path``, see ``conftest.py``).
"""

from __future__ import annotations

import numpy as np

from repro.data.table import Table


def reference_make_reviews(
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
    """
    if not 0.0 < sentiment_strength < 1.0:
        raise ValueError("sentiment_strength must be in (0, 1)")
    rng = np.random.default_rng(seed + 104729 * day)

    pos_words = [f"pos{i}" for i in range(n_sentiment)]
    neg_words = [f"neg{i}" for i in range(n_sentiment)]
    neutral_words = [f"w{i}" for i in range(n_neutral)]

    # Zipf-ish weights make co-occurrence statistics realistic.
    neutral_weights = 1.0 / np.arange(1, n_neutral + 1)
    neutral_weights /= neutral_weights.sum()
    sent_weights = 1.0 / np.arange(1, n_sentiment + 1)
    sent_weights /= sent_weights.sum()

    labels = rng.integers(0, 2, n_docs)
    docs: list[str] = []
    for label in labels:
        own = pos_words if label == 1 else neg_words
        other = neg_words if label == 1 else pos_words
        tokens: list[str] = []
        for _ in range(doc_len):
            roll = rng.random()
            if roll < sentiment_strength:
                tokens.append(own[rng.choice(n_sentiment, p=sent_weights)])
            elif roll < sentiment_strength + 0.05:
                tokens.append(other[rng.choice(n_sentiment, p=sent_weights)])
            else:
                tokens.append(neutral_words[rng.choice(n_neutral, p=neutral_weights)])
        docs.append(" ".join(tokens))

    return Table({
        "doc_id": np.arange(n_docs, dtype=np.int64) + 10000 * (day + 1),
        "text": np.array(docs, dtype=object),
        "sentiment": labels.astype(np.int64),
    })
