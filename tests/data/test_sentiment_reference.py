"""The synthetic review corpus against its frozen per-token reference,
byte for byte.

The corpus now takes every uniform it needs from one ``rng.random`` call;
its serialized bytes must be exactly what the per-token ``random()`` +
``choice(p=)`` loop in ``reference_sentiment.py`` produces, for drawn
sizes, vocabularies, strengths, seeds and days.
"""

from hypothesis import given, strategies as st

from data.reference_sentiment import reference_make_reviews
from helpers import oracle_settings
from repro.data.serialize import payload_to_bytes
from repro.data.synthetic import make_reviews


@oracle_settings(60)
@given(
    n_docs=st.integers(0, 300),
    doc_len=st.integers(0, 60),
    n_sentiment=st.integers(1, 80),
    n_neutral=st.integers(1, 300),
    sentiment_strength=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**20),
    day=st.integers(0, 9),
)
def test_make_reviews_matches_the_per_token_reference(**kwargs):
    assert payload_to_bytes(make_reviews(**kwargs)) == payload_to_bytes(
        reference_make_reviews(**kwargs)
    )


def test_the_bundled_corpus_matches_the_reference():
    """The SA dataset stage's corpus at its full size, two days."""
    for day in (0, 1):
        kwargs = {"n_docs": 400, "doc_len": 40, "seed": 13, "day": day}
        assert payload_to_bytes(make_reviews(**kwargs)) == payload_to_bytes(
            reference_make_reviews(**kwargs)
        )
