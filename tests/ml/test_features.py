"""Feature extraction tests: Zernike moments, text, embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.errors import NotFittedError
from repro.ml import (
    Vocabulary,
    WordEmbedder,
    ZernikeExtractor,
    cooccurrence_matrix,
    ppmi_matrix,
    tokenize,
)
from repro.ml.zernike import zernike_basis_indices
from repro.data.synthetic import make_reviews


class TestZernike:
    def test_feature_count_matches_indices(self):
        extractor = ZernikeExtractor(max_order=8)
        images = np.random.default_rng(0).random((3, 16, 16))
        feats = extractor.transform(images)
        assert feats.shape == (3, extractor.n_features)
        assert extractor.n_features == len(zernike_basis_indices(8))

    def test_indices_parity_rule(self):
        for n, m in zernike_basis_indices(10):
            assert 0 <= m <= n
            assert (n - m) % 2 == 0

    def test_rotation_invariance_of_magnitudes(self):
        """|Z_nm| must be (approximately) invariant to 90° rotation."""
        rng = np.random.default_rng(1)
        image = np.zeros((32, 32))
        image[8:24, 12:20] = 1.0  # a bar
        image += rng.random((32, 32)) * 0.01
        extractor = ZernikeExtractor(max_order=6)
        feats = extractor.transform(image[None])
        rotated = np.rot90(image)
        feats_rot = extractor.transform(rotated[None])
        # relative difference small for low orders
        denom = np.abs(feats) + 1e-6
        assert np.median(np.abs(feats - feats_rot) / denom) < 0.05

    def test_single_image_accepted(self):
        feats = ZernikeExtractor(max_order=4).transform(np.zeros((16, 16)))
        assert feats.shape[0] == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ZernikeExtractor().transform(np.zeros((2, 8, 10)))

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            ZernikeExtractor(max_order=0)

    def test_discriminates_digits(self):
        from repro.data.synthetic import make_digits

        images, labels = make_digits(200, seed=2, noise=0.02)
        feats = ZernikeExtractor(max_order=8).transform(images)
        ones = feats[labels == 1].mean(axis=0)
        eights = feats[labels == 8].mean(axis=0)
        assert np.linalg.norm(ones - eights) > 0.05


class TestTokenizeAndVocabulary:
    def test_tokenize_lowercase_and_punctuation(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_tokenize_empty(self):
        assert tokenize("") == []

    def test_vocab_frequency_order(self):
        docs = [["b", "b", "a"], ["b", "c"]]
        vocab = Vocabulary().fit(docs)
        tokens = vocab.tokens()
        assert tokens[0] == Vocabulary.UNK
        assert tokens[1] == "b"  # most frequent first

    def test_vocab_max_size(self):
        docs = [[f"w{i}" for i in range(100)]]
        vocab = Vocabulary(max_size=10).fit(docs)
        assert len(vocab) == 10

    def test_min_count_filters(self):
        docs = [["a", "a", "rare"]]
        vocab = Vocabulary(min_count=2).fit(docs)
        assert "a" in vocab and "rare" not in vocab

    def test_encode_decode_roundtrip(self):
        docs = [["x", "y", "z"]]
        vocab = Vocabulary().fit(docs)
        ids = vocab.encode(["x", "z", "unseen"])
        assert vocab.decode(ids) == ["x", "z", Vocabulary.UNK]

    def test_from_tokens(self):
        vocab = Vocabulary.from_tokens([Vocabulary.UNK, "a", "b"])
        assert vocab.encode(["b"])[0] == 2

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            Vocabulary(min_count=0)


def reference_cooccurrence(encoded_docs, vocab_size, window=4):
    """``cooccurrence_matrix`` as a loop over the pairs, the way it was
    written before the entries were built with numpy: the differential
    reference. Do not tidy it."""
    rows: list[int] = []
    cols: list[int] = []
    for doc in encoded_docs:
        n = doc.shape[0]
        for i in range(n):
            lo = max(0, i - window)
            for j in range(lo, i):
                rows.append(int(doc[i]))
                cols.append(int(doc[j]))
                rows.append(int(doc[j]))
                cols.append(int(doc[i]))
    data = np.ones(len(rows), dtype=np.float64)
    return sparse.csr_matrix(
        (data, (rows, cols)), shape=(vocab_size, vocab_size)
    )


def assert_same_csr(change, reference):
    """The very arrays ``svds`` is handed: index dtypes included."""
    assert change.shape == reference.shape
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(change, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name


class TestCooccurrenceAndPPMI:
    def test_cooccurrence_symmetric(self):
        docs = [np.array([1, 2, 3, 1])]
        cooc = cooccurrence_matrix(docs, 5, window=2)
        dense = cooc.toarray()
        assert np.array_equal(dense, dense.T)

    def test_window_limits_pairs(self):
        docs = [np.array([1, 2, 3, 4])]
        narrow = cooccurrence_matrix(docs, 5, window=1).sum()
        wide = cooccurrence_matrix(docs, 5, window=3).sum()
        assert wide > narrow

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            cooccurrence_matrix([np.array([0])], 2, window=0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 29), max_size=40), max_size=8),
        st.integers(1, 8),
        st.sampled_from([np.int64, np.int32]),
    )
    def test_matches_the_pair_loop(self, docs, window, dtype):
        encoded = [np.array(doc, dtype=dtype) for doc in docs]
        assert_same_csr(
            cooccurrence_matrix(encoded, 30, window),
            reference_cooccurrence(encoded, 30, window),
        )

    def test_matches_the_pair_loop_on_a_review_corpus(self):
        table = make_reviews(200, seed=4)
        docs = [tokenize(str(t)) for t in table["text"]]
        vocab = Vocabulary(max_size=300).fit(docs)
        encoded = [vocab.encode(d) for d in docs]
        assert_same_csr(
            cooccurrence_matrix(encoded, len(vocab)),
            reference_cooccurrence(encoded, len(vocab)),
        )

    def test_ppmi_nonnegative(self):
        docs = [np.array([1, 2, 1, 3, 2, 1])]
        ppmi = ppmi_matrix(cooccurrence_matrix(docs, 4, window=2))
        assert (ppmi.toarray() >= 0).all()

    def test_ppmi_empty_matrix(self):
        from scipy import sparse

        empty = sparse.csr_matrix((3, 3))
        assert ppmi_matrix(empty).nnz == 0


class TestWordEmbedder:
    def _corpus(self, n_docs=150):
        table = make_reviews(n_docs, seed=4)
        docs = [tokenize(str(t)) for t in table["text"]]
        vocab = Vocabulary(max_size=250).fit(docs)
        encoded = [vocab.encode(d) for d in docs]
        return encoded, vocab, table["sentiment"].astype(int)

    def test_vector_shapes(self):
        encoded, vocab, _ = self._corpus()
        embedder = WordEmbedder(dimensions=16).fit(encoded, vocab)
        assert embedder.vectors_.shape == (len(vocab), 16)

    def test_sentiment_words_cluster(self):
        """pos* tokens must be closer to each other than to neg* tokens."""
        encoded, vocab, _ = self._corpus(300)
        embedder = WordEmbedder(dimensions=16, seed=0).fit(encoded, vocab)
        tokens = vocab.tokens()
        pos_ids = [i for i, t in enumerate(tokens) if t.startswith("pos")][:10]
        neg_ids = [i for i, t in enumerate(tokens) if t.startswith("neg")][:10]
        vectors = embedder.vectors_
        norm = lambda v: v / (np.linalg.norm(v) + 1e-9)
        pos_centroid = norm(vectors[pos_ids].mean(axis=0))
        neg_centroid = norm(vectors[neg_ids].mean(axis=0))
        within = np.mean([norm(vectors[i]) @ pos_centroid for i in pos_ids])
        across = np.mean([norm(vectors[i]) @ neg_centroid for i in pos_ids])
        assert within > across

    def test_doc_embeddings_enable_classification(self):
        from repro.ml import LogisticRegression, accuracy

        encoded, vocab, labels = self._corpus(300)
        embedder = WordEmbedder(dimensions=16, seed=0).fit(encoded, vocab)
        X = embedder.embed_documents(encoded)
        model = LogisticRegression(n_iterations=300).fit(X[:200], labels[:200])
        assert accuracy(labels[200:], model.predict(X[200:])) > 0.8

    def test_empty_doc_embeds_to_zero(self):
        encoded, vocab, _ = self._corpus(50)
        embedder = WordEmbedder(dimensions=8).fit(encoded, vocab)
        assert np.array_equal(
            embedder.embed_document(np.array([], dtype=np.int64)), np.zeros(8)
        )

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            WordEmbedder().embed_document(np.array([1]))

    def test_deterministic(self):
        encoded, vocab, _ = self._corpus(80)
        a = WordEmbedder(dimensions=8, seed=3).fit(encoded, vocab).vectors_
        b = WordEmbedder(dimensions=8, seed=3).fit(encoded, vocab).vectors_
        assert np.allclose(a, b)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            WordEmbedder(dimensions=1)
