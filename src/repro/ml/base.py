"""Estimator and transformer base classes for the numpy ML substrate.

The paper's pipelines treat every library component as a transformation
``y = f(x | θ)`` (Definition 3). Our ML building blocks follow a minimal
sklearn-like contract so that pipeline components can wrap them uniformly:

* ``Transformer.fit(X) -> self``, ``transform(X) -> X'``
* ``Estimator.fit(X, y) -> self``, ``predict(X)``, and for classifiers
  ``predict_proba(X)``

Every fitted object exposes ``get_params()`` returning a dict of numpy
arrays/scalars so models serialize deterministically through
:mod:`repro.data.serialize` (that is what gets checkpointed into the
storage engine).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import NotFittedError


class Fitted(ABC):
    """Mixin: track and assert fitted state."""

    _fitted: bool = False

    def _mark_fitted(self) -> None:
        self._fitted = True

    def check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(type(self).__name__)

    @abstractmethod
    def get_params(self) -> dict:
        """Learned state as a serializable dict (arrays and scalars)."""


class Transformer(Fitted):
    """Stateless-interface feature transformer."""

    @abstractmethod
    def fit(self, X: np.ndarray) -> "Transformer": ...

    @abstractmethod
    def transform(self, X: np.ndarray) -> np.ndarray: ...

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class Estimator(Fitted):
    """Supervised model."""

    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Estimator": ...

    @abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray: ...


class Classifier(Estimator):
    """Adds class probabilities; ``classes_`` is set by ``fit``."""

    classes_: np.ndarray

    @abstractmethod
    def predict_proba(self, X: np.ndarray) -> np.ndarray: ...

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


def as_2d(X) -> np.ndarray:
    """Coerce input to a 2-D float64 matrix."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D input, got shape {arr.shape}")
    return arr


def check_width(X: np.ndarray, fitted: int) -> None:
    """Refuse an ``X`` whose column count is not the one a model was fitted on."""
    if X.shape[1] != fitted:
        raise ValueError(f"X has {X.shape[1]} features but the model was fitted on {fitted}")


def encode_labels(y, n_rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return (classes, indices) with indices into the sorted class set.

    With ``n_rows``, the row count of the ``X`` the labels belong to, a
    different number of labels is refused.
    """
    arr = np.asarray(y).ravel()
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ValueError(f"X has {n_rows} rows but y has {arr.shape[0]} labels")
    classes, indices = np.unique(arr, return_inverse=True)
    return classes, indices


def one_hot(indices: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((indices.shape[0], n_classes), dtype=np.float64)
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out
