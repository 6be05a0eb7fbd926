"""Numpy-only ML substrate: the models and transforms the pipelines use.

Importing it runs every BLAS call of the process on the calling thread
(:func:`repro.ml.blas.one_blas_thread`), unless the environment sets a
BLAS thread count.
"""

from .base import Classifier, Estimator, Transformer
from .boosting import AdaBoostClassifier, DecisionStump
from .distributed import DistributedTrainer, TrainingTrace, pipeline_speedup
from .embeddings import WordEmbedder, cooccurrence_matrix, ppmi_matrix
from .hmm import GaussianHMM
from .linear import BinaryLogisticRegression, LogisticRegression, RidgeRegression
from .metrics import (
    accuracy,
    confusion_matrix,
    f1_score,
    log_loss,
    mse,
    roc_auc,
    score_from_metric,
)
from .mlp import MLPClassifier
from .preprocess import (
    MeanImputer,
    MinMaxScaler,
    ModeImputer,
    OneHotEncoder,
    StandardScaler,
)
from .text import Vocabulary, tokenize
from .utils import minibatches, resolve_rng, train_test_split
from .zernike import ZernikeExtractor

# After the imports above: numpy's and scipy's OpenBLAS are both mapped
# now (``embeddings`` imports scipy).
from .blas import one_blas_thread

one_blas_thread()

__all__ = [
    "Classifier", "Estimator", "Transformer",
    "AdaBoostClassifier", "DecisionStump",
    "DistributedTrainer", "TrainingTrace", "pipeline_speedup",
    "WordEmbedder", "cooccurrence_matrix", "ppmi_matrix",
    "GaussianHMM",
    "BinaryLogisticRegression", "LogisticRegression", "RidgeRegression",
    "accuracy", "confusion_matrix", "f1_score", "log_loss", "mse", "roc_auc",
    "score_from_metric",
    "MLPClassifier",
    "MeanImputer", "MinMaxScaler", "ModeImputer", "OneHotEncoder", "StandardScaler",
    "Vocabulary", "tokenize",
    "minibatches", "resolve_rng", "train_test_split",
    "ZernikeExtractor",
]
