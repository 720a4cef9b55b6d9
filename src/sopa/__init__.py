"""Soft surface patterns: learnable weighted automata for text classification."""

from sopa.automata import (MatchStep, MatchTrace, PatternParams, PatternSetConfig,
                           parse_pattern_spec, score_document, trace_best_match)
from sopa.classifier import (MlpParams, ModelBundle, TrainConfig, TrainingDiverged,
                             count_parameters, evaluate, forward_logits, load_model,
                             random_search, save_model, train)
from sopa.embeddings import (EmbeddingMatrix, TokenizedDocument, Vocabulary,
                             load_embeddings, read_dataset, tokenize_and_encode)
from sopa.semiring import (MAX_PRODUCT, MAX_SUM, SUM_PRODUCT, Semiring,
                           get_semiring)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingMatrix", "MatchStep", "MatchTrace", "MlpParams", "ModelBundle",
    "PatternParams", "PatternSetConfig", "Semiring", "TokenizedDocument",
    "TrainConfig", "TrainingDiverged", "Vocabulary", "count_parameters",
    "evaluate", "forward_logits", "get_semiring",
    "load_embeddings", "load_model", "parse_pattern_spec", "random_search",
    "read_dataset", "save_model", "score_document", "tokenize_and_encode",
    "trace_best_match", "train", "MAX_PRODUCT", "MAX_SUM", "SUM_PRODUCT",
    "__version__",
]
