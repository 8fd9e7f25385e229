"""The three per-proposal feature channels: HOG shape templates, Fisher
vector encodings of dense gradient patches, and ingested CNN-style vectors.
"""

from .hog import hog, hog_length
from .ifv import (
    GmmModel,
    PcaModel,
    dense_descriptors,
    descriptor_count,
    fisher_encode,
    fisher_length,
    gmm_fit,
    pca_apply,
    pca_fit,
)
from .cnn import load_cnn_features, write_cnn_features

__all__ = [
    "hog",
    "hog_length",
    "GmmModel",
    "PcaModel",
    "dense_descriptors",
    "descriptor_count",
    "fisher_encode",
    "fisher_length",
    "gmm_fit",
    "pca_apply",
    "pca_fit",
    "load_cnn_features",
    "write_cnn_features",
]
