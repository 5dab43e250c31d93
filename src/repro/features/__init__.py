"""Feature pipeline: spatial tiling, temporal compression, feature extraction.

Implements Sec. 3.2 and 3.3 of the paper: the spatial compression of the PDN
into an ``m x n`` tile array, Algorithm 1's temporal compression of the
current vector, and the two-feature extraction (load-current maps and
distance-to-bump tensor) together with the normalisation applied before the
CNN.
"""

from repro.features.spatial import (
    load_current_maps,
    tile_incidence_matrix,
)
from repro.features.temporal import (
    TemporalCompressionResult,
    compress_current_maps,
)
from repro.features.extraction import (
    FeatureNormalizer,
    VectorFeatures,
    current_summary_maps,
    distance_feature,
    extract_vector_features,
    fit_normalizer,
    normalized_distance_feature,
)

__all__ = [
    "load_current_maps",
    "tile_incidence_matrix",
    "TemporalCompressionResult",
    "compress_current_maps",
    "FeatureNormalizer",
    "VectorFeatures",
    "current_summary_maps",
    "distance_feature",
    "extract_vector_features",
    "fit_normalizer",
    "normalized_distance_feature",
]
