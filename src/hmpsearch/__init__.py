"""Layered sparse-coding image retrieval.

Codebooks are learned from image patches, images become unit-norm sparse
descriptors through stacked coding and pooling layers, and an inverted file
ranks the corpus by cosine similarity. See the README for the CLI workflow.
"""

from .coding import (
    Dictionary,
    l2_normalize,
    load_dictionary,
    omp_encode_batch,
    save_dictionary,
    vq_encode_batch,
)
from .dictionary import init_dictionary, train
from .encoder import (
    ArchitectureConfig,
    FeatureGrid,
    ImageDescriptor,
    LayerConfig,
    baseline_architecture,
    encode_image,
    encode_image_bof,
    encode_layer,
    layer_inputs,
    load_architecture,
    load_descriptor,
    pyramid_pool,
    save_descriptor,
    signed_max_pool,
)
from .errors import (
    ConfigError,
    DecodeError,
    HmpError,
    ImageTooSmallError,
    InvalidInputError,
)
from .evaluation import EvalReport, average_precision, evaluate, load_ground_truth, write_report
from .images import (
    IntensityImage,
    extract_patches,
    load_image,
    read_manifest,
    resize_max_side,
)
from .index import (
    InvertedIndex,
    apply_idf,
    build_index,
    exhaustive_scan,
    load_index,
    query,
    save_index,
)

__version__ = "0.1.0"
