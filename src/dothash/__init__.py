"""Set-similarity sketching with exact oracles, error bounds, and benchmarks."""

from .bounds import (
    BoundsQuery,
    chebyshev_tail,
    clt_tail,
    normal_cdf,
    normal_ppf,
    required_dims,
    variance,
)
from .encoding import Codebook, MinwiseFamily, element_id, splitmix64
from .exact import (
    SortedSet,
    exact_intersection,
    exact_jaccard,
    exact_weighted,
    sparse_basis_intersection,
)
from .sketches import (
    DotHashSketch,
    MinHashSketch,
    SimHashSketch,
    WeightFn,
    WeightKind,
    dothash_build,
    dothash_build_many,
    dothash_intersection,
    dothash_jaccard,
    minhash_build,
    minhash_jaccard,
    read_sketch,
    simhash_build,
    simhash_similarity,
    sketch_to_json,
    write_sketch,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsQuery",
    "Codebook",
    "DotHashSketch",
    "MinHashSketch",
    "MinwiseFamily",
    "SimHashSketch",
    "SortedSet",
    "WeightFn",
    "WeightKind",
    "chebyshev_tail",
    "clt_tail",
    "dothash_build",
    "dothash_build_many",
    "dothash_intersection",
    "dothash_jaccard",
    "element_id",
    "exact_intersection",
    "exact_jaccard",
    "exact_weighted",
    "minhash_build",
    "minhash_jaccard",
    "normal_cdf",
    "normal_ppf",
    "read_sketch",
    "required_dims",
    "simhash_build",
    "simhash_similarity",
    "sketch_to_json",
    "sparse_basis_intersection",
    "splitmix64",
    "variance",
    "write_sketch",
]
