"""greenband: quasiseparable (Green) generator representations of inverses of
banded matrices.

The inverse of an invertible lower banded matrix of order r is a lower Green
matrix of order r (Asplund's theorem): every submatrix below the (r-1)-th
superdiagonal has rank at most r.  This package computes generator
parameters for that rank-structured part directly from a structured QR or an
unpivoted structured LU factorization, in O(n r^2) arithmetic for two-sided
banded input, and verifies them against a dense oracle at desk scale.
"""

from .banded import (
    BandedMatrix,
    prescribed_condition_band,
    random_band,
    read_matrix,
    write_matrix,
)
from .bench import BenchRecord, SlopeFit, run_bench, run_example, slope_fit, write_bench_csv
from .dense_oracle import dense_invert, numerical_rank
from .errors import BandPatternError, SingularMatrixError, ZeroPivotError
from .generators import (
    GreenGenerators,
    check_green_rank,
    covered_relative_error,
    entry,
    identity_residual,
    multiply_upper_triangular,
    read_generators,
    reconstruct_structured,
    tail_stacks,
    write_generators,
)
from .lu import (
    LuFactorization,
    elementary_factors_from_entrywise,
    invert_lower_band_lu,
    invert_two_sided_lu,
    lu_factor_lower_band,
)
from .qr import (
    QrFactorization,
    invert_lower_band_qr,
    invert_two_sided_qr,
    qr_factor_lower_band,
)
from .transforms import (
    TransformProduct,
    expand_transform_product,
    generators_from_transforms,
    transforms_from_generators,
)

__version__ = "0.1.0"

__all__ = [
    "BandedMatrix",
    "BenchRecord",
    "BandPatternError",
    "GreenGenerators",
    "LuFactorization",
    "QrFactorization",
    "SingularMatrixError",
    "SlopeFit",
    "TransformProduct",
    "ZeroPivotError",
    "check_green_rank",
    "covered_relative_error",
    "dense_invert",
    "elementary_factors_from_entrywise",
    "entry",
    "expand_transform_product",
    "generators_from_transforms",
    "identity_residual",
    "invert_lower_band_lu",
    "invert_lower_band_qr",
    "invert_two_sided_lu",
    "invert_two_sided_qr",
    "lu_factor_lower_band",
    "multiply_upper_triangular",
    "numerical_rank",
    "prescribed_condition_band",
    "qr_factor_lower_band",
    "random_band",
    "read_generators",
    "read_matrix",
    "reconstruct_structured",
    "run_bench",
    "run_example",
    "slope_fit",
    "tail_stacks",
    "transforms_from_generators",
    "write_bench_csv",
    "write_generators",
    "write_matrix",
]
