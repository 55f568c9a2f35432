"""rmlist: exact analysis of degree-bounded binary codes and their F_q analogues.

Truth tables, ANF, discrete derivatives, sampled weighted-majority
approximators, exact weight enumerators and list-decoding balls, low-weight
codeword families, and explicit counting bounds - all in exact integer /
Fraction arithmetic.
"""

from .boolfunc import (
    AnfPolynomial,
    CodeParams,
    FunctionTable,
    anf_to_table,
    bias,
    complement,
    degree,
    distance,
    monomial_table,
    table_to_anf,
    translate,
    weight,
)
from .derivatives import (
    BiasBoundReport,
    IdentityReport,
    check_bias_bounds,
    derive,
    single_derivative_identity,
    verify_derivative_representation,
    verify_single_derivative_exhaustive,
)
from .approximator import (
    ApproximatorParams,
    ApproxResult,
    SampledApproximator,
    approximator_table,
    build_approximator,
    sample_count,
    unique_decode_within,
)
from .enumeration import (
    BoundEstimate,
    LowerBoundFamily,
    WeightEnumerator,
    accumulative,
    accumulative_weight_bound,
    construct_low_weight_family,
    enumerate_weights,
    growth_probe,
    iter_low_weight_family,
    list_size_bound,
)
from .listdecode import (
    Ball,
    ListSizeEstimate,
    ball,
    ball_size,
    estimate_list_size,
)
from .grm import (
    BiasScalingReport,
    BiasValue,
    GrmParams,
    GrmPolynomial,
    GrmTable,
    Threshold,
    bias_scaling_scan,
    construct_grm_family,
    grm_bias,
    grm_enumerate_weights,
    grm_weight,
    weight_thresholds,
)
from .errors import (
    ApproximationFailure,
    DegenerateBiasError,
    InputError,
    InvariantFailure,
    RadiusError,
    RmlistError,
    ScaleError,
    WeightTooLargeError,
    ZeroBiasError,
)

__version__ = "0.1.0"
