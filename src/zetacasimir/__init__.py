"""Casimir stress-energy of a Dirichlet scalar via local zeta regularization.

Layers:

* special functions with analytic continuation (:mod:`.gammafn`,
  :mod:`.polylog`, :mod:`.hankel`, :mod:`.hurwitz`);
* the regulated parallel-plate mode sum and its oracles (:mod:`.modesum`);
* closed-form renormalized tensors and plate pressure (:mod:`.casimir`);
* a command-line surface (:mod:`.cli`).
"""

from .casimir import (
    PressureVector,
    RenormalizedCoefficients,
    TensorGrid,
    coefficient_A,
    coefficient_B,
    coefficient_B_cosine,
    milton_B,
    pressure,
    renormalized_coefficients,
    single_plate_limit_check,
    tensor_between_plates,
    tensor_grid,
    tensor_outside,
)
from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    QuadratureError,
    ZetaCasimirError,
)
from .gammafn import gamma
from .hankel import HankelResult, hankel_recip_gamma_check, polylog_hankel
from .hurwitz import hurwitz_zeta, polygamma
from .modesum import (
    EvalPoint,
    ModeSumResult,
    PlateConfig,
    Region,
    RegularizedCoefficients,
    TensorDiag,
    continuation_at_zero,
    mode_sum_bruteforce,
    radial_integral_oracle,
    region_of,
    regularized_coefficients,
    regularized_vev,
)
from .polylog import (
    polylog,
    polylog_neg_int,
    polylog_series,
    riemann_zeta,
    series_domain,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "EvalPoint",
    "HankelResult",
    "ModeSumResult",
    "PlateConfig",
    "PoleError",
    "PressureVector",
    "QuadratureError",
    "Region",
    "RegularizedCoefficients",
    "RenormalizedCoefficients",
    "TensorDiag",
    "TensorGrid",
    "ZetaCasimirError",
    "coefficient_A",
    "coefficient_B",
    "coefficient_B_cosine",
    "continuation_at_zero",
    "gamma",
    "hankel_recip_gamma_check",
    "hurwitz_zeta",
    "milton_B",
    "mode_sum_bruteforce",
    "polygamma",
    "polylog",
    "polylog_hankel",
    "polylog_neg_int",
    "polylog_series",
    "pressure",
    "radial_integral_oracle",
    "region_of",
    "regularized_coefficients",
    "regularized_vev",
    "renormalized_coefficients",
    "riemann_zeta",
    "series_domain",
    "single_plate_limit_check",
    "tensor_between_plates",
    "tensor_grid",
    "tensor_outside",
]
