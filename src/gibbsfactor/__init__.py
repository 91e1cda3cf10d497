"""Projections of one-step Markov measures under one-block factor maps.

Build a Markov source and a letter-to-letter projection, check the fiber-row
and cycle-positivity hypotheses, evaluate the induced potential with
certified error radii, and probe the Gibbs property of the image measure
empirically.
"""

from .errors import (
    AdmissibilityError,
    CertificationError,
    EvaluationRefused,
    FiberMismatchError,
    GibbsFactorError,
    ModelError,
)
from .gibbs import BgiReport, BgiRow, InvarianceReport, bgi_sweep, invariance_suite
from .markov import (
    MarkovModel,
    RangeTwoPotential,
    cylinder_measure,
    derive_potential,
    log_cylinder_measure,
    stationary_distribution,
)
from .models import (
    EXAMPLES,
    example_system,
    expand_example,
    load_model,
    parse_model,
)
from .potential import (
    HolderReport,
    ObstructionReport,
    PerronData,
    PointSpec,
    PotentialEvaluation,
    UniformConstants,
    canonical_extension,
    eigendata_many,
    evaluate,
    evaluate_many,
    finite_range_obstruction,
    holder_variation,
    markov_approx,
    periodic_many,
    periodic_potential,
    perron_data,
    tail_completions,
    uniform_constants,
)
from .projection import (
    FactorSystem,
    H1Report,
    H2Report,
    Projection,
    build_factor_system,
    check_h1,
    check_h2,
    check_topological_markov,
    log_nu_cylinder,
    nu_cylinder,
    nu_preimage_sum,
    preimage_words,
)
from .projective import (
    SimplexPoint,
    apply_normalized,
    contraction_coefficient,
    is_row_allowable,
    projective_distance,
)
from .tmc import (
    Alphabet,
    PeriodicPoint,
    Tmc,
    Word,
    check_primitivity,
    enumerate_periodic,
    enumerate_words,
    pattern_primitivity,
)

__version__ = "0.1.0"

# the README's Library entry points, then the classes a caller names to use
# them, then the error classes; every other name above stays importable
__all__ = [
    "load_model",
    "example_system",
    "build_factor_system",
    "check_h1",
    "check_h2",
    "check_topological_markov",
    "nu_cylinder",
    "markov_approx",
    "evaluate_many",
    "evaluate",
    "eigendata_many",
    "periodic_many",
    "periodic_potential",
    "uniform_constants",
    "holder_variation",
    "finite_range_obstruction",
    "bgi_sweep",
    "invariance_suite",
    "projective_distance",
    "contraction_coefficient",
    "Alphabet",
    "Tmc",
    "MarkovModel",
    "Projection",
    "FactorSystem",
    "PointSpec",
    "UniformConstants",
    "SimplexPoint",
    "GibbsFactorError",
    "ModelError",
    "AdmissibilityError",
    "FiberMismatchError",
    "CertificationError",
    "EvaluationRefused",
]
