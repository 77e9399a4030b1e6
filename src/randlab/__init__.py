"""randlab: an exact desk-scale laboratory for randomization isometry groups.

The library models measure-preserving maps of [0,1) at dyadic resolution,
step functions into base isometry groups, and the semidirect product that
acts on random points, with every metric computed in exact rational
arithmetic.  On top of that sit Rokhlin towers, periodic approximation,
and the constructive conjugator synthesis used by the density experiments.
"""

from .dyadic import (
    DyadicMPT,
    DyadicSet,
    TowerData,
    delta_u,
    delta_u_prime,
    delta_w,
    mpt_conjugate_match,
    periodic_approximation,
    rokhlin_tower,
)
from .groups import (
    E,
    GenericSurrogate,
    OrbitalReport,
    PLOrderAut,
    WindowPerm,
    cycle_pack,
    generic_surrogate,
    orbitals_and_signs,
    power_cycle_type,
    power_invariance_check,
)
from .spaces import (
    FiniteMetricSpace,
    SpaceIsometry,
    discrete_space,
    isometry_group,
    metric_space,
)
from .stepfn import (
    StepFn,
    constant_generic_conjugator,
    dhat,
    l0_mul,
    lsc_probe,
)
from .synthesis import (
    MetricSynthesisTask,
    SynthesisTask,
    approx_conjugate_constant,
    conjugate_into_neighborhood,
    synthesize_conjugator,
    synthesize_conjugator_metric,
)
from .tilde import (
    ProductNbhd,
    TildeElement,
    lu_bounds,
    lu_estimate,
    lu_exact_discrete,
    pointwise_metric,
    tilde_act,
    tilde_identity,
)

__version__ = "0.1.0"
