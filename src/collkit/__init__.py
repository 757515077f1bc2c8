"""collkit: collision-operator evaluation and decay-estimate certification.

Public surface re-exported here; see the module docstrings for the math.
"""

from .core import (
    Barrier,
    KernelSpec,
    QuadratureScheme,
    VelocityField,
    cb_constant,
    make_barrier,
    weighted_sup_norm,
)
from .exceptions import (
    CapabilityError,
    CollkitError,
    ConfigurationError,
    EvaluationError,
    InfeasibleError,
    KernelRejectionError,
    RunAbortedError,
    UnsupportedParameterError,
)
from .fields import bump_field, bump_suite, gaussian_field
from .landau import LandauCoefficients, landau_coefficients, q_landau
from .boltzmann import post_collision_map, q_boltzmann_carleman, q_boltzmann_sigma
from .verify import (
    ContactConfiguration,
    ThresholdReport,
    boltzmann_delta_search,
    boltzmann_hyperplane_integral,
    boltzmann_m0_search,
    contact_estimate_check,
    landau_delta_search,
    landau_integrand_sup,
)
from .solver import GridField, RunLog, gronwall_check, homog_run, riccati_check
from .hydro import ImplosionScenario, load_catalog, scenario_verdict

__version__ = "0.1.0"
