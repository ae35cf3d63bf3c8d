"""EM algorithm laboratory for the symmetric two-component Gaussian mixture.

The model is (1/2) N(theta, I_d) + (1/2) N(-theta, I_d). The package bundles
the finite-sample EM iteration, its infinite-sample (population) dynamics
evaluated by quadrature, probes of the sample-population deviation, and a
Monte Carlo harness that measures the statistical rates of the final EM
iterate at desk scale.
"""

from .deviation import (
    DeviationProbe,
    ProbeGrid,
    default_probe_grid,
    population_map_ddim,
    relative_lipschitz_probe,
    tanh_sup_ratio,
    w1_squared_empirical,
)
from .experiments import (
    ContractionProbe,
    ExperimentConfig,
    ExperimentResult,
    Figure2Result,
    RiskComparison,
    Row,
    SlopeSummary,
    SublinearProbe,
    figure2_reproduction,
    fit_loglog_slope,
    mle_contraction_probe,
    rate_sweep,
    risk_compare,
    sublinear_rate_probe,
)
from .initializers import InitSpec, make_init, random_sphere_init, spectral_init
from .model import (
    Dataset,
    ModelSpec,
    chi2_to_standard,
    grad_log_likelihood,
    log_likelihood,
    logcosh,
    loss,
    sample_dataset,
)
from .population import (
    F_pop,
    G_pop,
    PopulationState,
    QuadratureRule,
    build_rule,
    default_rule,
    f_pop,
    invert_q,
    population_trajectory,
    q_pop,
    sandwich_sequences,
)
from .rng import derive_seed, make_generator, open_uniforms, standard_normals
from .sample_em import (
    StopReason,
    StopRule,
    Trajectory,
    em_jacobian,
    em_map,
    em_map_batch,
    iterate_em,
    run_em,
)

__version__ = "0.1.0"
