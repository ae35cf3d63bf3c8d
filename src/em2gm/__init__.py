"""EM algorithm laboratory for the symmetric two-component Gaussian mixture.

The model is (1/2) N(theta, I_d) + (1/2) N(-theta, I_d). The package bundles
the finite-sample EM iteration, its infinite-sample (population) dynamics
evaluated by quadrature, probes of the sample-population deviation, and a
Monte Carlo harness that measures the statistical rates of the final EM
iterate at desk scale. Import the submodules (em2gm.model, em2gm.sample_em,
em2gm.experiments, ...) for their contents.
"""

# perfbench's tracer patches the package namespace as well as the modules,
# and its test checks this one re-export
from .sample_em import iterate_em

__version__ = "0.1.0"
