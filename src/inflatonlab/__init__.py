"""inflatonlab: single-inflaton background cosmology, primordial spectra and a
finite-dimensional model of the macroscopic-probability postulate."""

__version__ = "0.1.0"

from .background import (
    BackgroundSolution,
    BackgroundState,
    classify_bigbang,
    initial_state,
    integrate,
)
from .constants import G_NEWTON
from .horizon import (
    DEFAULT_CONSTANTS,
    CosmoConstants,
    HorizonExit,
    solve_exit_general,
    solve_exit_reference,
)
from .observables import (
    SlowRollReport,
    compare_targets,
    slow_roll_functions,
    spectra_report,
)
from .perturbations import (
    GravityMode,
    ScalarMode,
    TensorMode,
    integrate_scalar,
    integrate_tensor,
    vector_mode_decay,
)
from .potential import (
    DerivedConstants,
    PotentialParams,
    derive_constants,
    potential_d1,
    potential_d2,
)
from .toymodel import (
    CharacteristicFunction,
    DensitySamples,
    ToyModel,
    characteristic_fn,
    density,
    invert_to_density,
    marginalize,
    reduce_state,
    two_level_model,
)
from .variance import (
    DecayExperiment,
    WeightFunction,
    classical_variance_00,
    covariance_matrix,
    decay_quantum_variance,
    mu_bound,
    sigma2_per_mu4,
    weight_overlap,
)
