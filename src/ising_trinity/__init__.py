"""Binary +/-1 pairwise models in three equivalent representations.

One parameter set, three stories: a network of pairwise couplings, a
latent-variable (common-cause) item-response model, and a collider
(common-effect) model conditioned on its effects.  The package computes exact
probability tables through each representation independently and verifies
that all of them agree.
"""

from ._enum import config_matrix, config_to_index, index_to_config
from .collider import (
    ColliderEffect,
    ColliderForm,
    cause_marginal_pmf,
    collider_joint,
    conditioned_pmf,
    effect_acceptance,
    simple_collider,
    spectral_to_collider,
)
from .core import (
    ModelSpec,
    Pmf,
    PmfDistance,
    curie_weiss_pmf,
    ising_log_weight,
    ising_pmf,
    pmf_distance,
    pmf_moments,
)
from .equivalence import BranchFault, EquivalenceReport, verify_representations
from .errors import (
    ConditioningTooSevereError,
    DimensionMismatchError,
    EigendecompositionError,
    EnumerationLimitError,
    IsingTrinityError,
    LineSearchError,
    QuadratureResolutionError,
    RankLimitError,
    SpecValidationError,
)
from .estimation import (
    FitResult,
    fit_pseudo_likelihood,
    full_loglik,
    pseudo_loglik,
    pseudo_loglik_grad,
    weighted_configs,
)
from .graphs import graph_dot
from .latent import (
    LatentForm,
    QuadratureRule,
    kac_identity_check,
    latent_density_cw,
    mirt_conditional,
    mirt_marginal_pmf,
    rasch_conditional,
    rasch_marginal_pmf,
)
from .sampling import (
    SampleSet,
    empirical_frequencies,
    gibbs_conditional,
    load_sample_set,
    sample_collider_rejection,
    sample_exact,
    sample_gibbs,
    sample_latent_first,
    save_sample_set,
    sidecar_path,
)
from .specfile import load_model_spec, model_spec_from_dict, model_spec_to_dict, save_model_spec
from .spectral import (
    SpectralForm,
    spectral_log_weight,
    spectral_pmf,
    to_spectral,
    truncate_spectral,
)

__version__ = "0.1.0"

__all__ = [
    "BranchFault",
    "ColliderEffect",
    "ColliderForm",
    "ConditioningTooSevereError",
    "DimensionMismatchError",
    "EigendecompositionError",
    "EnumerationLimitError",
    "EquivalenceReport",
    "FitResult",
    "IsingTrinityError",
    "LatentForm",
    "LineSearchError",
    "ModelSpec",
    "Pmf",
    "PmfDistance",
    "QuadratureResolutionError",
    "QuadratureRule",
    "RankLimitError",
    "SampleSet",
    "SpecValidationError",
    "SpectralForm",
    "cause_marginal_pmf",
    "collider_joint",
    "conditioned_pmf",
    "config_matrix",
    "config_to_index",
    "curie_weiss_pmf",
    "effect_acceptance",
    "empirical_frequencies",
    "fit_pseudo_likelihood",
    "full_loglik",
    "gibbs_conditional",
    "graph_dot",
    "index_to_config",
    "ising_log_weight",
    "ising_pmf",
    "kac_identity_check",
    "latent_density_cw",
    "load_model_spec",
    "load_sample_set",
    "mirt_conditional",
    "mirt_marginal_pmf",
    "model_spec_from_dict",
    "model_spec_to_dict",
    "pmf_distance",
    "pmf_moments",
    "pseudo_loglik",
    "pseudo_loglik_grad",
    "rasch_conditional",
    "rasch_marginal_pmf",
    "sample_collider_rejection",
    "sample_exact",
    "sample_gibbs",
    "sample_latent_first",
    "save_model_spec",
    "save_sample_set",
    "sidecar_path",
    "simple_collider",
    "spectral_log_weight",
    "spectral_pmf",
    "spectral_to_collider",
    "to_spectral",
    "truncate_spectral",
    "verify_representations",
    "weighted_configs",
]
