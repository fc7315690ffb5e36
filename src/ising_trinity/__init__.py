"""Binary +/-1 pairwise models in three equivalent representations.

One parameter set, three stories: a network of pairwise couplings, a
latent-variable (common-cause) item-response model, and a collider
(common-effect) model conditioned on its effects.  The package computes exact
probability tables through each representation independently and verifies
that all of them agree.
"""

from .collider import (
    ColliderForm,
    cause_marginal_pmf,
    conditioned_pmf,
    simple_collider,
    spectral_to_collider,
)
from .core import (
    ModelSpec,
    Pmf,
    PmfDistance,
    curie_weiss_pmf,
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
    pseudo_loglik,
    pseudo_loglik_grad,
)
from .graphs import graph_dot
from .latent import (
    LatentForm,
    QuadratureRule,
    kac_identity_check,
    mirt_marginal_pmf,
    rasch_marginal_pmf,
)
from .sampling import (
    SampleSet,
    empirical_frequencies,
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
    spectral_pmf,
    to_spectral,
    truncate_spectral,
)

__version__ = "0.1.0"

__all__ = [
    "BranchFault",
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
    "conditioned_pmf",
    "curie_weiss_pmf",
    "empirical_frequencies",
    "fit_pseudo_likelihood",
    "graph_dot",
    "ising_pmf",
    "kac_identity_check",
    "load_model_spec",
    "load_sample_set",
    "mirt_marginal_pmf",
    "model_spec_from_dict",
    "model_spec_to_dict",
    "pmf_distance",
    "pmf_moments",
    "pseudo_loglik",
    "pseudo_loglik_grad",
    "rasch_marginal_pmf",
    "sample_collider_rejection",
    "sample_exact",
    "sample_gibbs",
    "sample_latent_first",
    "save_model_spec",
    "save_sample_set",
    "sidecar_path",
    "simple_collider",
    "spectral_pmf",
    "spectral_to_collider",
    "to_spectral",
    "truncate_spectral",
    "verify_representations",
]
