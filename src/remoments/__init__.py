"""Entanglement detection from realignment moments of density matrices."""

from types import ModuleType as _ModuleType

from .criteria import (
    ENTANGLED,
    INCONCLUSIVE,
    AdmissibleRange,
    CriterionVerdict,
    Interval,
    admissible_range,
    discriminant,
    partial_transpose,
    ppt_verdict,
    realignment_norm_verdict,
    v1,
    v3,
    verdict_v1,
    verdict_v2,
    verdict_v3,
)
from .linalg import hermitian_eigenvalues, kron, singular_values, trace_norm
from .realign import (
    RealignSpec,
    enumerate_splits,
    moments,
    realign_bipartite,
    realign_partial,
)
from .states import (
    FAMILIES,
    DensityMatrix,
    StateValidationError,
    family_stack,
    from_json_dict,
    ghz_w,
    load_state,
    mixture,
    noisy_ghz4,
    pure_state,
    rho_d,
    rho_eps,
    rho_pq,
    sample_separable,
    save_state,
    separable_stack,
    to_json_dict,
    validate,
    validate_stack,
)

__version__ = "0.1.0"

# The public API is what the imports above bind, less the submodules they load.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
