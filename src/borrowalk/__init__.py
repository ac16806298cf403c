"""Interacting discrete-time quantum walks on a ring.

Co-located particles are coined collectively by a one-parameter contact
interaction, which binds pairs, triples and quadruples into multiplets that
travel as one.  The triple and quadruple dissolve when any single particle is
removed; the toolkit builds those states, certifies them against the step
operator, tracks the decay of the remainder, and computes exact
composite-boson normalization constants for stacks of multiplets.
"""

from .bound_states import (
    ConditionPoint,
    EigenReport,
    GhzSpec,
    bound_state,
    ghz_coin,
    ghz_condition,
    ghz_condition_closed,
    refine_condition_peak,
    remove_particle,
    scan_conditions,
    verify_eigenstate,
)
from .cobosons import (
    CobosonReport,
    b2_closed,
    coboson_norm,
    coboson_report,
    depleted_norm,
    norm_table,
    power_sum_norm_sq,
    ratio_approx,
)
from .evolution import (
    apply_interaction,
    apply_shift,
    contact_weights,
    free_coin_matrix,
    interaction_group_matrix,
    projected_step,
    step,
)
from .fidelity import (
    fidelity_sweep,
    persistence_closed,
    persistence_numeric,
    persistence_trajectory,
)
from .lattice import (
    LEFT,
    RIGHT,
    Ensemble,
    LatticeConfig,
    PureState,
    as_coin,
    check_phase,
    coin_char,
    ensemble_overlap,
    inner_product,
    make_basis_state,
    parse_phase,
    phase_factor,
    phase_grid,
    phase_radians,
    state_json_entries,
    turn_table,
)
from .spectral import (
    MomentumBlock,
    SurvivalSeries,
    block_eigenvalues,
    momentum_block,
    spectrum_norms,
    survival_probability,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionPoint",
    "CobosonReport",
    "EigenReport",
    "Ensemble",
    "GhzSpec",
    "LEFT",
    "LatticeConfig",
    "MomentumBlock",
    "PureState",
    "RIGHT",
    "SurvivalSeries",
    "apply_interaction",
    "apply_shift",
    "as_coin",
    "b2_closed",
    "block_eigenvalues",
    "bound_state",
    "check_phase",
    "coboson_norm",
    "coboson_report",
    "coin_char",
    "contact_weights",
    "depleted_norm",
    "ensemble_overlap",
    "fidelity_sweep",
    "free_coin_matrix",
    "ghz_coin",
    "ghz_condition",
    "ghz_condition_closed",
    "inner_product",
    "interaction_group_matrix",
    "make_basis_state",
    "momentum_block",
    "norm_table",
    "parse_phase",
    "persistence_closed",
    "persistence_numeric",
    "persistence_trajectory",
    "phase_factor",
    "phase_grid",
    "phase_radians",
    "power_sum_norm_sq",
    "projected_step",
    "ratio_approx",
    "refine_condition_peak",
    "remove_particle",
    "scan_conditions",
    "spectrum_norms",
    "state_json_entries",
    "step",
    "survival_probability",
    "turn_table",
    "verify_eigenstate",
]
