"""Interacting discrete-time quantum walks on a ring.

Co-located particles are coined collectively by a one-parameter contact
interaction, which binds pairs, triples and quadruples into multiplets that
travel as one.  The triple and quadruple dissolve when any single particle is
removed; the toolkit builds those states, certifies them against the step
operator, tracks the decay of the remainder, and computes exact
composite-boson normalization constants for stacks of multiplets.

The package exports what a first walk needs; everything else is imported
from its module (see the README's module table).
"""

from .bound_states import bound_state, remove_particle, verify_eigenstate
from .lattice import LatticeConfig, parse_phase
from .spectral import survival_probability

__version__ = "0.1.0"

__all__ = [
    "LatticeConfig",
    "bound_state",
    "parse_phase",
    "remove_particle",
    "survival_probability",
    "verify_eigenstate",
]
