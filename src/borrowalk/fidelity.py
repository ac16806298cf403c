"""Persistence of the three-particle bound state under the projected walk.

A trimer launched on the co-located aligned manifold stays there with a
probability that factorizes per step, so the fidelity with the initial state
admits a closed form in the interaction phase.  The numeric trajectory from
the sparse projected step is kept as an independent route.
"""

from __future__ import annotations

from .bound_states import bound_state
from .evolution import projected_step
from .lattice import LatticeConfig, check_phase, inner_product, phase_factor, phase_radians


def _persistence_rate(phi) -> float:
    """|(e^{3i phi} + 3)/4|, the trimer's amplitude to stay put over one step."""
    check_phase(phi)
    return abs((phase_factor(phi, 3) + 3.0) / 4.0)


def persistence_closed(phi, t: int) -> float:
    """Fidelity of the trimer with itself after t projected steps."""
    if t < 0:
        raise ValueError("step count must be non-negative")
    return _persistence_rate(phi) ** (2 * t)


def persistence_trajectory(phi, t_max: int, d: int = 8) -> list[float]:
    """Fidelities for t = 0 .. t_max computed with the sparse projected step.

    The result does not depend on d; the ring size only has to hold the walk.
    """
    if t_max < 0:
        raise ValueError("step count must be non-negative")
    config = LatticeConfig(particle_count=3, site_count=d, interaction_phase=phi)
    initial = bound_state(config, 3)
    current = initial
    values = [abs(inner_product(initial, current)) ** 2]
    for _ in range(t_max):
        current = projected_step(current)
        values.append(abs(inner_product(initial, current)) ** 2)
    return values


def persistence_numeric(phi, t: int, d: int = 8) -> float:
    return persistence_trajectory(phi, t, d)[t]


def fidelity_sweep(phases, t_values) -> list[tuple[float, int, float]]:
    """Rows (phase in radians, t, closed-form fidelity) over a phase grid."""
    steps = sorted(set(int(t) for t in t_values))
    if steps and steps[0] < 0:
        raise ValueError("step counts must be non-negative")

    rows: list[tuple[float, int, float]] = []
    for phi in phases:
        rate = _persistence_rate(phi)
        radians = phase_radians(phi)
        rows.extend((radians, t, rate ** (2 * t)) for t in steps)
    return rows
