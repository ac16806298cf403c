import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from borrowalk import evolution, spectral
from borrowalk.bound_states import bound_state, remove_particle, scan_conditions
from borrowalk.evolution import MAX_POWER_ENTRIES, contact_weights, projected_step
from borrowalk.lattice import Ensemble, LatticeConfig, PureState, make_basis_state, phase_grid
from borrowalk.spectral import (
    block_eigenvalues,
    momentum_block,
    momentum_bytes,
    spectrum_norms,
    survival_probability,
)

from oracles import remove_particle_reference, state_from_labels, survival_by_members

RESONANT = Fraction(2, 3)


def aligned_pair(phi) -> tuple[complex, complex]:
    """(stay, flip) = (c_0, c_2) of the pair contact coin."""
    weights = contact_weights(2, phi)
    return complex(weights[0]), complex(weights[-1])


def test_aligned_pair_amplitudes_at_resonance():
    stay, flip = aligned_pair(RESONANT)
    assert flip == pytest.approx((-3 + 1j * math.sqrt(3)) / 8, abs=1e-15)
    assert stay == pytest.approx((5 + 1j * math.sqrt(3)) / 8, abs=1e-15)
    assert stay - flip == 1.0


def test_momentum_block_structure():
    d, k = 8, 3
    stay, flip = aligned_pair(RESONANT)
    theta = 2 * math.pi * k / d
    block = momentum_block(k, d, RESONANT).matrix
    assert block[0, 0] == pytest.approx(stay * cmath.exp(-1j * theta), abs=1e-14)
    assert block[0, 1] == pytest.approx(flip * cmath.exp(-1j * theta), abs=1e-14)
    assert block[1, 0] == pytest.approx(flip * cmath.exp(1j * theta), abs=1e-14)
    assert block[1, 1] == pytest.approx(stay * cmath.exp(1j * theta), abs=1e-14)
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        momentum_block(8, 8, RESONANT)


def test_block_eigenvalues_solve_the_blocks():
    rng = np.random.default_rng(43)
    for _ in range(200):
        d = int(rng.integers(2, 30))
        k = int(rng.integers(0, d))
        phi = float(rng.uniform(1e-3, 2 * math.pi - 1e-3))
        matrix = momentum_block(k, d, phi).matrix
        ours = block_eigenvalues(k, d, phi)
        reference = np.linalg.eigvals(matrix)
        best = min(
            abs(ours[0] - reference[0]) + abs(ours[1] - reference[1]),
            abs(ours[0] - reference[1]) + abs(ours[1] - reference[0]),
        )
        assert best <= 1e-12
        trace = matrix[0, 0] + matrix[1, 1]
        determinant = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
        for lam in ours:
            assert abs(lam * lam - trace * lam + determinant) <= 1e-12


@pytest.mark.parametrize(
    "k, d, message",
    [(8, 8, "momentum index"), (-1, 8, "momentum index"), (3, 0, "ring size"), (0, -2, "ring size")],
)
def test_block_eigenvalues_refuse_the_momenta_momentum_block_refuses(k, d, message):
    for solve in (block_eigenvalues, momentum_block):
        with pytest.raises(ValueError, match=message):
            solve(k, d, RESONANT)


@pytest.mark.parametrize("phi", [1e-160, 5e-324])
def test_block_eigenvalues_where_the_flip_amplitude_vanishes(phi):
    d = 7
    for k in range(d):
        ours = block_eigenvalues(k, d, phi)
        reference = np.linalg.eigvals(momentum_block(k, d, phi).matrix)
        best = min(
            abs(ours[0] - reference[0]) + abs(ours[1] - reference[1]),
            abs(ours[0] - reference[1]) + abs(ours[1] - reference[0]),
        )
        assert best <= 1e-12
    for _, plus, minus in spectrum_norms(d, phi):
        assert plus == pytest.approx(1.0, abs=1e-12)
        assert minus == pytest.approx(1.0, abs=1e-12)


def test_branch_labels_pin_the_persistent_eigenvalues():
    for d in (6, 10, 100):
        plus0, minus0 = block_eigenvalues(0, d, RESONANT)
        assert minus0 == 1.0
        plus_half, minus_half = block_eigenvalues(d // 2, d, RESONANT)
        assert plus_half == -1.0
    plus0, minus0 = block_eigenvalues(0, 7, Fraction(3, 5))
    assert minus0 == 1.0


def test_eigenvalue_modulus_product_is_momentum_free():
    stay, flip = aligned_pair(RESONANT)
    expected = abs(stay * stay - flip * flip)
    assert expected == pytest.approx(0.5, abs=1e-15)
    for k in range(12):
        plus, minus = block_eigenvalues(k, 12, RESONANT)
        assert abs(plus) * abs(minus) == pytest.approx(expected, abs=1e-12)


def test_unit_modulus_count_follows_ring_parity():
    def unit_count(d):
        count = 0
        for k in range(d):
            for lam in block_eigenvalues(k, d, RESONANT):
                if abs(abs(lam) - 1.0) < 1e-12:
                    count += 1
        return count

    assert unit_count(10) == 2
    assert unit_count(9) == 1


@pytest.mark.parametrize("m", range(2, 9))
def test_aligned_groups_bind_only_in_ghz_coin_states(m):
    # the scan's hits are exactly the (phi, k) where the aligned sector of m
    # walkers has a unit-modulus eigenvalue, and there the eigenvector is
    # (1, +-1)/sqrt(2) on (all right, all left), the branch the scan names
    d = 6
    grid = phase_grid(720)
    scan = scan_conditions([m], grid, k_values=range(d), d=d)
    hits = {(p.phase, p.momentum_index, (p.ghz.gamma / p.ghz.beta).real) for p in scan}
    bound = set()
    for phi in grid:
        values, vectors = np.linalg.eig(spectral._pair_blocks(d, *spectral._stay_flip(m, phi)))
        for k, j in zip(*np.nonzero(np.abs(values) >= 1.0 - 1e-9)):
            beta, gamma = vectors[k, :, j]
            assert abs(abs(beta) - abs(gamma)) <= 1e-9
            sign = 1.0 if (gamma / beta).real > 0 else -1.0
            assert abs(gamma / beta - sign) <= 1e-9
            bound.add((phi, int(k), sign))
    assert hits == bound
    assert {k for _, k, _ in hits} <= {0, d // 2}
    assert len(hits) == {2: 2 * len(grid), 3: 4, 4: 4}.get(m, 0)


def test_spectrum_norms_rows():
    d = 6
    rows = spectrum_norms(d, RESONANT)
    assert len(rows) == d
    assert rows[0] == pytest.approx((0.0, 0.5, 1.0), abs=1e-12)
    assert rows[3][0] == pytest.approx(0.5)
    assert rows[3][1] == pytest.approx(1.0, abs=1e-12)
    for k_over_d, plus, minus in rows:
        assert 0 <= k_over_d < 1
        assert plus <= 1 + 1e-12 and minus <= 1 + 1e-12


def _projected_pair_matrix(d, phi) -> np.ndarray:
    cfg = LatticeConfig(2, d, phi)
    dim = 2 * d
    out = np.zeros((dim, dim), dtype=complex)
    for x in range(d):
        for ci, coin in enumerate((1, -1)):
            image = projected_step(make_basis_state(cfg, (x, x), (coin, coin)))
            for (pos, coins), amp in image.amplitudes.items():
                row = 2 * pos[0] + (0 if coins[0] == 1 else 1)
                out[row, 2 * x + ci] = amp
    return out


def _multiset_match(left, right, tol):
    remaining = list(right)
    for a in left:
        best = min(range(len(remaining)), key=lambda i: abs(a - remaining[i]))
        assert abs(a - remaining[best]) <= tol
        remaining.pop(best)


@pytest.mark.parametrize("d,phi", [(6, RESONANT), (9, RESONANT), (6, 1.3)])
def test_blocks_carry_the_projected_spectrum(d, phi):
    dense = _projected_pair_matrix(d, phi)
    dense_eigs = list(np.linalg.eigvals(dense))
    block_eigs = []
    for k in range(d):
        block_eigs.extend(block_eigenvalues(k, d, phi))
    _multiset_match(block_eigs, dense_eigs, 1e-10)


def _pair_remainder(d, phi=RESONANT, coin="identity") -> Ensemble:
    cfg = LatticeConfig(3, d, phi, free_coin=coin)
    return remove_particle(bound_state(cfg, 3))


def test_survival_routes_agree():
    ensemble = _pair_remainder(8)
    direct = survival_probability(ensemble, 60, method="direct")
    momentum = survival_probability(ensemble, 60, method="momentum")
    assert direct.values[0] == (0, pytest.approx(1.0, abs=1e-12))
    for (t1, p1), (t2, p2) in zip(direct.values, momentum.values):
        assert t1 == t2
        assert abs(p1 - p2) <= 1e-10


def test_survival_routes_agree_on_the_degenerate_ring():
    ensemble = _pair_remainder(8, phi=Fraction(1))
    direct = survival_probability(ensemble, 30, method="direct")
    momentum = survival_probability(ensemble, 30, method="momentum")
    for (_, p1), (_, p2) in zip(direct.values, momentum.values):
        assert abs(p1 - p2) <= 1e-10


# t_max + 1 a multiple of the span (3, 8, 15), one past it (1, 4, 9, 16) and
# neither (2, 299, 300), besides t_max = 0
CHUNK_EDGES = (0, 1, 2, 3, 4, 8, 9, 14, 15, 16, 299, 300)


@pytest.mark.parametrize("d", [5, 6])
@pytest.mark.parametrize("phi", [1e-6, 0.001, RESONANT, Fraction(1), 1.3, 6.2])
def test_momentum_kernel_matches_direct(phi, d):
    ensemble = _pair_remainder(d, phi)
    direct = [p for _, p in survival_probability(ensemble, max(CHUNK_EDGES), method="direct").values]
    for t_max in CHUNK_EDGES:
        momentum = survival_probability(ensemble, t_max, method="momentum").values
        assert [t for t, _ in momentum] == list(range(t_max + 1))
        assert max(abs(p - q) for (_, p), q in zip(momentum, direct)) <= 1e-12


@pytest.mark.parametrize("span", [1, 3])
def test_momentum_kernel_under_a_capped_span(monkeypatch, span):
    d = 6
    monkeypatch.setattr(spectral, "MAX_POWER_ENTRIES", span * d)
    assert spectral._momentum_span(d, 100) == span
    ensemble = _pair_remainder(d, 1.3)
    direct = survival_probability(ensemble, 100, method="direct").values
    momentum = survival_probability(ensemble, 100, method="momentum").values
    assert max(abs(p - q) for (_, p), (_, q) in zip(direct, momentum)) <= 1e-12


@pytest.mark.parametrize("d", [6, 9])
def test_survival_routes_agree_on_the_triple_remainder(d):
    triple = remove_particle(bound_state(LatticeConfig(4, d, RESONANT), 4))
    direct = survival_probability(triple, 60, method="direct").values
    momentum = survival_probability(triple, 60, method="momentum").values
    assert [t for t, _ in momentum] == [t for t, _ in direct]
    assert max(abs(p - q) for (_, p), (_, q) in zip(direct, momentum)) <= 1e-12


def _removal_mixture(n: int, coin) -> Ensemble:
    return remove_particle(bound_state(LatticeConfig(n + 1, 7, 1.3, free_coin=coin), n + 1))


def _aligned_state(cfg: LatticeConfig, seed: int) -> PureState:
    """Random amplitudes on every co-located aligned label, one of them so
    small that its squared modulus underflows to zero; walks of it are meant
    to prune at 1e-300."""
    n, d = cfg.particle_count, cfg.site_count
    rng = np.random.default_rng(seed)
    labels = {}
    for x in range(d):
        for coin in (1, -1):
            labels[((x,) * n, (coin,) * n)] = complex(rng.normal(), rng.normal())
    labels[((1,) * n, (-1,) * n)] = 1e-170j
    return state_from_labels(cfg, labels)


SU2 = (0.4, 0.7, -0.2)


# (ensemble, pruning modulus of the walks; None keeps PRUNE_EPSILON)
@pytest.mark.parametrize(
    "ensemble, prune_epsilon",
    [
        (_removal_mixture(2, "identity"), None),
        (_removal_mixture(2, "hadamard"), None),
        (_removal_mixture(3, "identity"), None),
        (_removal_mixture(3, "hadamard"), None),
        # a coarse modulus drops amplitudes the default keeps; the grouped
        # walk must prune as every member would
        (_removal_mixture(2, "identity"), 0.05),
        # one walker gets the free coin, so its two directions are walked apart
        (_removal_mixture(1, "hadamard"), None),
        (_removal_mixture(1, SU2), None),
        (remove_particle(_aligned_state(LatticeConfig(2, 6, 2.0, free_coin=SU2), 3)), 1e-300),
        (remove_particle(_aligned_state(LatticeConfig(3, 5, Fraction(4, 3), free_coin="hadamard"), 4)), 1e-300),
    ],
    ids=[*(f"removal-{i}" for i in range(4)), "coarse", "single-hadamard", "single-su2", "random-single", "random-pair"],
)
def test_grouped_direct_survival_matches_every_member_evolved(monkeypatch, ensemble, prune_epsilon):
    if prune_epsilon is not None:
        monkeypatch.setattr(evolution, "PRUNE_EPSILON", prune_epsilon)
    grouped = spectral._survival_direct(ensemble, 30)
    every = survival_by_members(ensemble, 30)
    assert [t for t, _ in grouped] == [t for t, _ in every]
    assert max(abs(p - q) for (_, p), (_, q) in zip(grouped, every)) <= 1e-13


@pytest.mark.parametrize(
    "parent",
    [
        bound_state(LatticeConfig(3, 7, RESONANT), 3),
        bound_state(LatticeConfig(4, 6, 1.3, free_coin="hadamard"), 4, r=1),
        bound_state(LatticeConfig(2, 5, 0.4), 2),
        _aligned_state(LatticeConfig(3, 6, 2.0), 1),
        _aligned_state(LatticeConfig(5, 4, Fraction(1, 3)), 2),
    ],
    ids=("pair", "triple", "single", "random-pair", "random-quadruple"),
)
def test_removal_members_match_the_member_by_member_reference(parent):
    got = remove_particle(parent).members
    want = remove_particle_reference(parent)
    assert len(got) == len(want)
    for (weight, member), (ref_weight, ref_member) in zip(got, want):
        assert weight.hex() == ref_weight.hex()
        assert member.config == ref_member.config
        assert np.array_equal(member.codes, ref_member.codes)
        assert np.array_equal(member.block.view(np.uint64), ref_member.block.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_removal_mixture_takes_one_walk(monkeypatch, n):
    # for two or more walkers the all-right and all-left remainders are
    # mirror images of each other; one walker's free coin is not, so its two
    # directions take a walk each
    calls = []

    def counted(state):
        calls.append(1)
        return projected_step(state)

    monkeypatch.setattr(spectral, "projected_step", counted)
    ensemble = remove_particle(bound_state(LatticeConfig(n + 1, 9, 1.3), n + 1))
    survival_probability(ensemble, 12, method="direct")
    assert len(calls) == (24 if n == 1 else 12)


def test_momentum_span_and_bytes_arithmetic():
    # span = isqrt(t_max + 1) while span * d fits the entry cap
    assert spectral._momentum_span(20, 800) == 28
    assert spectral._momentum_span(200, 1200) == 34
    assert spectral._momentum_span(5, 0) == 1
    # past the cap the span shrinks, down to one power per site
    assert spectral._momentum_span(4000, 10**6) == MAX_POWER_ENTRIES // 4000
    assert spectral._momentum_span(MAX_POWER_ENTRIES + 1, 10**6) == 1
    site, row = spectral._SITE_BYTES, spectral._ROW_BYTES
    assert momentum_bytes(20, 800) == 28 * 20 * 160 + 20 * site + 801 * row
    # linear in t_max once the span is capped, so memory stays O(d + t_max)
    d = 4000
    step = momentum_bytes(d, 2 * 10**6) - momentum_bytes(d, 10**6)
    assert step == 10**6 * row


def test_survival_first_step_drop_is_five_eighths():
    series = survival_probability(_pair_remainder(10), 1, method="momentum")
    assert series.values[1][1] == pytest.approx(0.625, abs=1e-12)


def test_survival_floor_is_one_over_d():
    d = 10
    series = survival_probability(_pair_remainder(d), 2000, method="momentum")
    values = [p for _, p in series.values]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] >= 1.0 / d - 1e-9
    assert values[-1] == pytest.approx(1.0 / d, abs=1e-3)


def test_survival_of_the_triple_remainder_decays():
    cfg = LatticeConfig(4, 12, RESONANT)
    ensemble = remove_particle(bound_state(cfg, 4))
    series = survival_probability(ensemble, 60, method="direct")
    values = [p for _, p in series.values]
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] < 0.2


def test_survival_series_metadata():
    series = survival_probability(_pair_remainder(6), 3, method="direct")
    assert series.site_count == 6
    assert series.arity == 2
    assert series.phase == RESONANT
    assert [t for t, _ in series.values] == [0, 1, 2, 3]


def test_survival_rejects_bad_requests():
    ensemble = _pair_remainder(6)
    with pytest.raises(ValueError):
        survival_probability(ensemble, -1)
    with pytest.raises(ValueError):
        survival_probability(ensemble, 5, method="exact")
    hadamard = _pair_remainder(6, coin="hadamard")
    with pytest.raises(ValueError):
        survival_probability(hadamard, 5, method="momentum")
    lopsided = Ensemble(LatticeConfig(2, 6, RESONANT), [0, 0], [0, 3], [0.5, 0.5])
    with pytest.raises(ValueError):
        survival_probability(lopsided, 5, method="momentum")


# the uniform removal mixture of the pair on four sites, member by member as
# (position code, coin column, weight): LL then RR on each site
_CFG = LatticeConfig(2, 4, RESONANT)
_UNIFORM = [(5 * x, col, 1 / 8) for x in range(4) for col in (3, 0)]


def _mixture(members) -> Ensemble:
    codes, cols, weights = zip(*members)
    return Ensemble(_CFG, codes, cols, weights)


def _replaced(changes: dict) -> list:
    return [changes.get(i, member) for i, member in enumerate(_UNIFORM)]


MALFORMED = {
    # refused by the Ensemble constructor: sites (1, 2), and coins RL
    "scattered": (_replaced({3: (6, 0, 1 / 8)}), "co-located aligned"),
    "unaligned": (_replaced({3: (5, 1, 1 / 8)}), "co-located aligned"),
    "weight": (_replaced({5: (10, 0, 0.2)}), "uniform weights"),
    # a weight fault is named before a slot fault
    "weight first": (_replaced({1: (0, 0, 0.2), 4: _UNIFORM[0]}), "uniform weights"),
    "missing": (_UNIFORM[:-1], "one member per site"),
    "duplicate": (_replaced({7: _UNIFORM[6]}), "one member per site"),
    "extra": (_UNIFORM + _UNIFORM[:1], "one member per site"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_momentum_survival_refuses_malformed_mixtures(case):
    members, message = MALFORMED[case]
    with pytest.raises(ValueError, match=message):
        survival_probability(_mixture(members), 5, method="momentum")


def test_the_uniform_mixture_built_member_by_member_passes():
    members = _mixture(_UNIFORM)
    arrays = remove_particle(bound_state(LatticeConfig(3, 4, RESONANT), 3))
    assert survival_probability(members, 9, method="momentum").values == survival_probability(
        arrays, 9, method="momentum"
    ).values
