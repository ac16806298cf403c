"""Every size limit, size model and size refusal: a request is sized from its
arguments and refused, with a ValueError, before any work starts."""

from __future__ import annotations

from math import lgamma, log

from .evolution import _PATTERN_CACHE, MAX_CONTACT_ARITY
from .spectral import _momentum_span

# Bytes one request may hold at once
MAX_WALK_BYTES = 1 << 30

# Largest squared norm, in bits, and largest N^2 * bits a coboson request may
# reach: the series does about N^2 / 2 products of such integers, and past
# about 2**16 bits a product costs more than its bits (N = 45 at 2**20 bits
# took 18 s).  Near the edges, on a 2-CPU box, N = 400, c = 3 (10,900 bits)
# takes 1.1 s and N = 181, c = 28 (55,000 bits) 2.5 s.
MAX_NORM_BITS = 1 << 16
MAX_SERIES_WORK = 1 << 31

# Byte counts below are traced peaks rounded up, tables written as JSON.
# Per grid phase of a scan or a fidelity sweep: its Fraction, and radians.
_PHASE_BYTES = 256
# Per output row and its text: about 450 bytes for fidelity, 370 for survival.
_ROW_BYTES = 512
# scan_bytes per phase and contact term, and per hit (see scan_bytes)
_SCAN_TERM_BYTES = 128
_SCAN_HIT_BYTES = 1024
# spectrum_bytes per momentum sector: 566 bytes per sector at d = 64000
_SPECTRUM_SECTOR_BYTES = 1024
# Survival per site: the bound state, its two mixture members and any block
# entries; for pair and triple, 1.4 and 1.7 KiB by momentum, 0.4 and 0.53 direct.
_SITE_BYTES = 2048
# walk_text_bytes per amplitude entry and per walker in it: 165 to 263 bytes
# an entry for 1 to 4 walkers, about 33 more per walker
_TEXT_ENTRY_BYTES = 128
_TEXT_WALKER_BYTES = 64


def walk_rows(n: int, d: int, steps: int, projected: bool = False) -> int:
    """Most position codes a walk started on one code holds within `steps` steps.

    Each walker moves one site per step, so after t steps it is on one of
    t + 1 sites.  On an even ring those sites share one parity, so at most
    d // 2 of them are distinct.  A projected step coins and moves co-located
    codes only, so a projected walk holds at most one code per reachable site.
    """
    reach = min(d if d % 2 else d // 2, steps + 1)
    return reach if projected else reach**n


def walk_bytes(n: int, rows: int) -> int:
    """Bytes a walk of n walkers holds at most while it spans `rows` position codes.

    Per coin-block entry a step holds the block before and after the coin
    stage and after the shift (complex, 16 bytes each) and a shifted code
    (int64).  Per walker count, the contact coin of n co-located walkers is
    gathered into a complex 4**n matrix through a table of coin XORs and
    one of their popcounts (at most 2 and 1 bytes an entry for n <= 16), and
    the coin stage caches up to _PATTERN_CACHE complex 4**n pattern matrices.
    """
    dim = 1 << n
    return rows * dim * (3 * 16 + 8) + dim * dim * (3 + (1 + _PATTERN_CACHE) * 16)


def walk_text_bytes(n: int, rows: int, steps: int, projected: bool = False) -> int:
    """Bytes of JSON text a walk of n walkers writes at most over `steps`
    steps while it spans `rows` position codes: steps + 1 snapshots of rows
    times 2**n coin columns, or 2 (all right, all left) on a projected walk."""
    columns = 2 if projected else 1 << n
    return (steps + 1) * rows * columns * (_TEXT_ENTRY_BYTES + n * _TEXT_WALKER_BYTES)


def scan_bytes(grid: int, arities) -> int:
    """Bytes an alignment scan over a grid of `grid` phases holds at most.

    Per phase: its Fraction.  Per phase and contact term (m + 1 of them for
    arity m): the phase tables and running sums of contact_parts.  Per phase and
    arity: up to four hits (two branch signs, two momenta), each a
    ConditionPoint with its output row and printed text.
    """
    arities = list(arities)
    return grid * (_PHASE_BYTES + sum(m + 1 for m in arities) * _SCAN_TERM_BYTES
                   + len(arities) * 4 * _SCAN_HIT_BYTES)


def spectrum_bytes(d: int) -> int:
    """Bytes a spectrum over d momentum sectors holds at most: per sector, the
    momentum, the turn table and the complex roots, the output row and its
    printed text."""
    return d * _SPECTRUM_SECTOR_BYTES


def fidelity_bytes(grid: int, t_count: int) -> int:
    """Bytes a fidelity sweep over a grid of `grid` phases by `t_count` step
    counts holds at most: per phase, its Fraction and radians; per output
    row, the (phi, t, p) tuple and its printed text."""
    return grid * (_PHASE_BYTES + t_count * _ROW_BYTES)


def momentum_bytes(d: int, t_max: int) -> int:
    """Bytes the momentum route over d sites up to t_max holds at most.

    Per stacked entry (span * d of them): four complex powers, four complex
    products and two complex temporaries.  Per site: the site's two mixture
    members and a dozen complex block entries.  Per output row: the float
    totals, the (t, p) tuple and its printed line.
    """
    span = _momentum_span(d, t_max)
    return span * d * 10 * 16 + d * _SITE_BYTES + (t_max + 1) * _ROW_BYTES


def norm_bits(composites: int, d: int, constituents: int) -> float:
    """Upper bound on log2 h_N for N = composites over 2d modes, from lgamma.

    h_N sums over at most C(N + 2d - 1, N) occupations n_i, each weighing
    (N!/prod n_i!)^2 prod (c n_i)! <= (cN)! for c >= 2.
    """
    modes = 2 * d
    return (
        lgamma(composites + modes) - lgamma(composites + 1) - lgamma(modes) + lgamma(constituents * composites + 1)
    ) / log(2)


def require_bytes_fit(need: int, request: str) -> None:
    """Refuse a request that would hold more than MAX_WALK_BYTES."""
    if need > MAX_WALK_BYTES:
        raise ValueError(
            f"{request} would hold about {need >> 20} MiB, more than the {MAX_WALK_BYTES >> 20} MiB limit"
        )


def require_walk_fits(n: int, rows: int) -> None:
    """Refuse a walk whose walk_bytes exceed MAX_WALK_BYTES."""
    require_bytes_fit(walk_bytes(n, rows), f"{n} walkers over up to {rows} position codes")


def require_scan_fits(grid: int, arities) -> None:
    """Refuse a scan with an arity the contact kernel does not serve, or whose
    scan_bytes exceed MAX_WALK_BYTES."""
    arities = list(arities)
    for m in arities:
        if not 2 <= m <= MAX_CONTACT_ARITY:
            raise ValueError(f"the alignment scan takes 2 to {MAX_CONTACT_ARITY} walkers, not {m}")
    require_bytes_fit(scan_bytes(grid, arities), f"an alignment scan of {grid} phases")


def require_survival_fits(n: int, d: int, t_max: int, method: str) -> None:
    """Refuse a survival request of n walkers over d sites up to t_max past the
    limit: momentum_bytes on the momentum route; on the direct route, its walk
    and the sites (bound state and mixture) and output rows momentum_bytes counts."""
    if method == "momentum":
        need = momentum_bytes(d, t_max)
    else:
        need = walk_bytes(n, walk_rows(n, d, t_max, projected=True)) + d * _SITE_BYTES + (t_max + 1) * _ROW_BYTES
    require_bytes_fit(need, f"{method} survival of {n} walkers over {d} sites up to t={t_max}")


def require_series_fits(composites: int, d: int, constituents: int) -> None:
    """Refuse a coboson request whose norm_bits exceed MAX_NORM_BITS, or whose
    composites^2 times them exceed MAX_SERIES_WORK, before any factorial is
    formed."""
    # sizes no float can carry are past both bounds anyway
    if max(composites, d, constituents) < 1 << 53:
        bits = norm_bits(composites, d, constituents)
        if bits <= MAX_NORM_BITS and composites**2 * bits <= MAX_SERIES_WORK:
            return
        size = f"integers of about {bits:.0f} bits, {composites**2 * bits:.3g} for N^2 * bits"
    else:
        size = "sizes past 2**53"
    raise ValueError(
        f"B_{composites} of {constituents}-particle multiplets on {d} sites needs {size}, "
        f"past the limits of {MAX_NORM_BITS} bits and {MAX_SERIES_WORK} for N^2 * bits"
    )
