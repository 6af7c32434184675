"""Seeded op generators for the three workloads.

Every workload is a closed loop over rounds, and the benchmark always runs
whole rounds. The rounds draw only inputs that pass at the seed; each
workload's inputs known to fail there are listed in KNOWN_FAILURES and run
on their own. A round is a stratified sample of the workload's inputs: each
drawn coordinate is split into equal-probability cells with one op in each,
and where op time grows steeply with a coordinate, pairs of ops sit at
mirrored offsets within a cell (antithetic sampling). Each op still follows
the stated distribution, but every round has nearly the same mix and cost,
so short runs with different seeds measure the same thing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from reference import REFERENCE_CASE, eigenvalues


@dataclass(frozen=True)
class Op:
    kind: str  # scan | spectrum | wavefunction | verify
    parity: str
    n: int
    a: float
    tier: str
    eta: float | None = None  # wavefunction only

    def label(self) -> dict:
        return {"kind": self.kind, "parity": self.parity, "n": self.n,
                "a": self.a, "tier": self.tier}


def _mirrored_cells(rng: random.Random, k: int) -> tuple[list[float], list[float]]:
    """Two samples of k uniforms, one in each cell [i/k, (i+1)/k), mirrored
    within every cell (antithetic), so that a cost varying smoothly across a
    cell cancels to first order between the two."""
    offsets = [rng.random() for _ in range(k)]
    return ([(i + x) / k for i, x in enumerate(offsets)],
            [(i + 1 - x) / k for i, x in enumerate(offsets)])


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


# scan: one-point `scan --format csv` at the double tier over the item-1
# grid. 2 parities x 4 values of a, and for each a, n stratified in 5 cells,
# mirrored between the parities: 40 ops per round. At a = 100 the draws stop
# at n = 33: every n from 34 to 40 fails at the seed (SCAN_KNOWN_FAILURES),
# and those inputs run in the known-failure probe instead.
SCAN_A = (0.5, 1.0, 12.0, 100.0)
SCAN_N_CELLS = 5
SCAN_KNOWN_FAILURES = [Op("scan", parity, n, 100.0, "double")
                       for parity in ("even", "odd") for n in range(34, 41)]
SCAN_N = {a: [n for n in range(1, 41)
              if all((op.n, op.a) != (n, a) for op in SCAN_KNOWN_FAILURES)]
          for a in SCAN_A}


def scan_round(rng: random.Random) -> list[Op]:
    ops = []
    for a in SCAN_A:
        ns = SCAN_N[a]
        for parity, us in zip(("even", "odd"), _mirrored_cells(rng, SCAN_N_CELLS)):
            ops += [Op("scan", parity, ns[int(u * len(ns))], a, "double") for u in us]
    rng.shuffle(ops)
    return ops


# extended: spectrum (JSON) and wavefunction (CSV with prefactor) ops at the
# extended tier, alternating. One op in four is the reference case; the other
# twelve of a round draw n log-uniform in [5, 100] in 6 cells, with two ops at
# mirrored offsets in each, one of either kind, as op time and output size
# grow steeply with n. Each kind gets a = 0.5 and a = 12 three times. A
# wavefunction op asks for one eigenvalue of the reference spectrum; in the
# reference case that is the 718.09 anchor.
EXTENDED_A = (0.5, 12.0)
EXTENDED_REF_ETA = 718.092858484742


def extended_round(rng: random.Random) -> list[Op]:
    sizes = {"spectrum": [], "wavefunction": []}
    for pair in zip(*_mirrored_cells(rng, 6)):
        for kind, u in zip(rng.sample(list(sizes), 2), pair):
            sizes[kind].append(int(_log_uniform(u, 5.0, 101.0)))
    ops = {}
    for kind, ns in sizes.items():
        a_values = [a for a in EXTENDED_A for _ in range(3)]
        rng.shuffle(a_values)
        cases = [(rng.choice(("even", "odd")), n, a) for n, a in zip(ns, a_values)]
        cases += [REFERENCE_CASE] * 2
        rng.shuffle(cases)
        ops[kind] = [_extended_op(rng, kind, case) for case in cases]
    return [op for pair in zip(ops["spectrum"], ops["wavefunction"]) for op in pair]


def _extended_op(rng: random.Random, kind: str, case) -> Op:
    parity, n, a = case
    if kind == "spectrum":
        return Op(kind, parity, n, a, "extended")
    if case == REFERENCE_CASE:
        eta = EXTENDED_REF_ETA
    else:
        ref = eigenvalues(parity, n, a)
        eta = float(ref[rng.randrange(ref.size)])
    return Op(kind, parity, n, a, "extended", eta)


# verify: `verify` at the double tier, n in 1..50 over both parities, a on
# grids of half-decade (and quarter-decade) steps, every point of which passes
# at the seed (checked exhaustively). Three parts of the domain have op times
# far apart, and a round gives each a fixed number of ops so that no single
# draw decides a run's figures:
#
# * dimension <= 8 runs the characteristic-polynomial oracle. A round holds
#   one such op per parity, n uniform over those dimensions, a in [1, 10];
# * a in [1e2, 1e3] builds a quadrature grid of ~4a points, so op time grows
#   as a * dim^2. A round holds 3 ops per parity there, one per third of the
#   grid, at n = 20 (dimension 40 or 41);
# * the rest, dimension > 8 and a in [1e-5, 10], is a grid per parity of
#   VERIFY_N_BANDS bands of n times VERIFY_A_BANDS bands of log a, one op per
#   cell. Within the grid n and log a are also Latin-hypercube samples over
#   all the ops of a parity (an orthogonal-array LHS), as op time grows with
#   dim^2.
#
# The domain stops short of the seed's failures, which run in the
# known-failure probe instead (VERIFY_KNOWN_FAILURES): the eigen_residual
# check fails for even parity below a ~ 1e-7; the oracle fails at dimension
# <= 8 below a ~ 0.1, after 8 to 20 s and up to 1.2 GB each, and succeeds
# there only as slowly; eigen_decompose fails to rotate clusters from
# a ~ 30 up at dimension 40 and more; and the quadrature overflows above
# a ~ 1.4e3. The lower limit of a sits two decades above the residual
# failures. The upper limit of 1e3 also keeps the seed's unbounded
# quadrature grid small (it grows as ~4a points; ROADMAP item 2).
VERIFY_A = tuple(10.0 ** (k / 2) for k in range(-10, 3))
VERIFY_ORACLE_A = tuple(10.0 ** (k / 2) for k in range(0, 3))
VERIFY_QUADRATURE_A = tuple(10.0 ** (k / 4) for k in range(8, 13))
VERIFY_DIM = {"even": lambda n: 2 * n, "odd": lambda n: 2 * n + 1}
VERIFY_N = {p: [n for n in range(1, 51) if dim(n) > 8] for p, dim in VERIFY_DIM.items()}
VERIFY_ORACLE_N = {p: [n for n in range(1, 51) if dim(n) <= 8] for p, dim in VERIFY_DIM.items()}
VERIFY_N_BANDS = 3
VERIFY_A_BANDS = 7
VERIFY_QUADRATURE_N = 20
VERIFY_QUADRATURE_OPS = 3
VERIFY_KNOWN_FAILURES = [
    Op("verify", "even", 12, 1e-10, "double"),  # exit 1: eigen_residual
    Op("verify", "odd", 2, 1e-2, "double"),  # OracleFailureError, ~9 s
    Op("verify", "even", 40, 100.0, "double"),  # NumericalFailureError: cluster rotation
    Op("verify", "odd", 20, 2e3, "double"),  # OverflowError
]


def _oa_lhs(rng: random.Random, rows: int, cols: int,
            du: list[float], dv: list[float]) -> list[tuple[float, float]]:
    """rows * cols points (u, v) in [0, 1)^2, one per cell of a rows x cols
    grid, whose u and v are each one per cell of rows * cols equal strata;
    du and dv give the offset within each of those strata."""
    size = rows * cols
    u_sub = [rng.sample(range(cols), cols) for _ in range(rows)]
    v_sub = [rng.sample(range(rows), rows) for _ in range(cols)]
    points = []
    for i in range(rows):
        for j in range(cols):
            ku, kv = i * cols + u_sub[i][j], j * rows + v_sub[j][i]
            points.append(((ku + du[ku]) / size, (kv + dv[kv]) / size))
    return points


def _pick(values, u: float):
    return values[int(u * len(values))]


def verify_round(rng: random.Random) -> list[Op]:
    size = VERIFY_N_BANDS * VERIFY_A_BANDS
    du = [rng.random() for _ in range(size)]
    dv = [rng.random() for _ in range(size)]
    # the odd grid mirrors the even grid's offsets but is paired afresh
    offsets = {"even": (du, dv), "odd": ([1 - x for x in du], [1 - x for x in dv])}
    quadrature = dict(zip(("even", "odd"), _mirrored_cells(rng, VERIFY_QUADRATURE_OPS)))
    ops = []
    for parity, ns in VERIFY_N.items():
        for u, v in _oa_lhs(rng, VERIFY_N_BANDS, VERIFY_A_BANDS, *offsets[parity]):
            ops.append(Op("verify", parity, _pick(ns, u), _pick(VERIFY_A, v), "double"))
        ops += [Op("verify", parity, VERIFY_QUADRATURE_N, _pick(VERIFY_QUADRATURE_A, v), "double")
                for v in quadrature[parity]]
        ops.append(Op("verify", parity, rng.choice(VERIFY_ORACLE_N[parity]),
                      rng.choice(VERIFY_ORACLE_A), "double"))
    rng.shuffle(ops)
    return ops


ROUNDS = {"scan": scan_round, "extended": extended_round, "verify": verify_round}
# Inputs that fail at the seed, left out of the rounds and run on their own.
KNOWN_FAILURES = {"scan": SCAN_KNOWN_FAILURES, "extended": [],
                  "verify": VERIFY_KNOWN_FAILURES}


def rounds(workload: str, seed: int):
    """Endless sequence of rounds for a workload; equal seeds, equal ops."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUNDS[workload]
    while True:
        yield make(rng)
