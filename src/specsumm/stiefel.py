"""Orthonormality-constrained steepest ascent for the relaxed objective.

The relaxed problem maximizes F(Z) = tr((ZᵀAZ)²) over n×k matrices with
orthonormal columns.  Ascent stays feasible by moving along Cayley-transform
curves of a skew-symmetric direction built from the gradient, with an
Armijo backtracking search choosing the step size by the ratio test of
trust regions: a trial step that earns less than a quarter of the gain
τ·g₀ its slope predicts is halved, and each search after the first starts
from the step the last one accepted, doubled when that step passed at its
first trial and earned at least half the predicted gain.  All heavy
inverses are reduced to 2k×2k solves via the Sherman–Morrison–Woodbury
identity.

The 2k×2k system comes from the k×k Grams ZᵀZ, GᵀZ and GᵀG, built once
per iteration and shared by every trial step.  The same Grams give the
search its slope and the direction's norm in k×k work; the n×k direction
is lifted only near a stationary point, where that form cancels.  The
A·Z and ZᵀAZ behind an accepted step's objective give the next gradient
without another sparse product, and the trial point's ZᵀZ the next
system's Gram.

Every n-row product is formed in the row halves [0, h) and [h, n),
h = n // 2, and every n-row Gram XᵀY as X[:h]ᵀY[:h] + X[h:]ᵀY[h:].  An
``ocsa`` iteration is three passes: one writes G and takes GᵀZ and GᵀG,
one a trial point, and one its A·Z, taking ZᵀAZ and ZᵀZ.  The halves of
a pass run on two lanes, the calling thread and one worker thread, when
the process's CPU affinity allows two CPUs or more (``taskset -c 0``
gives one lane) and the iterate is large enough to repay the hand-offs,
else in turn, with the same bits; the public functions replay them.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, NamedTuple

import numpy as np

from .errors import ParameterError
from .graph import Graph
from .rng import make_generator

__all__ = [
    "OcsaConfig",
    "AscentTrace",
    "SkewDirection",
    "CayleyStepError",
    "trace_objective_relaxed",
    "gradient",
    "skew_direction",
    "cayley_step",
    "random_orthonormal_init",
    "orthonormality_defect",
    "ocsa",
]

FEASIBILITY_TOL = 1e-8
_STATIONARY_REL = 1e-8
# Armijo constant c of the line search, and the backtracks it makes after
# the first trial step before it gives up.  A trial step must earn this
# fraction of τ·g₀, the gain its slope predicted: a carried step that
# overshoots the curve's peak is halved, not taken.
_SUFFICIENT_INCREASE = 0.25
_MAX_BACKTRACKS = 30
# A step accepted at its first trial that gained at least this fraction of
# τ·g₀ starts the next search at twice τ.
_EXPAND_RATIO = 0.5
# The search takes ‖W·Z‖² from the curve system's Grams, whose rounding
# error is about 1e-16·‖G‖²; at or below this fraction of ‖G‖² it lifts
# the direction instead.
_GRAM_NORM_FLOOR = 1e-10
# Iterates of fewer entries than this run the ascent on one lane: below it
# a hand-off to the worker costs more than the work it moves.
_TWO_LANE_MIN_ENTRIES = 1 << 17


class CayleyStepError(RuntimeError):
    """The 2k×2k curve system was numerically singular for this step size."""


@dataclass(frozen=True)
class OcsaConfig:
    """Ascent-loop knobs: iteration budget, the first iteration's first
    trial step and stop tolerance.  ``contraction`` is not a knob: every
    rejected trial step is halved."""

    contraction: ClassVar[float] = 0.5

    max_iterations: int = 100
    initial_step: float = 1e-3
    relative_tolerance: float = 1e-3

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ParameterError("max_iterations must be >= 0")
        if not (math.isfinite(self.initial_step) and self.initial_step > 0):
            raise ParameterError("initial_step must be finite and positive")
        if not (math.isfinite(self.relative_tolerance)
                and self.relative_tolerance >= 0):
            raise ParameterError("relative_tolerance must be finite and >= 0")


@dataclass(frozen=True)
class AscentTrace:
    """Objective history of one ascent run.

    ``objectives[0]`` is the starting value; entry t is the objective after
    the t-th accepted step, whose size is ``step_sizes[t-1]``.  ``reason``
    is one of "tolerance", "max-iter", "no-ascent-step".  ``backtracks``
    counts the rejected trial points of the whole run, those of a search
    that found no step and those whose curve system was singular included.
    """

    objectives: np.ndarray
    step_sizes: np.ndarray
    reason: str
    backtracks: int

    @property
    def iterations(self) -> int:
        return len(self.objectives) - 1


@dataclass(frozen=True)
class SkewDirection:
    """Skew operator W = left·rightᵀ − right·leftᵀ, kept in factored form.

    The n×n matrix is never formed: ``cayley_step`` and the ascent's line
    search work from the k×k Grams of the two n×k factors.
    """

    left: np.ndarray
    right: np.ndarray


def _in_turn(first: Callable, second: Callable) -> tuple:
    """Run two thunks one after the other and return both results."""
    return first(), second()


@contextmanager
def _lanes(entries: int) -> Iterator[Callable]:
    """A runner of two thunks for one ascent whose iterates hold
    ``entries`` entries: ``both(first, second)`` returns both results.

    It runs them side by side, on the calling thread and one worker
    thread, when the process's CPU affinity allows two CPUs or more
    (``taskset -c 0`` gives one lane) and ``entries`` reaches
    ``_TWO_LANE_MIN_ENTRIES``; otherwise in turn.  The worker lives only
    inside the block.  Both thunks finish before ``both`` returns or
    raises, and an exception of either reaches the caller unchanged.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if entries < _TWO_LANE_MIN_ENTRIES or cpus < 2:
        yield _in_turn
        return
    from concurrent.futures import ThreadPoolExecutor, wait

    with ThreadPoolExecutor(max_workers=1) as worker:
        def side_by_side(first: Callable, second: Callable) -> tuple:
            future = worker.submit(second)
            try:
                done = first()
            finally:
                wait([future])
            return done, future.result()

        yield side_by_side


def _halves(n: int) -> tuple[slice, slice]:
    """The row halves [0, h) and [h, n), h = n // 2, of n rows."""
    return slice(0, n // 2), slice(n // 2, n)


def _on_halves(both: Callable, n: int, work: Callable) -> tuple:
    """A pass: ``work(rows)`` on each row half, one per lane of ``both``,
    and the sums (first half plus second) of the Grams it returns."""
    first, second = _halves(n)
    done = both(lambda: work(first), lambda: work(second))
    return tuple(a + b for a, b in zip(*done))


def _gram(X: np.ndarray, Y: np.ndarray, both: Callable = _in_turn
          ) -> np.ndarray:
    """XᵀY of two n-row arrays as X[:h]ᵀY[:h] + X[h:]ᵀY[h:]: the one form
    of every n-row Gram (module docstring)."""
    return _on_halves(both, len(X), lambda rows: (X[rows].T @ Y[rows],))[0]


def _trial_parts(graph: Graph, Z: np.ndarray, both: Callable
                 ) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The trial pass of a C-ordered point: A·Z, M = ZᵀAZ, F(Z) = ‖M‖²_F
    and the Gram ZᵀZ, which the next curve system takes if the point is
    accepted.  One sparse product serves the objective and, as
    4·(A·Z)·M, the gradient at Z."""
    AZ = np.empty_like(Z)

    def rows_of(rows: slice) -> tuple:
        graph._matmat_rows(Z, AZ, rows.start, rows.stop)
        return Z[rows].T @ AZ[rows], Z[rows].T @ Z[rows]

    M, ZtZ = _on_halves(both, len(Z), rows_of)
    return AZ, M, float(np.sum(M * M)), ZtZ


def _gradient_parts(Z: np.ndarray, AZ: np.ndarray, M: np.ndarray,
                    both: Callable) -> tuple:
    """The gradient pass: G = 4·(A·Z)·M as ``gradient`` forms it, GᵀZ, GᵀG."""
    G = np.empty_like(AZ)

    def rows_of(rows: slice) -> tuple:
        np.matmul(AZ[rows], 4.0 * M, out=G[rows])
        return G[rows].T @ Z[rows], G[rows].T @ G[rows]

    return (G, *_on_halves(both, len(G), rows_of))


def trace_objective_relaxed(graph: Graph, Z: np.ndarray) -> float:
    """F(Z) = tr((ZᵀAZ)²), the squared Frobenius norm of ZᵀAZ.

    Defined for any n×k real matrix; column-orthonormal inputs are what the
    optimization contracts assume.  A relaxed solution is a plain n×k float
    array with ‖ZᵀZ − I‖_max ≤ 1e-8, checked where contracts demand it and
    not here, so finite-difference probes at perturbed (infeasible) points
    remain legal.
    """
    return _trial_parts(graph, np.ascontiguousarray(Z, dtype=np.float64),
                        _in_turn)[2]


def gradient(graph: Graph, Z: np.ndarray) -> np.ndarray:
    """Euclidean gradient of F: G = 4·A·Z·(ZᵀAZ), in row halves."""
    AZ, M, *_ = _trial_parts(
        graph, np.ascontiguousarray(Z, dtype=np.float64), _in_turn)
    G = np.empty_like(AZ)
    for rows in _halves(len(G)):
        # Scaling M, not the product, by 4 is exact and saves an n×k pass.
        np.matmul(AZ[rows], 4.0 * M, out=G[rows])
    return G


def skew_direction(Z: np.ndarray, G: np.ndarray) -> SkewDirection:
    """Feasible ascent direction W = Z·Gᵀ − G·Zᵀ in factored form."""
    Z = np.asarray(Z, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if Z.shape != G.shape:
        raise ValueError(f"shape mismatch: Z {Z.shape} vs G {G.shape}")
    return SkewDirection(left=Z, right=G)


class _CurveSystem(NamedTuple):
    """The Woodbury pieces of the Cayley curve of W = U·Vᵀ − V·Uᵀ through Z.

    With B = [U V] and C = [V −U], W = B·Cᵀ; ``gram`` is the 2k×2k matrix
    CᵀB = [[VᵀU, VᵀV], [−UᵀU, −UᵀV]] and ``rhs`` is CᵀZ = [VᵀZ; −UᵀZ].
    """

    left: np.ndarray
    right: np.ndarray
    gram: np.ndarray
    rhs: np.ndarray

    def lift(self, coeff: np.ndarray, rows: slice = slice(None),
             out: np.ndarray | None = None) -> np.ndarray:
        """Rows ``rows`` of B·coeff = U·coeff_top + V·coeff_bottom, without
        stacking B, written into ``out`` when given."""
        k = self.left.shape[1]
        out = np.matmul(self.left[rows], coeff[:k], out=out)
        out += self.right[rows] @ coeff[k:]
        return out

    def point(self, Z: np.ndarray, tau: float,
              both: Callable = _in_turn) -> np.ndarray:
        """Z(τ) = Z − τ·B·(I + τ/2·CᵀB)⁻¹·CᵀZ, one row half per lane of
        ``both``, each checked finite.  A τ so large that the system
        overflows gives a non-finite point, which raises like a singular
        system and warns of nothing."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                S = np.eye(len(self.gram)) + (tau / 2.0) * self.gram
                coeff = np.linalg.solve(S, self.rhs)
        except np.linalg.LinAlgError as exc:
            raise CayleyStepError(f"singular curve system at tau={tau}") from exc
        out = np.empty(Z.shape)

        def rows_of(rows: slice) -> tuple:
            part = self.lift(coeff, rows, out[rows])
            part *= tau
            np.subtract(Z[rows], part, out=part)
            if not np.isfinite(part).all():
                raise CayleyStepError(f"non-finite curve point at tau={tau}")
            return ()

        _on_halves(both, len(out), rows_of)
        return out


def _curve_system(Z: np.ndarray, W: SkewDirection,
                  grams: tuple | None = None) -> _CurveSystem:
    """Build CᵀB and CᵀZ from the Grams VᵀU, VᵀV and UᵀU (``grams``, or
    formed here), and VᵀZ and UᵀZ unless W.left is Z: then CᵀZ is CᵀB's
    left block column."""
    U, V = W.left, W.right
    k = U.shape[1]
    if grams is None:
        grams = _gram(V, U), _gram(V, V), _gram(U, U)
    VtU, VtV, UtU = grams
    gram = np.empty((2 * k, 2 * k))
    gram[:k, :k] = VtU
    gram[:k, k:] = VtV
    gram[k:, :k] = -UtU
    gram[k:, k:] = -VtU.T
    if U is Z:
        rhs = gram[:, :k]
    else:
        rhs = np.vstack([_gram(V, Z), -_gram(U, Z)])
    return _CurveSystem(U, V, gram, rhs)


def cayley_step(Z: np.ndarray, W: SkewDirection, tau: float) -> np.ndarray:
    """One point on the curve Z(τ) = (I + τ/2·W)⁻¹ (I − τ/2·W) Z.

    With W = B·Cᵀ for B = [U V], C = [V −U], the Woodbury identity
    collapses the n×n inverse to Z(τ) = Z − τ·B·(I + τ/2·CᵀB)⁻¹·CᵀZ.
    CᵀB and CᵀZ are assembled from the k×k Grams of U, V and Z, and B is
    never stacked: Z(τ) = Z − τ·(U·c_top + V·c_bottom), an O(nk² + k³)
    computation in row halves.  The transform is orthogonal for skew W,
    so column orthonormality is preserved to rounding.

    Raises
    ------
    CayleyStepError
        When the 2k×2k system is singular or overflows (τ pathologically
        large); callers shrink τ and retry.
    """
    Z = np.asarray(Z, dtype=np.float64)
    return _curve_system(Z, W).point(Z, tau)


def _direction_slope(system: _CurveSystem, G: np.ndarray
                     ) -> tuple[float, float]:
    """‖W·Z‖ and the slope g₀ = ⟨G, −W·Z⟩ of the search direction −W·Z.

    ``system`` is the curve system of W = Z·Gᵀ − G·Zᵀ through Z, so
    −W·Z = −B·CᵀZ, and with BᵀB = [[ZᵀZ, ZᵀG], [GᵀZ, GᵀG]] (CᵀB with its
    block rows swapped and the lower one negated) ‖W·Z‖² = ⟨CᵀZ, BᵀB·CᵀZ⟩
    and g₀ = −⟨BᵀG, CᵀZ⟩ = tr(GᵀG·ZᵀZ) − tr((GᵀZ)²): k×k work, no n×k
    array.  Near a stationary point that norm is a difference of nearly
    equal terms, so at or below 1e-10·‖G‖² both come from the direction
    lifted to n×k instead.
    """
    k = G.shape[1]
    BtB = np.vstack([-system.gram[k:], system.gram[:k]])
    rhs = system.rhs
    sq_norm = float(np.vdot(rhs, BtB @ rhs))
    if sq_norm > _GRAM_NORM_FLOOR * np.trace(BtB[k:, k:]):
        return math.sqrt(sq_norm), -float(np.vdot(BtB[:, k:], rhs))
    direction = -system.lift(rhs)
    return float(np.linalg.norm(direction)), float(np.vdot(G, direction))


def _line_search(graph: Graph, Z: np.ndarray, G: np.ndarray, value: float,
                 tau0: float, both: Callable = _in_turn,
                 grams: tuple | None = None) -> tuple[int, tuple | None]:
    """Armijo backtracking along the Cayley curve of W = Z·Gᵀ − G·Zᵀ.

    Tries τ₀, τ₀ρ, τ₀ρ², …, τ₀ρ³⁰ (ρ = ``OcsaConfig.contraction``) and
    accepts the first (largest) step with F(Z(τ)) ≥ F(Z) + ¼·τ·g₀, where
    F(Z) = ``value`` and g₀ = ⟨G, −W·Z⟩ is the analytic curve derivative at
    τ = 0.  Returns the number of rejected trial points and the accepted
    step (τ, Z(τ), F(Z(τ)), A·Z(τ), Z(τ)ᵀA·Z(τ), Z(τ)ᵀZ(τ), g₀), or None
    in its place when the direction offers no ascent: g₀ ≤ 0, the
    direction is stationary relative to the gradient scale
    (‖W·Z‖ ≤ 1e-8·‖G‖; no point is tried), or every backtrack level fails
    the test.  A step whose curve system is singular counts as a failed
    level and a rejected point.  ``ocsa`` picks τ₀ from the last search's
    outcome.

    The curve system is built once, from the k×k Grams GᵀZ, GᵀG and ZᵀZ
    (``grams``, in that order, when the caller has them).  It gives ‖W·Z‖
    and g₀ without lifting the direction to n×k, except near a stationary
    point, where the lifted direction decides both tests
    (``_direction_slope``), and its trace of GᵀG gives ‖G‖.  Each trial
    step costs one 2k×2k solve, a point pass and a trial pass (module
    docstring), whose halves ``both`` runs side by side or in turn
    (``_lanes``).
    """
    system = _curve_system(Z, skew_direction(Z, G), grams)
    norm, g0 = _direction_slope(system, G)
    k = G.shape[1]
    if (norm <= _STATIONARY_REL * math.sqrt(np.trace(system.gram[:k, k:]))
            or g0 <= 0):
        return 0, None

    tau = tau0
    for rejected in range(_MAX_BACKTRACKS + 1):
        try:
            candidate = system.point(Z, tau, both)
        except CayleyStepError:
            tau *= OcsaConfig.contraction
            continue
        AZ, M, trial, gram = _trial_parts(graph, candidate, both)
        if trial >= value + _SUFFICIENT_INCREASE * tau * g0:
            return rejected, (tau, candidate, trial, AZ, M, gram, g0)
        candidate = AZ = None
        tau *= OcsaConfig.contraction
    return _MAX_BACKTRACKS + 1, None


def random_orthonormal_init(n: int, k: int, seed: int | None) -> np.ndarray:
    """Orthonormal factor of a seeded Gaussian n×k matrix.

    The QR sign ambiguity is fixed (positive R diagonal) so a seed pins
    the result bit-for-bit.
    """
    if k > n:
        raise ParameterError(f"k={k} exceeds n={n}")
    if k < 1:
        raise ParameterError("k must be >= 1")
    raw = make_generator(seed).standard_normal((n, k))
    Q, R = np.linalg.qr(raw)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def orthonormality_defect(Z: np.ndarray) -> float:
    """‖ZᵀZ − I‖_max, the feasibility defect of a candidate solution."""
    Z = np.asarray(Z, dtype=np.float64)
    gram = Z.T @ Z
    return float(np.abs(gram - np.eye(Z.shape[1])).max())


def ocsa(graph: Graph, Z0: np.ndarray,
         config: OcsaConfig | None = None) -> tuple[np.ndarray, AscentTrace]:
    """Curvilinear steepest ascent on the orthonormal-columns manifold.

    Repeats gradient → skew direction → backtracking search → Cayley step
    until the relative objective gain drops to ``relative_tolerance``, the
    search finds no ascent step, or ``max_iterations`` is exhausted.  The
    objective history is non-decreasing and every iterate stays feasible.
    The step follows the ratio test of trust regions: the search halves a
    trial step that raises F by less than ¼·τ·g₀, and only the first
    search starts at ``initial_step``.  Each later one starts at the τ the
    last accepted, doubled when that τ passed at its first trial and F
    rose by at least ½·τ·g₀, so step sizes may exceed ``initial_step``.
    Each gradient 4·(A·Z)·(ZᵀAZ) reuses the A·Z and ZᵀAZ of the step the
    search accepted, so an iteration makes one sparse product per trial
    step and no other: a gradient pass, then a point pass and a trial
    pass per trial step (module docstring), on one or two lanes with the
    same bits.  A·Z is dropped once the gradient is formed, and the
    search drops a rejected trial point before it makes the next, so the
    ascent holds four n×k arrays at a time: the iterate, G, and a trial
    point with its halves' lift terms or its A·Z.  Z0 is copied in C
    order, never written, so its memory layout moves no bit.

    Raises
    ------
    ParameterError
        If Z0 has the wrong row count, no columns or more than n, or is
        not column-orthonormal (a NaN entry included).
    """
    config = config or OcsaConfig()
    Z = np.array(Z0, dtype=np.float64, order="C")
    if Z.ndim != 2 or Z.shape[0] != graph.node_count:
        raise ParameterError(
            f"Z0 shape {Z.shape} incompatible with n={graph.node_count}")
    if not 1 <= Z.shape[1] <= graph.node_count:
        raise ParameterError(f"Z0 has {Z.shape[1]} columns; need 1 to n")
    if not orthonormality_defect(Z) <= FEASIBILITY_TOL:
        raise ParameterError("Z0 is not column-orthonormal")

    objectives: list[float] = []
    steps: list[float] = []
    reason = "max-iter"
    backtracks = 0
    tau0 = config.initial_step
    with _lanes(Z.size) as both:
        AZ, M, value, ZtZ = _trial_parts(graph, Z, both)
        objectives.append(value)
        for _ in range(config.max_iterations):
            G, GtZ, GtG = _gradient_parts(Z, AZ, M, both)
            # Only the gradient reads A·Z; the last search result holds it.
            AZ = found = None
            rejected, found = _line_search(graph, Z, G, value, tau0, both,
                                           (GtZ, GtG, ZtZ))
            backtracks += rejected
            if found is None:
                reason = "no-ascent-step"
                break
            tau, Z, trial, AZ, M, ZtZ, g0 = found
            objectives.append(trial)
            steps.append(tau)
            tau0 = tau
            if rejected == 0 and trial - value >= _EXPAND_RATIO * tau * g0:
                tau0 = tau / OcsaConfig.contraction
            # value > 0: F = 0 gives G = 0, which the search rejects as
            # stationary.
            relative_gain = (trial - value) / value
            value = trial
            if relative_gain <= config.relative_tolerance:
                reason = "tolerance"
                break

    trace = AscentTrace(objectives=np.asarray(objectives, dtype=np.float64),
                        step_sizes=np.asarray(steps, dtype=np.float64),
                        reason=reason, backtracks=backtracks)
    return Z, trace
