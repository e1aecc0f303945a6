import dataclasses
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from specsumm import (Graph, OcsaConfig, ParameterError, cayley_step,
                      generate_sbm, gradient, lm_eigs, ocsa,
                      orthonormality_defect, random_orthonormal_init,
                      skew_direction, stiefel, trace_objective_relaxed)
from specsumm.stiefel import CayleyStepError

from conftest import planted_graph, use_lanes
from oracles import (dense_eig_oracle, direction_slope_reference,
                     fd_gradient, ocsa_reference, random_graph, skew_apply,
                     skew_dense, trace_objective_split)


def _delta_columns(n, cols):
    Z = np.zeros((n, len(cols)))
    for j, i in enumerate(cols):
        Z[i, j] = 1.0
    return Z


def spy_block_products(monkeypatch, on_product):
    """Call ``on_product(half)`` on the lane of each row-block product
    ``graph._row_blocks[half] @ x``, before the product is made."""
    blocks = Graph._row_blocks

    class Spied:
        def __init__(self, half, block):
            self.half, self.block = half, block

        def __matmul__(self, x):
            on_product(self.half)
            return self.block @ x

    monkeypatch.setattr(Graph, "_row_blocks", property(lambda graph: tuple(
        Spied(half, block)
        for half, block in enumerate(blocks.__get__(graph, Graph)))))


class TestObjective:
    def test_k3_top_eigvec(self, k3):
        z = np.ones((3, 1)) / np.sqrt(3.0)
        assert trace_objective_relaxed(k3, z) == pytest.approx(4.0, abs=1e-12)

    def test_p3_indicator_pair(self, p3):
        Z = _delta_columns(3, [0, 1])
        assert trace_objective_relaxed(p3, Z) == pytest.approx(2.0, abs=1e-12)

    def test_full_basis_recovers_edge_mass(self, rng):
        graph = random_graph(rng, 20)
        basis = dense_eig_oracle(graph)
        f = trace_objective_relaxed(graph, basis.vectors)
        assert f == pytest.approx(2.0 * graph.edge_count, abs=1e-8)

    def test_split_sums_to_objective(self, rng):
        graph = random_graph(rng, 18)
        Z = random_orthonormal_init(18, 4, seed=3)
        t1, t2 = trace_objective_split(graph, Z)
        assert t1 + t2 == pytest.approx(trace_objective_relaxed(graph, Z),
                                        abs=1e-10)
        assert t2 >= 0

    def test_cross_terms_vanish_at_eigenvectors(self, rng):
        graph = random_graph(rng, 24)
        basis = lm_eigs(graph, 5, seed=0)
        _, t2 = trace_objective_split(graph, basis.vectors)
        assert t2 <= 1e-10


class TestGradient:
    def test_k3_closed_form(self, k3):
        z = np.ones((3, 1)) / np.sqrt(3.0)
        np.testing.assert_allclose(gradient(k3, z), 16.0 * z, atol=1e-12)

    def test_p3_indicator_pair(self, p3):
        Z = _delta_columns(3, [0, 1])
        expected = np.array([[4.0, 0.0], [0.0, 4.0], [4.0, 0.0]])
        np.testing.assert_allclose(gradient(p3, Z), expected, atol=1e-12)

    def test_p3_nonadjacent_pair_is_flat(self, p3):
        Z = _delta_columns(3, [0, 2])
        np.testing.assert_allclose(gradient(p3, Z), np.zeros((3, 2)),
                                   atol=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(6):
            n = int(rng.integers(4, 32))
            k = int(rng.integers(1, 5))
            graph = random_graph(rng, n)
            Z = random_orthonormal_init(n, k, seed=int(rng.integers(2**31)))
            G = gradient(graph, Z)
            FD = fd_gradient(graph, Z)
            scale = max(1.0, np.abs(FD).max())
            assert np.abs(G - FD).max() <= 1e-5 * scale


class TestSkewDirection:
    def test_exactly_skew(self, rng):
        graph = random_graph(rng, 10)
        Z = random_orthonormal_init(10, 3, seed=5)
        W = skew_dense(skew_direction(Z, gradient(graph, Z)))
        np.testing.assert_array_equal(W, -W.T)

    def test_vanishes_at_eigenvectors(self, rng):
        graph = random_graph(rng, 30)
        basis = lm_eigs(graph, 4, seed=2)
        G = gradient(graph, basis.vectors)
        W = skew_direction(basis.vectors, G)
        assert np.linalg.norm(skew_dense(W)) <= 1e-8 * np.linalg.norm(G)

    def test_zero_gradient_gives_zero(self, p3):
        Z = _delta_columns(3, [0, 2])
        W = skew_direction(Z, gradient(p3, Z))
        assert np.linalg.norm(skew_dense(W)) == 0.0

    def test_active_at_indicator_pair(self, p3):
        Z = _delta_columns(3, [0, 1])
        W = skew_direction(Z, gradient(p3, Z))
        assert np.linalg.norm(skew_apply(W, Z)) > 0

    def test_apply_matches_dense(self, rng):
        Z = random_orthonormal_init(12, 3, seed=8)
        G = rng.standard_normal((12, 3))
        W = skew_direction(Z, G)
        x = rng.standard_normal((12, 3))
        np.testing.assert_allclose(skew_apply(W, x), skew_dense(W) @ x,
                                   atol=1e-12)


class TestCayleyStep:
    def test_zero_step_is_identity(self, rng):
        Z = random_orthonormal_init(9, 2, seed=1)
        W = skew_direction(Z, rng.standard_normal((9, 2)))
        np.testing.assert_allclose(cayley_step(Z, W, 0.0), Z, atol=0)

    def test_zero_direction_is_identity(self):
        Z = random_orthonormal_init(9, 2, seed=1)
        W = skew_direction(Z, np.zeros((9, 2)))
        np.testing.assert_allclose(cayley_step(Z, W, 0.3), Z, atol=0)

    def test_preserves_orthonormality(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 64))
            k = int(rng.integers(1, min(n, 6)))
            Z = random_orthonormal_init(n, k, seed=int(rng.integers(2**31)))
            W = skew_direction(Z, rng.standard_normal((n, k)))
            out = cayley_step(Z, W, 0.1)
            assert orthonormality_defect(out) <= 1e-10

    def test_matches_dense_solve(self, rng):
        for _ in range(8):
            n = int(rng.integers(4, 64))
            k = int(rng.integers(1, min(n, 6)))
            Z = random_orthonormal_init(n, k, seed=int(rng.integers(2**31)))
            W = skew_direction(Z, rng.standard_normal((n, k)))
            tau = float(rng.uniform(0.01, 0.5))
            dense_w = skew_dense(W)
            lhs = np.eye(n) + (tau / 2.0) * dense_w
            rhs = (np.eye(n) - (tau / 2.0) * dense_w) @ Z
            expected = np.linalg.solve(lhs, rhs)
            np.testing.assert_allclose(cayley_step(Z, W, tau), expected,
                                       atol=1e-9)

    def test_general_direction_matches_dense_solve(self, rng):
        # W.left is not Z, so CᵀZ needs its own Grams VᵀZ and UᵀZ.
        for _ in range(8):
            n = int(rng.integers(4, 64))
            k = int(rng.integers(1, min(n, 6)))
            Z = random_orthonormal_init(n, k, seed=int(rng.integers(2**31)))
            W = skew_direction(rng.standard_normal((n, k)),
                               rng.standard_normal((n, k)))
            tau = float(rng.uniform(0.01, 0.5))
            dense_w = skew_dense(W)
            expected = np.linalg.solve(np.eye(n) + (tau / 2.0) * dense_w,
                                       (np.eye(n) - (tau / 2.0) * dense_w) @ Z)
            out = cayley_step(Z, W, tau)
            np.testing.assert_allclose(out, expected, atol=1e-9)
            assert orthonormality_defect(out) <= 1e-10

    def test_overflowing_system_raises_without_a_warning(self):
        # At τ = 1e308, (τ/2)·CᵀB overflows: the step must fail as a
        # CayleyStepError, which the search halves τ on, and warn of nothing.
        Z = random_orthonormal_init(2, 1, seed=0)
        W = skew_direction(Z, np.array([[4.0], [-3.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CayleyStepError):
                cayley_step(Z, W, 1e308)

    def test_copy_of_z_takes_the_general_form(self, rng):
        Z = random_orthonormal_init(30, 4, seed=2)
        G = rng.standard_normal((30, 4))
        shared = cayley_step(Z, skew_direction(Z, G), 0.2)
        general = cayley_step(Z, skew_direction(Z.copy(), G), 0.2)
        np.testing.assert_allclose(shared, general, rtol=0, atol=1e-13)


class TestLineSearch:
    """The Armijo search that ``ocsa`` runs at every iteration."""

    def test_zero_direction_returns_none(self, k3):
        Z = np.ones((3, 1)) / np.sqrt(3.0)
        value = trace_objective_relaxed(k3, Z)
        # A stationary direction is refused before any point is tried.
        assert stiefel._line_search(k3, Z, np.zeros((3, 1)), value,
                                    0.001) == (0, None)

    def test_ascent_on_two_triangles(self, two_triangles):
        Z = random_orthonormal_init(6, 2, seed=17)
        value = trace_objective_relaxed(two_triangles, Z)
        G = gradient(two_triangles, Z)
        rejected, got = stiefel._line_search(two_triangles, Z, G, value,
                                             0.001)
        assert got is not None
        tau, Z_new, trial, AZ, M, ZtZ, g0 = got
        assert tau == 0.001 * 0.5 ** rejected
        assert trial > value
        # The slope the search tested against: the lifted reference's.
        assert g0 == pytest.approx(direction_slope_reference(Z, G)[1],
                                   rel=1e-12, abs=0)
        assert trial == trace_objective_relaxed(two_triangles, Z_new)
        # A·Z comes as its two row halves.
        assert [len(part) for part in AZ] == [3, 3]
        assert np.array_equal(np.vstack(AZ),
                              two_triangles.adjacency_matmat(Z_new))
        # Both Grams in the ascent's one form: first row half plus second.
        assert np.array_equal(M, Z_new[:3].T @ AZ[0] + Z_new[3:].T @ AZ[1])
        assert np.array_equal(ZtZ,
                              Z_new[:3].T @ Z_new[:3] + Z_new[3:].T @ Z_new[3:])
        np.testing.assert_allclose(M, Z_new.T @ np.vstack(AZ), rtol=0,
                                   atol=1e-14)

    @staticmethod
    def _count_lifts(monkeypatch):
        calls = []
        lift = stiefel._CurveSystem.lift

        def counted(self, *args):
            calls.append(args)
            return lift(self, *args)

        monkeypatch.setattr(stiefel._CurveSystem, "lift", counted)
        return calls

    @pytest.mark.parametrize("k", range(1, 9))
    def test_gram_slope_matches_the_lifted_direction(self, k, monkeypatch):
        lifts = self._count_lifts(monkeypatch)
        rng = np.random.default_rng(300 + k)
        for steps in (0, 3):
            n = int(rng.integers(k + 8, 60))
            graph = random_graph(rng, n, p=0.2)
            Z0 = random_orthonormal_init(n, k, seed=int(rng.integers(2**31)))
            Z, _ = ocsa(graph, Z0, OcsaConfig(max_iterations=steps,
                                              relative_tolerance=0.0))
            G = gradient(graph, Z)
            lifts.clear()
            norm, g0 = stiefel._direction_slope(
                stiefel._curve_system(Z, skew_direction(Z, G)), G)
            assert lifts == []
            ref_norm, ref_g0 = direction_slope_reference(Z, G)
            assert ref_norm > 1e-3 * np.linalg.norm(G)
            assert norm == pytest.approx(ref_norm, rel=1e-12, abs=0)
            assert g0 == pytest.approx(ref_g0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("delta, lifted", [
        (0.0, True), (1e-12, True), (1e-9, True), (1e-6, True),
        (1e-3, False)])
    def test_perturbed_eigenvector_starts_match_one_reference_step(
            self, delta, lifted, monkeypatch):
        # Near an eigenvector basis the Gram form of ‖W·Z‖² cancels, so the
        # search must lift the direction and decide as the reference does.
        lifts = self._count_lifts(monkeypatch)
        rng = np.random.default_rng(505)
        for _ in range(12):
            n = int(rng.integers(8, 48))
            k = int(rng.integers(1, min(n - 2, 7)))
            graph = random_graph(rng, n, p=float(rng.uniform(0.1, 0.5)))
            basis = lm_eigs(graph, k, seed=0)
            noise = delta * rng.standard_normal((n, k))
            Z = np.linalg.qr(basis.vectors + noise)[0]
            G = gradient(graph, Z)
            lifts.clear()
            stiefel._direction_slope(
                stiefel._curve_system(Z, skew_direction(Z, G)), G)
            assert len(lifts) == lifted
            _, got = stiefel._line_search(graph, Z, G,
                                          trace_objective_relaxed(graph, Z),
                                          OcsaConfig.initial_step)
            Z_ref, ref = ocsa_reference(graph, Z, OcsaConfig(max_iterations=1))
            assert (got is None) == (ref.iterations == 0)
            if got is None:
                continue
            tau, Z_new, trial, *_ = got
            assert tau == ref.step_sizes[0]
            assert np.array_equal(
                Z_new, cayley_step(Z, skew_direction(Z, G), tau))
            np.testing.assert_allclose(Z_new, Z_ref, rtol=0, atol=1e-12)
            assert trial == pytest.approx(ref.objectives[1], rel=1e-12)


class TestRandomInit:
    def test_square_case(self):
        Z = random_orthonormal_init(3, 3, seed=4)
        assert orthonormality_defect(Z) <= 1e-10

    def test_single_column_is_unit(self):
        z = random_orthonormal_init(50, 1, seed=9)
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        a = random_orthonormal_init(20, 4, seed=33)
        b = random_orthonormal_init(20, 4, seed=33)
        assert np.array_equal(a, b)
        c = random_orthonormal_init(20, 4, seed=34)
        assert not np.array_equal(a, c)

    def test_rejects_wide_matrices(self):
        with pytest.raises(ParameterError):
            random_orthonormal_init(3, 4, seed=0)


class TestOcsa:
    def test_rejects_infeasible_start(self, k3):
        with pytest.raises(ParameterError, match="orthonormal"):
            ocsa(k3, np.ones((3, 2)), OcsaConfig())

    @pytest.mark.parametrize("where", [(2, 1), ...],
                             ids=["one-entry", "all-entries"])
    def test_rejects_nan_start(self, two_triangles, where):
        Z0 = random_orthonormal_init(6, 2, seed=1)
        Z0[where] = np.nan
        with pytest.raises(ParameterError, match="orthonormal"):
            ocsa(two_triangles, Z0, OcsaConfig())

    def test_rejects_a_start_without_columns(self, k3):
        with pytest.raises(ParameterError, match="0 columns"):
            ocsa(k3, np.zeros((3, 0)))

    def test_eigenvector_start_exits_at_once(self, rng):
        graph = random_graph(rng, 30)
        basis = lm_eigs(graph, 3, seed=0)
        Z, trace = ocsa(graph, basis.vectors, OcsaConfig())
        assert trace.reason == "no-ascent-step"
        assert trace.iterations == 0
        assert np.array_equal(Z, basis.vectors)
        assert trace.objectives[0] == pytest.approx(
            np.sum(basis.values**2), abs=1e-8)

    def test_zero_iteration_budget(self, rng):
        graph = random_graph(rng, 12)
        Z0 = random_orthonormal_init(12, 2, seed=6)
        Z, trace = ocsa(graph, Z0, OcsaConfig(max_iterations=0))
        assert np.array_equal(Z, Z0)
        assert trace.iterations == 0
        assert trace.reason == "max-iter"

    def test_two_triangle_convergence(self, two_triangles):
        # seed picked so the start lies in the global basin: spectra with
        # invariant-subspace traps make many random starts stall at F=2 or 5
        Z0 = random_orthonormal_init(6, 2, seed=123)
        cfg = OcsaConfig(max_iterations=500, relative_tolerance=0.0)
        _, trace = ocsa(two_triangles, Z0, cfg)
        assert trace.objectives[-1] >= 0.99 * 8.0

    def test_monotone_and_feasible(self, rng):
        for _ in range(5):
            n = int(rng.integers(8, 40))
            k = int(rng.integers(2, 5))
            graph = random_graph(rng, n)
            Z0 = random_orthonormal_init(n, k, seed=int(rng.integers(2**31)))
            Z, trace = ocsa(graph, Z0, OcsaConfig(max_iterations=40))
            assert np.all(np.diff(trace.objectives) >= 0)
            assert orthonormality_defect(Z) <= 1e-8
            assert len(trace.step_sizes) == trace.iterations

    def test_loose_tolerance_reports_tolerance(self, rng):
        graph = random_graph(rng, 20)
        Z0 = random_orthonormal_init(20, 2, seed=11)
        _, trace = ocsa(graph, Z0, OcsaConfig(relative_tolerance=10.0))
        assert trace.reason == "tolerance"

    def test_one_matmat_per_trial_step(self, rng, monkeypatch):
        graph = random_graph(rng, 40)
        Z0 = random_orthonormal_init(40, 3, seed=4)
        config = OcsaConfig(max_iterations=15, initial_step=1.0,
                            relative_tolerance=0.0)
        calls = []
        spy_block_products(monkeypatch, calls.append)
        monkeypatch.setattr(Graph, "adjacency_matmat", None)
        _, trace = ocsa(graph, Z0, config)
        assert trace.reason == "max-iter"
        assert trace.backtracks > 0
        # One product for the start, then one per trial step, each made as
        # its two row halves: the gradient reuses the accepted step's A·Z.
        products = 1 + trace.iterations + trace.backtracks
        assert calls == [0, 1] * products

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            OcsaConfig(max_iterations=-1)
        with pytest.raises(ParameterError):
            OcsaConfig(initial_step=0.0)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ParameterError, match="initial_step"):
                OcsaConfig(initial_step=bad)
            with pytest.raises(ParameterError, match="relative_tolerance"):
                OcsaConfig(relative_tolerance=bad)

    def test_contraction_is_a_constant_not_a_field(self):
        assert [f.name for f in dataclasses.fields(OcsaConfig)] == [
            "max_iterations", "initial_step", "relative_tolerance"]
        assert OcsaConfig().contraction == OcsaConfig.contraction == 0.5
        with pytest.raises(TypeError):
            OcsaConfig(contraction=0.25)


class TestStepRule:
    """The ratio test of trust regions on the predicted gain τ·g₀: a trial
    step that earns less than a quarter of it is halved, and each search
    starts at the τ the last one accepted, doubled after a first-trial
    step that earned half of it."""

    @staticmethod
    def _record(monkeypatch):
        """Spy on the ascent's searches and on every curve point tried."""
        searches, points = [], []
        line_search, point = stiefel._line_search, stiefel._CurveSystem.point

        def searched(graph, Z, G, value, tau0, *args):
            rejected, found = line_search(graph, Z, G, value, tau0, *args)
            searches.append((value, tau0, rejected, found))
            return rejected, found

        def pointed(self, Z, tau, *args):
            points.append(tau)
            return point(self, Z, tau, *args)

        monkeypatch.setattr(stiefel, "_line_search", searched)
        monkeypatch.setattr(stiefel._CurveSystem, "point", pointed)
        return searches, points

    @pytest.mark.parametrize("initial_step", [1e-3, 1.0])
    def test_next_first_trial_follows_the_last_step(self, initial_step,
                                                    monkeypatch):
        searches, points = self._record(monkeypatch)
        graph, _ = generate_sbm(8, 25, 0.3, 0.02, seed=3)
        seen = set()
        for seed in range(4):
            searches.clear()
            points.clear()
            Z0 = random_orthonormal_init(graph.node_count, 4, seed=seed)
            _, trace = ocsa(graph, Z0, OcsaConfig(
                max_iterations=40, initial_step=initial_step,
                relative_tolerance=0.0))
            assert points[0] == searches[0][1] == initial_step
            assert trace.backtracks == sum(s[2] for s in searches)
            for (value, _, rejected, found), (_, tau0, *_) in zip(
                    searches, searches[1:]):
                tau, _, trial, *_, g0 = found
                assert trial - value >= 0.25 * tau * g0
                expand = rejected == 0 and trial - value >= 0.5 * tau * g0
                assert tau0 == (2 * tau if expand else tau)
                seen.add((expand, rejected > 0))
        # Doubled, kept after a first-trial step that earned less than half
        # its predicted gain, and kept after a backtrack.
        if initial_step == 1.0:
            assert seen >= {(True, False), (False, True)}
        else:
            assert seen >= {(True, False), (False, False)}

    def test_a_step_short_of_a_quarter_of_its_gain_is_halved(self):
        # A first trial past the curve's peak still raises F, by less than
        # ¼·τ·g₀: the search rejects it, though an Armijo constant of 1e-4
        # would take it.
        graph = random_graph(np.random.default_rng(78), 30, p=0.3)
        Z = random_orthonormal_init(30, 3, seed=5)
        value = trace_objective_relaxed(graph, Z)
        G = gradient(graph, Z)
        W = skew_direction(Z, G)
        g0 = direction_slope_reference(Z, G)[1]

        def ratio(tau):
            point = cayley_step(Z, W, tau)
            gain = trace_objective_relaxed(graph, point) - value
            return gain / (tau * g0)

        tau0 = next(tau for tau in 1e-3 * 2.0 ** np.arange(20)
                    if 1e-3 < ratio(tau) < 0.25)
        rejected, (tau, *_) = stiefel._line_search(graph, Z, G, value, tau0)
        assert rejected >= 1
        assert tau == tau0 * 0.5 ** rejected
        assert ratio(tau) >= 0.25

    @pytest.mark.parametrize("initial_step, limit, reason", [
        (1e-3, 30, "max-iter"), (1.0, 30, "max-iter"),
        (1e307, 200, "max-iter"), (1e3, 0, "no-ascent-step")])
    def test_backtracks_are_points_tried_minus_steps(
            self, initial_step, limit, reason, monkeypatch):
        # 1e307 overflows the curve system, whose failed points count as
        # rejected (ρ = 0.01 lets the retries reach a working τ); with no
        # backtrack allowed, a rejected 1e3 ends the run and its point
        # counts too.
        _, points = self._record(monkeypatch)
        monkeypatch.setattr(stiefel, "_MAX_BACKTRACKS", limit)
        if initial_step > 1e300:
            monkeypatch.setattr(OcsaConfig, "contraction", 0.01)
        rng = np.random.default_rng(78)
        graph = random_graph(rng, 30, p=0.3)
        Z0 = random_orthonormal_init(30, 3, seed=5)
        with np.errstate(all="ignore"):
            _, trace = ocsa(graph, Z0, OcsaConfig(
                max_iterations=12, initial_step=initial_step,
                relative_tolerance=0.0))
        assert trace.reason == reason
        assert trace.backtracks == len(points) - trace.iterations
        # Even from 1e-3 the doubled steps overshoot and backtrack.
        assert trace.backtracks > 0


class TestOcsaNoAliasing:
    """What ``ocsa`` is given stays untouched and unshared, and no result
    aliases a start or another result."""

    config = OcsaConfig(max_iterations=15, relative_tolerance=0.0)

    def test_start_is_left_unchanged_and_unshared(self, rng):
        graph = random_graph(rng, 40)
        Z0 = random_orthonormal_init(40, 3, seed=4)
        before = Z0.tobytes()
        for iterations in (0, 15):
            Z, trace = ocsa(graph, Z0, dataclasses.replace(
                self.config, max_iterations=iterations))
            assert trace.iterations == iterations
            assert Z0.tobytes() == before
            assert not np.shares_memory(Z, Z0)

    def test_read_only_starts(self, rng):
        graph = random_graph(rng, 30)
        basis = lm_eigs(graph, 3, seed=0)
        assert not basis.vectors.flags.writeable
        Z, _ = ocsa(graph, basis.vectors, self.config)
        assert not np.shares_memory(Z, basis.vectors)
        # A Fortran-ordered start runs as its C-ordered copy, whose steps
        # replay bit for bit through the public functions.
        Z0 = np.asfortranarray(random_orthonormal_init(30, 3, seed=8))
        Z0.setflags(write=False)
        Z, trace = ocsa(graph, Z0, self.config)
        assert trace.iterations == self.config.max_iterations
        replay = np.ascontiguousarray(Z0)
        for tau in trace.step_sizes:
            W = skew_direction(replay, gradient(graph, replay))
            replay = cayley_step(replay, W, float(tau))
        assert np.array_equal(Z, replay)

    def test_second_call_leaves_the_first_result(self, rng):
        graph = random_graph(rng, 40)
        Z1, _ = ocsa(graph, random_orthonormal_init(40, 3, seed=4),
                     self.config)
        kept = Z1.tobytes()
        Z2, trace = ocsa(graph, Z1, self.config)
        assert trace.iterations > 0
        assert Z1.tobytes() == kept
        assert not np.shares_memory(Z1, Z2)

    def test_cayley_step_returns_a_fresh_array(self, rng):
        Z = random_orthonormal_init(20, 3, seed=2)
        W = skew_direction(Z, rng.standard_normal((20, 3)))
        first, second = (cayley_step(Z, W, 0.1) for _ in range(2))
        assert np.array_equal(first, second)
        for other in (Z, W.right, second):
            assert not np.shares_memory(first, other)


@pytest.mark.parametrize("initial_step", [1e-3, 1.0])
@pytest.mark.parametrize("k", [4, 8])
def test_ocsa_peak_is_four_arrays(k, initial_step, monkeypatch):
    # The iterate, G, a trial point and its A·Z: the previous A·Z is
    # dropped once G is formed, and a rejected trial (the 1.0 start step
    # backtracks) before the next is made.  On two lanes the lift's two
    # products live at once, as the lift and its second term do on one.
    graph, _ = generate_sbm(8, 250, 0.05, 0.005, seed=3)
    Z0 = random_orthonormal_init(graph.node_count, k, seed=1)
    config = OcsaConfig(max_iterations=10, initial_step=initial_step,
                        relative_tolerance=0.0)
    for lanes in (1, 2):
        use_lanes(monkeypatch, lanes)
        # Builds the CSR and imports the worker pool outside the trace.
        ocsa(graph, Z0, dataclasses.replace(config, max_iterations=1))
        tracemalloc.start()
        try:
            _, trace = ocsa(graph, Z0, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.iterations == 10
        if initial_step == 1.0:
            assert np.any(trace.step_sizes < 1.0)
        assert peak <= 4.5 * Z0.nbytes, lanes


@pytest.fixture(scope="module")
def ascent_random_graph():
    """A graph of ascent-random's size: n 16000, about 160k edges in 50
    blocks, above the two-lane work floor at k 32."""
    graph = planted_graph(50, 320, 16.0, 4.0, seed=11)
    assert graph.node_count * 32 >= stiefel._TWO_LANE_MIN_ENTRIES
    return graph


class TestTwoLanes:
    """``ocsa`` on two lanes (the caller and one worker thread) against one
    lane, bit for bit, with the shipped work floor."""

    @staticmethod
    def _run(monkeypatch, lanes, graph, Z0, config):
        use_lanes(monkeypatch, lanes, floor=None)
        calls = []
        spy_block_products(monkeypatch, lambda half: calls.append(
            (half > 0, threading.current_thread()
             is not threading.main_thread())))
        Z, trace = ocsa(graph, Z0, config)
        # Two lanes make the second half of every A·Z on the worker, one
        # lane none.
        assert set(calls) == {(False, False), (True, lanes == 2)}
        return Z, trace

    @pytest.mark.parametrize("initial_step, iterations",
                             [(1e-3, 8), (1.0, 3)])
    def test_match_one_lane(self, ascent_random_graph, initial_step,
                            iterations, monkeypatch):
        graph = ascent_random_graph
        Z0 = random_orthonormal_init(graph.node_count, 32, seed=1)
        config = OcsaConfig(max_iterations=iterations,
                            initial_step=initial_step, relative_tolerance=0.0)
        one, one_trace = self._run(monkeypatch, 1, graph, Z0, config)
        two, two_trace = self._run(monkeypatch, 2, graph, Z0, config)
        assert two_trace.iterations == iterations
        if initial_step == 1.0:
            assert np.any(two_trace.step_sizes < 1.0)
        assert np.array_equal(two, one)
        assert np.array_equal(two_trace.objectives, one_trace.objectives)
        assert np.array_equal(two_trace.step_sizes, one_trace.step_sizes)
        assert two_trace.reason == one_trace.reason

    def test_no_thread_outlives_the_call(self, rng, monkeypatch):
        use_lanes(monkeypatch, 2)
        graph = random_graph(rng, 40)
        Z0 = random_orthonormal_init(40, 3, seed=4)
        before = threading.active_count()
        _, trace = ocsa(graph, Z0, OcsaConfig(max_iterations=5,
                                              relative_tolerance=0.0))
        assert trace.iterations == 5
        assert threading.active_count() == before

    def test_worker_exception_reaches_the_caller(self, rng, monkeypatch):
        class WorkerOnly(Exception):
            pass

        def fail():
            assert threading.current_thread() is not threading.main_thread()
            raise WorkerOnly

        use_lanes(monkeypatch, 2)
        with stiefel._lanes(1) as both:
            with pytest.raises(WorkerOnly):
                both(lambda: None, fail)
            assert both(lambda: 1, lambda: 2) == (1, 2)

        def failing_half(half):
            # The second row half is the worker's.
            if half > 0:
                fail()

        spy_block_products(monkeypatch, failing_half)
        graph = random_graph(rng, 40)
        before = threading.active_count()
        with pytest.raises(WorkerOnly):
            ocsa(graph, random_orthonormal_init(40, 3, seed=4))
        assert threading.active_count() == before

    def test_one_cpu_runs_in_turn(self, monkeypatch):
        use_lanes(monkeypatch, 1)
        with stiefel._lanes(1 << 40) as both:
            assert both is stiefel._in_turn
        use_lanes(monkeypatch, 2, floor=None)
        with stiefel._lanes(stiefel._TWO_LANE_MIN_ENTRIES - 1) as both:
            assert both is stiefel._in_turn


def test_two_lane_steps_replay_through_the_public_functions(monkeypatch):
    # c04's replay on two lanes, with the shipped work floor: n 4097 at
    # k 32 is just above it, and odd, so the row halves are unequal.
    use_lanes(monkeypatch, 2, floor=None)
    graph = planted_graph(17, 241, 16.0, 4.0, seed=5)
    assert graph.node_count % 2 == 1
    Z0 = random_orthonormal_init(graph.node_count, 32, seed=3)
    assert Z0.size >= stiefel._TWO_LANE_MIN_ENTRIES
    with stiefel._lanes(Z0.size) as both:
        assert both is not stiefel._in_turn
    Z_final, trace = ocsa(graph, Z0, OcsaConfig(max_iterations=6,
                                                initial_step=1.0,
                                                relative_tolerance=0.0))
    assert trace.iterations == 6
    assert np.any(trace.step_sizes < 1.0)
    Z = Z0
    assert trace.objectives[0] == trace_objective_relaxed(graph, Z)
    for t, tau in enumerate(trace.step_sizes):
        Z = cayley_step(Z, skew_direction(Z, gradient(graph, Z)), float(tau))
        assert trace.objectives[t + 1] == trace_objective_relaxed(graph, Z)
    assert np.array_equal(Z, Z_final)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_gram_is_first_row_half_plus_second(n):
    rng = np.random.default_rng(n)
    X, Y = rng.standard_normal((2, n, 5))
    h = n // 2
    for x, y in ((X, Y), (X, X), (np.asfortranarray(X), Y)):
        gram = stiefel._gram(x, y)
        assert np.array_equal(gram, x[:h].T @ y[:h] + x[h:].T @ y[h:])
        np.testing.assert_allclose(gram, x.T @ y, rtol=0, atol=1e-13)


def test_ocsa_bits_do_not_depend_on_the_start_layout():
    # Run on Z0's own layout, these two starts gave iterates up to 9.7e-16
    # apart and different objective histories.
    graph, _ = generate_sbm(8, 250, 0.05, 0.005, seed=3)
    Z0 = random_orthonormal_init(graph.node_count, 3, seed=8)
    config = OcsaConfig(max_iterations=30, relative_tolerance=0.0)
    Z, trace = ocsa(graph, Z0, config)
    Z_f, trace_f = ocsa(graph, np.asfortranarray(Z0), config)
    assert trace.iterations == 30
    assert np.array_equal(Z_f, Z)
    assert np.array_equal(trace_f.objectives, trace.objectives)
    assert np.array_equal(trace_f.step_sizes, trace.step_sizes)


class TestOcsaMatchesReference:
    """The Gram-form ascent against the loop that rebuilds its gradient and
    curve system from n-long products (tests/oracles.py)."""

    def _compare(self, graph, Z0, config):
        Z, trace = ocsa(graph, Z0, config)
        Z_ref, ref = ocsa_reference(graph, Z0, config)
        assert trace.iterations == ref.iterations
        assert trace.reason == ref.reason
        assert trace.backtracks == ref.backtracks
        assert np.array_equal(trace.step_sizes, ref.step_sizes)
        np.testing.assert_allclose(trace.objectives, ref.objectives,
                                   rtol=1e-10, atol=0)
        assert np.linalg.norm(Z - Z_ref) <= 1e-10 * np.linalg.norm(Z_ref)
        return trace

    @pytest.mark.parametrize("k", [1, 7])
    def test_seeded_graphs(self, k):
        rng = np.random.default_rng(1000 + k)
        for _ in range(4):
            n = int(rng.integers(k + 8, 60))
            graph = random_graph(rng, n, p=0.2)
            Z0 = random_orthonormal_init(n, k, seed=int(rng.integers(2**31)))
            self._compare(graph, Z0, OcsaConfig(max_iterations=60))

    def test_large_initial_step_backtracks(self):
        rng = np.random.default_rng(77)
        graph = random_graph(rng, 45, p=0.25)
        Z0 = random_orthonormal_init(45, 4, seed=9)
        config = OcsaConfig(max_iterations=30, initial_step=64.0,
                            relative_tolerance=1e-6)
        trace = self._compare(graph, Z0, config)
        assert np.all(trace.step_sizes < config.initial_step)

    def test_cayley_step_error_is_retried(self, monkeypatch):
        rng = np.random.default_rng(78)
        graph = random_graph(rng, 30, p=0.3)
        Z0 = random_orthonormal_init(30, 3, seed=5)
        monkeypatch.setattr(stiefel, "_MAX_BACKTRACKS", 200)
        monkeypatch.setattr(OcsaConfig, "contraction", 0.01)
        config = OcsaConfig(max_iterations=5, initial_step=1e307)
        W = skew_direction(Z0, gradient(graph, Z0))
        with np.errstate(all="ignore"):
            with pytest.raises(CayleyStepError):
                cayley_step(Z0, W, config.initial_step)
            trace = self._compare(graph, Z0, config)
        assert trace.iterations > 0


def test_random_feasible_points_stay_below_eigenvalue_energy(rng):
    """Empirical probe of the global-bound conjecture; warns, never fails."""
    violations = 0
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        k = int(rng.integers(1, n + 1))
        graph = random_graph(rng, n)
        Z = random_orthonormal_init(n, k, seed=int(rng.integers(2**31)))
        bound = float(np.sum(dense_eig_oracle(graph).values[:k] ** 2))
        excess = trace_objective_relaxed(graph, Z) - bound
        if excess > 1e-9:
            violations += 1
            worst = max(worst, excess)
    if violations:
        warnings.warn(f"objective exceeded top-k eigenvalue energy in "
                      f"{violations}/1000 trials (worst excess {worst:.3e})")


_PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("call, error, match", [
    (lambda: skew_direction(np.zeros((4, 2)), np.zeros((4, 3))),
     ValueError, "shape mismatch"),
    (lambda: random_orthonormal_init(4, 0, seed=0),
     ParameterError, "k must be >= 1"),
    (lambda: ocsa(_PATH4, random_orthonormal_init(5, 2, seed=0)),
     ParameterError, "incompatible with n=4"),
], ids=["skew-shapes", "init-k-zero", "ocsa-start-rows"])
def test_rejects_malformed_input(call, error, match):
    with pytest.raises(error, match=match):
        call()
