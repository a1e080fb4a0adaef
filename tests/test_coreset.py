"""Tests for KCenterGreedy selection against the brute-force oracle."""

import numpy as np
import pytest

from instructsmith.coreset import (
    CoresetSelection,
    SelectionFile,
    kcenter_greedy,
    kcenter_radius,
    write_selection,
)
from instructsmith.errors import ConsistencyError
from instructsmith.schema import load
from instructsmith.taskspec import largest_remainder
from kcenter_reference import (
    GuardLimitError,
    kcenter_optimal_bruteforce,
    reference_kcenter_greedy,
)

POINTS_1D = np.array([[0.0], [1.0], [10.0]])


def random_instance(rng, max_n=10, max_k=3, max_dim=4):
    n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(1, min(max_k, n) + 1))
    dim = int(rng.integers(1, max_dim + 1))
    return rng.normal(size=(n, dim)), k


class TestGreedy:
    def test_k_equals_n_selects_everything(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(7, 3))
        sel = kcenter_greedy(mat, k=7, seed=1)
        assert sorted(sel.selected_indices) == list(range(7))
        assert sel.radius_trace[-1] == 0.0

    def test_second_pick_is_farthest_point(self):
        sel = kcenter_greedy(POINTS_1D, k=2, initial=[0])
        assert sel.selected_indices == [0, 2]
        assert sel.radius_trace == [10.0, 1.0]

    def test_fixed_seed_determinism_bitwise(self):
        rng = np.random.default_rng(42)
        mat = rng.normal(size=(50, 6))
        a = kcenter_greedy(mat, k=10, seed=3)
        b = kcenter_greedy(mat, k=10, seed=3)
        assert a.selected_indices == b.selected_indices
        assert a.radius_trace == b.radius_trace

    def test_k_larger_than_n_truncates(self):
        sel = kcenter_greedy(POINTS_1D, k=99, seed=0)
        assert sorted(sel.selected_indices) == [0, 1, 2]

    def test_tie_break_lowest_index(self):
        # both corners of the square are equally far from the start corner;
        # the lower index must win
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sel = kcenter_greedy(square, k=3, initial=[0])
        assert sel.selected_indices[1] == 3
        assert sel.selected_indices[2] == 1

    def test_duplicate_points_still_pick_unique_indices(self):
        mat = np.zeros((5, 2))
        sel = kcenter_greedy(mat, k=4, seed=0)
        assert len(set(sel.selected_indices)) == 4
        assert sel.radius_trace == [0.0] * 4

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            kcenter_greedy(POINTS_1D, k=0)
        with pytest.raises(ValueError):
            kcenter_greedy(np.zeros((0, 2)), k=1)
        with pytest.raises(ValueError):
            kcenter_greedy(POINTS_1D, k=2, initial=[0, 0])
        with pytest.raises(ValueError):
            kcenter_greedy(POINTS_1D, k=2, initial=[5])
        with pytest.raises(ValueError):
            kcenter_greedy(POINTS_1D, k=1, initial=[0, 1])

    def test_non_matrix_input_rejected(self):
        with pytest.raises(ValueError):
            kcenter_greedy(np.ones(3), k=1)
        with pytest.raises(ValueError):
            kcenter_greedy(np.ones((2, 2, 2)), k=1)
        with pytest.raises(ValueError):
            kcenter_radius(np.ones(3), [0])

    def test_cosine_zero_vector_rejected(self):
        mat = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            kcenter_greedy(mat, k=1, metric="cosine_distance")

    def test_cosine_matches_euclidean_on_unit_vectors(self):
        # for unit vectors d^2 = 2 - 2*cos, so greedy pick order agrees
        rng = np.random.default_rng(9)
        mat = rng.normal(size=(40, 5))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        a = kcenter_greedy(mat, k=12, seed=4, metric="euclidean")
        b = kcenter_greedy(mat, k=12, seed=4, metric="cosine_distance")
        assert a.selected_indices == b.selected_indices


class TestReferenceEquivalence:
    """The in-place per-pick update against the reference loop in
    ``kcenter_reference``: identical picks and radius traces, bit for bit."""

    METRICS = ("euclidean", "cosine_distance")

    def assert_same(self, mat, k, metric, seed=0, initial=None):
        sel = kcenter_greedy(mat, k, seed=seed, metric=metric, initial=initial)
        picks, trace = reference_kcenter_greedy(mat, k, seed=seed, metric=metric,
                                                initial=initial)
        assert sel.selected_indices == picks
        assert sel.radius_trace == trace

    @pytest.mark.parametrize("metric", METRICS)
    def test_random_float32_embeddings(self, metric):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n, dim = int(rng.integers(1, 200)), int(rng.integers(1, 24))
            mat = rng.normal(size=(n, dim)).astype(np.float32)
            self.assert_same(mat, int(rng.integers(1, n + 3)), metric,
                             seed=int(rng.integers(1000)))

    @pytest.mark.parametrize("metric", METRICS)
    def test_duplicate_points_tie(self, metric):
        rng = np.random.default_rng(32)
        base = rng.normal(size=(15, 4))
        mat = np.concatenate([base, base, base[:5]])
        for seed in range(5):
            self.assert_same(mat, 30, metric, seed=seed)
        self.assert_same(np.ones((6, 3)), 4, metric)

    @pytest.mark.parametrize("metric", METRICS)
    def test_k_equals_n(self, metric):
        mat = np.random.default_rng(33).normal(size=(25, 5))
        self.assert_same(mat, 25, metric, seed=2)

    @pytest.mark.parametrize("metric", METRICS)
    def test_initial_set(self, metric):
        mat = np.random.default_rng(34).normal(size=(50, 6))
        self.assert_same(mat, 12, metric, initial=[7, 3, 41])
        self.assert_same(mat, 3, metric, initial=[7, 3, 41])


class TestRadius:
    def test_all_points_as_centers(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(6, 2))
        assert kcenter_radius(mat, list(range(6))) == 0.0

    def test_single_center_hand_computed(self):
        mat = np.array([[0.0], [10.0]])
        assert kcenter_radius(mat, [0]) == 10.0

    def test_adding_centers_never_increases_radius(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            mat = rng.normal(size=(8, 3))
            order = list(rng.permutation(8))
            radii = [kcenter_radius(mat, order[:m]) for m in range(1, 9)]
            assert all(b <= a + 1e-12 for a, b in zip(radii, radii[1:]))

    def test_invalid_center_rejected(self):
        with pytest.raises(ValueError):
            kcenter_radius(POINTS_1D, [3])
        with pytest.raises(ValueError):
            kcenter_radius(POINTS_1D, [])


class TestBruteforce:
    def test_k_equals_n_zero_radius(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(4, 2))
        centers, radius = kcenter_optimal_bruteforce(mat, k=4)
        assert centers == [0, 1, 2, 3]
        assert radius == 0.0

    def test_three_point_line_frozen_value(self):
        # with centers restricted to the data points the best cover of
        # {0, 1, 10} by two centers leaves the middle point at distance 1
        centers, radius = kcenter_optimal_bruteforce(POINTS_1D, k=2)
        assert radius == 1.0
        assert centers == [0, 2]

    def test_lexicographic_tie_break(self):
        # symmetric pair of clusters: several optimal subsets exist; the
        # first in combination order must be returned
        mat = np.array([[0.0], [0.0], [5.0], [5.0]])
        centers, radius = kcenter_optimal_bruteforce(mat, k=2)
        assert radius == 0.0
        assert centers == [0, 2]

    def test_guard_limits(self):
        rng = np.random.default_rng(4)
        with pytest.raises(GuardLimitError):
            kcenter_optimal_bruteforce(rng.normal(size=(13, 2)), k=2)
        with pytest.raises(GuardLimitError):
            kcenter_optimal_bruteforce(rng.normal(size=(8, 2)), k=5)
        with pytest.raises(ValueError):
            kcenter_optimal_bruteforce(rng.normal(size=(3, 2)), k=4)


class TestApproximationProperty:
    def test_two_approximation_over_200_instances(self):
        rng = np.random.default_rng(20_2400)
        checked = 0
        for _ in range(220):
            mat, k = random_instance(rng)
            sel = kcenter_greedy(mat, k, seed=int(rng.integers(1_000_000)))
            greedy_radius = kcenter_radius(mat, sel.selected_indices)
            _, best_radius = kcenter_optimal_bruteforce(mat, k)
            assert greedy_radius <= 2.0 * best_radius + 1e-9, (
                f"2-approximation violated: {greedy_radius} > 2*{best_radius}")
            trace = sel.radius_trace
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            checked += 1
        assert checked >= 200

    def test_permutation_equivariance_with_explicit_initial(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n, dim, k = 12, 3, 5
            mat = rng.normal(size=(n, dim))
            perm = rng.permutation(n)
            inv = np.argsort(perm)
            start = int(rng.integers(n))
            sel = kcenter_greedy(mat, k, initial=[start])
            sel_p = kcenter_greedy(mat[perm], k, initial=[int(inv[start])])
            mapped_back = [int(perm[j]) for j in sel_p.selected_indices]
            assert mapped_back == sel.selected_indices
            np.testing.assert_allclose(sel_p.radius_trace, sel.radius_trace,
                                       rtol=0, atol=1e-9)


class TestSelectionType:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CoresetSelection([0, 0], [1.0, 0.5], k=2)
        with pytest.raises(ValueError):
            CoresetSelection([0, 1], [1.0], k=2)
        with pytest.raises(ValueError):
            CoresetSelection([0, 1], [0.5, 1.0], k=2)
        with pytest.raises(ValueError):
            CoresetSelection([0], [1.0], k=1, metric="manhattan")

    def test_file_round_trip(self, tmp_path):
        sel = kcenter_greedy(POINTS_1D, k=2, seed=5, initial=[0])
        ids = ["rec-a", "rec-b", "rec-c"]
        path = tmp_path / "selection.json"
        write_selection(path, sel, ids)
        loaded = load(SelectionFile, path, ConsistencyError)
        assert loaded.k == 2
        assert loaded.seed == 5
        assert loaded.metric == "euclidean"
        assert loaded.selected_ids == ["rec-a", "rec-c"]
        assert loaded.radius_trace == sel.radius_trace


class TestLargestRemainder:
    def test_exact_split(self):
        assert largest_remainder(10, [0.5, 0.3, 0.2]) == [5, 3, 2]

    def test_remainder_goes_to_largest_fraction(self):
        # exact quotas 3.33.., 3.33.., 3.33..; ties by lowest index
        assert largest_remainder(10, [1, 1, 1]) == [4, 3, 3]

    def test_always_sums_to_total(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            weights = list(rng.uniform(0.01, 1.0, size=m))
            total = int(rng.integers(0, 500))
            quotas = largest_remainder(total, weights)
            assert sum(quotas) == total
            assert all(q >= 0 for q in quotas)

    def test_validation(self):
        with pytest.raises(ValueError):
            largest_remainder(-1, [1.0])
        with pytest.raises(ValueError):
            largest_remainder(5, [])
        with pytest.raises(ValueError):
            largest_remainder(5, [0.0, 0.0])
        with pytest.raises(ValueError):
            largest_remainder(5, [-1.0, 2.0])
