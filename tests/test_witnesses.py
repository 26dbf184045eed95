"""Closed-form witness values, feasibility margins, and the degree machinery."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lgcomplexity import lgsolver as lg
from lgcomplexity import structures as st
from lgcomplexity import witnesses as wt
from lgcomplexity.errors import CapacityError, ParameterError


class TestKsubsetWitness:
    def test_objective_4_1(self):
        witness = wt.ksubset_witness(4, 1)
        # alpha at the empty set is C(4,1)^(-1/2) * 4^(1/2) = 1 per certificate
        assert np.allclose(witness.alpha[:, 0], 1.0)
        assert lg.dual_objective(witness) == pytest.approx(2.0, abs=1e-12)

    def test_large_sets_clamp_to_zero(self):
        witness = wt.ksubset_witness(5, 2)
        reach = 5 ** (2 / 3)
        sizes = st.subset_sizes(5)
        big = sizes >= reach
        assert not witness.alpha[:, big].any()

    def test_objective_9_2(self):
        witness = wt.ksubset_witness(9, 2)
        assert lg.dual_objective(witness) == pytest.approx(9 ** (2 / 3), abs=1e-12)
        assert 9 ** (2 / 3) == pytest.approx(4.3267487109, abs=1e-9)

    def test_zero_condition_exhaustive(self):
        for (n, k) in [(4, 1), (5, 2), (6, 3)]:
            cert = st.ksubset_structure(n, k)
            lg.check_zero_condition(cert, wt.ksubset_witness(n, k))

    def test_depends_only_on_size_and_membership(self):
        # invariance under variable permutations mapped through certificates
        n, k = 5, 2
        witness = wt.ksubset_witness(n, k)
        cert = st.ksubset_structure(n, k)
        rng = np.random.default_rng(3)
        for _ in range(5):
            perm = rng.permutation(n) + 1
            for m, certificate in enumerate(cert.certificates):
                gen = certificate.minimal_sets[0]
                image_gen = st.as_mask([perm[j - 1] for j in st.mask_members(gen)])
                m2 = next(
                    idx for idx, c in enumerate(cert.certificates)
                    if c.minimal_sets[0] == image_gen
                )
                for mask in range(0, 1 << n, 3):
                    image = st.as_mask([perm[j - 1] for j in st.mask_members(mask)])
                    assert witness.alpha[m, mask] == pytest.approx(
                        witness.alpha[m2, image]
                    )

    @pytest.mark.parametrize("n,k", [(4, 1), (8, 1), (6, 2)])
    def test_margin_within_case_bound(self, n, k):
        cert = st.ksubset_structure(n, k)
        margin = lg.dual_feasibility_margin(cert, wt.ksubset_witness(n, k))
        case_bound = 1 + n ** (k * (k - 1) / (k + 1)) * n ** (2 * k / (k + 1)) / math.comb(n, k)
        assert margin <= max(case_bound, 8.0) + 1e-9
        assert margin <= 8.0


class TestHiddenShiftWitness:
    def test_objective_8(self):
        witness = wt.hidden_shift_witness(8)
        assert lg.dual_objective(witness) == pytest.approx(2.0, abs=1e-12)

    def test_collision_target_support(self):
        witness = wt.hidden_shift_witness(2, "collision")
        collision = st.collision_structure(2)
        shift_keys = {c.minimal_sets for c in st.hidden_shift_structure(2).certificates}
        for m, certificate in enumerate(collision.certificates):
            has_signal = bool(witness.alpha[m].any())
            assert has_signal == (certificate.minimal_sets in shift_keys)
        assert sum(bool(witness.alpha[m].any()) for m in range(len(collision))) == 2

    def test_margin_4(self):
        cert = st.hidden_shift_structure(4)
        margin = lg.dual_feasibility_margin(cert, wt.hidden_shift_witness(4))
        assert margin <= 2.0 + 1e-9

    def test_set_equality_objective_unchanged(self):
        witness = wt.hidden_shift_witness(3, "set_equality")
        assert lg.dual_objective(witness) == pytest.approx(3 ** (1 / 3), abs=1e-12)

    def test_unknown_target(self):
        with pytest.raises(ParameterError):
            wt.hidden_shift_witness(2, "triangle")


class TestTau:
    def test_plateau_value(self):
        assert wt.tau(3.0, 3.0) == 1.0  # left edge of the plateau

    def test_ramp_start(self):
        assert wt.tau(1.5, 3.0) == 0.0

    def test_descending_ramp(self):
        # (5d - 2x)/d at x = 9d/4 gives 1/2
        d = 3.0
        assert wt.tau(9 * d / 4, d) == pytest.approx(0.5)

    def test_breakpoints_and_continuity(self):
        d = 2.0
        breaks = [d / 2, d, 2 * d, 5 * d / 2]
        xs = np.linspace(-1, 8, 2001)
        vals = wt.tau(xs, d)
        assert np.all((vals >= 0) & (vals <= 1))
        # continuity: no jump bigger than the Lipschitz step of the grid
        assert np.max(np.abs(np.diff(vals))) <= (2 / d) * (xs[1] - xs[0]) + 1e-12
        for x in breaks:
            left = wt.tau(x - 1e-9, d)
            right = wt.tau(x + 1e-9, d)
            assert abs(left - right) <= 1e-8
        # kinks happen exactly at the stated breakpoints
        second = np.diff(vals, 2)
        kink_positions = xs[1:-1][np.abs(second) > 1e-9]
        for x in kink_positions:
            assert min(abs(x - b) for b in breaks) <= (xs[1] - xs[0])

    def test_requires_positive_width(self):
        with pytest.raises(ParameterError):
            wt.tau(1.0, 0.0)


@given(
    x=hst.floats(min_value=-10, max_value=100, allow_nan=False),
    d=hst.floats(min_value=0.1, max_value=10, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_tau_range_and_support(x, d):
    value = wt.tau(x, d)
    assert 0.0 <= value <= 1.0
    if x < d / 2 or x > 5 * d / 2:
        assert value == 0.0
    if d <= x < 2 * d:
        assert value == 1.0


class TestClip01:
    def test_median_of_zero_x_one(self):
        assert wt.clip01(-0.5) == 0.0
        assert wt.clip01(0.3) == pytest.approx(0.3)
        assert wt.clip01(2.0) == 1.0


class TestTriangleConfig:
    def test_levels_cover_max_degree(self):
        for n in (4, 5, 6, 7):
            config = wt.TriangleWitnessConfig.for_vertices(n)
            assert config.threshold == pytest.approx(n ** (3 / 7))
            assert config.interval_bounds[0] == 0.0
            assert config.interval_bounds[-1] >= n
            # doubling boundaries
            for lo, hi in zip(config.interval_bounds[1:-1], config.interval_bounds[2:]):
                assert hi == pytest.approx(2 * lo)

    def test_rejects_short_cover(self):
        with pytest.raises(ParameterError):
            wt.TriangleWitnessConfig(n=6, threshold=2.0, level_ds=(2.0,), level_count=2)


class TestEdgeSubset:
    def test_adjacency_view_matches_bitmask(self):
        n = 5
        rng = np.random.default_rng(0)
        edge_map = st.triangle_edge_map(n)
        for _ in range(20):
            mask = int(rng.integers(0, 1 << len(edge_map)))
            view = wt.EdgeSubset(n, mask)
            edges = {edge_map[i] for i in range(len(edge_map)) if (mask >> i) & 1}
            for v in range(1, n + 1):
                assert view.degree(v) == sum(1 for (a, b) in edges if v in (a, b))
            for u, v in itertools.combinations(range(1, n + 1), 2):
                expected = {
                    w for w in range(1, n + 1) if w not in (u, v)
                    and (tuple(sorted((w, u))) in edges)
                    and (tuple(sorted((w, v))) in edges)
                }
                assert set(view.common_neighbors(u, v)) == expected
            assert len(view) == bin(mask).count("1")


class TestTriangleWitness:
    def test_empty_set_value_exact(self):
        for n in (5, 6):
            witness = wt.triangle_witness(n)
            assert np.all(witness.alpha[:, 0] == n ** (-3 / 14))

    def test_objective_formula(self):
        witness = wt.triangle_witness(6)
        target = math.sqrt(math.comb(6, 3)) * 6 ** (-3 / 14)
        assert target == pytest.approx(3.0462693529, abs=1e-9)
        assert lg.dual_objective(witness) == pytest.approx(target, abs=1e-12)

    def test_zero_condition(self):
        cert = st.triangle_structure(5)
        lg.check_zero_condition(cert, wt.triangle_witness(5))

    def test_bounds_and_support(self):
        n = 5
        witness = wt.triangle_witness(n)
        peak = n ** (-3 / 14)
        assert np.all(witness.alpha >= 0.0)
        assert np.all(witness.alpha <= peak + 1e-15)
        sizes = st.subset_sizes(witness.n)
        beyond = sizes >= n ** (9 / 7)
        assert not witness.alpha[:, beyond].any()

    def test_margin_measured(self):
        for n in (5, 6):
            cert = st.triangle_structure(n)
            margin = lg.dual_feasibility_margin(cert, wt.triangle_witness(n))
            assert math.isfinite(margin)
            assert margin <= 100 * math.log2(n)

    def test_capacity_bounds(self):
        with pytest.raises(CapacityError):
            wt.triangle_witness(2)
        with pytest.raises(CapacityError):
            wt.triangle_witness(8)

    def test_over_cap_refused_before_allocating(self):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="needs n <= 22, got n = 28"):
            wt.triangle_witness(8)
        assert time.perf_counter() - start < 0.1

    def test_scalar_spot_checks_against_direct_evaluation(self):
        # recompute alpha for a handful of subsets straight from the formula,
        # using the EdgeSubset adjacency view as an independent route
        n = 5
        witness = wt.triangle_witness(n)
        config = wt.TriangleWitnessConfig.for_vertices(n)
        cert = st.triangle_structure(n)
        edge_map = st.triangle_edge_map(n)
        triples = list(itertools.combinations(range(1, n + 1), 3))
        rng = np.random.default_rng(11)
        for _ in range(60):
            mask = int(rng.integers(0, 1 << witness.n))
            ci = int(rng.integers(0, len(triples)))
            a, b, c = triples[ci]
            view = wt.EdgeSubset(n, mask)
            present = {
                (x, y): view.has_edge(x, y)
                for (x, y) in ((a, b), (a, c), (b, c))
            }
            missing = [pair for pair, there in present.items() if not there]
            if not missing:
                expected = 0.0
            else:
                g = 0.0
                if len(missing) == 1:
                    e1, e2 = missing[0]
                    third = ({a, b, c} - {e1, e2}).pop()
                    dega = view.degree(third)
                    g += n ** (-3 / 14) * wt.clip01(2.0 - dega / config.threshold)
                    for d in config.level_ds:
                        nu = sum(
                            wt.tau(view.degree(v), d)
                            for v in view.common_neighbors(e1, e2)
                        )
                        g += n ** (-3 / 14) * wt.clip01(
                            min(2.0 * dega / d, nu / config.threshold) - 1.0
                        )
                base = n ** (-3 / 14) - n ** (-1.5) * len(view)
                expected = max(base - g, 0.0)
            assert witness.alpha[ci, mask] == pytest.approx(expected, abs=1e-12)
