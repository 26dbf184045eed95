"""Primal/dual program semantics, solvers, and duality gaps."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

from lgcomplexity import lgsolver as lg
from lgcomplexity import structures as st
from lgcomplexity import witnesses as wt
from lgcomplexity.errors import (
    CapacityError,
    ConsistencyError,
    InvariantViolation,
    ParameterError,
    StructuralError,
)
from lattice_helpers import flow_from_entries, weights_from_entries, witness_from_entries

SQRT2 = math.sqrt(2.0)


def single_certificate_structure():
    return st.CertificateStructure(1, (st.Certificate.from_sets([(1,)]),))


def oracle_one_subset_n2() -> float:
    """Independent optimum for the 1-subset structure on two variables.

    Grid search over the symmetric family (direct-arc weight w0, detour-arc
    weight w1, direct flow fraction a), refined around the best cell.  The
    stationary condition at a = 1 gives total weight 2*w0 with w0 = 1, so the
    search brackets sqrt(2).
    """

    def total(w0, w1, a):
        # energy of the unit flow: a direct, 1-a through the other variable
        energy = (a ** 2 + (1 - a) ** 2) / w0 + (1 - a) ** 2 / max(w1, 1e-12)
        if energy > 1.0 + 1e-12:
            return math.inf
        return 2.0 * w0 + 2.0 * w1

    best = math.inf
    grid = np.linspace(0.05, 2.0, 60)
    for w0 in grid:
        for w1 in np.concatenate([[0.0], grid]):
            for a in np.linspace(0.0, 1.0, 41):
                best = min(best, total(w0, w1, a))
    for _ in range(3):  # local refinement around the incumbent
        w0s = np.linspace(0.9, 1.1, 41)
        for w0 in w0s:
            for w1 in np.linspace(0.0, 0.1, 21):
                for a in np.linspace(0.9, 1.0, 21):
                    best = min(best, total(w0, w1, a))
    return math.sqrt(best)


def structure(n: int, *certificates) -> st.CertificateStructure:
    """A structure from each certificate's list of minimal sets."""
    return st.CertificateStructure(n, tuple(st.Certificate.from_sets(c) for c in certificates))


def fit_without_stop(p2: np.ndarray, steps: int) -> np.ndarray:
    """Reference weight fit: plain multiplicative steps on mu from 1, no stop, rescaled tight."""
    mu = np.ones(len(p2))
    for _ in range(steps):
        w = np.sqrt(mu @ p2)
        w = np.maximum(w, 1e-14 * max(1.0, float(w.max())))
        values = (p2 / w).sum(axis=1)
        mu = mu * values
    return w * values.max()


def random_antichain_structures(seed: int, count: int) -> list[st.CertificateStructure]:
    """n in 2..4, 1-4 certificates, each 1-3 pairwise-incomparable random masks."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        certificates = []
        for _ in range(rng.randint(1, 4)):
            masks = []
            for _ in range(rng.randint(1, 3)):
                mask = rng.randrange(1, 1 << n)
                if all(mask & ~other and other & ~mask for other in masks):
                    masks.append(mask)
            certificates.append(st.Certificate(tuple(masks)))
        out.append(st.CertificateStructure(n, tuple(certificates)))
    return out


def exact_unit_decay_witness(n: int) -> lg.DualWitness:
    """alpha_S(M_i) = 1 if i not in S else 0: margin exactly 1, objective sqrt(n)."""
    cert = st.ksubset_structure(n, 1)
    masks = np.arange(1 << n)
    alpha = np.zeros((n, 1 << n))
    for i in range(n):
        alpha[i] = ((masks >> i) & 1) == 0
    return lg.DualWitness(n, alpha)


class TestFlowResiduals:
    def test_unit_direct_flow_feasible(self):
        cert = single_certificate_structure()
        flow = flow_from_entries(1, 1, {((0, 1), 0): 1.0})
        residuals = lg.flow_residuals(cert, flow)
        assert residuals == {(0, 0): 0.0}

    def test_zero_flow_misses_source_constraint(self):
        cert = single_certificate_structure()
        flow = flow_from_entries(1, 1, {})
        assert lg.flow_residuals(cert, flow) == {(0, 0): -1.0}

    def test_one_subset_n2_unit_flows(self):
        # sinks {1} and {2} are members, so no conservation constraints there
        cert = st.ksubset_structure(2, 1)
        flow = flow_from_entries(
            2, 2, {((0, 1), 0): 1.0, ((0, 2), 1): 1.0}
        )
        residuals = lg.flow_residuals(cert, flow)
        assert set(residuals.values()) == {0.0}

    def test_arc_outside_lattice(self):
        with pytest.raises(StructuralError):
            flow_from_entries(2, 1, {((0b01, 1), 0): 1.0})


class TestConstraintValues:
    def test_unit_flow_unit_weight(self):
        flow = flow_from_entries(1, 1, {((0, 1), 0): 1.0})
        weights = weights_from_entries(1, {(0, 1): 1.0})
        assert lg.primal_constraint_values(flow, weights) == pytest.approx([1.0])

    def test_zero_over_zero_is_zero(self):
        flow = flow_from_entries(1, 1, {})
        weights = lg.WeightAssignment(1, np.zeros(1))
        assert lg.primal_constraint_values(flow, weights) == pytest.approx([0.0])

    def test_flow_on_zero_weight_is_infinite(self):
        flow = flow_from_entries(1, 1, {((0, 1), 0): 1.0})
        weights = lg.WeightAssignment(1, np.zeros(1))
        assert lg.primal_constraint_values(flow, weights)[0] == math.inf

    def test_matches_elementwise_reference(self):
        # the per-term quotients, masked, summed per certificate; the sums differ only in
        # order, so to a few ulps of 32 positive terms
        rng = np.random.default_rng(5)
        n, m = 4, 6
        p = rng.standard_normal((m, st.arc_count(n)))
        w = rng.uniform(0.1, 2.0, st.arc_count(n))
        w[[3, 17]] = 0.0
        p[:3, [3, 17]] = 0.0                 # 0/0 terms; the other rows put flow on w = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = p ** 2 / w
        terms[:, w == 0] = 0.0
        terms[(p ** 2 > 0) & (w == 0)] = np.inf
        reference = terms.sum(axis=1)
        values = lg.primal_constraint_values(lg.FlowAssignment(n, p), lg.WeightAssignment(n, w))
        assert np.array_equal(np.isinf(values), [False] * 3 + [True] * 3)
        np.testing.assert_allclose(values[:3], reference[:3], rtol=1e-14, atol=0)
        assert np.array_equal(values[3:], reference[3:])


class TestSolvePrimal:
    def test_single_certificate_unit(self):
        sol = lg.solve_primal(single_certificate_structure())
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_one_subset_n2_sqrt2(self):
        oracle = oracle_one_subset_n2()
        assert oracle == pytest.approx(SQRT2, abs=2e-3)
        sol = lg.solve_primal(st.ksubset_structure(2, 1))
        assert sol.objective == pytest.approx(SQRT2, abs=1e-4)
        assert sol.converged

    def test_one_subset_n4_two(self):
        # sandwich oracle: direct unit flows with unit weights are feasible at
        # sqrt(n), and the unit-decay witness is feasible with the same value
        witness = exact_unit_decay_witness(4)
        cert = st.ksubset_structure(4, 1)
        assert lg.dual_feasibility_margin(cert, witness) == pytest.approx(1.0)
        assert lg.dual_objective(witness) == pytest.approx(2.0)
        sol = lg.solve_primal(cert)
        assert sol.objective == pytest.approx(2.0, abs=1e-3)

    def test_solution_is_feasible(self):
        cert = st.hidden_shift_structure(2)
        sol = lg.solve_primal(cert)
        residuals = lg.flow_residuals(cert, sol.flow)
        assert max(abs(v) for v in residuals.values()) <= 1e-6
        values = lg.primal_constraint_values(sol.flow, sol.weights)
        assert np.all(values <= 1.0 + 1e-6)
        assert np.all(sol.mu >= 0)

    def test_certificate_reordering_invariance(self):
        cert = st.hidden_shift_structure(2)
        shuffled = st.CertificateStructure(
            cert.n, tuple(reversed(cert.certificates))
        )
        a = lg.solve_primal(cert)
        b = lg.solve_primal(shuffled)
        assert abs(a.objective - b.objective) <= 2e-6

    def test_objective_matches_weights(self):
        sol = lg.solve_primal(st.ksubset_structure(2, 1))
        assert sol.objective == pytest.approx(math.sqrt(sol.weights.total))

    @pytest.mark.parametrize("kind,params", [("hidden_shift", (11,)), ("triangle", (7,)),
                                             ("ksubset", (23, 1))])
    def test_over_byte_cap_refused_before_any_table(self, monkeypatch, kind, params):
        def never(*args):
            raise AssertionError("a lattice table was built for a refused job")

        for table in ("membership_table", "arc_orbits", "arc_ends", "subset_orbits",
                      "permute_masks"):
            monkeypatch.setattr(lg, table, never)
        cert = st.build_named_structure(kind, params)
        with pytest.raises(CapacityError, match="over the cap 2147483648"):
            lg.solve_primal(cert)

    @pytest.mark.parametrize("kind,params", [("triangle", (6,)), ("ksubset", (16, 2))])
    def test_byte_cap_admits(self, monkeypatch, kind, params):
        # an admitted job goes on to its membership table, where this one stops unsolved;
        # ksubset(16,2) has 62.9e6 certificate-arc pairs but one representative
        class Admitted(Exception):
            pass

        def admitted(cert):
            raise Admitted

        monkeypatch.setattr(lg, "membership_table", admitted)
        with pytest.raises(Admitted):
            lg.solve_primal(st.build_named_structure(kind, params))


class TestOptimizeWeights:
    def test_repeated_steps_reach_the_fit_with_a_zero_multiplier(self):
        # the optimal mu of the {1 or 2 or 3} certificate is 0, so no
        # constraint test of the form |vals_M - 1| < tol can tell the fit is done
        cert = structure(3, [(3,)], [(2,)], [(1,), (2,), (3,)], [(3,)])
        sol = lg.solve_primal(cert, lg.SolverParams(max_iterations=5))
        p2 = sol.flow.values ** 2
        target = fit_without_stop(p2, 5000).sum()
        mu = np.ones(len(cert))
        for _ in range(60):
            w, mu = lg._optimize_weights(p2, mu)
            if abs(w.sum() - target) <= 1e-10:
                break
        assert w.sum() == pytest.approx(target, abs=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 7.0])
    def test_one_step_on_warm_started_ksubset(self, scale):
        # mu's overall scale is set in closed form, so one step on any multiple
        # of a converged mu gives the converged weights
        sol = lg.solve_primal(st.ksubset_structure(4, 1))
        w, _ = lg._optimize_weights(sol.flow.values ** 2, scale * sol.mu)
        assert_close_relative(w, sol.weights.values, 1e-12)

    def test_closed_form_scale_and_tight_rescale(self):
        rng = np.random.default_rng(5)
        p2 = rng.uniform(0.0, 1.0, (4, 12)) ** 2
        p2[2] = 0.0
        w, mu = lg._optimize_weights(p2, np.ones(4))
        assert mu[2] == 0.0
        values = (p2 / w).sum(axis=1)
        assert abs(values.max() - 1.0) <= 1e-15
        # before the rescale, w is the floored c s with s = sqrt(mu @ p2) and
        # c = sum(s) / sum(mu), the certificate without flow counting as mu = 0
        active = np.array([1.0, 1.0, 0.0, 1.0])
        s = np.sqrt(active @ p2)
        c = s.sum() / active.sum()
        unscaled = lg._conductances(c * s)
        vals = (p2 / unscaled).sum(axis=1)
        top = vals.max()
        assert np.array_equal(w, unscaled * top)
        # at that scale sum(c^2 mu) = sum(w), and mu moves by vals / top
        assert (active * c ** 2).sum() == pytest.approx(unscaled.sum(), rel=1e-12)
        assert np.array_equal(mu, active * c ** 2 * (vals / top))

    def test_ladder_iterations_and_exact_rescale_per_fit(self, monkeypatch):
        # one certificate orbit: every fit returns c^2 times its input mu
        # exactly, so the step does the same arithmetic as a bare rescale
        fit = lg._optimize_weights
        fits = []

        def recorded(p2, mu):
            result = fit(p2, mu)
            fits.append((p2, mu, result[1]))
            return result

        monkeypatch.setattr(lg, "_optimize_weights", recorded)
        for kind, params, iterations in [("ksubset", (4, 1), 40), ("ksubset", (4, 2), 30),
                                         ("hidden_shift", (3,), 170), ("collision", (2,), 30)]:
            fits.clear()
            sol = lg.solve_primal(st.build_named_structure(kind, params))
            assert sol.iterations == iterations
            assert len(fits) == iterations
            for p2, mu, mu_out in fits:
                c = np.sqrt(mu @ p2).sum() / mu.sum()
                assert np.array_equal(mu_out, mu * c ** 2)


class TestDualObjective:
    def test_zero_witness(self):
        assert lg.dual_objective(lg.DualWitness.zeros(2, 3)) == 0.0

    def test_four_unit_entries(self):
        witness = witness_from_entries(
            2, 4, {((), m): 1.0 for m in range(4)}
        )
        assert lg.dual_objective(witness) == pytest.approx(2.0)

    def test_ksubset_8_1(self):
        witness = wt.ksubset_witness(8, 1)
        assert lg.dual_objective(witness) == pytest.approx(math.sqrt(8), abs=1e-12)


class TestFeasibilityMargin:
    def test_zero_witness(self):
        cert = st.ksubset_structure(2, 1)
        assert lg.dual_feasibility_margin(cert, lg.DualWitness.zeros(2, 2)) == 0.0

    def test_hand_witness_margin_one(self):
        # alpha equal to 1 at the empty set and at the other variable's
        # singleton: each arc from the empty set carries (1-0)^2 + (1-1)^2
        cert = st.ksubset_structure(2, 1)
        witness = exact_unit_decay_witness(2)
        assert lg.dual_feasibility_margin(cert, witness) == pytest.approx(1.0)

    def test_zero_condition_violation_names_pair(self):
        cert = st.ksubset_structure(2, 1)
        witness = witness_from_entries(2, 2, {((1,), 0): 0.5})
        with pytest.raises(InvariantViolation) as err:
            lg.dual_feasibility_margin(cert, witness)
        assert "{1}" in str(err.value) and "certificate index 0" in str(err.value)

    def test_ksubset_6_2_measured(self):
        cert = st.ksubset_structure(6, 2)
        margin = lg.dual_feasibility_margin(cert, wt.ksubset_witness(6, 2))
        assert margin <= 3.0
        assert margin == pytest.approx(1.2865912706, abs=1e-9)


class TestNormalizeWitness:
    def test_margin_four_halves(self):
        cert = st.ksubset_structure(2, 1)
        witness = lg.DualWitness(2, 2.0 * exact_unit_decay_witness(2).alpha)
        assert lg.dual_feasibility_margin(cert, witness) == pytest.approx(4.0)
        normalized = lg.normalize_witness(witness, cert)
        assert np.allclose(normalized.alpha, witness.alpha / 2.0)

    def test_feasible_witness_unchanged(self):
        cert = st.ksubset_structure(2, 1)
        witness = exact_unit_decay_witness(2)
        assert lg.normalize_witness(witness, cert) is witness

    def test_zero_witness_unchanged(self):
        cert = st.ksubset_structure(2, 1)
        witness = lg.DualWitness.zeros(2, 2)
        assert lg.normalize_witness(witness, cert) is witness

    def test_composition_on_triangle_witness(self):
        cert = st.triangle_structure(5)
        witness = wt.triangle_witness(5)
        raw = lg.dual_objective(witness)
        margin = lg.dual_feasibility_margin(cert, witness)
        normalized = lg.normalize_witness(witness, cert)
        assert lg.dual_objective(normalized) == pytest.approx(
            raw / math.sqrt(max(margin, 1.0))
        )

    def test_preserves_zero_condition_and_ratios(self):
        cert = st.ksubset_structure(3, 2)
        witness = lg.DualWitness(3, 3.0 * wt.ksubset_witness(3, 2).alpha)
        normalized = lg.normalize_witness(witness, cert)
        lg.check_zero_condition(cert, normalized)
        a, b = witness.alpha, normalized.alpha
        both = (a != 0) & (b != 0)
        ratios = a[both] / b[both]
        assert np.allclose(ratios, ratios.flat[0])


class TestSolveDual:
    def test_single_certificate(self):
        witness = lg.solve_dual(single_certificate_structure())
        assert lg.dual_objective(witness) >= 1.0 - 1e-6

    def test_one_subset_n2(self):
        cert = st.ksubset_structure(2, 1)
        witness = lg.solve_dual(cert)
        assert lg.dual_feasibility_margin(cert, witness) <= 1.0 + 1e-9
        assert lg.dual_objective(witness) >= SQRT2 - 1e-3

    def test_beats_discounted_closed_form(self):
        cert = st.ksubset_structure(4, 2)
        closed = lg.normalize_witness(wt.ksubset_witness(4, 2), cert)
        witness = lg.solve_dual(cert)
        assert lg.dual_objective(witness) >= 0.95 * lg.dual_objective(closed)


class TestDegenerateEmptyMember:
    def test_empty_minimal_set_handled_not_rejected(self):
        # one certificate holds every subset (generated by the empty set),
        # the other needs variable 1: the degenerate one costs nothing and
        # must carry zero witness weight
        cert = st.CertificateStructure(
            2, (st.Certificate((0,)), st.Certificate.from_sets([(1,)]))
        )
        sol = lg.solve_primal(cert)
        assert sol.objective == pytest.approx(1.0, abs=1e-6)
        assert not sol.flow.values[0].any()
        residuals = lg.flow_residuals(cert, sol.flow)
        assert all(abs(v) <= 1e-9 for v in residuals.values())
        assert all(key[0] == 1 for key in residuals)  # no constraints on cert 0
        witness = lg.solve_dual(cert)
        assert witness.alpha[0, 0] == 0.0
        assert lg.dual_objective(witness) >= 1.0 - 1e-3


class TestWitnessSerialization:
    def test_dict_roundtrip(self):
        witness = wt.ksubset_witness(3, 2)
        doc = witness.to_dict()
        assert set(doc) == {"n", "num_certificates", "entries"}
        back = lg.DualWitness.from_dict(doc)
        assert back.n == witness.n
        assert np.array_equal(back.alpha, witness.alpha)

    def test_entries_only_nonzero(self):
        witness = witness_from_entries(2, 2, {((), 0): 0.5})
        entries = witness.to_entries()
        assert entries == [{"subset_mask": 0, "cert_index": 0, "alpha": 0.5}]


class TestDualityReport:
    @pytest.mark.parametrize("n,optimum", [(2, math.sqrt(2)), (3, math.sqrt(3))])
    def test_one_subset_gap(self, n, optimum):
        rep = lg.duality_report(st.ksubset_structure(n, 1))
        assert rep.relative_gap <= 0.02
        assert rep.primal_objective == pytest.approx(optimum, abs=5e-3)
        assert rep.dual_objective == pytest.approx(optimum, abs=5e-3)

    def test_hidden_shift_weak_duality(self):
        rep = lg.duality_report(st.hidden_shift_structure(2))
        assert rep.dual_objective <= rep.primal_objective + 1e-6

    def test_weak_duality_violation_is_reported_not_raised(self, monkeypatch):
        solve = lg.solve_primal

        def scaled(*args, **kwargs):
            sol = solve(*args, **kwargs)
            w = sol.witness
            return dataclasses.replace(sol, witness=lg.DualWitness(w.n, 1.5 * w.alpha, info=w.info))

        monkeypatch.setattr(lg, "solve_primal", scaled)
        rep = lg.duality_report(st.ksubset_structure(2, 1))
        assert rep.dual_objective > rep.primal_objective + 0.7

    def test_solve_dual_is_the_checked_witness(self, monkeypatch):
        def unchecked(cert, primal):
            raise ConsistencyError("primal check ran")

        monkeypatch.setattr(lg, "_check_primal", unchecked)
        with pytest.raises(ConsistencyError, match="primal check ran"):
            lg.solve_dual(st.ksubset_structure(2, 1))


class TestMultiplierWitness:
    @pytest.mark.parametrize("kind,params", [
        ("ksubset", (4, 2)), ("collision", (2,)),
        ("hidden_shift", (3,)), ("set_equality", (3,)),
    ])
    def test_feasible_and_tight(self, kind, params):
        cert = st.build_named_structure(kind, params)
        rep = lg.duality_report(cert)
        lg.check_zero_condition(cert, rep.witness)
        assert lg.dual_feasibility_margin(cert, rep.witness) <= 1.0 + 1e-12
        assert rep.primal.converged
        assert 0.0 <= rep.relative_gap <= lg.SolverParams().tolerance

    def test_one_primal_solve_per_report(self, monkeypatch):
        cert = st.ksubset_structure(3, 1)
        calls = []
        solve = lg.solve_primal

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(lg, "solve_primal", counted)
        rep = lg.duality_report(cert)
        assert len(calls) == 1
        assert np.array_equal(rep.witness.alpha, lg.solve_dual(cert).alpha)

    def test_info_reports_primal_and_gap(self):
        rep = lg.duality_report(st.ksubset_structure(3, 1))
        info = rep.witness.info
        assert info.residual == rep.relative_gap
        assert info.iterations == rep.primal.iterations
        assert info.converged == rep.primal.converged

    def test_perturbed_primal_flow_rejected(self, monkeypatch):
        cert = st.ksubset_structure(3, 1)
        solve = lg.solve_primal

        def perturbed(*args, **kwargs):
            sol = solve(*args, **kwargs)
            values = sol.flow.values.copy()
            values[0, st.arc_index(3, 0, 2)] += 1e-6
            return dataclasses.replace(sol, flow=lg.FlowAssignment(3, values))

        monkeypatch.setattr(lg, "solve_primal", perturbed)
        with pytest.raises(ConsistencyError) as err:
            lg.duality_report(cert)
        assert "certificate index 0" in str(err.value)

    def test_overloaded_primal_weights_rejected(self, monkeypatch):
        cert = st.ksubset_structure(3, 1)
        solve = lg.solve_primal

        def shrunk(*args, **kwargs):
            sol = solve(*args, **kwargs)
            weights = lg.WeightAssignment(3, sol.weights.values * (1 - 1e-6))
            return dataclasses.replace(sol, weights=weights,
                                       objective=math.sqrt(weights.total))

        monkeypatch.setattr(lg, "solve_primal", shrunk)
        with pytest.raises(ConsistencyError, match="primal constraint violated"):
            lg.duality_report(cert)


class TestCertifiedStop:
    """solve_primal stops on the certified duality gap, measured every _GAP_EVERY iterations."""

    LADDER = [("ksubset", (4, 1)), ("ksubset", (4, 2)), ("hidden_shift", (3,)), ("collision", (2,))]

    @pytest.mark.parametrize("kind,params", LADDER)
    def test_residual_is_the_reported_gap(self, kind, params):
        cert = st.build_named_structure(kind, params)
        sol = lg.solve_primal(cert)
        rep = lg.duality_report(cert)
        assert sol.residual == rep.relative_gap == rep.witness.info.residual
        assert sol.iterations % lg._GAP_EVERY == 0

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-6, 1e-9])
    def test_converged_exactly_when_gap_reached(self, tolerance):
        cert = st.build_named_structure("hidden_shift", (3,))
        for max_iterations in (10, 40, 10_000):
            sol = lg.solve_primal(cert, lg.SolverParams(tolerance=tolerance,
                                                        max_iterations=max_iterations))
            assert sol.converged == (sol.residual <= tolerance)
            assert sol.converged or sol.iterations == max_iterations

    @pytest.mark.parametrize("max_iterations", [2, 7])
    def test_iteration_limit_measures_the_gap(self, max_iterations):
        cert = st.build_named_structure("hidden_shift", (3,))
        params = lg.SolverParams(max_iterations=max_iterations)
        sol = lg.solve_primal(cert, params)
        assert sol.iterations == max_iterations
        assert not sol.converged
        assert params.tolerance < sol.residual < 1.0
        rep = lg.duality_report(cert, params)
        assert rep.relative_gap == sol.residual
        assert lg.dual_feasibility_margin(cert, rep.witness) <= 1.0 + 1e-12

    def test_momentum_and_restart(self, monkeypatch):
        # the flows of each step are solved at w (w / w_prev)^_MOMENTUM, and at
        # the fitted weights w alone right after the fitted objective failed to fall
        flow = lg._Quotient.flow
        fit = lg._optimize_weights
        cert = st.ksubset_structure(4, 2)
        # one weight per arc orbit, that of each of its arcs; the fit holds orbit totals
        size = quotient_of(cert).size
        conductances, fitted = [], []

        def recorded_flow(self, w):
            conductances.append(w.copy())
            return flow(self, w)

        def recorded_fit(*args):
            result = fit(*args)
            fitted.append(result[0] / size)
            return result

        monkeypatch.setattr(lg._Quotient, "flow", recorded_flow)
        monkeypatch.setattr(lg, "_optimize_weights", recorded_fit)
        sol = lg.solve_primal(cert)
        objectives = [math.sqrt(w @ size) for w in fitted]
        restarts = 0
        for i in range(2, sol.iterations):
            w, w_prev = fitted[i - 1], fitted[i - 2]
            if objectives[i - 1] < objectives[i - 2]:
                assert np.array_equal(conductances[i], w * (w / w_prev) ** lg._MOMENTUM)
            else:
                restarts += 1
                assert np.array_equal(conductances[i], w)
        assert restarts >= 3


class TestAsymmetricWitness:
    """Structures whose multipliers mu differ between certificates."""

    @pytest.mark.parametrize("n,certificates", [
        (3, ([(2,)], [(3,)], [(3,)])),                  # alpha = nu: gap 0.134
        (4, ([(1, 2)], [(2, 3)], [(3, 4)])),            # alpha = nu: gap 5.0e-2
        (3, ([(1,)], [(2, 3)])),                        # alpha = nu: gap 7.8e-2
    ], ids=["2-3-3", "path-12-23-34", "1-23"])
    def test_named_case_tight(self, n, certificates):
        cert = structure(n, *certificates)
        rep = lg.duality_report(cert)
        assert lg.dual_feasibility_margin(cert, rep.witness) <= 1.0 + 1e-12
        assert rep.primal.converged
        assert 0.0 <= rep.relative_gap <= lg.SolverParams().tolerance

    def test_seeded_sweep_tight(self):
        for cert in random_antichain_structures(seed=0, count=40):
            rep = lg.duality_report(cert)
            assert lg.dual_feasibility_margin(cert, rep.witness) <= 1.0 + 1e-12
            assert rep.primal.converged, cert
            assert rep.relative_gap <= lg.SolverParams().tolerance, cert
            assert rep.primal.iterations <= 300, cert

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 4, 5])
    def test_returned_weights_are_the_fit_to_the_returned_flows(self, monkeypatch, max_iterations):
        # the flows of a momentum step are solved at extrapolated weights; those
        # must never be reported, only the weight fit to the flows they gave
        fit = lg._optimize_weights
        last = []

        def recorded(p2, mu):
            result = fit(p2, mu)
            last[:] = [p2, result[0]]
            return result

        monkeypatch.setattr(lg, "_optimize_weights", recorded)
        params = lg.SolverParams(max_iterations=max_iterations)
        for cert in random_antichain_structures(seed=0, count=40):
            sol = lg.solve_primal(cert, params)
            p2, w = last
            assert np.array_equal(sol.flow.values ** 2, p2), cert
            assert np.array_equal(sol.weights.values, w), cert
            lg._check_primal(cert, sol)


def direct_flow(n: int, member_row: np.ndarray, w: np.ndarray):
    """Reference electrical flow: the grounded Laplacian summed arc by arc, sparse LU solve."""
    src, _, dst = st.arc_arrays(n)
    c = np.maximum(w, 1e-14 * max(1.0, float(w.max())))
    nodes = np.flatnonzero(~member_row)
    pos = np.full(1 << n, -1)
    pos[nodes] = np.arange(len(nodes))
    u, v = pos[src], pos[dst]
    entries = []  # (row, col, value); members are upward closed, so v >= 0 implies u >= 0
    for keep, rows, cols, sign in ((u >= 0, u, u, 1.0), (v >= 0, v, v, 1.0),
                                   (v >= 0, u, v, -1.0), (v >= 0, v, u, -1.0)):
        entries.append((rows[keep], cols[keep], sign * c[keep]))
    rows, cols, values = (np.concatenate(part) for part in zip(*entries))
    size = len(nodes)
    lap = scipy.sparse.coo_matrix((values, (rows, cols)), shape=(size, size)).tocsc()
    b = np.zeros(size)
    b[pos[0]] = 1.0
    potential = np.zeros(1 << n)
    # a symmetric fill-reducing order: 0.35 s on ksubset(12,2)'s 3072 nodes against 2.1 s
    potential[nodes] = scipy.sparse.linalg.spsolve(lap, b, permc_spec="MMD_AT_PLUS_A")
    return c * (potential[src] - potential[dst]), potential


def quotient_of(cert: st.CertificateStructure):
    """solve_primal's quotient of the structure."""
    return lg._Quotient(st.structure_symmetry(cert), st.membership_table(cert))


def lattice_flow(cert: st.CertificateStructure, w: np.ndarray):
    """Per-arc flows and per-subset potentials of every certificate, each solved on its own
    grounded lattice: the structure without its kind has the trivial group."""
    quotient = quotient_of(st.CertificateStructure(cert.n, cert.certificates))
    potential = quotient.flow(w)[1][quotient.expand_at]
    return lg._arc_flows(potential, lg._conductances(w)), potential


def assert_close_relative(actual, expected, rtol):
    scale = float(np.abs(expected).max())
    assert float(np.abs(actual - expected).max()) <= rtol * scale


class TestLaplacianSolve:
    """Above the dense cut, one Jacobi-PCG per representative, residual-checked, refined once,
    with a sparse LU fallback."""

    N = 10  # ksubset(10,1): 512 non-member subsets per certificate

    def weights(self, spread: bool) -> np.ndarray:
        rng = np.random.default_rng(7)
        num_arcs = st.arc_count(self.N)
        return 10.0 ** rng.uniform(-10, 0, num_arcs) if spread else np.ones(num_arcs)

    def test_lattice_is_above_the_dense_cut(self):
        member = st.membership_table(st.ksubset_structure(self.N, 1))
        assert int((~member[0]).sum()) > lg._DENSE_NODE_CUT

    @pytest.mark.parametrize("spread", [False, True], ids=["uniform", "spread-1e-10"])
    def test_cg_matches_direct_solve(self, spread):
        n = self.N
        cert = st.ksubset_structure(n, 1)
        member = st.membership_table(cert)
        w = self.weights(spread)
        p, potential = lattice_flow(cert, w)
        for m in range(len(cert)):
            p_ref, potential_ref = direct_flow(n, member[m], w)
            assert_close_relative(p[m], p_ref, 1e-10)
            assert_close_relative(potential[m], potential_ref, 1e-10)
        residuals = lg.flow_residuals(cert, lg.FlowAssignment(n, p))
        assert max(abs(r) for r in residuals.values()) <= 1e-12

    def first_certificate(self) -> st.CertificateStructure:
        """ksubset(N,1)'s first certificate alone."""
        return st.CertificateStructure(self.N, st.ksubset_structure(self.N, 1).certificates[:1])

    @staticmethod
    def count_direct_solves(monkeypatch) -> list:
        calls = []
        spsolve = scipy.sparse.linalg.spsolve

        def counted(*args, **kwargs):
            calls.append(kwargs.get("permc_spec"))
            return spsolve(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", counted)
        return calls

    @pytest.mark.parametrize("spread", [False, True], ids=["uniform", "spread-1e-10"])
    def test_cg_answer_accepted(self, monkeypatch, spread):
        calls = self.count_direct_solves(monkeypatch)
        lattice_flow(self.first_certificate(), self.weights(spread))
        assert not calls

    @staticmethod
    def spoil_pcg(monkeypatch, spoil) -> list:
        """Pass every _jacobi_pcg answer x through spoil(representative, refining, x).

        Representatives are solved in order, each by one PCG on its own CSR
        matrix and, if that answer is refused, one refinement on the same
        matrix, so a new matrix starts the next representative.  Returns the
        representative of each call, in call order.
        """
        pcg = lg._jacobi_pcg
        laps, calls = [], []

        def spoiled(lap, b, diag):
            if not laps or laps[-1] is not lap:
                laps.append(lap)
            refining = len(laps) - 1 in calls
            calls.append(len(laps) - 1)
            x = pcg(lap, b, diag)
            spoil(calls[-1], refining, x)
            return x

        monkeypatch.setattr(lg, "_jacobi_pcg", spoiled)
        return calls

    @classmethod
    def fail_pcg(cls, monkeypatch, failure: str, failed: int) -> list:
        """Make both PCG answers of representative failed zero or wrong by 1e-6.

        Its first answer is refused and its refinement spoiled the same way,
        so refinement cannot repair it.
        """
        def spoil(k, refining, x):
            if k != failed:
                return
            if failure == "stopped":
                x[:] = 0.0           # as if PCG stopped before its first step
            else:
                x[0] += 1e-6         # a converged-looking answer that is wrong

        return cls.spoil_pcg(monkeypatch, spoil)

    @pytest.mark.parametrize("failure", ["stopped", "wrong-x"])
    def test_fallback_gives_the_direct_solve(self, monkeypatch, failure):
        pcg_calls = self.fail_pcg(monkeypatch, failure, 0)
        calls = self.count_direct_solves(monkeypatch)
        n = self.N
        member = st.membership_table(st.ksubset_structure(n, 1))
        w = self.weights(False)
        p, potential = lattice_flow(self.first_certificate(), w)
        assert pcg_calls == [0, 0]
        assert calls == ["MMD_AT_PLUS_A"]
        p_ref, potential_ref = direct_flow(n, member[0], w)
        assert_close_relative(p[0], p_ref, 1e-10)
        assert_close_relative(potential[0], potential_ref, 1e-10)

    @pytest.mark.parametrize("failure", ["stopped", "wrong-x"])
    def test_fallback_only_for_the_failed_certificate(self, monkeypatch, failure):
        n, failed = self.N, 3
        cert = st.ksubset_structure(n, 1)
        member = st.membership_table(cert)
        w = self.weights(True)
        p_pcg, potential_pcg = lattice_flow(cert, w)
        pcg_calls = self.fail_pcg(monkeypatch, failure, failed)
        calls = self.count_direct_solves(monkeypatch)
        p, potential = lattice_flow(cert, w)
        assert pcg_calls == [0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 9]
        assert calls == ["MMD_AT_PLUS_A"]
        others = np.arange(n) != failed
        assert np.array_equal(p[others], p_pcg[others])
        assert np.array_equal(potential[others], potential_pcg[others])
        p_ref, potential_ref = direct_flow(n, member[failed], w)
        assert_close_relative(p[failed], p_ref, 1e-10)
        assert_close_relative(potential[failed], potential_ref, 1e-10)

    def test_refinement_repairs_a_refused_answer(self, monkeypatch):
        # only representative 3's first answer is wrong; one more PCG on the true residual
        # mends it
        def wrong_once(k, refining, x):
            if k == 3 and not refining:
                x[0] += 1e-6

        pcg_calls = self.spoil_pcg(monkeypatch, wrong_once)
        calls = self.count_direct_solves(monkeypatch)
        n = self.N
        cert = st.ksubset_structure(n, 1)
        member = st.membership_table(cert)
        w = self.weights(True)
        p, potential = lattice_flow(cert, w)
        assert not calls
        assert pcg_calls == [0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 9]
        p_ref, potential_ref = direct_flow(n, member[3], w)
        assert_close_relative(p[3], p_ref, 1e-10)
        assert_close_relative(potential[3], potential_ref, 1e-10)

    def test_fallback_keeps_a_repeated_entry_pattern(self, monkeypatch):
        # hidden_shift(7)'s 315-node quotient joins some node pairs by several classes, which
        # its CSR pattern holds as repeated entries; spsolve sums those in place, so the
        # fallback must not hand it the block's own index arrays
        cert = st.build_named_structure("hidden_shift", (7,))
        member = st.membership_table(cert)
        quotient = quotient_of(cert)
        (block,) = quotient.blocks
        rows = np.repeat(np.arange(block.size), np.diff(block.indptr))
        assert len(np.unique(rows * block.size + block.indices)) < len(block.indices)
        indices, indptr = block.indices.copy(), block.indptr.copy()
        w = np.random.default_rng(11).uniform(0.1, 2.0, len(quotient.size))
        p_ref, potential_ref = direct_flow(cert.n, member[0], w[quotient.arc_orbit])

        def flow():
            potential = quotient.flow(w)[1][quotient.expand_at]
            p = lg._arc_flows(potential, lg._conductances(w[quotient.arc_orbit]))
            assert_close_relative(p[0], p_ref, 1e-10)
            assert_close_relative(potential[0], potential_ref, 1e-10)

        with monkeypatch.context() as patch:
            pcg_calls = self.fail_pcg(patch, "wrong-x", 0)
            calls = self.count_direct_solves(patch)
            flow()
        assert (pcg_calls, calls) == ([0, 0], ["MMD_AT_PLUS_A"])
        assert np.array_equal(block.indices, indices) and np.array_equal(block.indptr, indptr)
        flow()

    def test_spread_weights_raise_no_floating_point_error(self, monkeypatch):
        # at conductances spread over ten decades each representative's PCG takes its own
        # number of steps; a 0/0, overflow or underflow in any recurrence raises here
        calls = self.count_direct_solves(monkeypatch)
        n = self.N
        cert = st.ksubset_structure(n, 1)
        with np.errstate(all="raise"):
            p, _ = lattice_flow(cert, self.weights(True))
        assert not calls
        # the conservation residual at a non-member node is exactly +-(L x - b)
        residuals = lg.flow_residuals(cert, lg.FlowAssignment(n, p))
        assert max(abs(r) for r in residuals.values()) <= 1e-12

    def test_sparse_path_iteration_count(self):
        # hidden_shift(7)'s one representative has a 315-node quotient, above the cut;
        # duality_report runs _check_primal on the certified primal
        cert = st.build_named_structure("hidden_shift", (7,))
        quotient = quotient_of(cert)
        assert [block.size for block in quotient.blocks] == [315]
        report = lg.duality_report(cert)
        assert (report.primal.iterations, report.primal.converged) == (520, True)

    @staticmethod
    def run_fresh(code: str) -> None:
        """Run code in a fresh interpreter that imports this checkout's lgcomplexity."""
        source = str(Path(lg.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [source, *filter(None, [os.environ.get("PYTHONPATH")])])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_workloads_import_nothing(self):
        # every quotient of these jobs is dense, so scipy.sparse never loads, and
        # nothing else may load inside a job either: each would be paid by its run
        self.run_fresh("""
import json, sys, tempfile
import lgcomplexity.cli, lgcomplexity.reporting
assert 'scipy.sparse' not in sys.modules, 'scipy.sparse imported'
from lgcomplexity import adversary as adv, arrays as ar, lgsolver as lg, reporting as rp
from lgcomplexity import structures as st, witnesses as wt
config, errors = rp.validate_config({})
assert not errors, errors
bounded = st.ksubset_structure(3, 2)
instance = ar.build_bounded_instance(bounded, 8)
witness = lg.normalize_witness(wt.ksubset_witness(3, 2), bounded)
ladder = [st.build_named_structure(kind, params) for kind, params in
          (('ksubset', (4, 1)), ('ksubset', (4, 2)), ('hidden_shift', (3,)), ('collision', (2,)))]
large = st.ksubset_structure(12, 1)
before = set(sys.modules)
report = rp.run_suite(config)
json.dumps(report.to_dict())
with tempfile.TemporaryDirectory() as out:
    rp.write_report(report, out)
ratio = adv.adversary_ratio(instance, witness)
adv.bounded_norm_certificates(instance, witness, 1)
json.dumps(ratio.to_dict(witness_hash='0'))
for cert in ladder:
    lg.duality_report(cert)
lg.solve_primal(large, lg.SolverParams(max_iterations=2))
gained = sorted(set(sys.modules) - before)
assert not gained, gained
""")

    def test_solve_above_the_cut_imports_scipy_sparse(self, tmp_path):
        # an accepted PCG answer needs neither scipy.sparse.linalg nor csgraph; csgraph's
        # connected_components would label orbits, but its import alone costs more than
        # the union-find in structures
        n, path = self.N, tmp_path / "potential.npy"
        self.run_fresh(f"""
import sys
import numpy as np
from lgcomplexity import lgsolver as lg, structures as st
plain = st.CertificateStructure({n}, st.ksubset_structure({n}, 1).certificates)
quotient = lg._Quotient(st.structure_symmetry(plain), st.membership_table(plain))
assert 'scipy.sparse' not in sys.modules, 'scipy.sparse imported'
potential = quotient.flow(np.ones(st.arc_count({n})))[1][quotient.expand_at]
assert 'scipy.sparse' in sys.modules, 'scipy.sparse not imported'
for name in ('scipy.sparse.linalg', 'scipy.sparse.csgraph'):
    assert name not in sys.modules, name + ' imported'
np.save({str(path)!r}, potential)
""")
        potential = np.load(path)
        member = st.membership_table(st.ksubset_structure(n, 1))
        for m in range(n):
            assert_close_relative(potential[m], direct_flow(n, member[m], self.weights(False))[1],
                                  1e-10)

    def test_reference_objective_ksubset_12_1(self):
        cert = st.ksubset_structure(12, 1)
        sol = lg.solve_primal(cert, lg.SolverParams(max_iterations=2))
        assert sol.objective == pytest.approx(3.475237716976325, rel=1e-12)
        lg._check_primal(cert, sol)


class TestStackedLaplacian:
    """Below the dense cut, one dense solve per representative."""

    @staticmethod
    def flows_match_direct_solves(cert: st.CertificateStructure) -> None:
        n = cert.n
        member = st.membership_table(cert)
        w = np.random.default_rng(3).uniform(0.1, 2.0, st.arc_count(n))
        p, potential = lattice_flow(cert, w)
        for m in range(len(cert)):
            if member[m, 0]:
                assert not p[m].any() and not potential[m].any()
                continue
            p_ref, potential_ref = direct_flow(n, member[m], w)
            assert_close_relative(p[m], p_ref, 1e-10)
            assert_close_relative(potential[m], potential_ref, 1e-10)

    def test_one_dense_solve_per_representative(self, monkeypatch):
        # {1,2} and {1,3} leave 6 non-member subsets and {3} leaves 4; without
        # symmetry each certificate is its own representative, solved in order
        cert = structure(3, [(1, 2)], [(3,)], [(1, 3)])
        assert list((~st.membership_table(cert)).sum(axis=1)) == [6, 4, 6]
        solve = np.linalg.solve
        calls = []

        def counted(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        self.flows_match_direct_solves(cert)
        assert calls == [(6, 6), (4, 4), (6, 6)]

    def test_empty_set_member_gives_zero_rows(self):
        cert = st.CertificateStructure(
            3, (st.Certificate((0,)),
                st.Certificate.from_sets([(1,)]), st.Certificate.from_sets([(2, 3)]))
        )
        self.flows_match_direct_solves(cert)

    def test_ksubset_4_2(self):
        self.flows_match_direct_solves(st.ksubset_structure(4, 2))

    @pytest.mark.parametrize("kind,params,iterations", [
        ("ksubset", (4, 1), 40), ("ksubset", (4, 2), 30),
        ("hidden_shift", (3,), 170), ("collision", (2,), 30),
    ])
    def test_ladder_iteration_counts(self, kind, params, iterations):
        sol = lg.solve_primal(st.build_named_structure(kind, params))
        assert sol.iterations == iterations


class TestCertificateOrbits:
    """One quotient solve and one weight fit per certificate orbit, expanded by one gather."""

    @pytest.mark.parametrize("kind,params", [
        ("ksubset", (10, 1)), ("ksubset", (4, 2)), ("triangle", (4,)),
        ("collision", (2,)), ("hidden_shift", (3,)), ("set_equality", (3,)),
        ("triangle", (5,)), ("hidden_shift", (6,)), ("ksubset", (12, 2)),
    ])
    def test_expansion_matches_direct_solves(self, kind, params):
        cert = st.build_named_structure(kind, params)
        n = cert.n
        member = st.membership_table(cert)
        quotient = quotient_of(cert)
        assert len(quotient.reps) == 1
        rng = np.random.default_rng(11)
        w = rng.uniform(0.1, 2.0, len(quotient.size))
        potential = quotient.flow(w)[1][quotient.expand_at]
        w = w[quotient.arc_orbit]
        p = lg._arc_flows(potential, lg._conductances(w))
        # every certificate, and every 13th of ksubset(12,2)'s 66
        for m in range(0, len(cert), 13 if len(cert) > 20 else 1):
            p_ref, potential_ref = direct_flow(n, member[m], w)
            assert_close_relative(p[m], p_ref, 1e-10)
            assert_close_relative(potential[m], potential_ref, 1e-10)

    def test_trivial_group_is_the_identity(self):
        cert = structure(3, [(1, 2)], [(3,)], [(1, 3)])
        member = st.membership_table(cert)
        quotient = quotient_of(cert)
        assert list(quotient.reps) == [0, 1, 2] and list(quotient.rep_of) == [0, 1, 2]
        assert np.array_equal(quotient.count, np.ones(3))
        assert np.array_equal(quotient.size, np.ones(st.arc_count(3)))
        w = np.linspace(0.5, 2.0, 12)
        p2, potentials = quotient.flow(w)
        p, potential = lattice_flow(cert, w)
        assert np.array_equal(potentials[quotient.expand_at], potential)
        # the per-orbit sums of squared class flows are the squared arc flows, bit for bit;
        # with unit orbit sizes and counts solve_primal's fit is then _optimize_weights on
        # the squared flows (test_returned_weights_are_the_fit_to_the_returned_flows)
        assert np.array_equal(p2, p ** 2)

    @pytest.mark.parametrize("kind,params", [("ksubset", (6, 2)), ("triangle", (4,))])
    def test_weights_are_exactly_invariant(self, monkeypatch, kind, params):
        cert = st.build_named_structure(kind, params)
        conductances = []
        flow = lg._Quotient.flow

        def recorded(self, w):
            conductances.append(w.copy())
            return flow(self, w)

        monkeypatch.setattr(lg._Quotient, "flow", recorded)
        sol = lg.solve_primal(cert, lg.SolverParams(max_iterations=25))
        labels = quotient_of(cert).arc_orbit
        # the quotient is solved at one conductance per arc orbit
        assert {w.shape for w in conductances} == {(labels.max() + 1,)}
        w = sol.weights.values
        first = w[np.unique(labels, return_index=True)[1]]
        assert np.array_equal(w, first[labels])
        assert np.array_equal(sol.mu, np.full(len(cert), sol.mu[0]))

    @pytest.mark.parametrize("kind,params", [("ksubset", (12, 2)), ("triangle", (6,))])
    def test_one_pcg_block_per_iteration(self, monkeypatch, kind, params):
        pcg = lg._jacobi_pcg
        blocks = []

        def counted(lap, b, diag):
            blocks.append(len(b))
            return pcg(lap, b, diag)

        monkeypatch.setattr(lg, "_jacobi_pcg", counted)
        cert = st.build_named_structure(kind, params)
        sol = lg.solve_primal(cert, lg.SolverParams(max_iterations=2))
        # ksubset(12,2)'s quotient has 22 nodes and is solved dense; triangle(6)'s has
        # 1188: one PCG per iteration, and its second answer is refined once
        assert blocks == {"ksubset": [], "triangle": [1188] * 3}[kind]
        lg._check_primal(cert, sol)

    def test_planted_wrong_mask_map_fails_the_primal_check(self, monkeypatch):
        # certificate 1 expanded by certificate 2's group element: its potentials stay
        # zero on its own members, so the witness is admissible but the flows do not conserve
        permute = st.permute_masks

        def planted(g, n):
            images = permute(g, n)
            images[1] = images[2]
            return images

        monkeypatch.setattr(lg, "permute_masks", planted)
        with pytest.raises(ConsistencyError, match="conservation violated: certificate index 1"):
            lg.duality_report(st.ksubset_structure(4, 1), lg.SolverParams(max_iterations=10))


class TestSolverParams:
    @pytest.mark.parametrize("iterations", [0, -3])
    def test_nonpositive_iteration_limit_rejected(self, iterations):
        with pytest.raises(ParameterError, match="max_iterations"):
            lg.SolverParams(max_iterations=iterations)

    @pytest.mark.parametrize("iterations", [2.5, 10.0, "10", True])
    def test_non_integer_iteration_limit_rejected(self, iterations):
        with pytest.raises(ParameterError, match="max_iterations must be an integer"):
            lg.SolverParams(max_iterations=iterations)

    @pytest.mark.parametrize("tolerance,slack", [(1e-6, 1e-6), (1e-3, 1e-3), (1e-12, 1e-9)])
    def test_weak_duality_slack(self, tolerance, slack):
        assert lg.SolverParams(tolerance=tolerance).weak_duality_slack == slack


@given(
    data=hst.data(),
    n=hst.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_weak_duality_random_feasible_pairs(data, n):
    """Any feasible flow/weight pair dominates any feasible witness."""
    cert = st.ksubset_structure(n, 1)
    seed = data.draw(hst.integers(min_value=0, max_value=2 ** 16))
    rng = np.random.default_rng(seed)
    # feasible primal pair: exact flows for random weights, then fitted weights
    w0 = lg.WeightAssignment(n, rng.uniform(0.1, 2.0, st.arc_count(n)))
    flows = lattice_flow(cert, w0.values)[0]
    flow = lg.FlowAssignment(n, flows)
    weights = lg.WeightAssignment(n, lg._optimize_weights(flow.values ** 2, np.ones(n))[0])
    assert np.all(lg.primal_constraint_values(flow, weights) <= 1 + 1e-9)
    primal_value = math.sqrt(weights.total)
    # feasible witness: random coefficients, zero condition, normalization
    alpha = rng.standard_normal((n, 1 << n))
    alpha[st.membership_table(cert)] = 0.0
    witness = lg.normalize_witness(lg.DualWitness(n, alpha), cert)
    assert lg.dual_objective(witness) <= primal_value + 1e-9
