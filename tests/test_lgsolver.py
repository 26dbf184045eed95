"""Primal/dual program semantics, solvers, and duality gaps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lgcomplexity import lgsolver as lg
from lgcomplexity import structures as st
from lgcomplexity import witnesses as wt
from lgcomplexity.errors import ConsistencyError, InvariantViolation, StructuralError

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
        flow = lg.FlowAssignment.from_entries(1, 1, {((0, 1), 0): 1.0})
        residuals = lg.flow_residuals(cert, flow)
        assert residuals == {(0, 0): 0.0}

    def test_zero_flow_misses_source_constraint(self):
        cert = single_certificate_structure()
        flow = lg.FlowAssignment.zeros(1, 1)
        assert lg.flow_residuals(cert, flow) == {(0, 0): -1.0}

    def test_one_subset_n2_unit_flows(self):
        # sinks {1} and {2} are members, so no conservation constraints there
        cert = st.ksubset_structure(2, 1)
        flow = lg.FlowAssignment.from_entries(
            2, 2, {((0, 1), 0): 1.0, ((0, 2), 1): 1.0}
        )
        residuals = lg.flow_residuals(cert, flow)
        assert set(residuals.values()) == {0.0}

    def test_arc_outside_lattice(self):
        with pytest.raises(StructuralError):
            lg.FlowAssignment.from_entries(2, 1, {((0b01, 1), 0): 1.0})


class TestConstraintValues:
    def test_unit_flow_unit_weight(self):
        flow = lg.FlowAssignment.from_entries(1, 1, {((0, 1), 0): 1.0})
        weights = lg.WeightAssignment.from_entries(1, {(0, 1): 1.0})
        assert lg.primal_constraint_values(flow, weights) == pytest.approx([1.0])

    def test_zero_over_zero_is_zero(self):
        flow = lg.FlowAssignment.zeros(1, 1)
        weights = lg.WeightAssignment(1, np.zeros(1))
        assert lg.primal_constraint_values(flow, weights) == pytest.approx([0.0])

    def test_flow_on_zero_weight_is_infinite(self):
        flow = lg.FlowAssignment.from_entries(1, 1, {((0, 1), 0): 1.0})
        weights = lg.WeightAssignment(1, np.zeros(1))
        assert lg.primal_constraint_values(flow, weights)[0] == math.inf


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


class TestOptimizeWeights:
    def test_never_worse_than_feasible_reference(self):
        rng = np.random.default_rng(7)
        cert = st.ksubset_structure(3, 1)
        for _ in range(20):
            sol = lg.solve_primal(cert, lg.SolverParams(max_iterations=3))
            flow = sol.flow
            w_ref = lg.WeightAssignment(3, np.maximum(sol.weights.values, 0)
                                        + rng.uniform(0, 0.5, st.arc_count(3)))
            improved = lg.optimize_weights(flow, w_ref)
            values = lg.primal_constraint_values(flow, improved)
            assert np.all(values <= 1.0 + 1e-9)
            assert improved.total <= w_ref.total + 1e-12


class TestDualObjective:
    def test_zero_witness(self):
        assert lg.dual_objective(lg.DualWitness.zeros(2, 3)) == 0.0

    def test_four_unit_entries(self):
        witness = lg.DualWitness.from_entries(
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
        witness = lg.DualWitness.from_entries(2, 2, {((1,), 0): 0.5})
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
        witness = lg.DualWitness.from_entries(2, 2, {((), 0): 0.5})
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
        assert 0.0 <= rep.relative_gap <= 1e-4

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
    flows = np.stack([
        lg._min_energy_flow(n, st.membership_table(cert)[m], w0.values)[0]
        for m in range(n)
    ])
    flow = lg.FlowAssignment(n, flows)
    weights = lg.optimize_weights(flow)
    assert np.all(lg.primal_constraint_values(flow, weights) <= 1 + 1e-9)
    primal_value = math.sqrt(weights.total)
    # feasible witness: random coefficients, zero condition, normalization
    alpha = rng.standard_normal((n, 1 << n))
    alpha[st.membership_table(cert)] = 0.0
    witness = lg.normalize_witness(lg.DualWitness(n, alpha), cert)
    assert lg.dual_objective(witness) <= primal_value + 1e-9
