"""Primal/dual program semantics, solvers, and duality gaps."""

import dataclasses
import math
import random

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

    @pytest.mark.parametrize("kind,params", [("hidden_shift", (11,)), ("triangle", (7,)),
                                             ("ksubset", (23, 1))])
    def test_over_byte_cap_refused_before_any_table(self, monkeypatch, kind, params):
        def never(*args):
            raise AssertionError("a lattice table was built for a refused job")

        monkeypatch.setattr(lg, "membership_table", never)
        monkeypatch.setattr(lg, "arc_arrays", never)
        cert = st.build_named_structure(kind, params)
        with pytest.raises(CapacityError, match="over the cap 2147483648"):
            lg.solve_primal(cert)

    def test_byte_cap_admits_triangle_six(self):
        cert = st.triangle_structure(6)
        assert len(cert) * st.arc_count(cert.n) * lg._PAIR_BYTES <= lg.PRIMAL_BYTE_CAP


class TestOptimizeWeights:
    def test_certified_stop_with_a_zero_multiplier(self):
        # the optimal mu of the {1 or 2 or 3} certificate is 0, so no
        # constraint test of the form |vals_M - 1| < tol can end the fit
        cert = structure(3, [(3,)], [(2,)], [(1,), (2,), (3,)], [(3,)])
        sol = lg.solve_primal(cert, lg.SolverParams(max_iterations=5))
        p2 = sol.flow.values ** 2
        w, _, steps = lg._optimize_weights(p2, np.ones(len(cert)))
        assert steps <= 60
        assert w.sum() == pytest.approx(fit_without_stop(p2, 5000).sum(), abs=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 7.0])
    def test_one_step_on_warm_started_ksubset(self, scale):
        # mu's overall scale is set in closed form, so any multiple of a
        # converged mu fits in one step
        sol = lg.solve_primal(st.ksubset_structure(4, 1))
        _, _, steps = lg._optimize_weights(sol.flow.values ** 2, scale * sol.mu)
        assert steps == 1

    def test_closed_form_scale_and_tight_rescale(self):
        # at this seed the fit ends at the 200-step cap, not at the certified stop
        rng = np.random.default_rng(5)
        p2 = rng.uniform(0.0, 1.0, (4, 12)) ** 2
        p2[2] = 0.0
        w, mu, _ = lg._optimize_weights(p2, np.ones(4))
        assert mu[2] == 0.0
        values = (p2 / w).sum(axis=1)
        assert abs(values.max() - 1.0) <= 1e-15
        # the returned mu is at its optimal scale: w before the rescale is
        # sqrt(mu @ p2), whose total equals sum(mu)
        unscaled = np.sqrt(mu @ p2)
        assert np.allclose(w, unscaled * (p2 / unscaled).sum(axis=1).max(), rtol=1e-12, atol=0)
        assert mu.sum() == pytest.approx(unscaled.sum(), rel=1e-12)

    def test_ladder_iterations_and_one_step_per_fit(self, monkeypatch):
        fit = lg._optimize_weights
        steps = []

        def counted(*args):
            result = fit(*args)
            steps.append(result[2])
            return result

        monkeypatch.setattr(lg, "_optimize_weights", counted)
        for kind, params, iterations in [("ksubset", (4, 1), 658), ("ksubset", (4, 2), 17),
                                         ("hidden_shift", (3,), 495), ("collision", (2,), 18)]:
            steps.clear()
            sol = lg.solve_primal(st.build_named_structure(kind, params))
            assert sol.iterations == iterations
            assert steps == [1] * iterations


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
        assert 0.0 <= rep.relative_gap <= 1e-4

    def test_seeded_sweep_tight(self):
        for cert in random_antichain_structures(seed=0, count=40):
            rep = lg.duality_report(cert)
            assert lg.dual_feasibility_margin(cert, rep.witness) <= 1.0 + 1e-12
            assert rep.relative_gap <= 1e-4, cert


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
    potential[nodes] = scipy.sparse.linalg.spsolve(lap, b)
    return c * (potential[src] - potential[dst]), potential


def assert_close_relative(actual, expected, rtol):
    scale = float(np.abs(expected).max())
    assert float(np.abs(actual - expected).max()) <= rtol * scale


class TestLaplacianSolve:
    """Above the dense cut, Jacobi-CG with a residual-checked sparse LU fallback."""

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
        p, potential = lg._StackedLaplacian(n, member).flow(w)
        for m in range(len(cert)):
            p_ref, potential_ref = direct_flow(n, member[m], w)
            assert_close_relative(p[m], p_ref, 1e-10)
            assert_close_relative(potential[m], potential_ref, 1e-10)
        residuals = lg.flow_residuals(cert, lg.FlowAssignment(n, p))
        assert max(abs(r) for r in residuals.values()) <= 1e-12

    @staticmethod
    def count_direct_solves(monkeypatch) -> list:
        calls = []
        spsolve = scipy.sparse.linalg.spsolve

        def counted(*args, **kwargs):
            calls.append(1)
            return spsolve(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", counted)
        return calls

    @pytest.mark.parametrize("spread", [False, True], ids=["uniform", "spread-1e-10"])
    def test_cg_answer_accepted(self, monkeypatch, spread):
        calls = self.count_direct_solves(monkeypatch)
        member = st.membership_table(st.ksubset_structure(self.N, 1))
        lg._StackedLaplacian(self.N, member[:1]).flow(self.weights(spread))
        assert not calls

    @pytest.mark.parametrize("failure", ["info", "wrong-x"])
    def test_fallback_gives_the_direct_solve(self, monkeypatch, failure):
        cg = scipy.sparse.linalg.cg

        def failing(A, b, **kwargs):
            x, info = cg(A, b, **kwargs)
            if failure == "info":
                return x, 1
            x = x.copy()
            x[0] *= 1.0 + 1e-6  # a converged-looking answer that is wrong
            return x, 0

        monkeypatch.setattr(scipy.sparse.linalg, "cg", failing)
        calls = self.count_direct_solves(monkeypatch)
        n = self.N
        member = st.membership_table(st.ksubset_structure(n, 1))
        w = self.weights(False)
        p, potential = lg._StackedLaplacian(n, member[:1]).flow(w)
        assert len(calls) == 1
        p_ref, potential_ref = direct_flow(n, member[0], w)
        assert_close_relative(p[0], p_ref, 1e-10)
        assert_close_relative(potential[0], potential_ref, 1e-10)

    def test_reference_objective_ksubset_12_1(self):
        cert = st.ksubset_structure(12, 1)
        sol = lg.solve_primal(cert, lg.SolverParams(max_iterations=2))
        assert sol.objective == pytest.approx(4.091815722046466, rel=1e-12)
        lg._check_primal(cert, sol)


class TestStackedLaplacian:
    """Below the dense cut, one stacked solve per group of equal non-member counts."""

    @staticmethod
    def flows_match_direct_solves(cert: st.CertificateStructure) -> None:
        n = cert.n
        member = st.membership_table(cert)
        w = np.random.default_rng(3).uniform(0.1, 2.0, st.arc_count(n))
        p, potential = lg._StackedLaplacian(n, member).flow(w)
        for m in range(len(cert)):
            if member[m, 0]:
                assert not p[m].any() and not potential[m].any()
                continue
            p_ref, potential_ref = direct_flow(n, member[m], w)
            assert_close_relative(p[m], p_ref, 1e-10)
            assert_close_relative(potential[m], potential_ref, 1e-10)

    def test_asymmetric_two_group_sizes(self, monkeypatch):
        # {1,2} and {1,3} leave 6 non-member subsets and {3} leaves 4, so
        # certificate 2 is the second of its group and certificate 1 the first
        cert = structure(3, [(1, 2)], [(3,)], [(1, 3)])
        assert list((~st.membership_table(cert)).sum(axis=1)) == [6, 4, 6]
        solve = np.linalg.solve
        calls = []

        def counted(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        self.flows_match_direct_solves(cert)
        assert calls == [(1, 4, 4), (2, 6, 6)]

    def test_empty_set_member_gives_zero_rows(self):
        cert = st.CertificateStructure(
            3, (st.Certificate((0,)),
                st.Certificate.from_sets([(1,)]), st.Certificate.from_sets([(2, 3)]))
        )
        self.flows_match_direct_solves(cert)

    def test_ksubset_4_2(self):
        self.flows_match_direct_solves(st.ksubset_structure(4, 2))

    def test_chunked_stack_is_bit_identical(self, monkeypatch):
        member = st.membership_table(st.ksubset_structure(4, 2))  # 6 certificates of 12 nodes
        w = np.random.default_rng(5).uniform(0.1, 2.0, st.arc_count(4))
        whole = lg._StackedLaplacian(4, member)
        monkeypatch.setattr(lg, "_STACK_BYTES", 2 * 8 * 12 ** 2)
        chunked = lg._StackedLaplacian(4, member)
        assert (len(whole.groups), len(chunked.groups)) == (1, 3)
        for a, b in zip(whole.flow(w), chunked.flow(w)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind,params,iterations", [
        ("ksubset", (4, 1), 658), ("ksubset", (4, 2), 17),
        ("hidden_shift", (3,), 495), ("collision", (2,), 18),
    ])
    def test_ladder_iteration_counts(self, kind, params, iterations):
        sol = lg.solve_primal(st.build_named_structure(kind, params))
        assert sol.iterations == iterations


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
    flows = lg._StackedLaplacian(n, st.membership_table(cert)).flow(w0.values)[0]
    flow = lg.FlowAssignment(n, flows)
    weights = lg.WeightAssignment(n, lg._optimize_weights(flow.values ** 2, np.ones(n))[0])
    assert np.all(lg.primal_constraint_values(flow, weights) <= 1 + 1e-9)
    primal_value = math.sqrt(weights.total)
    # feasible witness: random coefficients, zero condition, normalization
    alpha = rng.standard_normal((n, 1 << n))
    alpha[st.membership_table(cert)] = 0.0
    witness = lg.normalize_witness(lg.DualWitness(n, alpha), cert)
    assert lg.dual_objective(witness) <= primal_value + 1e-9
