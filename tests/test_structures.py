"""Structure builders, lattice enumeration, and membership semantics."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lgcomplexity import structures as st
from lgcomplexity.errors import CapacityError, ParameterError, StructuralError
from lattice_helpers import is_upward_closed


def test_as_mask_rejects_index_zero():
    with pytest.raises(ParameterError):
        st.as_mask([0])


class TestBuilders:
    def test_ksubset_smallest(self):
        cert = st.build_named_structure("ksubset", (2, 1))
        assert len(cert) == 2
        assert [c.minimal_members for c in cert.certificates] == [((1,),), ((2,),)]

    def test_triangle_4_matches_triple_enumeration(self):
        # oracle: build the expected edge triples from the published index map
        cert = st.triangle_structure(4)
        assert cert.n == 6 and len(cert) == 4
        expected = set()
        for a, b, c in itertools.combinations(range(1, 5), 3):
            expected.add(frozenset({
                st.triangle_edge_index(4, a, b),
                st.triangle_edge_index(4, a, c),
                st.triangle_edge_index(4, b, c),
            }))
        got = {frozenset(c.minimal_members[0]) for c in cert.certificates}
        assert got == expected
        assert all(len(c.minimal_members[0]) == 3 for c in cert.certificates)

    def test_hidden_shift_2_pairs(self):
        # oracle: evaluate the partner formula n+1+((a+d) mod n) for d in {1, 2}
        def pairs_for(d, n=2):
            return frozenset(
                frozenset({a, n + 1 + ((a + d) % n)}) for a in range(1, n + 1)
            )

        cert = st.hidden_shift_structure(2)
        got = {
            frozenset(frozenset(m) for m in c.minimal_members)
            for c in cert.certificates
        }
        assert got == {pairs_for(1), pairs_for(2)}
        assert pairs_for(1) == frozenset({frozenset({1, 3}), frozenset({2, 4})})
        assert pairs_for(2) == frozenset({frozenset({1, 4}), frozenset({2, 3})})

    @pytest.mark.parametrize("n", [1, 2])
    def test_certificate_counts_smallest_two_sizes(self, n):
        assert len(st.ksubset_structure(n + 1, 1)) == n + 1
        assert len(st.hidden_shift_structure(n)) == n
        double_fact = math.factorial(2 * n) // (2 ** n * math.factorial(n))
        assert len(st.collision_structure(n)) == double_fact
        assert len(st.set_equality_structure(n)) == math.factorial(n)
        assert len(st.triangle_structure(n + 3)) == math.comb(n + 3, 3)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matching_structure_nesting(self, n):
        def keys(cert):
            return {c.minimal_sets for c in cert.certificates}

        hs = keys(st.hidden_shift_structure(n))
        se = keys(st.set_equality_structure(n))
        co = keys(st.collision_structure(n))
        assert hs <= se <= co

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            st.ksubset_structure(3, 4)
        with pytest.raises(ParameterError):
            st.triangle_structure(2)
        with pytest.raises(ParameterError):
            st.build_named_structure("nonsense", (1,))

    def test_capacity_errors(self):
        with pytest.raises(CapacityError):
            st.set_equality_structure(6)
        with pytest.raises(CapacityError):
            st.collision_structure(6)
        with pytest.raises(CapacityError):
            st.triangle_structure(9)  # C(9,2) = 36 > 32 variables


class TestMembership:
    def test_triangle_full_set(self):
        cert = st.triangle_structure(3)
        assert cert.n == 3
        assert st.membership_table(cert)[0, st.as_mask((1, 2, 3))]

    def test_empty_set_never_member(self):
        for cert in (st.ksubset_structure(4, 2), st.hidden_shift_structure(2)):
            assert not st.membership_table(cert)[:, 0].any()

    def test_superset_closure_example(self):
        cert = st.ksubset_structure(4, 2)
        m = next(m for m, c in enumerate(cert.certificates) if c.minimal_members == ((1, 2),))
        assert st.membership_table(cert)[m, st.as_mask((1, 2, 3))]


@pytest.mark.parametrize("cert", [
    st.ksubset_structure(5, 2),
    st.triangle_structure(4),
    st.hidden_shift_structure(3),
    st.collision_structure(2),
    st.set_equality_structure(3),
    st.triangle_structure(5),
])
def test_upward_closure_exhaustive(cert):
    assert cert.n <= 12
    table = st.membership_table(cert)
    for row in table:
        assert is_upward_closed(row, cert.n)


@given(
    n=hst.integers(min_value=1, max_value=6),
    seeds=hst.lists(hst.integers(min_value=1, max_value=63), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_upward_closure_random_certificates(n, seeds):
    masks = sorted({s & ((1 << n) - 1) for s in seeds} - {0})
    minimal = [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]
    if not minimal:
        return
    cert = st.CertificateStructure(n, (st.Certificate(tuple(minimal)),))
    table = st.membership_table(cert)
    assert is_upward_closed(table[0], n)


class TestMinimalProfile:
    def test_ksubset_bounded(self):
        profile = st.minimal_profile(st.ksubset_structure(5, 2))
        assert all(c == 1 for c in profile.counts)
        assert profile.boundedly_generated and profile.generator_bound == 2

    def test_hidden_shift_not_bounded(self):
        profile = st.minimal_profile(st.hidden_shift_structure(2))
        assert profile.counts == (2, 2)
        assert not profile.boundedly_generated
        assert profile.generator_bound is None

    def test_collision_counts(self):
        profile = st.minimal_profile(st.collision_structure(2))
        assert profile.counts == (2, 2, 2)


class TestLatticeArcs:
    def test_single_variable(self):
        src, jj, dst = st.arc_arrays(1)
        assert (src.tolist(), jj.tolist(), dst.tolist()) == ([0], [1], [1])

    def test_count_matches_level_sum(self):
        # oracle: sum over subsets of the number of missing variables
        n = 3
        expected = sum(n - bin(s).count("1") for s in range(1 << n))
        src, jj, dst = st.arc_arrays(n)
        assert len(src) == len(jj) == len(dst) == expected == st.arc_count(n) == 12

    def test_every_arc_adds_one(self):
        src, jj, dst = st.arc_arrays(4)
        for s, j, t in zip(src.tolist(), jj.tolist(), dst.tolist()):
            assert not s >> (j - 1) & 1
            assert t == s | 1 << (j - 1)

    def test_deterministic_order(self):
        # oracle: every (source mask, missing variable) pair, by variable then source
        n = 3
        keys = [(s, j) for j in range(1, n + 1) for s in range(1 << n) if not s >> (j - 1) & 1]
        src, jj, _ = st.arc_arrays(n)
        assert list(zip(src.tolist(), jj.tolist())) == keys

    def test_arc_index_roundtrip(self):
        # oracle: arc (S, j) at (j - 1) 2^(n-1) plus the rank of S among the masks without j
        for n in (1, 4, 7):
            src, jj, _ = st.arc_arrays(n)
            assert len(src) == st.arc_count(n)
            rank = {}
            for s in range(1 << n):
                for j in range(1, n + 1):
                    if not s >> (j - 1) & 1:
                        rank[s, j] = sum(1 for t in range(s) if not t >> (j - 1) & 1)
            for idx, (s, j) in enumerate(zip(src.tolist(), jj.tolist())):
                assert st.arc_index(n, s, j) == idx == (j - 1) * (1 << (n - 1)) + rank[s, j]

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_incident_arcs_join_each_neighbour(self, n):
        # oracle: arc_index on the lower end of every edge S -- S ^ {j}; arc_position
        # gives the same arc from either end, on ints and on arrays
        masks = np.arange(1 << n)
        for j in range(1, n + 1):
            table = st.arc_position(n, masks, j - 1)
            for s in range(1 << n):
                low = s & ~(1 << (j - 1))
                assert table[s] == st.arc_position(n, s, j - 1) == st.arc_index(n, low, j)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            st.arc_arrays(23)

    def test_arc_index_rejects_outside(self):
        with pytest.raises(StructuralError):
            st.arc_index(3, 0b001, 1)
        with pytest.raises(StructuralError):
            st.arc_index(3, 0, 4)


class TestSerialization:
    def test_roundtrip(self):
        cert = st.hidden_shift_structure(2)
        doc = st.structure_to_json(cert)
        back = st.structure_from_json(doc)
        assert back == cert

    def test_stable_field_order(self):
        doc = json.loads(
            st.structure_to_json(st.ksubset_structure(3, 1)),
            object_pairs_hook=list,
        )
        assert [k for k, _ in doc] == ["kind", "params", "n", "certificates"]

    def test_explicit_structure_roundtrip(self):
        cert = st.CertificateStructure(
            3, (st.Certificate.from_sets([(1, 2), (2, 3)]),)
        )
        assert st.structure_from_json(st.structure_to_json(cert)) == cert


class TestCertificateValidation:
    def test_rejects_comparable_minimal_sets(self):
        with pytest.raises(ParameterError):
            st.Certificate.from_sets([(1,), (1, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            st.Certificate(())

    def test_empty_minimal_set_allowed(self):
        cert = st.CertificateStructure(3, (st.Certificate((0,)),))
        assert st.membership_table(cert).all()

    def test_variables_outside_range(self):
        with pytest.raises(ParameterError):
            st.CertificateStructure(2, (st.Certificate.from_sets([(3,)]),))


def image_of(mask: int, g) -> int:
    return sum(1 << g[j - 1] for j in st.mask_members(mask))


def group_elements(generators, n: int) -> set:
    """Every element of the group the generators generate, by closure from the identity."""
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        h = frontier.pop()
        for g in generators:
            gh = tuple(g[i] for i in h)
            if gh not in elements:
                elements.add(gh)
                frontier.append(gh)
    return elements


NAMED_SWEEP = ([("ksubset", (n, k)) for n in range(1, 8) for k in range(1, n + 1)]
               + [("triangle", (v,)) for v in range(3, 8)]
               + [(kind, (n,)) for kind in ("collision", "set_equality") for n in range(1, 5)]
               + [("hidden_shift", (n,)) for n in range(1, 7)])


class TestSymmetry:
    @pytest.mark.parametrize("kind,params", NAMED_SWEEP, ids=str)
    def test_generators_preserve_the_certificate_set(self, kind, params):
        cert = st.build_named_structure(kind, params)
        symmetry = st.structure_symmetry(cert)
        keys = {c.minimal_sets for c in cert.certificates}
        index = {c.minimal_sets: m for m, c in enumerate(cert.certificates)}
        assert symmetry.images.shape == (len(symmetry.generators), len(cert))
        for g, sigma in zip(symmetry.generators, symmetry.images):
            assert sorted(g) == list(range(cert.n))
            images = [tuple(sorted(image_of(m, g) for m in c.minimal_sets))
                      for c in cert.certificates]
            assert set(images) == keys
            assert sigma.tolist() == [index[image] for image in images]
        # every named structure is one orbit, and carry[m] maps certificate 0 onto m
        assert symmetry.orbit_count == 1
        assert not symmetry.representative.any()
        for c, g in zip(cert.certificates, symmetry.carry):
            assert tuple(sorted(image_of(m, g) for m in cert.certificates[0].minimal_sets)) \
                == c.minimal_sets

    def test_structure_without_kind_has_the_trivial_group(self):
        cert = st.CertificateStructure(3, st.ksubset_structure(3, 1).certificates)
        symmetry = st.structure_symmetry(cert)
        assert symmetry.generators == ()
        assert list(symmetry.representative) == [0, 1, 2]
        assert symmetry.orbit_count == 3
        assert np.array_equal(st.arc_orbits(3, ()), np.arange(st.arc_count(3)))

    @pytest.mark.parametrize("kind,params,bogus", [
        ("triangle", (4,), [1, 0, 2, 3, 4, 5]),      # swaps edges {1,2} and {1,3}, no vertex map
        ("ksubset", (4, 2), [1, 1, 2, 3]),           # not a permutation
        ("hidden_shift", (3,), [1, 0, 2, 3, 4, 5]),  # a transposition on one side
        ("ksubset", (4, 2), [1, 0, 2]),              # too short
    ])
    def test_planted_bogus_generator_refused(self, monkeypatch, kind, params, bogus):
        cert = st.build_named_structure(kind, params)
        monkeypatch.setitem(st._SYMMETRIES, kind, lambda *args: [bogus])
        with pytest.raises(StructuralError, match=f"{kind} symmetry"):
            st.structure_symmetry(cert)

    def test_named_kind_on_foreign_certificates_refused(self):
        # labelled ksubset(3, 1), but holding the certificates of ksubset(3, 2)'s first two
        certs = st.ksubset_structure(3, 2).certificates[:2]
        with pytest.raises(StructuralError, match="maps certificate"):
            st.structure_symmetry(st.CertificateStructure(3, certs, "ksubset", (3, 1)))
        repeated = st.ksubset_structure(3, 1).certificates * 2
        with pytest.raises(StructuralError, match="repeats a certificate"):
            st.structure_symmetry(st.CertificateStructure(3, repeated, "ksubset", (3, 1)))
        with pytest.raises(StructuralError, match="parameters"):
            st.structure_symmetry(st.CertificateStructure(3, certs, "ksubset", None))

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_permute_masks_matches_bitwise_image(self, n):
        g = list(np.random.default_rng(n).permutation(n))
        images = st.permute_masks(g, n)
        assert images.tolist() == [image_of(s, g) for s in range(1 << n)]

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 10) for k in (1, 2, 3) if k <= n])
    def test_ksubset_arc_orbits_are_source_sizes(self, n, k):
        src, _, _ = st.arc_arrays(n)
        labels = st.arc_orbits(n, st.structure_symmetry(st.ksubset_structure(n, k)).generators)
        assert labels.max() + 1 == n
        assert np.array_equal(labels, np.bitwise_count(src))

    @pytest.mark.parametrize("kind,params", [
        ("triangle", (4,)), ("hidden_shift", (3,)), ("set_equality", (2,)), ("collision", (2,)),
    ])
    def test_arc_orbits_match_the_whole_group(self, kind, params):
        cert = st.build_named_structure(kind, params)
        n = cert.n
        generators = st.structure_symmetry(cert).generators
        labels = st.arc_orbits(n, generators)
        src, jj, _ = st.arc_arrays(n)
        for g in group_elements(generators, n):
            moved = [st.arc_index(n, image_of(s, g), g[j - 1] + 1)
                     for s, j in zip(src.tolist(), jj.tolist())]
            assert np.array_equal(labels[moved], labels)
        # and no two orbits merge: each label's arcs form one orbit of the group
        orbit_of_first = set()
        for g in group_elements(generators, n):
            orbit_of_first.add(st.arc_index(n, image_of(int(src[0]), g), g[int(jj[0]) - 1] + 1))
        assert orbit_of_first == set(np.flatnonzero(labels == 0).tolist())
        first_arcs = np.unique(labels, return_index=True)[1]
        assert np.all(np.diff(first_arcs) > 0)

    @pytest.mark.parametrize("kind,params,orbits", [
        ("ksubset", (4, 2), [0, 0, 0, 0]),
        ("triangle", (4,), [0] * 6),
        ("hidden_shift", (3,), [0, 0, 0, 1, 1, 1]),
        ("set_equality", (2,), [0, 0, 1, 1]),
        ("collision", (2,), [0, 0, 0, 0]),
    ])
    def test_variable_orbits(self, kind, params, orbits):
        cert = st.build_named_structure(kind, params)
        generators = st.structure_symmetry(cert).generators
        assert st.variable_orbits(cert.n, generators).tolist() == orbits
        assert st.variable_orbits(cert.n, ()).tolist() == list(range(cert.n))

    def test_variable_orbits_of_some_generators(self):
        # hidden_shift(3)'s left shift alone fixes every variable on the right
        left, right = st.structure_symmetry(st.hidden_shift_structure(3)).generators
        assert st.variable_orbits(6, [left]).tolist() == [0, 0, 0, 1, 2, 3]
        assert st.variable_orbits(6, [right]).tolist() == [0, 1, 2, 3, 3, 3]

    def test_triangle_six_has_572_arc_orbits(self):
        cert = st.triangle_structure(6)
        assert st.arc_orbits(cert.n, st.structure_symmetry(cert).generators).max() + 1 == 572


# named kinds on at most 12 variables, for the brute-force stabilizer checks
STABILIZER_SWEEP = ([("ksubset", (n, k)) for n in range(1, 7) for k in range(1, n + 1)]
                    + [("ksubset", (12, 1)), ("ksubset", (12, 2))]
                    + [("triangle", (v,)) for v in range(3, 6)]
                    + [(kind, (n,)) for kind in ("collision", "set_equality") for n in range(1, 6)]
                    + [("hidden_shift", (n,)) for n in range(1, 7)])


def pair_orbit_partition(cert: st.CertificateStructure, symmetry: st.Symmetry, r: int):
    """Subsets of [n] grouped by the group orbit of (r, S) among all (certificate, subset) pairs.

    Brute force: connected components of the graph joining each pair (m, S)
    to (g m, g S) for every generator g.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    lattice = 1 << cert.n
    points = len(cert) * lattice
    pairs = np.arange(points)
    sources, targets = [], []
    for g, image in zip(symmetry.generators, symmetry.images):
        sources.append(pairs)
        targets.append((image[:, None] * lattice + st.permute_masks(g, cert.n)).reshape(-1))
    if not sources:
        return np.arange(lattice)
    graph = coo_matrix((np.ones(len(sources) * points),
                        (np.concatenate(sources), np.concatenate(targets))), shape=(points, points))
    return connected_components(graph, directed=True, connection="weak")[1][
        r * lattice:(r + 1) * lattice]


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    joint = np.unique(np.stack([a, b]), axis=1).shape[1]
    return joint == len(np.unique(a)) == len(np.unique(b))


class TestStabilizer:
    @pytest.mark.parametrize("kind,params", STABILIZER_SWEEP, ids=str)
    def test_generators_fix_the_representative(self, kind, params):
        cert = st.build_named_structure(kind, params)
        row = st.membership_table(cert)[0]
        generators = st.stabilizer_generators(st.structure_symmetry(cert), 0)
        assert tuple(range(cert.n)) not in generators
        for h in generators:
            assert sorted(h) == list(range(cert.n))
            assert np.array_equal(row[st.permute_masks(h, cert.n)], row)

    @pytest.mark.parametrize("kind,params", STABILIZER_SWEEP, ids=str)
    def test_subset_orbits_match_the_pair_orbits(self, kind, params):
        cert = st.build_named_structure(kind, params)
        symmetry = st.structure_symmetry(cert)
        labels = st.subset_orbits(cert.n, st.stabilizer_generators(symmetry, 0))
        assert same_partition(labels, pair_orbit_partition(cert, symmetry, 0))
        # numbered in the order of their least mask
        assert np.all(np.diff(np.unique(labels, return_index=True)[1]) > 0)

    def test_trivial_group(self):
        cert = st.CertificateStructure(3, st.ksubset_structure(3, 1).certificates)
        symmetry = st.structure_symmetry(cert)
        assert [st.stabilizer_generators(symmetry, r) for r in range(3)] == [(), (), ()]
        assert np.array_equal(st.subset_orbits(3, ()), np.arange(8))

    def test_only_representatives(self):
        symmetry = st.structure_symmetry(st.ksubset_structure(4, 1))
        with pytest.raises(ParameterError, match="not the representative"):
            st.stabilizer_generators(symmetry, 1)

    # the stabilizer orbits of non-member subsets are the nodes of the primal's quotient
    @pytest.mark.parametrize("kind,params,nonmembers,orbits", [
        ("ksubset", (12, 1), 2048, 12), ("ksubset", (12, 2), 3072, 22),
        ("ksubset", (16, 2), 49152, 30), ("triangle", (5,), 896, 122),
        ("triangle", (6,), 28672, 1188), ("hidden_shift", (3,), 27, 11),
        ("hidden_shift", (6,), 729, 130), ("hidden_shift", (8,), 6561, 834),
    ])
    def test_non_member_orbit_counts(self, kind, params, nonmembers, orbits):
        cert = st.build_named_structure(kind, params)
        outside = ~st.membership_table(cert)[0]
        labels = st.subset_orbits(cert.n, st.stabilizer_generators(st.structure_symmetry(cert), 0))
        assert int(outside.sum()) == nonmembers
        assert len(np.unique(labels[outside])) == orbits
