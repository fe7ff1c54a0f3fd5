import random
from fractions import Fraction

import networkx as nx
import pytest

from conftest import QUARTIC_10, all_profiles, random_graph, recombine, relabel
from dmlab.errors import NotEvenRegularError
from dmlab.enumerator import EnumerationTask, _classes
from dmlab.graph import Graph, parse_graph6, write_graph6
from dmlab.labeling import CenteredLabeling, verify, wreath_labeling
from dmlab import spectral
from dmlab.qw import build_qw, build_wreath, classify, profile_to_sequence
from dmlab.spectral import (
    corollary_filter,
    near_twin_pair,
    nullspace_basis,
    pinned_equal_pair,
)

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


def mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def dense_rows(g):
    """The adjacency matrix of g as int rows, for the reference elimination."""
    return [[int(w in g.neighbors[v]) for w in range(g.n)] for v in range(g.n)]


class TestNullspace:
    def test_c4_dimension_two(self):
        basis = nullspace_basis(C4)
        assert basis.dimension == 2
        # hand elimination gives span{(1,0,-1,0), (0,1,0,-1)}
        for target in [(1, 0, -1, 0), (0, 1, 0, -1)]:
            assert _in_span(basis.vectors, target)

    def test_k5_trivial(self):
        assert nullspace_basis(K5).dimension == 0

    def test_w3_nontrivial(self):
        assert nullspace_basis(build_wreath(3)).dimension >= 1

    def test_exactness_random(self, rng):
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 16))
            m = dense_rows(g)
            basis = nullspace_basis(g)
            for v in basis.vectors:
                assert all(x == 0 for x in mat_vec(m, v))

    def test_rank_nullity(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 12))
            basis = nullspace_basis(g)
            assert len(basis.pivot_columns) + basis.dimension == g.n


PRIME = 2**31 - 1


def rank_mod_prime(g):
    """Rank of the adjacency matrix over GF(2^31 - 1), by its own elimination;
    never above the rank over the rationals, so a kernel found too small fails."""
    rows = [[1 if w in g.neighbors[v] else 0 for w in range(g.n)] for v in range(g.n)]
    rank = 0
    for c in range(g.n):
        pivot = next((i for i in range(rank, g.n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], PRIME - 2, PRIME)
        rows[rank] = [x * inv % PRIME for x in rows[rank]]
        for i in range(g.n):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestKernelDimension:
    """The kernel is as large as an independent rank computation says, so a
    search that branches only on its free coordinates misses no labeling."""

    def check(self, g):
        assert nullspace_basis(g).dimension == g.n - rank_mod_prime(g)

    def test_connected_quartic_order_10(self):
        for s in QUARTIC_10:
            self.check(parse_graph6(s))

    def test_quasi_wreath_profiles(self):
        profiles = all_profiles(8)
        assert len(profiles) == 32
        for parts in profiles:
            self.check(build_qw(profile_to_sequence(parts)))

    def test_random_graphs(self):
        rng = random.Random(31)
        for _ in range(200):
            self.check(random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.4, 0.6])))


def reference_rref(rows):
    """The dense elimination: every entry of every eliminated row is updated,
    in Fraction arithmetic; (reduced rows, pivot columns) of spectral._rref."""
    mat = [[Fraction(x) for x in row] for row in rows]
    cols = len(mat[0])
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat, pivots


def reference_basis(rows):
    """(vectors, pivot_columns) of nullspace_basis in natural order, from the
    dense elimination."""
    mat, pivots = reference_rref(rows)
    cols = len(mat[0])
    vectors = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for k, pc in enumerate(pivots):
            v[pc] = -mat[k][fc]
        vectors.append(tuple(v))
    return tuple(vectors), tuple(pivots)


def random_int_rows():
    """300 seeded int matrices of entries -3..3, the last row a combination
    of the first two."""
    rng = random.Random(47)
    for _ in range(300):
        rows, cols = rng.randint(2, 7), rng.randint(1, 7)
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
        yield mat


# int matrices where the first nonzero entry of a pivot column is 2 while a
# later row holds 1 there (column 0 of the first, column 1 of the second)
NON_UNIT_FIRST = [
    ((2, 1, 1), (1, 0, 1), (1, 1, 0)),
    ((0, 2, 1, 1), (1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 0, 2), (1, 2, 1, 2)),
]


def is_int_first(x):
    """An int where x is integral, else a Fraction that is not."""
    return type(x) is int if x.denominator == 1 else type(x) is Fraction


class TestAgainstDenseElimination:
    """The sparse row updates on unit pivots give the reduced rows of the
    dense elimination on first nonzero pivots entry for entry, and so its
    kernel basis: the search keeps its free coordinates and printed
    labelings.  Each entry is an int where it is integral and a Fraction
    elsewhere."""

    def check(self, g):
        basis = nullspace_basis(g)
        assert (basis.vectors, basis.pivot_columns) == reference_basis(dense_rows(g))
        assert all(is_int_first(x) for v in basis.vectors for x in v)

    def check_rows(self, rows):
        """_rref on a general matrix whose integral entries are ints; the
        reduced rows."""
        mat = [[x.numerator if x.denominator == 1 else x for x in row] for row in rows]
        pivots = spectral._rref(mat, len(mat[0]))
        assert (mat, pivots) == reference_rref(rows)
        assert all(is_int_first(x) for row in mat for x in row)
        return mat

    def test_connected_quartic_order_10(self):
        for s in QUARTIC_10:
            self.check(parse_graph6(s))

    def test_quasi_wreath_profiles(self):
        for parts in all_profiles(8):
            self.check(build_qw(profile_to_sequence(parts)))

    def test_random_graphs(self):
        rng = random.Random(37)
        for _ in range(200):
            self.check(random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.4, 0.6])))

    def test_elimination_orders(self):
        # the basis in order equals the dense elimination of the matrix with
        # rows and columns in that order, mapped back to vertex numbering
        rng = random.Random(61)
        graphs = [parse_graph6(s) for s in QUARTIC_10]
        graphs += [build_qw(profile_to_sequence(p)) for p in all_profiles(8)]
        for g in graphs:
            order = list(range(g.n))
            rng.shuffle(order)
            rows = [[int(order[q] in g.neighbors[v]) for q in range(g.n)] for v in order]
            vectors, pivots = reference_basis(rows)
            mapped = []
            for vec in vectors:
                v = [0] * g.n
                for q, x in enumerate(vec):
                    v[order[q]] = x
                mapped.append(tuple(v))
            basis = nullspace_basis(g, order)
            assert basis.vectors == tuple(mapped), write_graph6(g)
            assert basis.pivot_columns == tuple(order[pc] for pc in pivots)

    def test_random_rational_rows(self):
        rng = random.Random(41)
        values = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3, 5)]
        for _ in range(300):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            mat = [
                [rng.choice(values) if rng.random() < 0.5 else Fraction(0) for _ in range(cols)]
                for _ in range(rows)
            ]
            if rows > 1:  # a dependent row, so that the rank drops often
                c = rng.choice(values)
                mat[-1] = [a + c * b for a, b in zip(mat[0], mat[1])]
            self.check_rows(mat)

    def test_random_int_rows(self):
        # pivots of +-2 and +-3 make some divisions inexact and others exact
        inexact = 0
        for mat in random_int_rows():
            reduced = self.check_rows(mat)
            inexact += any(x.denominator > 1 for row in reduced for x in row)
        assert inexact >= 100  # 134 of the 300 reduced forms have a non-integer entry

    def test_unit_pivot_below_a_non_unit_entry(self):
        for rows in NON_UNIT_FIRST + [
            ((Fraction(1, 2), 1, 0, 1), (0, 2, 1, 0), (1, 1, 1, 1)),
            ((1, 0, 0, 1, 0), (0, Fraction(-2, 3), 1, 0, 1), (0, 3, 1, 1, 0), (0, -1, 2, 0, 1)),
        ]:
            self.check_rows(rows)

    def test_random_int_rows_with_a_unit_below(self):
        # column 0's first entry is +-2 or +-3 and a later row holds +-1 there
        rng = random.Random(59)
        for _ in range(300):
            rows, cols = rng.randint(2, 7), rng.randint(1, 7)
            mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            mat[0] = [rng.choice((0, -3, -2, 2, 3)) for _ in range(cols)]
            mat[0][0] = rng.choice((-3, -2, 2, 3))
            mat[rng.randrange(1, rows)][0] = rng.choice((-1, 1))
            if rows > 2:  # a dependent row, so that the rank drops often
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
            self.check_rows(mat)


class TestIntArithmetic:
    """The elimination pivots on a unit where the column has one and keeps
    integral entries as ints, so an integer matrix stays on ints as long as
    every division is exact."""

    def test_unit_pivot_makes_no_fraction(self, monkeypatch):
        # pivoting on the first nonzero entry, 2, would divide inexactly
        def no_fraction(*args):
            raise AssertionError(f"Fraction{args} made")

        for rows in NON_UNIT_FIRST:
            pivots = reference_basis(rows)[1]
            monkeypatch.setattr(spectral, "Fraction", no_fraction)
            mat = [list(row) for row in rows]
            assert spectral._rref(mat, len(mat[0])) == list(pivots)
            monkeypatch.undo()
            assert all(type(x) is int for row in mat for x in row)

    def test_integral_entries_are_ints(self):
        matrices = [dense_rows(parse_graph6(s)) for s in QUARTIC_10]
        matrices += [dense_rows(build_qw(profile_to_sequence(p))) for p in all_profiles(10)]
        matrices += list(random_int_rows())
        for rows in matrices:
            mat = [list(row) for row in rows]
            spectral._rref(mat, len(mat[0]))
            assert all(type(x) is int for row in mat for x in row if x.denominator == 1), rows

    def test_kernel_vectors_hold_ints(self):
        # every division of these eliminations is exact
        graphs = [build_qw(profile_to_sequence(p)) for p in all_profiles(12)]
        graphs += [parse_graph6(s) for s in QUARTIC_10]
        graphs += list(_classes(EnumerationTask(10, 4, connected=False)))
        assert len(graphs) == 231 + 59 + 60
        for g in graphs:
            vectors = nullspace_basis(g).vectors
            assert all(type(x) is int for v in vectors for x in v), write_graph6(g)

    def test_inexact_division_gives_fractions(self):
        # the order-12 quartic graph of TestCountMode::test_non_integral_basis_pinned
        (v,) = nullspace_basis(parse_graph6("K?Chqj@wKw[O")).vectors
        third = Fraction(1, 3)
        assert v == (third, third, -third, -third, -third, third, -third, third, -third, -1, third, 1)
        assert [type(x) for x in v] == [Fraction] * 9 + [int, Fraction, int]

    def test_int_rows_give_an_exact_rref(self):
        for rows, reduced in [
            ([[1, 2], [2, 4]], [[1, 2], [0, 0]]),
            ([[3, 1, 0], [0, 2, 1]], [[1, 0, Fraction(-1, 6)], [0, 1, Fraction(1, 2)]]),
            ([[Fraction(1, 2), Fraction(3, 2)]], [[1, 3]]),
        ]:
            spectral._rref(rows, len(rows[0]))
            assert rows == reduced
            assert [type(x) for row in rows for x in row] == [type(x) for row in reduced for x in row]


def _in_span(vectors, target):
    # append target and compare ranks (pivot counts) via a fresh elimination
    rank1 = len(reference_basis(vectors)[1])
    rank2 = len(reference_basis([*vectors, target])[1])
    return rank1 == rank2


class TestFilter:
    def test_k5_ruled_out(self):
        verdict = corollary_filter(K5)
        assert not verdict.candidate
        assert "trivial" in verdict.reason

    def test_w3_candidate(self):
        assert corollary_filter(build_wreath(3)).candidate

    def test_c4_candidate(self):
        assert corollary_filter(C4).candidate

    def test_rejects_irregular(self):
        with pytest.raises(NotEvenRegularError):
            corollary_filter(Graph(3, [(0, 1)]))

    def test_rejects_odd_valency(self):
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        with pytest.raises(NotEvenRegularError):
            corollary_filter(k4)

    def test_c4_has_no_pinned_pair(self):
        # span{(1,0,-1,0),(0,1,0,-1)} pins no coordinate pair equal
        basis = nullspace_basis(C4)
        assert pinned_equal_pair(basis.vectors, 4) is None

    def test_verdict_invariant_under_recombination(self):
        rng = random.Random(5)
        for g in [C4, build_wreath(3), build_wreath(4), build_wreath(5)]:
            basis = nullspace_basis(g)
            base = pinned_equal_pair(basis.vectors, g.n) is None
            for _ in range(50):
                vs = recombine(basis.vectors, rng)
                assert (pinned_equal_pair(vs, g.n) is None) == base

    def test_verdict_invariant_under_relabeling(self):
        # the census filters each class in whatever numbering the enumerator's
        # walk gave it; a relabeling only permutes the kernel's coordinates,
        # so the kernel dimension and the verdict must not change
        graphs = [parse_graph6(s) for s in QUARTIC_10]
        graphs += [build_qw(profile_to_sequence(p)) for p in all_profiles(10)]
        for seed in range(40):
            h = nx.random_regular_graph(4, 11 + seed % 10, seed=seed)
            if nx.is_connected(h):
                graphs.append(Graph(h.number_of_nodes(), h.edges()))
        assert len(graphs) >= 59 + 87 + 30

        def verdict(g):
            return corollary_filter(g).candidate, nullspace_basis(g).dimension

        verdicts = [verdict(g) for g in graphs]
        # candidates, pinned pairs in a nontrivial kernel, and trivial kernels
        assert {(c, d > 0) for c, d in verdicts} == {(True, True), (False, True), (False, False)}
        for i, (g, base) in enumerate(zip(graphs, verdicts)):
            for seed in range(3):
                assert verdict(relabel(g, 1000 * i + seed)) == base


def two_copies(g: Graph) -> Graph:
    """The disjoint union of g with itself, the copy on vertices n..2n-1."""
    return Graph(2 * g.n, [*g.edges, *((u + g.n, v + g.n) for u, v in g.edges)])


class TestBandOrder:
    """corollary_filter eliminates in breadth-first band order; its verdict
    and its reason are those of the natural-order definition."""

    def test_order_is_a_permutation_covering_every_component(self):
        g = two_copies(build_wreath(4))  # vertices 0..7 and 8..15
        order = spectral._band_order(g)
        assert sorted(order) == list(range(16))
        assert order[0] == 0 and sorted(order[:8]) == list(range(8)) and order[8] == 8
        # breadth first, neighbours in ascending order
        assert spectral._band_order(Graph(5, [(0, 3), (0, 2), (2, 4), (1, 3)])) == [0, 2, 3, 4, 1]

    def test_reason_equals_natural_order_definition(self):
        graphs = [parse_graph6(s) for s in QUARTIC_10]
        graphs += [build_qw(profile_to_sequence(p)) for p in all_profiles(12)]
        graphs += [relabel(g, 1000 * i + seed) for i, g in enumerate(graphs) for seed in range(3)]
        for seed in range(40):
            h = nx.random_regular_graph(4, 11 + seed % 10, seed=seed)
            if nx.is_connected(h):
                graphs.append(Graph(h.number_of_nodes(), h.edges()))
        twice = two_copies(build_qw(profile_to_sequence((3, 5, 4))))
        graphs += [twice, relabel(twice, 7)]
        assert len(graphs) >= 4 * (59 + 231) + 30 + 2
        reasons = []
        for g in graphs:
            got = corollary_filter(g)
            assert got == spectral.basis_verdict(nullspace_basis(g), g.n), write_graph6(g)
            reasons.append(got.reason)
        # candidates, trivial kernels and pinned pairs other than (0, 1)
        pairs = {r for r in reasons if r and r.startswith("coordinates")}
        assert None in reasons and "trivial nullspace" in reasons and len(pairs) > 10
        # the band order renames the vertices of most of these graphs
        assert sum(spectral._band_order(g) != list(range(g.n)) for g in graphs) > len(graphs) // 2


class TestEliminationOrder:
    """nullspace_basis eliminates in any order of the vertices and returns a
    basis of the same kernel in vertex numbering."""

    def test_random_orders(self):
        rng = random.Random(67)
        graphs = [parse_graph6(s) for s in QUARTIC_10]
        graphs += [build_qw(profile_to_sequence(p)) for p in all_profiles(10)]
        for g in graphs:
            natural = pinned_equal_pair(nullspace_basis(g).vectors, g.n)
            dimension = g.n - rank_mod_prime(g)
            for _ in range(3):
                order = list(range(g.n))
                rng.shuffle(order)
                basis = nullspace_basis(g, order)
                assert basis.dimension == len(basis.vectors) == dimension, write_graph6(g)
                pivots = set(basis.pivot_columns)
                free = [v for v in order if v not in pivots]
                for k, vec in enumerate(basis.vectors):
                    assert all(sum(vec[w] for w in nb) == 0 for nb in g.neighbors)
                    assert [vec[v] for v in free] == [int(i == k) for i in range(len(free))]
                assert pinned_equal_pair(basis.vectors, g.n) == natural, write_graph6(g)

    @pytest.mark.parametrize("order", [[0, 1, 1, 3], [0, 1, 2], [0, 1, 2, 3, 4], [True, 0, 2, 3]])
    def test_order_must_be_a_permutation_of_exact_ints(self, order):
        with pytest.raises(ValueError, match="not a permutation"):
            nullspace_basis(C4, order)


class TestFilterMatchesClassifier:
    """On quasi wreath graphs the kernel filter's verdict equals the
    classifier's.  With construct + verify on the distance magic side, this
    machine-checks the classification to m = 16 in Tier-1 and to m = 20 in
    the slow set; complete search checks it to m = 14 (acceptance 1)."""

    @pytest.mark.parametrize(
        "max_m,profiles,magic",
        [(16, 1595, 32), pytest.param(20, 10944, 106, marks=pytest.mark.slow)],
    )
    def test_every_profile(self, max_m, profiles, magic):
        seen = []
        for p in all_profiles(max_m):
            seq = profile_to_sequence(p)
            dm = classify(seq).distance_magic
            assert corollary_filter(build_qw(seq)).candidate == dm, p
            seen.append(dm)
        assert (len(seen), sum(seen)) == (profiles, magic)

    @pytest.mark.parametrize(
        "profile,magic",
        [((7, 5) * 20, True), ((5, 5, 4) * 12, False), ((3, 5, 3, 5, 7) * 10, True), ((9,) * 30, True)],
    )
    def test_hundreds_of_vertices(self, profile, magic):
        # n = 480, 336, 460 and 540: the band order keeps each in Tier-1
        seq = profile_to_sequence(profile)
        assert classify(seq).distance_magic == magic
        assert corollary_filter(build_qw(seq)).candidate == magic


class TestLemmaEv:
    """Lemma EV: a centered labeling is distance magic iff it lies in ker A and
    is a bijection onto the centered label set; verify() decides exactly that."""

    def test_wreath_labeling_accepted(self):
        g, lab = build_wreath(3), wreath_labeling(3)
        assert verify(g, lab).ok
        assert all(x == 0 for x in mat_vec(dense_rows(g), lab.labels))

    def test_perturbed_rejected(self):
        labels = list(wreath_labeling(3).labels)
        labels[0], labels[1] = labels[1], labels[0]
        assert not verify(build_wreath(3), CenteredLabeling(6, tuple(labels))).ok

    def test_c4_hand_labeling(self):
        lab = CenteredLabeling(4, (-3, -1, 3, 1))
        # weights: w(0)=l(1)+l(3)=0, w(1)=l(0)+l(2)=0, ... all zero by hand
        assert verify(C4, lab).ok

    def test_kernel_vector_that_is_not_a_bijection_rejected(self):
        # (1, 1, -1, -1) lies in ker A of C4 but repeats labels
        lab = CenteredLabeling(4, (1, 1, -1, -1))
        report = verify(C4, lab)
        assert report.weights == (0, 0, 0, 0)
        assert not report.bijective and not report.ok


def pinned_pair_reference(vectors, n):
    """The definition: the first pair (i, j), i < j, in lexicographic order,
    equal in every vector."""
    for i in range(n):
        for j in range(i + 1, n):
            if all(v[i] == v[j] for v in vectors):
                return (i, j)
    return None


class TestPinnedEqualPair:
    """The one-pass grouping against the quadratic scan of the definition."""

    def test_quartic_order_10(self):
        assert len(QUARTIC_10) == 59
        for s in QUARTIC_10:
            g = parse_graph6(s)
            vs = nullspace_basis(g).vectors
            assert pinned_equal_pair(vs, g.n) == pinned_pair_reference(vs, g.n), s

    def test_qw_profiles_up_to_10(self):
        for parts in all_profiles(10):
            g = build_qw(profile_to_sequence(parts))
            vs = nullspace_basis(g).vectors
            assert pinned_equal_pair(vs, g.n) == pinned_pair_reference(vs, g.n), parts

    def test_random_bases(self):
        rng = random.Random(7)
        for _ in range(200):
            n, d = rng.randint(1, 12), rng.randint(0, 4)
            # few distinct values, so that columns coincide often
            values = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            vs = [[rng.choice(values) for _ in range(n)] for _ in range(d)]
            assert pinned_equal_pair(vs, n) == pinned_pair_reference(vs, n), (n, vs)

    def test_int_and_integral_fraction_columns_group(self):
        # an int hashes and compares equal to the Fraction of the same value
        vs = [(3, Fraction(1, 2), Fraction(3)), (-2, 1, Fraction(-2, 1))]
        assert pinned_equal_pair(vs, 3) == (0, 2) == pinned_pair_reference(vs, 3)

    def test_random_mixed_bases(self):
        # each integral entry is an int or an equal Fraction at random
        rng = random.Random(11)
        for _ in range(200):
            n, d = rng.randint(1, 12), rng.randint(1, 4)
            values = [rng.randint(-2, 2) for _ in range(3)] + [Fraction(1, 2)]
            vs = [
                [x if rng.random() < 0.5 else Fraction(x) for x in rng.choices(values, k=n)]
                for _ in range(d)
            ]
            assert pinned_equal_pair(vs, n) == pinned_pair_reference(vs, n), (n, vs)


def near_twin_witness(g, u, w):
    """(x, y) when one integer sparse product gives A(e_u - e_w) = e_x - e_y
    with x != y, else None."""
    y = {}
    for v in g.neighbors[u]:
        y[v] = y.get(v, 0) + 1
    for v in g.neighbors[w]:
        y[v] = y.get(v, 0) - 1
    support = {v: c for v, c in y.items() if c}
    if sorted(support.values()) != [-1, 1]:
        return None
    return next(v for v, c in support.items() if c == 1), next(v for v, c in support.items() if c == -1)


def first_witnessed_pair(g):
    """The definition, by the witness: the least (u, w), u < w, with one."""
    for u in range(g.n):
        for w in range(u + 1, g.n):
            if near_twin_witness(g, u, w):
                return u, w
    return None


class TestNearTwinPair:
    """Two vertices whose neighbour sets share all but one vertex rule a
    regular graph out; the census skips the kernel filter for them."""

    def test_small_graphs(self):
        triangle = Graph(3, [(0, 1), (1, 2), (2, 0)])
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert near_twin_pair(triangle) == (0, 1)  # adjacent: x = 1, y = 0
        assert near_twin_pair(c5) == (0, 2)  # N(0) = {1, 4}, N(2) = {1, 3}
        assert near_twin_pair(K5) == (0, 1)
        # true twins share all r neighbours and do not count
        assert near_twin_pair(C4) is None
        assert all(near_twin_pair(build_wreath(k)) is None for k in range(3, 9))

    def test_flagged_graphs_are_ruled_out_with_a_witness(self):
        # every class of orders 5-11 at valency 4, connected or not, and
        # seeded random regular graphs of valency 2, 4 and 6
        graphs = [g for n in range(5, 12) for g in _classes(EnumerationTask(n, 4, connected=False))]
        assert len(graphs) == 1 + 1 + 2 + 6 + 16 + 60 + 266
        for r in (2, 4, 6):
            for seed in range(30):
                h = nx.random_regular_graph(r, 8 + seed % 15, seed=seed)
                graphs.append(Graph(h.number_of_nodes(), h.edges()))
        flagged = 0
        for g in graphs:
            pair = near_twin_pair(g)
            assert pair == first_witnessed_pair(g), write_graph6(g)
            if pair is not None:
                flagged += 1
                x, y = near_twin_witness(g, *pair)
                assert x != y
                assert not corollary_filter(g).candidate, write_graph6(g)
        # the screen fires on most graphs but not on all
        assert 0.5 * len(graphs) < flagged < len(graphs)
