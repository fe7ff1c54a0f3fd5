import hashlib
import itertools
import re

import networkx as nx
import pytest

import dmlab.enumerator as enumerator
from conftest import QUARTIC_10, to_nx
from dmlab.cli import main
from dmlab.enumerator import (
    CensusRow,
    EnumerationTask,
    census_pipeline,
    enumerate_regular,
)
from dmlab.errors import EnumerationError
from dmlab.graph import (
    Graph,
    _least_key,
    canonical_certificate,
    is_connected,
    is_regular,
    write_graph6,
)
from dmlab.qw import build_qw, build_wreath, profile_to_sequence

# OEIS A006820: connected quartic graphs on n vertices; the order-12 count
# (1544) is pinned by TestCensus.test_order_12, which enumerates it once, and
# the order-13 count (10,778) by the slow-marked test_connected_quartic_13
CONNECTED_QUARTIC = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16, 10: 59, 11: 265}

# OEIS A002851: connected cubic graphs on n vertices
CONNECTED_CUBIC = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}

# OEIS A006821: connected 5-regular graphs on n vertices
CONNECTED_QUINTIC = {6: 1, 8: 3, 10: 60}

# SHA-256 of `dmlab enumerate --order 10 --connected --sorted` stdout (with
# --valency 3 for the second), recorded before the vertex-invariant quotient
# was added; the canonical forms of the classes must not change
SORTED_ORDER_10_SHA256 = {
    4: "223c085c6dc61383c497ad4ed9bc563f6a0f34e50854781e8ff37a5d9a3a579e",
    3: "89536fe87c20bd07de498652220a03fd5339e7c2004b6e84e108bc9cda17fea8",
}

# SHA-256 of `dmlab enumerate --order 10` stdout (with --valency 3 for the
# second): the classes in the order the walk first reaches them, recorded
# before the triangle-count row prune and the seeded leaf key were added;
# pruning nodes that keep no leaf must not move a class
UNSORTED_ORDER_SHA256 = {
    4: "3de0eaeac09b5ad3cb477275a6749f88794ea480955780c6184401e4b3afea32",
    3: "d7d05332034f8a69c343d248fd626393842764404f6c2e46ad165508c5964036",
}

# SHA-256 of `dmlab enumerate --order 10 --connected` stdout (with --valency 3
# for the second), recorded while the leaf still tested connectivity; stopping
# the connected walk where a component closes must not move a class
UNSORTED_CONNECTED_ORDER_SHA256 = {
    4: "38efd10df5ed1344f0b687d6d4815a50d78c583d9c57b9ffabf0a74e37014655",
    3: "1980c5486c4d44f6b73a515c6c656600aa1eaf1c5661bdf49f344563e39f1d1b",
}


def _count_certificates(monkeypatch):
    """Log each certificate the enumerator asks for: "leaf" for the key of a
    kept leaf, "class" for the canonical form of a new class and "rooted" for
    a partial graph at the rows of vertex 0's neighbours."""
    calls = []

    def canonical(g, root=None):
        calls.append("class" if root is None else "rooted")
        return canonical_certificate(g, root=root)

    def leaf_key(g, start):
        calls.append("leaf")
        return _least_key(g, start)

    monkeypatch.setattr(enumerator, "canonical_certificate", canonical)
    monkeypatch.setattr(enumerator, "_least_key", leaf_key)
    return calls


class TestCounts:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_QUARTIC.items()))
    def test_connected_quartic(self, n, count):
        graphs = list(enumerate_regular(EnumerationTask(n, 4, connected=True)))
        assert len(graphs) == count

    def test_cubic_small(self):
        # 3-regular connected: K4 at n=4, K_{3,3} and the prism at n=6
        assert len(list(enumerate_regular(EnumerationTask(4, 3)))) == 1
        assert len(list(enumerate_regular(EnumerationTask(6, 3)))) == 2

    @pytest.mark.parametrize("n,count", sorted(CONNECTED_CUBIC.items()))
    def test_connected_cubic_oeis(self, n, count):
        assert len(list(enumerate_regular(EnumerationTask(n, 3, connected=True)))) == count

    @pytest.mark.parametrize("n,count", sorted(CONNECTED_QUINTIC.items()))
    def test_connected_quintic_oeis(self, n, count):
        assert len(list(enumerate_regular(EnumerationTask(n, 5, connected=True)))) == count

    @pytest.mark.slow
    def test_connected_quartic_13(self):
        # OEIS A006820 at the largest order accepted; about 30 s on a 2-CPU
        # machine, so it runs under `-m slow` and not in Tier-1
        assert sum(1 for _ in enumerate_regular(EnumerationTask(13, 4))) == 10778

    def test_all_quartic_order_10_oeis(self):
        # OEIS A033301: quartic graphs, connected or not; at n = 10 the one
        # disconnected class is K5 + K5
        graphs = list(enumerate_regular(EnumerationTask(10, 4, connected=False)))
        assert len(graphs) == 60
        assert sum(not is_connected(g) for g in graphs) == 1

    def test_cycle_is_unique_2_regular(self):
        for n in range(3, 11):
            graphs = list(enumerate_regular(EnumerationTask(n, 2, connected=True)))
            assert len(graphs) == 1

    def test_complete_graph_extremes(self):
        for n in range(2, 8):
            graphs = list(enumerate_regular(EnumerationTask(n, n - 1)))
            assert len(graphs) == 1
            assert graphs[0].edges == frozenset(
                (i, j) for i in range(n) for j in range(i + 1, n)
            )

    @pytest.mark.parametrize("connected", [True, False])
    def test_valency_0_is_the_edgeless_graph(self, connected):
        # the walk's only leaf; it is connected only at order 1
        for n in range(1, 11):
            graphs = list(enumerate_regular(EnumerationTask(n, 0, connected=connected)))
            assert graphs == ([Graph(n, [])] if n == 1 or not connected else [])


class TestOutputProperties:
    @pytest.mark.parametrize("order,valency,connected", [
        (8, 4, False), (9, 4, True), (10, 3, False), (8, 5, True), (9, 2, False), (7, 6, True),
    ])
    def test_yields_canonical_forms(self, order, valency, connected):
        # each class comes out as the graph its certificate encodes
        task = EnumerationTask(order, valency, connected)
        for g in enumerate_regular(task):
            assert write_graph6(g).encode("ascii") == canonical_certificate(g)

    def test_members_are_regular_connected(self):
        for n in (5, 6, 7, 8):
            for g in enumerate_regular(EnumerationTask(n, 4, connected=True)):
                assert g.n == n
                assert is_regular(g, 4)
                assert is_connected(g)

    def test_pairwise_non_isomorphic(self):
        graphs = list(enumerate_regular(EnumerationTask(8, 4, connected=True)))
        certs = [canonical_certificate(g) for g in graphs]
        assert len(set(certs)) == len(certs)

    def test_matches_networkx_isomorphism_classes(self):
        for n in (8, 10):
            graphs = [to_nx(g) for g in enumerate_regular(EnumerationTask(n, 4, connected=True))]
            assert len(graphs) == CONNECTED_QUARTIC[n]
            for g1, g2 in itertools.combinations(graphs, 2):
                assert not nx.is_isomorphic(g1, g2)

    @pytest.mark.parametrize("valency", sorted(SORTED_ORDER_10_SHA256))
    def test_sorted_output_pinned(self, capsys, valency):
        argv = ["enumerate", "--order", "10", "--valency", str(valency), "--connected", "--sorted"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
        assert digest == SORTED_ORDER_10_SHA256[valency]

    def test_quartic_10_fixture_is_the_sorted_output(self):
        text = "".join(s + "\n" for s in QUARTIC_10)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == SORTED_ORDER_10_SHA256[4]

    @pytest.mark.parametrize("valency", sorted(UNSORTED_ORDER_SHA256))
    def test_unsorted_output_pinned(self, capsys, valency):
        assert main(["enumerate", "--order", "10", "--valency", str(valency)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
        assert digest == UNSORTED_ORDER_SHA256[valency]

    @pytest.mark.parametrize("valency", sorted(UNSORTED_CONNECTED_ORDER_SHA256))
    def test_unsorted_connected_output_pinned(self, capsys, valency):
        assert main(["enumerate", "--order", "10", "--valency", str(valency), "--connected"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
        assert digest == UNSORTED_CONNECTED_ORDER_SHA256[valency]

    @pytest.mark.parametrize("order,valency,classes", [(10, 4, 59), (8, 3, 5), (10, 3, 19)])
    def test_connected_walk_reaches_no_disconnected_leaf(self, monkeypatch, order, valency, classes):
        # a connected task stops at a row whose vertex no earlier row reached,
        # so every labeled graph that reaches the leaf quotient is connected
        root_cells = enumerator._root_cells

        def connected_only(adj):
            reached = {0}
            stack = [0]
            while stack:
                for u in adj[stack.pop()] - reached:
                    reached.add(u)
                    stack.append(u)
            assert len(reached) == len(adj), "disconnected leaf in a connected walk"
            return root_cells(adj)

        monkeypatch.setattr(enumerator, "_root_cells", connected_only)
        graphs = list(enumerate_regular(EnumerationTask(order, valency, connected=True)))
        assert len(graphs) == classes
        assert all(is_connected(g) for g in graphs)

    def test_few_certificate_calls(self, monkeypatch):
        # the vertex-invariant quotient and the rejection of isomorphic partial
        # graphs leave few labeled leaves to certify: 87 at order 10 with the
        # twin rule, 98 without it, against 657 without the rejection and
        # 21,739 without either (both without the twin rule); the rejection
        # itself makes 399 rooted calls (551 without the twin rule; 664 and
        # 903 without the triangle-count row prune), and each of the 59
        # classes costs one canonical certificate more
        calls = _count_certificates(monkeypatch)
        graphs = list(enumerate_regular(EnumerationTask(10, 4, connected=True)))
        assert len(graphs) == 59
        assert 59 <= calls.count("leaf") <= 150
        assert calls.count("class") == 59
        assert len(calls) <= 1200

    def test_twin_rule_cuts_certificate_calls(self, monkeypatch):
        # taking twins in index order skips the children a twin swap maps onto
        # earlier ones: 87 leaf and 399 rooted calls at order 10, against 98
        # and 551 when every combination of touched vertices is walked
        calls = _count_certificates(monkeypatch)
        assert sum(1 for _ in enumerate_regular(EnumerationTask(10))) == 59
        assert calls.count("leaf") <= 90
        assert calls.count("rooted") <= 700

    def test_triangle_prune_cuts_rooted_calls(self, monkeypatch):
        # at rows r and r + 1 a partial graph with a vertex of more triangles
        # than vertex 0 is dropped before its rooted certificate: at order 10,
        # 399 rooted certificates and 240 leaves reaching the vertex-invariant
        # quotient, against 664 and 349 without the prune
        calls = _count_certificates(monkeypatch)
        leaves = []
        root_cells = enumerator._root_cells

        def counted(adj):
            leaves.append(1)
            return root_cells(adj)

        monkeypatch.setattr(enumerator, "_root_cells", counted)
        assert sum(1 for _ in enumerate_regular(EnumerationTask(10))) == 59
        assert calls.count("rooted") <= 450
        assert len(leaves) <= 260

    def test_first_class_comes_before_the_walk_ends(self, monkeypatch):
        # the generator yields each class as soon as it is certified
        calls = _count_certificates(monkeypatch)
        total = sum(1 for _ in enumerate_regular(EnumerationTask(10)))
        full_run = len(calls)
        calls.clear()
        next(enumerate_regular(EnumerationTask(10)))
        assert total == 59
        assert 1 <= len(calls) < full_run

    def test_certified_graphs_are_well_formed(self, monkeypatch):
        # the walk hands its adjacency sets to the trusting Graph constructor;
        # rebuilding each graph from its edges through the validating one must
        # give the same neighbour tuples: sorted, symmetric, loop-free, in range
        calls = []

        def checked(g, root=None):
            calls.append(root)
            assert all(type(nb) is tuple for nb in g.neighbors)
            assert Graph(g.n, g.edges) == g
            return canonical_certificate(g, root=root)

        monkeypatch.setattr(enumerator, "canonical_certificate", checked)
        for n, classes in ((8, 6), (10, 59)):
            calls.clear()
            assert sum(1 for _ in enumerate_regular(EnumerationTask(n))) == classes
            assert None in calls and 0 in calls  # leaves and partial graphs

    def test_wreath_appears(self):
        for k in (3, 4, 5):
            task = EnumerationTask(2 * k, 4, connected=True)
            certs = {canonical_certificate(g) for g in enumerate_regular(task)}
            assert canonical_certificate(build_wreath(k)) in certs

    def test_deterministic(self):
        a = [g.edges for g in enumerate_regular(EnumerationTask(8, 4))]
        b = [g.edges for g in enumerate_regular(EnumerationTask(8, 4))]
        assert a == b


class TestErrors:
    def test_order_above_guarantee(self):
        with pytest.raises(EnumerationError, match="order 13"):
            list(enumerate_regular(EnumerationTask(14, 4)))

    def test_valency_at_least_order(self):
        with pytest.raises(EnumerationError):
            list(enumerate_regular(EnumerationTask(4, 4)))

    def test_odd_degree_sum(self):
        with pytest.raises(EnumerationError):
            list(enumerate_regular(EnumerationTask(5, 3)))

    @pytest.mark.parametrize(
        "order,valency", [(0, 0), (6, -1), (6.0, 4), ("6", 4), (6, 4.0), (True, 0), (6, True)]
    )
    def test_bad_task(self, order, valency):
        # exact ints, as validate_sequence: a float or a string must not reach
        # the walk, and True must not act as order 1
        match = re.escape(f"bad task: order {order!r}, valency {valency!r}") + "$"
        with pytest.raises(EnumerationError, match=match):
            list(enumerate_regular(EnumerationTask(order, valency)))

    @pytest.mark.parametrize("connected", ["no", 0, 1, None], ids=repr)
    def test_non_bool_connected_rejected(self, connected):
        # 'no' is truthy: taken as it is, it walked connected (59 classes at
        # order 10 where connected=False gives 60)
        match = re.escape(f"connected must be a bool, got {connected!r}") + "$"
        with pytest.raises(EnumerationError, match=match):
            list(enumerate_regular(EnumerationTask(10, 4, connected=connected)))

    def test_census_rejects_a_float_order(self):
        with pytest.raises(EnumerationError, match="bad task: order 6.0, valency 4$"):
            census_pipeline([6.0])


class TestCensus:
    def test_orders_6_8_10(self, monkeypatch):
        calls = _count_certificates(monkeypatch)
        rows = census_pipeline([6, 8, 10])
        assert [(r.order, r.total, len(r.candidates), r.dm_confirmed) for r in rows] == [
            (6, 1, 1, 1),
            (8, 6, 1, 1),
            (10, 59, 1, 1),
        ]
        # the filter reads the walk's labeled copy of each class, so only the
        # 3 candidates are canonicalised, against all 66 classes before
        assert calls.count("class") == 3
        for row in rows:
            (cand,) = row.candidates
            assert canonical_certificate(cand) == canonical_certificate(
                build_wreath(row.order // 2)
            )

    def test_order_12(self, monkeypatch):
        # the paper's order-12 row: W(6) and QW(3,3) are the only connected
        # quartic distance magic graphs among the 1544 of OEIS A006820
        calls = _count_certificates(monkeypatch)
        (row,) = census_pipeline([12])
        assert (row.order, row.total, len(row.candidates), row.dm_confirmed) == (12, 1544, 2, 2)
        # only the candidates are canonicalised: 2 certificates, against 1544
        # when every class was before the filter
        assert calls.count("class") == 2
        expected = {build_wreath(6), build_qw(profile_to_sequence((3, 3)))}
        assert {canonical_certificate(g) for g in row.candidates} == {
            canonical_certificate(g) for g in expected
        }
        # in canonical form, in the order the walk reached them, as recorded
        # when every class was canonicalised before the filter
        assert all(write_graph6(c) == canonical_certificate(c).decode() for c in row.candidates)
        assert [write_graph6(c) for c in row.candidates] == ["K?C`xzCqE_{C", "K??@xzKrF_]?"]

    @pytest.mark.slow
    def test_order_13(self):
        # the largest order the enumerator accepts: 10,778 classes (OEIS
        # A006820), none a candidate since the order is odd
        (row,) = census_pipeline([13])
        assert (row.order, row.total, len(row.candidates), row.dm_confirmed) == (13, 10778, 0, 0)

    def test_odd_orders_have_no_survivors(self):
        rows = census_pipeline([7, 9])
        assert [(r.total, len(r.candidates)) for r in rows] == [(2, 0), (16, 0)]

    def test_graphs_are_filtered_as_they_arrive(self, monkeypatch):
        # memory is bounded by the candidates, not by the classes of an order
        import dmlab.spectral as spectral

        events = []
        classes = enumerator._classes
        screen, filter_one = spectral.near_twin_pair, spectral.corollary_filter

        def logged_classes(task):
            for g in classes(task):
                events.append("yield")
                yield g

        def logged_screen(g):
            pair = screen(g)
            events.append("passed" if pair is None else "screened")
            return pair

        def logged_filter(g):
            events.append("filter")
            return filter_one(g)

        monkeypatch.setattr(enumerator, "_classes", logged_classes)
        monkeypatch.setattr(spectral, "near_twin_pair", logged_screen)
        monkeypatch.setattr(spectral, "corollary_filter", logged_filter)
        (row,) = census_pipeline([8])
        assert (row.total, len(row.candidates), row.dm_confirmed) == (6, 1, 1)
        # class k is decided, by the screen or by the filter, before class
        # k + 1 is enumerated: each yield is followed by its whole decision
        assert events[0] == "yield"
        decisions = []
        for event in events:
            if event == "yield":
                decisions.append(())
            else:
                decisions[-1] += (event,)
        assert sorted(decisions) == [("passed", "filter")] * 3 + [("screened",)] * 3

    def test_near_twin_classes_skip_the_filter(self, monkeypatch):
        import dmlab.spectral as spectral

        filtered = []
        filter_one = spectral.corollary_filter

        def counted_filter(g):
            filtered.append(g.n)
            return filter_one(g)

        monkeypatch.setattr(spectral, "corollary_filter", counted_filter)
        rows = census_pipeline([6, 8, 10])
        assert [(r.total, len(r.candidates)) for r in rows] == [(1, 1), (6, 1), (59, 1)]
        assert [filtered.count(n) for n in (6, 8, 10)] == [1, 3, 9]
        # the survivors are the classes in which no two neighbour sets differ
        # in exactly one vertex each
        survivors = [
            sum(
                all(len(set(a) ^ set(b)) != 2 for a, b in itertools.combinations(g.neighbors, 2))
                for g in enumerator._classes(EnumerationTask(n))
            )
            for n in (6, 8, 10)
        ]
        assert survivors == [1, 3, 9]
