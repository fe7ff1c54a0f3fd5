import hashlib
import itertools

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
from dmlab.graph import Graph, canonical_certificate, is_connected, is_regular, write_graph6
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
        # OEIS A006820 at the largest order accepted; about a minute, so it
        # runs under `-m slow` and not in Tier-1
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

    def test_few_certificate_calls(self, monkeypatch):
        # the vertex-invariant quotient and the rejection of isomorphic partial
        # graphs leave few labeled leaves to certify: 87 at order 10 with the
        # twin rule, 98 without it, against 657 without the rejection and
        # 21,739 without either (both without the twin rule); the rejection
        # itself makes 664 rooted calls (903 without the twin rule)
        calls = []

        def counted(g, root=None):
            calls.append(root)
            return canonical_certificate(g, root=root)

        monkeypatch.setattr(enumerator, "canonical_certificate", counted)
        graphs = list(enumerate_regular(EnumerationTask(10, 4, connected=True)))
        assert len(graphs) == 59
        assert 59 <= calls.count(None) <= 150
        assert len(calls) <= 1200

    def test_twin_rule_cuts_certificate_calls(self, monkeypatch):
        # taking twins in index order skips the children a twin swap maps onto
        # earlier ones: 87 unrooted and 664 rooted calls at order 10, against
        # 98 and 903 when every combination of touched vertices is walked
        calls = []

        def counted(g, root=None):
            calls.append(root)
            return canonical_certificate(g, root=root)

        monkeypatch.setattr(enumerator, "canonical_certificate", counted)
        assert sum(1 for _ in enumerate_regular(EnumerationTask(10))) == 59
        assert calls.count(None) <= 90
        assert len(calls) - calls.count(None) <= 700

    def test_first_class_comes_before_the_walk_ends(self, monkeypatch):
        # the generator yields each class as soon as it is certified
        calls = []

        def counted(g, root=None):
            calls.append(root)
            return canonical_certificate(g, root=root)

        monkeypatch.setattr(enumerator, "canonical_certificate", counted)
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


class TestCensus:
    def test_orders_6_8_10(self):
        rows = census_pipeline([6, 8, 10])
        assert [(r.order, r.total, len(r.candidates), r.dm_confirmed) for r in rows] == [
            (6, 1, 1, 1),
            (8, 6, 1, 1),
            (10, 59, 1, 1),
        ]
        for row in rows:
            (cand,) = row.candidates
            assert canonical_certificate(cand) == canonical_certificate(
                build_wreath(row.order // 2)
            )

    def test_order_12(self):
        # the paper's order-12 row: W(6) and QW(3,3) are the only connected
        # quartic distance magic graphs among the 1544 of OEIS A006820
        (row,) = census_pipeline([12])
        assert (row.order, row.total, len(row.candidates), row.dm_confirmed) == (12, 1544, 2, 2)
        expected = {build_wreath(6), build_qw(profile_to_sequence((3, 3)))}
        assert {canonical_certificate(g) for g in row.candidates} == {
            canonical_certificate(g) for g in expected
        }

    def test_odd_orders_have_no_survivors(self):
        rows = census_pipeline([7, 9])
        assert [(r.total, len(r.candidates)) for r in rows] == [(2, 0), (16, 0)]

    def test_graphs_are_filtered_as_they_arrive(self, monkeypatch):
        # memory is bounded by the candidates, not by the classes of an order
        import dmlab.spectral as spectral

        events = []
        enumerate_all, filter_one = enumerator.enumerate_regular, spectral.corollary_filter

        def logged_enumerate(task):
            for g in enumerate_all(task):
                events.append("yield")
                yield g

        def logged_filter(g):
            events.append("filter")
            return filter_one(g)

        monkeypatch.setattr(enumerator, "enumerate_regular", logged_enumerate)
        monkeypatch.setattr(spectral, "corollary_filter", logged_filter)
        (row,) = census_pipeline([8])
        assert (row.total, len(row.candidates), row.dm_confirmed) == (6, 1, 1)
        # graph k is filtered before graph k + 1 is enumerated
        assert events == ["yield", "filter"] * 6
