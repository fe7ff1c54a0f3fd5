import hashlib
import time

import pytest

import dmlab.kfk as kfk
from conftest import odd_compositions
from dmlab.constructive import construct_labeling
from dmlab.errors import ExpansionError
from dmlab.graph import Graph, canonical_certificate, is_connected, is_regular, write_graph6
from dmlab.kfk import (
    ZeroAntipodal4Cycle,
    expand,
    expand_default,
    find_zero_antipodal_cycles,
)
from dmlab.labeling import CenteredLabeling, verify, wreath_labeling
from dmlab.qw import build_qw, build_wreath, classify, profile_to_sequence


def w3_setup():
    return build_wreath(3), wreath_labeling(3)


class TestFindCycles:
    def test_w3_has_qualifying_cycles(self):
        g, lab = w3_setup()
        cycles = find_zero_antipodal_cycles(g, lab)
        assert cycles
        labels = lab.labels
        for cyc in cycles:
            a, b, c, d = cyc.vertices
            assert labels[a] + labels[c] == 0
            assert labels[b] + labels[d] == 0
            for u, v in cyc.edges:
                assert g.has_edge(u, v)

    def test_representative_convention(self):
        g, lab = w3_setup()
        for cyc in find_zero_antipodal_cycles(g, lab):
            a, b, c, d = cyc.vertices
            assert a == min(cyc.vertices)
            assert b < d

    def test_sorted_and_deterministic(self):
        g, lab = w3_setup()
        once = [c.vertices for c in find_zero_antipodal_cycles(g, lab)]
        again = [c.vertices for c in find_zero_antipodal_cycles(g, lab)]
        assert once == again == sorted(once)

    def test_rejects_non_magic_labeling(self):
        g, _ = w3_setup()
        bad = list(wreath_labeling(3).labels)
        bad[0], bad[1] = bad[1], bad[0]
        with pytest.raises(ExpansionError, match="not distance magic"):
            find_zero_antipodal_cycles(g, CenteredLabeling(6, tuple(bad)))


class TestExpand:
    def test_w3_expansion_properties(self):
        g, lab = w3_setup()
        cycles = find_zero_antipodal_cycles(g, lab)
        g2, lab2 = expand(g, lab, cycles[0])
        assert g2.n == 8
        assert is_regular(g2, 4)
        assert is_connected(g2)
        assert verify(g2, lab2).ok
        assert sorted(map(abs, lab2.labels))[-2:] == [7, 7]

    def test_new_vertices_join_cycle(self):
        g, lab = w3_setup()
        cyc = find_zero_antipodal_cycles(g, lab)[0]
        g2, _ = expand(g, lab, cyc)
        assert g2.neighbors[6] == tuple(sorted(cyc.vertices))
        assert g2.neighbors[7] == tuple(sorted(cyc.vertices))
        for u, v in cyc.edges:
            assert not g2.has_edge(u, v)

    def test_rejects_missing_edge(self):
        g, lab = w3_setup()
        with pytest.raises(ExpansionError, match="missing"):
            # u0-v0 is not an edge of the wreath graph
            expand(g, lab, ZeroAntipodal4Cycle((0, 1, 2, 3)))

    def test_rejects_bad_antipodal_sums(self):
        g, lab = w3_setup()
        # pick a genuine 4-cycle whose antipodal sums are nonzero
        for cyc in _all_4cycles(g):
            a, b, c, d = cyc
            if lab.labels[a] + lab.labels[c] != 0:
                with pytest.raises(ExpansionError, match="antipodal"):
                    expand(g, lab, ZeroAntipodal4Cycle(cyc))
                return
        pytest.skip("no unbalanced 4-cycle in fixture")

    def test_rejects_repeated_cycle_vertex(self):
        g, lab = w3_setup()
        with pytest.raises(ExpansionError, match="not distinct"):
            expand(g, lab, ZeroAntipodal4Cycle((0, 1, 0, 1)))

    def test_rejects_non_magic_labeling(self):
        g, lab = w3_setup()
        cycle = find_zero_antipodal_cycles(g, lab)[0]
        bad = list(lab.labels)
        bad[0], bad[1] = bad[1], bad[0]
        with pytest.raises(ExpansionError, match="not distance magic"):
            expand(g, CenteredLabeling(6, tuple(bad)), cycle)

    def test_rejects_non_tetravalent(self):
        from dmlab.graph import Graph

        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        lab = CenteredLabeling(4, (-3, -1, 3, 1))
        with pytest.raises(ExpansionError, match="tetravalent"):
            expand(c4, lab, ZeroAntipodal4Cycle((0, 1, 2, 3)))


def _all_4cycles(g):
    out = []
    for a in range(g.n):
        for b in g.neighbors[a]:
            for c in g.neighbors[b]:
                if c in (a, b):
                    continue
                for d in g.neighbors[c]:
                    if d not in (a, b, c) and g.has_edge(d, a):
                        out.append((a, b, c, d))
    return out


class TestExpandDefault:
    def test_qw7_does_not_collapse_to_wreath(self):
        seq = profile_to_sequence((7,))
        g = build_qw(seq)
        lab = construct_labeling(seq)
        g2, lab2 = expand_default(g, lab)
        assert g2.n == 16
        assert is_regular(g2, 4) and is_connected(g2)
        assert verify(g2, lab2).ok
        assert canonical_certificate(g2) != canonical_certificate(build_wreath(8))

    def test_iterated_expansion(self):
        g, lab = w3_setup()
        for _ in range(3):
            g, lab = expand_default(g, lab)
        assert g.n == 12
        assert is_regular(g, 4)
        assert verify(g, lab).ok

    def test_input_verified_once(self, monkeypatch):
        # one check of the input labeling and one of the result
        seen = []

        def counted(g, lab):
            seen.append(g.n)
            return verify(g, lab)

        monkeypatch.setattr(kfk, "verify", counted)
        g, lab = w3_setup()
        expand_default(g, lab)
        assert seen == [6, 8]

    def test_no_qualifying_cycle(self):
        # W(4) is K_{4,4} on the even and the odd vertices.  An antipodal pair
        # of a 4-cycle lies on one side, and neither side here holds two labels
        # summing to zero; each side sums to zero, so the labeling is magic
        g, lab = build_wreath(4), CenteredLabeling(8, (-7, -5, -1, -3, 3, 1, 5, 7))
        assert verify(g, lab).ok
        with pytest.raises(ExpansionError, match="no zero-antipodal 4-cycle"):
            expand_default(g, lab)

    @pytest.mark.parametrize("labels,message", [
        ((3, 1, -3, -1), "expansion requires a tetravalent graph"),  # has a qualifying cycle
        ((3, -1, 1, -3), "labeling is not distance magic"),
    ])
    def test_non_tetravalent_errors_keep_their_order(self, labels, message):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ExpansionError, match=message):
            expand_default(c4, CenteredLabeling(4, labels))

    def test_qw7_result_keeps_a_triangle(self):
        # wreath graphs of order >= 8 are triangle-free, so a triangle in the
        # expanded graph shows it is genuinely new
        seq = profile_to_sequence((7,))
        g2, _ = expand_default(build_qw(seq), construct_labeling(seq))
        adj = [set(nb) for nb in g2.neighbors]
        assert any(adj[u] & adj[v] for u, v in g2.edges)


def _pin_inputs():
    """(input, graph, labeling): every distance magic QW profile with m <= 14
    (all have odd parts) in (m, profile) order, then W(3..12)."""
    profiles = sorted(
        (p for p in odd_compositions(14) if classify(profile_to_sequence(p)).distance_magic),
        key=lambda p: (sum(p), p),
    )
    for parts in profiles:
        seq = profile_to_sequence(parts)
        yield ("qw", parts), build_qw(seq), construct_labeling(seq)
    for k in range(3, 13):
        yield ("wreath", k), build_wreath(k), wreath_labeling(k)


class TestBytesPinned:
    # SHA-256 over repr((input, cycles, expand_default graph6, labels)) for
    # _pin_inputs, recorded before the cycle search used a label -> vertex
    # map and the default expansion listed the triangles once
    SHA256 = "563050dbeaa02de837ead2c128d5b35ba6fedc3b38ff235ce101802cb47a8d70"

    def test_cycles_and_default_expansion_pinned(self):
        h = hashlib.sha256()
        count = 0
        for key, g, lab in _pin_inputs():
            cycles = tuple(c.vertices for c in find_zero_antipodal_cycles(g, lab))
            g2, lab2 = expand_default(g, lab)
            h.update(repr((key, cycles, write_graph6(g2), lab2.labels)).encode())
            count += 1
        assert count == 30
        assert h.hexdigest() == self.SHA256


class TestLinearTime:
    def test_w3000_default_expansion_is_fast(self):
        # n = 6,000; the all-pairs antipode scan and a per-cycle rescan of
        # every edge took about 30 s on a 2-CPU machine
        g, lab = build_wreath(3000), wreath_labeling(3000)
        start = time.perf_counter()
        g2, lab2 = expand_default(g, lab)
        assert time.perf_counter() - start < 5.0
        assert g2.n == 6002 and verify(g2, lab2).ok
