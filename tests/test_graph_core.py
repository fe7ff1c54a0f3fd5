import hashlib
import itertools
import random
import re
import time
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmlab.graph
from conftest import QUARTIC_10, all_profiles, random_graph, relabel, to_nx
from dmlab.enumerator import _root_cells, _vertex_invariant
from dmlab.errors import Graph6Error, OrderTooLargeError
from dmlab.graph import (
    Graph,
    _adjacency_key,
    _least_key,
    _pack_graph6,
    _refine,
    canonical_certificate,
    is_connected,
    is_regular,
    parse_graph6,
    write_graph6,
)
from dmlab.qw import build_qw, build_wreath, profile_to_sequence

# octahedron = K_{2,2,2}: complete minus the perfect matching (0,3),(1,4),(2,5).
# Its graph6 line was derived by hand from the format definition (header 63+6,
# upper-triangle bits 111011 101111 011000 -> 'z','n','W').
OCTAHEDRON = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3])
OCTAHEDRON_G6 = "EznW"

# SHA-256 of the newline-terminated lines of write_graph6 over GRAPH6_PIN_GRAPHS
# and of canonical_certificate over CERTIFICATE_PIN_GRAPHS, recorded before the
# certificate packed its least adjacency key straight into graph6; the bytes
# must not change
GRAPH6_PIN_SHA256 = "58d293ffb02d6a6a01bb9af8e271c0255b90308d2c70ee51c291fc142fb65550"
CERTIFICATE_PIN_SHA256 = "34c87ba2baffaff8bc8051b96f22fcb9e61123e81f5105895692dcaff0db2dd6"


def _pin_graphs(orders, make):
    rng = random.Random(0x96)
    return [make(rng, n) for n in orders]


def _cycle_union(rng, n):
    """2-regular graph on n >= 3 vertices: shuffled vertices cut into cycles of length >= 3."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    while order:
        length = len(order) if len(order) < 6 else rng.randint(3, len(order) - 3)
        cycle, order = order[:length], order[length:]
        edges.extend((cycle[i - 1], cycle[i]) for i in range(length))
    return Graph(n, edges)


# four densities at each order either side of the short/long form boundary
GRAPH6_PIN_GRAPHS = _pin_graphs(
    [n for n in (1, 2, 5, 6, 7, 62, 63, 74, 130) for _ in range(4)],
    lambda rng, n: random_graph(rng, n, rng.choice((0.0, 0.1, 0.5, 1.0))),
)
# mid densities above order 7 keep every search tree small; in a union of
# cycles of different lengths refinement leaves one cell that is not an orbit,
# so the certificate picks the least key among unequal leaves
CERTIFICATE_PIN_GRAPHS = _pin_graphs(
    [n for n in range(1, 17) for _ in range(25)],
    lambda rng, n: random_graph(rng, n, rng.uniform(0.3, 0.7) if n > 7 else rng.random()),
) + _pin_graphs([n for n in range(3, 13) for _ in range(3)], _cycle_union)


def _partitions(n, most=None):
    """Partitions of n into non-increasing parts of at most `most`."""
    most = n if most is None else most
    if n == 0:
        yield ()
    for a in range(min(n, most), 0, -1):
        yield from ((a,) + rest for rest in _partitions(n - a, a))


def _complete_multipartite(parts):
    part_of = [i for i, a in enumerate(parts) for _ in range(a)]
    n = len(part_of)
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, [(u, v) for u, v in pairs if part_of[u] != part_of[v]])


def _twin_rich_graphs():
    """K_n, the edgeless graph, K_n minus a perfect matching and every complete
    multipartite graph for n <= 8, then W(3), W(4) and QW(S) for every profile
    with m <= 8: graphs whose automorphisms are mostly twin swaps."""
    out = []
    for n in range(1, 9):
        pairs = list(itertools.combinations(range(n), 2))
        out.append(Graph(n, pairs))
        out.append(Graph(n, []))
        if n % 2 == 0:
            out.append(Graph(n, [(u, v) for u, v in pairs if v != u + n // 2]))
        out.extend(_complete_multipartite(p) for p in _partitions(n))
    out.extend(build_wreath(k) for k in (3, 4))
    out.extend(build_qw(profile_to_sequence(p)) for p in all_profiles(8))
    return out


# SHA-256 of canonical_certificate over _twin_rich_graphs(), recorded while
# the certificate searched every leaf of its tree; skipping twin swaps must
# not change a byte
TWIN_RICH_PIN_SHA256 = "d3967613005450cbbe96e56ce33c22fb23231c9a57786eb83bd61ee9904bba3f"


def _circulant(n, steps):
    return Graph(n, [(v, (v + s) % n) for v in range(n) for s in steps])


def _generalized_petersen(n, k):
    """GP(n, k): outer cycle 0..n-1, spokes v -- n + v, inner cycle in steps of k."""
    edges = [(v, (v + 1) % n) for v in range(n)] + [(v, n + v) for v in range(n)]
    edges += [(n + v, n + (v + k) % n) for v in range(n)]
    return Graph(2 * n, edges)


def _hypercube(d):
    return Graph(1 << d, [(v, v ^ (1 << i)) for v in range(1 << d) for i in range(d)])


def _cycles(copies, length):
    """copies disjoint cycles of the given length."""
    return Graph(copies * length, [
        (c * length + i, c * length + (i + 1) % length) for c in range(copies) for i in range(length)
    ])


def _symmetric_graphs():
    """Petersen, Q3, Q4, the Mobius-Kantor graph GP(8, 3), the cycle C_n and the
    circulants C_n(1, k) for 5 <= n <= 16, and three and four disjoint 5-cycles:
    graphs with many automorphisms, nearly all of them twin-free, so that twin
    swaps prune little of the certificate's tree."""
    out = [_generalized_petersen(5, 2), _hypercube(3), _hypercube(4), _generalized_petersen(8, 3)]
    out += [_circulant(n, (1, k)) for n in range(5, 17) for k in range(1, n // 2 + 1)]
    out += [_cycles(3, 5), _cycles(4, 5)]
    return out


# SHA-256 of canonical_certificate and _rooted_key(g, 0) over
# _symmetric_graphs(), recorded while the certificate cost about |Aut| leaves on them
# (four 5-cycles alone took about 15 s); leaving a subtree on a leaf whose key
# equals the least one must not change a byte
SYMMETRIC_PIN_SHA256 = "777a71cdfe78c7a51d1624364e6313b57a214c08a72aef9ad319617fd8a1bc65"


def _shrikhande():
    """The Cayley graph of Z4 x Z4 on +-(1, 0), +-(0, 1), +-(1, 1): srg(16, 6, 2, 2)."""
    steps = ((1, 0), (0, 1), (1, 1))
    return Graph(16, [
        (4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4) for a in range(4) for b in range(4) for x, y in steps
    ])


def _rook(k):
    """The k x k rook's graph: cells adjacent when they share a row or a column."""
    cells = list(itertools.product(range(k), repeat=2))
    return Graph(k * k, [
        (k * a + b, k * c + d) for (a, b), (c, d) in itertools.combinations(cells, 2) if a == c or b == d
    ])


def _paley(q):
    """The Paley graph of prime order q = 1 (mod 4): u ~ v when v - u is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(u, v) for u, v in itertools.combinations(range(q), 2) if v - u in squares])


def _clebsch():
    """The folded 5-cube: 4-bit words adjacent at Hamming distance 1 or 4, srg(16, 5, 0, 2)."""
    return Graph(16, [
        (u, v) for u, v in itertools.combinations(range(16), 2) if bin(u ^ v).count("1") in (1, 4)
    ])


def _kneser(n, k):
    """K(n, k): the k-subsets of 0..n-1, adjacent when disjoint."""
    subsets = [set(c) for c in itertools.combinations(range(n), k)]
    return Graph(len(subsets), [
        (i, j) for i, j in itertools.combinations(range(len(subsets)), 2) if not subsets[i] & subsets[j]
    ])


def _leaf_budget(monkeypatch):
    """A one-element list; each leaf of the certificate's search (one adjacency
    key) spends one of budget[0], and the search fails once it is spent."""
    budget = [0]
    key = dmlab.graph._adjacency_key

    def counted(neighbors, order):
        budget[0] -= 1
        if budget[0] < 0:
            raise AssertionError("the certificate's search passed its leaf budget")
        return key(neighbors, order)

    monkeypatch.setattr(dmlab.graph, "_adjacency_key", counted)
    return budget


def _digest(lines):
    return hashlib.sha256(b"".join(line + b"\n" for line in lines)).hexdigest()


class TestGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_neighbor_lists_sorted(self):
        g = Graph(4, [(2, 0), (0, 3), (0, 1)])
        assert g.neighbors[0] == (1, 2, 3)

    def test_degree_sum_is_twice_edges(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 15))
            assert sum(g.degree(v) for v in range(g.n)) == 2 * len(g.edges)

    def test_immutable(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 5

    def test_equal_and_hash_ignore_edge_order(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 12))
            edges = list(g.edges)
            rng.shuffle(edges)
            reversed_pairs = [(v, u) for u, v in reversed(edges)]
            for h in (Graph(g.n, edges), Graph(g.n, reversed_pairs), Graph(g.n, edges * 2)):
                assert h == g and hash(h) == hash(g)

    def test_other_order_is_unequal(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert g != Graph(5, [(0, 1), (1, 2)])
        assert g != Graph(4, [(0, 1), (1, 3)])

    def test_rejects_order_0(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            Graph(0, [])

    @pytest.mark.parametrize("n,edges", [(True, []), (False, []), (2.0, [(0, 1)]), ("3", []), (Fraction(3), [])])
    def test_rejects_order_that_is_not_an_int(self, n, edges):
        # True would be the order; 2.0 and "3" failed in range() with a bare TypeError
        with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
            Graph(n, edges)

    def test_relabel_needs_a_permutation(self):
        g = Graph(3, [(0, 1), (1, 2)])
        for perm in ([0, 0, 1], [0, 1], [1, 2, 3]):
            with pytest.raises(ValueError, match="not a permutation"):
                g.relabel(perm)

    @pytest.mark.parametrize("perm", [[True, 0, 2], [0, False, 2], [2.0, 0, 1], [Fraction(1), 0, 2]])
    def test_relabel_needs_exact_ints(self, perm):
        # each of these sorts equal to 0..2, but a bool would end up in the
        # neighbour tuples and a float would fail as a list index
        with pytest.raises(ValueError, match="not a permutation"):
            Graph(3, [(0, 1), (1, 2)]).relabel(perm)

    @pytest.mark.parametrize("end", [True, 1.0, Fraction(1)])
    def test_rejects_endpoints_that_are_not_ints(self, end):
        # each equals vertex 1, but a bool would end up in the neighbour
        # tuples and a float or a Fraction fails as a list index
        for edge in [(0, end), (end, 2)]:
            with pytest.raises(ValueError, match="not an int"):
                Graph(3, [edge])

    def test_has_edge_outside_vertex_range(self):
        g = build_wreath(3)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        for u, v in [(99, 1), (1, 99), (-1, 0), (0, -1), (-1, 5), (5, -1), (6, 0), (0, 6)]:
            assert not g.has_edge(u, v)


class TestGraph6:
    def test_empty_graph_on_six(self):
        assert write_graph6(Graph(6, [])) == "E???"
        assert parse_graph6("E???").edges == frozenset()
        assert parse_graph6("E???").n == 6

    def test_octahedron_line(self):
        assert write_graph6(OCTAHEDRON) == OCTAHEDRON_G6
        g = parse_graph6(OCTAHEDRON_G6)
        assert g.edges == OCTAHEDRON.edges
        assert is_regular(g, 4)

    def test_roundtrip_random_graphs(self, rng):
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 20))
            assert parse_graph6(write_graph6(g)).edges == g.edges

    def test_write_parse_identity_on_valid_lines(self, rng):
        # independent source of valid lines: networkx's encoder
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 20))
            line = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
            assert write_graph6(parse_graph6(line)) == line
            assert parse_graph6(line).edges == g.edges

    @given(st.integers(min_value=1, max_value=20), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, n, seed):
        g = random_graph(random.Random(seed), n)
        assert parse_graph6(write_graph6(g)).edges == g.edges

    @pytest.mark.parametrize("n", [63, 74, 130])
    def test_long_form_matches_networkx(self, rng, n):
        g = random_graph(rng, n, p=0.1)
        line = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert line.startswith("~")
        assert write_graph6(g) == line
        assert parse_graph6(line) == g

    def test_bytes_pinned(self):
        lines = [write_graph6(g).encode("ascii") for g in GRAPH6_PIN_GRAPHS]
        assert _digest(lines) == GRAPH6_PIN_SHA256

    def test_memory_bounded_by_output(self):
        # a 3000-cycle is a 0.72 MiB line; a list of its 4.5 million bits peaked at 44 MiB
        n = 3000
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        tracemalloc.start()
        try:
            line = write_graph6(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(line) == 4 + (n * (n - 1) // 2 + 5) // 6
        assert parse_graph6(line) == g
        assert peak <= 4 * 2**20

    def test_parse_memory_bounded_by_input(self):
        # the 4.5 million bits of a 3000-cycle's line would take about 40 MiB as a list
        n = 3000
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        line = write_graph6(g)
        tracemalloc.start()
        try:
            back = parse_graph6(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == g
        assert peak <= 4 * 2**20

    def test_short_form_up_to_62(self):
        assert write_graph6(Graph(62, [])).startswith("}")
        assert write_graph6(Graph(63, [])).startswith("~??~")

    def test_rejects_order_above_258047(self):
        with pytest.raises(Graph6Error, match="258047"):
            write_graph6(Graph(258048, []))
        # '~~' opens the 8-byte header of orders above the limit
        with pytest.raises(Graph6Error, match="above 258047"):
            parse_graph6("~~?????~" + "?" * 10)
        # the largest long-form order is accepted as a header; only the body is short
        with pytest.raises(Graph6Error, match="for order 258047"):
            parse_graph6("~}~~")

    def test_rejects_truncated_long_form(self):
        with pytest.raises(Graph6Error):
            parse_graph6("~??")

    def test_rejects_long_form_header_char_out_of_range(self):
        # '!' is below 63, so it is no 6-bit group of the order
        with pytest.raises(Graph6Error, match="'!' out of range"):
            parse_graph6("~?!?")

    def test_rejects_long_form_for_short_order(self):
        # order 6 must use the short form "E???"
        with pytest.raises(Graph6Error, match="short form"):
            parse_graph6("~??E???")

    def test_rejects_bad_length(self):
        with pytest.raises(Graph6Error):
            parse_graph6("E??")

    def test_rejects_nonzero_padding(self):
        # order 2: one adjacency bit, five padding bits; '@' + chr(63+1) sets padding
        with pytest.raises(Graph6Error):
            parse_graph6("A@")

    def test_rejects_char_out_of_range(self):
        with pytest.raises(Graph6Error):
            parse_graph6("E?!?")

    def test_rejects_empty(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")


class TestPredicates:
    def test_octahedron_is_4_regular(self):
        assert is_regular(OCTAHEDRON, 4)

    def test_path_not_2_regular(self):
        assert not is_regular(Graph(3, [(0, 1), (1, 2)]), 2)

    def test_empty_graph_0_regular(self):
        assert is_regular(Graph(4, []), 0)

    def test_connectivity(self):
        assert is_connected(OCTAHEDRON)
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_connected(two_triangles)
        assert is_connected(Graph(1, []))


class TestCertificate:
    def test_invariant_under_permutation(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 12))
            base = canonical_certificate(g)
            for _ in range(50):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_certificate(g.relabel(perm)) == base

    def test_separates_nonisomorphic(self):
        c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_certificate(c6) != canonical_certificate(two_triangles)

    def test_matches_networkx_isomorphism(self, rng):
        graphs = [random_graph(rng, 7) for _ in range(40)]
        for a in graphs:
            for b in graphs:
                same = canonical_certificate(a) == canonical_certificate(b)
                assert same == nx.is_isomorphic(to_nx(a), to_nx(b))

    def test_qw33_differs_from_w6(self):
        qw = build_qw(profile_to_sequence((3, 3)))
        w6 = build_wreath(6)
        assert canonical_certificate(qw) != canonical_certificate(w6)
        # reason: W(6) is triangle-free, QW(3,3) contains the triangle (x1, x2, y1)
        assert sum(nx.triangles(to_nx(w6)).values()) == 0
        assert sum(nx.triangles(to_nx(qw)).values()) > 0

    def test_bytes_pinned(self):
        certs = [canonical_certificate(g) for g in CERTIFICATE_PIN_GRAPHS]
        assert _digest(certs) == CERTIFICATE_PIN_SHA256

    def test_twin_rich_bytes_pinned(self):
        graphs = _twin_rich_graphs()
        assert len(graphs) == 120
        certs = [canonical_certificate(g) for g in graphs]
        assert _digest(certs) == TWIN_RICH_PIN_SHA256
        for seed, g in enumerate(graphs):  # the pruning depends on the labeling
            assert canonical_certificate(relabel(g, seed)) == certs[seed]

    def test_k9_is_fast(self):
        # all vertices of K_n are twins, so the twin rule leaves its tree one
        # leaf; without the rule the backjump on equal keys still avoids the 9!
        # leaves, at about 80x the cost (K20: 191 leaves and 38 ms against one
        # leaf and 0.5 ms, 2-CPU machine)
        k9 = Graph(9, itertools.combinations(range(9), 2))
        start = time.perf_counter()
        cert = canonical_certificate(k9)
        assert time.perf_counter() - start < 1
        assert cert == write_graph6(k9).encode("ascii")

    def test_largest_order_of_twin_classes_is_fast(self):
        # K20 and the edgeless graph of order 20 are one twin class each
        for g in (Graph(20, []), Graph(20, itertools.combinations(range(20), 2))):
            start = time.perf_counter()
            assert canonical_certificate(g) == write_graph6(g).encode("ascii")
            assert time.perf_counter() - start < 1

    def test_symmetric_bytes_pinned(self):
        graphs = _symmetric_graphs()
        assert len(graphs) == 66
        certs = [c for g in graphs for c in (canonical_certificate(g), _rooted_key(g, 0))]
        assert _digest(certs) == SYMMETRIC_PIN_SHA256

    def test_symmetric_invariant_under_relabeling(self):
        for i, g in enumerate(_symmetric_graphs()):
            cert = canonical_certificate(g)
            for seed in range(3 * i, 3 * i + 3):
                assert canonical_certificate(relabel(g, seed)) == cert

    def test_symmetric_matches_networkx_isomorphism(self):
        graphs = _symmetric_graphs()
        certs = [canonical_certificate(g) for g in graphs]
        for a, b in itertools.combinations(range(len(graphs)), 2):
            same = certs[a] == certs[b]
            assert same == nx.is_isomorphic(to_nx(graphs[a]), to_nx(graphs[b]))

    def test_four_5_cycles_is_fast(self):
        # |Aut| = 10^4 * 4! = 240,000 and no two vertices are twins; without the
        # backjump on equal keys the search walks 240,000 leaves in about 15 s
        g = _cycles(4, 5)
        start = time.perf_counter()
        cert = canonical_certificate(g)
        assert time.perf_counter() - start < 1
        assert cert == canonical_certificate(relabel(g, 0))

    def test_tree_size_bounded(self, monkeypatch):
        # twin swaps and the backjump on equal keys keep these trees small.  K20
        # (closed twins) and the edgeless graph (open twins) are one leaf each;
        # the symmetric graphs take at most 51 leaves and the strongly regular
        # ones 124 (rooted or not, relabeled or not).  Without the backjump four
        # 5-cycles take 240,000 leaves
        budget = _leaf_budget(monkeypatch)
        keys = (canonical_certificate, lambda g: _rooted_key(g, 0))
        for g in (Graph(20, itertools.combinations(range(20), 2)), Graph(20, [])):
            for key in keys:
                budget[0] = 1
                key(g)
        for g in _symmetric_graphs():
            for key in keys:
                budget[0] = 64
                key(g)
        # Shrikhande and the 4 x 4 rook's graph are both srg(16, 6, 2, 2), so
        # refinement splits neither; Clebsch, Paley and Kneser graphs are
        # vertex-transitive and refinement splits none of them either
        graphs = [_shrikhande(), _rook(4), _clebsch(), _paley(13), _paley(17), _kneser(6, 2)]
        certs = []
        for g in graphs:
            budget[0] = 256
            certs.append(canonical_certificate(g))
            for seed in range(3):
                budget[0] = 256
                assert canonical_certificate(relabel(g, seed)) == certs[-1]
        for a, b in itertools.combinations(range(len(graphs)), 2):
            same = certs[a] == certs[b]
            assert same == nx.is_isomorphic(to_nx(graphs[a]), to_nx(graphs[b]))

    def test_order_bound(self):
        with pytest.raises(OrderTooLargeError):
            canonical_certificate(Graph(21, []))

    def test_wreath3_is_octahedron(self):
        assert canonical_certificate(build_wreath(3)) == canonical_certificate(OCTAHEDRON)


def _full_refine(neighbors, partition):
    """Reference refinement: each round recounts every vertex's neighbours in
    every cell and splits each cell by its count vectors, in ascending order."""
    while True:
        cell_id = {v: ci for ci, cell in enumerate(partition) for v in cell}
        new = []
        for cell in partition:
            by_counts = {}
            for v in cell:
                counts = [0] * len(partition)
                for w in neighbors[v]:
                    counts[cell_id[w]] += 1
                by_counts.setdefault(tuple(counts), []).append(v)
            new.extend(by_counts[c] for c in sorted(by_counts))
        if len(new) == len(partition):
            return partition
        partition = new


def _random_partition(rng, n):
    """The vertices 0..n-1 shuffled and cut into ordered cells."""
    vertices = list(range(n))
    rng.shuffle(vertices)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    return [vertices[a:b] for a, b in zip([0, *cuts], [*cuts, n])]


def _graph6_key(g, order):
    """The graph6 line of g relabeled so order[i] -> i, from its column-major bits."""
    adj = [set(a) for a in g.neighbors]
    return _pack_graph6(g.n, (order[i] in adj[oj] for j, oj in enumerate(order) for i in range(j)))


class TestRefine:
    # _refine counts only in the cells the last round made; the full recount
    # must give the same partition, cell order included

    def test_matches_full_recount_from_any_start(self, rng):
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 16), rng.random())
            start = _random_partition(rng, g.n)
            assert _refine(g.neighbors, start) == _full_refine(g.neighbors, start)

    def test_matches_full_recount_on_children(self, rng):
        # a child [v], rest of an equitable partition refines against its two
        # new cells only; walk one random path from each start to a leaf
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 16), rng.random())
            partition = _full_refine(g.neighbors, _random_partition(rng, g.n))
            while len(partition) < g.n:
                t = rng.choice([i for i, cell in enumerate(partition) if len(cell) > 1])
                v = rng.choice(partition[t])
                child = partition[:t] + [[v], [w for w in partition[t] if w != v]] + partition[t + 1:]
                partition = _refine(g.neighbors, child, (t, t + 1))
                assert partition == _full_refine(g.neighbors, child)

    def test_symmetric_graphs_match_full_recount(self):
        # refinement splits none of these regular graphs from one cell, and
        # individualising a vertex splits them in several rounds
        for g in _symmetric_graphs():
            one = [list(range(g.n))]
            assert _refine(g.neighbors, one) == _full_refine(g.neighbors, one)
            child = [[0], list(range(1, g.n))]
            assert _refine(g.neighbors, child, (0, 1)) == _full_refine(g.neighbors, child)


class TestAdjacencyKey:
    def test_int_keys_order_as_graph6_lines(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 16), rng.random())
            orders = [rng.sample(range(g.n), g.n) for _ in range(8)]
            keys = [_adjacency_key(g.neighbors, order) for order in orders]
            lines = [_graph6_key(g, order) for order in orders]
            for a, b in itertools.combinations(range(len(orders)), 2):
                assert (keys[a] < keys[b], keys[a] == keys[b]) == (lines[a] < lines[b], lines[a] == lines[b])

    def test_least_key_packs_as_graph6(self, rng):
        # a discrete start has one leaf, whose order is the start's
        assert _least_key(Graph(1, []), [[0]]) == b"@"
        for n in range(1, 21):
            for p in (0.0, 0.3, 0.7, 1.0):
                g = random_graph(rng, n, p)
                order = rng.sample(range(n), n)
                assert _least_key(g, [[v] for v in order]) == _graph6_key(g, order).encode("ascii")


def _leaf_key(g):
    """The enumerator's leaf key of g, with a vertex of largest invariant moved
    to 0 so that _root_cells gives the cells of equal invariant."""
    adj = [set(a) for a in g.neighbors]
    top = max(range(g.n), key=lambda v: _vertex_invariant(adj, v))
    perm = list(range(g.n))
    perm[0], perm[top] = top, 0
    h = g.relabel(perm)
    return _least_key(h, _root_cells([set(a) for a in h.neighbors]))


class TestSeededCertificate:
    # the enumerator's leaf key: equal exactly when the graphs are isomorphic,
    # although its search starts from the cells of equal vertex invariant

    def test_symmetric_matches_networkx_isomorphism(self):
        graphs = _symmetric_graphs()
        keys = [_leaf_key(g) for g in graphs]
        for i, g in enumerate(graphs):
            assert nx.is_isomorphic(to_nx(parse_graph6(keys[i].decode("ascii"))), to_nx(g))
            for seed in range(3 * i, 3 * i + 3):
                assert _leaf_key(relabel(g, seed)) == keys[i]
        for a, b in itertools.combinations(range(len(graphs)), 2):
            same = keys[a] == keys[b]
            assert same == nx.is_isomorphic(to_nx(graphs[a]), to_nx(graphs[b]))

    def test_unequal_triangle_counts(self):
        # the 59 connected quartic graphs of order 10, pairwise non-isomorphic;
        # most have vertices of different invariants, so the seed splits
        graphs = [parse_graph6(line) for line in QUARTIC_10]
        keys = [_leaf_key(g) for g in graphs]
        assert len(set(keys)) == len(graphs)
        for i, g in enumerate(graphs):
            assert _leaf_key(relabel(g, i)) == keys[i]

    def test_shrikhande_is_not_the_rook_graph(self):
        # both are srg(16, 6, 2, 2), so every vertex of either has 6 triangles
        # and 9 vertices at distance 2 with 2 common neighbours each: the seed
        # is one cell; they are not isomorphic
        shrikhande, rook = _shrikhande(), _rook(4)
        assert not nx.is_isomorphic(to_nx(shrikhande), to_nx(rook))
        for g in (shrikhande, rook):
            assert is_regular(g, 6)
            assert _root_cells([set(a) for a in g.neighbors]) == [list(range(16))]
        key = _leaf_key(shrikhande)
        assert key != _leaf_key(rook)
        for seed in range(3):
            assert _leaf_key(relabel(shrikhande, seed)) == key
            assert _leaf_key(relabel(rook, seed)) == _leaf_key(rook)


def _rooted_key(g, root):
    """The certificate search started from [[root], rest]: the enumerator's
    key of a walked partial graph, whose root is 0."""
    rest = [v for v in range(g.n) if v != root]
    return _least_key(g, [[root], rest] if rest else [[root]])


def _rooted_form(g, root):
    """Least sorted edge list over every relabeling that sends root to 0 (brute force)."""
    others = [v for v in range(g.n) if v != root]
    best = None
    for image in itertools.permutations(range(1, g.n)):
        p = dict(zip(others, image))
        p[root] = 0
        key = sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges)
        if best is None or key < best:
            best = key
    return g.n, tuple(best)


class TestRootedCertificate:
    # the enumerator's walked rejection rests on this: the rooted keys of
    # (g, 0) and (h, 0) are equal iff some isomorphism g -> h fixes 0

    def test_matches_brute_force_rooted_isomorphism(self, rng):
        # equal rooted keys <=> an isomorphism maps one root to the other;
        # the relabeled copies make the equal cases common
        graphs = []
        for seed, n in enumerate((1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 7, 7, 7, 7)):
            g = random_graph(rng, n, (0.3, 0.5)[seed % 2])
            graphs += [g, relabel(g, seed)]
        form_of, cert_of = {}, {}
        for g in graphs:
            for root in range(g.n):
                cert, form = _rooted_key(g, root), _rooted_form(g, root)
                assert form_of.setdefault(cert, form) == form
                assert cert_of.setdefault(form, cert) == cert
        assert len(cert_of) < sum(g.n for g in graphs)

    def test_symmetric_matches_brute_force(self):
        # Q3, C8 and C8(1, 3) = K_{4,4} are vertex-transitive: every root must
        # give one key, and the graph it encodes, rooted at 0, must be the
        # root's brute-force rooted form
        for g in (_hypercube(3), _cycles(1, 8), _circulant(8, (1, 3))):
            form = _rooted_form(g, 0)
            certs = {_rooted_key(g, root) for root in range(g.n)}
            assert all(_rooted_form(g, root) == form for root in range(1, g.n))
            assert len(certs) == 1
            assert _rooted_form(parse_graph6(certs.pop().decode("ascii")), 0) == form

    def test_root_is_vertex_0_of_the_certificate(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 12))
            root = rng.randrange(g.n)
            h = parse_graph6(_rooted_key(g, root).decode("ascii"))
            assert sorted(map(len, h.neighbors)) == sorted(map(len, g.neighbors))
            assert h.degree(0) == g.degree(root)
