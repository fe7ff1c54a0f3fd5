import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest

from dmlab.graph import Graph
from dmlab.qw import classify, profile_to_sequence


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


@pytest.fixture
def rng():
    return random.Random(0xD31AB)


def relabel(g: Graph, seed: int) -> Graph:
    """The graph with its vertices renamed by a seeded random permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def compositions(m: int):
    """Every QW profile with m blocks: ordered parts >= 2."""
    if m == 0:
        yield ()
    for first in range(2, m + 1):
        for rest in compositions(m - first):
            yield (first, *rest)


def all_profiles(max_m: int) -> list:
    """Every QW profile with 3 <= m <= max_m, by m."""
    return [p for m in range(3, max_m + 1) for p in compositions(m)]


def odd_compositions(max_m: int, prefix=()):
    """Compositions of 3..max_m into odd parts >= 3."""
    for a in range(3, max_m - sum(prefix) + 1, 2):
        yield prefix + (a,)
        yield from odd_compositions(max_m, prefix + (a,))


def dm_profiles(pool, max_parts: int, max_m: int):
    """Distance magic profiles of 1..max_parts parts from pool with m <= max_m,
    by number of parts."""
    for r in range(1, max_parts + 1):
        for parts in itertools.product(pool, repeat=r):
            if sum(parts) <= max_m and classify(profile_to_sequence(parts)).distance_magic:
                yield parts


# the 59 connected quartic graphs of order 10 (OEIS A006820), as canonical
# certificates in ascending order
QUARTIC_10 = [
    'I?@|urg{?', 'I?C}^Ro{?', 'I?C}vJg{?', 'I?Dlmrg{?', 'I?DnLrW{?', 'I?D~FEwu?',
    'I?Ku]Zo{?', 'I?Ku]jg{?', 'I?Kumjgy?', 'I?Kumrcy?', 'I?K}Mfg{?', 'I?K}efcy?',
    'I?K}fFK{?', 'I?K}fFSy?', 'I?LS~Jg{?', 'I?LT]jg{?', 'I?LTmrcy?', 'I?LTujcy?',
    'I?LU\\jg{?', 'I?L\\efcy?', 'I?L\\fFK{?', 'I?L\\fFSy?', 'I?L\\fFWx?', 'I?L^FE[{?',
    'I?L^FEsu?', 'I?L^FEwt?', 'I?LteNWy?', 'I?LteVSy?', 'I?LuMewy?', 'I?LuUesy?',
    'I?LuUewx?', 'I?L}Efam?', 'I@K}ENI{?', 'I@K}MRPw_', 'I@L[]b`w_', 'I@L[]f_wG',
    'I@L[uN_wG', 'I@L\\EVat?', 'I@L\\MRPw_', 'I@L\\UJPw_', 'I@L\\UJQwO', 'I@L\\UNOwG',
    'I@L]DNI{?', 'I@L]DVE{?', 'I@L]ENam?', 'I@L]EVal?', 'I@L{UFB{?', 'I@L{UFPw_',
    'I@L}EFBm?', 'I@O{uVc{?', 'I@O{ufcy?', 'I@O{vFSy?', 'I@P{tRPw_', 'I@P{tRQwO',
    'I@P{tbIwO', 'I@P|dfGqG', 'I@TctNK{?', 'I@TctNSy?', 'I@T|EEqqO',
]


def recombine(vectors, rng, steps=6):
    """Random invertible recombination via elementary row operations."""
    vs = [list(v) for v in vectors]
    k = len(vs)
    if not k:
        return []
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(k)
        if op == 0 and k > 1:
            j = rng.randrange(k)
            if i != j:
                c = Fraction(rng.randint(-3, 3))
                vs[i] = [a + c * b for a, b in zip(vs[i], vs[j])]
        elif op == 1:
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
            vs[i] = [c * a for a in vs[i]]
        else:
            j = rng.randrange(k)
            vs[i], vs[j] = vs[j], vs[i]
    return [tuple(v) for v in vs]
