import itertools
import re
import tracemalloc

import pytest

from conftest import QUARTIC_10, relabel
from dmlab import spectral
from dmlab.errors import DmlabError, NotEvenRegularError, OddOrderError
from dmlab.graph import Graph, parse_graph6
from dmlab.labeling import verify
from dmlab.qw import build_qw, build_wreath, profile_to_sequence
from dmlab.search import (
    BUDGET_EXHAUSTED,
    COUNT_ALL,
    FIND_ONE,
    FOUND,
    NOT_FOUND,
    SearchOptions,
    decide_profile,
    find_labeling,
)

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


class TestFindLabeling:
    def test_w3_found_and_verified(self):
        outcome = find_labeling(build_wreath(3))
        assert outcome.verdict == FOUND
        assert verify(build_wreath(3), outcome.labeling).ok

    def test_qw4_not_found(self):
        outcome = find_labeling(build_qw(profile_to_sequence((4,))))
        assert outcome.verdict == NOT_FOUND

    def test_k5_rejected_odd_order(self):
        with pytest.raises(OddOrderError):
            find_labeling(K5)

    def test_odd_order_rejected_before_elimination(self, monkeypatch):
        # the label set decides the parity before the kernel is computed
        def no_elimination(_):
            raise AssertionError("kernel computed for an odd order")

        monkeypatch.setattr(spectral, "nullspace_basis", no_elimination)
        with pytest.raises(OddOrderError, match="centered label set needs even order, got 5"):
            find_labeling(K5)

    def test_c4_found(self):
        outcome = find_labeling(C4)
        assert outcome.verdict == FOUND
        assert verify(C4, outcome.labeling).ok

    def test_irregular_rejected(self):
        with pytest.raises(NotEvenRegularError):
            find_labeling(Graph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_odd_valency_rejected(self):
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        with pytest.raises(NotEvenRegularError):
            find_labeling(k4)

    def test_disconnected_rejected(self):
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
        with pytest.raises(NotEvenRegularError):
            find_labeling(g)

    def test_budget_exhausted_distinct_verdict(self):
        outcome = find_labeling(
            build_qw(profile_to_sequence((7,))), SearchOptions(mode=COUNT_ALL, node_budget=3)
        )
        assert outcome.verdict == BUDGET_EXHAUSTED
        assert outcome.count_raw is None

    @pytest.mark.parametrize("budget", [0, 1, 10, 100])
    def test_node_budget_is_a_ceiling(self, budget):
        outcome = find_labeling(
            build_qw(profile_to_sequence((7,))), SearchOptions(mode=COUNT_ALL, node_budget=budget)
        )
        assert outcome.verdict == BUDGET_EXHAUSTED
        assert outcome.stats["nodes"] == budget

    def test_time_budget_exhausted(self):
        # the complete search finds no labeling of this n = 74 graph in 10 s,
        # so a 0.05 s budget always expires first
        g = build_qw(profile_to_sequence((11, 3, 5, 3, 7, 5, 3)))
        outcome = find_labeling(g, SearchOptions(time_budget=0.05))
        assert outcome.verdict == BUDGET_EXHAUSTED
        assert outcome.labeling is None

    @pytest.mark.parametrize("mode", [FIND_ONE, COUNT_ALL])
    def test_no_verdict_over_budget(self, mode):
        g = build_qw(profile_to_sequence((3, 3)))
        full = find_labeling(g, SearchOptions(mode=mode))
        nodes = full.stats["nodes"]
        assert find_labeling(g, SearchOptions(mode=mode, node_budget=nodes)) == full
        short = find_labeling(g, SearchOptions(mode=mode, node_budget=nodes - 1))
        assert short.verdict == BUDGET_EXHAUSTED
        assert short.stats["nodes"] == nodes - 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_budget": 2.5},
            {"node_budget": True},
            {"node_budget": "3"},
            {"node_budget": -1},
            {"time_budget": "5"},
            {"time_budget": True},
            {"time_budget": -0.5},
            {"time_budget": float("inf")},
            {"time_budget": float("nan")},
        ],
        ids=repr,
    )
    def test_bad_budget_rejected(self, kwargs):
        # exact types, as validate_sequence: a bool or a float node count must
        # not act as a budget of 1 or of the rounded-up count
        (value,) = kwargs.values()
        with pytest.raises(DmlabError, match=f"budget must be .*, got {re.escape(repr(value))}$"):
            SearchOptions(**kwargs)

    def test_int_and_float_budgets_accepted(self):
        assert SearchOptions(node_budget=0, time_budget=5).time_budget == 5
        assert SearchOptions(time_budget=0.5).time_budget == 0.5

    def test_unknown_mode_rejected(self):
        # the search would otherwise walk the whole tree like count-all and report no count
        with pytest.raises(DmlabError, match="bogus"):
            SearchOptions(mode="bogus")

    @pytest.mark.parametrize("value", ["no", 0, 1, None], ids=repr)
    def test_non_bool_prefilter_rejected(self, value):
        # 'no' is truthy: taken as it is, it ran the prefilter
        with pytest.raises(DmlabError, match=f"prefilter must be a bool, got {re.escape(repr(value))}$"):
            SearchOptions(prefilter=value)

    def test_prefilter_agrees(self):
        for parts in [(3,), (4,), (2, 2), (3, 3)]:
            g = build_qw(profile_to_sequence(parts))
            plain = find_labeling(g).verdict
            pre = find_labeling(g, SearchOptions(prefilter=True)).verdict
            assert plain == pre

    @pytest.mark.parametrize("prefilter", [False, True])
    def test_one_elimination_per_search(self, monkeypatch, prefilter):
        # the search and its prefilter share one kernel basis
        calls = []
        original = spectral.nullspace_basis

        def counted(g):
            calls.append(g.n)
            return original(g)

        monkeypatch.setattr(spectral, "nullspace_basis", counted)
        for parts in [(3,), (4,), (2, 2), (3, 3)]:
            find_labeling(build_qw(profile_to_sequence(parts)), SearchOptions(prefilter=prefilter))
        assert calls == [6, 8, 8, 12]


# count-all work (nodes, prune_interval, prune_kernel) on QW(parts) and on
# its copies relabeled by seeds 1, 2 and 3
RELABELED_WORK = {
    ((7,), None): (3536, 16, 5552),
    ((7,), 1): (24878, 3348, 68460),
    ((7,), 2): (13423, 1049, 24396),
    ((7,), 3): (15418, 1816, 52972),
    ((3, 3), None): (681, 28, 840),
    ((3, 3), 1): (711, 154, 1792),
    ((3, 3), 2): (711, 154, 1792),
    ((3, 3), 3): (711, 4, 232),
}


class TestCountMode:
    def test_raw_count_is_even_and_double_folded(self):
        outcome = find_labeling(C4, SearchOptions(mode=COUNT_ALL))
        assert outcome.count_raw == 2 * outcome.count_folded
        assert outcome.count_raw % 2 == 0
        assert outcome.count_raw > 0

    def test_unfolded_raw_matches(self):
        # the raw count undoes the sign fold: it equals the number of all labelings
        folded = find_labeling(build_wreath(3), SearchOptions(mode=COUNT_ALL))
        assert folded.count_raw == brute_force_count(build_wreath(3))
        assert folded.count_raw % 2 == 0

    def test_memory_does_not_grow_with_answers(self):
        # 3456 labelings on (3,3); keeping them all traced about 0.45 MB
        g = build_qw(profile_to_sequence((3, 3)))
        tracemalloc.start()
        try:
            outcome = find_labeling(g, SearchOptions(mode=COUNT_ALL))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.count_raw == 3456
        assert verify(g, outcome.labeling).ok
        assert peak < 100_000

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    @pytest.mark.parametrize("parts,folded", [((7,), 39168), ((3, 3), 1728)])
    def test_count_pinned_on_relabeled_copies(self, parts, folded, seed):
        # relabeling moves the twin classes, so twin order does not follow
        # vertex index; the work is pinned as well as the count
        g = build_qw(profile_to_sequence(parts))
        if seed is not None:
            g = relabel(g, seed)
        outcome = find_labeling(g, SearchOptions(mode=COUNT_ALL))
        assert (outcome.count_folded, outcome.count_raw) == (folded, 2 * folded)
        assert verify(g, outcome.labeling).ok
        stats = RELABELED_WORK[parts, seed]
        assert outcome.stats == dict(zip(("nodes", "prune_interval", "prune_kernel"), stats))

    @pytest.mark.parametrize("parts,ceiling", [((7,), 4000), ((3, 3), 800)])
    def test_one_leaf_per_twin_orbit(self, parts, ceiling):
        # visiting every twin swap took 32,688 and 1,355 nodes
        outcome = find_labeling(build_qw(profile_to_sequence(parts)), SearchOptions(mode=COUNT_ALL))
        assert outcome.stats["nodes"] <= ceiling

    @pytest.mark.parametrize(
        "parts,mode,stats",
        [
            ((7,), COUNT_ALL, (3536, 16, 5552)),
            ((3, 3), COUNT_ALL, (681, 28, 840)),
            ((11,), FIND_ONE, (11, 0, 4)),
            ((3, 5, 3, 5), FIND_ONE, (13, 2, 7)),
            ((3, 3, 3), FIND_ONE, (7, 1, 0)),
        ],
    )
    def test_work_pinned(self, parts, mode, stats):
        # a kernel basis with other pivots or vectors moves these counts
        outcome = find_labeling(build_qw(profile_to_sequence(parts)), SearchOptions(mode=mode))
        assert outcome.verdict == FOUND
        assert outcome.stats == dict(zip(("nodes", "prune_interval", "prune_kernel"), stats))

    @pytest.mark.parametrize("mode", [FIND_ONE, COUNT_ALL])
    def test_non_integral_basis_pinned(self, mode):
        # a connected quartic graph of order 12 whose kernel basis has non-integer
        # entries, so some derived pivot sums are not multiples of their scale
        # and rule (a) takes their floors
        g = parse_graph6("K?Chqj@wKw[O")
        basis = spectral.nullspace_basis(g)
        assert any(x.denominator != 1 for vec in basis.vectors for x in vec)
        outcome = find_labeling(g, SearchOptions(mode=mode))
        assert outcome.verdict == NOT_FOUND
        assert outcome.stats == {"nodes": 1, "prune_interval": 0, "prune_kernel": 6}

    def test_count_zero_on_non_magic(self):
        outcome = find_labeling(
            build_qw(profile_to_sequence((2, 2))), SearchOptions(mode=COUNT_ALL)
        )
        assert outcome.verdict == NOT_FOUND
        assert outcome.count_raw == 0


def brute_force_count(g):
    """Independent oracle: every permutation of the centered labels, kept when
    A*l = 0 (every neighborhood sums to zero)."""
    labels = range(1 - g.n, g.n, 2)
    return sum(
        all(sum(perm[w] for w in g.neighbors[v]) == 0 for v in range(g.n))
        for perm in itertools.permutations(labels)
    )


# the six connected quartic graphs of order 8 (OEIS A006820), graph6
QUARTIC_8 = ["G?~vf_", "G@vnf_", "GBj^V_", "GBn^FC", "GJem^_", "GJemvG"]
ORACLE_INSTANCES = {
    "C4": C4,
    "W3": build_wreath(3),
    **{f"quartic8-{s}": parse_graph6(s) for s in QUARTIC_8},
    "W3-relabeled": relabel(build_wreath(3), 1),
    "quartic8-G?~vf_-relabeled": relabel(parse_graph6("G?~vf_"), 2),
}


class TestPruningSoundness:
    """The pruning rules, the sign fold and the vertex order are fixed; their
    soundness is checked against exhaustive enumeration of all labelings."""

    @pytest.fixture(scope="class")
    def oracle(self):
        return {name: brute_force_count(g) for name, g in ORACLE_INSTANCES.items()}

    def test_oracle_sees_both_verdicts(self, oracle):
        assert oracle["C4"] == 8 and oracle["W3"] > 0
        assert sorted(oracle[f"quartic8-{s}"] > 0 for s in QUARTIC_8) == [False] * 5 + [True]
        assert oracle["W3-relabeled"] == oracle["W3"]
        assert oracle["quartic8-G?~vf_-relabeled"] == oracle["quartic8-G?~vf_"] > 0

    @pytest.mark.parametrize("name", list(ORACLE_INSTANCES))
    def test_count_raw_matches_brute_force(self, name, oracle):
        outcome = find_labeling(ORACLE_INSTANCES[name], SearchOptions(mode=COUNT_ALL))
        assert outcome.count_raw == oracle[name]
        assert outcome.verdict == (FOUND if oracle[name] else NOT_FOUND)

    @pytest.mark.parametrize("name", list(ORACLE_INSTANCES))
    def test_find_one_matches_brute_force(self, name, oracle):
        g = ORACLE_INSTANCES[name]
        outcome = find_labeling(g)
        assert outcome.verdict == (FOUND if oracle[name] else NOT_FOUND)
        if oracle[name]:
            assert verify(g, outcome.labeling).ok


# sign-folded labeling counts of the connected quartic graphs of order 10,
# pinned from a search that did not use the kernel (it closed neighborhoods
# by zero-sum bookkeeping); every other graph of QUARTIC_10 has none
QUARTIC_10_FOLDED = {"I?Ku]Zo{?": 1920}


class TestQuarticOrder10Counts:
    @pytest.mark.parametrize("relabeled", [False, True])
    def test_count_folded_pinned(self, relabeled):
        for seed, s in enumerate(QUARTIC_10):
            g = parse_graph6(s)
            if relabeled:
                g = relabel(g, seed)
            outcome = find_labeling(g, SearchOptions(mode=COUNT_ALL))
            assert outcome.count_folded == QUARTIC_10_FOLDED.get(s, 0), s
            assert outcome.verdict == (FOUND if s in QUARTIC_10_FOLDED else NOT_FOUND)


class TestDecideProfile:
    @pytest.mark.parametrize(
        "parts,expected",
        [((3, 3), True), ((7,), True), ((5,), False), ((3, 2), False), ((2, 2, 2), False)],
    )
    def test_matches_theorem(self, parts, expected):
        assert decide_profile(parts) == expected

    def test_exhausted_budget_raises_dmlab_error(self):
        with pytest.raises(DmlabError, match="budget exhausted"):
            decide_profile((3, 3), SearchOptions(node_budget=0))

    def test_found_labelings_satisfy_block_recurrence(self):
        from dmlab.labeling import block_labels, check_block_recurrence

        for parts in [(3,), (3, 3), (7,)]:
            seq = profile_to_sequence(parts)
            g = build_qw(seq)
            outcome = find_labeling(g)
            assert outcome.verdict == FOUND
            assert check_block_recurrence(seq, block_labels(seq, outcome.labeling))
