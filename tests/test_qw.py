import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_profiles, compositions
from dmlab.errors import InvalidSequenceError
from dmlab.graph import Graph, is_connected, is_regular
from dmlab.qw import (
    TYPE_A,
    TYPE_B,
    TYPE_OTHER,
    Classification,
    build_qw,
    build_wreath,
    classify,
    parse_profile,
    profile_to_sequence,
    segments,
    sequence_to_profile,
    validate_sequence,
)
from dmlab.graph import canonical_certificate


profiles_st = (
    st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=5)
    .map(tuple)
    .filter(lambda parts: sum(parts) >= 3)
)


class TestValidation:
    def test_w3_sequence_valid(self):
        assert validate_sequence([0, 1, 1]).bits == (0, 1, 1)

    def test_alternating_valid(self):
        seq = validate_sequence([0, 1, 0, 1])
        assert sequence_to_profile(seq) == (2, 2)

    def test_consecutive_zeros_rejected(self):
        with pytest.raises(InvalidSequenceError, match="consecutive zeros"):
            validate_sequence([0, 0, 1])

    def test_short_rejected(self):
        with pytest.raises(InvalidSequenceError):
            validate_sequence([0, 1])

    def test_first_bit_must_be_zero(self):
        with pytest.raises(InvalidSequenceError):
            validate_sequence([1, 0, 1])

    def test_last_bit_must_be_one(self):
        with pytest.raises(InvalidSequenceError):
            validate_sequence([0, 1, 1, 0])

    def test_empty_profile_rejected(self):
        with pytest.raises(InvalidSequenceError, match="at least one part"):
            profile_to_sequence(())

    def test_profile_parts_below_two_rejected(self):
        with pytest.raises(InvalidSequenceError):
            profile_to_sequence((3, 1))

    @pytest.mark.parametrize("bits", [[0, 1.9, 1, 1], [0, "x", 1], [0, True, 1], [0, 1.0, 1]])
    def test_non_integer_entries_rejected(self, bits):
        # 1.9 must not truncate to 1, and "x" must raise a DmlabError, not ValueError
        with pytest.raises(InvalidSequenceError, match="must be 0 or 1"):
            validate_sequence(bits)

    @pytest.mark.parametrize("parts", [[3.7], (3, 3.0), ("3",)])
    def test_non_integer_parts_rejected(self, parts):
        with pytest.raises(InvalidSequenceError, match="must be integers"):
            profile_to_sequence(parts)

    def test_parse_profile(self):
        assert parse_profile("11,3,5,3,7,5,3") == (11, 3, 5, 3, 7, 5, 3)
        with pytest.raises(InvalidSequenceError):
            parse_profile("3,x")


class TestProfileConversion:
    def test_3_3(self):
        assert profile_to_sequence((3, 3)).bits == (0, 1, 1, 0, 1, 1)

    def test_7(self):
        assert profile_to_sequence((7,)).bits == (0, 1, 1, 1, 1, 1, 1)

    @given(profiles_st)
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, parts):
        assert sequence_to_profile(profile_to_sequence(parts)) == parts

    def test_roundtrip_exhaustive_small(self):
        for parts in all_profiles(12):
            assert sequence_to_profile(profile_to_sequence(parts)) == parts


class TestBuilders:
    def test_qw3_neighbors_of_x0(self):
        g = build_qw(validate_sequence([0, 1, 1]))
        # x0 -> 0; x1, x2 -> 1, 2; y0, y2 -> 3, 5
        assert g.neighbors[0] == (1, 2, 3, 5)

    def test_qw3_isomorphic_to_w3(self):
        g = build_qw(validate_sequence([0, 1, 1]))
        assert canonical_certificate(g) == canonical_certificate(build_wreath(3))

    @given(profiles_st)
    @settings(max_examples=100, deadline=None)
    def test_qw_is_4_regular_connected(self, parts):
        seq = profile_to_sequence(parts)
        g = build_qw(seq)
        assert g.n == 2 * seq.m
        assert is_regular(g, 4)
        assert is_connected(g)

    def test_qw_property_exhaustive(self):
        for parts in all_profiles(10):
            g = build_qw(profile_to_sequence(parts))
            assert is_regular(g, 4) and is_connected(g)

    def test_wreath_regular(self):
        for k in range(3, 12):
            g = build_wreath(k)
            assert g.n == 2 * k
            assert is_regular(g, 4)
            assert is_connected(g)

    def test_w4_triangle_free(self):
        g = build_wreath(4)
        adj = [set(nb) for nb in g.neighbors]
        assert all(not (adj[u] & adj[v]) for u, v in g.edges)

    def test_wreath_needs_k_3(self):
        with pytest.raises(InvalidSequenceError):
            build_wreath(2)


def rule_edges(bits):
    """The construction's edge list, one rule at a time (indices mod m)."""
    m = len(bits)
    edges = []
    for i, s in enumerate(bits):
        j = (i + 1) % m
        edges += [(i, j), (m + i, m + j)]
        edges += [(i, m + i), (j, m + j)] if s == 0 else [(i, m + j), (j, m + i)]
    return edges


def assert_well_formed(g):
    for v, nb in enumerate(g.neighbors):
        assert list(nb) == sorted(set(nb)), v
        assert v not in nb and all(0 <= w < g.n for w in nb), v
        assert all(v in g.neighbors[w] for w in nb), v


class TestBuilderRules:
    """The builders write their neighbour tuples without the validating
    constructor, so they are checked against it here."""

    def test_qw_matches_rules_every_profile_up_to_14(self):
        for m in range(3, 15):
            for parts in compositions(m):
                seq = profile_to_sequence(parts)
                g = build_qw(seq)
                assert g == Graph(2 * m, rule_edges(seq.bits)), parts
                assert_well_formed(g)

    def test_qw_matches_rules_random_profiles(self):
        rng = random.Random(12)
        for _ in range(20):
            parts, m = [], 0
            target = rng.randint(3, 5000)
            while m < target:
                parts.append(rng.randint(2, 40))
                m += parts[-1]
            seq = profile_to_sequence(parts)
            g = build_qw(seq)
            assert g == Graph(2 * seq.m, rule_edges(seq.bits)), parts
            assert_well_formed(g)

    def test_wreath_matches_rules(self):
        for k in range(3, 201):
            edges = []
            for i in range(k):
                j = (i + 1) % k
                edges += [(i, j), (k + i, k + j), (i, k + j), (j, k + i)]
            g = build_wreath(k)
            assert g == Graph(2 * k, edges), k
            assert_well_formed(g)

    def test_twins_share_one_tuple(self):
        # x_i and y_i see the same four vertices exactly when s_{i-1} = s_i = 1;
        # the wrap rows at i = 0 and i = m - 1 are re-sorted and share nothing
        for m in range(3, 13):
            for parts in compositions(m):
                seq = profile_to_sequence(parts)
                bits, nb = seq.bits, build_qw(seq).neighbors
                for i in range(m):
                    twins = bits[i - 1] == bits[i] == 1 and 0 < i < m - 1
                    assert (nb[i] is nb[m + i]) == twins, (parts, i)
                    assert (nb[i] == nb[m + i]) == (bits[i - 1] == bits[i] == 1), (parts, i)

    def test_memory_bounded_by_output(self):
        # m = 30000: an edge list and a set per vertex peaked at 30.4 MiB for
        # the graph.  With a tuple per vertex the graph kept 6.4 MiB on both
        # profiles; a twin pair's shared tuple makes that 5.7 MiB when one
        # block in 3 is a twin pair and 4.4 MiB when 17 in 19 are, and the
        # peak reads about 1.2 times what is kept
        for parts, kept_mib in [((3,) * 10000, 6.0), ((19,) * 1578 + (11, 7), 4.8)]:
            seq = profile_to_sequence(parts)
            tracemalloc.start()
            try:
                g = build_qw(seq)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert g.n == 60000
            assert peak <= 1.5 * kept, parts
            assert kept <= kept_mib * 2**20, parts


class TestSegments:
    def test_3_3(self):
        segs = segments(profile_to_sequence((3, 3)))
        assert [(s.start, s.length, s.kind) for s in segs] == [(0, 3, TYPE_A), (3, 3, TYPE_A)]

    def test_single_segment(self):
        (s,) = segments(profile_to_sequence((7,)))
        assert (s.start, s.length, s.kind) == (0, 7, TYPE_A)

    def test_5_2(self):
        segs = segments(profile_to_sequence((5, 2)))
        assert [s.kind for s in segs] == [TYPE_B, TYPE_OTHER]

    @given(profiles_st)
    @settings(max_examples=100, deadline=None)
    def test_lengths_partition_m(self, parts):
        seq = profile_to_sequence(parts)
        segs = segments(seq)
        assert sum(s.length for s in segs) == seq.m
        assert len(segs) == seq.bits.count(0)

    def test_segments_returns_a_new_list(self):
        seq = profile_to_sequence((5, 3))
        segs = segments(seq)
        segs.append(segs[0])
        segs[0] = None
        assert [s.length for s in segments(seq)] == [5, 3]
        assert segments(seq) == list(seq.segments)

    def test_kept_segments_leave_equality_hash_and_repr(self):
        seq, twin = profile_to_sequence((5, 3, 7)), profile_to_sequence((5, 3, 7))
        assert seq.segments is seq.segments  # scanned once, then kept
        assert "segments" in vars(seq) and "segments" not in vars(twin)
        assert seq == twin and hash(seq) == hash(twin) and repr(seq) == repr(twin)
        assert repr(seq) == "QWSequence(bits=(0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1))"
        assert seq != profile_to_sequence((5, 7, 3))
        with pytest.raises(AttributeError):
            seq.segments = ()

    def test_segment_is_an_immutable_record(self):
        (s, t) = segments(profile_to_sequence((5, 7)))
        assert s._fields == ("index", "start", "length", "kind", "b", "partner")
        assert s == (1, 0, 5, TYPE_B, 0, None)  # a NamedTuple equals the plain tuple
        assert (t.start, t.length, t.end) == (5, 7, 12)
        assert all(seg.end == seg.start + seg.length for seg in (s, t))
        for name in s._fields + ("end",):
            with pytest.raises(AttributeError):
                setattr(s, name, 0)

    def test_type_b_pairing_every_profile_up_to_16(self):
        # distance magic or not: b counts the type-B segments before each
        # segment, and the type-B segments pair 1-2, 3-4, ... in order
        for parts in all_profiles(16):
            segs = segments(profile_to_sequence(parts))
            type_b = [s.index for s in segs if s.kind == TYPE_B]
            assert [s.b for s in segs] == [sum(i < s.index for i in type_b) for s in segs], parts
            # an odd count leaves the last type-B segment out of pairs, so None
            pairs = dict(zip(type_b[::2], type_b[1::2]))
            assert {s.index: s.partner for s in segs if s.partner is not None} == pairs, parts

    def test_odd_type_b_count_leaves_last_unpaired(self):
        assert [s.partner for s in segments(profile_to_sequence((5,)))] == [None]
        assert [s.partner for s in segments(profile_to_sequence((5, 5, 5)))] == [2, None, None]
        assert [s.b for s in segments(profile_to_sequence((5, 3, 5, 5)))] == [0, 1, 1, 2]


class TestClassifier:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((3, 3), True),
            ((5,), False),
            ((5, 5), True),
            ((4,), False),
            ((3,), True),
            ((7,), True),
            ((3, 5, 5, 3), True),
            ((9, 5), True),
            ((2, 2), False),
        ],
    )
    def test_verdicts(self, parts, expected):
        assert classify(profile_to_sequence(parts)).distance_magic == expected

    def test_matches_segment_rule(self):
        def by_segments(seq):
            segs = segments(seq)
            even = [s for s in segs if s.kind == TYPE_OTHER]
            if even:
                where = ", ".join(f"segment {s.index} (length {s.length})" for s in even)
                return Classification(False, f"segments of even length: {where}")
            b_count = sum(1 for s in segs if s.kind == TYPE_B)
            if b_count % 2:
                return Classification(
                    False, f"odd number of type-B segments (length = 1 mod 4): {b_count}"
                )
            return Classification(True)

        profiles = all_profiles(16)
        assert len(profiles) == 1595
        for parts in profiles:
            seq = profile_to_sequence(parts)
            assert classify(seq) == by_segments(seq), parts

    def test_reasons(self):
        assert "even length" in classify(profile_to_sequence((4,))).reason
        assert "type-B" in classify(profile_to_sequence((5,))).reason
        assert classify(profile_to_sequence((3,))).reason is None
