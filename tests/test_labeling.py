import hashlib
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_profiles, dm_profiles, random_graph
from dmlab.constructive import construct_labeling
from dmlab.errors import DmlabError, OddOrderError, OrderMismatchError
from dmlab.graph import Graph, parse_graph6
from dmlab.labeling import (
    CenteredLabeling,
    StandardLabeling,
    block_labels,
    centered_label_set,
    check_block_recurrence,
    from_standard,
    labeling_from_json,
    labeling_to_json,
    to_standard,
    verify,
    wreath_labeling,
)
from dmlab.qw import build_qw, build_wreath, classify, profile_to_sequence, validate_sequence


class TestVerify:
    def test_wreath_labeling_passes(self):
        g = build_wreath(3)
        report = verify(g, wreath_labeling(3))
        assert report.ok and report.bijective
        assert report.weights == (0,) * 6
        assert report.first_violation is None

    def test_swap_across_non_twins_fails(self, rng):
        # swapping two labels that are not a twin pair breaks some weight
        g = build_wreath(3)
        base = list(wreath_labeling(3).labels)
        for _ in range(20):
            i, j = rng.sample(range(6), 2)
            if abs(i - j) == 3:  # twin pair u_i, v_i; swapping only negates the pair
                continue
            labels = base[:]
            labels[i], labels[j] = labels[j], labels[i]
            report = verify(g, CenteredLabeling(6, tuple(labels)))
            assert not report.ok
            assert report.first_violation is not None

    def test_non_bijective_fails_even_with_zero_weights(self):
        g = build_wreath(3)
        report = verify(g, CenteredLabeling(6, (0,) * 6))
        assert not report.bijective and not report.ok

    def test_repeated_label_in_place_of_the_lowest_is_not_a_bijection(self):
        # right length, every label in the target range, but 1 - n is missing
        for n in (2, 4, 6, 11, 20):
            labels = list(range(1 - n, n, 2))
            labels[0] = labels[-1]
            assert not CenteredLabeling(n, tuple(labels)).is_bijection(), n
            assert CenteredLabeling(n, tuple(range(n - 1, -n, -2))).is_bijection(), n

    def test_all_weights_computed(self):
        g = build_wreath(3)
        report = verify(g, CenteredLabeling(6, (1, 3, 5, -1, -3, -5)))
        assert len(report.weights) == 6

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            verify(build_wreath(3), wreath_labeling(4))

    def test_label_count_must_match_order(self):
        with pytest.raises(OrderMismatchError, match="2 labels for order 6"):
            CenteredLabeling(6, (1, -1))

    @staticmethod
    def _reference(g, labels):
        """The report's fields from their definitions: weights summed over the
        edge list, the least vertex of nonzero weight, and the labels sorted
        onto range(1 - n, n, 2)."""
        n = g.n
        weights = [0] * n
        for u, v in g.edges:
            weights[u] += labels[v]
            weights[v] += labels[u]
        first = min((v for v in range(n) if weights[v]), default=None)
        bijective = sorted(labels) == list(range(1 - n, n, 2))
        return tuple(weights), first, bijective

    def test_matches_definition_on_mixed_degrees(self, rng):
        graphs = [
            Graph(1, []),  # n = 1: the empty sum, so (0,) is distance magic
            Graph(5, []),  # isolated vertices only
            Graph(7, [(0, v) for v in range(1, 7)] + [(1, 2), (3, 4)]),  # degree n - 1
            Graph(6, [(0, 1), (1, 2), (2, 3)]),  # a path and two isolated vertices
            Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # C4, distance magic
            build_wreath(3),
        ]
        for n in range(1, 15):
            for p in (0.1, 0.3, 0.6, 0.9):
                graphs.append(random_graph(rng, n, p))
        seen_ok = seen_odd = seen_mixed = 0
        for g in graphs:
            n = g.n
            seen_mixed += len({len(nb) for nb in g.neighbors}) > 1
            candidates = [tuple(range(1 - n, n, 2)), tuple(rng.randint(-n, n) for _ in range(n))]
            shuffled = list(range(1 - n, n, 2))
            rng.shuffle(shuffled)
            candidates.append(tuple(shuffled))
            if n == 4:
                candidates.append((3, 1, -3, -1))  # l(0) = -l(2), l(1) = -l(3) on C4
            for labels in candidates:
                report = verify(g, CenteredLabeling(n, labels))
                weights, first, bijective = self._reference(g, labels)
                assert report.weights == weights
                assert report.first_violation == first
                assert report.bijective == bijective
                assert report.ok == (bijective and first is None)
                seen_ok += report.ok
                seen_odd += n % 2
        # both verdicts, odd orders and graphs of mixed degree were exercised
        assert seen_ok >= 2 and seen_odd > 0 and seen_mixed > 20


class TestSchemeConversion:
    def test_formula_endpoints(self):
        lab = CenteredLabeling(6, (-5, -3, -1, 1, 3, 5))
        std = to_standard(lab)
        assert std.labels == (1, 2, 3, 4, 5, 6)

    def test_roundtrip_random(self, rng):
        for _ in range(100):
            n = 2 * rng.randint(1, 30)
            labels = list(centered_label_set(n))
            rng.shuffle(labels)
            lab = CenteredLabeling(n, tuple(labels))
            assert from_standard(to_standard(lab)) == lab

    def test_magic_constant_transfers(self):
        # centered weights 0 <=> standard weights r(n+1)/2 = 2(n+1) on 4-regular graphs
        g = build_wreath(3)
        lab = wreath_labeling(3)
        assert verify(g, lab).ok
        std = to_standard(lab)
        assert verify(g, from_standard(std)).ok
        assert all(sum(std.labels[w] for w in g.neighbors[v]) == 2 * (6 + 1) for v in range(6))

    def test_wrong_parity_is_rejected_not_rounded(self):
        # floor((x + n + 1) / 2) once sent (0, 0, 2, -2) to (2, 2, 3, 1), which
        # converts back to (-1, -1, 1, -3)
        with pytest.raises(DmlabError, match="label 0 at vertex 0 has the parity of order 4"):
            to_standard(CenteredLabeling(4, (0, 0, 2, -2)))
        with pytest.raises(DmlabError, match="label 1 at vertex 2 has the parity of order 5"):
            to_standard(CenteredLabeling(5, (0, 2, 1, -2, -4)))

    def test_right_parity_converts_exactly(self):
        # out-of-range labels too: verify() reports those, conversion keeps them
        for n in range(1, 9):
            lab = CenteredLabeling(n, tuple(3 * (2 * v + 1 - n) for v in range(n)))
            assert from_standard(to_standard(lab)) == lab

    def test_centered_set_odd_order_rejected(self):
        with pytest.raises(OddOrderError):
            centered_label_set(5)


class TestWreathLabeling:
    def test_k3_pairs(self):
        lab = wreath_labeling(3)
        assert lab.labels == (5, 3, 1, -5, -3, -1)

    def test_passes_up_to_200(self):
        for k in range(3, 201):
            assert verify(build_wreath(k), wreath_labeling(k)).ok

    def test_label_multiset(self):
        for k in (3, 7, 20):
            lab = wreath_labeling(k)
            assert sorted(lab.labels) == list(centered_label_set(2 * k))

    def test_needs_k_3(self):
        with pytest.raises(DmlabError, match=">= 3"):
            wreath_labeling(2)


class TestBlockLabels:
    def test_constructed_qw3(self):
        seq = profile_to_sequence((3,))
        lab = construct_labeling(seq)
        assert block_labels(seq, lab) == (-2, 2, 0)

    def test_blocks_sum_to_zero(self):
        for parts in [(3,), (3, 3), (7,), (5, 5)]:
            seq = profile_to_sequence(parts)
            lab = construct_labeling(seq)
            assert sum(block_labels(seq, lab)) == 0

    def test_is_x_plus_y_on_random_labelings(self, rng):
        for parts in rng.sample(all_profiles(14), 40):
            seq = profile_to_sequence(parts)
            m = seq.m
            labels = tuple(rng.randint(-3 * m, 3 * m) for _ in range(2 * m))
            # l(x_i) + l(y_i), with x_i -> i and y_i -> m + i
            expected = tuple(labels[i] + labels[m + i] for i in range(m))
            assert block_labels(seq, CenteredLabeling(2 * m, labels)) == expected

    def test_labeling_order_must_be_2m(self):
        with pytest.raises(OrderMismatchError, match="2m = 6"):
            block_labels(profile_to_sequence((3,)), wreath_labeling(4))

    def test_lemma_consecutive_blocks_after_rung(self):
        # after a zero bit, the next two block labels are never negatives
        for parts in [(3,), (3, 3), (7,), (5, 5), (3, 5, 5, 3)]:
            seq = profile_to_sequence(parts)
            bl = block_labels(seq, construct_labeling(seq))
            m = seq.m
            for i, bit in enumerate(seq.bits):
                if bit == 0:
                    assert bl[(i + 1) % m] != -bl[(i + 2) % m]


class TestBlockRecurrence:
    def test_holds_for_constructed_labelings(self):
        for parts in dm_profiles((3, 5, 7, 9, 11), 4, 44):
            seq = profile_to_sequence(parts)
            lab = construct_labeling(seq)
            assert check_block_recurrence(seq, block_labels(seq, lab))

    def test_needs_one_label_per_block(self):
        with pytest.raises(OrderMismatchError, match="2 block labels for m = 3"):
            check_block_recurrence(profile_to_sequence((3,)), (1, -1))

    def test_holds_for_wreath_labeling_transported_to_qw3(self):
        import itertools

        seq = validate_sequence([0, 1, 1])
        gq = build_qw(seq)
        gw = build_wreath(3)
        wl = wreath_labeling(3)
        for perm in itertools.permutations(range(6)):
            if all(gq.has_edge(perm[u], perm[v]) for u, v in gw.edges):
                labels = [0] * 6
                for v in range(6):
                    labels[perm[v]] = wl.labels[v]
                lab = CenteredLabeling(6, tuple(labels))
                assert verify(gq, lab).ok
                assert check_block_recurrence(seq, block_labels(seq, lab))
                break
        else:
            pytest.fail("no isomorphism between W(3) and QW([0,1,1]) found")

    def test_third_case_rung_after_crossing(self):
        # (3, 3) is 011011: i = 0 is the (0, 1) case, i = 1 the (1, 1) case
        # and i = 2 the (1, 0) case, l_4 = -2 l_2 - l_3
        seq = profile_to_sequence((3, 3))
        bl = list(block_labels(seq, construct_labeling(seq)))
        assert bl == [-2, 2, 0, -2, 2, 0]
        assert check_block_recurrence(seq, bl)
        bl[4] += 2
        assert 2 * bl[2] == -(bl[0] + bl[1]) and bl[3] == -bl[1]  # i = 0, 1 still hold
        assert bl[4] != -2 * bl[2] - bl[3]
        assert not check_block_recurrence(seq, bl)

    # The block labels of a distance magic labeling of (3, 3) are (a, -a, 0,
    # a, -a, 0): every (0, 1) row has l_i + l_{i+1} = 0 and every (1, 0) row
    # l_i = 0, where a sign error in either case changes nothing.  The
    # hand-made tuples below keep the other rows and meet the mis-signed case.

    def test_second_case_sign(self):
        seq = profile_to_sequence((3, 3))  # 011011: (0, 1) rows i = 0, 3
        bl = (3, 1, 2, -1, -3, -2)
        assert bl[3] == -bl[1] and bl[0] == -bl[4]  # the (1, 1) rows i = 1, 4
        assert bl[4] == -2 * bl[2] - bl[3] and bl[1] == -2 * bl[5] - bl[0]  # (1, 0)
        assert 2 * bl[2] == bl[0] + bl[1] != 0 and 2 * bl[5] == bl[3] + bl[4]
        assert not check_block_recurrence(seq, bl)

    def test_third_case_sign(self):
        seq = profile_to_sequence((3, 3))  # 011011: (1, 0) rows i = 2, 5
        bl = (3, 1, -2, -1, -3, 2)
        assert bl[3] == -bl[1] and bl[0] == -bl[4]  # the (1, 1) rows i = 1, 4
        assert 2 * bl[2] == -(bl[0] + bl[1]) and 2 * bl[5] == -(bl[3] + bl[4])  # (0, 1)
        assert bl[4] == 2 * bl[2] - bl[3] and bl[1] == 2 * bl[5] - bl[0]
        assert bl[2] != 0
        assert not check_block_recurrence(seq, bl)

    @pytest.mark.parametrize("parts", [(3,), (3, 3), (5, 3, 5)])
    def test_every_single_block_change_is_caught(self, parts):
        # Equation i = k - 2 (mod m) reads l_k as l_{i+2} with coefficient 1 or
        # 2 and, for m >= 3, l_{k-2} and l_{k-1} are other blocks, so changing
        # l_k alone breaks it, also where the indices wrap (k = 0, m - 2, m - 1).
        # (5, 3, 5) has all three bit-pair cases and a type-B pair.
        seq = profile_to_sequence(parts)
        bl = block_labels(seq, construct_labeling(seq))
        assert check_block_recurrence(seq, bl)
        for k in range(seq.m):
            for delta in (2, -2):
                changed = list(bl)
                changed[k] += delta
                assert not check_block_recurrence(seq, tuple(changed)), (k, delta)

    def test_violated_by_random_non_magic_labeling(self, rng):
        seq = profile_to_sequence((3, 3))
        g = build_qw(seq)
        violated = 0
        for _ in range(50):
            labels = list(centered_label_set(12))
            rng.shuffle(labels)
            lab = CenteredLabeling(12, tuple(labels))
            if verify(g, lab).ok:
                continue
            if not check_block_recurrence(seq, block_labels(seq, lab)):
                violated += 1
        assert violated > 0


class TestJson:
    def test_roundtrip_centered(self):
        lab = wreath_labeling(4)
        assert labeling_from_json(labeling_to_json(lab)) == lab

    def test_roundtrip_standard(self):
        std = StandardLabeling(4, (2, 1, 4, 3))
        assert labeling_from_json(labeling_to_json(std)) == std

    # SHA-256 over the centered and the standard document of the constructed
    # labeling of every distance magic profile with m <= 14, each followed by
    # a newline, in (m, profile) order
    DOCS_SHA256 = "6ed0111c7ceab777efa43b60abf53e391de4cc6e70d503aa60b1d157cc009112"

    def test_document_bytes_pinned(self):
        h = hashlib.sha256()
        count = 0
        for parts in all_profiles(14):
            seq = profile_to_sequence(parts)
            if classify(seq).distance_magic:
                lab = construct_labeling(seq)
                for doc in (labeling_to_json(lab), labeling_to_json(to_standard(lab))):
                    h.update(doc.encode() + b"\n")
                count += 1
        assert count == 20
        assert h.hexdigest() == self.DOCS_SHA256

    def test_schema_field(self):
        doc = json.loads(labeling_to_json(wreath_labeling(3)))
        assert doc["schema"] == "dmlab/1"
        assert doc["scheme"] == "centered"

    @pytest.mark.parametrize(
        "obj", [(2, (1, -1)), SimpleNamespace(scheme="centered", order=2, labels=(1, -1))]
    )
    def test_non_labeling_rejected(self, obj):
        with pytest.raises(TypeError, match="not a labeling"):
            labeling_to_json(obj)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("order", 6.0),
            ("order", True),
            ("order", "6"),
            ("labels", [1.9, 3, 1, -5, -3, -1]),
            ("labels", ["-1", 3, 1, -5, -3, 5]),
            ("labels", [True, 3, 1, -5, -3, -1]),
            ("labels", [float("inf"), 3, 1, -5, -3, -1]),
            ("labels", [float("nan"), 3, 1, -5, -3, -1]),
            ("labels", "531"),
            ("schema", "dmlab/2"),
            ("schema", None),
            ("scheme", "banana"),
            ("scheme", ["centered"]),
        ],
    )
    def test_inexact_fields_rejected(self, field, value):
        doc = json.loads(labeling_to_json(wreath_labeling(3)))
        doc[field] = value
        with pytest.raises(DmlabError):
            labeling_from_json(json.dumps(doc))

    def test_missing_schema_rejected(self):
        doc = json.loads(labeling_to_json(wreath_labeling(3)))
        del doc["schema"]
        with pytest.raises(DmlabError, match="schema"):
            labeling_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", "7", "null", '"x"', "[" * 5000, "9" * 5000],
        ids=["list", "int", "null", "string", "deep-nesting", "huge-int"],
    )
    def test_non_documents_rejected(self, text):
        with pytest.raises(DmlabError):
            labeling_from_json(text)


class TestBoundaryFuzz:
    """Arbitrary text at the two parsers raises DmlabError and nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_labeling_from_json_text(self, text):
        try:
            labeling_from_json(text)
        except DmlabError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                key: st.recursive(
                    st.none()
                    | st.booleans()
                    | st.integers()
                    | st.floats()
                    | st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.9, "-1"])
                    | st.text(max_size=8),
                    lambda inner: st.lists(inner, max_size=6),
                    max_leaves=8,
                )
                for key in ("schema", "order", "scheme", "labels")
            },
        )
    )
    def test_labeling_from_json_documents(self, doc):
        try:
            labeling_from_json(json.dumps(doc))
        except DmlabError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.text(alphabet=[chr(c) for c in range(58, 131)], max_size=12))
    def test_parse_graph6_text(self, text):
        try:
            parse_graph6(text)
        except DmlabError:
            pass
