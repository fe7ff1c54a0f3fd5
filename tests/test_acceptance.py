"""End-to-end acceptance checks.

Each test covers one gate criterion and prints a single PASS/FAIL line so the
suite output doubles as a checklist.  All expected values here are either
computed on the fly from an independent oracle (complete search, exhaustive
verification) or frozen regression fixtures noted inline.
"""

import json
import random

from conftest import all_profiles, dm_profiles, random_graph, recombine
from dmlab.constructive import construct_labeling, construct_tilde_labeling, plan
from dmlab.enumerator import EnumerationTask, census_pipeline, enumerate_regular
from dmlab.graph import canonical_certificate, is_connected, is_regular, parse_graph6, write_graph6
from dmlab.kfk import expand_default
from dmlab.labeling import (
    CenteredLabeling,
    StandardLabeling,
    block_labels,
    centered_label_set,
    check_block_recurrence,
    labeling_from_json,
    labeling_to_json,
    verify,
    wreath_labeling,
)
from dmlab.qw import build_qw, build_wreath, classify, profile_to_sequence
from dmlab.search import FOUND, NOT_FOUND, find_labeling
from dmlab.spectral import corollary_filter, nullspace_basis, pinned_equal_pair


def _report(tag, body):
    try:
        body()
    except BaseException:
        print(f"{tag}: FAIL")
        raise
    print(f"{tag}: PASS")


def test_acceptance_1_classifier_matches_complete_search():
    def body():
        magic = set()
        profiles = all_profiles(14)
        assert len(profiles) == 608
        for parts in profiles:
            seq = profile_to_sequence(parts)
            predicted = classify(seq).distance_magic
            outcome = find_labeling(build_qw(seq))
            assert outcome.verdict in (FOUND, NOT_FOUND)
            assert predicted == (outcome.verdict == FOUND), parts
            if predicted:
                magic.add(parts)
        assert len(magic) == 20
        assert {p for p in magic if sum(p) <= 7} == {(3,), (3, 3), (7,)}

    _report("acceptance 1 (classifier vs complete search, m <= 14)", body)


def test_acceptance_2_constructive_labeling_family():
    def body():
        pool = (3, 5, 7, 9, 11, 15, 19)
        profiles = list(dm_profiles(pool, 5, 60)) + [(11, 3, 5, 3, 7, 5, 3)]
        assert len(profiles) > 100
        for parts in profiles:
            seq = profile_to_sequence(parts)
            m = seq.m
            lab = construct_labeling(seq)
            assert sorted(lab.labels) == list(centered_label_set(2 * m)), parts
            report = verify(build_qw(seq), lab)
            assert report.ok, (parts, report.first_violation)
            bl = block_labels(seq, lab)
            assert set(bl) <= {0, 2, -2}, parts
            assert check_block_recurrence(seq, bl), parts
            tilde = construct_tilde_labeling(seq)
            p = plan(seq)
            starts = [s.start for s in p]
            for lo, hi in zip(starts, starts[1:] + [m]):
                got = sorted(
                    [tilde.labels[j] for j in range(lo, hi)]
                    + [tilde.labels[m + j] for j in range(lo, hi)]
                )
                want = sorted(
                    list(range(1 - 2 * hi, -2 * lo, 2)) + list(range(2 * lo + 1, 2 * hi, 2))
                )
                assert got == want, parts

    _report("acceptance 2 (closed-form labelings, parts in {3..19}, m <= 60)", body)


def test_acceptance_3_wreath_baseline():
    def body():
        for k in range(3, 201):
            report = verify(build_wreath(k), wreath_labeling(k))
            assert report.ok, k

    _report("acceptance 3 (wreath labeling, k = 3..200)", body)


def test_acceptance_4_census():
    def body():
        rows = census_pipeline([6, 8, 10])
        # totals are a frozen regression fixture for the enumerator
        assert [(r.order, r.total) for r in rows] == [(6, 1), (8, 6), (10, 59)]
        for row in rows:
            assert len(row.candidates) == 1
            (cand,) = row.candidates
            assert canonical_certificate(cand) == canonical_certificate(
                build_wreath(row.order // 2)
            )
            assert row.dm_confirmed == 1

    _report("acceptance 4 (census, orders 6/8/10)", body)


def test_acceptance_5_negative_instances_are_proven():
    def body():
        for parts in [(4,), (2, 2), (5,), (3, 2)]:
            outcome = find_labeling(build_qw(profile_to_sequence(parts)))
            assert outcome.verdict == NOT_FOUND, parts

    _report("acceptance 5 (complete-search refutations)", body)


def test_acceptance_6_expansion_leaves_wreath_family():
    def body():
        seq = profile_to_sequence((7,))
        g2, lab2 = expand_default(build_qw(seq), construct_labeling(seq))
        assert g2.n == 16
        assert is_regular(g2, 4)
        assert is_connected(g2)
        assert verify(g2, lab2).ok
        assert canonical_certificate(g2) != canonical_certificate(build_wreath(8))

    _report("acceptance 6 (4-cycle expansion of the order-14 instance)", body)


def test_acceptance_7_filter_soundness_and_basis_invariance():
    def body():
        corpus = []
        for n in (6, 8, 10):
            corpus.extend(enumerate_regular(EnumerationTask(n, 4, connected=True)))
        for parts in all_profiles(7):
            corpus.append(build_qw(profile_to_sequence(parts)))

        rng = random.Random(2024)
        for g in corpus:
            verdict = corollary_filter(g)
            if find_labeling(g).verdict == FOUND:
                assert verdict.candidate, write_graph6(g)
            basis = nullspace_basis(g)
            base_pin = pinned_equal_pair(basis.vectors, g.n) is None
            vectors = basis.vectors
            for _ in range(50):
                vectors = recombine(vectors, rng)
                if vectors:
                    assert (pinned_equal_pair(vectors, g.n) is None) == base_pin

    _report("acceptance 7 (filter soundness + basis invariance)", body)


def test_acceptance_8_serialization_roundtrips():
    def body():
        rng = random.Random(8)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 40))
            line = write_graph6(g)
            assert write_graph6(parse_graph6(line)) == line
            assert parse_graph6(line) == g
        for _ in range(1000):
            n = 2 * rng.randint(1, 40)
            labels = list(centered_label_set(n))
            rng.shuffle(labels)
            if rng.random() < 0.5:
                lab = CenteredLabeling(n, tuple(labels))
            else:
                std = list(range(1, n + 1))
                rng.shuffle(std)
                lab = StandardLabeling(n, tuple(std))
            doc = labeling_to_json(lab)
            assert labeling_from_json(doc) == lab
            assert labeling_to_json(labeling_from_json(doc)) == doc
            assert json.loads(doc)["schema"] == "dmlab/1"

    _report("acceptance 8 (graph6 and labeling JSON round trips)", body)
