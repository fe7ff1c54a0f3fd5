import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import dm_profiles, odd_compositions
from dmlab import constructive, qw
from dmlab.constructive import (
    block_label_pattern,
    construct_labeling,
    construct_tilde_labeling,
    plan,
)
from dmlab.errors import InvariantError, NotDistanceMagicError
from dmlab.labeling import (
    block_labels,
    centered_label_set,
    check_block_recurrence,
    verify,
)
from dmlab.qw import TYPE_A, TYPE_B, build_qw, classify, profile_to_sequence


def segment_bounds(seq):
    """(k_i, k_{i+1}) per segment, k_{t+1} = m."""
    p = plan(seq)
    ends = [s.start for s in p[1:]] + [seq.m]
    return [(s.start, ends[i]) for i, s in enumerate(p)]


class TestPlan:
    def test_3_3(self):
        p = plan(profile_to_sequence((3, 3)))
        assert [(s.start, s.kind, s.b, s.partner) for s in p] == [
            (0, TYPE_A, 0, None),
            (3, TYPE_A, 0, None),
        ]

    def test_5_5(self):
        p = plan(profile_to_sequence((5, 5)))
        assert [(s.kind, s.b, s.partner) for s in p] == [
            (TYPE_B, 0, 2),
            (TYPE_B, 1, None),
        ]

    def test_figure_scale_profile(self):
        p = plan(profile_to_sequence((11, 3, 5, 3, 7, 5, 3)))
        assert [s.kind for s in p] == [
            TYPE_A, TYPE_A, TYPE_B, TYPE_A, TYPE_A, TYPE_B, TYPE_A,
        ]
        assert [s.b for s in p] == [0, 0, 0, 1, 1, 1, 2]
        assert [s.partner for s in p] == [None, None, 6, None, None, None, None]

    def test_rejects_non_dm(self):
        with pytest.raises(NotDistanceMagicError):
            plan(profile_to_sequence((5,)))
        with pytest.raises(NotDistanceMagicError):
            plan(profile_to_sequence((4,)))

    def test_pairing_is_perfect_matching(self):
        for parts in dm_profiles((3, 5, 9), 4, 30):
            p = plan(profile_to_sequence(parts))
            b_segs = [s for s in p if s.kind == TYPE_B]
            paired = [s.partner for s in p if s.partner is not None]
            assert len(paired) == len(b_segs) // 2
            assert len(set(paired)) == len(paired)
            for s in p:
                if s.partner is not None:
                    partner = p[s.partner - 1]
                    assert partner.kind == TYPE_B and partner.index > s.index


class TestConstruct:
    def test_worked_qw3(self):
        lab = construct_labeling(profile_to_sequence((3,)))
        # blocks (x, y): (1,-3), (3,-1), (5,-5)
        assert lab.labels == (1, 3, 5, -3, -1, -5)

    def test_worked_qw33(self):
        lab = construct_labeling(profile_to_sequence((3, 3)))
        assert lab.labels == (1, 3, 5, 7, 9, 11, -3, -1, -5, -9, -7, -11)

    def test_qw7_label_multiset(self):
        seq = profile_to_sequence((7,))
        lab = construct_labeling(seq)
        assert sorted(lab.labels) == list(range(-13, 14, 2))
        assert verify(build_qw(seq), lab).ok

    def test_rejects_non_dm(self):
        for parts in [(5,), (4,), (2, 2), (3, 2)]:
            with pytest.raises(NotDistanceMagicError):
                construct_labeling(profile_to_sequence(parts))

    def test_deterministic(self):
        seq = profile_to_sequence((3, 5, 5, 3))
        assert construct_labeling(seq) == construct_labeling(seq)

    def test_soundness_harness(self):
        for parts in dm_profiles((3, 5, 7, 9, 11), 4, 44):
            seq = profile_to_sequence(parts)
            lab = construct_labeling(seq)
            g = build_qw(seq)
            report = verify(g, lab)
            assert report.ok, (parts, report.first_violation)


class TestTilde:
    def test_equals_plain_without_type_b(self):
        for parts in [(3,), (3, 3), (7,), (3, 7, 11)]:
            seq = profile_to_sequence(parts)
            assert construct_tilde_labeling(seq) == construct_labeling(seq)

    def test_5_5_first_subgraph_range(self):
        seq = profile_to_sequence((5, 5))
        lab = construct_tilde_labeling(seq)
        m = seq.m
        gamma1 = [lab.labels[j] for j in range(5)] + [lab.labels[m + j] for j in range(5)]
        assert all(abs(x) <= 9 for x in gamma1)

    def test_same_multiset_as_plain(self):
        for parts in dm_profiles((3, 5, 7, 9, 11), 4, 40):
            seq = profile_to_sequence(parts)
            assert sorted(construct_tilde_labeling(seq).labels) == sorted(
                construct_labeling(seq).labels
            )

    def test_per_segment_ranges(self):
        for parts in dm_profiles((3, 5, 7, 9), 4, 32):
            seq = profile_to_sequence(parts)
            lab = construct_tilde_labeling(seq)
            m = seq.m
            for lo, hi in segment_bounds(seq):
                got = sorted(
                    [lab.labels[j] for j in range(lo, hi)]
                    + [lab.labels[m + j] for j in range(lo, hi)]
                )
                want = sorted(
                    list(range(1 - 2 * hi, -2 * lo, 2)) + list(range(2 * lo + 1, 2 * hi, 2))
                )
                assert got == want, parts

    def test_smallest_absolute_value_position(self):
        # per segment the smallest |label| is 2k_i + 1, on x_{k_i} and y_{k_i+1}
        for parts in dm_profiles((3, 5, 9), 3, 24):
            seq = profile_to_sequence(parts)
            lab = construct_tilde_labeling(seq)
            m = seq.m
            for lo, hi in segment_bounds(seq):
                small = {abs(lab.labels[lo]), abs(lab.labels[m + lo + 1])}
                assert small == {2 * lo + 1}


class TestBytesPinned:
    # SHA-256 over repr((profile, plain labels, tilde labels)), one per
    # distance magic profile with odd parts and m <= 26, in (m, profile) order
    SHA256 = "c5209aee9fdd470aa4b07aa15f2861c0564e09a3e9a320162e63b8c22cc8599c"

    def test_construction_bytes_pinned(self):
        profiles = sorted(
            (p for p in odd_compositions(26) if classify(profile_to_sequence(p)).distance_magic),
            key=lambda p: (sum(p), p),
        )
        assert len(profiles) == 531
        h = hashlib.sha256()
        for parts in profiles:
            seq = profile_to_sequence(parts)
            item = (parts, construct_labeling(seq).labels, construct_tilde_labeling(seq).labels)
            h.update(repr(item).encode())
        assert h.hexdigest() == self.SHA256


class TestBlockPattern:
    def test_qw3_blocks(self):
        seq = profile_to_sequence((3,))
        lab = construct_labeling(seq)
        assert block_labels(seq, lab) == (-2, 2, 0)
        assert block_label_pattern(seq, lab)

    def test_qw33_blocks(self):
        seq = profile_to_sequence((3, 3))
        lab = construct_labeling(seq)
        assert block_labels(seq, lab) == (-2, 2, 0, -2, 2, 0)
        assert block_label_pattern(seq, lab)

    def test_random_dm_profiles(self):
        rng = random.Random(7)
        pool = (3, 5, 7, 9, 11, 15, 19)
        checked = 0
        while checked < 200:
            parts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
            if sum(parts) > 200:
                continue
            seq = profile_to_sequence(parts)
            if not classify(seq).distance_magic:
                continue
            lab = construct_labeling(seq)
            assert block_label_pattern(seq, lab)
            assert check_block_recurrence(seq, block_labels(seq, lab))
            checked += 1

    def test_pattern_rejects_perturbed(self):
        seq = profile_to_sequence((3, 3))
        lab = construct_labeling(seq)
        broken = list(lab.labels)
        broken[0], broken[2] = broken[2], broken[0]
        from dmlab.labeling import CenteredLabeling

        assert not block_label_pattern(seq, CenteredLabeling(12, tuple(broken)))


class TestLargeSoundness:
    def test_m_up_to_500(self):
        rng = random.Random(11)
        pool = (3, 5, 7, 9, 11, 15, 19, 23, 27)
        for _ in range(40):
            parts = []
            while sum(parts) < 420:
                parts.append(rng.choice(pool))
            b_count = sum(1 for a in parts if a % 4 == 1)
            if b_count % 2:
                parts.append(5)
            seq = profile_to_sequence(tuple(parts))
            assert seq.m <= 500
            assert classify(seq).distance_magic
            lab = construct_labeling(seq)
            assert verify(build_qw(seq), lab).ok
            assert sorted(lab.labels) == list(centered_label_set(2 * seq.m))


class TestOneScan:
    @pytest.fixture
    def scans(self, monkeypatch):
        """The bits of every scan for segments, in call order."""
        calls, scan = [], qw._scan

        def counted(bits):
            calls.append(bits)
            return scan(bits)

        monkeypatch.setattr(qw, "_scan", counted)
        return calls

    def test_one_scan_per_sequence(self, scans):
        seq = profile_to_sequence((5, 3, 7, 5, 3))
        assert classify(seq).distance_magic
        lab = construct_labeling(seq)
        construct_tilde_labeling(seq)
        assert block_label_pattern(seq, lab)
        assert [s.length for s in qw.segments(seq)] == [5, 3, 7, 5, 3]
        assert plan(seq) is seq.segments
        assert scans == [seq.bits]

    def test_refused_sequence_is_scanned_once(self, scans):
        seq = profile_to_sequence((5, 3))
        for _ in range(2):
            with pytest.raises(NotDistanceMagicError, match="odd number of type-B"):
                construct_labeling(seq)
        assert scans == [seq.bits]


class TestMemory:
    @pytest.mark.parametrize(
        "parts", [(3,) * 10000, (5, 7, 9, 3, 5, 11) * 750, (19,) * 1578 + (11, 7)]
    )
    def test_peak_bounded_by_labeling(self, parts):
        # m = 30000: the two label lists are all the working memory, and the
        # segments, scanned here, stay with the sequence; these read about
        # 1.2, 1.2 and 1.3
        seq = profile_to_sequence(parts)
        tracemalloc.start()
        try:
            lab = construct_labeling(seq)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seq.m == 30000 and len(lab.labels) == 60000
        assert peak <= 1.5 * kept


class TestInvariantChecks:
    """Internal checks raise InvariantError, so they survive `python -O`."""

    # (5, 3, 5) with the first type-B segment paired to the type-A segment:
    # block 11, the true partner's penultimate, is never fixed
    SCRIPT = (
        "import dmlab.constructive as c\n"
        "from dmlab.errors import InvariantError\n"
        "from dmlab.qw import profile_to_sequence\n"
        "seq = profile_to_sequence((5, 3, 5))\n"
        "segs = c.plan(seq)\n"
        "c.plan = lambda s: (segs[0]._replace(partner=2),) + segs[1:]\n"
        "try:\n"
        "    c.construct_labeling(seq)\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n"
    )

    def test_wrong_partner_raises_under_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised: block 11 was not fixed by a type-B partner"

    @staticmethod
    def _patched(monkeypatch, parts, edit):
        seq = profile_to_sequence(parts)
        segs = constructive.plan(seq)
        monkeypatch.setattr(constructive, "plan", lambda s: edit(segs))
        return seq

    @pytest.mark.parametrize("construct", [construct_labeling, construct_tilde_labeling])
    def test_unused_hold_raises(self, monkeypatch, construct):
        # the second of the pair computes its own penultimate block, so the
        # labels its partner fixed for block 11 are never used
        seq = self._patched(
            monkeypatch, (5, 3, 5), lambda segs: segs[:2] + (segs[2]._replace(kind=TYPE_A),)
        )
        with pytest.raises(InvariantError, match=r"blocks \[11\] were fixed but never reached"):
            construct(seq)

    def test_unlabeled_block_raises(self, monkeypatch):
        seq = self._patched(monkeypatch, (3, 3), lambda segs: segs[:1])
        with pytest.raises(InvariantError, match="3 blocks labeled for m = 6"):
            construct_labeling(seq)

    def test_patched_plan_takes_effect_over_the_kept_segments(self, monkeypatch):
        # the labeling reads plan's segments, not the sequence's own; the
        # patch leaves the sequence as it was
        seq = self._patched(monkeypatch, (3, 3), lambda segs: segs[:1])
        with pytest.raises(InvariantError):
            construct_labeling(seq)
        assert [s.length for s in seq.segments] == [3, 3]
        monkeypatch.undo()
        assert construct_labeling(seq) == construct_labeling(profile_to_sequence((3, 3)))
