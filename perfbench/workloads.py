"""The benchmark's workloads: seeded inputs, the jobs that run them, and the
checks on every job's output.

Inputs are made here with the standard library only, so a defect in dmlab
cannot shape the inputs it is measured on.  Jobs call dmlab through module
attributes (``qw.build_qw(...)``, never a name imported once), so the wrappers
that ``tracer.install`` puts on those attributes see every call.

A workload is a list of jobs.  ``run_job`` does the timed work and returns its
raw output; ``check_job`` runs afterwards, untimed and untraced, and returns a
signature (the job's verdict-level output, compared across passes and runs)
or raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from dataclasses import dataclass

import dmlab.constructive as constructive
import dmlab.enumerator as enumerator
import dmlab.graph as graph
import dmlab.kfk as kfk
import dmlab.labeling as labeling
import dmlab.qw as qw
import dmlab.search as search
import dmlab.spectral as spectral

# Connected quartic graphs per order (OEIS A006820), and the census rows
# (order -> total, candidates, dm_confirmed) they give.
CENSUS_ROWS = {6: (1, 1, 1), 8: (6, 1, 1), 10: (59, 1, 1)}

# Sign-folded labeling counts found by complete search.
FOLDED_COUNTS = {(7,): 39168, (3, 3): 1728}

# Part pool of the random distance magic profiles: 3, 7, 11, 15, 19 are
# type A (= 3 mod 4), 5 and 9 are type B (= 1 mod 4).
PROFILE_POOL = (3, 5, 7, 9, 11, 15, 19)

# construct_verify also runs the 4-cycle expansion on jobs this small.
EXPAND_MAX_M = 60

class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass(frozen=True)
class Job:
    kind: str
    profile: tuple = ()
    mode: str = ""
    line: str = ""
    n: int = 0
    edges: frozenset = frozenset()
    orders: tuple = ()


# ---------------------------------------------------------------------------
# Reference code used by the inputs and the checks (standard library only)
# ---------------------------------------------------------------------------

def dm_rule(profile) -> bool:
    """The paper's classification: QW(profile) is distance magic iff every
    segment length is odd and an even number of them are = 1 (mod 4)."""
    return all(a % 2 for a in profile) and sum(1 for a in profile if a % 4 == 1) % 2 == 0


def compositions(m: int):
    """Segment profiles of QW graphs with m blocks: ordered parts >= 2."""
    if m == 0:
        yield ()
        return
    for first in range(2, m + 1):
        for rest in compositions(m - first):
            yield (first, *rest)


def qw_edges(profile) -> tuple:
    """(order, edge set) of QW(profile), built from the construction rules."""
    bits = []
    for a in profile:
        bits += [0] + [1] * (a - 1)
    m = len(bits)
    edges = set()
    for i, s in enumerate(bits):
        j = (i + 1) % m
        pairs = [(i, j), (m + i, m + j)]
        pairs += [(i, m + i), (j, m + j)] if s == 0 else [(i, m + j), (j, m + i)]
        edges.update((min(u, v), max(u, v)) for u, v in pairs)
    return 2 * m, frozenset(edges)


def graph6_line(n: int, edges) -> str:
    """Short-form graph6: upper triangle column by column, 6 bits a byte."""
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        bits[v * (v - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    body = (
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + "".join(body)


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def random_quartic(rng: random.Random, n: int) -> frozenset:
    """A random connected simple 4-regular graph by the pairing model: pair
    up 4n points, four per vertex, at random.  A partner that would make a
    loop or a repeated edge is drawn again, so whole restarts (on a dead end
    or a disconnected graph) are rare and set-up time barely depends on the
    seed."""
    while True:
        points = [v for v in range(n) for _ in range(4)]
        edges = set()
        while points:
            u = points.pop(rng.randrange(len(points)))
            for _ in range(20):
                k = rng.randrange(len(points))
                e = (min(u, points[k]), max(u, points[k]))
                if u != points[k] and e not in edges:
                    break
            else:
                break
            points.pop(k)
            edges.add(e)
        if not points and _connected(n, edges):
            return frozenset(edges)


def random_dm_profile(rng: random.Random, target_m: int) -> tuple:
    """Random parts from PROFILE_POOL until the blocks reach target_m, then
    one more type-B part if needed to make the type-B count even."""
    parts, m = [], 0
    while m < target_m:
        parts.append(rng.choice(PROFILE_POOL))
        m += parts[-1]
    if not dm_rule(parts):
        parts.append(5)
    return tuple(parts)


def _digest(values) -> str:
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()[:16]


def _is_centered_bijection(labels) -> bool:
    n = len(labels)
    return sorted(labels) == list(range(1 - n, n, 2))


def _all_weights_zero(edges, labels) -> bool:
    """Distance magic in the centered scheme: every neighbourhood sums to 0."""
    weights = [0] * len(labels)
    for u, v in edges:
        weights[u] += labels[v]
        weights[v] += labels[u]
    return not any(weights)


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_jobs(workload: str, seed: int, size: str = "full") -> list:
    """The job list of a workload; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    tiny = size == "tiny"
    if workload == "census":
        # dmlab census --orders 6 8 10; the seed has nothing to vary here
        return [Job("census", orders=(6, 8) if tiny else (6, 8, 10))]
    if workload == "search_oracle":
        max_m, find, counts = (5, (7,), [(3, 3)]) if tiny else (7, (11,), [(7,), (3, 3)])
        jobs = [
            Job("search", profile=p, mode=search.FIND_ONE)
            for m in range(3, max_m + 1)
            for p in compositions(m)
        ]
        jobs.append(Job("search", profile=find, mode=search.FIND_ONE))
        jobs += [Job("search", profile=p, mode=search.COUNT_ALL) for p in counts]
        rng.shuffle(jobs)
        return jobs
    if workload == "filter_stream":
        qw_orders = range(8, 10) if tiny else range(8, 15)
        random_orders = (40, 42) if tiny else range(40, 63, 2)
        jobs = []
        for m in qw_orders:
            for p in compositions(m):
                n, edges = qw_edges(p)
                jobs.append(Job("filter", profile=p, n=n, edges=edges, line=graph6_line(n, edges)))
        for n in random_orders:
            edges = random_quartic(rng, n)
            jobs.append(Job("filter", n=n, edges=edges, line=graph6_line(n, edges)))
        return jobs
    if workload == "construct_verify":
        # Block counts are stratified (one draw per equal slice) and jobs run
        # in ascending order of m, so the work per pass and the heap's growth
        # barely move with the seed; the profiles do.
        small, big = (2, 4) if tiny else (20, 100)
        lo, hi = (500, 2000) if tiny else (500, 8000)
        # small jobs: m <= 36 + 19 + 5 <= EXPAND_MAX_M, so each one expands
        targets = [6 + 30 * (i + rng.random()) / small for i in range(small)]
        targets += [lo * (hi / lo) ** ((i + rng.random()) / big) for i in range(big)]
        return [Job("construct", profile=random_dm_profile(rng, math.ceil(t))) for t in targets]
    raise ValueError(f"unknown workload {workload!r}")


def describe(jobs: list) -> dict:
    """Input sizes of a job list, for the run's detail record."""
    out = {"jobs": len(jobs)}
    profiles = [j.profile for j in jobs if j.profile]
    if profiles:
        out["blocks"] = sum(sum(p) for p in profiles)
        out["max_m"] = max(sum(p) for p in profiles)
    orders = [j.n for j in jobs if j.n]
    if orders:
        out["graph_orders"] = [min(orders), max(orders)]
    census = [j.orders for j in jobs if j.orders]
    if census:
        out["census_orders"] = list(census[0])
    return out


# ---------------------------------------------------------------------------
# Jobs (timed) and checks (untimed)
# ---------------------------------------------------------------------------

def run_job(job: Job):
    if job.kind == "census":
        return enumerator.census_pipeline(list(job.orders))
    if job.kind == "search":
        g = qw.build_qw(qw.profile_to_sequence(job.profile))
        opts = search.SearchOptions(mode=job.mode, prefilter=False)
        return g, search.find_labeling(g, opts)
    if job.kind == "filter":
        g = graph.parse_graph6(job.line)
        return g, spectral.corollary_filter(g)
    if job.kind == "construct":
        seq = qw.profile_to_sequence(job.profile)
        g = qw.build_qw(seq)
        out = {"g": g, "seq": seq, "classification": qw.classify(seq)}
        lab = out["lab"] = constructive.construct_labeling(seq)
        out["report"] = labeling.verify(g, lab)
        out["tilde"] = constructive.construct_tilde_labeling(seq)
        out["recurrence"] = labeling.check_block_recurrence(seq, labeling.block_labels(seq, lab))
        out["roundtrip"] = labeling.labeling_from_json(labeling.labeling_to_json(lab))
        if seq.m <= EXPAND_MAX_M:
            out["expanded"] = kfk.expand_default(g, lab)
        return out
    raise ValueError(f"unknown job kind {job.kind!r}")


def check_job(job: Job, output) -> tuple:
    """Signature of a correct output; raises CheckFailed otherwise."""
    if job.kind == "census":
        rows = tuple((r.order, r.total, len(r.candidates), r.dm_confirmed) for r in output)
        expected = tuple((n, *CENSUS_ROWS[n]) for n in job.orders)
        _require(rows == expected, f"census rows {rows} != {expected}")
        return rows
    if job.kind == "search":
        return _check_search(job, *output)
    if job.kind == "filter":
        return _check_filter(job, *output)
    return _check_construct(job, output)


def _check_search(job: Job, g, outcome) -> tuple:
    p = job.profile
    magic = qw.classify(qw.profile_to_sequence(p)).distance_magic
    _require(magic == dm_rule(p), f"classify{p} disagrees with the classification rule")
    _require(g.edges == qw_edges(p)[1], f"build_qw{p} is not QW{p}")
    want = search.FOUND if magic else search.NOT_FOUND
    _require(outcome.verdict == want, f"search{p}: {outcome.verdict}, classify says {want}")
    labels = ()
    if outcome.verdict == search.FOUND:
        labels = outcome.labeling.labels
        _require(labeling.verify(g, outcome.labeling).ok, f"search{p}: labeling fails verify")
        _require(_all_weights_zero(g.edges, labels), f"search{p}: labeling is not magic")
        _require(_is_centered_bijection(labels), f"search{p}: labeling is not a bijection")
    if job.mode == search.COUNT_ALL:
        folded = FOLDED_COUNTS[p]
        _require(outcome.count_folded == folded, f"count{p}: {outcome.count_folded} != {folded}")
        _require(outcome.count_raw == 2 * folded, f"count{p}: raw count {outcome.count_raw}")
    return p, job.mode, outcome.verdict, outcome.count_folded, _digest(labels)


def _check_filter(job: Job, g, verdict) -> tuple:
    _require(g.n == job.n and g.edges == job.edges, f"parse_graph6 misread {job.line}")
    _require(isinstance(verdict.candidate, bool), f"verdict {verdict!r} is not a verdict")
    if job.profile:
        p = job.profile
        magic = qw.classify(qw.profile_to_sequence(p)).distance_magic
        _require(magic == dm_rule(p), f"classify{p} disagrees with the classification rule")
        _require(verdict.candidate or not magic, f"filter ruled out distance magic QW{p}")
    return job.line, verdict.candidate, verdict.reason


def _check_construct(job: Job, out: dict) -> tuple:
    p, g, lab = job.profile, out["g"], out["lab"]
    _require(out["classification"].distance_magic, f"classify rejects distance magic QW{p}")
    _require(g.edges == qw_edges(p)[1], f"build_qw{p} is not QW{p}")
    _require(out["report"].ok, f"construct_labeling{p} fails verify")
    _require(_all_weights_zero(g.edges, lab.labels), f"construct_labeling{p} is not magic")
    _require(_is_centered_bijection(lab.labels), f"construct_labeling{p} is not a bijection")
    _require(
        sorted(out["tilde"].labels) == sorted(lab.labels), f"tilde labeling{p} has other labels"
    )
    _require(out["recurrence"], f"block labels of QW{p} break the recurrence")
    back = out["roundtrip"]
    _require(
        isinstance(back, labeling.CenteredLabeling) and back == lab,
        f"JSON round trip of QW{p} is lossy",
    )
    expanded = ""
    if "expanded" in out:
        g2, lab2 = out["expanded"]
        _require(g2.n == g.n + 2 and graph.is_regular(g2, 4), f"expansion of QW{p} is not quartic")
        _require(labeling.verify(g2, lab2).ok, f"expansion of QW{p} fails verify")
        _require(
            _all_weights_zero(g2.edges, lab2.labels) and _is_centered_bijection(lab2.labels),
            f"expansion of QW{p} is not distance magic",
        )
        expanded = _digest(sorted(g2.edges))
    return p, _digest(lab.labels), _digest(out["tilde"].labels), expanded
