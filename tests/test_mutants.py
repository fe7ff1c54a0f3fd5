"""Mutation gate: each rule that decides a verdict is broken on purpose, one
textual mutant at a time, and the named tests must fail on the broken copy.

Every run works on a copy of src/, tests/ and pyproject.toml under a
temporary directory, with bytecode and the pytest cache switched off, so it
writes nothing to the repository.  A mutant is killed when pytest exits 1
(tests failed); 0 means it survived, and any other code is an error of the
run itself.  A control run of the unmutated copy over every named test must
pass, so a kill is the mutant's doing and not the copy's.

The enumerator's `walked` rejection and twin rule only save work, so their
mutants are killed by the certificate-call pins of tests/test_enumerator.py.
A walked key that does not keep vertex 0 apart rejects partial graphs that
are isomorphic only by a map moving 0, and loses classes.
The one rule still without a mutant here is the kfk result check, which is
equivalent by construction.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

# name -> (file under src/dmlab, snippet occurring exactly once, replacement, test ids)
MUTANTS = {
    "classify-counts-3-mod-4": (
        "qw.py",
        "b_count = sum(a % 4 == 1 for a in lengths)",
        "b_count = sum(a % 4 == 3 for a in lengths)",
        ["tests/test_qw.py::TestClassifier"],
    ),
    "segments-returns-the-cache": (
        "qw.py",
        "return list(seq.segments)",
        "return seq.segments",
        ["tests/test_qw.py::TestSegments"],
    ),
    "twin-rows-on-one-crossing": (
        "qw.py",
        "row if r and s else",
        "row if r or s else",
        ["tests/test_qw.py::TestBuilderRules"],
    ),
    "triangle-prune-ge": (
        "enumerator.py",
        "if any(_triangles(adj, u) > top for u in range(1, fresh)):",
        "if any(_triangles(adj, u) >= top for u in range(1, fresh)):",
        ["tests/test_enumerator.py::TestCounts"],
    ),
    "leaf-quotient-ge": (
        "enumerator.py",
        "        if inv > top:",
        "        if inv >= top:",
        ["tests/test_enumerator.py::TestCounts"],
    ),
    "connected-walk-goes-on": (
        "enumerator.py",
        "return  # 0..v-1 are full and reach no later vertex",
        "pass  # 0..v-1 are full and reach no later vertex",
        ["tests/test_enumerator.py::TestCounts"],
    ),
    "walked-rejection-never-fires": (
        "enumerator.py",
        "if key in walked:",
        "if False:",
        ["tests/test_enumerator.py::TestOutputProperties::test_few_certificate_calls"],
    ),
    "walked-key-unrooted": (
        "enumerator.py",
        "[[0], list(range(1, fresh))] if fresh > 1 else [[0]]",
        "[list(range(fresh))]",
        ["tests/test_enumerator.py::TestCounts"],
    ),
    "twin-rule-never-skips": (
        "enumerator.py",
        "continue  # a twin permutation maps old onto an earlier choice",
        "pass  # a twin permutation maps old onto an earlier choice",
        ["tests/test_enumerator.py::TestOutputProperties::test_twin_rule_cuts_certificate_calls"],
    ),
    "band-pair-mapped-by-vertex": (
        "spectral.py",
        "v[order[pc]] = -mat[r][fc]",
        "v[pc] = -mat[r][fc]",
        ["tests/test_spectral.py::TestBandOrder"],
    ),
    "band-row-unpermuted": (
        "spectral.py",
        "row[position[w]] = 1",
        "row[w] = 1",
        ["tests/test_spectral.py::TestBandOrder", "tests/test_spectral.py::TestAgainstDenseElimination"],
    ),
    "trivial-kernel-passes": (
        "spectral.py",
        'return FilterVerdict(False, "trivial nullspace")',
        "return FilterVerdict(True)",
        ["tests/test_spectral.py"],
    ),
    "pinned-pair-never-recorded": (
        "spectral.py",
        "second.setdefault(i, j)",
        "pass",
        ["tests/test_spectral.py"],
    ),
    "kernel-vector-sign": (
        "spectral.py",
        "v[order[pc]] = -mat[r][fc]",
        "v[order[pc]] = mat[r][fc]",
        ["tests/test_spectral.py::TestAgainstDenseElimination"],
    ),
    "inexact-pivot-division-floors": (
        "spectral.py",
        "row[j] = Fraction(a, lead) if rest else q",
        "row[j] = q",
        ["tests/test_spectral.py::TestAgainstDenseElimination"],
    ),
    "near-twin-counts-true-twins": (
        "spectral.py",
        "near = len(sets[0]) - 1",
        "near = len(sets[0])",
        ["tests/test_spectral.py::TestNearTwinPair", "tests/test_enumerator.py::TestCensus"],
    ),
    "near-twin-counts-r-minus-2": (
        "spectral.py",
        "near = len(sets[0]) - 1",
        "near = len(sets[0]) - 2",
        ["tests/test_spectral.py::TestNearTwinPair", "tests/test_enumerator.py::TestCensus"],
    ),
    "verify-skips-last-vertex": (
        "labeling.py",
        "for nb in g.neighbors:",
        "for nb in g.neighbors[:-1]:",
        ["tests/test_labeling.py::TestVerify"],
    ),
    "bijection-misses-lowest-label": (
        "labeling.py",
        "range(1 - self.order, ",
        "range(3 - self.order, ",
        ["tests/test_labeling.py::TestVerify"],
    ),
    "label-set-accepts-odd-order": (
        "labeling.py",
        "    if n % 2:\n        raise OddOrderError(f\"centered label set",
        "    if False:\n        raise OddOrderError(f\"centered label set",
        ["tests/test_search.py", "tests/test_labeling.py"],
    ),
    "recurrence-case-1-sign": (
        "labeling.py",
        "if nxt != -li:",
        "if nxt != li:",
        ["tests/test_labeling.py"],
    ),
    "recurrence-case-2-sign": (
        "labeling.py",
        "if 2 * nxt != -(li + lj):",
        "if 2 * nxt != (li + lj):",
        ["tests/test_labeling.py::TestBlockRecurrence"],
    ),
    "recurrence-case-3-sign": (
        "labeling.py",
        "if nxt != -2 * li - lj:",
        "if nxt != 2 * li - lj:",
        ["tests/test_labeling.py::TestBlockRecurrence"],
    ),
    "kfk-cycle-difference": (
        "kfk.py",
        "if labels[b] + labels[d] == 0:",
        "if labels[b] - labels[d] == 0:",
        ["tests/test_kfk.py"],
    ),
    "search-a-skips-last-term": (
        "search.py",
        "            for w, c in terms:",
        "            for w, c in terms[:-1]:",
        ["tests/test_search.py"],
    ),
    "search-b-low-off-by-one": (
        "search.py",
        "not low[k_open] <= -s",
        "not low[k_open - 1] <= -s",
        ["tests/test_search.py::TestCountMode"],
    ),
    "search-d-above-flipped": (
        "search.py",
        "for u in above[v]:\n            y = assigned[u]\n            if y is not None and y < x:",
        "for u in above[v]:\n            y = assigned[u]\n            if y is not None and y > x:",
        ["tests/test_search.py::TestCountMode"],
    ),
    "backjump-one-short": (
        "graph.py",
        "enumerate(zip(best_path, path)) if u != w)",
        "enumerate(zip(best_path, path)) if u != w) - 1",
        ["tests/test_graph_core.py::TestCertificate"],
    ),
    "no-backjump": (
        "graph.py",
        "return next(i for i, (u, w) in enumerate(zip(best_path, path)) if u != w)",
        "return len(path)",
        ["tests/test_graph_core.py::TestCertificate::test_tree_size_bounded"],
    ),
    "twin-test-open-half-only": (
        "graph.py",
        "if neighbors[v] in tried_open or closed in tried_closed:",
        "if neighbors[v] in tried_open:",
        ["tests/test_graph_core.py::TestCertificate::test_tree_size_bounded"],
    ),
    "refine-child-rest-only": (
        "graph.py",
        "descend(child, (target, target + 1))",
        "descend(child, (target + 1,))",
        ["tests/test_graph_core.py::TestCertificate::test_bytes_pinned"],
    ),
    "refine-sign-flipped": (
        "graph.py",
        "sig[w] += digit",
        "sig[w] -= digit",
        ["tests/test_graph_core.py::TestRefine", "tests/test_graph_core.py::TestCertificate::test_bytes_pinned"],
    ),
}


def _copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def _pytest(tree: Path, ids) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def test_control_copy_passes(tmp_path):
    ids = sorted({i for *_, mutant_ids in MUTANTS.values() for i in mutant_ids})
    run = _pytest(_copy_tree(tmp_path), ids)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_killed(tmp_path, name):
    module, snippet, replacement, ids = MUTANTS[name]
    tree = _copy_tree(tmp_path)
    path = tree / "src" / "dmlab" / module
    text = path.read_text()
    assert text.count(snippet) == 1, f"{name}: snippet must occur exactly once in {module}"
    path.write_text(text.replace(snippet, replacement))
    run = _pytest(tree, ids)
    assert run.returncode != 0, f"{name} survived {ids}"
    log = run.stdout[-3000:] + run.stderr[-3000:]
    assert run.returncode == 1, f"{name}: pytest exited {run.returncode}\n{log}"
