import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dmlab
from dmlab.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, main
from dmlab.enumerator import EnumerationTask, enumerate_regular
from dmlab.graph import Graph, canonical_certificate, parse_graph6, write_graph6
from dmlab.labeling import (
    CenteredLabeling,
    StandardLabeling,
    labeling_from_json,
    labeling_to_json,
    to_standard,
    verify,
    wreath_labeling,
)
from dmlab.qw import build_qw, build_wreath, profile_to_sequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQw:
    def test_build_profile(self, capsys):
        code, out, _ = run(capsys, "qw", "build", "--profile", "3,3")
        assert code == EXIT_OK
        g = parse_graph6(out.strip())
        assert g == build_qw(profile_to_sequence((3, 3)))

    def test_build_sequence(self, capsys):
        code, out, _ = run(capsys, "qw", "build", "--sequence", "011")
        assert code == EXIT_OK
        assert parse_graph6(out.strip()).n == 6

    def test_classify_positive(self, capsys):
        code, out, _ = run(capsys, "qw", "classify", "--profile", "3,3")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema"] == "dmlab/1"
        assert doc["verdict"] == "DistanceMagic"
        assert [s["type"] for s in doc["segments"]] == ["A", "A"]

    def test_classify_negative_exit_1(self, capsys):
        code, out, _ = run(capsys, "qw", "classify", "--profile", "4")
        assert code == EXIT_NEGATIVE
        assert json.loads(out)["verdict"] == "NotDistanceMagic"

    def test_bad_profile_exit_2(self, capsys):
        code, _, err = run(capsys, "qw", "build", "--profile", "3,x")
        assert code == EXIT_ERROR
        assert "dmlab:" in err

    @pytest.mark.parametrize("profile", ["1_1,3,5,3,7,5,3", "+3,+3", "\uff13,\uff13", "3,,3", "3;3"])
    @pytest.mark.parametrize("command", ["build", "classify"])
    def test_profile_of_non_decimal_tokens_exit_2(self, capsys, command, profile):
        # int() alone takes "1_1" as 11, a plus sign and full-width digits
        code, out, err = run(capsys, "qw", command, "--profile", profile)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"dmlab: malformed profile {profile!r}\n"

    def test_profile_tokens_may_have_spaces_around(self, capsys):
        assert run(capsys, "qw", "build", "--profile", " 3 , 3 ") == run(capsys, "qw", "build", "--profile", "3,3")

    def test_bad_sequence_exit_2(self, capsys):
        code, _, _ = run(capsys, "qw", "build", "--sequence", "001")
        assert code == EXIT_ERROR

    @pytest.mark.parametrize(
        "argv", [("qw", "build"), ("qw", "classify"), ("label", "construct")]
    )
    def test_non_bit_sequence_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--sequence", "01a1")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("dmlab: malformed sequence '01a1'")

    @pytest.mark.parametrize("argv,order", [
        (("--profile", "3,3000000"), 6000006),
        (("--profile", "129024"), 258048),
        (("--sequence", "0" + "1" * 129023), 258048),
    ])
    def test_build_refuses_order_above_graph6_limit_before_building(
        self, capsys, monkeypatch, argv, order
    ):
        def never(*args):
            raise AssertionError("the graph must not be built")

        monkeypatch.setattr(dmlab.qw, "build_qw", never)
        if argv[0] == "--profile":
            monkeypatch.setattr(dmlab.qw, "profile_to_sequence", never)
        code, out, err = run(capsys, "qw", "build", *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"dmlab: order {order} exceeds the graph6 limit of 258047\n"

    def test_build_invalid_part_reported_before_order(self, capsys):
        code, _, err = run(capsys, "qw", "build", "--profile", "3000000,1")
        assert code == EXIT_ERROR
        assert err == "dmlab: profile parts must be integers >= 2, got 1\n"


class TestLabel:
    def test_construct_verify_pipeline(self, capsys, tmp_path):
        code, out, _ = run(capsys, "label", "construct", "--profile", "7")
        assert code == EXIT_OK
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(out)
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_qw(profile_to_sequence((7,)))) + "\n")
        code, out, _ = run(
            capsys, "label", "verify", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "pass"

    def test_long_form_build_verify_pipeline(self, capsys, tmp_path):
        # order 74: the graph travels as long-form graph6
        profile = "11,3,5,3,7,5,3"
        code, out, _ = run(capsys, "qw", "build", "--profile", profile)
        assert code == EXIT_OK
        assert out.startswith("~")
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(out)
        code, out, _ = run(capsys, "label", "construct", "--profile", profile)
        assert code == EXIT_OK
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(out)
        code, out, _ = run(
            capsys, "label", "verify", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "pass"

    def test_construct_rejects_non_dm(self, capsys):
        code, _, err = run(capsys, "label", "construct", "--profile", "5")
        assert code == EXIT_ERROR
        assert "dmlab:" in err

    def test_verify_failure_exit_1(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        labels_file = tmp_path / "labels.json"
        bad = list(wreath_labeling(3).labels)
        bad[0], bad[1] = bad[1], bad[0]
        from dmlab.labeling import CenteredLabeling

        labels_file.write_text(labeling_to_json(CenteredLabeling(6, tuple(bad))))
        code, out, _ = run(
            capsys, "label", "verify", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_NEGATIVE
        assert json.loads(out)["verdict"] == "fail"

    def test_verify_standard_scheme_weights(self, capsys, tmp_path):
        # standard weights are r(n+1)/2 = 2(n+1) = 14 on the 4-regular W(3)
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(labeling_to_json(to_standard(wreath_labeling(3))))
        code, out, _ = run(
            capsys, "label", "verify", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_OK
        assert json.loads(out) == {
            "schema": "dmlab/1",
            "verdict": "pass",
            "bijective": True,
            "first_violation": None,
            "weights": [14] * 6,
        }

    def test_verify_standard_scheme_failure(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        std = list(to_standard(wreath_labeling(3)).labels)  # (6, 5, 4, 1, 2, 3)
        std[0], std[1] = std[1], std[0]
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(labeling_to_json(StandardLabeling(6, tuple(std))))
        code, out, _ = run(
            capsys, "label", "verify", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_NEGATIVE
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        assert doc["bijective"] is True
        assert doc["weights"] == [15, 13, 14, 15, 13, 14]
        assert doc["first_violation"] == 0

    def test_verify_standard_scheme_odd_order(self, capsys, tmp_path):
        # K5 is 4-regular of odd order; a standard labeling still gets a verdict
        graph_file = tmp_path / "k5.g6"
        graph_file.write_text("D~{\n")
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(labeling_to_json(StandardLabeling(5, (1, 2, 3, 4, 5))))
        code, out, _ = run(
            capsys, "label", "verify", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_NEGATIVE
        doc = json.loads(out)
        assert (doc["bijective"], doc["first_violation"]) == (True, 0)
        assert doc["weights"] == [14, 13, 12, 11, 10]

    def test_verify_standard_scheme_needs_regular_graph(self, capsys, tmp_path):
        graph_file = tmp_path / "p4.g6"
        graph_file.write_text(write_graph6(Graph(4, [(0, 1), (1, 2), (2, 3)])) + "\n")
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(labeling_to_json(StandardLabeling(4, (1, 2, 3, 4))))
        code, out, err = run(
            capsys, "label", "verify", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert "regular" in err

    def test_verify_infinity_label_exit_2(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(
            '{"schema": "dmlab/1", "order": 6, "scheme": "centered",'
            ' "labels": [Infinity, 3, 1, -5, -3, -1]}'
        )
        code, out, err = run(
            capsys, "label", "verify", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("dmlab:")

    @pytest.mark.parametrize("content,message", [
        (None, "No such file"),
        ("", "no graph6 line found"),
    ])
    def test_verify_unreadable_graph_exit_2(self, capsys, tmp_path, content, message):
        graph_file = tmp_path / "g.g6"
        if content is not None:
            graph_file.write_text(content)
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(labeling_to_json(wreath_labeling(3)))
        code, out, err = run(
            capsys, "label", "verify", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("dmlab:") and message in err

    def test_verify_non_utf8_graph_exit_2(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_bytes(b"\xff\xfe\n")
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(labeling_to_json(wreath_labeling(3)))
        code, out, err = run(
            capsys, "label", "verify", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith(f"dmlab: {graph_file}: 'utf-8' codec can't decode byte 0xff")

    def test_convert_roundtrip(self, capsys, tmp_path):
        lab = wreath_labeling(3)
        f = tmp_path / "c.json"
        f.write_text(labeling_to_json(lab))
        code, out, _ = run(capsys, "label", "convert", "--labels", str(f), "--to", "standard")
        assert code == EXIT_OK
        f2 = tmp_path / "s.json"
        f2.write_text(out)
        code, out, _ = run(capsys, "label", "convert", "--labels", str(f2), "--to", "centered")
        assert code == EXIT_OK
        assert labeling_from_json(out) == lab

    def test_convert_wrong_parity_to_standard_exit_2(self, capsys, tmp_path):
        # 0 and 2 have the parity of n = 4: no standard label converts back to them
        f = tmp_path / "c.json"
        f.write_text(labeling_to_json(CenteredLabeling(4, (0, 0, 2, -2))))
        code, out, err = run(capsys, "label", "convert", "--labels", str(f), "--to", "standard")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("dmlab:") and "centered label 0 at vertex 0" in err


class TestSearch:
    def test_found_emits_labeling(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        code, out, _ = run(capsys, "search", "--graph", str(graph_file))
        assert code == EXIT_OK
        lab = labeling_from_json(out)
        assert verify(build_wreath(3), lab).ok

    def test_not_found_exit_1(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_qw(profile_to_sequence((4,)))) + "\n")
        code, out, _ = run(capsys, "search", "--graph", str(graph_file))
        assert code == EXIT_NEGATIVE
        assert json.loads(out)["verdict"] == "not-found"

    def test_count_mode(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        code, out, _ = run(capsys, "search", "--graph", str(graph_file), "--count")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["count_raw"] == 2 * doc["count_folded"] > 0

    def test_odd_order_exit_2(self, capsys, tmp_path):
        # K5 is 4-regular; the centered label set names the odd order
        graph_file = tmp_path / "k5.g6"
        graph_file.write_text("D~{\n")
        code, out, err = run(capsys, "search", "--graph", str(graph_file))
        assert code == EXIT_ERROR
        assert out == ""
        assert err == "dmlab: centered label set needs even order, got 5\n"

    def test_several_graphs_in_file_exit_2(self, capsys, tmp_path):
        graph_file = tmp_path / "two.g6"
        graph_file.write_text(
            write_graph6(build_wreath(3)) + "\n\n" + write_graph6(build_wreath(4)) + "\n"
        )
        code, out, err = run(capsys, "search", "--graph", str(graph_file))
        assert code == EXIT_ERROR
        assert out == ""
        assert "2 graph6 lines" in err

    def test_blank_lines_around_one_graph_accepted(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text("\n  " + write_graph6(build_wreath(3)) + "  \n\n")
        assert run(capsys, "search", "--graph", str(graph_file))[0] == EXIT_OK

    def test_budget_exhausted_exit_2(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(6)) + "\n")
        code, out, _ = run(capsys, "search", "--graph", str(graph_file), "--budget-nodes", "0")
        assert code == EXIT_ERROR
        assert json.loads(out)["verdict"] == "budget-exhausted"

    def test_budget_nodes_is_a_ceiling(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_qw(profile_to_sequence((7,)))) + "\n")
        code, out, _ = run(
            capsys, "search", "--graph", str(graph_file), "--count", "--budget-nodes", "10"
        )
        assert code == EXIT_ERROR
        assert json.loads(out)["stats"]["nodes"] == 10

    def test_budget_secs_exhausted_exit_2(self, capsys, tmp_path):
        # no labeling of this n = 74 graph is found in 10 s, so 0.05 s expires
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_qw(profile_to_sequence((11, 3, 5, 3, 7, 5, 3)))))
        code, out, _ = run(capsys, "search", "--graph", str(graph_file), "--budget-secs", "0.05")
        assert code == EXIT_ERROR
        assert json.loads(out)["verdict"] == "budget-exhausted"

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--budget-nodes", "-1", "node budget"),
            ("--budget-secs", "nan", "time budget"),
            ("--budget-secs", "inf", "time budget"),
            ("--budget-secs", "-1", "time budget"),
        ],
    )
    def test_bad_budget_exit_2(self, capsys, tmp_path, flag, value, message):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        code, out, err = run(capsys, "search", "--graph", str(graph_file), f"{flag}={value}")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith(f"dmlab: {message} must be")


class TestFilter:
    def test_tsv_verdicts(self, capsys, tmp_path):
        k5 = parse_graph6("D~{")  # complete graph on 5 vertices
        lines = [write_graph6(build_wreath(3)), write_graph6(k5)]
        f = tmp_path / "in.g6"
        f.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "filter", "--input", str(f))
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows[0][1] == "Candidate"
        assert rows[1][1] == "RuledOut"

    def test_bad_line_prints_no_rows(self, capsys, tmp_path):
        # every line is checked before any row is printed
        w3 = write_graph6(build_wreath(3))
        f = tmp_path / "in.g6"
        f.write_text(f"{w3}\nbad!\n{w3}\n")
        code, out, err = run(capsys, "filter", "--input", str(f))
        assert code == EXIT_ERROR
        assert out == ""
        assert "line 2:" in err

    def test_irregular_line_prints_no_rows(self, capsys, tmp_path):
        path = Graph(3, [(0, 1), (1, 2)])
        f = tmp_path / "in.g6"
        f.write_text(f"{write_graph6(build_wreath(3))}\n\n{write_graph6(path)}\n")
        code, out, err = run(capsys, "filter", "--input", str(f))
        assert code == EXIT_ERROR
        assert out == ""
        assert "line 3:" in err

    def test_odd_valency_line_prints_no_rows(self, capsys, tmp_path):
        # the cubic graphs from `enumerate --order 8 --valency 3 --connected`
        assert main(["enumerate", "--order", "8", "--valency", "3", "--connected"]) == EXIT_OK
        f = tmp_path / "in.g6"
        f.write_text(capsys.readouterr().out)
        code, out, err = run(capsys, "filter", "--input", str(f))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("dmlab: line 1: valency 3 is odd")

    def test_non_utf8_stdin_exit_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "filter")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("dmlab: stdin: 'utf-8' codec can't decode byte 0xff")

    def test_all_ruled_out_still_exits_0(self, capsys, tmp_path):
        # RuledOut is a row verdict, not a negative exit code
        f = tmp_path / "in.g6"
        f.write_text("D~{\nD~{\n")
        code, out, _ = run(capsys, "filter", "--input", str(f))
        assert code == EXIT_OK
        assert [row.split("\t")[1] for row in out.strip().splitlines()] == ["RuledOut"] * 2


class TestEnumerate:
    def test_order_8_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "8", "--connected")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(parse_graph6(s).n == 8 for s in lines)

    def test_sorted_flag(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "8", "--connected", "--sorted")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines == sorted(lines)
        assert len(lines) == 6

    @pytest.mark.parametrize("argv", [("--order", "8"), ("--order", "10", "--valency", "3")])
    def test_unsorted_lines_are_the_sorted_lines(self, capsys, argv):
        # both modes print canonical forms; only the order of the lines differs
        code, unsorted_out, _ = run(capsys, "enumerate", *argv)
        assert code == EXIT_OK
        code, sorted_out, _ = run(capsys, "enumerate", *argv, "--sorted")
        assert code == EXIT_OK
        assert sorted(unsorted_out.splitlines()) == sorted_out.splitlines()

    def test_valency_8_order_10_is_fast(self, capsys):
        # its complement is 1-regular, so every class is full of twins; the
        # certificate branches once per twin class (about 10 s without that)
        start = time.perf_counter()
        code, out, _ = run(capsys, "enumerate", "--order", "10", "--valency", "8", "--sorted")
        assert time.perf_counter() - start < 5
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1

    def test_order_too_big_exit_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "--order", "14")
        assert code == EXIT_ERROR
        assert "dmlab:" in err


class TestCensus:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "census", "--orders", "6", "8")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "order\ttotal\tcandidates\tdm_confirmed"
        assert lines[1] == "6\t1\t1\t1"
        assert lines[2] == "8\t6\t1\t1"

    def test_stdout_pinned(self, capsys):
        # the census filters each class as the walk labeled it; the table must
        # be the one it printed when every class was canonicalised first
        code, out, err = run(capsys, "census", "--orders", "6", "7", "8", "9", "10")
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            "order\ttotal\tcandidates\tdm_confirmed\n"
            "6\t1\t1\t1\n"
            "7\t2\t0\t0\n"
            "8\t6\t1\t1\n"
            "9\t16\t0\t0\n"
            "10\t59\t1\t1\n"
        )

    def test_odd_valency_prints_nothing(self, capsys):
        # the first cubic graph ends the census before its table is printed
        code, out, err = run(capsys, "census", "--orders", "8", "--valency", "3")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("dmlab: valency 3 is odd")

    def test_odd_valency_ends_the_census_before_the_screen(self, capsys):
        # every pair of K4 shares r - 1 = 2 neighbours, so the near-twin screen
        # alone would skip the filter and its parity check; the census checks
        # the valency first
        code, out, err = run(capsys, "census", "--orders", "4", "--valency", "3")
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("dmlab: valency 3 is odd")


class TestExpand:
    def test_default_cycle(self, capsys, tmp_path):
        seq = profile_to_sequence((7,))
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_qw(seq)) + "\n")
        labels_file = tmp_path / "labels.json"
        from dmlab.constructive import construct_labeling

        labels_file.write_text(labeling_to_json(construct_labeling(seq)))
        code, out, _ = run(
            capsys, "expand", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        assert code == EXIT_OK
        g6_line, json_line = out.strip().splitlines()
        g2 = parse_graph6(g6_line)
        assert g2.n == 16
        assert verify(g2, labeling_from_json(json_line)).ok
        assert canonical_certificate(g2) != canonical_certificate(build_wreath(8))

    def test_explicit_cycle_validation(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(labeling_to_json(wreath_labeling(3)))
        code, _, err = run(
            capsys,
            "expand",
            "--graph", str(graph_file),
            "--labels", str(labels_file),
            "--cycle", "0,1,2",
        )
        assert code == EXIT_ERROR
        assert "four" in err

    def test_non_integer_cycle_exit_2(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(labeling_to_json(wreath_labeling(3)))
        code, out, err = run(
            capsys,
            "expand",
            "--graph", str(graph_file),
            "--labels", str(labels_file),
            "--cycle", "1,x,3,4",
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("dmlab: --cycle needs exactly four")

    @pytest.mark.parametrize("cycle", ["0,1_1,2,3", "+0,1,2,3", "0,\uff11,2,3", "0,1.0,2,3"])
    def test_cycle_of_non_decimal_tokens_exit_2(self, capsys, tmp_path, cycle):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(labeling_to_json(wreath_labeling(3)))
        code, out, err = run(
            capsys,
            "expand",
            "--graph", str(graph_file),
            "--labels", str(labels_file),
            f"--cycle={cycle}",
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("dmlab: --cycle needs exactly four")

    @pytest.mark.parametrize("cycle, edge", [("99,1,2,3", "(99,1)"), ("-1,0,1,2", "(-1,0)")])
    def test_cycle_vertex_out_of_range_exit_2(self, capsys, tmp_path, cycle, edge):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(labeling_to_json(wreath_labeling(3)))
        code, out, err = run(
            capsys,
            "expand",
            "--graph", str(graph_file),
            "--labels", str(labels_file),
            f"--cycle={cycle}",
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"dmlab: cycle edge {edge} missing from graph\n"


class TestDot:
    def test_plain_export(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_wreath(3)) + "\n")
        code, out, _ = run(capsys, "dot", "--graph", str(graph_file))
        assert code == EXIT_OK
        assert out.startswith("graph dmlab {")
        assert out.count("--") == 12

    def test_labeled_qw_rows(self, capsys, tmp_path):
        seq = profile_to_sequence((3, 3))
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_qw(seq)) + "\n")
        labels_file = tmp_path / "labels.json"
        from dmlab.constructive import construct_labeling

        labels_file.write_text(labeling_to_json(construct_labeling(seq)))
        code, out, _ = run(
            capsys,
            "dot",
            "--graph", str(graph_file),
            "--labels", str(labels_file),
            "--qw-rows",
        )
        assert code == EXIT_OK
        assert "rank" in out

    @pytest.mark.parametrize("graph_profile, label_profile", [((3, 3), (3,)), ((3,), (3, 3))])
    def test_labeling_of_another_order_exit_2(
        self, capsys, tmp_path, graph_profile, label_profile
    ):
        from dmlab.constructive import construct_labeling

        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(build_qw(profile_to_sequence(graph_profile))) + "\n")
        labels_file = tmp_path / "labels.json"
        lab = construct_labeling(profile_to_sequence(label_profile))
        labels_file.write_text(labeling_to_json(lab))
        code, out, err = run(
            capsys, "dot", "--graph", str(graph_file), "--labels", str(labels_file)
        )
        n, k = 2 * sum(graph_profile), 2 * sum(label_profile)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"dmlab: labeling order {k} != graph order {n}\n"


class TestParsing:
    def test_missing_subcommand_exit_2(self, capsys):
        assert run(capsys, "qw")[0] == EXIT_ERROR

    def test_unknown_command_exit_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_ERROR

    def test_python_dash_m(self, capsys):
        src = Path(dmlab.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "dmlab", "qw", "build", "--profile", "3"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == EXIT_OK
        _, out, _ = run(capsys, "qw", "build", "--profile", "3")
        assert proc.stdout == out

    def test_help_exit_0(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK

    def test_broken_pipe_exit_2(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["enumerate", "--order", "10"]) == EXIT_ERROR
        assert capsys.readouterr().err == ""

    def test_head_closes_the_pipe(self):
        # `dmlab enumerate --order 10 | head -1`: the reader leaves after the
        # first of 60 lines, which the unbuffered child writes as it finds them
        src = Path(dmlab.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "dmlab", "enumerate", "--order", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_ERROR
        assert first == write_graph6(next(enumerate_regular(EnumerationTask(10, connected=False)))).encode() + b"\n"
        assert err == b""


def readme_cli_examples():
    """The command lines of the sh block under README.md's "## CLI", split into
    words, comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    return [words for words in lines if words]


class TestReadme:
    def test_cli_examples_exit_0(self, capsys, monkeypatch, tmp_path):
        # the examples run in order, so later ones read the files earlier ones write
        monkeypatch.chdir(tmp_path)
        examples = readme_cli_examples()
        assert len(examples) == 13
        for words in examples:
            stages = [list(g) for pipe, g in itertools.groupby(words, lambda w: w == "|") if not pipe]
            # the last example pipes into graphviz, which need not be installed
            stages = [stage for stage in stages if stage[0] != "dot"]
            stdout = ""
            for stage in stages:
                assert stage[0] == "dmlab", words
                target = stage[-1] if stage[-2:-1] == [">"] else None
                monkeypatch.setattr(sys, "stdin", io.StringIO(stdout))
                code = main(stage[1:-2] if target else stage[1:])
                stdout = capsys.readouterr().out
                assert code == EXIT_OK, words
                if target:
                    Path(target).write_text(stdout, encoding="utf-8")
