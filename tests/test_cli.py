"""CLI subcommands: happy paths, JSON round-trips, determinism, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitnull import cli, permutations
from circuitnull.cli import main
from circuitnull.gf2 import Gf2Matrix
from circuitnull.graphs import cyclic_word_key, from_double_occurrence_words
from circuitnull.interlace import interlace_graph
from circuitnull.polynomials import MultiPoly, courcelle, q_nullity, q_two_variable

K5_WORD = "1 2 3 4 5 1 3 5 2 4"


@pytest.fixture()
def k5_dow(tmp_path):
    path = tmp_path / "k5.dow"
    path.write_text(K5_WORD + "\n")
    return str(path)


@pytest.fixture()
def dt_edges(tmp_path):
    path = tmp_path / "dt.edges"
    path.write_text("# doubled triangle\n1 2\n1 2\n2 3\n2 3\n3 1\n3 1\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nullity_text_and_json(tmp_path, capsys):
    path = tmp_path / "m.mat"
    path.write_text("labels: 2 3 4 5\n4\n1 0 1 0\n0 1 1 1\n1 1 0 0\n0 1 0 0\n")
    code, out, _ = run(capsys, "nullity", str(path))
    assert code == 0 and out == "nullity: 0\n"
    code, out, _ = run(capsys, "nullity", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"labels": ["2", "3", "4", "5"], "n": 4, "nullity": 0, "rank": 4}


def test_interlace_matrix_round_trip(k5_dow, capsys):
    code, out, _ = run(capsys, "interlace-matrix", "--dow", k5_dow)
    assert code == 0
    _, es = from_double_occurrence_words([K5_WORD])
    from circuitnull.interlace import interlace_matrix

    assert Gf2Matrix.from_text(out) == interlace_matrix(es)
    code, out_json, _ = run(capsys, "interlace-matrix", "--dow", k5_dow, "--format", "json")
    assert Gf2Matrix.from_json_dict(json.loads(out_json)) == interlace_matrix(es)


def test_partitions_fixture_output(k5_dow, capsys):
    code, out, _ = run(
        capsys, "partitions", "--dow", k5_dow, "--assign", "1:F 2:X 3:X 4:C 5:C"
    )
    assert code == 0
    lines = out.splitlines()
    circuit = lines[0].removeprefix("circuit: ").split()
    assert cyclic_word_key(circuit) == cyclic_word_key(tuple("1254231534"))
    assert "nullity: 0" in lines
    assert "predicted: 1" in lines
    assert "traced: 1" in lines

    code, out_json, _ = run(
        capsys,
        "partitions", "--dow", k5_dow, "--assign", "1:F 2:X 3:X 4:C 5:C",
        "--format", "json",
    )
    data = json.loads(out_json)
    assert data["nullity"] == 0 and data["predicted"] == 1 and data["traced"] == 1
    assert data["matrix"]["rows"] == [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0], [0, 1, 0, 0]]


def test_verify_cle_edges(dt_edges, capsys):
    code, out, _ = run(capsys, "verify-cle", "--edges", dt_edges)
    assert code == 0 and out == "27/27 assignments verified\n"
    code, out_json, _ = run(capsys, "verify-cle", "--edges", dt_edges, "--format", "json")
    assert json.loads(out_json) == {"checked": 27, "failures": []}


def test_verify_cle_dow_and_cap(k5_dow, capsys):
    code, out, _ = run(capsys, "verify-cle", "--dow", k5_dow)
    assert code == 0 and out == "243/243 assignments verified\n"
    code, _, err = run(capsys, "verify-cle", "--dow", k5_dow, "--cap", "3")
    assert code == 1 and "243" in err


def test_poly_cap_refusal_uses_library_message(k5_dow, capsys):
    refused = {
        "qn": "2^5 = 32 subsets",
        "q2": "2^5 = 32 subsets",
        "courcelle": "3^5 = 243 subset pairs",
    }
    for command, states in refused.items():
        code, out, err = run(capsys, command, "--dow", k5_dow, "--cap", "4")
        assert code == 1 and out == ""
        assert err == (
            f"error: refusing to sweep {states} "
            "(cap is 4 vertices; pass a larger cap to force it)\n"
        )


def test_default_caps_refuse_without_cap_flag(tmp_path, capsys):
    refused = [
        (15, "qn", "2^15 = 32768 subsets", 14),
        (15, "q2", "2^15 = 32768 subsets", 14),
        (15, "verify-cle", "3^15 = 14348907 assignments", 14),
        (10, "courcelle", "3^10 = 59049 subset pairs", 9),
    ]
    for n, command, states, cap in refused:
        labels = " ".join(str(i) for i in range(1, n + 1))
        path = tmp_path / f"chain{n}.dow"
        path.write_text(f"{labels} {labels}\n")
        code, out, err = run(capsys, command, "--dow", str(path))
        assert code == 1 and out == ""
        assert err == (
            f"error: refusing to sweep {states} "
            f"(cap is {cap} vertices; pass a larger cap to force it)\n"
        )


def test_poly_commands_refuse_a_long_word_before_building_its_graph(
    tmp_path, capsys, monkeypatch
):
    # 2,000 vertices: the interlace graph alone took seconds to build before the cap check.
    monkeypatch.setattr(cli, "interlace_graph", mock.Mock(side_effect=AssertionError("built")))
    labels = [str(i) for i in range(1, 2001)]
    path = tmp_path / "long.dow"
    path.write_text(" ".join(labels + labels[::-1]) + "\n")
    graph = tmp_path / "long.graph"
    edges = "".join(f"{i} {i + 1}\n" for i in range(1, 2000))
    graph.write_text(f"vertices: {' '.join(labels)}\n{edges}")
    refused = {"qn": "2^2000 = ", "q2": "2^2000 = ", "courcelle": "3^2000 = "}
    for command, states in refused.items():
        for source in (["--dow", str(path)], ["--graph", str(graph)]):
            start = time.perf_counter()
            code, out, err = run(capsys, command, *source)
            assert time.perf_counter() - start < 0.5
            assert code == 1 and out == "" and err.startswith(f"error: refusing to sweep {states}")
            assert err.endswith(" vertices; pass a larger cap to force it)\n")


def test_refusal_of_a_count_too_long_to_print_is_an_input_error(tmp_path, capsys):
    # 3^10000 has 4,772 digits, more than Python (3.11 on) converts to text by default.
    labels = [str(i) for i in range(1, 10001)]
    path = tmp_path / "long.dow"
    path.write_text(" ".join(labels + labels[::-1]) + "\n")
    for command in ("verify-cle", "courcelle"):
        code, out, err = run(capsys, command, "--dow", str(path))
        assert code == 1 and out == "" and err.startswith("error: refusing to sweep 3^10000 ")
        assert err.endswith(" vertices; pass a larger cap to force it)\n")


def test_qn_matches_library(k5_dow, capsys):
    code, out, _ = run(capsys, "qn", "--dow", k5_dow, "--loops", "2,3")
    assert code == 0
    _, es = from_double_occurrence_words([K5_WORD])
    assert out.strip() == q_nullity(interlace_graph(es, {"2", "3"})).to_text()
    code, out_json, _ = run(
        capsys, "qn", "--dow", k5_dow, "--loops", "2,3", "--format", "json"
    )
    assert MultiPoly.from_json_dict(json.loads(out_json)) == q_nullity(
        interlace_graph(es, {"2", "3"})
    )


def test_q2_and_courcelle_from_graph_file(tmp_path, capsys):
    path = tmp_path / "h.graph"
    path.write_text("vertices: a b\nloops: b\na b\n")
    from circuitnull.interlace import parse_looped_graph_text

    h = parse_looped_graph_text(path.read_text())
    code, out, _ = run(capsys, "q2", "--graph", str(path))
    assert code == 0 and out.strip() == q_two_variable(h).to_text()
    code, out, _ = run(capsys, "courcelle", "--graph", str(path), "--format", "json")
    assert code == 0
    assert MultiPoly.from_json_dict(json.loads(out)) == courcelle(h)


def test_orbits_all_routes(capsys):
    code, out, _ = run(capsys, "orbits", "--perm", "(1 3 2)(4 5)")
    assert code == 0 and out == "orbits: 2\n"
    code, out, _ = run(capsys, "orbits", "--perm", "4 3 2 1", "--via", "nullity")
    assert code == 0 and out == "orbits: 2\n"
    code, out, _ = run(capsys, "orbits", "--perm", "(1 3 2)(4 5)", "--via", "reduction")
    assert code == 0
    assert out.splitlines()[0] == "orbits: 2"
    code, out, _ = run(
        capsys, "orbits", "--perm", "2 1 4 3", "--via", "nullity", "--format", "json"
    )
    data = json.loads(out)
    assert data["orbits"] == 2 and data["oracle"] == 2
    assert data["transpositions"] == [[1, 3]] or data["transpositions"]


def test_orbits_matrix_routes_share_one_cap(capsys):
    m = permutations.DEFAULT_ORBIT_CAP + 1
    full_cycle = " ".join(map(str, [*range(2, m + 1), 1]))  # sigma itself: no transpositions
    for via in ("nullity", "reduction"):
        code, out, err = run(capsys, "orbits", "--perm", full_cycle, "--via", via)
        assert code == 1 and out == ""
        assert err == f"error: permutation size {m} exceeds the orbit cap {m - 1}\n"
    code, out, _ = run(capsys, "orbits", "--perm", full_cycle)
    assert code == 0 and out == "orbits: 1\n"


def test_orbits_nullity_rejects_inexpressible(capsys):
    code, _, err = run(capsys, "orbits", "--perm", "1 2 3", "--via", "nullity")
    assert code == 1 and "reduction" in err


def test_malformed_inputs_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.dow"
    bad.write_text("1 2 1\n")
    code, _, err = run(capsys, "verify-cle", "--dow", str(bad))
    assert code == 1 and "label 2" in err
    missing = tmp_path / "nope.dow"
    code, _, err = run(capsys, "qn", "--dow", str(missing))
    assert code == 1
    badmat = tmp_path / "bad.mat"
    badmat.write_text("2\n0 1\n0 2\n")
    code, _, err = run(capsys, "nullity", str(badmat))
    assert code == 1 and "line 3" in err
    code, _, err = run(capsys, "verify-cle")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "qn")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "nonsense")
    assert code == 1


def test_dow_label_errors_name_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.dow"
    bad.write_text("1 2 1\n")
    code, out, err = run(capsys, "qn", "--dow", str(bad))
    assert code == 1 and out == ""
    assert err == "error: line 1: label 2 appears 1 times, expected exactly 2\n"
    bad.write_text("1 2 1 2\n\n3 2 3\n")
    code, out, err = run(capsys, "verify-cle", "--dow", str(bad))
    assert code == 1 and out == ""
    assert err == "error: line 3: label 2 appears in more than one word\n"


def test_loops_only_with_dow(tmp_path, capsys):
    path = tmp_path / "h.graph"
    path.write_text("vertices: a\n")
    code, _, err = run(capsys, "qn", "--graph", str(path), "--loops", "a")
    assert code == 1 and "--loops" in err


def test_byte_identical_reruns(k5_dow, capsys):
    _, first, _ = run(capsys, "qn", "--dow", k5_dow, "--format", "json")
    _, second, _ = run(capsys, "qn", "--dow", k5_dow, "--format", "json")
    assert first == second
    _, t1, _ = run(capsys, "partitions", "--dow", k5_dow, "--assign", "1:F 2:X 3:X 4:C 5:C")
    _, t2, _ = run(capsys, "partitions", "--dow", k5_dow, "--assign", "1:F 2:X 3:X 4:C 5:C")
    assert t1 == t2


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["nullity", "latin1.mat"], NOT_UTF8),
        (["qn", "--dow", "latin1.mat"], NOT_UTF8),
        (["nullity", "dup.mat"], "line 1: duplicate labels"),
        (["qn", "--dow", "k5.dow", "--loops", "9"], "unknown vertex '9'"),
        (["verify-cle", "--edges", "path.edges"], "not 4-regular: vertex 1 has degree 2"),
        (["partitions", "--dow", "k5.dow", "--assign", "1F 2:C"],
         "bad assignment token '1F' (expected label:F|C|X)"),
        (["partitions", "--dow", "k5.dow", "--assign", "9:F"],
         "assignment names unknown vertex '9'"),
        (["partitions", "--dow", "k5.dow", "--assign", "1:F 1:C"], "assignment repeats vertex 1"),
        (["partitions", "--dow", "k5.dow", "--assign", "1:Q"],
         "bad transition letter 'Q' for vertex 1"),
        (["partitions", "--dow", "k5.dow", "--assign", "1:F 2:C"],
         "assignment is missing vertex 3"),
    ],
)
def test_input_errors_are_typed_where_input_is_parsed(argv, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.mat").write_bytes(b"\xff\xfe1\n")
    (tmp_path / "dup.mat").write_text("labels: a a\n2\n0 1\n1 0\n")
    (tmp_path / "k5.dow").write_text(K5_WORD + "\n")
    (tmp_path / "path.edges").write_text("1 2\n1 2\n2 3\n")
    code, out, stderr = run(capsys, *argv)
    assert (code, out, stderr) == (1, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["qn", "--dow", "k5.dow", "--loops", "7,8,9"], "error: unknown vertex '7'\n"),
        (["qn", "--graph", "h.graph"], "error: line 2: loop on unknown vertex '7'\n"),
    ],
    ids=["dow-loops", "graph-file"],
)
def test_several_unknown_loop_vertices_name_the_first_under_any_hash_seed(argv, err, tmp_path):
    (tmp_path / "k5.dow").write_text(K5_WORD + "\n")
    (tmp_path / "h.graph").write_text("vertices: 1 2\nloops: 7 8 9\n1 2\n")
    src = str(Path(cli.__file__).parents[1])
    script = "import sys; from circuitnull.cli import main; sys.exit(main(sys.argv[1:]))"
    for seed in ("0", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=False,
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "", err)


def test_a_library_value_error_is_an_internal_error(k5_dow, monkeypatch, capsys):
    def broken(es):
        raise ValueError("broken invariant")

    monkeypatch.setattr(cli, "interlace_matrix", broken)
    code, out, err = run(capsys, "interlace-matrix", "--dow", k5_dow)
    assert (code, out, err) == (3, "", "error: broken invariant\n")


@pytest.mark.parametrize("message", ["", "cannot allocate the sweep"])
def test_running_out_of_memory_exits_1_with_one_error_line(message, k5_dow, monkeypatch, capsys):
    # A sweep under a raised cap may need more memory than the machine has. Python's own
    # MemoryError carries no message, so the line names the cause.
    def exhausted(h, cap):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "q_nullity", exhausted)
    code, out, err = run(capsys, "qn", "--dow", k5_dow, "--cap", "30")
    assert (code, out, err) == (1, "", f"error: {message or 'out of memory'}\n")


def test_recursing_past_the_limit_exits_1_with_one_error_line(k5_dow, monkeypatch, capsys):
    # A sweep whose cap is raised to about 980 vertices nests past Python's recursion limit:
    # like running out of memory, that is the cost of the raised cap, not an internal fault.
    def too_deep(h, cap):
        raise RecursionError("maximum recursion depth exceeded in comparison")

    monkeypatch.setattr(cli, "courcelle", too_deep)
    code, out, err = run(capsys, "courcelle", "--dow", k5_dow, "--cap", "2000")
    assert (code, out, err) == (1, "", "error: maximum recursion depth exceeded in comparison\n")


def test_orbits_refuses_a_permutation_above_the_size_limit(capsys):
    # The refusal comes before the image is built: that alone would take 8 MB for its list.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "orbits", "--perm", "(1 1000001)")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    refused = "error: permutation of 1000001 elements is above the limit of 1000000\n"
    assert (code, out, err) == (1, "", refused)
    assert peak < 1_000_000


@pytest.mark.parametrize("fmt, unused", [("json", "to_text"), ("text", "to_json_dict")])
def test_only_the_selected_form_is_rendered(fmt, unused, k5_dow, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.{unused} called with --format {fmt}")

    monkeypatch.setattr(MultiPoly, unused, refuse)
    monkeypatch.setattr(Gf2Matrix, unused, refuse)
    for argv in (
        ["qn", "--dow", k5_dow],
        ["q2", "--dow", k5_dow],
        ["courcelle", "--dow", k5_dow],
        ["interlace-matrix", "--dow", k5_dow],
        ["partitions", "--dow", k5_dow, "--assign", "1:F 2:X 3:X 4:C 5:C"],
    ):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            json.loads(out)


# Each route reads the fuzzed text as its input file (FILE) or as one argument (TEXT).
FUZZ_ROUTES = [
    ["nullity", "FILE"],
    ["interlace-matrix", "--dow", "FILE"],
    *([command, "--dow", "FILE"] for command in ("qn", "q2", "courcelle")),
    *([command, "--graph", "FILE"] for command in ("qn", "q2", "courcelle")),
    ["qn", "--dow", "K5", "--loops", "TEXT"],
    ["partitions", "--dow", "FILE", "--assign", "1:F 2:C"],
    ["partitions", "--dow", "K5", "--assign", "TEXT"],
    ["verify-cle", "--dow", "FILE"],
    ["verify-cle", "--edges", "FILE"],
    *(["orbits", "--perm", "TEXT", "--via", via] for via in ("oracle", "nullity", "reduction")),
]
FUZZ_TEXT = st.text(st.sampled_from("0123ab :,()#-FCX\n"), max_size=24) | st.text(max_size=8)


@settings(max_examples=300)
@given(st.sampled_from(FUZZ_ROUTES), st.sampled_from(["text", "json"]), FUZZ_TEXT)
def test_fuzzed_input_exits_0_or_1_with_one_error_line(route, fmt, text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "fuzz.txt").write_text(text)
        Path(tmp, "k5.dow").write_text(K5_WORD + "\n")
        names = {"FILE": str(Path(tmp, "fuzz.txt")), "TEXT": text, "K5": str(Path(tmp, "k5.dow"))}
        argv = [names.get(arg, arg) for arg in route] + ["--format", fmt]
        # A small size limit keeps each run small; the real limit has its own test.
        with mock.patch.object(permutations, "MAX_ELEMENTS", 1000):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        if fmt == "json":
            json.loads(out.getvalue())
    else:
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().endswith("\n")
        assert err.getvalue().count("\n") == 1
