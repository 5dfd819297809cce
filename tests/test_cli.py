import dataclasses
import hashlib
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrg import (BinMatrix, duval_feasible, enumerate_feasible, read_adj,
                  write_adj)
from dsrg.adjio import AdjFormatError, format_adj, parse_adj
from dsrg.cli import (FEASIBLE_MAX_N, build_catalog, build_parser,
                      format_catalog, main, read_catalog)
from known_graphs import FIXTURE_8


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "dsrg", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_adj_round_trip(tmp_path):
    path = tmp_path / "g.adj"
    write_adj(FIXTURE_8, path)
    assert read_adj(path) == FIXTURE_8
    assert path.read_bytes() == format_adj(FIXTURE_8).encode()


def test_adj_format_rejections():
    with pytest.raises(AdjFormatError) as info:
        parse_adj(b"2\n01\n11\n")  # 1 on the diagonal
    assert info.value.line == 3
    with pytest.raises(AdjFormatError):
        parse_adj(b"2\n01\n1\n")  # short row
    with pytest.raises(AdjFormatError):
        parse_adj(b"2\n01\n10")  # missing final newline
    with pytest.raises(AdjFormatError):
        parse_adj(b"2\n01 \n10\n")  # trailing whitespace
    with pytest.raises(AdjFormatError):
        parse_adj(b"x\n")
    with pytest.raises(AdjFormatError):
        parse_adj(b"2\r\n01\r\n10\r\n")  # CR line endings


@pytest.mark.parametrize("data, line, message", [
    (b"2\n01\n11\n", 3, "diagonal characters must be '0'"),
    (b"2\n10\n00\n", 2, "diagonal characters must be '0'"),
    (b"2\n01\n1\n", 3, "row has 1 characters, expected 2"),
    (b"2\n01 \n10\n", 2, "row has 3 characters, expected 2"),
    (b"2\n01\n10", 3, "file must end with a line feed"),
    (b"", 1, "file must end with a line feed"),
    (b"x\n", 1, "order is not a decimal integer: b'x'"),
    (b"2\r\n01\r\n10\r\n", 1, "order is not a decimal integer: b'2\\r'"),
    (b"0\n", 1, "order must be positive, got 0"),
    (b"3\n010\n001\n100\n000\n", 6, "expected 3 adjacency rows, found 4"),
    (b"3\n012\n000\n000\n", 2, "rows may contain only '0' and '1'"),
    (b"2\n00\n0x\n", 3, "rows may contain only '0' and '1'"),
    (b"2\n0\xff\n00\n", 2, "rows may contain only '0' and '1'"),
    (b"2\n1x\n00\n", 2, "rows may contain only '0' and '1'"),
])
def test_adj_format_error_lines_and_messages(data, line, message):
    with pytest.raises(AdjFormatError) as info:
        parse_adj(data)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


@st.composite
def loopless_matrices(draw):
    n = draw(st.integers(1, 24))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return BinMatrix(n, tuple(r & ~(1 << i) for i, r in enumerate(rows)))


@settings(max_examples=150, deadline=None)
@given(loopless_matrices())
def test_adj_parse_format_round_trip(m):
    assert parse_adj(format_adj(m).encode()) == m


def test_construct_cycle_sum(tmp_path):
    out = tmp_path / "g.adj"
    code, stdout, _ = run_cli("construct", "lem7", "--s", "2", "-o", str(out))
    assert code == 0
    assert stdout.strip() == "12 5 3 2 2"
    assert read_adj(out).n == 12


def test_construct_paired_rows(tmp_path):
    out = tmp_path / "g.adj"
    code, stdout, _ = run_cli("construct", "duval-b", "--tournament",
                              "circulant:5:1,2", "-o", str(out))
    assert code == 0
    assert stdout.strip() == "10 4 2 1 2"


# stdout and the sha256 of the -o file, one call per method (three for qr:
# its first triple at q = 13, an explicit one, and its first triple at 17)
CONSTRUCT_PINS = [
    (["duval-b", "--tournament", "circulant:5:1,2"], "10 4 2 1 2",
     "91d41a9b987136f4a7935900a4cf000780e559843c02f3c3b0c2f7514bae2093"),
    (["duval-c", "--tournament", "standard:7"], "14 6 3 2 3",
     "59a4901de738750316f244ff28b54c159d4e36e684d6ee49420bbc90ce6ed914"),
    (["m", "--tournament", "paley:7"], "14 7 4 3 4",
     "d48f13f44481370addf66876c9d87412a531be8daadb404e2a0a941b1c9638c4"),
    (["wide", "--tournament", "standard:5", "--w", "2"], "20 8 4 2 4",
     "1e7ea86379bfe3fc6741813274dbeb234782aac8f8c5979de0ce55dfecb22966"),
    (["tall", "--tournament", "circulant:7:1,2,4", "--w", "2"], "28 12 6 4 6",
     "abe25285cdd1a2083d58bcee740418720bb4b5f976eb95e7064ecc1902152c69"),
    (["lem5", "--tournament", "paley:7"], "32 15 8 7 7",
     "76540a4fc99c5a9c0fbb6fb55c688802935f6dc63a8074ab0f1b4024c789411e"),
    (["lem6", "--tournament", "standard:5"], "24 11 6 5 5",
     "761c235d99f8a3d48805b9dd70308290370e575f86b6e53da96a7fca7d5b19c7"),
    (["lem7", "--s", "3"], "16 7 4 3 3",
     "91aafa6674e1de541f379abebc080deec2aceb431b821aa246a9e4f998617f8a"),
    (["qr", "--q", "13"], "26 12 6 5 6",
     "2e2d844cd9970a7a58c0ea79a33624d696fc2dcea740cb3bb2309cc744d984f9"),
    (["qr", "--q", "5", "--sigma1", "2", "--sigma2", "3", "--s-set", "1,4"],
     "10 4 2 1 2",
     "d9e4d8d90200f6602ddef4d5126c0dbe022cd5a68ea17cdc93e8eb8a09893735"),
    (["qr", "--q", "17"], "34 16 8 7 8",
     "b4c8b33783fc83a6c558c01a3caf8acebc3bce5de25293597c53aad7e784d71a"),
    (["pq", "--tournament", "standard:7", "--perm", "0,6,5,4,3,2,1"],
     "14 6 3 2 3",
     "227205d85faf4c9dd86c6b8e260f37f685fc7543c138a10750820fc55578e58c"),
    (["kron", "--input", "{base}", "--m", "3", "--side", "left"],
     "30 12 6 3 6",
     "5d9f1df89e04b6ab1bc078606ff09ae29fa7bfb6714686db144640634170f52c"),
    (["cayley", "--group", "symmetric:3", "--conn", "2,3"], "6 2 1 0 1",
     "87f3377b0709fdd4188e877f70e9858413d00ebc3aedd98d3bcca48adf918d3b"),
    (["hobart-shaw", "--lam", "3", "--parity", "odd"], "14 7 4 3 4",
     "103b67343395099be178a61017b52ecc39282437cf1a3bc9fd80d9402630e813"),
]


@pytest.mark.parametrize("argv, stdout, digest", CONSTRUCT_PINS,
                         ids=[" ".join(p[0][:2]) for p in CONSTRUCT_PINS])
def test_construct_golden(argv, stdout, digest, tmp_path, capsys):
    from dsrg import circulant_tournament, duval_b
    base = tmp_path / "base.adj"
    write_adj(duval_b(circulant_tournament(5, {1, 2})).adj, base)
    out = tmp_path / "g.adj"
    argv = [a.format(base=base) for a in argv]
    assert main(["construct", *argv, "-o", str(out)]) == 0
    assert capsys.readouterr().out == stdout + "\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("method, needs", [
    ("duval-b", "--tournament"), ("duval-c", "--tournament"),
    ("m", "--tournament"), ("wide", "--tournament and --w"),
    ("tall", "--tournament and --w"), ("lem5", "--tournament"),
    ("lem6", "--tournament"), ("lem7", "--s"), ("qr", "--q"),
    ("pq", "--tournament"), ("kron", "--input and --m"),
    ("cayley", "--group and --conn"), ("hobart-shaw", "--lam and --parity"),
])
def test_construct_missing_inputs_are_input_errors(method, needs, capsys):
    assert main(["construct", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {method} needs {needs}\n"


@pytest.mark.parametrize("desc", ["standard:-3", "circulant:-3:1",
                                  "circulant:0:1"])
def test_construct_non_positive_order_is_input_error(desc):
    code, stdout, stderr = run_cli("construct", "duval-b",
                                   "--tournament", desc)
    assert code == 2 and stdout == ""
    assert "positive odd order" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("extra", [
    ["--sigma1", "5"], ["--sigma1", "5", "--sigma2", "8"], ["--s-set", "1,4"],
])
def test_construct_qr_partial_triple_is_input_error(extra, capsys):
    assert main(["construct", "qr", "--q", "13", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sigma1, --sigma2 and --s-set" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["qr", "--q", "5", "--sigma1", "2", "--sigma2", "3", "--s-set", "a,b"],
     "input error: bad --s-set residues 'a,b'\n"),
    (["cayley", "--group", "cyclic:3", "--conn", "a"],
     "input error: bad connection set 'a'\n"),
])
def test_construct_unparsable_integer_sets_are_input_errors(argv, message,
                                                            capsys):
    assert main(["construct", *argv]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv", [
    ["lem7", "--s", "-1"],
    ["wide", "--tournament", "standard:5", "--w", "0"],
    ["qr", "--q", "-5"],
    ["hobart-shaw", "--lam", "0", "--parity", "odd"],
    ["cayley", "--group", "cyclic:5", "--conn", "7"],
])
def test_construct_number_outside_domain_is_input_error(argv):
    code, stdout, stderr = run_cli("construct", *argv)
    assert code == 2 and stdout == ""
    assert stderr.startswith("input error: ") and "Traceback" not in stderr


@pytest.mark.parametrize("perm, message", [
    ("0,1,2", "3 images for order 5"),
    ("0,0,1,2,3", "not a permutation of 0..4: (0, 0, 1, 2, 3)"),
])
def test_construct_pq_bad_permutation_is_input_error(perm, message, capsys):
    assert main(["construct", "pq", "--tournament", "standard:5",
                 "--perm", perm]) == 2
    assert capsys.readouterr() == (
        "", f"input error: bad permutation {perm!r}: {message}\n")


@pytest.mark.parametrize("perm, code, captured", [
    ("reversal", 0, ("10 4 2 1 2\n", "")),
    ("identity", 1,
     ("", "error: PQ is not symmetric: entries (0, 1) differ\n")),
])
def test_construct_pq_named_permutations(perm, code, captured, capsys):
    assert main(["construct", "pq", "--tournament", "standard:5",
                 "--perm", perm]) == code
    assert capsys.readouterr() == captured


@pytest.mark.parametrize("group, message", [
    ("dihedral:2", "bad group descriptor 'dihedral:2': dihedral groups here "
                   "need n >= 3, got 2"),
    ("bogus:3", "unknown group descriptor kind 'bogus' "
                "(use cyclic/dihedral/symmetric)"),
    ("cyclic:x", "bad group descriptor 'cyclic:x': invalid literal for int() "
                 "with base 10: 'x'"),
])
def test_construct_bad_group_descriptor_is_input_error(group, message, capsys):
    assert main(["construct", "cayley", "--group", group, "--conn", "1"]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_construct_qr_bad_s_set_is_semantic_error():
    code, stdout, stderr = run_cli("construct", "qr", "--q", "5", "--sigma1",
                                   "2", "--sigma2", "3", "--s-set", "1,2")
    assert code == 1 and stdout == ""
    assert "difference-partition" in stderr and "Traceback" not in stderr


def test_construct_lem5_rejects_non_doubly_regular():
    code, stdout, stderr = run_cli("construct", "lem5", "--tournament",
                                   "circulant:5:1,2")
    assert (code, stdout) == (1, "")
    assert stderr == "error: order-5 tournament is not doubly regular\n"


def test_construct_kron_rejects_t_not_mu(tmp_path):
    fixture = tmp_path / "f.adj"
    write_adj(FIXTURE_8, fixture)
    code, _, stderr = run_cli("construct", "kron", "--input", str(fixture),
                              "--m", "2", "--side", "left")
    assert code == 1
    assert "iff t = mu" in stderr


def test_verify_fixture(tmp_path):
    path = tmp_path / "f.adj"
    write_adj(FIXTURE_8, path)
    code, stdout, _ = run_cli("verify", str(path))
    assert code == 0
    assert stdout.strip() == "8 3 2 1 1 genuine"


def test_verify_diagonal_one_is_input_error(tmp_path):
    path = tmp_path / "bad.adj"
    path.write_bytes(b"2\n01\n11\n")
    code, _, stderr = run_cli("verify", str(path))
    assert code == 2
    assert "line 3" in stderr


def test_verify_non_dsrg_reports_witness(tmp_path):
    # a tournament that is not strongly regular
    from dsrg import cycle_power
    path = tmp_path / "c4.adj"
    write_adj(cycle_power(4, 1), path)
    code, stdout, _ = run_cli("verify", str(path))
    assert code == 1
    assert "not a DSRG" in stdout


def test_feasible_output():
    code, stdout, _ = run_cli("feasible", "8")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert "6 2 1 0 1" in lines
    assert "6 3 2 1 2" in lines
    assert "8 3 2 1 1" in lines


def test_feasible_prints_as_it_scans(capsys):
    # each tuple is printed before the scan goes on to the next one
    first = enumerate_feasible(6)[0]

    def scan(max_n):
        yield first
        raise RuntimeError("scan interrupted")
    with mock.patch("dsrg.cli.iter_feasible", scan), \
            pytest.raises(RuntimeError):
        main(["feasible", "6"])
    assert capsys.readouterr().out == f"{first}\n"


def test_feasible_empty():
    code, stdout, _ = run_cli("feasible", "2")
    assert code == 0 and stdout.strip() == ""


def test_feasible_cap():
    code, _, stderr = run_cli("feasible", "20000")
    assert code == 2 and "cap" in stderr


def test_feasible_just_above_cap_refused():
    # refused before any scanning, so this does not run the cap itself
    code, stdout, stderr = run_cli("feasible", str(FEASIBLE_MAX_N + 1))
    assert code == 2 and "cap" in stderr and stdout == ""


@pytest.mark.parametrize("args", [("feasible", "-3"), ("catalog", "-1")])
def test_negative_max_n_refused(args):
    code, stdout, stderr = run_cli(*args)
    assert (code, stdout) == (2, "")
    assert stderr == f"input error: max_n must be non-negative, got {args[1]}\n"


@pytest.mark.parametrize("args, header", [(("feasible", "0"), ""),
                                          (("catalog", "0"),
                                           "n k t lambda mu classes\n")])
def test_zero_max_n_is_the_empty_answer(args, header):
    code, stdout, _ = run_cli(*args)
    assert (code, stdout) == (0, header)


def test_feasible_200_golden_digest():
    # pins every tuple of the feasibility table up to 200 and its order
    code, stdout, _ = run_cli("feasible", "200")
    assert code == 0
    assert len(stdout.splitlines()) == 8525
    assert hashlib.sha256(stdout.encode()).hexdigest() == \
        "5e02950ccbe88b71f15a025dadae62869844652794c2a7ff5916a7fa770e93a5"


@pytest.mark.parametrize("max_n, lines, digest", [
    (300, 19093,
     "e93e075bf5342f064c54073c3bd9b15d2a15f1be929313368d4ce6ae5a3ea998"),
    (500, 50895,
     "82c5655b79406560ce9eb3278da782437803fb06200320b56526846c2509e984")])
def test_feasible_golden_digests(max_n, lines, digest):
    # pins every tuple of the feasibility tables up to 300 and 500
    code, stdout, _ = run_cli("feasible", str(max_n))
    assert code == 0
    assert len(stdout.splitlines()) == lines
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("args", [("feasible", "60"), ("catalog", "20"),
                                  ("verify", "c4.adj")])
def test_output_unchanged_under_python_O(args, tmp_path):
    # every check is real code, so stripping asserts changes no output; the
    # 4-cycle is regular, so verify refuses it (exit 1) in its A^2 check
    from dsrg import cycle_power
    write_adj(cycle_power(4, 1), tmp_path / "c4.adj")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    procs = [subprocess.run([sys.executable, *flags, "-m", "dsrg", *args],
                            capture_output=True, env=env, cwd=tmp_path)
             for flags in ([], ["-O"])]
    code = 1 if args[0] == "verify" else 0
    assert [p.returncode for p in procs] == [code, code]
    assert procs[0].stdout and procs[0].stdout == procs[1].stdout


def test_classify_groups_files(tmp_path):
    from dsrg import circulant_tournament
    from dsrg import constructions as cons
    l6 = cons.bordered_team_dsrg(
        __import__("dsrg").Tournament(BinMatrix.zeros(1))).adj
    l7 = cons.cycle_sum_dsrg(1).adj
    l5_16 = cons.team_dsrg(circulant_tournament(3, {1})).adj
    l7_16 = cons.cycle_sum_dsrg(3).adj
    paths = []
    for i, m in enumerate((l6, l7, l5_16, l7_16)):
        p = tmp_path / f"g{i}.adj"
        write_adj(m, p)
        paths.append(str(p))
    code, stdout, _ = run_cli("classify", *paths)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 3  # order-8 pair together, two order-16 classes
    joined = [set(line.split(": ")[1].split()) for line in lines]
    assert {paths[0], paths[1]} in joined


def test_classify_golden(tmp_path, monkeypatch, capsys):
    # pins the classes, their order, member order and certificate hashes
    from dsrg import (PermSpec, Tournament, circulant_tournament,
                      conjugate_by_perm, paley_tournament)
    from dsrg import constructions as cons
    l7 = cons.cycle_sum_dsrg(1).adj
    p7 = paley_tournament(7).adj
    graphs = {
        "a.adj": l7,
        "b.adj": cons.bordered_team_dsrg(
            Tournament(BinMatrix.zeros(1))).adj,
        "c.adj": conjugate_by_perm(l7, PermSpec((3, 0, 7, 1, 6, 2, 5, 4))),
        "d.adj": cons.team_dsrg(circulant_tournament(3, {1})).adj,
        "e.adj": cons.cycle_sum_dsrg(3).adj,
        "f.adj": p7,
        "g.adj": conjugate_by_perm(p7, PermSpec.reversal(7)),
    }
    monkeypatch.chdir(tmp_path)
    for name, m in graphs.items():
        write_adj(m, name)
    assert main(["classify", "e.adj", "g.adj", "a.adj", "d.adj", "b.adj",
                 "f.adj", "c.adj"]) == 0
    assert capsys.readouterr().out == (
        "ce51d270ba2aaf65: g.adj f.adj\n"
        "9570bfca476b8c58: a.adj b.adj c.adj\n"
        "966f14340c566157: d.adj\n"
        "bcdbc562cb9dc212: e.adj\n")


def test_classify_duplicate_file(tmp_path):
    p = tmp_path / "g.adj"
    write_adj(FIXTURE_8, p)
    code, stdout, _ = run_cli("classify", str(p), str(p))
    assert code == 0
    assert len(stdout.strip().splitlines()) == 1


def test_tournaments_dump():
    code, stdout, _ = run_cli("tournaments", "--n", "5")
    assert code == 0
    assert stdout.startswith("order=5 classes=1")


def test_tournaments_output_file_holds_the_dump(tmp_path, capsys):
    # with -o the header stays on stdout and the classes go to the file
    out = tmp_path / "t7.txt"
    assert main(["tournaments", "--n", "7", "-o", str(out)]) == 0
    header = capsys.readouterr().out
    assert header == "order=7 classes=3\n"
    assert main(["tournaments", "--n", "7"]) == 0
    assert capsys.readouterr().out == header + out.read_text(encoding="ascii")


def test_cayley_scan_cli():
    code, stdout, _ = run_cli("cayley-scan", "--group", "cyclic:8")
    assert code == 0 and stdout.strip() == ""
    code, stdout, _ = run_cli("cayley-scan", "--group", "symmetric:3",
                              "--max-results", "1")
    assert code == 0 and len(stdout.strip().splitlines()) == 1
    for limit in ("0", "-2"):
        code, stdout, stderr = run_cli("cayley-scan", "--group", "symmetric:3",
                                       "--max-results", limit)
        assert (code, stdout) == (2, "")
        assert stderr == f"input error: max_results must be >= 1, got {limit}\n"


def test_qr_search_cli():
    outputs = {}
    for q in ("5", "13", "17"):
        code, outputs[q], _ = run_cli("qr-search", "--q", q)
        assert code == 0
    assert "2 3 1,4" in outputs["5"]
    assert {q: hashlib.sha256(out.encode()).hexdigest()
            for q, out in outputs.items()} == {
        "5": "f01f8068be4c3b8a4c879dcb0bc5f10000e2bb2b5a60b47020f949cfaf3c445c",
        "13": "07d613d2b5eb86562a5290b2889b5b576c11373e8879d0d3c4f6dfedaeb0cdc4",
        "17": "6afde04508a31786fd919ba577f38af71d76057748d413708ec8713300ac4b51",
    }


def test_qr_at_29_finishes():
    # every non-residue sigma1 against the residues and the non-residues
    proc = subprocess.run([sys.executable, "-m", "dsrg", "qr-search",
                           "--q", "29"], capture_output=True, text=True,
                          timeout=20)
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 28
    proc = subprocess.run([sys.executable, "-m", "dsrg", "construct", "qr",
                           "--q", "29"], capture_output=True, text=True,
                          timeout=20)
    assert proc.returncode == 0
    assert proc.stdout == "58 28 14 13 14\n"


def test_qr_builds_up_to_the_cap_and_refuses_above_it():
    code, stdout, _ = run_cli("qr-search", "--q", "37")
    assert code == 0 and len(stdout.splitlines()) == 36
    code, stdout, _ = run_cli("construct", "qr", "--q", "37")
    assert code == 0 and stdout == "74 36 18 17 18\n"
    # both construct paths and the listing refuse q = 1013 > 1009
    for argv in (["construct", "qr", "--q", "1013"],
                 ["construct", "qr", "--q", "1013", "--sigma1", "3",
                  "--sigma2", "338", "--s-set", "1,4"],
                 ["qr-search", "--q", "1013"]):
        code, stdout, stderr = run_cli(*argv)
        assert code == 2 and stdout == ""
        assert stderr == "input error: q = 1013 exceeds the " \
            "quadratic-residue cap 1009\n"


def test_vertex_cap_refuses_before_building(capsys):
    # one cap for every construct method: qr's 2,018 vertices at q = 1009
    from dsrg import cli
    from dsrg import constructions as cons
    from dsrg import groups as grp
    assert cons.MAX_VERTICES == 2 * cons._QR_MAX_Q == 2018
    never = {"side_effect": AssertionError("built")}
    with mock.patch.object(cli, "circulant_tournament", **never), \
            mock.patch.object(cons, "cycle_sum_dsrg", **never), \
            mock.patch.object(grp, "hobart_shaw", **never), \
            mock.patch.object(grp, "cyclic_group", **never), \
            mock.patch.object(grp, "dihedral_group", **never):
        for argv, n in ((["lem6", "--tournament", "standard:505"], 2024),
                        (["lem5", "--tournament", "standard:2001"], 8008),
                        (["m", "--tournament", "circulant:1011:1"], 2022),
                        (["wide", "--tournament", "standard:5", "--w",
                          "202"], 2020),
                        (["tall", "--tournament", "standard:7", "--w",
                          "1000000000"], 14000000000),
                        (["lem7", "--s", "504"], 2020),
                        (["hobart-shaw", "--lam", "505", "--parity",
                          "even"], 2020),
                        (["cayley", "--group", "cyclic:100000000", "--conn",
                          "1"], 100000000),
                        (["cayley", "--group", "dihedral:1010", "--conn",
                          "1"], 2020)):
            assert main(["construct", *argv]) == 2
            assert capsys.readouterr() == (
                "", f"input error: the graph would have {n} vertices, "
                    f"above the cap 2018\n")


def test_vertex_cap_leaves_smaller_graphs_alone():
    # lem6 over standard:251 has 1,008 vertices
    code, stdout, _ = run_cli("construct", "lem6", "--tournament",
                              "standard:251")
    assert code == 0 and stdout == "1008 503 252 251 251\n"


def test_pq_search_cli():
    code, stdout, _ = run_cli("pq-search", "--tournament", "circulant:5:1,2")
    assert code == 0
    assert "0,4,3,2,1" in stdout.splitlines()


def test_bad_descriptor_is_input_error():
    code, _, stderr = run_cli("construct", "duval-b",
                              "--tournament", "nonsense:5")
    assert code == 2
    assert "descriptor" in stderr


def test_catalog_cli_round_trip(tmp_path):
    out = tmp_path / "catalog.txt"
    code, stdout, _ = run_cli("catalog", "12", "-o", str(out))
    assert code == 0
    assert "8 3 2 1 1 1" in stdout.splitlines()
    entries = read_catalog(out)
    assert entries, "catalog should not be empty"
    for e in entries:
        assert e.params.n <= 12


def test_catalog_round_trip_without_trailing_blank_line(tmp_path):
    entries = build_catalog(16)
    assert len(entries) == 18
    text = format_catalog(entries)
    assert text.endswith("\n\n")
    for variant in (text, text.rstrip("\n") + "\n", text.rstrip("\n")):
        path = tmp_path / "catalog.txt"
        path.write_text(variant, encoding="ascii")
        assert read_catalog(path) == entries


def test_catalog_hash_mismatch_asks_for_rebuild(tmp_path):
    entries = build_catalog(8)
    text = format_catalog(entries)
    stale = entries[0].cert_hash
    path = tmp_path / "catalog.txt"
    path.write_text(text.replace(stale, "0" * len(stale)), encoding="ascii")
    with pytest.raises(ValueError, match="must be rebuilt"):
        read_catalog(path)


def test_catalog_header_must_match_its_matrix(tmp_path):
    text = format_catalog(build_catalog(8))
    header = text.split("\n")[0]
    assert header.endswith(" 6 2 1 0 1 8e18d2aed4267758")
    path = tmp_path / "catalog.txt"
    path.write_text(text.replace(" 6 2 1 0 1 ", " 6 2 1 1 0 ", 1),
                    encoding="ascii")
    with pytest.raises(ValueError, match="re-verifies as 6 2 1 0 1") as info:
        read_catalog(path)
    assert info.type is ValueError


def test_format_catalog_refuses_whitespace_in_a_field():
    entry = dataclasses.replace(build_catalog(6)[0], input_descriptor="a b")
    with pytest.raises(ValueError, match="may not contain whitespace") as info:
        format_catalog([entry])
    assert info.type is ValueError


def test_catalog_deterministic(tmp_path):
    a = format_catalog(build_catalog(12))
    b = format_catalog(build_catalog(12))
    assert a == b


@pytest.mark.parametrize("max_n, digest", [
    (20, "65047fd8de5477b8158896581b5015ed15999b8dff4a30b0c0b0ddd7f6c461ca"),
    (34, "2fa815fceb11d50c27b34545a5b48ea09afb3c9e07d55d14cab327159e02e5ef"),
    (48, "6cb7ea40cbfa70a15619b3e3cb2d1ddd9379bdf72e640003347d129ca1f3c3db"),
    (96, "7df5f9f6fc57ba9190a668d351e92b84cf7c2d226f0aaaa6ac28ca0c7755d1c7"),
])
def test_catalog_golden_digest(max_n, digest):
    # pins every canonical matrix and certificate hash of the catalog
    text = format_catalog(build_catalog(max_n))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_duval_b_built_once_per_tournament():
    # the duval_B result is also the base of the kron expansions
    from dsrg import constructions as cons
    from dsrg.cli import all_construction_results
    with mock.patch.object(cons, "duval_b", wraps=cons.duval_b) as spy:
        results = all_construction_results(20)
    built = [r for r in results if r.method == "duval_B"]
    assert spy.call_count == len(built) > 0
    assert any(r.method == "kron" for r in results)


def test_wide_pattern_built_once():
    # wide(T, w) and kron(duval_B(T), w, right) would rebuild
    # kron(duval_B(T), w, left), exactly or up to relabelling
    from dsrg.cli import all_construction_results
    results = all_construction_results(48)
    assert len(results) == 127
    assert not any(r.method == "wide" for r in results)
    assert not any(r.input_descriptor.endswith(",right") for r in results)


def test_double_regularity_tested_once_per_source():
    # the sources of order 3 (mod 4) at 48: enum:3:0, the three of enum:7,
    # standard:11 and paley:11; three are doubly regular and build lem5
    from dsrg import tournaments
    from dsrg.cli import all_construction_results
    with mock.patch.object(tournaments, "try_verify_dsrg",
                           wraps=tournaments.try_verify_dsrg) as spy:
        results = all_construction_results(48)
    assert spy.call_count == 6
    assert sum(r.method == "lem5" for r in results) == 3


def _failing_lem6(t, label=None):
    raise ValueError("no layout")


def test_catalog_records_a_failing_construction():
    from dsrg import constructions as cons
    from dsrg.cli import all_construction_results
    expected = [r for r in all_construction_results(20) if r.method != "lem6"]
    failures = []
    with mock.patch.object(cons, "bordered_team_dsrg", _failing_lem6):
        results = all_construction_results(20, failures)
    assert failures == ["lem6(enum:3:0): no layout"]
    assert results == expected


def test_catalog_failure_propagates_without_a_list():
    from dsrg import constructions as cons
    from dsrg.cli import all_construction_results
    with mock.patch.object(cons, "bordered_team_dsrg", _failing_lem6):
        with pytest.raises(ValueError, match="no layout"):
            all_construction_results(20)


def test_catalog_cli_reports_failures(capsys):
    from dsrg import constructions as cons
    with mock.patch.object(cons, "bordered_team_dsrg", _failing_lem6):
        assert main(["catalog", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("n k t lambda mu classes\n")
    assert captured.err == "construction failed: lem6(enum:3:0): no layout\n"


def test_catalog_unique_graph_at_8():
    entries = build_catalog(8)
    eight = [e for e in entries if e.params.as_tuple() == (8, 3, 2, 1, 1)]
    assert len(eight) == 1


def test_catalog_16_has_two_classes():
    entries = build_catalog(16)
    sixteen = [e for e in entries if e.params.as_tuple() == (16, 7, 4, 3, 3)]
    assert len(sixteen) == 2


def test_catalog_entries_pairwise_non_isomorphic():
    # deduplication is by canonical hash; the mapping-search engine must
    # agree that every surviving same-parameter pair is non-isomorphic
    import itertools

    from dsrg import are_isomorphic
    entries = build_catalog(16)
    by_params = {}
    for e in entries:
        by_params.setdefault(e.params.as_tuple(), []).append(e)
    for group in by_params.values():
        for a, b in itertools.combinations(group, 2):
            assert are_isomorphic(a.adj, b.adj) is None


def test_main_callable_directly(tmp_path, capsys):
    out = tmp_path / "g.adj"
    assert main(["construct", "lem7", "--s", "1", "-o", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "8 3 2 1 1"


def test_bound_flag_controls_classify(tmp_path):
    big = BinMatrix.zeros(49)
    path = tmp_path / "big.adj"
    write_adj(big, path)
    code, _, stderr = run_cli("classify", str(path))
    assert code == 2 and "bound" in stderr
    code, stdout, _ = run_cli("--bound", "49", "classify", str(path))
    assert code == 0 and len(stdout.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [["--bound", "-5", "catalog", "10"],
                                  ["--bound", "0", "tournaments", "--n", "5"],
                                  ["--bound", "0", "classify", "missing.adj"]])
def test_bound_below_one_is_refused(argv, capsys):
    # refused before the command runs, whether or not it uses the bound
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"input error: --bound must be at least 1, got {argv[1]}\n")


def test_tournaments_limit_refusal_is_input_error():
    code, _, stderr = run_cli("tournaments", "--n", "13")
    assert code == 2 and "limit" in stderr


def test_tournaments_above_enumeration_limit_is_refused_at_once(capsys):
    # an order the enumeration cannot reach is refused before it starts,
    # and no flag raises the limit
    for n in ("13", "49"):
        start = time.perf_counter()
        assert main(["tournaments", "--n", n]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == (
            "", f"input error: order {n} exceeds the enumeration limit 11\n")
    with pytest.raises(SystemExit) as info:
        main(["tournaments", "--n", "13", "--limit", "13"])
    assert info.value.code == 2
    assert "unrecognized arguments: --limit 13" in capsys.readouterr().err


def test_tournaments_negative_order_is_rejected():
    # an out-of-domain order is an input error, as for an even order and as
    # for a tournament descriptor of non-positive order
    for order in ("-1", "4"):
        code, stdout, stderr = run_cli("tournaments", "--n", order)
        assert (code, stdout) == (2, "")
        assert stderr == ("input error: regular tournaments have positive "
                          f"odd order, got {order}\n")


def test_tournaments_order_9_golden_digest():
    # pins the 15 canonical matrices, their order and certificate hashes
    code, stdout, _ = run_cli("tournaments", "--n", "9")
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == \
        "4c8fc49acc78023e96dc8d5fe5c54395f9b93b74983c2a5808afb3bd7a510eae"


def test_tournaments_order_11_golden_digest():
    # pins the 1,223 canonical matrices, their order and certificate hashes
    code, stdout, _ = run_cli("tournaments", "--n", "11")
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == \
        "fcd4dea6f3758b324c116a6b56973c47d70f223ab6cd76b701e843383959ee89"


def test_construct_from_non_tournament_file_is_semantic_error(tmp_path):
    path = tmp_path / "not_tournament.adj"
    write_adj(FIXTURE_8, path)  # a DSRG, but not a tournament
    code, _, stderr = run_cli("construct", "duval-b",
                              "--tournament", f"adj:{path}")
    assert code == 1
    assert "direction" in stderr


def test_catalog_entries_are_feasible_and_enumerated():
    feasible = set(enumerate_feasible(48))
    entries = build_catalog(48)
    assert len(entries) == 74
    for e in entries:
        assert duval_feasible(e.params).feasible
        assert e.params in feasible


def test_closed_pipe_ends_quietly():
    # feasible 200 prints about 120 kB, more than a pipe buffers, so the
    # command is still writing when the reader closes its end
    proc = subprocess.Popen([sys.executable, "-m", "dsrg", "feasible", "200"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    try:
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first == b"6 2 1 0 1\n"
    assert code == 141
    assert err == b""


def test_readme_command_lines_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1]
    block = block.split("```", 2)[1]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("dsrg ")]
    assert len(commands) == 15
    parser = build_parser()
    for words in commands:
        assert parser.parse_args(words[1:]).handler
