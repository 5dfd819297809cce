import hashlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrg import (BinMatrix, duval_feasible, enumerate_feasible, read_adj,
                  write_adj)
from dsrg.adjio import AdjFormatError, format_adj, parse_adj
from dsrg.cli import (FEASIBLE_MAX_N, build_catalog, format_catalog, main,
                      read_catalog)
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


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("args", [("feasible", "60"), ("catalog", "20")])
def test_output_unchanged_under_python_O(args):
    # every check is real code, so stripping asserts changes no output
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    procs = [subprocess.run([sys.executable, *flags, "-m", "dsrg", *args],
                            capture_output=True, env=env)
             for flags in ([], ["-O"])]
    assert [p.returncode for p in procs] == [0, 0]
    assert procs[0].stdout and procs[0].stdout == procs[1].stdout


def test_classify_groups_files(tmp_path):
    from dsrg import circulant_tournament
    from dsrg import constructions as cons
    l6 = cons.bordered_team_dsrg(
        __import__("dsrg").check_tournament(BinMatrix.zeros(1))).adj
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


def test_cayley_scan_cli():
    code, stdout, _ = run_cli("cayley-scan", "--group", "cyclic:8")
    assert code == 0 and stdout.strip() == ""
    code, stdout, _ = run_cli("cayley-scan", "--group", "symmetric:3",
                              "--max-results", "1")
    assert code == 0 and len(stdout.strip().splitlines()) == 1


def test_qr_search_cli():
    code, stdout, _ = run_cli("qr-search", "--q", "5")
    assert code == 0
    assert "2 3 1,4" in stdout


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


def test_catalog_deterministic(tmp_path):
    a = format_catalog(build_catalog(12))
    b = format_catalog(build_catalog(12))
    assert a == b


@pytest.mark.parametrize("max_n, digest", [
    (20, "65047fd8de5477b8158896581b5015ed15999b8dff4a30b0c0b0ddd7f6c461ca"),
    (34, "2fa815fceb11d50c27b34545a5b48ea09afb3c9e07d55d14cab327159e02e5ef"),
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


def test_tournaments_limit_refusal_is_input_error():
    code, _, stderr = run_cli("tournaments", "--n", "13")
    assert code == 2 and "limit" in stderr


def test_tournaments_negative_order_is_rejected():
    # the same exit code as an even order
    for order in ("-1", "4"):
        code, _, stderr = run_cli("tournaments", "--n", order)
        assert code == 1 and "positive odd" in stderr


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
