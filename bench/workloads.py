"""The four benchmark workloads: set-up, the timed call, and output checks.

Each workload goes through public entry points only: ``dsrg.cli.main``
with stdout captured, or the ``dsrg.adjio``/``dsrg.params``/``dsrg.iso``
functions for ``classify``.  The checks avoid certificate hashes and
canonical labellings, which a faster canonical labelling may change: they
compare summary tables, counts and digests of exact outputs, re-verify
graphs, and check every isomorphism witness.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import has_twins

EXPECTED = Path(__file__).resolve().parent / "expected"


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def call_cli(lib, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _bits(row: str) -> int:
    return sum(1 << j for j, c in enumerate(row) if c == "1")


def _isomorphic(a: list[int], b: list[int]) -> bool:
    """Plain backtracking digraph isomorphism, independent of dsrg.iso.
    Vertices are matched only to vertices with the same local invariant
    (out-degree and the out-degrees inside their out-neighbourhood)."""
    n = len(a)

    def invariant(rows, v):
        return (rows[v].bit_count(),
                sorted((rows[w] & rows[v]).bit_count()
                       for w in range(n) if rows[v] >> w & 1))
    ia = [invariant(a, v) for v in range(n)]
    ib = [invariant(b, v) for v in range(n)]
    if sorted(ia) != sorted(ib):
        return False
    image = [0] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for w in range(n):
            if used[w] or ib[w] != ia[i]:
                continue
            if all((a[i] >> j & 1) == (b[w] >> image[j] & 1) and
                   (a[j] >> i & 1) == (b[image[j]] >> w & 1) for j in range(i)):
                used[w], image[i] = True, w
                if extend(i + 1):
                    return True
                used[w] = False
        return False
    return extend(0)


class CliWorkload:
    """A fixed CLI command.  It has no random input; the seed is only
    recorded.  Set-up is a re-import of about 50 ms, so it is repeated
    often enough for its median to settle."""

    setup_reps = 40
    argv: list[str]

    def setup(self, lib, seed: int) -> None:
        self.lib = lib

    def run(self):
        return call_cli(self.lib, self.argv), None


class Catalog(CliWorkload):
    """``dsrg catalog N``: every construction, canonicalized and deduplicated."""

    def __init__(self, full: bool, out_dir: Path):
        self.max_n = 48 if full else 20
        self.path = out_dir / f"catalog-{os.getpid()}.txt"
        self.argv = ["catalog", str(self.max_n), "-o", str(self.path)]

    def check(self, output, checks: Checks) -> None:
        rc, out, err = output
        checks.expect(rc == 0 and not err, f"catalog exit {rc}: {err[:300]}")
        expected = (EXPECTED / f"catalog-{self.max_n}.txt").read_text()
        checks.expect(out == expected,
                      f"summary table differs from expected/catalog-{self.max_n}.txt")
        printed = {tuple(map(int, line.split()[:5])): int(line.split()[5])
                   for line in out.splitlines()[1:] if line}
        blocks = [b.split("\n") for b in self.path.read_text().split("\n\n") if b.strip()]
        self.path.unlink()
        claimed = [tuple(map(int, b[0].split()[2:7])) for b in blocks]
        checks.expect(Counter(claimed) == printed,
                      "catalog file entries disagree with the summary table")
        for block, params in zip(blocks, claimed):
            adj = self.lib.matrix.BinMatrix.from_strings(block[1:])
            try:
                got = self.lib.params.verify_dsrg(adj).as_tuple()
            except (self.lib.params.NotDsrg, ValueError) as exc:
                got = exc
            checks.expect(got == params, f"{block[0]!r} re-verifies as {got}")


class Tournaments(CliWorkload):
    """``dsrg tournaments --n N``: regular tournaments up to isomorphism."""

    CLASSES = {7: 3, 9: 15}

    def __init__(self, full: bool, out_dir: Path):
        self.n = 9 if full else 7
        self.argv = ["tournaments", "--n", str(self.n)]

    def check(self, output, checks: Checks) -> None:
        rc, out, err = output
        n, classes = self.n, self.CLASSES[self.n]
        checks.expect(rc == 0 and not err, f"tournaments exit {rc}: {err[:300]}")
        lines = out.split("\n")
        checks.expect(lines[0] == f"order={n} classes={classes}",
                      f"header {lines[0]!r}, expected {classes} classes")
        reps = [[_bits(row) for row in lines[start + 1:start + 1 + n]]
                for start in range(1, len(lines) - 1, n + 2)]
        checks.expect(len(reps) == classes, f"{len(reps)} blocks printed")
        k = (n - 1) // 2
        for idx, rows in enumerate(reps):
            checks.expect(
                len(rows) == n and all(r.bit_count() == k for r in rows) and
                all((rows[i] >> j & 1) + (rows[j] >> i & 1) == (i != j)
                    for i in range(n) for j in range(n)),
                f"class {idx} is not a regular tournament")
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                checks.expect(not _isomorphic(reps[i], reps[j]),
                              f"classes {i} and {j} are isomorphic")


class Feasible(CliWorkload):
    """``dsrg feasible N``: the feasibility scan over parameter tuples."""

    # max_n -> (tuple count, sha256 of the sorted "n k t lambda mu" lines)
    EXPECTED = {
        200: (8525, "5e02950ccbe88b71f15a025dadae62869844652794c2a7ff5916a7fa770e93a5"),
        60: (680, "76efde5f286bffa913cf794cf9f42b021ebe9ef6e841aed989376a4bb513ad46"),
    }

    def __init__(self, full: bool, out_dir: Path):
        self.max_n = 200 if full else 60
        self.argv = ["feasible", str(self.max_n)]

    def check(self, output, checks: Checks) -> None:
        rc, out, err = output
        count, digest = self.EXPECTED[self.max_n]
        checks.expect(rc == 0 and not err, f"feasible exit {rc}: {err[:300]}")
        tuples = sorted(tuple(map(int, line.split())) for line in out.splitlines())
        checks.expect(len(tuples) == count, f"{len(tuples)} tuples, expected {count}")
        text = "".join(" ".join(map(str, t)) + "\n" for t in tuples)
        checks.expect(hashlib.sha256(text.encode()).hexdigest() == digest,
                      "digest of the sorted tuple list changed")


class Classify:
    """Seeded relabelled copies of the twin-free construction outputs, read
    from ``.adj`` bytes, verified, canonicalized and matched to their source."""

    setup_reps = 3

    def __init__(self, full: bool, out_dir: Path):
        self.max_n, self.copies, self.sources_expected = \
            (96, 8, 128) if full else (24, 2, 52)

    def setup(self, lib, seed: int) -> None:
        self.lib = lib
        self.build_failures: list[str] = []
        results = lib.cli.all_construction_results(self.max_n, self.build_failures)
        self.sources = [r for r in results
                        if r.params.n <= self.max_n and not has_twins(r.adj)]
        rng = random.Random(seed)
        self.jobs = []
        for s, r in enumerate(self.sources):
            for _ in range(self.copies):
                images = list(range(r.params.n))
                rng.shuffle(images)
                copy = lib.matrix.conjugate_by_perm(
                    r.adj, lib.matrix.PermSpec(tuple(images)))
                self.jobs.append((s, lib.adjio.format_adj(copy).encode("ascii")))
        rng.shuffle(self.jobs)
        self.pairs = [(i, j) for i in range(len(self.sources))
                      for j in range(i + 1, len(self.sources))
                      if self.sources[i].params == self.sources[j].params]

    def run(self):
        adjio, params, iso = self.lib.adjio, self.lib.params, self.lib.iso
        bound, sources = self.max_n, self.sources
        latencies, graphs = [], []
        for _, data in self.jobs:
            t = perf_counter()
            m = adjio.parse_adj(data)
            p = params.verify_dsrg(m)
            cert = iso.canonical_form(m, bound)
            latencies.append(perf_counter() - t)
            graphs.append((m, p, (cert.order, cert.canonical.rows)))
        witnesses = [iso.are_isomorphic(sources[s].adj, g[0], bound)
                     for (s, _), g in zip(self.jobs, graphs)]
        pair_witnesses = [iso.are_isomorphic(sources[i].adj, sources[j].adj, bound)
                          for i, j in self.pairs]
        return (graphs, witnesses, pair_witnesses), latencies

    def check(self, output, checks: Checks) -> None:
        graphs, witnesses, pair_witnesses = output
        conj, sources = self.lib.matrix.conjugate_by_perm, self.sources
        checks.expect(not self.build_failures and
                      len(sources) == self.sources_expected,
                      f"{len(sources)} twin-free sources, expected "
                      f"{self.sources_expected}; failures {self.build_failures}")
        # Sources joined by a verified witness form one class; the classes
        # must match the grouping of the copies by canonical form.
        parent = list(range(len(sources)))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x
        for (i, j), w in zip(self.pairs, pair_witnesses):
            if w is not None:
                checks.expect(conj(sources[i].adj, w) == sources[j].adj,
                              f"witness for sources {i}, {j} fails")
                parent[find(j)] = find(i)
        key_classes: dict[tuple, set[int]] = {}
        class_keys: dict[int, set[tuple]] = {}
        for (s, _), (_, _, key) in zip(self.jobs, graphs):
            key_classes.setdefault(key, set()).add(find(s))
            class_keys.setdefault(find(s), set()).add(key)
        for (s, _), (m, p, key), w in zip(self.jobs, graphs, witnesses):
            source = sources[s]
            checks.expect(p == source.params, f"copy of {source.input_descriptor} "
                          f"verifies as {p}, source {source.params}")
            checks.expect(w is not None and conj(source.adj, w) == m,
                          f"no valid witness for a copy of {source.input_descriptor}")
            checks.expect(key_classes[key] == {find(s)} and
                          class_keys[find(s)] == {key},
                          f"a copy of {source.input_descriptor} is not in its "
                          f"source's class")


WORKLOADS = {"catalog": Catalog, "tournaments": Tournaments,
             "feasible": Feasible, "classify": Classify}
