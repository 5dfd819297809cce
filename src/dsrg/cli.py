"""Command-line front end: construct, verify, classify, and catalog graphs.

Exit codes: 0 success, 1 semantic failure (not a DSRG, rejected
construction, non-isomorphic), 2 input error (bad arguments or malformed
files).  A write to a closed pipe (``dsrg ... | head``) ends the command
quietly with exit code 141, as a SIGPIPE would.  All behavior is
flag-driven; no environment variables are read.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import constructions as cons
from . import groups as grp
from . import iso
from .adjio import read_adj, write_adj
from .iso import CERT_VERSION, canonical_form
from .matrix import BinMatrix, InputError, PermSpec
from .numth import is_prime
# enumerate_feasible stays a name of this module, since bench/spans.py wraps
# cli.enumerate_feasible; cmd_feasible streams through iter_feasible, so a
# traced feasible run no longer records that span
from .params import (DsrgParams, NotDsrg, enumerate_feasible,  # noqa: F401
                     iter_feasible, verify_dsrg)
from .tournaments import (NotTournament, Tournament, circulant_tournament,
                          enumerate_regular_tournaments,
                          is_doubly_regular_tournament, paley_tournament)

# dsrg feasible 1000 prints 191,210 tuples in 4.4-4.6 s on a 2-vCPU x86-64
# host (Python 3.11); the time grows a little faster than max_n^2
FEASIBLE_MAX_N = 1000


def parse_tournament(desc: str, vertices: Callable[[int], int] = int
                     ) -> tuple[Tournament, str]:
    """Tournament descriptors: circulant:N:e1,e2  paley:Q  standard:N  adj:PATH.

    ``vertices`` maps the order of the tournament to that of the graph
    built over it; a descriptor whose graph would exceed cons.MAX_VERTICES
    is refused before the tournament is built.
    """
    kind, _, rest = desc.partition(":")
    if kind not in ("circulant", "standard", "paley", "adj"):
        raise InputError(f"unknown tournament descriptor kind {kind!r} "
                         f"(use circulant/standard/paley/adj)")
    try:
        if kind == "adj":
            adj = read_adj(rest)
            cons.check_vertex_cap(vertices(adj.n))
            return Tournament(adj), desc
        n_text, _, conn_text = rest.partition(":")
        n = int(n_text if kind == "circulant" else rest)
        cons.check_vertex_cap(vertices(n))
        if kind == "circulant":
            conn = {int(e) for e in conn_text.split(",") if e}
            return circulant_tournament(n, conn), desc
        if kind == "standard":
            return circulant_tournament(n, set(range(1, (n + 1) // 2))), desc
        return paley_tournament(n), desc
    except iso.BoundExceeded:
        raise
    except (ValueError, OSError) as exc:
        raise InputError(f"bad tournament descriptor {desc!r}: {exc}") from exc


def parse_perm(spec: str, n: int) -> PermSpec:
    if spec == "reversal":
        return PermSpec.reversal(n)
    if spec == "identity":
        return PermSpec.identity(n)
    try:
        perm = PermSpec(tuple(int(x) for x in spec.split(",")))
        if len(perm) != n:
            raise ValueError(f"{len(perm)} images for order {n}")
    except ValueError as exc:
        raise InputError(f"bad permutation {spec!r}: {exc}") from exc
    return perm


def parse_group(desc: str) -> grp.GroupTable:
    """Group descriptors: cyclic:N  dihedral:N  symmetric:N; a group of more
    than cons.MAX_VERTICES elements is refused before its table is built."""
    kind, _, rest = desc.partition(":")
    try:
        if kind == "cyclic":
            cons.check_vertex_cap(int(rest))
            return grp.cyclic_group(int(rest))
        if kind == "dihedral":
            cons.check_vertex_cap(2 * int(rest))
            return grp.dihedral_group(int(rest))
        if kind == "symmetric":
            return grp.symmetric_group(int(rest))
    except iso.BoundExceeded:
        raise
    except ValueError as exc:
        raise InputError(f"bad group descriptor {desc!r}: {exc}") from exc
    raise InputError(f"unknown group descriptor kind {kind!r} "
                     f"(use cyclic/dihedral/symmetric)")


def _first_qr(q: int) -> cons.ConstructionResult:
    """The quadratic-residue graph over the first triple of qr_search."""
    return cons.qr_dsrg(q, *cons.qr_search(q)[0])


def _int_set(text: str, what: str) -> frozenset[int]:
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}") from exc


def _construct(args: argparse.Namespace) -> cons.ConstructionResult:
    method = args.method
    if method in ("duval-b", "duval-c", "m", "lem5", "lem6"):
        if not args.tournament:
            raise InputError(f"{method} needs --tournament")
        lem = method in ("lem5", "lem6")
        t, label = parse_tournament(
            args.tournament, (lambda n: 4 * (n + 1)) if lem else (lambda n: 2 * n))
        fn = {"duval-b": cons.duval_b, "duval-c": cons.duval_c,
              "m": cons.m_construction, "lem5": cons.team_dsrg,
              "lem6": cons.bordered_team_dsrg}[method]
        return fn(t, label)
    if method in ("wide", "tall"):
        if not args.tournament or args.w is None:
            raise InputError(f"{method} needs --tournament and --w")
        t, label = parse_tournament(args.tournament, lambda n: 2 * n * args.w)
        fn = cons.wide_blocks if method == "wide" else cons.tall_blocks
        return fn(t, args.w, label)
    if method == "lem7":
        if args.s is None:
            raise InputError("lem7 needs --s")
        cons.check_vertex_cap(4 * (args.s + 1))
        return cons.cycle_sum_dsrg(args.s)
    if method == "qr":
        if args.q is None:
            raise InputError("qr needs --q")
        triple = (args.sigma1, args.sigma2, args.s_set)
        if triple == (None, None, None):
            return _first_qr(args.q)
        if None in triple:
            raise InputError("qr needs all of --sigma1, --sigma2 and --s-set "
                             "or none of them")
        return cons.qr_dsrg(args.q, args.sigma1, args.sigma2,
                            _int_set(args.s_set, "--s-set residues"))
    if method == "pq":
        if not args.tournament:
            raise InputError("pq needs --tournament")
        t, label = parse_tournament(args.tournament, lambda n: 2 * n)
        perm = parse_perm(args.perm or "reversal", t.order)
        return cons.pq_dsrg(t, perm, f"{label},p={args.perm or 'reversal'}")
    if method == "kron":
        if not args.input or args.m is None:
            raise InputError("kron needs --input and --m")
        base = read_adj(args.input)
        cons.check_vertex_cap(base.n * args.m)
        return cons.kronecker_expand(base, args.m, args.side, args.input)
    if method == "cayley":
        if not args.group or not args.conn:
            raise InputError("cayley needs --group and --conn")
        group = parse_group(args.group)
        conn = _int_set(args.conn, "connection set")
        return grp.cayley_dsrg(grp.CayleySpec(group, conn),
                               f"{args.group},S={{{args.conn}}}")
    if method == "hobart-shaw":
        if args.lam is None or not args.parity:
            raise InputError("hobart-shaw needs --lam and --parity")
        cons.check_vertex_cap(4 * args.lam + 2 * (args.parity == "odd"))
        return grp.hobart_shaw(args.lam, args.parity)
    raise InputError(f"unknown method {method!r}")


def cmd_construct(args: argparse.Namespace) -> int:
    result = _construct(args)
    if args.output:
        write_adj(result.adj, args.output)
    print(result.params)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    adj = read_adj(args.path)
    try:
        params = verify_dsrg(adj)
    except NotDsrg as exc:
        print(f"not a DSRG: {exc}")
        return 1
    print(f"{params} {params.classification}")
    return 0


def _check_max_n(max_n: int, cap: int, cap_name: str) -> None:
    """Refuse a max_n outside 0..cap as an input error."""
    if max_n < 0:
        raise InputError(f"max_n must be non-negative, got {max_n}")
    if max_n > cap:
        raise InputError(f"max_n {max_n} exceeds the {cap_name} {cap}")


def cmd_feasible(args: argparse.Namespace) -> int:
    _check_max_n(args.max_n, FEASIBLE_MAX_N, "cap")
    for p in iter_feasible(args.max_n):
        print(p)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    mats = [read_adj(path) for path in args.paths]
    for cert, members in iso.classify(mats, args.bound):
        print(f"{cert.cert_hash}: {' '.join(args.paths[i] for i in members)}")
    return 0


def cmd_tournaments(args: argparse.Namespace) -> int:
    reps = enumerate_regular_tournaments(args.n)
    print(f"order={args.n} classes={len(reps)}")
    lines = []
    for t in reps:
        # t.adj is already canonical, and canonical_form is idempotent
        lines.append(iso._cert_hash(t.adj))
        lines.extend(t.adj.row_strings())
        lines.append("")
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.output:
        Path(args.output).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def cmd_cayley_scan(args: argparse.Namespace) -> int:
    group = parse_group(args.group)
    for conn, params in grp.cayley_subset_scan(group, args.max_results):
        names = ",".join(group.names[s] for s in sorted(conn))
        print(f"{{{names}}} {params}")
    return 0


def cmd_qr_search(args: argparse.Namespace) -> int:
    for s1, s2, s_set in cons.qr_search(args.q):
        print(f"{s1} {s2} {','.join(map(str, sorted(s_set)))}")
    return 0


def cmd_pq_search(args: argparse.Namespace) -> int:
    t, _ = parse_tournament(args.tournament)
    for p in cons.pq_search(t):
        print(",".join(map(str, p.images)))
    return 0


# -- catalog -----------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    method: str
    input_descriptor: str
    params: DsrgParams
    cert_hash: str
    adj: BinMatrix


def _tournament_sources(order: int) -> list[tuple[Tournament, str]]:
    if order <= 7:
        return [(t, f"enum:{order}:{i}")
                for i, t in enumerate(enumerate_regular_tournaments(order))]
    sources = [parse_tournament(f"standard:{order}")]
    if is_prime(order) and order % 4 == 3:
        sources.append(parse_tournament(f"paley:{order}"))
    return sources


def all_construction_results(max_n: int,
                             failures: list[str] | None = None
                             ) -> list[cons.ConstructionResult]:
    """Run every construction over its enumerable inputs up to max_n
    vertices, in a fixed order, one route per graph: over each regular
    tournament T duval_B, duval_C, m_of, the wide pattern as kron(duval_B(T),
    w, left), tall(T, w), lem6, lem5, pq; then lem7, qr, cayley, Hobart-Shaw.
    Tournaments stop at order 17 whatever max_n is, so no route builds
    (38, 18, 9, 8, 9), (42, 20, 10, 9, 10) or (46, 22, 11, 10, 11).

    A construction that rejects its input is recorded in ``failures``
    (when given) instead of aborting the run.
    """
    results: list[cons.ConstructionResult] = []

    def attempt(thunk, description: str) -> cons.ConstructionResult | None:
        try:
            result = thunk()
        except ValueError as exc:
            if failures is None:
                raise
            failures.append(f"{description}: {exc}")
            return None
        results.append(result)
        return result

    # orders stop at 17, not at max_n: a higher cap changes catalog 48's output
    for order in range(3, 18, 2):
        k = (order - 1) // 2
        for t, label in _tournament_sources(order):
            if 4 * k + 2 <= max_n:
                base = attempt(lambda: cons.duval_b(t, label),
                               f"duval_B({label})")
                attempt(lambda: cons.duval_c(t, label), f"duval_C({label})")
                attempt(lambda: cons.m_construction(t, label), f"m_of({label})")
                for w in range(2, max_n // (4 * k + 2) + 1):
                    # J_w x base is wide_blocks(T, w); base x J_w relabels it
                    if base is not None:
                        attempt(lambda w=w: cons.kronecker_expand(
                            base.adj, w, "left", f"duval_B({label})"),
                            f"kron(duval_B({label}),m={w},left)")
                    attempt(lambda w=w: cons.tall_blocks(t, w, label),
                            f"tall({label},w={w})")
            if 4 * (order + 1) <= max_n:
                attempt(lambda: cons.bordered_team_dsrg(t, label),
                        f"lem6({label})")
                if is_doubly_regular_tournament(t) is not None:
                    attempt(lambda: cons.team_dsrg(t, label),
                            f"lem5({label})")
            if 2 * order <= max_n and order <= cons.PQ_SEARCH_BOUND:
                for p in cons.pq_search(t)[:1]:
                    images = ",".join(map(str, p.images))
                    attempt(lambda: cons.pq_dsrg(t, p, f"{label},p={images}"),
                            f"pq({label})")
    for s in range(1, (max_n - 4) // 4 + 1):
        attempt(lambda s=s: cons.cycle_sum_dsrg(s), f"lem7(s={s})")
    for q in (5, 13, 17):
        if 2 * q <= max_n:
            attempt(lambda: _first_qr(q), f"qr(q={q})")
    if 6 <= max_n:
        s3 = grp.symmetric_group(3)
        conn = frozenset({s3.index_of("(12)"), s3.index_of("(123)")})
        attempt(lambda: grp.cayley_dsrg(grp.CayleySpec(s3, conn),
                                        "symmetric:3,S={(12),(123)}"),
                "cayley(symmetric:3)")
    for lam in range(2, max_n // 4 + 1):
        attempt(lambda lam=lam: grp.hobart_shaw(lam, "even"),
                f"hobart_shaw(lam={lam},even)")
    for lam in range(1, (max_n - 2) // 4 + 1):
        attempt(lambda lam=lam: grp.hobart_shaw(lam, "odd"),
                f"hobart_shaw(lam={lam},odd)")
    return results


def build_catalog(max_n: int,
                  failures: list[str] | None = None) -> list[CatalogEntry]:
    """All construction results up to max_n vertices, one per isomorphism
    class: the first of each class in a fixed sort, kept in that order for
    byte-identical repeated runs."""
    results = sorted(all_construction_results(max_n, failures),
                     key=lambda r: (r.params.as_tuple(), r.method,
                                    r.input_descriptor))
    # every result has at most max_n vertices, so that bound never refuses
    firsts = sorted((members[0], cert.cert_hash) for cert, members
                    in iso.classify((r.adj for r in results), max_n))
    return [CatalogEntry(results[i].method, results[i].input_descriptor,
                         results[i].params, cert_hash, results[i].adj)
            for i, cert_hash in firsts]


def format_catalog(entries: Sequence[CatalogEntry]) -> str:
    chunks = []
    for e in entries:
        if any(c.isspace() for c in e.method + e.input_descriptor):
            raise ValueError(
                f"catalog fields may not contain whitespace: {e.method!r}, "
                f"{e.input_descriptor!r}")
        chunks.append(f"{e.method} {e.input_descriptor} {e.params} {e.cert_hash}")
        chunks.extend(e.adj.row_strings())
        chunks.append("")
    return "\n".join(chunks) + ("\n" if chunks else "")


def read_catalog(path: str | Path) -> list[CatalogEntry]:
    """Load a catalog file, re-verifying every entry against its header.

    Records are separated by blank lines; the last one needs none.
    """
    text = Path(path).read_text(encoding="ascii")
    entries = []
    block: list[str] = []
    for line in text.split("\n") + [""]:
        if line:
            block.append(line)
            continue
        if not block:
            continue
        method, descriptor, n, k, t, lam, mu, cert_hash = block[0].split(" ")
        adj = BinMatrix.from_strings(block[1:])
        params = verify_dsrg(adj)
        expected = DsrgParams(int(n), int(k), int(t), int(lam), int(mu))
        if params != expected:
            raise ValueError(f"catalog entry {block[0]!r} re-verifies as {params}")
        recomputed = canonical_form(adj, adj.n).cert_hash
        if recomputed != cert_hash:
            raise ValueError(
                f"catalog entry {block[0]!r} hash mismatch; catalogs written "
                f"before certificate version {CERT_VERSION} must be rebuilt")
        entries.append(CatalogEntry(method, descriptor, params, cert_hash, adj))
        block = []
    return entries


def cmd_catalog(args: argparse.Namespace) -> int:
    _check_max_n(args.max_n, max(iso.DEFAULT_BOUND, args.bound), "catalog cap")
    failures: list[str] = []
    entries = build_catalog(args.max_n, failures)
    if args.output:
        Path(args.output).write_text(format_catalog(entries), encoding="ascii")
    by_params = Counter(e.params.as_tuple() for e in entries)
    print("n k t lambda mu classes")
    for key in sorted(by_params):
        print(" ".join(map(str, key)) + f" {by_params[key]}")
    for failure in failures:
        print(f"construction failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsrg",
        description="Construct, verify, enumerate, and classify directed "
                    "strongly regular graphs.")
    parser.add_argument("--bound", type=int, default=iso.DEFAULT_BOUND,
                        help="order bound for isomorphism computations "
                             "in classify and catalog")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build one graph and print its parameters")
    c.add_argument("method", choices=["duval-b", "duval-c", "m", "wide", "tall",
                                      "lem5", "lem6", "lem7", "qr", "pq",
                                      "kron", "cayley", "hobart-shaw"])
    c.add_argument("--tournament", help="circulant:N:e1,e2 | standard:N | paley:Q | adj:PATH")
    c.add_argument("--w", type=int, help="block multiplicity for wide/tall")
    c.add_argument("--s", type=int, help="cycle-power count for lem7")
    c.add_argument("--q", type=int, help="prime modulus for qr")
    c.add_argument("--sigma1", type=int)
    c.add_argument("--sigma2", type=int)
    c.add_argument("--s-set", dest="s_set", help="comma residues for qr")
    c.add_argument("--perm", help="pq permutation: reversal | identity | images")
    c.add_argument("--input", help="input .adj file for kron")
    c.add_argument("--m", type=int, help="expansion factor for kron")
    c.add_argument("--side", choices=["left", "right"], default="right")
    c.add_argument("--group", help="cyclic:N | dihedral:N | symmetric:N")
    c.add_argument("--conn", help="comma element indices for cayley")
    c.add_argument("--lam", type=int, help="parameter for hobart-shaw")
    c.add_argument("--parity", choices=["even", "odd"])
    c.add_argument("-o", "--output", help="write the graph as .adj")
    c.set_defaults(handler=cmd_construct)

    v = sub.add_parser("verify", help="verify an .adj file")
    v.add_argument("path")
    v.set_defaults(handler=cmd_verify)

    f = sub.add_parser("feasible", help="enumerate genuine feasible tuples")
    f.add_argument("max_n", type=int)
    f.set_defaults(handler=cmd_feasible)

    cl = sub.add_parser("classify", help="group .adj files by isomorphism")
    cl.add_argument("paths", nargs="+")
    cl.set_defaults(handler=cmd_classify)

    ca = sub.add_parser("catalog", help="run all constructions and write a catalog")
    ca.add_argument("max_n", type=int)
    ca.add_argument("-o", "--output", help="catalog file path")
    ca.set_defaults(handler=cmd_catalog)

    tn = sub.add_parser("tournaments", help="enumerate regular tournaments")
    tn.add_argument("--n", type=int, required=True)
    tn.add_argument("-o", "--output")
    tn.set_defaults(handler=cmd_tournaments)

    cs = sub.add_parser("cayley-scan", help="scan connection sets of a group")
    cs.add_argument("--group", required=True)
    cs.add_argument("--max-results", type=int, default=None)
    cs.set_defaults(handler=cmd_cayley_scan)

    qs = sub.add_parser("qr-search", help="search quadratic-residue triples")
    qs.add_argument("--q", type=int, required=True)
    qs.set_defaults(handler=cmd_qr_search)

    ps = sub.add_parser("pq-search", help="search symmetric-product involutions")
    ps.add_argument("--tournament", required=True)
    ps.set_defaults(handler=cmd_pq_search)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.bound < 1:
            raise InputError(f"--bound must be at least 1, got {args.bound}")
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left; point stdout at /dev/null so the flush at exit
        # cannot fail again, and exit with 128 + SIGPIPE as a shell reports
        # a process that the signal killed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NotDsrg, NotTournament) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
