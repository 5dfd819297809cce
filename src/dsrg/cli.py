"""Command-line front end: construct, verify, classify, and catalog graphs.

Exit codes: 0 success, 1 semantic failure (not a DSRG, rejected
construction, non-isomorphic), 2 input error (bad arguments or malformed
files).  All behavior is flag-driven; no environment variables are read.
The --seed flag is accepted for interface stability but the exhaustive
code paths ignore it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import constructions as cons
from . import groups as grp
from .adjio import AdjFormatError, read_adj, write_adj
from .iso import CERT_VERSION, BoundExceeded, canonical_form
from .matrix import BinMatrix, PermSpec
from .numth import is_prime
from .params import DsrgParams, NotDsrg, enumerate_feasible, verify_dsrg
from .tournaments import (NotTournament, Tournament, check_tournament,
                          circulant_tournament,
                          enumerate_regular_tournaments, paley_tournament)

CATALOG_MAX_N = 48
FEASIBLE_MAX_N = 10000


class InputError(ValueError):
    """Bad descriptor or argument (exit code 2)."""


def parse_tournament(desc: str) -> tuple[Tournament, str]:
    """Tournament descriptors: circulant:N:e1,e2  paley:Q  standard:N  adj:PATH."""
    kind, _, rest = desc.partition(":")
    try:
        if kind == "circulant":
            n_text, _, conn_text = rest.partition(":")
            n = int(n_text)
            conn = {int(e) for e in conn_text.split(",") if e}
            return circulant_tournament(n, conn), desc
        if kind == "standard":
            n = int(rest)
            return circulant_tournament(n, set(range(1, (n + 1) // 2))), desc
        if kind == "paley":
            return paley_tournament(int(rest)), desc
        if kind == "adj":
            return check_tournament(read_adj(rest)), desc
    except (ValueError, OSError) as exc:
        raise InputError(f"bad tournament descriptor {desc!r}: {exc}") from exc
    raise InputError(f"unknown tournament descriptor kind {kind!r} "
                     f"(use circulant/standard/paley/adj)")


def parse_perm(spec: str, n: int) -> PermSpec:
    if spec == "reversal":
        return PermSpec.reversal(n)
    if spec == "identity":
        return PermSpec.identity(n)
    try:
        return PermSpec(tuple(int(x) for x in spec.split(",")))
    except ValueError as exc:
        raise InputError(f"bad permutation {spec!r}: {exc}") from exc


def parse_group(desc: str) -> grp.GroupTable:
    kind, _, rest = desc.partition(":")
    try:
        if kind == "cyclic":
            return grp.cyclic_group(int(rest))
        if kind == "dihedral":
            return grp.dihedral_group(int(rest))
        if kind == "symmetric":
            return grp.symmetric_group(int(rest))
    except ValueError as exc:
        raise InputError(f"bad group descriptor {desc!r}: {exc}") from exc
    raise InputError(f"unknown group descriptor kind {kind!r} "
                     f"(use cyclic/dihedral/symmetric)")


def _construct(args: argparse.Namespace) -> cons.ConstructionResult:
    method = args.method
    if method in ("duval-b", "duval-c", "m", "lem5", "lem6"):
        if not args.tournament:
            raise InputError(f"{method} needs --tournament")
        t, label = parse_tournament(args.tournament)
        fn = {"duval-b": cons.duval_b, "duval-c": cons.duval_c,
              "m": cons.m_construction, "lem5": cons.team_dsrg,
              "lem6": cons.bordered_team_dsrg}[method]
        return fn(t, label)
    if method in ("wide", "tall"):
        if not args.tournament or args.w is None:
            raise InputError(f"{method} needs --tournament and --w")
        t, label = parse_tournament(args.tournament)
        fn = cons.wide_blocks if method == "wide" else cons.tall_blocks
        return fn(t, args.w, label)
    if method == "lem7":
        if args.s is None:
            raise InputError("lem7 needs --s")
        return cons.cycle_sum_dsrg(args.s)
    if method == "qr":
        if args.q is None:
            raise InputError("qr needs --q")
        if args.sigma1 is not None and args.sigma2 is not None and args.s_set:
            s_set = frozenset(int(x) for x in args.s_set.split(","))
            return cons.qr_dsrg(args.q, args.sigma1, args.sigma2, s_set)
        triple = next(cons._qr_triples(args.q), None)
        if triple is None:
            raise ValueError(f"no valid quadratic-residue triples for q={args.q}")
        s1, s2, s_set = triple
        return cons.qr_dsrg(args.q, s1, s2, s_set)
    if method == "pq":
        if not args.tournament:
            raise InputError("pq needs --tournament")
        t, label = parse_tournament(args.tournament)
        perm = parse_perm(args.perm or "reversal", t.order)
        return cons.pq_dsrg(t, perm, f"{label},p={args.perm or 'reversal'}")
    if method == "kron":
        if not args.input or args.m is None:
            raise InputError("kron needs --input and --m")
        base = read_adj(args.input)
        return cons.kronecker_expand(base, args.m, args.side, args.input)
    if method == "cayley":
        if not args.group or not args.conn:
            raise InputError("cayley needs --group and --conn")
        group = parse_group(args.group)
        try:
            conn = frozenset(int(x) for x in args.conn.split(","))
        except ValueError as exc:
            raise InputError(f"bad connection set {args.conn!r}") from exc
        return grp.cayley_dsrg(grp.CayleySpec(group, conn),
                               f"{args.group},S={{{args.conn}}}")
    if method == "hobart-shaw":
        if args.lam is None or not args.parity:
            raise InputError("hobart-shaw needs --lam and --parity")
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


def cmd_feasible(args: argparse.Namespace) -> int:
    if args.max_n > FEASIBLE_MAX_N:
        raise InputError(f"max_n {args.max_n} exceeds the cap {FEASIBLE_MAX_N}")
    for p in enumerate_feasible(args.max_n):
        print(p)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    mats = [read_adj(path) for path in args.paths]
    certs = [canonical_form(m, args.bound) for m in mats]
    groups: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    hashes: dict[tuple[int, tuple[int, ...]], str] = {}
    for idx, cert in enumerate(certs):
        key = (cert.order, cert.canonical.rows)
        groups.setdefault(key, []).append(idx)
        hashes[key] = cert.cert_hash
    for key in sorted(groups):
        members = " ".join(str(args.paths[i]) for i in groups[key])
        print(f"{hashes[key]}: {members}")
    return 0


def cmd_tournaments(args: argparse.Namespace) -> int:
    reps = enumerate_regular_tournaments(args.n, args.limit)
    print(f"order={args.n} classes={len(reps)}")
    lines = []
    for t in reps:
        cert = canonical_form(t.adj, max(args.bound, args.n))
        lines.append(cert.cert_hash)
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
    sources = [(circulant_tournament(order, set(range(1, (order + 1) // 2))),
                f"standard:{order}")]
    if is_prime(order) and order % 4 == 3:
        sources.append((paley_tournament(order), f"paley:{order}"))
    return sources


def all_construction_results(max_n: int,
                             failures: list[str] | None = None
                             ) -> list[cons.ConstructionResult]:
    """Run every construction over its enumerable inputs up to max_n
    vertices, in a fixed deterministic order.

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

    tournament_cache = {order: _tournament_sources(order)
                        for order in range(3, 18, 2)}
    for order, sources in tournament_cache.items():
        k = (order - 1) // 2
        for t, label in sources:
            base = None
            if 4 * k + 2 <= max_n:
                base = attempt(lambda: cons.duval_b(t, label),
                               f"duval_B({label})")
                attempt(lambda: cons.duval_c(t, label), f"duval_C({label})")
                attempt(lambda: cons.m_construction(t, label), f"m_of({label})")
            for w in range(2, max_n // (4 * k + 2) + 1):
                attempt(lambda w=w: cons.wide_blocks(t, w, label),
                        f"wide({label},w={w})")
                attempt(lambda w=w: cons.tall_blocks(t, w, label),
                        f"tall({label},w={w})")
            if 4 * (order + 1) <= max_n:
                attempt(lambda: cons.bordered_team_dsrg(t, label),
                        f"lem6({label})")
            if t.doubly_regular_lambda is not None and \
                    16 * t.doubly_regular_lambda + 16 <= max_n:
                attempt(lambda: cons.team_dsrg(t, label), f"lem5({label})")
            if 2 * order <= max_n and order <= 11:
                perms = cons.pq_search(t)
                if perms:
                    attempt(lambda: cons.pq_dsrg(
                        t, perms[0],
                        f"{label},p={','.join(map(str, perms[0].images))}"),
                        f"pq({label})")
            if base is not None:
                for m in range(2, max_n // (4 * k + 2) + 1):
                    for side in ("left", "right"):
                        attempt(lambda m=m, side=side: cons.kronecker_expand(
                            base.adj, m, side, f"duval_B({label})"),
                            f"kron(duval_B({label}),m={m},{side})")
    for s in range(1, (max_n - 4) // 4 + 1):
        attempt(lambda s=s: cons.cycle_sum_dsrg(s), f"lem7(s={s})")
    for q in (5, 13, 17):
        if 2 * q <= max_n:
            triple = next(cons._qr_triples(q), None)
            if triple is not None:
                s1, s2, s_set = triple
                attempt(lambda: cons.qr_dsrg(q, s1, s2, s_set), f"qr(q={q})")
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
    return [r for r in results if r.params.n <= max_n]


def build_catalog(max_n: int, bound: int = CATALOG_MAX_N,
                  failures: list[str] | None = None) -> list[CatalogEntry]:
    """All construction results up to max_n vertices, deduplicated by
    certificate hash and sorted for byte-identical repeated runs."""
    entries: dict[str, CatalogEntry] = {}
    results = all_construction_results(max_n, failures)
    for r in sorted(results, key=lambda r: (r.params.as_tuple(), r.method,
                                            r.input_descriptor)):
        cert = canonical_form(r.adj, max(bound, r.params.n))
        if cert.cert_hash not in entries:
            entries[cert.cert_hash] = CatalogEntry(
                r.method, r.input_descriptor, r.params, cert.cert_hash, r.adj)
    return sorted(entries.values(),
                  key=lambda e: (e.params.as_tuple(), e.method,
                                 e.input_descriptor))


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
        recomputed = canonical_form(adj, max(CATALOG_MAX_N, adj.n)).cert_hash
        if recomputed != cert_hash:
            raise ValueError(
                f"catalog entry {block[0]!r} hash mismatch; catalogs written "
                f"before certificate version {CERT_VERSION} must be rebuilt")
        entries.append(CatalogEntry(method, descriptor, params, cert_hash, adj))
        block = []
    return entries


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.max_n > max(CATALOG_MAX_N, args.bound):
        raise InputError(f"max_n {args.max_n} exceeds the catalog cap "
                         f"{max(CATALOG_MAX_N, args.bound)}")
    failures: list[str] = []
    entries = build_catalog(args.max_n, args.bound, failures)
    if args.output:
        Path(args.output).write_text(format_catalog(entries), encoding="ascii")
    by_params: dict[tuple[int, ...], int] = {}
    for e in entries:
        by_params[e.params.as_tuple()] = by_params.get(e.params.as_tuple(), 0) + 1
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
    parser.add_argument("--bound", type=int, default=48,
                        help="order bound for isomorphism computations")
    parser.add_argument("--seed", type=int, default=0,
                        help="reserved; exhaustive code paths ignore it")
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
    tn.add_argument("--limit", type=int, default=9,
                    help="enumeration order limit (raise explicitly for 11)")
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
        return args.handler(args)
    except AdjFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (InputError, BoundExceeded) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NotDsrg, NotTournament) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
