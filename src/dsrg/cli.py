"""Command-line front end: construct, verify, classify, and catalog graphs.

Exit codes: 0 success, 1 semantic failure (not a DSRG, rejected
construction, non-isomorphic), 2 input error (bad arguments or malformed
files).  A write to a closed pipe (``dsrg ... | head``) ends the command
quietly with exit code 141, as a SIGPIPE would.  All behavior is
flag-driven; no environment variables are read.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import constructions as cons
from . import groups as grp
from . import iso
from .adjio import read_adj, write_adj
from .iso import CERT_VERSION, canonical_form
from .matrix import BinMatrix, InputError, PermSpec
from .numth import is_prime
# enumerate_feasible stays a name of this module, since bench/spans.py wraps
# cli.enumerate_feasible; cmd_feasible writes the scan's batches of plain
# tuples, so a traced feasible run records no span of that name
from .params import (DsrgParams, NotDsrg, _feasible_batches,  # noqa: F401
                     enumerate_feasible, verify_dsrg)
from .tournaments import (NotTournament, Tournament, circulant_tournament,
                          enumerate_regular_tournaments,
                          is_doubly_regular_tournament, paley_tournament)

# dsrg feasible 1000 prints 191,210 tuples in 0.96-1.01 s on a 2-vCPU x86-64
# host (Python 3.11); the time grows a little faster than max_n^2
FEASIBLE_MAX_N = 1000
# dsrg catalog N takes 0.3 s at N = 96, 0.9-1.5 s at 200, 3.6-4.7 s at 300
# and 14 s at 450 (single runs, same host): the largest N within about 5 s
CATALOG_MAX_N = 300


# the classes of each order, enumerated once per process: the catalog parses
# every enum:N:I it builds over; a refused order raises and is not kept
@functools.cache
def _classes(n: int) -> list[Tournament]:
    return enumerate_regular_tournaments(n)


def parse_tournament(desc: str) -> Tournament:
    """Tournament descriptors: circulant:N:e1,e2  standard:N  paley:Q
    enum:N:I (class I of enumerate_regular_tournaments(N))  adj:PATH.

    A tournament of more than cons.MAX_VERTICES vertices is refused before
    it is built or certified; each builder checks the size of the graph it
    builds.
    """
    kind, _, rest = desc.partition(":")
    if kind not in ("circulant", "standard", "paley", "enum", "adj"):
        raise InputError(f"unknown tournament descriptor kind {kind!r} "
                         f"(use circulant/standard/paley/enum/adj)")
    try:
        if kind == "adj":
            adj = read_adj(rest)
            cons.check_vertex_cap(adj.n)
            return Tournament(adj)
        n_text, _, tail = rest.partition(":")
        n = int(rest if kind in ("standard", "paley") else n_text)
        cons.check_vertex_cap(n)
        if kind == "circulant":
            return circulant_tournament(n, {int(e) for e in tail.split(",") if e})
        if kind == "standard":
            return circulant_tournament(n, set(range(1, (n + 1) // 2)))
        if kind == "paley":
            return paley_tournament(n)
        i = int(tail)
        classes = _classes(n)
        if not 0 <= i < len(classes):
            raise ValueError(f"no class {i} among the {len(classes)} of order {n}")
        return classes[i]
    except iso.BoundExceeded:
        raise
    except (ValueError, OSError) as exc:
        raise InputError(f"bad tournament descriptor {desc!r}: {exc}") from exc


def parse_perm(spec: str, n: int) -> PermSpec:
    if spec == "reversal":
        return PermSpec.reversal(n)
    try:
        perm = PermSpec(tuple(int(x) for x in spec.split(",")))
        if len(perm) != n:
            raise ValueError(f"{len(perm)} images for order {n}")
    except ValueError as exc:
        raise InputError(f"bad permutation {spec!r}: {exc}") from exc
    return perm


def parse_group(desc: str, scan: bool = False) -> grp.GroupTable:
    """Group descriptors: cyclic:N  dihedral:N  symmetric:N.

    For a scan, a group of more than groups.SCAN_BOUND elements (N, 2N or
    N!) is refused before its table is built; symmetric_group refuses an N
    outside 1..5 itself, before N! is taken."""
    kind, _, rest = desc.partition(":")
    if kind not in ("cyclic", "dihedral", "symmetric"):
        raise InputError(f"unknown group descriptor kind {kind!r} "
                         f"(use cyclic/dihedral/symmetric)")
    try:
        n = int(rest)
        if scan and (kind != "symmetric" or 1 <= n <= 5):
            grp._check_scan_bound(math.factorial(n) if kind == "symmetric"
                                  else 2 * n if kind == "dihedral" else n)
        return getattr(grp, f"{kind}_group")(n)
    except iso.BoundExceeded:
        raise
    except ValueError as exc:
        raise InputError(f"bad group descriptor {desc!r}: {exc}") from exc


# -- construct: one table row per catalog method tag ------------------------


def _pq(t_desc: str, images: str) -> cons.ConstructionResult:
    t = parse_tournament(t_desc)
    return cons.pq_dsrg(t, parse_perm(images, t.order), t_desc)


def _kron(base_desc: str, m: str, side: str) -> cons.ConstructionResult:
    levels = 1 + len(re.match(r"(?:kron\()*", base_desc)[0]) // len("kron(")
    if 2 ** levels > cons.MAX_VERTICES:  # refused before recursing
        raise iso.BoundExceeded(
            f"{levels} nested kron levels give at least 2^{levels} "
            f"vertices, above the cap {cons.MAX_VERTICES}")
    method, _, inner = base_desc.partition("(")
    if base_desc.startswith("adj:"):
        base = read_adj(base_desc[4:])
    elif method in METHODS and inner.endswith(")"):
        base = construct(method, inner[:-1]).adj
    else:
        raise InputError(f"bad kron base {base_desc!r} "
                         f"(use adj:PATH or METHOD(DESCRIPTOR))")
    return cons.kronecker_expand(base, int(m), side, base_desc)


def _qr(q: str, sigma1: str | None, sigma2: str, s_set: str):
    if sigma1 is None:  # q=Q alone: the first triple of qr_search
        return cons.qr_dsrg(int(q), *cons.qr_search(int(q))[0])
    return cons.qr_dsrg(int(q), int(sigma1), int(sigma2),
                        map(int, s_set.split(",")))


def _cayley(group_desc: str, names: str) -> cons.ConstructionResult:
    group = parse_group(group_desc)
    if not set(names.split(",")) <= set(group.names):
        raise InputError(f"bad connection set {names!r}: the elements of "
                         f"{group_desc} are {','.join(group.names)}")
    conn = frozenset(map(group.index_of, names.split(",")))
    return grp.cayley_dsrg(grp.CayleySpec(group, conn), group_desc)


# catalog method tag -> (grammar of the input the catalog prints after it, as
# a pattern that re compiles on first use, builder of the pattern's groups)
METHODS: dict[str, tuple[str, str, Callable[..., cons.ConstructionResult]]] = {
    "duval_B": ("T", "(.*)", lambda t: cons.duval_b(parse_tournament(t), t)),
    "duval_C": ("T", "(.*)", lambda t: cons.duval_c(parse_tournament(t), t)),
    "m_of": ("T", "(.*)", lambda t: cons.m_construction(
        parse_tournament(t), t)),
    "wide": ("T,w=W", r"(.+),w=(-?\d+)", lambda t, w: cons.wide_blocks(
        parse_tournament(t), int(w), t)),
    "tall": ("T,w=W", r"(.+),w=(-?\d+)", lambda t, w: cons.tall_blocks(
        parse_tournament(t), int(w), t)),
    "lem5": ("T", "(.*)", lambda t: cons.team_dsrg(parse_tournament(t), t)),
    "lem6": ("T", "(.*)", lambda t: cons.bordered_team_dsrg(
        parse_tournament(t), t)),
    "lem7": ("s=S", r"s=(-?\d+)", lambda s: cons.cycle_sum_dsrg(int(s))),
    "qr": ("q=Q or q=Q,sigma1=A,sigma2=B,S={r1,r2,...}",
           r"q=(-?\d+)(?:,sigma1=(-?\d+),sigma2=(-?\d+),"
           r"S=\{(-?\d+(?:,-?\d+)*)\})?", _qr),
    "pq": ("T,p=reversal|i0,i1,...", "(.+),p=(.+)", _pq),
    "kron": ("BASE,m=M,left|right", r"(.+),m=(-?\d+),(left|right)", _kron),
    "cayley": ("GROUP,S={name1,name2,...}", r"([^,]*),S=\{(.*)\}", _cayley),
    "hobart_shaw": ("lam=L,even|odd", r"lam=(-?\d+),(even|odd)",
                    lambda lam, parity: grp.hobart_shaw(int(lam), parity)),
}


def construct(method: str, desc: str) -> cons.ConstructionResult:
    """Build the graph of the catalog header ``method desc``."""
    grammar, pattern, build = METHODS[method]
    match = re.fullmatch(pattern, desc)
    if match is None:
        raise InputError(f"bad {method} descriptor {desc!r} (use {grammar})")
    return build(*match.groups())


def cmd_construct(args: argparse.Namespace) -> int:
    result = construct(args.method, args.descriptor)
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
    # one write per n; sys.stdout is read at each write, so a redirect holds
    for n, batch in _feasible_batches(args.max_n):
        sys.stdout.write("".join(f"{n} {k} {t} {lam} {mu}\n"
                                 for k, t, lam, mu in batch))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    if args.bound < 1:
        raise InputError(f"--bound must be at least 1, got {args.bound}")
    mats = [read_adj(path) for path in args.paths]
    for cert, members in iso.classify(mats, args.bound):
        print(f"{cert.cert_hash}: {' '.join(args.paths[i] for i in members)}")
    return 0


def cmd_tournaments(args: argparse.Namespace) -> int:
    # not _classes: each call enumerates, which bench's tournaments workload
    # times by calling main repeatedly in one process
    reps = enumerate_regular_tournaments(args.n)
    print(f"order={args.n} classes={len(reps)}")
    for t in reps:
        # t.adj is already canonical, and canonical_form is idempotent
        print(iso._cert_hash(t.adj), *t.adj.row_strings(), "", sep="\n")
    return 0


def cmd_cayley_scan(args: argparse.Namespace) -> int:
    group = parse_group(args.group, scan=True)
    for conn, params in grp.cayley_subset_scan(group):
        names = ",".join(group.names[s] for s in sorted(conn))
        print(f"{{{names}}} {params}")
    return 0


def cmd_qr_search(args: argparse.Namespace) -> int:
    for s1, s2, s_set in cons.qr_search(args.q):
        print(f"{s1} {s2} {','.join(map(str, sorted(s_set)))}")
    return 0


def cmd_pq_search(args: argparse.Namespace) -> int:
    for p in cons.pq_search(parse_tournament(args.tournament)):
        print(",".join(map(str, p.images)))
    return 0


# -- catalog -----------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry(cons.ConstructionResult):
    cert_hash: str


def _tournament_sources(max_n: int) -> Iterator[str]:
    """The descriptor of each regular tournament of an order N up to 17 whose
    smallest graph (2N vertices) fits in max_n: every class up to order 7
    (enum:N:I), then standard:N and, for a prime N = 3 (mod 4), paley:N."""
    for order in range(3, min(17, max_n // 2) + 1, 2):
        if order <= 7:
            yield from (f"enum:{order}:{i}" for i in range(len(_classes(order))))
        else:
            yield f"standard:{order}"
            if is_prime(order) and order % 4 == 3:
                yield f"paley:{order}"


def catalog_inputs(max_n: int) -> Iterator[tuple[str, str]]:
    """The (method, descriptor) of every catalog route up to max_n vertices,
    in the sweep's order: over each source tournament T duval_B, duval_C,
    m_of, then per w the wide pattern as kron(duval_B(T), w, left) and
    tall(T, w), then lem6, lem5 (T doubly regular) and pq (T's first
    involution); then lem7, qr, cayley and Hobart-Shaw."""
    for label in _tournament_sources(max_n):
        t = parse_tournament(label)
        yield from (("duval_B", label), ("duval_C", label), ("m_of", label))
        for w in range(2, max_n // (2 * t.order) + 1):
            # J_w x duval_B(T) is wide_blocks(T, w); duval_B(T) x J_w relabels it
            yield "kron", f"duval_B({label}),m={w},left"
            yield "tall", f"{label},w={w}"
        if 4 * (t.order + 1) <= max_n:
            yield "lem6", label
            if is_doubly_regular_tournament(t) is not None:
                yield "lem5", label
        if t.order <= cons.PQ_SEARCH_BOUND:
            for p in cons.pq_search(t)[:1]:
                yield "pq", f"{label},p={','.join(map(str, p.images))}"
    yield from (("lem7", f"s={s}") for s in range(1, (max_n - 4) // 4 + 1))
    yield from (("qr", f"q={q}") for q in (5, 13, 17) if 2 * q <= max_n)
    if 6 <= max_n:
        yield "cayley", "symmetric:3,S={(12),(123)}"
    for lam in range(2, max_n // 4 + 1):
        yield "hobart_shaw", f"lam={lam},even"
    for lam in range(1, (max_n - 2) // 4 + 1):
        yield "hobart_shaw", f"lam={lam},odd"


def all_construction_results(max_n: int,
                             failures: list[str] | None = None
                             ) -> list[cons.ConstructionResult]:
    """construct(method, desc) for each input of catalog_inputs(max_n), in
    its order, one route per graph.  The sources stop at order 17 whatever
    max_n is, so no route builds (38, 18, 9, 8, 9), (42, 20, 10, 9, 10) or
    (46, 22, 11, 10, 11) into catalog 48.  qr is tried only for q in (5,
    13, 17), so from max_n = 58 on the primes q = 29, 37 and 41 are skipped,
    and no route builds (58, 28, 14, 13, 14), (74, 36, 18, 17, 18) or (82,
    40, 20, 19, 20) into catalog 96.

    A construction that rejects its input is recorded in ``failures``
    (when given) as ``METHOD(DESCRIPTOR): reason``, which ``dsrg construct
    METHOD DESCRIPTOR`` reruns, instead of aborting the run.
    """
    results: list[cons.ConstructionResult] = []
    for method, desc in catalog_inputs(max_n):
        try:
            results.append(construct(method, desc))
        except ValueError as exc:
            if failures is None:
                raise
            failures.append(f"{method}({desc}): {exc}")
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
    return [CatalogEntry(**vars(results[i]), cert_hash=cert_hash)
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

    Records are separated by blank lines; the last one needs none.  A
    record that does not parse, or whose matrix is not a DSRG, is refused
    with its header's line number.
    """
    text = Path(path).read_text(encoding="ascii")
    entries = []
    block: list[str] = []
    for number, line in enumerate(text.split("\n") + [""], 1):
        if line:
            block.append(line)
            continue
        if not block:
            continue
        try:
            method, descriptor, n, k, t, lam, mu, cert_hash = \
                block[0].split(" ")
            expected = DsrgParams(int(n), int(k), int(t), int(lam), int(mu))
            adj = BinMatrix.from_strings(block[1:])
            params = verify_dsrg(adj)
        except (ValueError, NotDsrg) as exc:
            raise ValueError(f"catalog record at line "
                             f"{number - len(block)}: {exc}") from exc
        if params != expected:
            raise ValueError(f"catalog entry {block[0]!r} re-verifies as {params}")
        recomputed = canonical_form(adj, adj.n).cert_hash
        if recomputed != cert_hash:
            raise ValueError(
                f"catalog entry {block[0]!r} hash mismatch; catalogs written "
                f"before certificate version {CERT_VERSION} must be rebuilt")
        entries.append(CatalogEntry(method, descriptor, adj, params, cert_hash))
        block = []
    return entries


def cmd_catalog(args: argparse.Namespace) -> int:
    _check_max_n(args.max_n, CATALOG_MAX_N, "catalog cap")
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
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build one graph and print its parameters")
    c.add_argument("method", choices=list(METHODS))
    c.add_argument("descriptor", help="the input as a catalog header prints "
                                      "it, e.g. circulant:5:1,2 or s=2")
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
    cl.add_argument("--bound", type=int, default=iso.DEFAULT_BOUND,
                    help="order bound for isomorphism computations")
    cl.set_defaults(handler=cmd_classify)

    ca = sub.add_parser("catalog", help="run all constructions and write a catalog")
    ca.add_argument("max_n", type=int)
    ca.add_argument("-o", "--output", help="catalog file path")
    ca.set_defaults(handler=cmd_catalog)

    tn = sub.add_parser("tournaments", help="enumerate regular tournaments")
    tn.add_argument("--n", type=int, required=True)
    tn.set_defaults(handler=cmd_tournaments)

    cs = sub.add_parser("cayley-scan", help="scan connection sets of a group")
    cs.add_argument("--group", required=True)
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
