"""Command-line surface: group reports, verification suites, and the
reproduction of the desk-scale numeric table.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 resource/limit.
Suite items run one after another; reports are ordered by item id.  All
reports are JSON with exact fractions as "p/q" strings."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable

import numpy as np

from . import catalog
from . import multinomial as mn
from . import stypes
from . import wreath
from .autgrp import DEFAULT_NODE_BUDGET, Aut, OrbitReport, automorphism_group, inner_rows, maol
from .fields import _is_prime
from .permcore import (DEFAULT_CLOSURE_LIMIT, BadParameter, ClosureLimitExceeded, FiniteGroup,
                       ResourceLimit, TooLarge, _check_degree, close_group, conjugacy_classes,
                       load_group_file, mcs, schreier_sims, size_text)
from .reports import (FAIL, PASS, ReportItem, SuiteRunner,
                      VerificationReport, encode_value, print_report, write_text)

SLOW_HP_SPACE = 200_000  # wreath orders above this need --slow

NONSOLVABLE_LIST = ["alt5", "psl(3,2)", "alt6", "psl(2,8)", "sym5", "sym6", "pgl(2,7)"]


def resolve_group(spec: str, limit: int) -> FiniteGroup:
    if spec.startswith("name:"):
        return catalog.resolve(spec[5:], limit=limit)
    if spec.startswith("file:"):
        try:
            return load_group_file(spec[5:], limit)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise BadParameter(f"cannot read group file {spec[5:]!r}: {exc!r}") from exc
    raise BadParameter(f"group spec must start with 'name:' or 'file:', got {spec!r}")


def construct_or_group(spec: str, limit: int) -> catalog.AlmostSimple | FiniteGroup:
    """The one construct-or-search choice: G with Aut(S)'s generator rows,
    not closed, for a `name:` that `catalog.almost_simple` covers; otherwise
    G itself, whose Aut(G) comes from the search.  `limit` bounds G."""
    if spec.startswith("name:"):
        return catalog.almost_simple(spec[5:], limit) or resolve_group(spec, limit)
    return resolve_group(spec, limit)


def maol_report(spec: str, limit: int, budget: int) -> tuple[OrbitReport, int]:
    """G's Aut(G)-orbit report and |Aut(G)|.  For a built G, G's classes fused
    by Aut(S)'s generators (`stypes.fuse`, which refuses one that does not normalize
    G) and |Aut(S)| = |N_Aut(S)(G)| by formula, with no closure of Aut(S);
    otherwise the searched Aut(G)'s orbits."""
    G = construct_or_group(spec, limit)
    if isinstance(G, FiniteGroup):
        A = automorphism_group(G, budget=budget)
        return maol(G, A), A.order
    table, one = conjugacy_classes(G.group), np.arange(G.aut_rows.shape[1])
    fused = stypes.fuse(G.group, table.least, table.class_of, one, G.aut_rows, G.lift)
    sizes = np.bincount(fused[table.class_of]).tolist()  # the members of each fused orbit
    return OrbitReport(G.group.name, sorted(sizes, reverse=True)), G.aut_order


# -- simple subcommands -------------------------------------------------------

def cmd_catalog_list(args) -> int:
    from math import factorial
    rows = [("name pattern", "description", "example"), ("-" * 12, "-" * 11, "-" * 7)]
    rows += [(p, d, e) for p, d, e in catalog.CATALOG_ENTRIES]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for r in rows:
        print("  ".join(x.ljust(w) for x, w in zip(r, widths)))
    named = [
        ("sym5", factorial(5)), ("sym6", factorial(6)),
        ("alt5", factorial(5) // 2), ("alt6", factorial(6) // 2),
        ("cyclic12", 12), ("extraspecial(3)", 27),
        ("psl(2,8)", catalog.projective_order("SL", 2, 8)),
        ("psl(3,2)", catalog.projective_order("SL", 3, 2)),
        ("psl(3,4)", catalog.projective_order("SL", 3, 4)),
        ("pgl(2,3)", catalog.projective_order("GL", 2, 3)),
        ("pgl(2,7)", catalog.projective_order("GL", 2, 7)),
        ("pgl(3,4)", catalog.projective_order("GL", 3, 4)),
        ("pgl(4,2)", catalog.projective_order("GL", 4, 2)),
        ("pgu(3,2)", catalog.projective_order("GU", 3, 2)),
        ("pgu(3,4)", catalog.projective_order("GU", 3, 4)),
        ("pgu(4,2)", catalog.projective_order("GU", 4, 2)),
        ("autpsl34", 241920),
    ]
    print("\nselected instances:")
    for n, order in named:
        print(f"  {n:16} order {order}")
    return 0


def cmd_mcs(args) -> int:
    G = resolve_group(args.group, args.max_order)
    print(json.dumps({"group": G.name, "order": G.order, "mcs": mcs(G)}))
    return 0


def cmd_classes(args) -> int:
    G = resolve_group(args.group, args.max_order)
    table = conjugacy_classes(G)
    print(json.dumps({
        "group": G.name, "order": G.order, "numClasses": len(table.least),
        "classSizes": sorted(table.sizes, reverse=True),
    }))
    return 0


def cmd_maol(args) -> int:
    report, aut_order = maol_report(args.group, args.max_order, args.max_nodes)
    print(json.dumps({**report.to_json(), "autOrder": aut_order}))
    return 0


def cmd_aut(args) -> int:
    G = resolve_group(args.group, args.max_order)
    A = automorphism_group(G, budget=args.max_nodes)
    payload = {
        "group": G.name,
        "order": G.order,
        "autOrder": A.order,
        "generators": A.rows.tolist(),
        "automorphisms": [row.tolist() for row in close_group(A.rows, order=A.order).elements],
    }
    write_text(args.out, json.dumps(payload))
    print(json.dumps({"written": args.out, "autOrder": A.order}))
    return 0


def _check_simple(G: catalog.AlmostSimple | FiniteGroup):
    """Usage error unless G is nonabelian simple: a built G has order |S|; a searched G is
    nonabelian and each nonidentity class's rows generate G (`_generates`), else their normal
    closure is a proper normal subgroup."""
    if isinstance(G, FiniteGroup):
        table = conjugacy_classes(G)
        simple = len(table.least) < G.order and all(
            _generates(G.elements[cls], G.order) for cls in table.classes[1:])
    else:
        G, simple = G.group, G.group.order == G.socle_order
    if not simple:
        raise BadParameter(f"{G.name} is not a nonabelian simple group")


def _generates(rows: np.ndarray, order: int) -> bool:
    """Whether members `rows` of a group of order `order` generate it: their chain's orbit-length
    product never passes `order`, so at the limit `order` - 1 it stops the moment it gets there."""
    try:
        schreier_sims(rows, order - 1)
    except ClosureLimitExceeded:
        return True
    return False


def _simple_group(args) -> tuple[Aut, Callable[[], catalog.AlmostSimple]]:
    """Aut(S)'s rows and order for --simple S, a `file:` or a name (a bare one too), once S is
    checked simple, and a call giving S <= G <= Aut(S) for `h`: built (`construct_or_group`), or
    searched, G then Inn(S) on S's ids, closed from `inner_rows` only when called."""
    simple = args.simple
    spec = simple if simple.startswith("file:") else "name:" + simple.removeprefix("name:")
    G = construct_or_group(spec, args.max_order)
    _check_simple(G)
    if isinstance(G, FiniteGroup):
        A = automorphism_group(G, budget=args.max_nodes)
        return A, lambda: catalog.AlmostSimple(close_group(inner_rows(G), order=G.order),
                                               A.rows, A.order, G.order)
    return Aut(G.aut_rows, G.aut_order), lambda: G


def cmd_h(args) -> int:
    A, almost_simple = _simple_group(args)
    S = almost_simple()
    table = stypes.coset_classes(S, numbered=True)
    payload = {
        "order": S.group.order,
        "autOrder": A.order,
        "outOrder": table.out.order,
        "classes": [{"size": size, "type": tau, "rho": encode_value(rho)}
                    for size, tau, rho in zip(table.sizes, table.types, table.rho)],
        "h": encode_value(max(table.rho)),
    }
    print(json.dumps(payload))
    return 0


def cmd_construct_hp(args) -> int:
    _check_degree(args.p)  # the top group acts on p points; before the loop over p
    if not _is_prime(args.p):
        raise BadParameter(f"--p must be a prime, got {args.p}")
    A = _simple_group(args)[0]  # S itself is not held past the search
    sigma_space = A.order ** args.p * args.p  # before Aut(S) is closed
    if sigma_space > SLOW_HP_SPACE and not args.slow:
        raise TooLarge(f"H_{args.p} sweep space is {size_text(sigma_space)}; rerun with --slow")
    hp = wreath.build_hp(close_group(A.rows, order=A.order), args.p)
    print(json.dumps(hp.to_json()))
    return 0


# -- verification suites ------------------------------------------------------

def verify_lemma3(args) -> VerificationReport:
    rep = VerificationReport("lemma3")
    result = mn.verify_lemma3_grids()
    status = PASS if not result["violations"] else FAIL
    rep.items.append(ReportItem("lemma3-grids", [], result["violations"], status, 0,
                                note=f"checked {result['checked']} compositions"))
    return rep


def verify_pmf(args) -> VerificationReport:
    if args.samples:
        result = mn.pmf_bound_check("random", samples=args.samples, seed=args.seed)
        rep = VerificationReport("pmf", seed=args.seed)
    else:
        result = mn.pmf_bound_check("exhaustive")
        rep = VerificationReport("pmf")
    status = PASS if not result["violations"] else FAIL
    rep.items.append(ReportItem("pmf-vs-max-rho", [], result["violations"], status, 0,
                                note=f"checked {result['checked']} cases"))
    return rep


def verify_wreath(args) -> VerificationReport:
    """Brute-force classes against the bcpc profiles of `profile_labels`:
    every element (--exhaustive) or seeded pairs (--samples), whose draws
    must fit DEFAULT_ORBIT_SPACE cells."""
    draws = 0 if args.exhaustive else 2 * args.samples * (args.n + 1)
    if draws > wreath.DEFAULT_ORBIT_SPACE:
        raise TooLarge(f"{args.samples} sampled pairs take {size_text(draws)} draws, "
                       f"over {wreath.DEFAULT_ORBIT_SPACE}")
    base = resolve_group(args.base, args.max_order)
    wg = wreath.WreathGroup(base, args.n)
    rep = VerificationReport(
        "wreath", seed=None if args.exhaustive else args.seed)
    classes = wg.class_codes(limit=args.max_order)
    if args.exhaustive:
        labels = wg.profile_labels(np.arange(wg.order))
        n_classes, n_labels = _distinct(classes), _distinct(labels)
        same = _distinct(classes * wg.order + labels) == n_classes == n_labels
        note = (f"order {wg.order}, {n_classes} classes" if same
                else f"counterexamples: {_mismatched_blocks(classes, labels)[:3]}")
        rep.items.append(ReportItem("partition-equality", True, same,
                                    PASS if same else FAIL, 0, note=note))
    else:
        codes = wg.random_codes(np.random.default_rng(args.seed), 2 * args.samples)
        labels, cls = wg.profile_labels(codes), classes[codes]
        wrong = (labels[0::2] == labels[1::2]) != (cls[0::2] == cls[1::2])
        bad = [{"v": int(v), "w": int(w)}
               for v, w in zip(codes[0::2][wrong], codes[1::2][wrong])]
        rep.items.append(ReportItem(
            "sampled-agreement", [], bad, PASS if not bad else FAIL, 0,
            note=f"{args.samples} seeded pairs"))
    return rep


def _distinct(codes: np.ndarray) -> int:
    """The number of distinct codes, by a sort and a compare of neighbours."""
    codes = np.sort(codes)
    return int(np.count_nonzero(codes[1:] != codes[:-1])) + (codes.size > 0)


def _mismatched_blocks(classes: np.ndarray, labels: np.ndarray) -> list:
    """The first four codes of each profile block that is not a class block,
    blocks in order of their first code.  A block is a class block iff its
    codes lie in one class and that class meets no other label."""
    nlab = int(labels.max()) + 1
    pair_class, pair_label = np.divmod(np.unique(classes * nlab + labels), nlab)
    bad = np.bincount(pair_label, minlength=nlab) > 1
    bad[pair_label[np.bincount(pair_class)[pair_class] > 1]] = True
    first = np.unique(labels, return_index=True)[1]
    bad_labels = sorted(np.flatnonzero(bad).tolist(), key=lambda l: first[l])
    return [np.flatnonzero(labels == l)[:4].tolist() for l in bad_labels]


def paper_table_suite(args) -> VerificationReport:
    runner = SuiteRunner("paper-table", time_limit_s=args.time_limit_s)
    limit, budget = args.max_order, args.max_nodes
    tables: dict = {}  # Aut(S)'s classes, computed once per name

    def aut_classes(name: str) -> stypes.CosetClasses:
        if name not in tables:
            tables[name] = stypes.coset_classes(catalog.almost_simple(name, limit))
        return tables[name]

    def mcs_of(name: str) -> int:
        return mcs(catalog.resolve(name, limit=limit))

    runner.add("mcs-sym5", 4, lambda: mcs_of("sym5"))
    runner.add("mcs-aut-alt6", 6,
               lambda: sum(aut_classes("alt6").sizes) // max(aut_classes("alt6").sizes))
    runner.add("h-alt5", "1/2", lambda: encode_value(max(aut_classes("alt5").rho)))
    runner.add("h-alt6", "3/4", lambda: encode_value(max(aut_classes("alt6").rho)))
    runner.add("mcs-pgl(2,3)", 3, lambda: mcs_of("pgl(2,3)"))
    runner.add("mcs-pgl(3,2)", 3, lambda: mcs_of("pgl(3,2)"))
    runner.add("mcs-pgu(3,2)", None, lambda: mcs_of("pgu(3,2)"))
    runner.add("mcs-pgl(3,4)", 12, lambda: mcs_of("pgl(3,4)"))
    runner.add("mcs-pgu(3,4)", 13, lambda: mcs_of("pgu(3,4)"))
    runner.add("mcs-pgl(4,2)", 6, lambda: mcs_of("pgl(4,2)"))
    runner.add("mcs-pgu(4,2)", 5, lambda: mcs_of("pgu(4,2)"))

    runner.add("maol-psl(2,8)", "3/7",
               lambda: encode_value(maol_report("name:psl(2,8)", limit, budget)[0].maol))

    def psl34_class():
        sizes = aut_classes("psl(3,4)").sizes
        return {"autOrder": sum(sizes), "largestClass": max(sizes)}

    runner.add("aut-psl(3,4)-largest-class",
               {"autOrder": 241920, "largestClass": 24192}, psl34_class)
    runner.add("maol-extraspecial27", "2/3",
               lambda: encode_value(maol_report("name:extraspecial(3)", limit, budget)[0].maol))
    return runner.run()


def nonsolvable_suite(args) -> VerificationReport:
    runner = SuiteRunner("nonsolvable-bound", time_limit_s=args.time_limit_s)
    for name in NONSOLVABLE_LIST:
        def check(name=name):
            m = maol_report(f"name:{name}", args.max_order, args.max_nodes)[0].maol
            return {"maol": encode_value(m),
                    "le_3_7": m <= Fraction(3, 7),
                    "le_18_19": m <= Fraction(18, 19)}
        runner.add(f"maol-bound-{name}", None, check)
    report = runner.run()
    for item in report.items:
        if item.status == PASS and isinstance(item.computed, dict):
            if not (item.computed["le_3_7"] and item.computed["le_18_19"]):
                item.status = FAIL
    return report


VERIFY_SUITES = {
    "lemma3": verify_lemma3,
    "pmf": verify_pmf,
    "wreath": verify_wreath,
    "paper-table": paper_table_suite,
    "nonsolvable-bound": nonsolvable_suite,
}


def cmd_verify(args) -> int:
    report = VERIFY_SUITES[args.suite](args)
    print_report(report, args.out)
    return report.exit_code


# -- argument parsing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="autorbit",
        description="finite-group automorphism-orbit engine: exact reports "
                    "and verification suites")
    p.add_argument("--max-order", type=int, default=DEFAULT_CLOSURE_LIMIT,
                   help=f"group enumeration limit (default {DEFAULT_CLOSURE_LIMIT})")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_BUDGET,
                   help="automorphism search budget in maps built "
                        f"(default {DEFAULT_NODE_BUDGET})")
    p.add_argument("--time-limit-s", type=float, default=None,
                   help="wall-clock budget for suites; over-budget items are skipped")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog", help="catalog operations")
    catsub = sp.add_subparsers(dest="catalog_command", required=True)
    catsub.add_parser("list", help="list named groups with orders")

    for name, fn in [("mcs", cmd_mcs), ("classes", cmd_classes), ("maol", cmd_maol)]:
        sp = sub.add_parser(name, help=f"{name} of a group")
        sp.add_argument("--group", required=True, help="name:<id> or file:<path>")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("aut", help="compute and persist Aut(G)")
    sp.add_argument("--group", required=True)
    sp.add_argument("--out", required=True, help="output JSON path")
    sp.set_defaults(func=cmd_aut)

    sp = sub.add_parser("h", help="S-type table and h(S) for a simple group")
    sp.add_argument("--simple", required=True, help="name:<id> or file:<path> of a simple group")
    sp.set_defaults(func=cmd_h)

    sp = sub.add_parser("construct", help="constructions")
    consub = sp.add_subparsers(dest="construct_command", required=True)
    hp = consub.add_parser("hp", help="Aut(S) wr C_p large-orbit construction")
    hp.add_argument("--simple", required=True)
    hp.add_argument("--p", type=int, required=True)
    hp.add_argument("--slow", action="store_true",
                    help="allow sweeps over more than %d elements" % SLOW_HP_SPACE)
    hp.set_defaults(func=cmd_construct_hp)

    sp = sub.add_parser("verify", help="verification suites")
    sp.add_argument("suite", choices=sorted(VERIFY_SUITES))
    sp.add_argument("--base", help="wreath suite: base group spec")
    sp.add_argument("--n", type=int, help="wreath suite: top degree (default 2)")
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int, help="with --samples N: the draws' seed (default 0)")
    sp.add_argument("--out", help="write the JSON report here as well")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog":
        args.func = cmd_catalog_list
    if min(args.max_order, args.max_nodes) < 1:
        parser.error("--max-order and --max-nodes must be at least 1")
    if args.time_limit_s is not None and not args.time_limit_s >= 0:  # NaN too
        parser.error("--time-limit-s must be a number >= 0")
    if args.command == "verify":  # a flag the chosen suite or mode would not read is refused
        for flag, given, suites in (("--samples", args.samples is not None, ("pmf", "wreath")),
                                    ("--exhaustive", args.exhaustive, ("pmf", "wreath")),
                                    ("--base", args.base is not None, ("wreath",)),
                                    ("--n", args.n is not None, ("wreath",))):
            if given and args.suite not in suites:
                parser.error(f"{flag} is not read by the {args.suite} suite")
        if args.samples is not None and args.samples < 1:
            parser.error("--samples must be at least 1")
        if args.exhaustive and args.samples is not None:
            parser.error(f"{args.suite} suite takes --exhaustive or --samples N, not both")
        if args.seed is not None and args.samples is None:
            parser.error("--seed is read only with --samples N")
        args.seed = args.seed or 0
        args.n = 2 if args.n is None else args.n
    if args.command == "verify" and args.suite == "wreath":
        if not args.exhaustive and args.samples is None:
            parser.error("wreath suite needs --exhaustive or --samples N")
        if args.base is None:
            parser.error("wreath suite needs --base")
        if args.seed < 0:
            parser.error("wreath suite needs a non-negative --seed")
        if args.n < 1:
            parser.error("wreath suite needs --n >= 1")
    try:
        return args.func(args)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except BadParameter as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
