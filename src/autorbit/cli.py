"""Command-line surface: group reports, verification suites, and the
reproduction of the desk-scale numeric table.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 resource/limit.
AUTORBIT_THREADS caps suite parallelism.  All reports are JSON with exact
fractions as "p/q" strings."""

from __future__ import annotations

import argparse
import json
import sys
import threading
from fractions import Fraction

import numpy as np

from . import catalog
from . import multinomial as mn
from . import stypes
from . import wreath
from .autgrp import automorphism_group, inner_automorphism_ids, maol
from .catalog import BadParameter
from .fields import _is_prime
from .permcore import (DegreeMismatch, FiniteGroup, ResourceLimit, conjugacy_classes,
                       load_group_file, mcs)
from .reports import (FAIL, PASS, ReportItem, SuiteRunner,
                      VerificationReport, encode_value, print_report, write_text)

RESOURCE_ERRORS = ResourceLimit

SLOW_HP_SPACE = 200_000  # wreath orders above this need --slow

NONSOLVABLE_LIST = ["alt5", "psl(3,2)", "alt6", "psl(2,8)", "sym5", "sym6", "pgl(2,7)"]


def resolve_group(spec: str, limit: int) -> FiniteGroup:
    if spec.startswith("name:"):
        return catalog.resolve(spec[5:], limit=limit)
    if spec.startswith("file:"):
        try:
            return load_group_file(spec[5:])
        except (OSError, KeyError, TypeError, ValueError, DegreeMismatch) as exc:
            raise BadParameter(f"cannot read group file {spec[5:]!r}: {exc!r}") from exc
    raise BadParameter(f"group spec must start with 'name:' or 'file:', got {spec!r}")


def _is_psl34(name: str) -> bool:
    return name.replace(" ", "").lower() in ("psl(3,4)", "psl34")


def aut_pair(name: str, limit: int, budget: int) -> tuple[FiniteGroup, np.ndarray]:
    """(Aut(S) as a permutation group, ids of the socle S inside it).
    PSL_3(4) uses the geometric construction; everything else goes through
    the Cayley-table search."""
    if _is_psl34(name):
        A = catalog.extended_aut_psl34(limit=limit)
        return A, catalog.psl34_socle_ids(A)
    S = catalog.resolve(name, limit=limit)
    A = automorphism_group(S, budget=budget)
    return A.group, inner_automorphism_ids(A)


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
        "group": G.name, "order": G.order, "numClasses": len(table.classes),
        "classSizes": sorted(table.sizes, reverse=True),
    }))
    return 0


def cmd_maol(args) -> int:
    G = resolve_group(args.group, args.max_order)
    A = automorphism_group(G, budget=args.max_nodes)
    report = maol(G, A)
    out = report.to_json()
    out["autOrder"] = A.order
    print(json.dumps(out))
    return 0


def cmd_aut(args) -> int:
    G = resolve_group(args.group, args.max_order)
    A = automorphism_group(G, budget=args.max_nodes)
    payload = {
        "group": G.name,
        "order": G.order,
        "autOrder": A.order,
        "generators": [g.images.tolist() for g in A.group.generators],
        "automorphisms": [row.tolist() for row in A.group.elements],
    }
    write_text(args.out, json.dumps(payload))
    print(json.dumps({"written": args.out, "autOrder": A.order}))
    return 0


def _check_simple(S: FiniteGroup):
    """Usage error unless S is nonabelian and each nonidentity class generates all of S."""
    table = conjugacy_classes(S)
    if len(table.classes) == S.order or any(
            S.subgroup_closure(cls).size < S.order for cls in table.classes[1:]):
        raise BadParameter(f"{S.name} is not a nonabelian simple group")


def cmd_h(args) -> int:
    name = _strip_name(args.simple)
    _check_simple(catalog.resolve("psl(3,4)" if _is_psl34(name) else name, args.max_order))
    A, socle = aut_pair(name, args.max_order, args.max_nodes)
    table = stypes.class_type_table(A, socle)
    payload = {
        "order": int(socle.size),
        "autOrder": A.order,
        "outOrder": table.out.order,
        "classes": [
            {"size": int(table.classes.sizes[c]),
             "type": int(table.type_of_class[c]),
             "rho": encode_value(table.rho[c])}
            for c in range(table.n_classes)
        ],
        "h": encode_value(table.h()),
    }
    print(json.dumps(payload))
    return 0


def _strip_name(spec: str) -> str:
    return spec[5:] if spec.startswith("name:") else spec


def cmd_construct_hp(args) -> int:
    if not _is_prime(args.p):
        raise BadParameter(f"--p must be a prime, got {args.p}")
    S = catalog.resolve(_strip_name(args.simple), limit=args.max_order)
    A = automorphism_group(S, budget=args.max_nodes)
    sigma_space = A.order ** args.p * args.p
    if sigma_space > SLOW_HP_SPACE and not args.slow:
        print(f"H_{args.p} sweep space is {sigma_space}; rerun with --slow",
              file=sys.stderr)
        return 3
    hp = wreath.build_hp(S, A, args.p)
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
    every element (--exhaustive) or seeded pairs (--samples)."""
    base = resolve_group(args.base, args.max_order)
    wg = wreath.WreathGroup(base, args.n)
    rep = VerificationReport(
        "wreath", seed=None if args.exhaustive else args.seed)
    classes = wg.class_codes(limit=args.max_order)
    if args.exhaustive:
        labels = wg.profile_labels(np.arange(wg.order))
        n_classes, n_labels = np.unique(classes).size, np.unique(labels).size
        same = np.unique(classes * wg.order + labels).size == n_classes == n_labels
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
    cache: dict = {}
    lock = threading.Lock()  # one computation per name under AUTORBIT_THREADS

    def aut_of(name: str):
        with lock:
            if name not in cache:
                cache[name] = aut_pair(name, limit, budget)
            return cache[name]

    runner.add("mcs-sym5", 4, lambda: mcs(catalog.resolve("sym5")))
    runner.add("mcs-aut-alt6", 6, lambda: mcs(aut_of("alt6")[0]))
    runner.add("h-alt5", "1/2",
               lambda: encode_value(stypes.h_value(*aut_of("alt5"))))
    runner.add("h-alt6", "3/4",
               lambda: encode_value(stypes.h_value(*aut_of("alt6"))))
    runner.add("mcs-pgl(2,3)", 3, lambda: mcs(catalog.resolve("pgl(2,3)")))
    runner.add("mcs-pgl(3,2)", 3, lambda: mcs(catalog.resolve("pgl(3,2)")))
    runner.add("mcs-pgu(3,2)", None, lambda: mcs(catalog.resolve("pgu(3,2)")))
    runner.add("mcs-pgl(3,4)", 12, lambda: mcs(catalog.resolve("pgl(3,4)", limit=limit)))
    runner.add("mcs-pgu(3,4)", 13, lambda: mcs(catalog.resolve("pgu(3,4)", limit=limit)))
    runner.add("mcs-pgl(4,2)", 6, lambda: mcs(catalog.resolve("pgl(4,2)", limit=limit)))
    runner.add("mcs-pgu(4,2)", 5, lambda: mcs(catalog.resolve("pgu(4,2)", limit=limit)))
    runner.add("maol-psl(2,8)", "3/7", lambda: encode_value(
        maol(catalog.resolve("psl(2,8)"),
             automorphism_group(catalog.resolve("psl(2,8)"), budget=budget)).maol))

    def psl34_class():
        A, _ = aut_of("psl(3,4)")
        table = conjugacy_classes(A)
        return {"autOrder": A.order, "largestClass": max(table.sizes)}

    runner.add("aut-psl(3,4)-largest-class",
               {"autOrder": 241920, "largestClass": 24192}, psl34_class)
    runner.add("maol-extraspecial27", "2/3", lambda: encode_value(
        maol(catalog.resolve("extraspecial(3)"),
             automorphism_group(catalog.resolve("extraspecial(3)"), budget=budget)).maol))
    return runner.run()


def nonsolvable_suite(args) -> VerificationReport:
    runner = SuiteRunner("nonsolvable-bound", time_limit_s=args.time_limit_s)
    for name in NONSOLVABLE_LIST:
        def check(name=name):
            S = catalog.resolve(name, limit=args.max_order)
            A = automorphism_group(S, budget=args.max_nodes)
            m = maol(S, A).maol
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
    p.add_argument("--max-order", type=int, default=2_000_000,
                   help="group enumeration limit (default 2000000)")
    p.add_argument("--max-nodes", type=int, default=2_000_000,
                   help="automorphism search budget in maps built (default 2000000)")
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
    sp.add_argument("--simple", required=True, help="name:<id> of a simple group")
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
    sp.add_argument("--n", type=int, default=2, help="wreath suite: top degree")
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--samples", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write the JSON report here as well")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog":
        args.func = cmd_catalog_list
    if args.command == "verify" and args.suite == "wreath":
        if not args.exhaustive and args.samples <= 0:
            parser.error("wreath suite needs --exhaustive or --samples N")
        if args.base is None:
            parser.error("wreath suite needs --base")
    try:
        return args.func(args)
    except RESOURCE_ERRORS as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except BadParameter as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
