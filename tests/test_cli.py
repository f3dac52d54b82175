import json
import sys
import time

import numpy as np
import pytest

from autorbit import catalog, cli, wreath
from autorbit.reports import (ReportItem, VerificationReport, encode_value,
                              report_from_json)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert "sym(n)" in out and "autpsl34" in out
    assert "order 241920" in out


def test_mcs(capsys):
    code, out, _ = run_cli(capsys, "mcs", "--group", "name:sym5")
    assert code == 0
    assert json.loads(out) == {"group": "sym5", "order": 120, "mcs": 4}


def test_classes(capsys):
    code, out, _ = run_cli(capsys, "classes", "--group", "name:sym3")
    assert code == 0
    data = json.loads(out)
    assert data["classSizes"] == [3, 2, 1]


def test_maol(capsys):
    code, out, _ = run_cli(capsys, "maol", "--group", "name:cyclic5")
    assert code == 0
    data = json.loads(out)
    assert data["maol"] == "4/5" and data["autOrder"] == 4


def test_h(capsys):
    code, out, _ = run_cli(capsys, "h", "--simple", "name:alt5")
    assert code == 0
    data = json.loads(out)
    assert data["h"] == "1/2"
    assert data["outOrder"] == 2
    assert sum(c["size"] for c in data["classes"]) == 120


def test_aut_persistence(tmp_path, capsys):
    out_path = tmp_path / "auts.json"
    code, out, _ = run_cli(capsys, "aut", "--group", "name:cyclic5",
                           "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["autOrder"] == 4
    assert len(data["automorphisms"]) == 4
    assert all(sorted(phi) == list(range(5)) for phi in data["automorphisms"])


def test_group_file_spec(tmp_path, capsys):
    path = tmp_path / "v4.json"
    path.write_text(json.dumps({"name": "v4", "degree": 4,
                                "generators": ["(1 2)(3 4)", "(1 3)(2 4)"]}))
    code, out, _ = run_cli(capsys, "mcs", "--group", f"file:{path}")
    assert code == 0
    assert json.loads(out)["order"] == 4


def test_construct_hp(capsys):
    code, out, _ = run_cli(capsys, "construct", "hp", "--simple", "name:alt5",
                           "--p", "2")
    assert code == 0
    data = json.loads(out)
    assert data == {"order": 28800, "predicted": 3600, "measured": 3600,
                    "maolLowerBound": "1/8"}


def test_construct_hp_needs_slow(capsys):
    code, _, err = run_cli(capsys, "construct", "hp", "--simple", "name:alt5",
                           "--p", "3")
    assert code == 3
    assert "--slow" in err


def test_verify_lemma3(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma3")
    assert code == 0
    assert "[PASS] lemma3-grids" in out


def test_verify_pmf_random(capsys):
    code, out, _ = run_cli(capsys, "verify", "pmf", "--samples", "200",
                           "--seed", "9")
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["seed"] == 9


def test_verify_wreath_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "verify", "wreath", "--base", "name:sym3",
                           "--n", "2", "--exhaustive")
    assert code == 0
    assert "[PASS] partition-equality" in out


def test_verify_wreath_sampled(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "verify", "wreath", "--base", "name:sym3",
                           "--n", "3", "--samples", "500", "--seed", "4",
                           "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["seed"] == 4
    assert payload["items"][0]["status"] == "pass"


def _merge_two_largest(codes):
    """Class codes with the two largest classes a < b merged into a."""
    a, b = sorted(np.argsort(np.bincount(codes), kind="stable")[-2:].tolist())
    merged = codes.copy()
    merged[merged == b] = a
    return merged, a, b


@pytest.fixture
def true_class_codes(monkeypatch):
    """Patch WreathGroup.class_codes to merge its two largest classes, and
    return the unpatched method."""
    real = wreath.WreathGroup.class_codes
    monkeypatch.setattr(wreath.WreathGroup, "class_codes",
                        lambda self, limit=wreath.DEFAULT_WREATH_LIMIT:
                        _merge_two_largest(real(self, limit=limit))[0])
    return real


def test_verify_wreath_exhaustive_fails_on_merged_classes(capsys, true_class_codes):
    code, out, _ = run_cli(capsys, "verify", "wreath", "--base", "name:sym3",
                           "--n", "2", "--exhaustive")
    assert code == 1
    assert "[FAIL] partition-equality" in out
    item = json.loads(out[out.index("\n{"):])["items"][0]
    assert item["status"] == "fail" and item["computed"] is False
    # the profile blocks that no longer match a class: the two merged ones
    truth = true_class_codes(wreath.WreathGroup(catalog.sym(3), 2))
    _, a, b = _merge_two_largest(truth)
    blocks = sorted(np.flatnonzero(truth == c).tolist() for c in (a, b))
    assert item["note"] == f"counterexamples: {[blk[:4] for blk in blocks]}"


def test_verify_wreath_sampled_lists_disagreeing_pairs(capsys, true_class_codes):
    code, out, _ = run_cli(capsys, "verify", "wreath", "--base", "name:sym3",
                           "--n", "2", "--samples", "300", "--seed", "4")
    assert code == 1
    item = json.loads(out[out.index("\n{"):])["items"][0]
    assert item["status"] == "fail"
    # the per-element oracle on the same draws, in draw order
    wg = wreath.WreathGroup(catalog.sym(3), 2)
    merged = wg.class_codes()
    rng = np.random.default_rng(4)
    expected = []
    for _ in range(300):
        v, w = wg.random_element(rng), wg.random_element(rng)
        pv, pw = wg.pack(v), wg.pack(w)
        if wreath.conj_test(wg, v, w) != (merged[pv] == merged[pw]):
            expected.append({"v": pv, "w": pw})
    assert expected
    assert item["computed"] == expected


def test_usage_errors(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "wreath", "--base", "name:sym3"])  # no mode
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "mcs", "--group", "name:nosuchthing")
    assert code == 2
    code, _, err = run_cli(capsys, "mcs", "--group", "plainname")
    assert code == 2
    for name in ("name:psl(2,1)", "name:pgl(3,1)", "name:psu(3,6)"):
        code, _, err = run_cli(capsys, "mcs", "--group", name)
        assert code == 2 and "usage error" in err and "not a prime power" in err
    monkeypatch.setattr(catalog, "resolve", lambda *a, **k: pytest.fail("group built"))
    for p_args in (["--p", "0"], ["--p", "-3"], ["--p", "1"], ["--p", "4", "--slow"]):
        code, out, err = run_cli(capsys, "construct", "hp", "--simple", "name:alt5", *p_args)
        assert code == 2 and out == "" and "usage error" in err and "must be a prime" in err


def test_h_needs_a_nonabelian_simple_group(capsys, monkeypatch):
    for name in ("cyclic5", "sym5"):
        code, out, err = run_cli(capsys, "h", "--simple", f"name:{name}")
        assert code == 2 and out == ""
        assert f"usage error: {name} is not a nonabelian simple group" in err
    code, out, _ = run_cli(capsys, "h", "--simple", "name:alt5")
    assert code == 0 and json.loads(out)["h"] == "1/2"
    # the check belongs to `h`; the shared Aut(S) route does not run it
    monkeypatch.setattr(cli, "_check_simple", lambda S: pytest.fail("checked"))
    A, socle = cli.aut_pair("sym5", 10_000, 10_000)
    assert (A.order, socle.size) == (120, 120)


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "missing" / "x.json")
    for argv in (["aut", "--group", "name:sym3", "--out", path],
                 ["--time-limit-s", "0", "verify", "paper-table", "--out", path]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "usage error: cannot write" in err and path in err


def test_malformed_group_files_are_usage_errors(tmp_path, capsys):
    specs = {
        "nodegree.json": json.dumps({"name": "x", "generators": ["(1 2)"]}),
        "badcycle.json": json.dumps({"degree": 4, "generators": ["(1 2"]}),
        "range.json": json.dumps({"degree": 4, "generators": ["(1 9)"]}),
        "notjson.json": "{degree: 4",
        "notobject.json": "[4]",
        "mixed.json": json.dumps({"degree": 4, "generators": [[1, 0, 2, 3], [1, 0, 2]]}),
    }
    for fname, text in specs.items():
        (tmp_path / fname).write_text(text)
    for fname in [*specs, "missing.json"]:
        code, _, err = run_cli(capsys, "mcs", "--group", f"file:{tmp_path / fname}")
        assert code == 2, fname
        assert "usage error" in err and fname in err


def test_degrees_beyond_the_point_dtype_are_resource_stops(tmp_path, capsys):
    code, _, err = run_cli(capsys, "mcs", "--group", "name:cyclic70000")
    assert code == 3 and "degree guard" in err
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"degree": 70000, "generators": ["(1 2)"]}))
    code, _, err = run_cli(capsys, "mcs", "--group", f"file:{path}")
    assert code == 3 and "degree guard" in err


def test_resource_exit_code(capsys):
    code, _, err = run_cli(capsys, "maol", "--group", "name:psl(3,4)")
    assert code == 3
    assert "resource limit" in err


def test_paper_table_limit_stops_are_skipped(capsys):
    # five items need groups of more than 1000 elements; the reference column
    # still fails h-alt6 and maol-extraspecial27, so the exit code stays 1
    code, out, _ = run_cli(capsys, "--max-order", "1000", "verify", "paper-table")
    assert code == 1
    payload = json.loads(out[out.index("{"):])
    by_status = {}
    for it in payload["items"]:
        by_status.setdefault(it["status"], {})[it["id"]] = it
    assert set(by_status["skipped"]) == {
        "mcs-pgl(3,4)", "mcs-pgu(3,4)", "mcs-pgl(4,2)", "mcs-pgu(4,2)",
        "aut-psl(3,4)-largest-class"}
    for it in by_status["skipped"].values():
        assert it["note"].startswith("resource limit") and "limit 1000" in it["note"]
        assert it["computed"] is None
    assert set(by_status["fail"]) == {"h-alt6", "maol-extraspecial27"}


def test_limit_stop_without_failure_exits_3(capsys):
    code, out, _ = run_cli(capsys, "--max-order", "200", "verify", "nonsolvable-bound")
    assert code == 3
    payload = json.loads(out[out.index("{"):])
    statuses = {it["id"]: it["status"] for it in payload["items"]}
    assert {k for k, v in statuses.items() if v == "skipped"} == {
        "maol-bound-alt6", "maol-bound-psl(2,8)", "maol-bound-sym6", "maol-bound-pgl(2,7)"}
    assert "fail" not in statuses.values()


def test_paper_table_computes_each_aut_once_under_threads(monkeypatch):
    calls = []

    def slow_aut_pair(name, limit, budget):
        calls.append(name)
        time.sleep(0.05)  # hold the window in which a second caller could start
        return catalog.sym(3), np.array([0])

    monkeypatch.setattr(cli, "aut_pair", slow_aut_pair)
    monkeypatch.setenv("AUTORBIT_THREADS", "8")
    args = cli.build_parser().parse_args(["--max-order", "100", "verify", "paper-table"])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = cli.paper_table_suite(args)
    finally:
        sys.setswitchinterval(interval)
    assert len(report.items) == 14
    assert sorted(calls) == ["alt5", "alt6", "psl(3,4)"]


def test_report_exit_codes():
    rep = VerificationReport("demo")
    rep.items.append(ReportItem("a", 1, 1, "pass", 0))
    rep.items.append(ReportItem("b", 1, None, "skipped", 0, note="time budget exhausted"))
    assert rep.exit_code == 0
    rep.items.append(ReportItem("c", 1, None, "skipped", 0,
                                note="resource limit (TooLarge): order 5 > limit 4"))
    assert rep.exit_code == report_from_json(rep.to_json()).exit_code == 3
    rep.items.append(ReportItem("d", 1, 2, "fail", 0))
    assert rep.exit_code == 1


def test_report_roundtrip():
    from fractions import Fraction
    rep = VerificationReport("demo", seed=7)
    rep.items.append(ReportItem("a", Fraction(1, 2), Fraction(1, 2), "pass", 3))
    rep.items.append(ReportItem("b", 4, 5, "fail", 1))
    js = rep.to_json()
    again = report_from_json(js).to_json()
    assert js == again
    assert js["items"][0]["expected"] == "1/2"
    assert report_from_json(js).exit_code == 1


def test_encode_value():
    from fractions import Fraction
    assert encode_value(Fraction(3, 7)) == "3/7"
    assert encode_value([Fraction(1, 2), 3]) == ["1/2", 3]
    assert encode_value({"x": Fraction(5, 1)}) == {"x": "5/1"}


def test_threads_env(monkeypatch, capsys):
    monkeypatch.setenv("AUTORBIT_THREADS", "2")
    code, out, _ = run_cli(capsys, "verify", "lemma3")
    assert code == 0
    assert "[PASS]" in out


@pytest.mark.slow
def test_verify_paper_table_suite(capsys):
    # exit 1: the command's reference column still pins h(Alt_6) = 3/4 and
    # maol = 2/3 for the exponent-3 extraspecial group; the computed 2/3 and
    # 8/9 are right (see test_acceptance), so the disagreement remains only
    # in that column
    code, out, _ = run_cli(capsys, "verify", "paper-table")
    assert code == 1
    payload = json.loads(out[out.index("{"):])
    by_status = {it["id"]: it["status"] for it in payload["items"]}
    assert {k for k, v in by_status.items() if v == "fail"} == \
        {"h-alt6", "maol-extraspecial27"}
    assert by_status["mcs-pgu(3,4)"] == "pass"
    reported = next(it for it in payload["items"] if it["id"] == "mcs-pgu(3,2)")
    assert reported["computed"] == 4


@pytest.mark.slow
def test_verify_nonsolvable_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "nonsolvable-bound")
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert len(payload["items"]) == 7
    assert all(it["status"] == "pass" for it in payload["items"])


def test_time_limit_skips(capsys):
    code, out, _ = run_cli(capsys, "--time-limit-s", "0", "verify", "paper-table")
    assert code == 0  # skipped items are not failures
    payload = json.loads(out[out.index("{"):])
    assert all(it["status"] == "skipped" for it in payload["items"])


def test_seeded_reports_are_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "pmf", "--samples", "300",
                             "--seed", "12")
    code2, out2, _ = run_cli(capsys, "verify", "pmf", "--samples", "300",
                             "--seed", "12")
    assert code1 == code2 == 0
    # runtimes vary; everything else must match byte for byte
    import re
    scrub = lambda s: re.sub(r'"runtimeMs": \d+', '"runtimeMs": 0', s)
    assert scrub(out1) == scrub(out2)
