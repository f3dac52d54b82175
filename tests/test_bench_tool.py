"""`tools/bench.py`'s reading and summing of `perfbench/run.py` output, its
comparison with an earlier BENCH file, and its diff of the command list's
outputs, on recorded result lines, the recorded `BENCH_36.json` and recorded
command outputs: no subprocess is started, and nothing is written outside a
test's temporary directory."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_tool", Path(__file__).resolve().parent.parent / "tools" / "bench.py")
bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench)

ENVIRONMENT = ('{"environment": {"nproc": 2, "affinity_cpus": 2, "cpu_model": "Intel(R) Xeon(R) '
               'Processor", "python": "3.11.7", "numpy": "2.4.6", "commit": "23d047d", '
               '"source_sha256": "fb43", "seed": 1, "autorbit_threads": "unset", '
               '"blas_omp_threads": 1, "workload_processes": 1}}')
PARENT = ('{"correct": true, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 0.2705, '
          '"unit": "s"}, "cpu_s": {"value": 0.2690, "unit": "s"}, "setup_s": {"value": 0.1601, '
          '"unit": "s"}, "peak_rss_mb": {"value": 45.28, "unit": "MB"}}}')
CHILD = ('{"correct": true, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 0.2477, '
         '"unit": "s"}, "cpu_s": {"value": 0.2470, "unit": "s"}, "setup_s": {"value": 0.1612, '
         '"unit": "s"}, "peak_rss_mb": {"value": 45.34, "unit": "MB"}}}')
METRICS = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())[
    "end_to_end"]
BENCH_36 = json.loads((bench.ROOT / "BENCH_36.json").read_text())


def run_stdout(result):
    return "\n".join([ENVIRONMENT, "paper-table seed 1: wall_s 0.27 s, ...", result]) + "\n"


def test_a_run_is_read_off_its_first_and_last_lines():
    env, result = bench.parse_run(run_stdout(PARENT))
    assert bench.host(env) == {"nproc": 2, "affinity_cpus": 2, "cpu_model": "Intel(R) Xeon(R) "
                               "Processor", "python": "3.11.7", "numpy": "2.4.6"}
    assert bench.source(env) == {"commit": "23d047d", "source_sha256": "fb43"}
    assert result == json.loads(PARENT)


def test_pairs_sum_to_medians_quartiles_and_wins():
    parent, child = (bench.parse_run(run_stdout(r))[1] for r in (PARENT, CHILD))
    summary = bench.summarize([(parent, child), (child, parent)], METRICS)
    assert summary["correct"] == {"parent": True, "child": True}
    assert summary["failed"] == {"parent": 0, "child": 0}
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"] == [0.2705, 0.2477] and wall["child"] == [0.2477, 0.2705]
    assert wall["parent_median"] == wall["child_median"] == pytest.approx(0.2591)
    assert wall["parent_iqr"] == pytest.approx((0.2705 - 0.2477) / 2)
    assert (wall["wins"], wall["pairs"], wall["unit"], wall["better"]) == (1, 2, "s", "lower")
    one = bench.summarize([(parent, child)], METRICS)["metrics"]
    assert one["wall_s"]["parent_iqr"] == 0.0
    assert {name: m["wins"] for name, m in one.items()} == {
        "wall_s": 1, "cpu_s": 1, "setup_s": 0, "peak_rss_mb": 0}
    higher = [dict(m, better="higher") for m in METRICS]
    assert bench.summarize([(parent, child)], higher)["metrics"]["setup_s"]["wins"] == 1


def test_a_wrong_output_marks_its_side():
    wrong = json.loads(CHILD) | {"correct": False, "failed": 1}
    summary = bench.summarize([(json.loads(PARENT), wrong)], METRICS)
    assert summary["correct"] == {"parent": True, "child": False}
    assert summary["failed"] == {"parent": 0, "child": 1}


@pytest.mark.parametrize("out", ["BENCHMARK.json", "perfbench/BENCH_1.json"])
def test_the_benchmark_files_are_refused_as_output(out):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--parent", "HEAD", "--out", str(bench.ROOT / out)])
    assert exc.value.code == 2


def test_the_newest_earlier_bench_file_is_the_one_compared(tmp_path):
    for name in ["BENCH_9.json", "BENCH_36.json", "BENCH_37.json", "BENCH_x.json", "notes.json"]:
        (tmp_path / name).write_text("{}")
    assert bench.newest_earlier(tmp_path / "BENCH_37.json") == tmp_path / "BENCH_36.json"
    assert bench.newest_earlier(tmp_path / "BENCH_36.json") == tmp_path / "BENCH_9.json"
    assert bench.newest_earlier(tmp_path / "BENCH_100.json") == tmp_path / "BENCH_37.json"
    assert bench.newest_earlier(tmp_path / "BENCH_9.json") is None
    assert bench.newest_earlier(tmp_path / "run.json") == tmp_path / "BENCH_37.json"
    assert bench.newest_earlier(tmp_path / "sub" / "BENCH_38.json") is None


def test_a_metric_moved_past_the_parent_iqr_is_printed():
    # three pairs the child won and one it lost: the child medians are the
    # recorded child line's, and the parent's IQR is a quarter of the spread
    parent, child = (bench.parse_run(run_stdout(r))[1] for r in (PARENT, CHILD))
    report = {"workloads": {"paper-table": bench.summarize(
        [(parent, child)] * 3 + [(child, parent)], METRICS)}}
    metrics = report["workloads"]["paper-table"]["metrics"]
    assert metrics["wall_s"]["child_median"] == 0.2477
    assert metrics["wall_s"]["parent_iqr"] == pytest.approx((0.2705 - 0.2477) / 4)
    # BENCH_36's paper-table child medians: wall_s 0.2498 and cpu_s 0.2498 s
    # are within the IQR, setup_s 0.1540 s and peak_rss_mb 45.75 MB are not
    lines = bench.moved(BENCH_36, report)
    assert [line.split(":")[0] for line in lines] == ["paper-table setup_s",
                                                      "paper-table peak_rss_mb"]
    assert lines[1] == "paper-table peak_rss_mb: 45.75 -> 45.34 MB (parent IQR 0.015)"
    assert bench.moved(BENCH_36, BENCH_36) == []
    assert bench.moved({"workloads": {}}, report) == []


# recorded outputs of three commands of tools/commands.txt: a verify report
# with its timing field, an exit 3 whose answer is on stderr, and an aut --out file
VERIFY = ('[PASS] pmf-vs-max-rho\n{\n  "suite": "pmf",\n  "items": [{"id": "pmf-vs-max-rho", '
          '"status": "pass", "runtimeMs": 412.7}],\n  "runtimeMs": 1.5e+03\n}\n')
AUT_OUT = '{"group": "sym5", "order": 120, "autOrder": 120, "generators": [1, 0, 2]}'
GUARD = "resource limit: |G| = 6048 exceeds the 2000 carrier guard\n"


def recorded(verify=VERIFY, exit3=3, err=GUARD, out=AUT_OUT):
    return [{"command": "verify pmf", "exit": 0, "stdout": bench.without_runtimes(verify),
             "stderr": "", "out": None},
            {"command": "h --simple 'name:psu(3,3)'", "exit": exit3, "stdout": "",
             "stderr": err, "out": None},
            {"command": "aut --group name:sym5 --out {out}", "exit": 0,
             "stdout": '{"written": "out2.json", "autOrder": 120}\n', "stderr": "", "out": out}]


def test_the_command_list_reads_as_lines_without_comments():
    text = "# a comment\n\nverify lemma3\n  h --simple 'name:psl(2,17)'  # h(S)\n"
    assert bench.read_commands(text) == ["verify lemma3", "h --simple 'name:psl(2,17)'"]
    commands = bench.read_commands((bench.ROOT / "tools" / "commands.txt").read_text())
    assert len(commands) == len(set(commands)) >= 50
    assert sum("--out {out}" in line for line in commands) == 12


def test_runtimes_are_the_one_field_removed():
    assert bench.without_runtimes(VERIFY) == VERIFY.replace("412.7", "null").replace(
        "1.5e+03", "null")
    assert bench.without_runtimes(VERIFY) == bench.without_runtimes(
        VERIFY.replace("412.7", "3").replace("1.5e+03", "-0.25"))
    assert bench.without_runtimes('{"runtime": 4}') == '{"runtime": 4}'


def test_identical_outputs_diff_empty_and_runtimes_are_ignored():
    slower = VERIFY.replace("412.7", "999.1")
    assert bench.output_diff(recorded(), recorded(verify=slower)) == []


def test_each_differing_output_is_named():
    child = recorded(verify=VERIFY.replace('"pass"', '"fail"'), exit3=1,
                     out=AUT_OUT.replace("[1, 0, 2]", "[0, 2, 1]"))
    assert bench.output_diff(recorded(), child) == [
        "verify pmf: stdout differs from line 4",
        "h --simple 'name:psu(3,3)': exit 3 -> 1",
        "aut --group name:sym5 --out {out}: out differs from line 1"]
    longer = recorded(verify=VERIFY + "[PASS] extra\n")
    assert bench.output_diff(recorded(), longer) == ["verify pmf: stdout differs from line 7"]
    assert bench.output_diff(recorded(), recorded(out=None)) == [
        "aut --group name:sym5 --out {out}: out differs from line 1"]
    with pytest.raises(ValueError):  # the two sides ran the same list
        bench.output_diff(recorded(), recorded()[:2])


def test_an_answer_on_stderr_is_compared():
    # same exit code and an empty stdout on both sides: only stderr tells them apart
    other = GUARD.replace("6048", "6049")
    assert bench.output_diff(recorded(), recorded(err=other)) == [
        "h --simple 'name:psu(3,3)': stderr differs from line 1"]
    assert bench.output_diff(recorded(), recorded(err=GUARD + "more\n")) == [
        "h --simple 'name:psu(3,3)': stderr differs from line 2"]
