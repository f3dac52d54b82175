"""Paired benchmark runs of a parent revision against the working tree, and
a check that the two give the same outputs.

    python3 tools/bench.py --parent REV --out BENCH_<N>.json [--pairs 10] [--seconds 10]
    python3 tools/bench.py --parent REV --outputs

The parent is checked out in a local `git clone` under a temporary
directory, which is removed afterwards, and the working tree's files are
copied beside it, so the two paths have one length.  For each workload of
BENCHMARK.json the two checkouts each run their own `perfbench/run.py
--trace 0` in turn, `--pairs` times, alternating which side goes first; both
runs of pair k get seed 1 + k.  The JSON file written holds, per workload and end-to-end
metric, both medians, the parent's interquartile range and how many pairs
the working tree won, the host the runs were made on, and for each side the
commit and source digest its `run.py` reported (the working tree's copy has
no commit; its digest names the measured source).  It then prints
each metric whose child median moved from that of the newest earlier
BENCH_*.json beside the output by more than the parent's interquartile range.

With --outputs, each line of tools/commands.txt runs as `python -m autorbit.cli`
in both checkouts, and the tool prints every command whose stdout (with the
"runtimeMs" values removed), stderr, exit code or file written at `{out}`
differs, exiting 1 if any does.  The tool reads BENCHMARK.json and never writes it or
anything under perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(environment, result) of one `run.py` run: its first stdout line and its last."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def quartile_range(values: list[float]) -> float:
    """The distance between the upper and lower quartiles (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric, the parent and child values of each pair, their medians, the
    parent's interquartile range and the pairs the child won; `pairs` holds the
    (parent, child) results of `parse_run` and `metrics` BENCHMARK.json's
    `end_to_end` entries."""
    out = {"correct": {"parent": all(p["correct"] for p, _ in pairs),
                       "child": all(c["correct"] for _, c in pairs)},
           "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                      "child": sum(c["failed"] for _, c in pairs)},
           "metrics": {}}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric.get("better", "lower") == "lower" else -1
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        child = [c["metrics"][name]["value"] for _, c in pairs]
        out["metrics"][name] = {
            "unit": metric.get("unit"),
            "better": metric.get("better", "lower"),
            "parent_median": statistics.median(parent),
            "child_median": statistics.median(child),
            "parent_iqr": quartile_range(parent),
            "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, child)),
            "pairs": len(pairs),
            "parent": parent,
            "child": child,
        }
    return out


def bench_number(path: Path) -> int | None:
    """N of a file named BENCH_<N>.json, else None."""
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(match.group(1)) if match else None


def newest_earlier(out: Path) -> Path | None:
    """The BENCH_<N>.json beside `out` with the largest N below out's own (any
    N but out itself when out's name has none), or None."""
    own = bench_number(out)
    earlier = [(n, path) for path in out.parent.glob("BENCH_*.json")
               if (n := bench_number(path)) is not None and path != out
               and (own is None or n < own)]
    return max(earlier)[1] if earlier else None


def moved(earlier: dict, report: dict) -> list[str]:
    """A line for each workload and metric of `report` whose child median moved
    from `earlier`'s by more than `report`'s parent IQR; both are BENCH files."""
    lines = []
    for workload, summary in report["workloads"].items():
        before = earlier.get("workloads", {}).get(workload, {}).get("metrics", {})
        for name, m in summary["metrics"].items():
            old = before.get(name, {}).get("child_median")
            if old is not None and abs(m["child_median"] - old) > m["parent_iqr"]:
                lines.append(f"{workload} {name}: {old:.4g} -> {m['child_median']:.4g} "
                             f"{m['unit']} (parent IQR {m['parent_iqr']:.4g})")
    return lines


def host(env: dict) -> dict:
    """The machine fields of a `run.py` environment line."""
    return {key: env.get(key) for key in ("nproc", "affinity_cpus", "cpu_model", "python", "numpy")}


def source(env: dict) -> dict:
    """The commit and `src/` digest of a `run.py` environment line: the code it ran."""
    return {key: env.get(key) for key in ("commit", "source_sha256")}


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One `run.py --trace 0` run of `checkout`'s own benchmark."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def read_commands(text: str) -> list[str]:
    """The command lines of a command list: '#' starts a comment, blank lines are skipped."""
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]


def without_runtimes(text: str) -> str:
    """`text` with each JSON "runtimeMs" value replaced by null: the one timed field."""
    return re.sub(r'"runtimeMs": *-?[0-9.eE+-]+', '"runtimeMs": null', text)


def run_outputs(checkout: Path, commands: list[str], tmp: Path) -> list[dict]:
    """Each command's exit code, stdout, stderr and `{out}` file, run by `checkout`'s own
    source in the directory `tmp`; `{out}` is a name relative to it, so a
    command that prints the name prints the same on either side."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    results = []
    for i, line in enumerate(commands):
        out = f"out{i}.json"
        argv = [arg.replace("{out}", out) for arg in shlex.split(line)]
        proc = subprocess.run([sys.executable, "-m", "autorbit.cli", *argv], cwd=tmp, env=env,
                              capture_output=True, text=True, timeout=600)
        written = tmp / out
        results.append({"command": line, "exit": proc.returncode,
                        "stdout": without_runtimes(proc.stdout), "stderr": proc.stderr,
                        "out": without_runtimes(written.read_text()) if written.exists() else None})
    return results


def output_diff(parent: list[dict], child: list[dict]) -> list[str]:
    """A line for each command and each of its exit code, stdout, stderr and `{out}` file
    that differs between the two `run_outputs` lists, with the first line of
    text that differs (a missing file reads as no lines)."""
    lines = []
    for p, c in zip(parent, child, strict=True):
        if p["exit"] != c["exit"]:
            lines.append(f"{c['command']}: exit {p['exit']} -> {c['exit']}")
        for key in ("stdout", "stderr", "out"):
            if p[key] != c[key]:
                old, new = (p[key] or "").splitlines(), (c[key] or "").splitlines()
                at = next((i for i, pair in enumerate(zip(old, new)) if pair[0] != pair[1]),
                          min(len(old), len(new)))
                lines.append(f"{c['command']}: {key} differs from line {at + 1}")
    return lines


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def checkout(rev: str):
    """A local `git clone` of ROOT at `rev`, in a temporary directory removed afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        git("clone", "--quiet", "--no-checkout", str(ROOT), str(parent))
        subprocess.run(["git", "-C", str(parent), "checkout", "--quiet", "--detach", rev],
                       check=True, capture_output=True)
        yield parent


def copy_working_tree(dest: Path) -> Path:
    """`dest` holding a copy of the working tree's files, tracked or untracked but not
    ignored, as they are on disk."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


def compare_outputs(rev: str, commands: list[str]) -> int:
    """Run the command list in `rev` and in the working tree; print what differs."""
    with checkout(rev) as parent, tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for side, name in ((parent, "parent"), (ROOT, "child")):
            (Path(tmp) / name).mkdir()
            runs[name] = run_outputs(side, commands, Path(tmp) / name)
    lines = output_diff(runs["parent"], runs["child"])
    exits = sorted({r["exit"] for r in runs["child"]})
    print(f"{len(commands)} commands (exit codes {exits}): {len(lines)} outputs differ")
    for line in lines:
        print("  " + line)
    return 1 if lines else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--out", help="JSON file to write, e.g. BENCH_<N>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--outputs", action="store_true",
                   help="compare the outputs of the command list instead of timing")
    args = p.parse_args(argv)
    if args.outputs:
        commands = read_commands((ROOT / "tools" / "commands.txt").read_text(encoding="utf-8"))
        return compare_outputs(git("rev-parse", args.parent), commands)
    if args.out is None:
        p.error("--out is required unless --outputs is given")
    out = Path(args.out).resolve()
    if out == ROOT / "BENCHMARK.json" or (ROOT / "perfbench") in out.parents:
        p.error("the benchmark's own files are not written")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rev = git("rev-parse", args.parent)
    report = {"parent": None, "child": None, "pairs": args.pairs, "seconds": args.seconds,
              "workloads": {}}
    # the working tree runs from a copy beside the parent's clone, at a path of the
    # same length: a run's peak RSS moves with the length of its checkout's path
    with checkout(rev) as parent:
        child = copy_working_tree(parent.with_name("change"))
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for k in range(args.pairs):
                sides = (parent, child) if k % 2 == 0 else (child, parent)
                runs = {side: run(side, workload, 1 + k, args.seconds) for side in sides}
                report.update(parent=source(runs[parent][0]), child=source(runs[child][0]),
                              host=host(runs[child][0]))
                pairs.append((runs[parent][1], runs[child][1]))
                print(f"{workload} pair {k + 1}/{args.pairs}: "
                      + ", ".join(f"{m} {runs[parent][1]['metrics'][m]['value']:.4g} -> "
                                  f"{runs[child][1]['metrics'][m]['value']:.4g}"
                                  for m in runs[child][1]["metrics"]), flush=True)
            report["workloads"][workload] = summarize(pairs, spec["end_to_end"])
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, summary in report["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload} {name}: {m['parent_median']:.4g} -> {m['child_median']:.4g} "
                  f"{m['unit']} (parent IQR {m['parent_iqr']:.4g}, won {m['wins']}/{m['pairs']})")
    if (previous := newest_earlier(out)) is not None:
        lines = moved(json.loads(previous.read_text(encoding="utf-8")), report)
        print(f"moved from {previous.name} by more than the parent's IQR: {len(lines)}")
        for line in lines:
            print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
