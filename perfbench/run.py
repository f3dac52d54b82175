"""Benchmark of the autorbit CLI suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's commands through autorbit.cli.main(argv) in a
fresh interpreter (perfbench/child.py), one process at a time, with the
environment pinned (see child_env).  Every command's stdout, with the
runtimeMs fields removed, and its exit code are compared byte for byte with
perfbench/golden.json.

--trace 0 runs passes until S seconds have gone by (at least one) and reports
the end-to-end metrics: medians over the passes, and for setup_s over
SETUP_SAMPLES extra import-only spawns as well.  Times are scaled to the
reference speed of perfbench/speedprobe.py, which the host strays from by up
to 40% for minutes at a time; the raw times go to the per-run record.
--trace 1 runs one traced pass
and reports the per-layer metrics derived from its spans (perfbench/spans.py).  The last stdout line is the JSON result;
the line before it gives error_rate and the line before that the recorded
environment.  Per-run records and span files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import derive_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

# Command templates; {seed} is the benchmark seed modulo 2**32, since the
# CLI's numpy generator takes only non-negative seeds.
WORKLOADS = {
    "paper-table": ["verify paper-table"],
    "nonsolvable-bound": ["verify nonsolvable-bound"],
    "wreath-bounds": [
        "construct hp --simple name:alt5 --p 3 --slow",
        "verify wreath --base name:sym4 --n 3 --exhaustive",
        "verify wreath --base name:sym3 --n 4 --samples 10000 --seed {seed}",
        "verify pmf",
        "verify pmf --samples 20000 --seed {seed}",
        "verify lemma3",
    ],
    # not a benchmark workload: the quick run the benchmark's own tests use
    "smoke": ["mcs --group name:sym5", "verify lemma3"],
}

SETUP_SAMPLES = 4      # import-only spawns per --trace 0 run, for setup_s
RUN_BUDGET_S = 170     # every child must finish within this much of the start
SEED_PLACEHOLDER = "<SEED>"
RUNTIME_MS = re.compile(r',?\s*"runtimeMs": \d+')


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def child_env() -> dict:
    # bytecode is cached in the checkout, as an installed package's would be,
    # so setup_s does not depend on whether the caller disabled the cache
    dropped = ("AUTORBIT_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE",
               "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


def spawn(mode: str, deadline: float, commands: list | None = None,
          spans_path: Path | None = None) -> dict:
    """Start child.py, wait for it, and return its JSON result."""
    extra = [] if commands is None else [json.dumps(commands)]
    if spans_path is not None:
        extra.append(str(spans_path))
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    argv = [sys.executable, str(BENCH / "child.py"), mode, repr(spawned)] + extra
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not finish within {RUN_BUDGET_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def canonical(stdout: str) -> str:
    return RUNTIME_MS.sub("", stdout)


def check(templates: list[str], cli_seed: int, results: list[dict],
          golden: dict) -> list[str]:
    """Names of the commands whose exit code or canonical stdout differs from
    the golden entry, or that raised."""
    bad = []
    for template, got in zip(templates, results):
        want = golden[template]
        want_stdout = want["stdout"].replace(SEED_PLACEHOLDER, str(cli_seed))
        if (got["error"] is not None or got["exit"] != want["exit"]
                or canonical(got["stdout"]) != want_stdout):
            bad.append(template.format(seed=cli_seed))
    return bad


def scaled_pass_time(passes: list[dict], key: str) -> float:
    """One pass's time at the reference speed (speedprobe.py): each command's
    time scaled by the speed the probe saw during it, then the lower median of
    that over the passes, summed over the commands.  What the probe misses of
    the host's slow spells only ever adds time, so of two passes the lower
    median keeps the one a spell did not hit."""
    return sum(statistics.median_low(p["commands"][i][key] * p["commands"][i]["probe"]["speed"]
                                     for p in passes)
               for i in range(len(passes[0]["commands"])))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            golden: dict) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result, details)."""
    templates = WORKLOADS[workload]
    cli_seed = seed % 2 ** 32
    commands = [t.format(seed=cli_seed).split() for t in templates]
    deadline = time.monotonic() + RUN_BUDGET_S
    tally = {"attempted": 0, "failed": []}

    def run_pass(spans_path: Path | None = None) -> dict:
        result = spawn("run", deadline, commands, spans_path)
        tally["attempted"] += len(commands)
        tally["failed"] += check(templates, cli_seed, result["commands"], golden)
        return result

    warm = spawn("setup", deadline)  # fills bytecode and page caches, untimed
    details = {"numpy": warm["numpy"]}
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        traced = run_pass(spans_path)
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
        metrics = derive_metrics(spans)
        metrics["trace_overhead_s"] = (traced["trace_overhead_s"], "s")
        details.update(spans=len(spans), traced_wall_s=traced["wall_s"])
    else:
        # half the import-only spawns before the passes and half after, so the
        # median spans the whole run rather than one moment of machine load
        spawns = [spawn("setup", deadline) for _ in range(SETUP_SAMPLES // 2)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(run_pass())
        spawns += passes
        spawns += [spawn("setup", deadline) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        metrics = {
            "wall_s": (scaled_pass_time(passes, "wall_s"), "s"),
            "cpu_s": (scaled_pass_time(passes, "cpu_s"), "s"),
            "setup_s": (statistics.median(s["setup_s"] * s["setup_speed"] for s in spawns), "s"),
            "peak_rss_mb": (statistics.median_low(p["peak_rss_kib"] for p in passes) / 1024,
                            "MB"),
        }
        details.update(
            passes=len(passes),
            setup_samples=[[s["setup_s"], s["setup_speed"]] for s in spawns],
            raw_wall_s=statistics.median(sum(c["wall_s"] for c in p["commands"])
                                         for p in passes),
            pass_wall_s=[p["wall_s"] for p in passes],
            command_wall_s=[[c["wall_s"] for c in p["commands"]] for p in passes],
            command_speed=[[c["probe"]["speed"] for c in p["commands"]] for p in passes])
    failed = len(tally["failed"])
    result = {
        "correct": failed == 0,
        "attempted": tally["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details["failed_commands"] = tally["failed"]
    return result, details


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "autorbit_threads": "unset",
        "blas_omp_threads": 1,
        "workload_processes": 1,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "autorbit" / "cli.py").is_file():
        print(f"no autorbit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    try:
        result, details = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), golden)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env = environment(args.seed, details.pop("numpy"))
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "details": details,
                                  "result": result}, indent=1) + "\n")
    for command in details["failed_commands"]:
        print(f"output differs from golden: {command}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    m = result["metrics"]
    shown = ", ".join(f"{name} {v['value']:.4g} {v['unit']}" for name, v in m.items())
    error_rate = result["failed"] / result["attempted"]
    raw = f", unscaled wall {details['raw_wall_s']:.4g} s" if "raw_wall_s" in details else ""
    print(f"{args.workload} seed {args.seed}: {shown}, error_rate {error_rate:.4g} share "
          f"({result['failed']} of {result['attempted']} commands){raw}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
