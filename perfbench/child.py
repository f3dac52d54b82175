"""One pass of the autorbit benchmark in a fresh interpreter.

    python3 child.py setup SPAWNED
    python3 child.py run SPAWNED COMMANDS_JSON [SPANS_PATH]

SPAWNED is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes on Linux), so setup_s covers the
interpreter's start and the import of autorbit.cli, which is what every CLI
call pays.  Right after the import both modes time a short burst of the speed
probe (speedprobe.py), so the parent can scale setup_s to the reference speed.

In run mode the commands go through autorbit.cli.main(argv) in order, in this
one process, with stdout captured per command and cyclic garbage collected
before each command.  Without SPANS_PATH the speed probe also runs every
speedprobe.EVERY_S seconds from a timer signal while the commands run; its
time is taken out of each command's wall and CPU time, and each command
reports the host speed the probe saw during it.  With SPANS_PATH the layer
functions are wrapped instead and the spans are written there after the last
command.  The last stdout line is one JSON object.
"""

import sys
import time

import autorbit.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imported after the set-up clock stops)
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import speedprobe  # noqa: E402


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def run_commands(commands: list, spans_path: str | None) -> dict:
    tracer, probe = None, None
    if spans_path:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        probe = speedprobe.Sampler()
    results = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if probe is not None:
        probe.start()
    for index, argv in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        c0, p0 = time.perf_counter(), time.process_time()
        mark = probe.mark() if probe is not None else None
        # start each command without the cyclic garbage of the one before, as
        # a separate CLI call would; otherwise when the collector runs moves
        # the peak RSS by several MB from seed to seed
        gc.collect()
        out = io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out):
            try:
                code = autorbit.cli.main(argv)
            except SystemExit as exc:
                code = _exit_code(exc)
            except Exception as exc:  # a raised command is a failed command
                error = f"{type(exc).__name__}: {exc}"
        result = {"exit": code, "stdout": out.getvalue(), "error": error,
                  "wall_s": time.perf_counter() - c0, "cpu_s": time.process_time() - p0}
        if probe is not None:
            result["probe"] = probe.since(mark)
        results.append(result)
    if probe is not None:
        probe.stop()
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if probe is not None:
        # the probe's own time is not the program's
        for result in results:
            result["wall_s"] -= result["probe"]["wall_s"]
            result["cpu_s"] -= result["probe"]["cpu_s"]
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return {
        "wall_s": t1 - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_kib": ru1.ru_maxrss,
        "commands": results,
        "trace_overhead_s": tracer.overhead_s if tracer is not None else None,
    }


def main() -> None:
    mode, spawned = sys.argv[1], float(sys.argv[2])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(autorbit.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"autorbit was imported from {autorbit.cli.__file__}, not {src}")
    out = {"setup_s": READY - spawned, "numpy": autorbit.cli.np.__version__,
           "setup_speed": speedprobe.burst()}
    if mode == "run":
        spans_path = sys.argv[4] if len(sys.argv) > 4 else None
        out.update(run_commands(json.loads(sys.argv[3]), spans_path))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
