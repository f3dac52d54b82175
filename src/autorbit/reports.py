"""Verification reports: one item per checkpoint, JSON-serializable with
exact fractions rendered as "p/q" strings so nothing is lost at the boundary."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .permcore import BadParameter, ResourceLimit

PASS, FAIL, SKIP = "pass", "fail", "skipped"
LIMIT_NOTE = "resource limit"  # note prefix of an item a ResourceLimit skipped


def encode_value(v: Any):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    if isinstance(v, dict):
        return {k: encode_value(x) for k, x in v.items()}
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    return str(v)


@dataclass
class ReportItem:
    id: str
    expected: Any
    computed: Any
    status: str
    runtime_ms: int
    note: str | None = None

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "expected": encode_value(self.expected),
            "computed": encode_value(self.computed),
            "status": self.status,
            "runtimeMs": self.runtime_ms,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    suite: str
    items: list[ReportItem] = field(default_factory=list)
    seed: int | None = None

    @property
    def failed(self) -> list[ReportItem]:
        return [it for it in self.items if it.status == FAIL]

    @property
    def exit_code(self) -> int:
        """1 if an item failed, else 3 if a resource limit skipped one, else 0."""
        limited = any(it.status == SKIP and (it.note or "").startswith(LIMIT_NOTE)
                      for it in self.items)
        return 1 if self.failed else 3 if limited else 0

    def to_json(self) -> dict:
        out = {"suite": self.suite,
               "items": [it.to_json() for it in sorted(self.items, key=lambda i: i.id)]}
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def summary_lines(self) -> list[str]:
        lines = []
        for it in sorted(self.items, key=lambda i: i.id):
            detail = ""
            if it.status == FAIL:
                detail = f"  expected={encode_value(it.expected)} computed={encode_value(it.computed)}"
            elif it.status == SKIP and it.note:
                detail = f"  ({it.note})"
            lines.append(f"[{it.status.upper():4}] {it.id}{detail}")
        return lines


class SuiteRunner:
    """Runs checkpoint callables into ReportItems one after another, in the
    calling thread, honoring a wall-clock budget (items past the budget are
    skipped, never approximated) and resource limits (an item a
    ResourceLimit stops is skipped with a note).  Item order in the report
    is by id."""

    def __init__(self, suite: str, time_limit_s: float | None = None):
        self.report = VerificationReport(suite)
        self.time_limit_s = time_limit_s
        self.started = time.monotonic()
        self._jobs: list[tuple[str, Any, Callable]] = []

    def add(self, item_id: str, expected: Any, compute: Callable[[], Any]):
        self._jobs.append((item_id, expected, compute))

    def _run_one(self, item_id: str, expected: Any, compute: Callable) -> ReportItem:
        if self.time_limit_s is not None and time.monotonic() - self.started > self.time_limit_s:
            return ReportItem(item_id, expected, None, SKIP, 0, note="time budget exhausted")
        t0 = time.monotonic()
        try:
            computed = compute()
        except ResourceLimit as exc:  # stopped by a limit: no answer, not a wrong one
            ms = int((time.monotonic() - t0) * 1000)
            return ReportItem(item_id, expected, None, SKIP, ms,
                              note=f"{LIMIT_NOTE} ({type(exc).__name__}): {exc}")
        except Exception as exc:  # an error is a failed checkpoint, reported verbatim
            ms = int((time.monotonic() - t0) * 1000)
            return ReportItem(item_id, expected, f"error: {exc}", FAIL, ms)
        ms = int((time.monotonic() - t0) * 1000)
        if expected is None:
            return ReportItem(item_id, None, computed, PASS, ms, note="reported value")
        status = PASS if computed == expected else FAIL
        return ReportItem(item_id, expected, computed, status, ms)

    def run(self) -> VerificationReport:
        self.report.items.extend(self._run_one(*job) for job in self._jobs)
        return self.report


def write_text(path: str, text: str) -> None:
    """Write `text` to `path`; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParameter(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def print_report(report: VerificationReport, out_path: str | None = None) -> None:
    """Summary lines, then the JSON report: to `out_path` (written first) or stdout."""
    payload = json.dumps(report.to_json(), indent=2)
    if out_path:
        write_text(out_path, payload + "\n")
    for line in report.summary_lines():
        print(line)
    if not out_path:
        print(payload)
