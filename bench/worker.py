"""One benchmark worker: import one build of dothash, then run its CLI calls on command.

``run.py`` starts this file as its own process with the path of a JSON
config and talks to it over the worker's stdin and stdout, one JSON object
per line each way.  The worker imports ``dothash`` from the config's
``src`` directory -- the checkout's ``src/`` or the frozen copy in
``bench/reference/`` -- replies ``{"ready": true, "cpu_s": ...}`` with the
CPU seconds it took to get there, and then answers:

- ``{"call": j}``: run the workload's j-th CLI call; reply with its CPU
  seconds (user plus system, of this process) and wall seconds.
- ``{"check": true}``: gate the calls run since the last check, one
  iteration; reply with its quality gap.
- ``{"trace": true}``: run one whole iteration with every layer probe
  installed and gate it; reply with its wall seconds, quality gap and
  per-layer metrics.
- ``{"report": true}``: reply with the correctness ledger, the digests of
  the primary outputs and the peak RSS, and exit.

Anything the program writes to the real stdout goes to stderr, so it cannot
corrupt the replies.

Every CLI call is one operation.  It fails on a nonzero exit code, on
primary outputs (stdout plus output files) that differ from the first run
of the same call in the worker, or, for the workload's estimator call, on a
quality gap outside the workload's tolerance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path
from types import ModuleType

from spans import Tracer, install_probes, layer_metrics
from workloads import WORKLOADS, Call, CallResult

MAX_FAILURE_NOTES = 20


def run_call(cli: ModuleType, call: Call) -> CallResult:
    """Run one call through ``cli.main`` with stdout and stderr captured."""
    for path in call.outputs:
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(call.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - start
    outputs = tuple(Path(p).read_bytes() if Path(p).exists() else b"" for p in call.outputs)
    return CallResult(code, seconds, out.getvalue(), err.getvalue(), outputs)


def run_calls(cli: ModuleType, calls: list[Call]) -> dict[str, CallResult]:
    return {call.label: run_call(cli, call) for call in calls}


def traced_iteration(cli: ModuleType, calls: list[Call]
                     ) -> tuple[dict[str, CallResult], dict[str, float]]:
    """One iteration with every probe installed: its results and per-layer metrics."""
    tracer = Tracer()
    try:
        install_probes(tracer)
        results = run_calls(cli, calls)
    finally:
        tracer.uninstall()
    return results, layer_metrics(tracer.spans, tracer.counts)


def digest(result: CallResult) -> str:
    h = hashlib.sha256()
    for part in (result.stdout.encode("utf-8"), *result.outputs):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class Ledger:
    """Correctness gate: counts attempted and failed operations."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.references: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.tolerance: float | None = None

    def _fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"{label}: {reason}")

    def check(self, results: dict[str, CallResult]) -> tuple[float, float | None]:
        """Gate one iteration; returns its run_s (CLI calls only) and quality gap."""
        quality = self.workload.quality(results)
        self.tolerance = quality.tolerance
        for label, result in results.items():
            self.attempted += 1
            output = digest(result)
            if result.code != 0:
                self._fail(label, f"exit code {result.code}: {result.stderr.strip()[-200:]}")
            elif output != self.references.setdefault(label, output):
                self._fail(label, "primary output differs from the first run")
            elif label == quality.blame and not quality.ok:
                self._fail(label, f"quality gap {quality.gap} outside tolerance {quality.tolerance}")
        return sum(r.seconds for r in results.values()), quality.gap


def serve(cli: ModuleType, workload, calls: list[Call], commands, reply) -> None:
    """Answer commands until a report is asked for."""
    ledger = Ledger(workload)
    pending: dict[str, CallResult] = {}
    reply({"ready": True, "cpu_s": time.process_time()})
    for line in commands:
        command = json.loads(line)
        if "call" in command:
            call = calls[command["call"]]
            cpu = time.process_time()
            pending[call.label] = run_call(cli, call)
            reply({"cpu_s": time.process_time() - cpu, "wall_s": pending[call.label].seconds})
        elif "check" in command:
            _, gap = ledger.check(pending)
            pending = {}
            reply({"quality_gap": gap})
        elif "trace" in command:
            results, layers = traced_iteration(cli, calls)
            wall_s, gap = ledger.check(results)
            reply({"wall_s": wall_s, "quality_gap": gap, "layers": layers})
        elif "report" in command:
            reply({"attempted": ledger.attempted, "failed": ledger.failed,
                   "failures": ledger.notes, "quality_tolerance": ledger.tolerance,
                   "digests": ledger.references,
                   "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return
        else:
            raise ValueError(f"unknown command {command!r}")


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def reply(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    src = Path(config["src"]).resolve()
    sys.path.insert(0, str(src))
    import dothash
    import dothash.cli

    if src not in Path(dothash.__file__).resolve().parents:
        print(f"worker: dothash imported from {dothash.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[config["workload"]]
    calls = workload.calls(Path(config["inputs"]), Path(config["outputs"]), config["cli_seed"])
    serve(dothash.cli, workload, calls, sys.stdin, reply)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
