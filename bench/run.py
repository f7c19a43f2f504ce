"""Run one dothash benchmark workload and report end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload linkpred-aa --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --out .bench_out/results/mine.json

A run generates the workload's inputs from ``--seed`` and drives worker
processes (``worker.py``), all pinned to one CPU.  Untraced (``--trace 0``)
it pairs the checkout's ``src/dothash`` with the frozen copy of the program
in ``bench/reference/``: it sets up ``SETUP_REPEATS`` times -- inputs, then
one worker of each side started together -- warms both up with one
iteration, and for ``--seconds`` runs iterations of the workload's CLI
calls on both sides at once, call by call in lockstep.  Sharing one CPU,
the two sides take turns every few milliseconds, so whatever else loads the
host slows both alike, and the ratio of their CPU seconds per iteration
stays steady where wall seconds drift by up to 2x within minutes.
``run_s`` and ``setup_s`` are that ratio times the reference's own time on
the baseline host (see ``BENCHMARK.md``).  Traced (``--trace 1``) it runs
the checkout alone, alternating untraced and traced iterations, and prints
the per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every run is also written, with its raw samples
and a host record, to a result file that ``compare.py`` reads.  The exit
code is 0 only when every operation passed the correctness gate, 1 when one
failed, and 2, with no result, when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from host import host_record
from spans import PER_LAYER
from workloads import WORKLOADS, derive_seeds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"
# The commit whose src/dothash bench/reference/dothash is a copy of.
REFERENCE_COMMIT = "b79191a"
# Seconds from starting a reference worker to its ready reply (interpreter,
# numpy and dothash imports) on the baseline host; setup_s is in these units.
REFERENCE_READY_S = 0.25
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
# Reported and stored with every run, but carried outside BENCHMARK.json's
# bounded metrics: quality_gap is a seed-dependent statistic, and
# failed_frac is 0 on a correct run (the result line's "failed" field).
GUARDS = (("quality_gap", "frac"), ("failed_frac", "frac"))
SETUP_REPEATS = 5
BLAS_THREADS = 1
DEADLINE_S = 170.0
# Counts and ratios that must repeat exactly between traced iterations.
EXACT_UNITS = ("count", "bytes")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _inputs_digest(inputs: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(inputs.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # One string-hash seed for every worker, so the two sides hash alike.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it (else the median)."""
    n = len(samples)
    pct = next((p for p in (99.0, 95.0, 90.0, 75.0) if n * (1 - p / 100) >= 10), 50.0)
    return {"percentile": pct, "value": float(np.percentile(samples, pct)), "samples": n}


class Worker:
    """A running ``worker.py`` process and its reply channel."""

    def __init__(self, side: str, src: Path, config: dict, stem: Path, deadline: float) -> None:
        self.side = side
        self.deadline = deadline
        self.stderr_path = stem.with_suffix(".stderr")
        stem.with_suffix(".json").write_text(json.dumps({**config, "src": str(src)}))
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(stem.with_suffix(".json"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr, text=True,
                env=_worker_env(), cwd=ROOT)

    def read(self) -> dict:
        wait = self.deadline - time.monotonic()
        if wait <= 0 or not select.select([self.proc.stdout], [], [], wait)[0]:
            raise BenchError(f"{self.side} worker exceeded the {DEADLINE_S:.0f} s deadline")
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchError(f"{self.side} worker exited {self.proc.returncode}\n"
                             f"{self.stderr_path.read_text()[-2000:]}")
        return json.loads(line)

    def send(self, **command) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def ask(self, **command) -> dict:
        self.send(**command)
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def _all(workers: list[Worker], **command) -> dict[str, dict]:
    """Send a command to every worker at once, then collect the replies by side."""
    for worker in workers:
        worker.send(**command)
    return {worker.side: worker.read() for worker in workers}


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload: set-ups, workers, gate and metrics."""
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name]
    gen_seed, cli_seed = derive_seeds(seed)
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    inputs = work / "inputs"
    shutil.rmtree(work, ignore_errors=True)
    sides = {"checkout": ROOT / "src"} if trace else {"checkout": ROOT / "src",
                                                      "reference": REFERENCE}
    for side in sides:
        (work / side).mkdir(parents=True)
    live: list[Worker] = []
    gen_s, ready_cpu_s = [], {side: [] for side in sides}
    input_digest = None
    try:
        for k in range(1 if trace else SETUP_REPEATS):
            for worker in live:
                worker.close()
            live.clear()
            start = time.monotonic()
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir()
            workload.generate(gen_seed, inputs)
            gen_s.append(time.monotonic() - start)
            digest = _inputs_digest(inputs)
            if input_digest not in (None, digest):
                raise BenchError(f"{name}: input generation is not deterministic")
            input_digest = digest
            for side in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
                config = {"workload": name, "inputs": str(inputs), "outputs": str(work / side),
                          "cli_seed": cli_seed}
                live.append(Worker(side, sides[side], config, work / f"{side}-{k}", deadline))
            for worker in live:
                ready_cpu_s[worker.side].append(worker.read()["cpu_s"])
        calls = len(workload.calls(inputs, work, cli_seed))
        checkout = next(worker for worker in live if worker.side == "checkout")
        warmup = _iteration(live, calls)
        timed = {worker.side: {"cpu_s": [], "wall_s": [], "quality_gap": []} for worker in live}
        if trace:
            timed["checkout"].update(traced_wall_s=[], layers=[])

        def step() -> None:
            for side, totals in _iteration(live, calls).items():
                for key, value in totals.items():
                    timed[side][key].append(value)
            if trace:
                traced = checkout.ask(trace=True)
                timed["checkout"]["traced_wall_s"].append(traced["wall_s"])
                timed["checkout"]["quality_gap"].append(traced["quality_gap"])
                timed["checkout"]["layers"].append(traced["layers"])

        _timed(seconds, step, minimum=2)
        reports = _all(live, report=True)
    finally:
        for worker in live:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)
    samples = {"gen_s": gen_s, "ready_cpu_s": ready_cpu_s,
               "warmup_wall_s": {side: r["wall_s"] for side, r in warmup.items()}, **timed}
    return _summarize(name, seed, trace, samples, reports)


def _iteration(workers: list[Worker], calls: int) -> dict[str, dict]:
    """One iteration on every worker in lockstep: all run call j, then all run call j+1.

    Side by side on one CPU, each call of one side then shares the CPU with
    the same call of the other, so neither side's calls meet lighter or
    heavier neighbours than the other's.  Returns each side's CPU and wall
    seconds and quality gap.
    """
    totals = {worker.side: {"cpu_s": 0.0, "wall_s": 0.0} for worker in workers}
    for j in range(calls):
        for side, reply in _all(workers, call=j).items():
            totals[side]["cpu_s"] += reply["cpu_s"]
            totals[side]["wall_s"] += reply["wall_s"]
    for side, reply in _all(workers, check=True).items():
        totals[side]["quality_gap"] = reply["quality_gap"]
    return totals


def _timed(seconds: float, step, minimum: int) -> None:
    """Call ``step`` until ``seconds`` have passed and it ran at least ``minimum`` times."""
    deadline = time.monotonic() + seconds
    n = 0
    while n < minimum or time.monotonic() < deadline:
        step()
        n += 1


def _summarize(name: str, seed: int, trace: bool, samples: dict, reports: dict) -> dict:
    checkout = reports["checkout"]
    attempted, failed = checkout["attempted"], checkout["failed"]
    gaps = [g for g in samples["checkout"]["quality_gap"] if g is not None]
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "attempted": attempted, "failed": failed, "failures": checkout["failures"],
        "quality_tolerance": checkout["quality_tolerance"], "samples": samples,
    }
    summary = {
        "peak_rss_mib": checkout["peak_rss_kib"] / 1024,
        "quality_gap": max(gaps) if gaps else None,
        "failed_frac": failed / attempted,
    }
    correct = failed == 0
    if trace:
        layers = samples["checkout"]["layers"]
        units = dict(PER_LAYER)
        counted = [m for m in layers[0] if units[m] in EXACT_UNITS or m.endswith("accept_ratio")]
        repeat = all(layer[m] == layers[0][m] for layer in layers for m in counted)
        result["counts_repeat"] = repeat
        correct = correct and repeat
        per_layer = {m: layers[0][m] if m in counted else statistics.median(x[m] for x in layers)
                     for m in layers[0]}
        per_layer["cli.failed"] = failed
        per_layer["trace.overhead_frac"] = (statistics.median(samples["checkout"]["traced_wall_s"])
                                            / statistics.median(samples["checkout"]["wall_s"]) - 1)
        result["metrics"] = {m: {"value": per_layer[m], "unit": unit} for m, unit in PER_LAYER}
        result["end_to_end"] = summary
    else:
        reference = reports["reference"]
        if reference["failed"]:
            raise BenchError(f"{name}: the reference failed: {reference['failures']}")
        # Iteration i of one side ran beside iteration i of the other.
        run_s = [WORKLOADS[name].reference_s * c / r for c, r in
                 zip(samples["checkout"]["cpu_s"], samples["reference"]["cpu_s"])]
        setup_s = [REFERENCE_READY_S * c / r for c, r in
                   zip(samples["ready_cpu_s"]["checkout"], samples["ready_cpu_s"]["reference"])]
        samples.update(run_s=run_s, setup_s=setup_s)
        summary.update(run_s=statistics.median(run_s), setup_s=statistics.median(setup_s))
        result["run_s_tail"] = _tail(run_s)
        result["outputs_match_reference"] = checkout["digests"] == reference["digests"]
        result["metrics"] = {m: {"value": summary[m], "unit": unit}
                             for m, unit in END_TO_END + GUARDS}
    result["correct"] = correct
    return result


def _print_run(result: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']} "
          f"correct={result['correct']} ({result['failed']} of {result['attempted']} calls failed)")
    for note in result["failures"]:
        print(f"  FAILED {note}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        extra = ""
        if name == "run_s":
            tail = result["run_s_tail"]
            extra = (f"  (median; p{tail['percentile']:g} {tail['value']:.6g} s;"
                     f" n={tail['samples']})")
        elif name == "setup_s":
            extra = f"  (median of {len(result['samples']['setup_s'])} set-ups)"
        elif name == "quality_gap":
            extra = f"  (tolerance {result['quality_tolerance']:.4g})"
        print(f"  {name:<46} {text:>14} {metric['unit']}{extra}")
    if "outputs_match_reference" in result:
        print(f"  outputs match the reference: {result['outputs_match_reference']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="timed part of one run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="result file to write or append to "
                                      "(default .bench_out/results/<time>.json)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Turn SIGTERM into SystemExit so the finally blocks kill and reap running workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for package in (ROOT / "src" / "dothash", REFERENCE / "dothash"):
        if not (package / "__init__.py").is_file():
            print(f"bench: no dothash sources under {package.parent}", file=sys.stderr)
            return 2
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by every worker
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    record = {"schema": 2, "host": host_record(ROOT, BLAS_THREADS),
              "settings": {"seconds": args.seconds, "setup_repeats": SETUP_REPEATS,
                           "trace": args.trace, "cpu": cpu,
                           "reference_commit": REFERENCE_COMMIT},
              "runs": []}
    try:
        for name in names:
            result = run_once(name, args.seed, args.seconds, bool(args.trace))
            record["runs"].append(result)
            _print_run(result)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    runs = record["runs"]
    out = Path(args.out) if args.out else OUT / "results" / time.strftime("%Y%m%dT%H%M%S.json")
    if out.exists():  # append, so runs alternating between two checkouts collect in one file
        record["runs"] = json.loads(out.read_text())["runs"] + runs
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"result file: {out}")
    correct = all(run["correct"] for run in runs)
    keys = [m for m, _ in (PER_LAYER if args.trace else END_TO_END)]
    if len(runs) == 1:
        metrics = {m: runs[0]["metrics"][m] for m in keys}
    else:
        metrics = {f"{run['workload']}.{m}": run["metrics"][m] for run in runs for m in keys}
    print(json.dumps({"correct": correct, "attempted": sum(run["attempted"] for run in runs),
                      "failed": sum(run["failed"] for run in runs), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
