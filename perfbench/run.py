"""End-to-end benchmark of the hyperchoose CLI on seeded size ladders.

One client in a closed loop: a single process calls ``hyperchoose.cli.main``
in-process on a fixed, seeded list of ops, back to back.  Each op has a
deadline; an op fails when it raises, runs past the deadline, exits with a
code not expected for its input, or prints output that the benchmark's own
check rejects.  A failed op is charged the deadline.  Once a command fails at
some rung of a family, its larger rungs are charged the deadline without
being run (cause ``skipped``).

Usage (from the repository root):

    python3 perfbench/run.py --workload planted --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("planted", "deep", "lab")
DEFAULT_SEED = 1  # seed 20261017 is held out for confirming claimed gains
DEADLINE_S = 10.0
SETUP_REPEATS = 5
CAUSES = ("timeout", "recursion", "exception", "exit_code", "wrong_output", "skipped")

# The gated end-to-end metrics, as listed in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))
# Printed in the report but not gated.  Per-op latency percentiles move with
# the host's speed by more than the largest bound allowed; failed_frac reaches
# 0 once every defect is fixed; frontier_n exists on the ladder workloads only.
REPORTED = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("failed_frac", "1"),
    ("frontier_n", "vertices"),
)


class OpDeadline(BaseException):
    """Raised inside an op by the interval timer; not an ``Exception``."""


def _on_alarm(signum, frame):
    raise OpDeadline()


@dataclass
class Result:
    op: int
    seconds: float
    cause: str | None = None
    detail: str = ""

    @property
    def charged(self) -> float:
        return DEADLINE_S if self.cause else self.seconds


def import_package():
    """Import hyperchoose from this checkout afresh, as a new process would."""
    for key in [k for k in sys.modules if k == "hyperchoose" or k.startswith("hyperchoose.")]:
        del sys.modules[key]
    package = importlib.import_module("hyperchoose")
    importlib.import_module("hyperchoose.cli")
    if Path(package.__file__).resolve().parent != SRC / "hyperchoose":
        raise ImportError(f"hyperchoose imported from {package.__file__}, not {SRC}")
    return package


def run_op(package, op: workloads.Op, index: int) -> Result:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    code = None
    cause, detail = None, ""
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                code = package.cli.main(op.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        cause = "timeout"
    except RecursionError:
        cause = "recursion"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any other exception is a failed op, not a crash
        cause, detail = "exception", f"{type(exc).__name__}: {exc}"[:160]
    elapsed = time.perf_counter() - start
    if cause is None and code not in op.expect:
        cause, detail = "exit_code", f"exit {code}: {err.getvalue().strip()[:120]}"
    if cause is None:
        try:
            detail = op.check(code, out.getvalue()) or ""
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            detail = f"unreadable output ({type(exc).__name__}: {exc})"
        if detail:
            cause = "wrong_output"
    return Result(index, elapsed, cause, detail)


def run_pass(package, ops, tracer=None) -> list[Result]:
    first_failure: dict[tuple[str, str], int] = {}
    results = []
    for i, op in enumerate(ops):
        rung = first_failure.get(op.skip_key)
        if rung is not None and rung < op.n:
            results.append(Result(i, 0.0, "skipped", f"failed at n={rung}"))
            continue
        if tracer is not None:
            tracer.op = i
        res = run_op(package, op, i)
        if res.cause and op.skip_key is not None:
            first_failure.setdefault(op.skip_key, op.n)
        results.append(res)
    return results


def warm_up(package, ops):
    """Run the first op of each CLI subcommand once, untimed."""
    seen = set()
    for i, op in enumerate(ops):
        command = tuple(op.argv[:2]) if op.argv[0] == "dense" else op.argv[0]
        if command not in seen:
            seen.add(command)
            run_op(package, op, i)


def frontier(ops, results):
    """Largest rung n with every op at n and below successful (ladders only)."""
    ladder = [n for n in workloads.LADDER if any(op.n == n for op in ops)]
    if not ladder:
        return None
    bad = {ops[r.op].n for r in results if r.cause}
    best = 0
    for n in ladder:
        if n in bad:
            break
        best = n
    return best


def taxonomy(ops, results):
    """Failed ops by cause, with the first failing (family, n, command) of each."""
    out = {}
    for cause in CAUSES:
        hits = [r for r in results if r.cause == cause]
        if hits:
            first = ops[hits[0].op]
            out[cause] = {
                "count": len(hits),
                "first": {"family": first.family, "n": first.n, "command": first.name},
                "detail": hits[0].detail,
            }
    return out


def machine_notes() -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "recursion_limit": sys.getrecursionlimit(),
        "commit": commit,
        "deadline_s": DEADLINE_S,
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a nonnegative integer")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hyperchoose" / "__init__.py").is_file():
        print(f"error: no hyperchoose sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"

    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            package = import_package()
            ops = workloads.build(args.workload, args.seed, workdir / "inputs", package)
            warm_up(package, ops)
            setups.append(time.perf_counter() - start)

        passes: list[list[Result]] = []
        begin = time.perf_counter()
        while not passes or (
            not args.trace and time.perf_counter() - begin < args.seconds
        ):
            passes.append(run_pass(package, ops))
        solve = [sum(r.charged for r in results) for results in passes]
        every = [r for results in passes for r in results]
        latencies = sorted(r.charged * 1e3 for r in every)
        failed = sum(1 for r in every if r.cause)

        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(solve),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        reported = {
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
            "failed_frac": failed / len(every),
            "frontier_n": frontier(ops, passes[-1]),
        }
        units = dict(END_TO_END + REPORTED)
        layer_units = {name: unit for name, unit, _ in spans.metric_specs()}

        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_pass(package, ops, tracer)
            finally:
                tracer.uninstall()
            every_checked = every + traced
            traced_solve = sum(r.charged for r in traced)
            out_metrics = tracer.layer_metrics()
            out_metrics["trace.overhead_frac"] = (traced_solve - solve[0]) / solve[0]
            tracer.dump(workdir / "trace.json", [op.label for op in ops])
            final_units = layer_units
        else:
            every_checked = every
            out_metrics = metrics
            final_units = units

        wrong = [r for r in every_checked if r.cause == "wrong_output"]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "machine": machine_notes(),
            "ops_per_pass": len(ops),
            "passes": len(passes),
            "latency_samples": len(latencies),
            "samples_above_p90": sum(1 for x in latencies if x > reported["op_p90_ms"]),
            "setup_runs_s": setups,
            "solve_runs_s": solve,
            "failures": taxonomy(ops, passes[-1]),
        }
        print(json.dumps(report, indent=2))
        for name, value in {**metrics, **reported}.items():
            if value is not None:
                print(f"{name:>14} = {value} {units[name]}")
        per_op = [
            [ops[r.op].label, r.seconds, r.cause, r.detail] for r in passes[-1]
        ]
        (workdir / "report.json").write_text(
            json.dumps({**report, "metrics": {**metrics, **reported}, "ops": per_op}),
            "utf-8",
        )
    finally:
        shutil.rmtree(workdir / "inputs", ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(every),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": final_units[name]}
                    for name, value in out_metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
