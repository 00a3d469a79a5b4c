"""Self-test of the benchmark's output checks: real outputs pass, corrupted ones fail.

Runs one op of each kind on the smallest rung through ``run.run_op``, which
also checks the real output, then applies corruptions per kind and confirms
that the check rejects each of them and that ``run_op`` counts an op with a
rejected output as failed with cause ``wrong_output``.  Kinds whose real op
fails at the commit under test are listed and left out.  Run from the
repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import json
import shutil
import signal
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _monochromatic(edges, color):
    color = list(color)
    for v in edges[0][1:]:
        color[v] = color[edges[0][0]]
    return color


def corruptions(op):
    """Mutations of the parsed output that the op's check must reject."""
    name = op.name
    if name.startswith("analyze"):
        yield lambda d: {**d, "two_colorable": not d["two_colorable"]}
        yield lambda d: {**d, "bound_gk": d["bound_gk"] - 1}
        yield lambda d: {**d, "l_num": d["l_num"] + 5 * d["l_den"]}
        if "--exact" in op.argv:
            yield lambda d: {**d, "choice_number": d["choice_number"] + 1}
    elif name == "orient":
        yield lambda d: {**d, "k_star": d["k_star"] + 1}
        yield lambda d: {**d, "head": [-1] + d["head"][1:]}
    elif name == "orient-k1":
        yield lambda d: {**d, "feasible": False, "head": None, "degrees": None}
    elif name.startswith("color-"):
        yield lambda d: [d[0] + 1000] + d[1:]
        yield lambda d: _monochromatic(op.instance.edges, d)
    elif name.startswith("choosability"):
        yield lambda d: {**d, "choosable": not d["choosable"]}
        if name.endswith("f2"):
            # A 2-coloring of K33 exists, so these lists are no witness.
            yield lambda d: {**d, "witness": {"n": 6, "lists": [[1, 2]] * 6}}
    elif name.startswith("exact"):
        yield lambda d: {**d, "value": d["value"] + 1}
    elif name.startswith("coefficient"):
        yield lambda d: {**d, "coef": 0}
    elif name == "dense-lower-bound":
        yield lambda d: {**d, "trials": d["trials"] + 1}
        yield lambda d: {
            **d,
            "categories": {"witness_found": 1, "colorable": d["trials"] - 1},
            "witness_fraction": 1 / d["trials"],
            "witness": {"n": 8, "lists": [[1, 2], [3, 4], [5, 6], [7, 8]] * 2},
        }
    elif name == "dense-split-color":
        yield lambda d: {**d, "success": not d["success"]}
        yield lambda d: {**d, "report": {**d["report"], "trials": d["report"]["trials"] + 1}}
    elif name == "dense-thresholds":
        yield lambda d: {**d, "split_p": d["split_p"] * 1.001}
        yield lambda d: {**d, "corollary": not d["corollary"]}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    package = run.import_package()
    workdir = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    kinds: dict[str, workloads.Op] = {}
    for name in run.WORKLOADS:
        for op in workloads.build(name, run.DEFAULT_SEED, workdir / name, package):
            if op.n <= 300 and not op.name.endswith("m36"):
                kinds.setdefault(f"{op.family}:{op.name}", op)

    problems, failing = [], []
    corrupted = 0
    for key, op in kinds.items():
        result = run.run_op(package, op, 0)
        if result.cause == "wrong_output":
            problems.append(f"{key}: real output rejected: {result.detail}")
        if result.cause:
            failing.append(f"{key} ({result.cause})")
            continue
        out = io.StringIO()
        with redirect_stdout(out):
            code = package.cli.main(op.argv)
        doc = json.loads(out.getvalue())
        for corrupt in corruptions(op):
            corrupted += 1
            try:
                verdict = op.check(code, json.dumps(corrupt(doc)))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                verdict = type(exc).__name__
            if verdict is None:
                problems.append(f"{key}: corrupted output accepted")

    sample = next(iter(kinds.values()))
    rejecting = workloads.Op(
        sample.family, sample.n, sample.name, sample.argv, lambda code, out: "corrupt"
    )
    result = run.run_op(package, rejecting, 0)
    if result.cause != "wrong_output" or result.charged != run.DEADLINE_S:
        problems.append(f"run_op did not fail a rejected output: {result}")

    shutil.rmtree(workdir, ignore_errors=True)
    for line in failing:
        print("not checked, the op fails at this commit:", line)
    for line in problems:
        print("FAIL", line)
    print(f"{len(kinds)} op kinds, {corrupted} corruptions, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
