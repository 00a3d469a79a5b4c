"""Seeded instance generators and the op lists of the three workloads.

An op is one ``hyperchoose`` command line run against generated files.  The
generators here are the benchmark's own (plain numpy), except the regular
family, which is defined as ``gen_k_regular_k_uniform(3, n, seed)`` and so
comes from the package.  Every instance is written to disk before the first
op runs; the program only ever sees those files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks

LADDER = (100, 300, 1_000, 3_000, 10_000)

# Instances per ladder rung.  The cheap rungs carry extra seeds so that a pass
# runs well over 100 ops and its 90th percentile has many samples above it.
PLANTED_COPIES = {100: 40, 300: 20, 1_000: 2, 3_000: 1, 10_000: 1}
REGULAR_COPIES = {100: 1, 300: 1, 1_000: 1, 3_000: 1, 10_000: 1}
CHAIN_COPIES = {100: 40, 300: 20, 1_000: 1, 3_000: 1, 10_000: 1}

FAMILY_IDS = {"planted": 1, "regular": 2, "chain": 3, "lab": 4}


@dataclass(eq=False)
class Instance:
    """One generated hypergraph, the files it lives in, and what is known of it."""

    family: str
    n: int
    edges: list[tuple[int, ...]]
    path: str
    digest: str
    two_colorable: Optional[bool] = None
    density: Optional[tuple[int, int]] = None  # exact L as (num, den) when known
    analyze: Optional[dict] = None  # the instance's own successful analyze report


@dataclass(eq=False)
class Op:
    """One command line, the exit codes it may return, and its output check."""

    family: str
    n: int
    name: str
    argv: list[str]
    check: Callable[[int, str], Optional[str]]
    expect: tuple[int, ...] = (0,)
    skip_key: Optional[tuple[str, str]] = None
    instance: Optional[Instance] = None

    @property
    def label(self) -> str:
        return f"{self.family} n={self.n} {self.name}"


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _instance_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _write_hgr(path: Path, n: int, edges: list[tuple[int, ...]]) -> str:
    lines = [f"p hg {n} {len(edges)}"]
    lines.extend("e " + " ".join(map(str, e)) for e in edges)
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(raw)
    return hashlib.sha256(raw).hexdigest()


def _instance(
    workdir: Path, family: str, tag: str, n: int, edges: list[tuple[int, ...]]
) -> Instance:
    path = workdir / f"{family}-{tag}.hgr"
    digest = _write_hgr(path, n, edges)
    return Instance(family, n, edges, str(path), digest)


def planted_edges(n: int, m: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """m random 3-sets on n vertices, each meeting both halves 0..n/2-1 and n/2..n-1.

    The split is the fixed half/half one of the size ladder; the program is
    not told it.
    """
    side = np.arange(n) < n // 2
    edges: list[tuple[int, ...]] = []
    while len(edges) < m:
        draw = rng.integers(0, n, size=(2 * (m - len(edges)) + 8, 3))
        distinct = (
            (draw[:, 0] != draw[:, 1])
            & (draw[:, 0] != draw[:, 2])
            & (draw[:, 1] != draw[:, 2])
        )
        hits = side[draw].sum(axis=1)
        keep = draw[distinct & (hits > 0) & (hits < 3)]
        edges.extend(tuple(sorted(map(int, row))) for row in keep[: m - len(edges)])
    return edges


def chain_edges(n: int) -> list[tuple[int, ...]]:
    """The path (i, i+1) plus a duplicate (0, 1): L = 1 and augmenting paths of length n."""
    return [(i, i + 1) for i in range(n - 1)] + [(0, 1)]


def random_lists(
    n: int, size: int, rng: np.random.Generator
) -> list[list[int]]:
    """Per-vertex random size-subsets of a palette twice the list size."""
    palette = 2 * size
    keys = rng.random((n, palette))
    picks = np.argsort(keys, axis=1)[:, :size]
    picks.sort(axis=1)
    return picks.tolist()


def _write_lists(path: Path, lists: list[list[int]]) -> str:
    path.write_text(json.dumps({"n": len(lists), "lists": lists}), "utf-8")
    return str(path)


def _ladder_ops(inst: Instance, workdir: Path, tag: str, rng, commands) -> list[Op]:
    """The ops of one ladder instance; ``commands`` picks which of them run."""
    s = min(len(e) for e in inst.edges)
    d = max(checks.degrees(inst.n, inst.edges))
    ops = []
    for name in commands:
        if name == "analyze":
            argv = ["analyze", inst.path, "--no-timing"]
            check = checks.analyze(inst)
        elif name == "orient":
            argv = ["orient", inst.path]
            check = checks.orient(inst)
        elif name == "orient-k1":
            argv = ["orient", inst.path, "--k", "1"]
            check = checks.orient_capped(inst, 1)
        else:
            method = name.split("-", 1)[1]
            size = ceil(2 * d / s) + 1 if method == "gk" else ceil(d / s) + 1
            lists = random_lists(inst.n, size, rng)
            lpath = _write_lists(workdir / f"{inst.family}-{tag}-{method}.json", lists)
            argv = ["color", inst.path, lpath, "--method", method]
            check = checks.coloring(inst, lists)
        ops.append(
            Op(inst.family, inst.n, name, argv, check, skip_key=(inst.family, name),
               instance=inst)
        )
    return ops


def planted_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for n in LADDER:
        for c in range(PLANTED_COPIES[n]):
            rng = _rng(seed, FAMILY_IDS["planted"], n, c)
            tag = f"{n}-{c}"
            inst = _instance(workdir, "planted", tag, n, planted_edges(n, 2 * n, rng))
            inst.two_colorable = True
            ops += _ladder_ops(
                inst, workdir, tag, rng,
                ("analyze", "orient", "color-gk", "color-sparse"),
            )
    return ops


def deep_ops(seed: int, workdir: Path, gen_regular) -> list[Op]:
    # Chains come first on each rung so that warm-up runs a chain, not the
    # regular 2-coloring search that may hit the deadline.
    ops = []
    for n in LADDER:
        for c in range(CHAIN_COPIES[n]):
            rng = _rng(seed, FAMILY_IDS["chain"], n, c)
            tag = f"{n}-{c}"
            inst = _instance(workdir, "chain", tag, n, chain_edges(n))
            inst.two_colorable = True
            inst.density = (1, 1)
            ops += _ladder_ops(
                inst, workdir, tag, rng,
                ("analyze", "orient", "color-gk", "color-sparse"),
            )
        for c in range(REGULAR_COPIES[n]):
            rng = _rng(seed, FAMILY_IDS["regular"], n, c)
            tag = f"{n}-{c}"
            hg = gen_regular(3, n, _instance_seed(seed, FAMILY_IDS["regular"], n, c))
            if hg is None:
                raise RuntimeError(f"regular generator gave up at n={n}")
            inst = _instance(workdir, "regular", tag, n, [tuple(e) for e in hg.edges])
            # k-regular k-uniform: |E'| * k <= k * |union E'| for every E'.
            inst.density = (1, 1)
            ops += _ladder_ops(
                inst, workdir, tag, rng, ("analyze", "orient", "orient-k1", "color-gk")
            )
    return ops


# ---------------------------------------------------------------------------
# lab: desk-scale exact oracles and dense-regime experiments
# ---------------------------------------------------------------------------

K33 = [(a, b) for a in range(3) for b in range(3, 6)]
K3_22 = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]

# Known values: ch(K33) = 3 (Erdos-Rubin-Taylor), chi(Fano) = ch(Fano) = 3.
# gen_complete(3, 2, 2) is every triple of 4 vertices; 2-lists always colour it
# because no colour need be used three times (Hall, capacity 2 per colour).
PINNED = {
    "k33": {"chi": 2, "ch": 3},
    "k3_22": {"chi": 2, "ch": 2},
    "fano": {"chi": 3, "ch": 3},
}

# Edge counts of the coefficient ladder (planted, m = 2n).  Measured at the
# time of writing, the unguarded count returns in under 0.4 s up to 16 edges,
# takes 0.2-4.7 s at 20-22 edges and grows about threefold per two edges; the
# last rung lies well past that point and is expected to hit the deadline.
COEFFICIENT_COPIES = {8: 4, 12: 4, 16: 3, 36: 1}
LOWER_BOUND_RUNS = 30
SPLIT_COLOR_RUNS = 16

THRESHOLD_GRID = [
    (s, l, t)
    for s in (2, 3, 5, 7, 16)
    for l in (2, 3, 4)
    for t in (2, 5, 9, 17)
]


def lab_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    named = {}
    for tag, n, edges in (("k33", 6, K33), ("k3_22", 4, K3_22), ("fano", 7, FANO)):
        inst = _instance(workdir, "lab", tag, n, edges)
        inst.two_colorable = tag != "fano"
        named[tag] = inst
    k33 = named["k33"]
    for f, universe in ((2, 12), (3, 18)):
        ops.append(
            Op(
                "lab", k33.n, f"choosability-k33-f{f}",
                ["choosability", k33.path, "--f", str(f), "--max-universe", str(universe)],
                checks.choosability(k33, f, f >= PINNED["k33"]["ch"]),
                instance=k33,
            )
        )
    for tag, inst in named.items():
        for what in ("chi", "ch"):
            ops.append(
                Op(
                    "lab", inst.n, f"exact-{what}-{tag}",
                    ["exact", inst.path, "--what", what],
                    checks.exact(what, PINNED[tag][what]),
                )
            )
        if tag != "fano":  # exact-ch-fano already runs the same choice_number
            ops.append(
                Op(
                    "lab", inst.n, f"analyze-exact-{tag}",
                    ["analyze", inst.path, "--exact", "--no-timing"],
                    checks.analyze(inst, pinned=PINNED[tag]),
                )
            )
    for c in range(4):
        rng = _rng(seed, FAMILY_IDS["lab"], 1, c)
        inst = _instance(workdir, "lab", f"small-{c}", 6, planted_edges(6, 6, rng))
        inst.two_colorable = True
        ops.append(
            Op(
                "lab", inst.n, "analyze-exact-planted",
                ["analyze", inst.path, "--exact", "--no-timing"],
                checks.analyze(inst),
            )
        )
    for m, copies in COEFFICIENT_COPIES.items():
        for c in range(copies):
            rng = _rng(seed, FAMILY_IDS["lab"], 2, m, c)
            n = m // 2
            inst = _instance(workdir, "lab", f"coef-{m}-{c}", n, planted_edges(n, m, rng))
            inst.two_colorable = True
            ops.append(
                Op("lab", n, f"coefficient-m{m}", ["coefficient", inst.path],
                   checks.coefficient(inst))
            )
    s, l, t = 3, 2, 8
    for c in range(LOWER_BOUND_RUNS):
        dseed = str(_instance_seed(seed, FAMILY_IDS["lab"], 3, c) % 2**31)
        ops.append(
            Op(
                "lab", t, "dense-lower-bound",
                ["dense", "lower-bound", "--s", str(s), "--l", str(l), "--t", str(t),
                 "--trials", "200", "--seed", dseed],
                checks.lower_bound(s, l, t, 200),
            )
        )
    for c in range(SPLIT_COLOR_RUNS):
        rng = _rng(seed, FAMILY_IDS["lab"], 4, c)
        inst = _instance(workdir, "lab", f"split-{c}", 40, planted_edges(40, 80, rng))
        inst.two_colorable = True
        lists = random_lists(inst.n, 4, rng)
        lpath = _write_lists(workdir / f"lab-split-{c}.json", lists)
        dseed = str(_instance_seed(seed, FAMILY_IDS["lab"], 5, c) % 2**31)
        ops.append(
            Op(
                "lab", inst.n, "dense-split-color",
                ["dense", "split-color", inst.path, lpath, "--max-iters", "200",
                 "--seed", dseed],
                checks.split_color(inst, lists, 200),
                expect=(0, 5),
                instance=inst,
            )
        )
    for s, l, t in THRESHOLD_GRID:
        ops.append(
            Op(
                "lab", t, "dense-thresholds",
                ["dense", "thresholds", "--s", str(s), "--l", str(l), "--t", str(t)],
                checks.thresholds(s, l, t),
            )
        )
    return ops


def build(workload: str, seed: int, workdir: Path, package) -> list[Op]:
    """Write every input file of ``workload`` under ``workdir`` and return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "planted":
        return planted_ops(seed, workdir)
    if workload == "deep":
        return deep_ops(seed, workdir, package.core.gen_k_regular_k_uniform)
    if workload == "lab":
        return lab_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
