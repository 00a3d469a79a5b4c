"""Independent checks of each op's output.

Each factory returns ``check(exit_code, stdout) -> None | reason``.  The checks
recompute what they can from the generated instance itself (degrees, edge
sizes, file digests, colorings, witnesses by brute force) and use pinned
values from the literature for the exact oracles; none calls the package.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product
from math import ceil


def degrees(n, edges):
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    return deg


def _global_ratio(edges) -> Fraction:
    """|E| / |union E|: a lower bound on the density L."""
    return Fraction(len(edges), len({v for e in edges for v in e}))


def _proper(edges, color) -> bool:
    return all(len({color[v] for v in e}) > 1 for e in edges)


def analyze(inst, pinned=None):
    n, edges = inst.n, inst.edges
    deg = degrees(n, edges)
    s = min(len(e) for e in edges)
    d = max(deg)

    def check(code, stdout):
        doc = json.loads(stdout)
        if doc["n"] != n or doc["digest"] != inst.digest:
            return "n or digest differs from the generated file"
        met = doc["metrics"]
        if (met["max_degree"], met["min_edge_size"], met["edge_count"]) != (
            d, s, len(edges)
        ):
            return "metrics differ from the instance"
        lam = Fraction(doc["l_num"], doc["l_den"])
        if not _global_ratio(edges) <= lam <= Fraction(d, s):
            return f"density {lam} outside [|E|/|V(E)|, D/s]"
        if inst.density is not None and lam != Fraction(*inst.density):
            return f"density {lam} != known {Fraction(*inst.density)}"
        if doc["bound_sparse"] != ceil(lam) + 1:
            return "bound_sparse != ceil(L) + 1"
        if doc["bound_degree"] != ceil(Fraction(d, s)) + 1:
            return "bound_degree != ceil(D/s) + 1"
        if doc["bound_gk"] != ceil(Fraction(2 * d, s)) + 1:
            return "bound_gk != ceil(2D/s) + 1"
        if not doc["bound_sparse"] <= doc["bound_degree"] <= doc["bound_gk"]:
            return "bounds out of order"
        if inst.two_colorable is not None and doc["two_colorable"] != inst.two_colorable:
            return f"two_colorable is {doc['two_colorable']}, expected {inst.two_colorable}"
        if "chromatic_number" in doc:
            chi, ch = doc["chromatic_number"], doc["choice_number"]
            if pinned is not None and (chi, ch) != (pinned["chi"], pinned["ch"]):
                return f"(chi, ch) = ({chi}, {ch}), pinned {pinned}"
            if (chi == 2) != doc["two_colorable"] or not chi <= ch <= doc["bound_gk"]:
                return f"(chi, ch) = ({chi}, {ch}) inconsistent with the bounds"
            if doc["two_colorable"] and ch > doc["bound_sparse"]:
                return "ch above ceil(L) + 1 on a 2-colorable instance"
        inst.analyze = doc
        return None

    return check


def _check_heads(inst, head, reported):
    if len(head) != len(inst.edges):
        return "one head per edge expected"
    if any(h not in e for h, e in zip(head, inst.edges)):
        return "a head lies outside its edge"
    if reported != degrees(inst.n, [(h,) for h in head]):
        return "degrees differ from the head counts"
    return None


def orient(inst):
    def check(code, stdout):
        doc = json.loads(stdout)
        bad = _check_heads(inst, doc["head"], doc["degrees"])
        if bad:
            return bad
        k = doc["k_star"]
        if max(doc["degrees"]) != k:
            return "max head degree != k_star"
        if k < ceil(_global_ratio(inst.edges)):
            return "k_star below ceil(|E|/|V(E)|)"
        known = inst.density
        if known is None and inst.analyze is not None:
            known = (inst.analyze["l_num"], inst.analyze["l_den"])
        if known is not None and k != ceil(Fraction(*known)):
            return f"k_star {k} != ceil(L) = {ceil(Fraction(*known))}"
        return None

    return check


def orient_capped(inst, k):
    def check(code, stdout):
        doc = json.loads(stdout)
        if doc["k"] != k:
            return "cap echoed wrongly"
        known = inst.density
        must_exist = known is not None and ceil(Fraction(*known)) <= k
        if not doc["feasible"]:
            return "no orientation although ceil(L) <= k" if must_exist else None
        bad = _check_heads(inst, doc["head"], doc["degrees"])
        if bad:
            return bad
        if max(doc["degrees"]) > k:
            return "head degree above the cap"
        return None

    return check


def coloring(inst, lists):
    def check(code, stdout):
        color = json.loads(stdout)
        if len(color) != inst.n:
            return "coloring has the wrong length"
        if any(c not in lv for c, lv in zip(color, lists)):
            return "a color lies outside its vertex's list"
        if not _proper(inst.edges, color):
            return "a monochromatic edge"
        return None

    return check


def _list_colorable(edges, lists) -> bool:
    return any(_proper(edges, color) for color in product(*lists))


def choosability(inst, f, expected):
    def check(code, stdout):
        doc = json.loads(stdout)
        if doc["f"] != f or doc["choosable"] != expected:
            return f"choosable={doc['choosable']} at f={f}, expected {expected}"
        witness = doc["witness"]
        if expected:
            return None if witness is None else "witness on a positive verdict"
        lists = witness["lists"]
        if len(lists) != inst.n or any(len(lv) != f for lv in lists):
            return "witness lists have the wrong shape"
        if _list_colorable(inst.edges, lists):
            return "witness is colorable by brute force"
        return None

    return check


def exact(what, value):
    def check(code, stdout):
        doc = json.loads(stdout)
        if doc != {"what": what, "value": value}:
            return f"{what} = {doc.get('value')}, pinned {value}"
        return None

    return check


def coefficient(inst):
    deg = degrees(inst.n, inst.edges)
    s = min(len(e) for e in inst.edges)
    top = ceil(Fraction(max(deg), s)) + 1

    def check(code, stdout):
        doc = json.loads(stdout)
        # The unsigned product has no cancellation and the orientation's own
        # head choice is one of its terms, so the count is at least 1.
        if not isinstance(doc["coef"], int) or doc["coef"] < 1:
            return "coefficient count below 1"
        if doc["sign"] not in (-1, 1):
            return "sign is not +-1"
        if not ceil(_global_ratio(inst.edges)) + 1 <= doc["choosable_bound"] <= top:
            return "choosable_bound outside [ceil(|E|/|V(E)|)+1, ceil(D/s)+1]"
        return None

    return check


def _complete_colorable(s, half, lists) -> bool:
    """Brute force over the complete s-uniform hypergraph on sides (half, half)."""
    for color in product(*lists):
        ok = True
        for c in set(color):
            a = color[:half].count(c)
            b = color[half:].count(c)
            if a and b and a + b >= s:
                ok = False
                break
        if ok:
            return True
    return False


def lower_bound(s, l, t, trials):
    def check(code, stdout):
        doc = json.loads(stdout)
        cats = doc["categories"]
        if doc["trials"] != trials or sum(cats.values()) != trials:
            return "trial counts do not add up"
        if doc["witness_fraction"] != cats["witness_found"] / trials:
            return "witness_fraction differs from the category count"
        witness = doc.get("witness")
        if (witness is None) != (cats["witness_found"] == 0):
            return "witness presence disagrees with the count"
        if witness is not None:
            lists = witness["lists"]
            if len(lists) != t or any(len(lv) != l for lv in lists):
                return "witness lists have the wrong shape"
            if lists[: t // 2] != lists[t // 2 :]:
                return "witness lists are not mirrored"
            if _complete_colorable(s, t // 2, lists):
                return "witness is colorable by brute force"
        return None

    return check


def split_color(inst, lists, max_iters):
    def check(code, stdout):
        doc = json.loads(stdout)
        rep = doc["report"]
        if sum(rep["categories"].values()) != rep["trials"] or rep["trials"] > max_iters:
            return "report trial counts do not add up"
        if doc["success"] != (code == 0):
            return "success flag disagrees with the exit code"
        if code == 0:
            return coloring(inst, lists)(code, json.dumps(doc["coloring"]))
        return None

    return check


def thresholds(s, l, t):
    r = s ** (1.0 / l)
    split_p = (r - 1) / (1 + r)
    ert = t < (1 + r) ** l / 4
    corollary = t * t <= s * 4 ** (l - 2)

    def check(code, stdout):
        doc = json.loads(stdout)
        if (doc["s"], doc["l"], doc["t"]) != (s, l, t):
            return "parameters echoed wrongly"
        if not math.isclose(doc["split_p"], split_p, rel_tol=1e-12):
            return f"split_p {doc['split_p']} != {split_p}"
        if doc["ert_upper"] != ert or doc["corollary"] != corollary:
            return "threshold predicates differ from the closed forms"
        return None

    return check
