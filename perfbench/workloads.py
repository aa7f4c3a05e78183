"""Seeded operation lists, closed-form expectations and the output checker.

An operation is one ``steinberg-ext`` command line.  The program sees only
the argv built here; everything the checker compares against is derived in
this file from first principles (the closed forms and Weyl group orders),
never by importing the package under test.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import cycle
from math import comb, factorial

RING_Q = "Q"
# 3 has order 168 mod 1009: every q^r - 1 the rank-4 sweeps need is a unit.
RING_ZD_SMALL = "q=3,d=1009"
# A large prime: the Z/d universal-coefficient path costs real time here.
RING_ZD_LARGE = "q=3,d=1000003"

RANKS = {"A5": 5, "B5": 5, "B4": 4, "D4": 4, "E6": 6, "E7": 7, "E8": 8}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must be."""

    argv: tuple[str, ...]
    work: int  # verified (I, J) pairs for a sweep, 1 for a single query
    expect: dict

    def label(self) -> str:
        return " ".join(a if a else "''" for a in self.argv)


WORKLOADS = ("sweep-q", "strata-zd", "exceptional-queries")

# One round of each sweep, in seeded order.  D4 runs twice per round: a B4
# sweep takes about 2.5 times as long, and with equal counts the median op
# would sit between the two types, where one outlier moves it.
SWEEPS = {
    "sweep-q": (("A5", "B5"), RING_Q, "off"),
    "strata-zd": (("B4", "D4", "D4"), RING_ZD_SMALL, "on"),
}


def _indices(mask: int) -> str:
    return ",".join(str(i) for i in range(mask.bit_length()) if mask >> i & 1)


def _size(mask: int) -> int:
    return bin(mask).count("1")


def sweep_assertions(rank: int, strata: bool) -> int:
    """Assertion lines ``verify --all-pairs`` prints: one cohomology line per
    subset and two (four with strata) method checks per pair."""
    return (4 if strata else 2) * 4 ** rank + 2 ** rank


# ---------------------------------------------------------------------------
# closed forms, as JSON tables the CLI prints

def _line(degree: int) -> dict:
    return {str(degree): {"rank": 1, "torsion": []}}


def _exterior(n: int, shift: int = 0) -> dict:
    return {str(shift + j): {"rank": comb(n, j), "torsion": []} for j in range(n + 1)}


def closed_ext(rank: int, I: int, J: int) -> dict:
    return _line(_size(I | J) - _size(I & J))


def closed_cohomology(rank: int, I: int) -> dict:
    return _line(rank - _size(I))


def closed_ext_vi(rank: int, I: int, J: int) -> dict:
    if I | J != (1 << rank) - 1:
        return {}
    return _exterior(rank - _size(J), rank - _size(I))


def closed_ext_induced(rank: int, I: int, J: int) -> dict:
    return _exterior(rank - _size(J)) if J & ~I == 0 else {}


# ---------------------------------------------------------------------------
# Weyl group orders of E-type parabolic subgroups, from the Dynkin diagram

def e_edges(rank: int) -> list[tuple[int, int]]:
    """Bonds of E_rank in the CLI's labelling (branch node 3, alpha_1 on it)."""
    return [(0, 2), (2, 3), (3, 4), (1, 3)] + [(i, i + 1) for i in range(4, rank - 1)]


def _component_order(nodes: set[int], adj: dict[int, set[int]]) -> int:
    n = len(nodes)
    branch = [v for v in nodes if len(adj[v] & nodes) == 3]
    if not branch:
        return factorial(n + 1)  # A_n
    arms = []
    for start in adj[branch[0]] & nodes:
        length, prev, cur = 1, branch[0], start
        while True:
            nxt = (adj[cur] & nodes) - {prev}
            if not nxt:
                break
            prev, cur = cur, nxt.pop()
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return 2 ** (n - 1) * factorial(n)  # D_n
    return {6: 51840, 7: 2903040, 8: 696729600}[n]  # E_n


def e_parabolic_order(rank: int, mask: int) -> int:
    """|W_L| for the parabolic subgroup of E_rank generated by ``mask``."""
    adj: dict[int, set[int]] = {i: set() for i in range(rank)}
    for a, b in e_edges(rank):
        adj[a].add(b)
        adj[b].add(a)
    left = {i for i in range(rank) if mask >> i & 1}
    order = 1
    while left:
        comp, todo = set(), [left.pop()]
        while todo:
            v = todo.pop()
            comp.add(v)
            todo.extend(adj[v] & left)
            left -= adj[v]
        order *= _component_order(comp, adj)
    return order


# ---------------------------------------------------------------------------
# operation lists

def _sweep_ops(name: str, rng: random.Random) -> list[Op]:
    types, ring, strata = SWEEPS[name]
    order = list(types)
    rng.shuffle(order)
    return [Op(("verify", "--type", t, "--ring", ring, "--all-pairs", "--strata", strata),
               4 ** RANKS[t],
               {"assertions": sweep_assertions(RANKS[t], strata == "on"),
                "summary_ring": ring})
            for t in order]


def _random_mask(rng: random.Random, within: int, size: int) -> int:
    bits = [i for i in range(within.bit_length()) if within >> i & 1]
    out = 0
    for i in rng.sample(bits, size):
        out |= 1 << i
    return out


def _subsets(rng: random.Random, within: int) -> int:
    return within & rng.getrandbits(max(within.bit_length(), 1))


def _query(command: str, t: str, ring: str, I: int, J: int | None, expect: dict,
           extra: tuple[str, ...] = ()) -> Op:
    argv = [command, "--type", t, "--I", _indices(I)]
    if J is not None:
        argv += ["--J", _indices(J)]
    argv += ["--ring", ring, *extra]
    return Op(tuple(argv), 1, expect)


def cohomology_op(t: str, m: int, ring: str, rng: random.Random) -> Op:
    """Cohomology of the quotient module; the built complex has size m."""
    r = RANKS[t]
    I = _random_mask(rng, (1 << r) - 1, r - m)
    return _query("cohomology", t, ring, I, None, {"table": closed_cohomology(r, I)},
                  ("--method", "both"))


def ext_op(t: str, k: int, ring: str, rng: random.Random) -> Op:
    """Ext between quotients; the gated rows span r - |K| = k simple roots,
    where K = (Delta minus I) union J."""
    r = RANKS[t]
    full = (1 << r) - 1
    K = _random_mask(rng, full, r - k)
    J = _subsets(rng, K)
    I = (full & ~K) | _subsets(rng, J)
    return _query("ext", t, ring, I, J, {"table": closed_ext(r, I, J)}, ("--method", "both"))


def ext_vi_op(t: str, a: int, b: int, ring: str, rng: random.Random) -> Op:
    """Ext into an induced module: rows of rank C(b, .) on a gated lattice of
    a free simple roots (a = r - |I u J|, b = r - |J|, a <= b)."""
    r = RANKS[t]
    full = (1 << r) - 1
    J = _random_mask(rng, full, r - b)
    U = J | _random_mask(rng, full & ~J, b - a)
    I = (U & ~J) | _subsets(rng, J)
    return _query("ext-vi", t, ring, I, J, {"table": closed_ext_vi(r, I, J)},
                  ("--method", "both"))


# Weyl queries keep |W_I|*|W_J| in a band where one query takes about a
# second: below it the per-representative cost explodes (I = J = {} takes
# 12 s), above it the |W_I|*|W_J| products per coset do.
WEYL_BAND = (48, 720)


def _weyl_pair(rng: random.Random) -> tuple[int, int]:
    while True:
        I, J = rng.getrandbits(6), rng.getrandbits(6)
        if WEYL_BAND[0] <= e_parabolic_order(6, I) * e_parabolic_order(6, J) <= WEYL_BAND[1]:
            return I, J


def ext_induced_op(ring: str, cache_dir: str, rng: random.Random) -> Op:
    I, J = _weyl_pair(rng)
    return _query("ext-induced", "E6", ring, I, J, {"table": closed_ext_induced(6, I, J)},
                  ("--method", "strata", "--cache-dir", cache_dir))


def dcosets_op(ring: str, cache_dir: str, rng: random.Random) -> Op:
    I, J = _weyl_pair(rng)
    return _query("dcosets", "E6", ring, I, J, {"dcosets": [6, I, J]},
                  ("--cache-dir", cache_dir))


def setup_ops(name: str, cache_dir: str) -> list[Op]:
    """Cold start before the timed phase: interpreter start, import and root
    data; for the queries also E6 Weyl generation and the cache write."""
    if name in SWEEPS:
        types, ring, _ = SWEEPS[name]
        return [Op(("check-ring", "--type", t, "--ring", ring), 0, {"ring_ok": True})
                for t in dict.fromkeys(types)]
    return [_query("ext-induced", "E6", RING_Q, 0, 0, {"table": closed_ext_induced(6, 0, 0)},
                   ("--cache-dir", cache_dir))]


def _query_ops(rng: random.Random, cache_dir: str) -> list[Op]:
    """One pass of about 30 s.  The groups, and the type and ring of every
    query, are fixed; the seed draws the subsets and the order.  Every seed
    therefore costs about the same, and the tail (11th slowest of 56) and the
    median fall inside groups of queries of similar latency:

    - heavy (2): the worst queries that fit in a run, E7 ext with I = Delta,
      J = {} and E7 cohomology with I = {} (complex size 7, seconds each);
    - weyl (6): E6 strata and double-coset queries that read the Weyl cache;
    - zd (8): ext-vi tables of 16 free classes over Z/1000003, where the
      universal-coefficient step dominates (about a second each);
    - medium (6): complexes of size 6;
    - light (34): 16 of sizes 0-4, then a plateau of 18 size-5 queries
      over Z/1000003 around the median.

    Types take turns, and so do the rings of the two queries of each pair
    outside the plateau: the Z/d step adds about 70 ms per free class, so a
    seed that drew more of one ring than another would move the median.
    """
    types = cycle(("E6", "E7", "E8"))
    turns = cycle(((RING_Q, RING_ZD_LARGE), (RING_ZD_LARGE, RING_Q)))

    q, z = next(turns)
    ops = [ext_op("E7", 7, q, rng), cohomology_op("E7", 7, z, rng)]
    for _ in range(3):
        q, z = next(turns)
        ops += [ext_induced_op(q, cache_dir, rng), dcosets_op(z, cache_dir, rng)]
    ops += [ext_vi_op(next(types), 0, 4, RING_ZD_LARGE, rng) for _ in range(8)]
    for t in ("E6", "E7", "E8"):
        q, z = next(turns)
        ops += [cohomology_op(t, 6, q, rng), ext_op(t, 6, z, rng)]
    for size in (0, 1, 2, 3, 4, 1, 2, 3):
        q, z = next(turns)
        ops += [cohomology_op(next(types), size, q, rng), ext_op(next(types), size, z, rng)]
    z = RING_ZD_LARGE
    for _ in range(6):
        ops += [cohomology_op(next(types), 5, z, rng), ext_op(next(types), 5, z, rng)]
    for a in (2, 3, 4):
        ops += [ext_vi_op(next(types), a, 5, z, rng), ext_vi_op(next(types), a, 5, z, rng)]
    rng.shuffle(ops)
    return ops


def op_list(name: str, seed: int, cache_dir: str) -> list[Op]:
    """The operations of one pass; the timed phase repeats whole passes."""
    rng = random.Random(f"{name}:{seed}")
    if name in SWEEPS:
        return _sweep_ops(name, rng)
    return _query_ops(rng, cache_dir)


# ---------------------------------------------------------------------------
# output checker

_SUMMARY = re.compile(r"checked (\d+) assertions for (\w+) over (\S+): (\d+) passed, (\d+) failed")


def _check_verify(expect: dict, out: str) -> str | None:
    lines = out.splitlines()
    if any(line.startswith("FAIL") for line in lines):
        return "a FAIL line"
    n = expect["assertions"]
    match = _SUMMARY.fullmatch(lines[-1]) if lines else None
    if match is None:
        return "no verify summary"
    checked, ring, passed, failed = (int(match[1]), match[3], int(match[4]), int(match[5]))
    if (checked, passed, failed) != (n, n, 0) or ring != expect["summary_ring"]:
        return f"summary {lines[-1]!r}, expected {n} checked, {n} passed, 0 failed"
    if sum(1 for line in lines if line.startswith("PASS ")) != n:
        return "PASS line count differs from the summary"
    return None


def _check_dcosets(expect: list, payload: dict) -> str | None:
    rank, I, J = expect
    reps = payload.get("reps")
    if not reps:
        return "no representatives"
    surviving = [rep for rep in reps if rep["surviving"]]
    if len(surviving) != (1 if J & ~I == 0 else 0):
        return f"{len(surviving)} surviving strata"
    w_i, w_j = e_parabolic_order(rank, I), e_parabolic_order(rank, J)
    covered = 0
    for rep in reps:
        levi = sum(1 << b for b in rep["levi"])
        covered += w_i * w_j // e_parabolic_order(rank, levi)
        if (rep["certificate"] is None) != rep["surviving"]:
            return "certificate missing on a vanishing stratum"
    if covered != e_parabolic_order(rank, (1 << rank) - 1):
        return f"double cosets cover {covered} elements"
    return None


def check_output(op: Op, returncode: int, out: str) -> str | None:
    """None when the output is correct, else the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    if "assertions" in op.expect:
        return _check_verify(op.expect, out)
    try:
        payload = json.loads(out)
    except ValueError:
        return "stdout is not one JSON object"
    if payload.get("outside_hypotheses"):
        return "outside_hypotheses is set"
    if "ring_ok" in op.expect:
        return None if payload.get("bon") and payload.get("banal_proxy") else "ring fails"
    if "dcosets" in op.expect:
        return _check_dcosets(op.expect["dcosets"], payload)
    if payload.get("table") != op.expect["table"]:
        return f"table {payload.get('table')} differs from the closed form {op.expect['table']}"
    return None
