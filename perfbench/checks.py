"""Output checks, run outside the timed region.

Every call's output is parsed and held to the paper's invariants, and a
seeded subsample of values is recomputed by an independent route: the
operator-Schmidt witness for unitary channels, and a 50-digit mpmath
evaluation of the localized two-mode covariance for ``f``. A call whose
check reports any problem counts as failed.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence, Tuple

import mpmath
import numpy as np

from negacap.entcap import operator_schmidt, schmidt_gamma_witnesses
from negacap.families import FAMILIES
from negacap.linalg import BipartiteDims

#: the CLI's default ``--tol``; agreement is relative to max(1, |value|)
TOL = 1e-9
#: rows per call recomputed by an independent route
SUBSAMPLE = 3

SWEEP_HEADER = ["alpha", "beta", "lower_N", "upper_N", "lower_L", "upper_L",
                "min_eig", "max_eig"]
MIX_HEADER = ["p", "lower_L", "upper_L_joint", "upper_L_convex"]
GAUSS_HEADER = ["gamma", "r", "f", "E_L"]


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def parse_csv(text: str) -> Tuple[List[str], List[List[float]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def schmidt_bounds(u: np.ndarray, dims: Sequence[int], base: float = 2.0) -> Dict:
    """Bounds and witness spectrum from the operator-Schmidt route."""
    _, m = schmidt_gamma_witnesses(operator_schmidt(u, BipartiteDims(*dims)))
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    d = dims[0] * dims[1]
    tr, op = float(np.sum(np.abs(w))), float(np.max(np.abs(w)))
    return {
        "lower_N": tr / d,
        "upper_N": op,
        "lower_L": math.log(1.0 + 2.0 * tr / d, base),
        "upper_L": math.log(1.0 + 2.0 * op, base),
        "min_eig": float(w[0]),
        "max_eig": float(w[-1]),
    }


def f_reference(n: int, n1: int, n2: int, nu_d: float, gamma: float, r: float) -> float:
    """(nu~_-)^2 of the two localized block modes, in 50-digit arithmetic.

    Builds the localized covariance sigma = (A, C; C, B) with diagonal
    blocks and takes the smaller partially transposed symplectic
    eigenvalue from Delta~ = det A + det B - 2 det C.
    """
    with mpmath.workdps(50):
        n, r = mpmath.mpf(n), mpmath.mpf(r)
        nu_d = mpmath.mpf(nu_d)
        nu_n = nu_d * mpmath.mpf(gamma)
        var_u = mpmath.sqrt((r * (n - 1) * nu_d**2 + nu_n**2) / (r * (n - 1 + r)))
        var_x = r * var_u
        var_pi = nu_d**2 / var_u
        var_p = nu_n**2 / var_x
        x1, p1 = (n1 * var_x + (n - n1) * var_u) / n, (n1 * var_p + (n - n1) * var_pi) / n
        x2, p2 = (n2 * var_x + (n - n2) * var_u) / n, (n2 * var_p + (n - n2) * var_pi) / n
        root = mpmath.sqrt(n1 * n2) / n
        cx, cp = root * (var_x - var_u), root * (var_p - var_pi)
        delta = x1 * p1 + x2 * p2 - 2 * cx * cp
        det = (x1 * x2 - cx**2) * (p1 * p2 - cp**2)
        return float((delta - mpmath.sqrt(delta**2 - 4 * det)) / 2)


def sup_reference(n: int, n1: int, n2: int, base: float = 2.0) -> float:
    """sup E_L = 1/2 log(1 + (n_s^2 - n_d^2) / (n_s (N - n_s))) for n_s < N."""
    ns, nd = n1 + n2, abs(n1 - n2)
    with mpmath.workdps(50):
        value = mpmath.log(1 + mpmath.mpf(ns**2 - nd**2) / (ns * (n - ns)), base) / 2
        return float(value)


def _pick(rng, n: int) -> List[int]:
    return sorted(int(i) for i in rng.choice(n, size=min(SUBSAMPLE, n), replace=False))


def check_family_sweep(call, out: str, rng) -> List[str]:
    header, rows = parse_csv(out)
    if header != SWEEP_HEADER or len(rows) != call.items:
        return [f"unexpected table shape: {header}, {len(rows)} rows"]
    problems = []
    for i, row in enumerate(rows):
        if row[2] > row[3] + TOL or row[4] > row[5] + TOL:
            problems.append(f"row {i}: lower bound exceeds upper bound")
    builder, _ = FAMILIES[call.meta["family"]]
    for i in _pick(rng, len(rows)):
        row = rows[i]
        ref = schmidt_bounds(builder(row[0], row[1]), call.meta["dims"])
        for col, name in enumerate(SWEEP_HEADER[2:], start=2):
            if not _close(row[col], ref[name]):
                problems.append(f"row {i}: {name} {row[col]!r} != Schmidt {ref[name]!r}")
    return problems


def check_mix_sweep(call, out: str, rng) -> List[str]:
    header, rows = parse_csv(out)
    if header != MIX_HEADER or len(rows) != call.items:
        return [f"unexpected table shape: {header}, {len(rows)} rows"]
    return [
        f"row {i}: lower_L exceeds an upper bound"
        for i, row in enumerate(rows)
        if row[1] > row[2] + TOL or row[1] > row[3] + TOL
    ]


def check_gaussian_sweep(call, out: str, rng) -> List[str]:
    header, rows = parse_csv(out)
    if header != GAUSS_HEADER or len(rows) != call.items:
        return [f"unexpected table shape: {header}, {len(rows)} rows"]
    n, n1, n2 = call.meta["N"], call.meta["n1"], call.meta["n2"]
    problems = []
    if n1 + n2 < n:
        sup = sup_reference(n, n1, n2)
        problems += [
            f"row {i}: E_L {row[3]!r} >= sup {sup!r}"
            for i, row in enumerate(rows)
            if not row[3] < sup
        ]
    problems += [f"row {i}: f <= 0" for i, row in enumerate(rows) if not row[2] > 0]
    for i in _pick(rng, len(rows)):
        gamma, r, f = rows[i][:3]
        ref = f_reference(n, n1, n2, call.meta["nu_d"], gamma, r)
        if abs(f - ref) > TOL * abs(ref):
            problems.append(f"row {i}: f {f!r} != mpmath {ref!r}")
    return problems


def check_soundness(call, out: str, rng) -> List[str]:
    report = json.loads(out)
    problems = []
    if report.get("seed") != call.meta["seed"]:
        problems.append("report is for another seed")
    if report.get("upper_bound_violated") is not False:
        problems.append("upper bound violated")
    if report.get("gaussian_sup_violations") != 0:
        problems.append("Gaussian supremum violated")
    return problems


def check_analyze(call, out: str, rng) -> List[str]:
    report = json.loads(out)
    if report.get("predicates") != {"cp": True, "hp": True, "tp": True}:
        return [f"predicates {report.get('predicates')}"]
    b = report["bounds"]
    problems = []
    if b["lower_N"] > b["upper_N_max"] + TOL or b["lower_L"] > b["upper_L"] + TOL:
        problems.append("bounds out of order")
    if "unitary" in call.meta:
        ref = schmidt_bounds(call.meta["unitary"], call.meta["dims"], b["log_base"])
        pairs = (("lower_N", "lower_N"), ("upper_N_coefficient", "upper_N"),
                 ("lower_L", "lower_L"), ("upper_L", "upper_L"))
        problems += [
            f"{key} {b[key]!r} != Schmidt {ref[name]!r}"
            for key, name in pairs
            if not _close(b[key], ref[name])
        ]
    return problems


CHECKS = {
    "rot33": check_family_sweep,
    "rot23": check_family_sweep,
    "rot33-wide": check_family_sweep,
    "mix": check_mix_sweep,
    "gauss": check_gaussian_sweep,
    "soundness": check_soundness,
    "choi": check_analyze,
    "unitary": check_analyze,
}


def check_call(call, code: int, out: str, rng) -> List[str]:
    """Problems with one call's result; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return CHECKS[call.kind](call, out, rng)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
