"""Seeded inputs of the four benchmark workloads.

Each workload is a stream of *rounds*. A round is a fixed size mix of
``cli.main`` argv lists whose values (angle windows, block sizes,
trial seeds, random channels) are drawn from ``(seed, round index)``,
so a seed always yields the same inputs, another seed yields different
inputs of the same sizes, and every pass over whole rounds has the same
mix. Channel files for ``analyze-large`` are written into the work
directory when their round is generated; the program sees only the
argv lists and those files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

#: grid steps per axis of one ``channel-sweep`` family call
SWEEP_STEPS = 5
#: grid steps per axis of the one wide ``rot33`` call of each round, so
#: a grid of many points (P = 289) is measured beside the small windows
WIDE_STEPS = 17
#: p-axis steps of one ``channel-sweep --family mix`` call
MIX_STEPS = 9
#: grid steps per axis of one ``gaussian-sweep`` call
GAUSS_STEPS = 31
#: Monte-Carlo trials per ``soundness`` call
SOUNDNESS_TRIALS = 60


@dataclass
class Call:
    """One ``cli.main`` invocation and what its output is checked against."""

    kind: str
    argv: List[str]
    items: int
    meta: Dict = field(default_factory=dict)
    bytes_in: int = 0


def _num(x: float) -> str:
    return repr(float(x))


def _window(rng, lo: float, hi: float, min_width: float, max_width: float):
    width = rng.uniform(min_width, max_width)
    start = rng.uniform(lo, hi - width)
    return start, start + width


def _family_call(rng, family: str, dims, steps: int = SWEEP_STEPS, kind: str = "") -> Call:
    a0, a1 = _window(rng, 0.0, math.pi, 0.3, 1.5)
    b0, b1 = _window(rng, 0.0, math.pi, 0.3, 1.5)
    n = str(steps)
    argv = ["channel-sweep", "--family", family,
            "--alpha", _num(a0), _num(a1), n, "--beta", _num(b0), _num(b1), n]
    return Call(kind or family, argv, steps**2, {"family": family, "dims": dims})


def _mix_call(rng) -> Call:
    p0, p1 = rng.uniform(0.02, 0.3), rng.uniform(0.7, 0.98)
    argv = ["channel-sweep", "--family", "mix", "--pair", "rot33",
            "--p", _num(p0), _num(p1), str(MIX_STEPS)]
    return Call("mix", argv, MIX_STEPS)


def channel_sweep_round(rng, workdir: str, tag: str) -> List[Call]:
    calls = [_family_call(rng, "rot33", (3, 3)) for _ in range(6)]
    calls += [_family_call(rng, "rot23", (2, 3)) for _ in range(2)]
    calls.append(_family_call(rng, "rot33", (3, 3), WIDE_STEPS, "rot33-wide"))
    calls.append(_mix_call(rng))
    return calls


def _blocks(rng, allow_full: bool):
    """(N, n1, n2) with N in 3..8 and n1 + n2 <= N (< N unless allow_full)."""
    n = int(rng.integers(3, 9))
    spare = 0 if allow_full else 1
    n1 = int(rng.integers(1, n - spare))
    n2 = int(rng.integers(1, n - n1 - spare + 1))
    return n, n1, n2


def _gauss_call(rng) -> Call:
    n, n1, n2 = _blocks(rng, allow_full=True)
    nu_d = 0.5 * math.exp(rng.uniform(0.0, 0.5))
    g0 = 0.5 / nu_d * math.exp(rng.uniform(0.0, 0.5))
    g1 = g0 * math.exp(rng.uniform(0.5, 2.0))
    r0, r1 = 10.0 ** rng.uniform(-5.0, -2.0), 10.0 ** rng.uniform(2.0, 5.0)
    steps = str(GAUSS_STEPS)
    argv = ["gaussian-sweep", "--N", str(n), "--n1", str(n1), "--n2", str(n2),
            "--nu-d", _num(nu_d), "--gamma", _num(g0), _num(g1), steps,
            "--r", _num(r0), _num(r1), steps, "--log-r"]
    meta = {"N": n, "n1": n1, "n2": n2, "nu_d": nu_d}
    return Call("gauss", argv, GAUSS_STEPS**2, meta)


def gaussian_sweep_round(rng, workdir: str, tag: str) -> List[Call]:
    return [_gauss_call(rng) for _ in range(8)]


def _soundness_call(rng) -> Call:
    n, n1, n2 = _blocks(rng, allow_full=False)
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["soundness", "--seed", str(seed), "--trials", str(SOUNDNESS_TRIALS),
            "--N", str(n), "--n1", str(n1), "--n2", str(n2)]
    return Call("soundness", argv, SOUNDNESS_TRIALS, {"seed": seed})


def soundness_round(rng, workdir: str, tag: str) -> List[Call]:
    return [_soundness_call(rng) for _ in range(4)]


def _haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _matrix(m: np.ndarray) -> Dict:
    return {"rows": m.shape[0], "cols": m.shape[1],
            "re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist()}


def _rank2_choi(rng, d: int) -> np.ndarray:
    """Choi matrix of a CPTP map with two Kraus operators from an isometry."""
    z = rng.normal(size=(2 * d, d)) + 1j * rng.normal(size=(2 * d, d))
    iso, _ = np.linalg.qr(z)
    # Choi vector of K is K^T flattened: row index (input j) * d + (output k)
    vecs = [iso[:d].T.reshape(-1), iso[d:].T.reshape(-1)]
    return sum(np.outer(v, v.conj()) for v in vecs)


def _write(path: str, payload: Dict) -> int:
    text = json.dumps(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))


def _analyze_call(rng, kind: str, da: int, db: int, path: str) -> Call:
    """Write a seeded channel file and return the call that analyses it."""
    dims = {"in_dims": [da, db], "out_dims": [da, db]}
    meta = {"dims": (da, db)}
    if kind == "choi":
        payload = {**dims, "choi": _matrix(_rank2_choi(rng, da * db))}
    else:
        u = _haar_unitary(rng, da * db)
        meta["unitary"] = u
        payload = {**dims, "kraus": [{"c": 1.0, "V": _matrix(u)}]}
    size = _write(path, payload)
    return Call(kind, ["channel-analyze", path], 1, meta, bytes_in=size)


def analyze_large_round(rng, workdir: str, tag: str) -> List[Call]:
    sizes = [("choi", 3, 4), ("choi", 3, 4), ("choi", 4, 4), ("choi", 4, 4),
             ("unitary", 4, 4), ("unitary", 4, 4), ("unitary", 4, 4), ("unitary", 5, 5)]
    return [
        _analyze_call(rng, kind, da, db,
                      os.path.join(workdir, f"{tag}-{i}-{kind}{da}x{db}.json"))
        for i, (kind, da, db) in enumerate(sizes)
    ]


#: round generators; each takes (rng, work directory, file tag)
ROUNDS: Dict[str, Callable] = {
    "channel-sweep": channel_sweep_round,
    "gaussian-sweep": gaussian_sweep_round,
    "soundness": soundness_round,
    "analyze-large": analyze_large_round,
}

#: the set-up warm-up call of each workload, one of its main kind, drawn
#: from a stream of its own so that no measured call repeats its input
WARMUPS: Dict[str, Callable] = {
    "channel-sweep": lambda rng, workdir: _family_call(rng, "rot33", (3, 3)),
    "gaussian-sweep": lambda rng, workdir: _gauss_call(rng),
    "soundness": lambda rng, workdir: _soundness_call(rng),
    "analyze-large": lambda rng, workdir: _analyze_call(
        rng, "unitary", 4, 4, os.path.join(workdir, "warmup-unitary4x4.json")),
}


def make_round(workload: str, seed: int, index: int, workdir: str) -> List[Call]:
    """Round ``index`` of the workload, in a seeded order."""
    rng = np.random.default_rng([seed, index])
    calls = ROUNDS[workload](rng, workdir, f"r{index}")
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


def warmup_call(workload: str, seed: int, workdir: str) -> Call:
    """The set-up warm-up call; never one of the measured calls."""
    # rounds draw from [seed, index] and output checks from [seed, 1, index]
    rng = np.random.default_rng([seed, 3, 1])
    return WARMUPS[workload](rng, workdir)
