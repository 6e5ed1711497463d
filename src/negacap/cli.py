"""Command-line front end.

Reproduces the worked examples and figure-level sweeps: channel
analysis and bound sweeps over the built-in families, Gaussian block
suprema and (gamma, r) sweeps, saturation reports and Monte-Carlo
soundness checks. Reports are JSON; sweeps are CSV with 17 significant
digits and LF line endings, bit-identical across reruns. Exit codes:
0 success, 2 validation error, 3 parse error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import channel as chn
from . import entcap, families, gaussian, io
from .errors import InvalidParams, NegacapError, ParseError
from .gaussian import UNBOUNDED, BlockSpec, SymmetricParams
from .linalg import BipartiteDims, eig_hermitian, operator_norm


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    steps: int
    log: bool = False

    def __post_init__(self):
        if self.steps < 2:
            raise InvalidParams(f"axis {self.name}: steps must be >= 2")
        if not self.start < self.stop:
            raise InvalidParams(f"axis {self.name}: start must be < stop")
        if self.log and self.start <= 0:
            raise InvalidParams(f"axis {self.name}: log grid needs start > 0")

    def values(self) -> list:
        """The axis points as Python floats."""
        space = np.geomspace if self.log else np.linspace
        return [float(x) for x in space(self.start, self.stop, self.steps)]


def _axis(name: str, spec: Sequence[float], log: bool = False) -> SweepAxis:
    """An axis from a ``START STOP STEPS`` option."""
    return SweepAxis(name, spec[0], spec[1], int(spec[2]), log)


def _grid(*axes: SweepAxis) -> list:
    """Cartesian grid of the axes in row-major order (first slowest)."""
    return list(itertools.product(*(ax.values() for ax in axes)))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _flatten(d: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in d.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


def _cell(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        text = json.dumps(value)
        return f'"{text}"' if "," in text else text
    return _fmt(value)


def _emit_report(report: dict, args):
    """Reports default to JSON; --format csv flattens to a two-line table."""
    if (args.format or "json") == "csv":
        flat = _flatten(report)
        text = ",".join(flat) + "\n" + ",".join(_cell(v) for v in flat.values()) + "\n"
    else:
        text = json.dumps(report, indent=2) + "\n"
    _write_output(text, args.out)


def _emit_table(header: Sequence[str], rows, args):
    """Sweep tables default to CSV; --format json gives row objects."""
    if (args.format or "csv") == "json":
        payload = [dict(zip(header, map(float, row))) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _csv(header, rows)
    _write_output(text, args.out)


def _parse_base(text: str) -> float:
    if text == "e":
        return math.e
    base = float(text)
    if base <= 1.0:
        raise ParseError(f"log base must exceed 1, got {text}")
    return base


def _bounds_dict(bounds: entcap.ECBounds) -> dict:
    return {
        "lower_N": bounds.lower_n,
        "upper_N_coefficient": bounds.upper_n_coefficient,
        "upper_N_max": bounds.upper_n_max,
        "lower_L": bounds.lower_l,
        "upper_L": bounds.upper_l,
        "log_base": bounds.log_base,
    }


def cmd_channel_analyze(args) -> int:
    ch = io.load_channel(args.input)
    tol = args.tol
    base = _parse_base(args.base)
    analysis = entcap.analyze_channel(ch, tol)
    report = {
        "in_dims": [ch.in_dims.d_a, ch.in_dims.d_b],
        "out_dims": [ch.out_dims.d_a, ch.out_dims.d_b],
        "predicates": {"cp": analysis.cp, "hp": analysis.hp, "tp": analysis.tp},
    }
    if analysis.hp:
        report["gamma_norm_1"] = analysis.gamma_norm_1
        report["ppt"] = analysis.ppt
    if analysis.cp and analysis.tp:
        bounds = analysis.bounds(base)
        cap = math.log(min(ch.out_dims.d_a, ch.out_dims.d_b), base)
        report["bounds"] = _bounds_dict(bounds)
        report["bounds_coincide"] = bool(
            abs(bounds.upper_l - bounds.lower_l) <= max(tol, 1e-9)
        )
        report["perfect_entangler"] = bool(abs(bounds.upper_l - cap) <= max(tol, 1e-9))
    else:
        report["error"] = "channel is not CPTP; bounds not computed"
    _emit_report(report, args)
    return 0 if "error" not in report else 2


def _sweep_point_unitary(family: str, base: float, alpha: float, beta: float):
    ch = families.family_channel(family, alpha, beta)
    witness = entcap.pt_minus_identity(ch)
    bounds = entcap.ec_bounds_deterministic(ch, base=base)
    eigs, _ = eig_hermitian(witness)
    return (
        alpha,
        beta,
        bounds.lower_n,
        bounds.upper_n_coefficient,
        bounds.lower_l,
        bounds.upper_l,
        float(eigs[0]),
        float(eigs[-1]),
    )


def _sweep_point_mix(pair, witnesses, base: float, p: float):
    """Bounds of the mixture at weight ``p``, and the upper bound from
    the convex split, whose witness mixes the pair's ``witnesses``."""
    joint = entcap.analyze_channel(chn.mix(pair, [p, 1.0 - p]))
    bounds = joint.bounds(base)
    m_convex = p * witnesses[0] + (1.0 - p) * witnesses[1]
    return (
        p,
        bounds.lower_l,
        bounds.upper_l,
        math.log(1.0 + 2.0 * operator_norm(m_convex), base),
    )


def cmd_channel_sweep(args) -> int:
    base = _parse_base(args.base)
    if args.family == "mix":
        weights = _axis("p", args.p).values()
        pair = families.mix_pair(args.pair)
        witnesses = [entcap.pt_minus_identity(ch) for ch in pair]
        rows = [_sweep_point_mix(pair, witnesses, base, p) for p in weights]
        header = ["p", "lower_L", "upper_L_joint", "upper_L_convex"]
    else:
        if args.family not in families.FAMILIES:
            raise ParseError(f"unknown family {args.family!r}")
        grid = _grid(_axis("alpha", args.alpha), _axis("beta", args.beta))
        rows = [_sweep_point_unitary(args.family, base, *ab) for ab in grid]
        header = [
            "alpha",
            "beta",
            "lower_N",
            "upper_N",
            "lower_L",
            "upper_L",
            "min_eig",
            "max_eig",
        ]
    _emit_table(header, rows, args)
    return 0


def cmd_gaussian_sup(args) -> int:
    base = _parse_base(args.base)
    blocks = BlockSpec(args.N, args.n1, args.n2)
    value = gaussian.sup_block_entanglement(
        blocks, measure=args.measure, base=base, nu_d=args.nu_d, hbar=args.hbar
    )
    report = {
        "N": args.N,
        "n1": args.n1,
        "n2": args.n2,
        "n_s": blocks.n_s,
        "n_d": blocks.n_d,
        "measure": args.measure,
        "log_base": base,
    }
    if value is UNBOUNDED:
        report["supremum"] = "unbounded"
    else:
        report["supremum"] = float(value)
        report["gap_ratio_K"] = gaussian.sup_gap_ratio(blocks)
    if args.nu_d is not None:
        report["nu_D"] = args.nu_d
    _emit_report(report, args)
    return 0


def cmd_gaussian_sweep(args) -> int:
    base = _parse_base(args.base)
    blocks = BlockSpec(args.N, args.n1, args.n2)
    grid = _grid(_axis("gamma", args.gamma), _axis("r", args.r, log=args.log_r))

    def point(gr):
        g, r = gr
        params = SymmetricParams(
            n_total=args.N, nu_d=args.nu_d, gamma=g, r=r, hbar=args.hbar
        )
        f = gaussian.f_block(params, blocks)
        return (g, r, f, gaussian.block_log_negativity(params, blocks, base))

    rows = [point(gr) for gr in grid]
    _emit_table(["gamma", "r", "f", "E_L"], rows, args)
    return 0


def cmd_saturate(args) -> int:
    payload = io.load_json(args.channel)
    ch = io.channel_from_dict(payload)
    report: dict = {
        "in_dims": [ch.in_dims.d_a, ch.in_dims.d_b],
        "out_dims": [ch.out_dims.d_a, ch.out_dims.d_b],
    }
    if args.state is not None:
        state = io.load_matrix(args.state)
        if 1 in state.shape and state.shape[0] != state.shape[1]:
            # a column or row ket; a 1x1 matrix is a density matrix
            psi = state.reshape(-1)
            psi = psi / np.linalg.norm(psi)
            state = np.outer(psi, psi.conj())
        result = entcap.saturation_check(ch, state, tol=args.tol)
        report["saturation"] = {
            "prop_identity": result.prop_identity,
            "orthogonality": result.orthogonality,
            "achieves_upper": result.achieves_upper,
            "max_overlap": result.max_overlap,
        }
    else:
        analysis = entcap.analyze_channel(ch, args.tol)
        report["saturation"] = {"prop_identity": analysis.prop_identity(args.tol)}
        family = payload.get("family")
        if family in families.KNOWN_OPTIMAL_FAMILIES:
            report["known_optimal_states"] = families.KNOWN_OPTIMAL_FAMILIES[family]
    _emit_report(report, args)
    return 0


def cmd_soundness(args) -> int:
    """Monte-Carlo bound checks on random operations and states."""
    rng = np.random.default_rng(args.seed)
    base = _parse_base(args.base)
    worst_gap = -math.inf
    for _ in range(args.trials):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        dims = BipartiteDims(da, db)
        d = dims.total
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u, _ = np.linalg.qr(z)
        ch = chn.unitary_channel(u, dims)
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        bounds = entcap.ec_bounds_deterministic(ch, base=base)
        gain = entcap.log_negativity(
            chn.apply(ch, rho), dims, base
        ) - entcap.log_negativity(rho, dims, base)
        worst_gap = max(worst_gap, gain - bounds.upper_l)
    sup_violations = 0
    blocks = BlockSpec(args.N, args.n1, args.n2)
    sup = gaussian.sup_block_entanglement(blocks, base=base)
    if sup is not UNBOUNDED:
        for _ in range(args.trials):
            nu_d = 0.5 * math.exp(rng.uniform(0.0, 1.0))
            gamma = max(0.5 / nu_d, 1e-9) * math.exp(rng.uniform(0.0, 1.0))
            r = math.exp(rng.uniform(-6.0, 6.0))
            params = SymmetricParams(args.N, nu_d, gamma, r)
            if gaussian.block_log_negativity(params, blocks, base) >= sup:
                sup_violations += 1
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "worst_upper_bound_gap": worst_gap,
        "upper_bound_violated": bool(worst_gap > args.tol),
        "gaussian_sup_violations": sup_violations,
    }
    _emit_report(report, args)
    return 0 if not report["upper_bound_violated"] and sup_violations == 0 else 2


#: options shared by several commands; each command declares the ones it reads
_SHARED_OPTIONS = {
    "base": dict(default="2", help="log base: 2, e or 10"),
    "hbar": dict(type=float, default=1.0),
    "tol": dict(type=float, default=1e-9),
}


def _add_common(parser, *shared: str):
    """The ``shared`` options by name, then ``--out`` and ``--format``."""
    for name in shared:
        parser.add_argument(f"--{name}", **_SHARED_OPTIONS[name])
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negacap",
        description="Entangling-capacity bounds and symmetric Gaussian suprema.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel-analyze", help="predicates, norms and bounds")
    p.add_argument("input", help="channel JSON file")
    _add_common(p, "base", "tol")
    p.set_defaults(fn=cmd_channel_analyze)

    p = sub.add_parser("channel-sweep", help="bound sweeps over a family")
    p.add_argument("--family", required=True, choices=(*families.FAMILIES, "mix"))
    p.add_argument("--alpha", nargs=3, type=float, default=(0.0, math.pi, 21),
                   metavar=("START", "STOP", "STEPS"))
    p.add_argument("--beta", nargs=3, type=float, default=(0.0, math.pi, 21),
                   metavar=("START", "STOP", "STEPS"))
    p.add_argument("--p", nargs=3, type=float, default=(0.05, 0.95, 19),
                   metavar=("START", "STOP", "STEPS"), help="mixture weight axis")
    p.add_argument("--pair", choices=("rot23", "rot33"), default="rot23",
                   help="unitary pair for the mix family")
    _add_common(p, "base")
    p.set_defaults(fn=cmd_channel_sweep)

    p = sub.add_parser("gaussian-sup", help="closed-form block supremum")
    p.add_argument("N", type=int)
    p.add_argument("n1", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("--nu-d", dest="nu_d", type=float, default=None)
    p.add_argument("--measure", choices=("logneg", "neg"), default="logneg")
    _add_common(p, "base", "hbar")
    p.set_defaults(fn=cmd_gaussian_sup)

    p = sub.add_parser("gaussian-sweep", help="f and E_L over a (gamma, r) grid")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--nu-d", dest="nu_d", type=float, default=0.5)
    p.add_argument("--gamma", nargs=3, type=float, default=(1.0, 4.0, 31),
                   metavar=("START", "STOP", "STEPS"))
    p.add_argument("--r", nargs=3, type=float, default=(1e-6, 1e6, 61),
                   metavar=("START", "STOP", "STEPS"))
    p.add_argument("--log-r", action="store_true", help="geometric r grid")
    _add_common(p, "base", "hbar")
    p.set_defaults(fn=cmd_gaussian_sweep)

    p = sub.add_parser("saturate", help="bound-saturation report")
    p.add_argument("--channel", required=True)
    p.add_argument("--state", default=None, help="density matrix or ket JSON")
    _add_common(p, "tol")
    p.set_defaults(fn=cmd_saturate)

    p = sub.add_parser("soundness", help="Monte-Carlo bound checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--n1", type=int, default=1)
    p.add_argument("--n2", type=int, default=1)
    _add_common(p, "base", "tol")
    p.set_defaults(fn=cmd_soundness)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except NegacapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
