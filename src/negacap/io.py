"""JSON exchange formats.

Matrices travel as ``{"rows": n, "cols": m, "re": [...], "im": [...]}``
row-major; channels as dims plus either a Choi matrix or Kraus terms
(or a built-in family reference); covariance matrices and symmetric
parameters as flat dicts. Readers validate lengths and raise
:class:`ParseError` on malformed payloads.
"""

from __future__ import annotations

import json
from typing import Any, Dict

import numpy as np

from . import families
from .channel import Channel, choi_from_kraus
from .errors import NegacapError, ParseError
from .gaussian import CovarianceMatrix, SymmetricParams
from .linalg import Array, BipartiteDims, as_matrix


def matrix_to_dict(m: Array) -> Dict[str, Any]:
    m = as_matrix(m)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": [float(x) for x in m.real.reshape(-1)],
        "im": [float(x) for x in m.imag.reshape(-1)],
    }


def matrix_from_dict(d: Dict[str, Any]) -> Array:
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix dims must be positive, got {rows}x{cols}")
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ParseError(
            f"matrix entry arrays must have length {rows * cols}, "
            f"got re: {re.size}, im: {im.size}"
        )
    return (re + 1j * im).reshape(rows, cols)


def _dims_from(obj: Any, key: str) -> BipartiteDims:
    try:
        da, db = obj[key]
        return BipartiteDims(int(da), int(db))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {key}: {exc}") from exc


def channel_to_dict(ch: Channel) -> Dict[str, Any]:
    return {
        "in_dims": [ch.in_dims.d_a, ch.in_dims.d_b],
        "out_dims": [ch.out_dims.d_a, ch.out_dims.d_b],
        "choi": matrix_to_dict(ch.choi),
    }


def channel_from_dict(d: Dict[str, Any]) -> Channel:
    if "family" in d:
        name = d["family"]
        if name not in families.FAMILIES:
            raise ParseError(f"unknown family {name!r}")
        try:
            alpha = float(d.get("alpha", 0.0))
            beta = float(d.get("beta", 0.0))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed family angles: {exc}") from exc
        return families.family_channel(name, alpha, beta)
    in_dims = _dims_from(d, "in_dims")
    out_dims = _dims_from(d, "out_dims")
    try:
        if "choi" in d:
            return Channel(
                choi=matrix_from_dict(d["choi"]), in_dims=in_dims, out_dims=out_dims
            )
        if "kraus" in d:
            terms = [
                (float(item["c"]), matrix_from_dict(item["V"])) for item in d["kraus"]
            ]
            return choi_from_kraus(terms, in_dims, out_dims)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed channel object: {exc}") from exc
    except NegacapError as exc:
        raise ParseError(f"inconsistent channel object: {exc}") from exc
    raise ParseError("channel object needs 'choi', 'kraus' or 'family'")


def covariance_to_dict(cov: CovarianceMatrix) -> Dict[str, Any]:
    return {
        "n_modes": cov.n_modes,
        "hbar": cov.hbar,
        "sigma": [[float(x) for x in row] for row in cov.sigma],
    }


def covariance_from_dict(d: Dict[str, Any]) -> CovarianceMatrix:
    try:
        n = int(d["n_modes"])
        hbar = float(d.get("hbar", 1.0))
        sigma = np.asarray(d["sigma"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed covariance object: {exc}") from exc
    if sigma.shape != (2 * n, 2 * n):
        raise ParseError(f"sigma must be {2*n}x{2*n}, got {sigma.shape}")
    try:
        return CovarianceMatrix(n, sigma, hbar)
    except NegacapError as exc:
        raise ParseError(f"invalid covariance matrix: {exc}") from exc


def params_to_dict(p: SymmetricParams) -> Dict[str, Any]:
    return {
        "N": p.n_total,
        "nu_D": p.nu_d,
        "gamma": p.gamma,
        "r": p.r,
        "hbar": p.hbar,
    }


def params_from_dict(d: Dict[str, Any]) -> SymmetricParams:
    try:
        return SymmetricParams(
            n_total=int(d["N"]),
            nu_d=float(d["nu_D"]),
            gamma=float(d["gamma"]),
            r=float(d["r"]),
            hbar=float(d.get("hbar", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed params object: {exc}") from exc


def load_json(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"top-level JSON in {path} must be an object")
    return payload


def load_channel(path: str) -> Channel:
    return channel_from_dict(load_json(path))


def load_matrix(path: str) -> Array:
    return matrix_from_dict(load_json(path))
