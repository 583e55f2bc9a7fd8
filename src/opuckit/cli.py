"""Command-line front end.

Subcommands parse one coefficient family ({c, m}, {c, d}, or {alpha}) from
inline JSON, a file path, or standard input ('-'), dispatch to the library,
and emit a JSON report on standard output plus optional CSV artifacts.  Exit
status: 0 on success, 2 on input validation failure (machine-readable error
JSON on standard error), 3 on a numerical-contract violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, period_two, periodic, selfcheck
from .bijection import make_pair, pair_to_verblunsky, verblunsky_to_pair
from .errors import InputError, InvalidParameters, NumericsError, OpucError
from .measure import moments, quadrature, step_eval
from .polynomials import q_coeffs, r_coeffs
from .serialize import (
    complex_pairs,
    dumps,
    load_sequences,
    read_input_document,
    write_csv,
)
from .transforms import conjugate_pair, rotate_alpha, unfold_alternating
from .zeros import zero_ladder

TWO_PI = 2.0 * math.pi

_CSV_COMMANDS = {"zeros", "quadrature", "cdf", "weight", "poly"}


def _meta(command: str) -> dict:
    return {"version": __version__, "command": command}


def _emit_json(args, payload: dict) -> None:
    if args.format != "csv":
        sys.stdout.write(dumps(payload) + "\n")


def _want_csv(args) -> bool:
    return args.format in ("csv", "both")


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_pair(args):
    kind, payload, tail = load_sequences(read_input_document(args.input))
    if kind == "pair":
        return payload
    pair = verblunsky_to_pair(payload)
    if tail is not None:
        pair = make_pair(pair.c, m=pair.m, tail_period=tail)
    return pair


def _load_alpha(args) -> tuple[complex, ...]:
    kind, payload, _ = load_sequences(read_input_document(args.input))
    if kind == "alpha":
        return payload
    return pair_to_verblunsky(payload).alpha


def _resolve_n(args, pair) -> int:
    n = args.n if args.n is not None else len(pair)
    if n < 1:
        raise InvalidParameters(f"n = {n} must be >= 1")
    return n


def _check_tol(args) -> None:
    if args.tol is not None and not args.tol > 0.0:
        raise InvalidParameters(f"tolerance {args.tol!r} must be positive")


# ------------------ subcommands ------------------ #


def cmd_pair2alpha(args) -> int:
    pair = _load_pair(args)
    vs = pair_to_verblunsky(pair)
    _emit_json(
        args,
        {
            "meta": _meta("pair2alpha"),
            "n": len(pair),
            "alpha": complex_pairs(vs.alpha),
            "tau": complex_pairs(vs.tau),
        },
    )
    return 0


def cmd_alpha2pair(args) -> int:
    alpha = _load_alpha(args)
    pair = verblunsky_to_pair(alpha)
    _emit_json(
        args,
        {
            "meta": _meta("alpha2pair"),
            "n": len(pair),
            "c": pair.c,
            "m": pair.m,
            "d": pair.d,
            "b": pair.b,
        },
    )
    return 0


def cmd_zeros(args) -> int:
    _check_tol(args)
    pair = _load_pair(args)
    n = _resolve_n(args, pair)
    kwargs = {} if args.tol is None else {"tol": args.tol}
    ladder = zero_ladder(pair, n, **kwargs)
    final = ladder[-1]
    _emit_json(
        args,
        {
            "meta": _meta("zeros"),
            "n": n,
            "x": list(final.x),
            "theta": list(final.theta),
        },
    )
    if _want_csv(args):
        rows = []
        for zs in ladder:
            xs = sorted(zs.x, reverse=True)
            for j, th in enumerate(zs.theta, start=1):
                rows.append((zs.n, j, xs[j - 1], th))
        write_csv(_outdir(args) / "zeros.csv", "level,j,x,theta", rows)
    return 0


def cmd_quadrature(args) -> int:
    pair = _load_pair(args)
    n = _resolve_n(args, pair)
    meas = quadrature(pair, n)
    payload = {
        "meta": _meta("quadrature"),
        "n": n,
        "theta": list(meas.theta),
        "weights": list(meas.weights),
        "weight_sum": float(np.sum(meas.weights)),
    }
    if args.moments is not None:
        if args.moments < 0:
            raise InvalidParameters("--moments must be >= 0")
        payload["moments"] = complex_pairs(moments(meas, args.moments))
    _emit_json(args, payload)
    if _want_csv(args):
        rows = [
            (j, th, wt)
            for j, (th, wt) in enumerate(zip(meas.theta, meas.weights), start=1)
        ]
        write_csv(_outdir(args) / "quadrature.csv", "j,theta,weight", rows)
    return 0


def cmd_cdf(args) -> int:
    pair = _load_pair(args)
    n = _resolve_n(args, pair)
    if args.grid < 2:
        raise InvalidParameters("--grid must be >= 2")
    meas = quadrature(pair, n)
    theta = np.linspace(0.0, TWO_PI, args.grid + 1)
    psi = step_eval(meas, theta)
    _emit_json(
        args,
        {
            "meta": _meta("cdf"),
            "n": n,
            "theta": [float(t) for t in theta],
            "psi": [float(v) for v in psi],
        },
    )
    if _want_csv(args):
        write_csv(_outdir(args) / "cdf.csv", "theta,psi", list(zip(theta, psi)))
    return 0


def cmd_poly(args) -> int:
    pair = _load_pair(args)
    n = _resolve_n(args, pair)
    r_levels = [[[1.0, 0.0]]]  # level 0: R_0 = 1
    q_levels = [[]]  # level 0: Q_0 = 0
    for k in range(1, n + 1):
        r_levels.append(complex_pairs(r_coeffs(pair, k, max_stored=n).coeffs))
        q_levels.append(complex_pairs(q_coeffs(pair, k, max_stored=n).coeffs))
    _emit_json(
        args,
        {"meta": _meta("poly"), "n": n, "R": r_levels, "Q": q_levels},
    )
    if _want_csv(args):
        out = _outdir(args)
        r_rows = [
            (lvl, k, re, im)
            for lvl, coeffs in enumerate(r_levels)
            for k, (re, im) in enumerate(coeffs)
        ]
        q_rows = [
            (lvl, k, re, im)
            for lvl, coeffs in enumerate(q_levels)
            for k, (re, im) in enumerate(coeffs)
        ]
        write_csv(out / "poly_r.csv", "n,k,re,im", r_rows)
        write_csv(out / "poly_q.csv", "n,k,re,im", q_rows)
    return 0


def cmd_periodic(args) -> int:
    alpha = _load_alpha(args)
    if args.p is not None:
        if not 1 <= args.p <= len(alpha):
            raise InvalidParameters(f"--p must be in [1, {len(alpha)}]")
        alpha = alpha[: args.p]
    spec = periodic.full_spectrum(alpha)
    norm = periodic.normalization_report(alpha, spec)
    _emit_json(
        args,
        {
            "meta": _meta("periodic"),
            "p": spec.p,
            "plus_solutions": list(spec.plus_solutions),
            "minus_solutions": list(spec.minus_solutions),
            "bands": [
                {"lo": b.lo, "hi": b.hi, "lo_sign": b.lo_sign, "hi_sign": b.hi_sign}
                for b in spec.bands
            ],
            "gaps": [{"lo": g.lo, "hi": g.hi, "closed": g.closed} for g in spec.gaps],
            "candidates": complex_pairs(spec.candidates),
            "candidate_thetas": list(spec.candidate_thetas),
            "pure_points": [
                {"theta": pp.theta, "mass": pp.mass, "w": [pp.w.real, pp.w.imag]}
                for pp in spec.pure_points
            ],
            "normalization": {
                "ac_mass": float(norm["ac_mass"]),
                "point_mass": float(norm["point_mass"]),
                "total": float(norm["total"]),
                "ac_error": float(norm["ac_error"]),
            },
        },
    )
    return 0


def cmd_weight(args) -> int:
    alpha = _load_alpha(args)
    if args.p is not None:
        if not 1 <= args.p <= len(alpha):
            raise InvalidParameters(f"--p must be in [1, {len(alpha)}]")
        alpha = alpha[: args.p]
    if args.theta is not None:
        try:
            thetas = [float(s) for s in args.theta.split(",") if s.strip()]
        except ValueError as exc:
            raise InvalidParameters(f"--theta must be comma-separated reals: {exc}")
        if not thetas:
            raise InvalidParameters("--theta produced no angles")
        w = periodic.ac_weight(alpha, np.asarray(thetas))
        rows = sorted(zip(thetas, np.atleast_1d(w)))
    else:
        spec = periodic.band_structure(alpha)
        total = sum(b.hi - b.lo for b in spec.bands)
        rows = []
        for b in spec.bands:
            nb = max(2, int(round(args.grid * (b.hi - b.lo) / total)))
            ts = b.lo + (b.hi - b.lo) * (np.arange(nb) + 0.5) / nb
            w = periodic.ac_weight(alpha, ts)
            rows.extend(zip(np.mod(ts, TWO_PI), np.atleast_1d(w)))
        rows.sort()
    _emit_json(
        args,
        {
            "meta": _meta("weight"),
            "p": len(alpha),
            "theta": [float(t) for t, _ in rows],
            "w": [float(v) for _, v in rows],
        },
    )
    if _want_csv(args):
        write_csv(_outdir(args) / "weight.csv", "theta,w", rows)
    return 0


def cmd_transform(args) -> int:
    if args.op == "conjugate":
        pair = _load_pair(args)
        out = conjugate_pair(pair)
        _emit_json(
            args,
            {
                "meta": _meta("transform"),
                "op": "conjugate",
                "c": list(out.c),
                "m": list(out.m),
                "d": list(out.d),
            },
        )
    elif args.op == "rotate":
        if args.beta is None:
            raise InvalidParameters("--op rotate requires --beta RE,IM")
        parts = args.beta.split(",")
        if len(parts) != 2:
            raise InvalidParameters("--beta must be RE,IM")
        try:
            beta = complex(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise InvalidParameters(f"--beta must be two reals: {exc}")
        alpha = _load_alpha(args)
        rotated = rotate_alpha(alpha, beta)
        _emit_json(
            args,
            {
                "meta": _meta("transform"),
                "op": "rotate",
                "beta": [beta.real, beta.imag],
                "alpha": complex_pairs(rotated),
            },
        )
    else:  # unfold
        pair = _load_pair(args)
        data = unfold_alternating(pair)
        _emit_json(
            args,
            {
                "meta": _meta("transform"),
                "op": "unfold",
                "beta": complex_pairs(data.beta),
                "alpha_tilde": complex_pairs(data.alpha_tilde),
                "c_tilde": list(data.pair_tilde.c),
                "m_tilde": list(data.pair_tilde.m),
            },
        )
    return 0


def cmd_demo(args) -> int:
    params = period_two.PeriodTwoParams(c=args.c, b1=args.b1, b2=args.b2)
    alpha = period_two.family_alpha(params)
    edges = period_two.family_band_edges(params)
    masses = period_two.family_masses(params)
    norm = periodic.normalization_report(alpha)
    _emit_json(
        args,
        {
            "meta": _meta("demo"),
            "params": {"c": params.c, "b1": params.b1, "b2": params.b2},
            "alpha": complex_pairs(alpha),
            "band_edges": [float(e) for e in edges],
            "pure_points": [
                {"theta": mp.theta, "mass": mp.mass, "w": [mp.w.real, mp.w.imag]}
                for mp in masses
            ],
            "normalization": {
                "ac_mass": float(norm["ac_mass"]),
                "point_mass": float(norm["point_mass"]),
                "total": float(norm["total"]),
                "ac_error": float(norm["ac_error"]),
            },
        },
    )
    return 0


def cmd_check(args) -> int:
    report = selfcheck.run_checks()
    ok = all(entry["ok"] for entry in report)
    _emit_json(args, {"meta": _meta("check"), "ok": ok, "checks": report})
    return 0 if ok else 3


# ------------------ wiring ------------------ #


def _add_io(p, csv_ok: bool) -> None:
    p.add_argument(
        "--input",
        default="-",
        help="inline JSON, a file path, or '-' for standard input",
    )
    choices = ("json", "csv", "both") if csv_ok else ("json",)
    p.add_argument("--format", choices=choices, default="json")
    p.add_argument("--outdir", default=".", help="directory for CSV artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opuckit",
        description="Measures on the unit circle via real sequence pairs: "
        "coefficient bijection, para-orthogonal zeros, quadrature, and "
        "periodic spectral analysis.",
    )
    parser.add_argument("--version", action="version", version=f"opuckit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair2alpha", help="reflection coefficients from a (c, m|d) pair")
    _add_io(p, csv_ok=False)
    p.set_defaults(fn=cmd_pair2alpha)

    p = sub.add_parser("alpha2pair", help="(c, m, d, b) sequences from reflection coefficients")
    _add_io(p, csv_ok=False)
    p.set_defaults(fn=cmd_alpha2pair)

    p = sub.add_parser("zeros", help="zeros of every level of the cosine-form polynomial ladder")
    _add_io(p, csv_ok=True)
    p.add_argument("--n", type=int, default=None, help="ladder depth (default: input length)")
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="warn (ClusterWarning) where two zeros of a level lie closer than 10 TOL in x",
    )
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("quadrature", help="nodes and weights of the discrete approximant")
    _add_io(p, csv_ok=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--moments", type=int, default=None, help="also report moments 0..K")
    p.set_defaults(fn=cmd_quadrature)

    p = sub.add_parser("cdf", help="cumulative step function on a uniform grid")
    _add_io(p, csv_ok=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--grid", type=int, default=512, help="number of grid cells on [0, 2 pi]")
    p.set_defaults(fn=cmd_cdf)

    p = sub.add_parser("poly", help="coefficient tables of the paired polynomial ladder")
    _add_io(p, csv_ok=True)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("periodic", help="bands, gaps, candidates and masses of a periodic block")
    _add_io(p, csv_ok=False)
    p.add_argument("--p", type=int, default=None, help="period (default: input length)")
    p.set_defaults(fn=cmd_periodic)

    p = sub.add_parser("weight", help="absolutely continuous density on the bands")
    _add_io(p, csv_ok=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--grid", type=int, default=1024, help="total sample count across bands")
    p.add_argument("--theta", default=None, help="explicit comma-separated angles")
    p.set_defaults(fn=cmd_weight)

    p = sub.add_parser("transform", help="conjugate, rotate, or unfold the coefficients")
    _add_io(p, csv_ok=False)
    p.add_argument("--op", required=True, choices=("conjugate", "rotate", "unfold"))
    p.add_argument("--beta", default=None, help="unimodular RE,IM for --op rotate")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("demo", help="closed-form tour of the period-two model family")
    _add_io(p, csv_ok=False)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--b1", type=float, default=0.3)
    p.add_argument("--b2", type=float, default=0.5)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("check", help="run the deterministic invariant battery")
    _add_io(p, csv_ok=False)
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(
            dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        )
        return 2
    except (NumericsError, OpucError) as exc:
        sys.stderr.write(
            dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
