"""Command-line front end.

Subcommands parse one coefficient family ({c, m}, {c, d}, or {alpha}) from
inline JSON, a file path, or standard input ('-') and dispatch to the library.
Each returns its report and its CSV tables; main alone writes them: the JSON
report on standard output, the tables under --outdir.  Exit status: 0 on
success, 2 on input validation failure (machine-readable error JSON on
standard error), 3 on a numerical-contract violation or a failed check.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

# the modules behind one or a few commands are bound as modules and their
# functions looked up at call time, so a command runs only the modules it uses
from . import (
    __version__,
    measure,
    period_two,
    periodic,
    polynomials,
    selfcheck,
    transforms,
    zeros,
)
from .bijection import make_pair, pair_to_verblunsky, verblunsky_to_pair
from .errors import InputError, InvalidParameters, OpucError, _check_count
from .serialize import (
    complex_pairs,
    dumps,
    load_sequences,
    read_input_document,
    write_csv,
)

TWO_PI = 2.0 * math.pi

# the subcommands that write CSV tables; only they take --format and --outdir
_CSV_COMMANDS = {"zeros", "quadrature", "cdf", "poly", "weight"}
# the subcommands that read no coefficient document, so take no --input
_NO_INPUT = {"demo", "check"}


def _load_pair(args):
    kind, payload, tail = load_sequences(read_input_document(args.input))
    if kind == "pair":
        return payload
    pair = verblunsky_to_pair(payload)
    if tail is not None:
        pair = make_pair(pair.c, m=pair.m, tail_period=tail)
    return pair


def _load_alpha(args, p: int | None = None) -> tuple[complex, ...]:
    """The coefficients of the input, cut to the first p when p is given."""
    kind, payload, _ = load_sequences(read_input_document(args.input))
    alpha = payload if kind == "alpha" else pair_to_verblunsky(payload).alpha
    if p is None:
        return alpha
    return alpha[: _check_count(p, "--p", 1, len(alpha))]


def _resolve_n(args, pair) -> int:
    return _check_count(args.n if args.n is not None else len(pair), "--n", 1, len(pair))


def _pure_points(points) -> list[dict]:
    return [{"theta": pp.theta, "mass": pp.mass, "w": [pp.w.real, pp.w.imag]} for pp in points]


# ------------------ subcommands ------------------ #
#
# Each returns (payload, tables): the JSON report after its "meta" record, and
# {file name: {column name: 1-D array}}, the library's arrays as they come.


def cmd_pair2alpha(args):
    pair = _load_pair(args)
    vs = pair_to_verblunsky(pair)
    payload = {
        "n": len(pair),
        "alpha": complex_pairs(vs.alpha),
        "tau": complex_pairs(vs.tau),
    }
    return payload, {}


def cmd_alpha2pair(args):
    pair = verblunsky_to_pair(_load_alpha(args))
    payload = {
        "n": len(pair),
        "c": pair.c,
        "m": pair.m,
        "d": pair.d,
        "b": pair.b,
    }
    return payload, {}


def cmd_zeros(args):
    pair = _load_pair(args)
    n = _resolve_n(args, pair)
    ladder = zeros.zero_ladder(pair, n)
    level = np.repeat(np.arange(1, n + 1), np.arange(1, n + 1))  # level k holds k zeros
    columns = {
        "level": level,
        "j": np.arange(1, level.size + 1) - level * (level - 1) // 2,
        "x": np.concatenate([zs.x for zs in ladder]),
        "theta": np.concatenate([zs.theta for zs in ladder]),
    }
    payload = {"n": n, "x": ladder[-1].x, "theta": ladder[-1].theta}
    return payload, {"zeros.csv": columns}


def cmd_quadrature(args):
    pair = _load_pair(args)
    n = _resolve_n(args, pair)
    meas = measure.quadrature(pair, n)
    payload = {
        "n": n,
        "theta": meas.theta,
        "weights": meas.weights,
        "weight_sum": float(np.sum(meas.weights)),
    }
    if args.moments is not None:
        _check_count(args.moments, "--moments", 0)
        payload["moments"] = complex_pairs(measure.moments(meas, args.moments))
    columns = {"j": np.arange(1, n + 2), "theta": meas.theta, "weight": meas.weights}
    return payload, {"quadrature.csv": columns}


def cmd_cdf(args):
    pair = _load_pair(args)
    n = _resolve_n(args, pair)
    _check_count(args.grid, "--grid", 2)
    meas = measure.quadrature(pair, n)
    theta = np.linspace(0.0, TWO_PI, args.grid + 1)
    psi = measure.step_eval(meas, theta)
    return {"n": n, "theta": theta, "psi": psi}, {"cdf.csv": {"theta": theta, "psi": psi}}


def cmd_poly(args):
    pair = _load_pair(args)
    n = _resolve_n(args, pair)
    levels, tables = {}, {}
    for name in ("R", "Q"):
        # Q_k has k coefficients: Q_0 = 0 is written as no row
        levels[name] = [
            complex_pairs(coeffs if name == "R" else coeffs[:k])
            for k, coeffs in enumerate(polynomials._rq_levels(pair, n, name))
        ]
        sizes = [len(coeffs) for coeffs in levels[name]]
        re, im = np.concatenate(levels[name]).T
        tables[f"poly_{name.lower()}.csv"] = {
            "n": np.repeat(np.arange(n + 1), sizes),
            "k": np.concatenate([np.arange(size) for size in sizes]),
            "re": re,
            "im": im,
        }
    return {"n": n, **levels}, tables


def cmd_periodic(args):
    alpha = _load_alpha(args, args.p)
    spec = periodic.full_spectrum(alpha)
    norm = periodic.normalization_report(alpha, spec)
    payload = {
        "p": spec.p,
        "plus_solutions": spec.plus_solutions,
        "minus_solutions": spec.minus_solutions,
        "bands": [
            {"lo": b.lo, "hi": b.hi, "lo_sign": b.lo_sign, "hi_sign": b.hi_sign}
            for b in spec.bands
        ],
        "gaps": [{"lo": g.lo, "hi": g.hi, "closed": g.closed} for g in spec.gaps],
        "candidates": complex_pairs(spec.candidates),
        "candidate_thetas": spec.candidate_thetas,
        "pure_points": _pure_points(spec.pure_points),
        "normalization": norm,
    }
    return payload, {}


def cmd_weight(args):
    alpha = _load_alpha(args, args.p)
    _check_count(args.grid, "--grid", 1)
    if args.theta is not None:
        try:
            thetas = [float(s) for s in args.theta.split(",") if s.strip()]
        except ValueError as exc:
            raise InvalidParameters(f"--theta must be comma-separated reals: {exc}")
        if not thetas:
            raise InvalidParameters("--theta produced no angles")
        theta = np.asarray(thetas)
        w = periodic.ac_weight(alpha, theta)
    else:
        # midpoint samples of every band, less those that rounding puts off
        # the band (a band can be thinner than rounding), where ac_weight
        # would refuse them
        bands = periodic.full_spectrum(alpha).bands
        total = sum(b.hi - b.lo for b in bands)
        samples = []
        for b in bands:
            nb = max(2, int(round(args.grid * (b.hi - b.lo) / total)))
            samples.append(b.lo + (b.hi - b.lo) * (np.arange(nb) + 0.5) / nb)
        ts = np.concatenate(samples)
        ts = ts[np.abs(periodic.discriminant(alpha, ts)) < 2.0 - periodic._EDGE_TOL]
        theta, w = np.mod(ts, TWO_PI), periodic.ac_weight(alpha, ts)
    order = np.lexsort((w, theta))  # by theta, then by w
    columns = {"theta": theta[order], "w": w[order]}
    return {"p": len(alpha), **columns}, {"weight.csv": columns}


def cmd_transform(args):
    if args.op == "conjugate":
        out = transforms.conjugate_pair(_load_pair(args))
        payload = {
            "op": "conjugate",
            "c": out.c,
            "m": out.m,
            "d": out.d,
        }
        return payload, {}
    if args.op == "rotate":
        if args.beta is None:
            raise InvalidParameters("--op rotate requires --beta RE,IM")
        parts = args.beta.split(",")
        if len(parts) != 2:
            raise InvalidParameters("--beta must be RE,IM")
        try:
            beta = complex(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise InvalidParameters(f"--beta must be two reals: {exc}")
        rotated = transforms.rotate_alpha(_load_alpha(args), beta)
        payload = {
            "op": "rotate",
            "beta": [beta.real, beta.imag],
            "alpha": complex_pairs(rotated),
        }
        return payload, {}
    data = transforms.unfold_alternating(_load_pair(args))
    payload = {
        "op": "unfold",
        "beta": complex_pairs(data.beta),
        "alpha_tilde": complex_pairs(data.alpha_tilde),
        "c_tilde": data.pair_tilde.c,
        "m_tilde": data.pair_tilde.m,
    }
    return payload, {}


def cmd_demo(args):
    params = period_two.PeriodTwoParams(c=args.c, b1=args.b1, b2=args.b2)
    alpha = period_two.family_alpha(params)
    payload = {
        "params": {"c": params.c, "b1": params.b1, "b2": params.b2},
        "alpha": complex_pairs(alpha),
        "band_edges": period_two.family_band_edges(params),
        "pure_points": _pure_points(period_two.family_masses(params)),
        "normalization": periodic.normalization_report(alpha),
    }
    return payload, {}


def cmd_check(args):
    report = selfcheck.run_checks()
    return {"ok": all(entry["ok"] for entry in report), "checks": report}, {}


# ------------------ wiring ------------------ #


def _add_command(sub, name: str, fn, summary: str):
    p = sub.add_parser(name, help=summary)
    if name not in _NO_INPUT:
        p.add_argument(
            "--input",
            default="-",
            help="inline JSON, a file path, or '-' for standard input",
        )
    if name in _CSV_COMMANDS:
        p.add_argument("--format", choices=("json", "csv", "both"), default="json")
        p.add_argument("--outdir", default=".", help="directory for CSV artifacts")
    else:
        p.set_defaults(format="json")
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opuckit",
        description="Measures on the unit circle via real sequence pairs: "
        "coefficient bijection, para-orthogonal zeros, quadrature, and "
        "periodic spectral analysis.",
    )
    parser.add_argument("--version", action="version", version=f"opuckit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "pair2alpha", cmd_pair2alpha, "reflection coefficients from a (c, m|d) pair")
    _add_command(
        sub, "alpha2pair", cmd_alpha2pair, "(c, m, d, b) sequences from reflection coefficients"
    )

    p = _add_command(
        sub, "zeros", cmd_zeros, "zeros of every level of the cosine-form polynomial ladder"
    )
    p.add_argument("--n", type=int, default=None, help="ladder depth (default: input length)")

    p = _add_command(
        sub, "quadrature", cmd_quadrature, "nodes and weights of the discrete approximant"
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--moments", type=int, default=None, help="also report moments 0..K")

    p = _add_command(sub, "cdf", cmd_cdf, "cumulative step function on a uniform grid")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--grid", type=int, default=512, help="number of grid cells on [0, 2 pi]")

    p = _add_command(sub, "poly", cmd_poly, "coefficient tables of the paired polynomial ladder")
    p.add_argument("--n", type=int, default=None)

    p = _add_command(
        sub, "periodic", cmd_periodic, "bands, gaps, candidates and masses of a periodic block"
    )
    p.add_argument("--p", type=int, default=None, help="period (default: input length)")

    p = _add_command(sub, "weight", cmd_weight, "absolutely continuous density on the bands")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--grid", type=int, default=1024, help="total sample count across bands")
    p.add_argument("--theta", default=None, help="explicit comma-separated angles")

    p = _add_command(
        sub, "transform", cmd_transform, "conjugate, rotate, or unfold the coefficients"
    )
    p.add_argument("--op", required=True, choices=("conjugate", "rotate", "unfold"))
    p.add_argument("--beta", default=None, help="unimodular RE,IM for --op rotate")

    p = _add_command(sub, "demo", cmd_demo, "closed-form tour of the period-two model family")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--b1", type=float, default=0.3)
    p.add_argument("--b2", type=float, default=0.5)

    _add_command(sub, "check", cmd_check, "run the deterministic invariant battery")

    return parser


def main(argv=None) -> int:
    """Run one subcommand: its JSON report, after a "meta" record, on standard
    output unless --format csv, and its CSV tables under --outdir unless
    --format json.  3 when the report says "ok": false."""
    args = build_parser().parse_args(argv)
    try:
        payload, tables = args.fn(args)
        if args.format != "csv":
            meta = {"version": __version__, "command": args.command}
            sys.stdout.write(dumps({"meta": meta, **payload}) + "\n")
        if args.format != "json":
            out = Path(args.outdir)
            out.mkdir(parents=True, exist_ok=True)
            for name, columns in tables.items():
                write_csv(out / name, columns)
    except OpucError as exc:
        sys.stderr.write(
            dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        )
        return 2 if isinstance(exc, InputError) else 3
    return 3 if payload.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
