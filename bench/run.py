"""opuckit benchmark.

    python3 bench/run.py --workload {ladder,periodic,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  The workload's inputs are drawn from
--seed; whole rounds of the same operations run until --seconds have passed.
Every call into the program is timed with tracing off (--trace 0) and its
output is checked against oracles in bench/oracles.py.  With --trace 1 each
operation runs twice, untraced and traced through bench/tracing.py; the traced
pass gives the per-layer figures and the pair gives the tracing overhead (on
standard error).  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics.  A fuller record goes to
.bench_out/.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in every child (inherited)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness
import oracles

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = {"ladder": "ladder", "periodic": "spectra", "cli": "cliruns"}

# fresh processes timed for setup_s in each untraced run, spread over the run
# so that their median sees the same machine as the operations do
SETUP_REPEATS = 9

# The per-layer metrics, the same on every workload: (metric, unit, traced
# function, figure).  Each is the figure summed over the traced run's
# operations, per operation, so it reads 0 on a workload that never calls the
# function.  README, "Metrics", says which end-to-end metric each should move.
PER_LAYER = [
    ("zeros.zero_ladder_s", "s", "zeros.zero_ladder", "self"),
    ("polynomials.w_eval_s", "s", "polynomials.w_eval", "total"),
    ("polynomials.w_eval_calls", "count", "polynomials.w_eval", "calls"),
    ("polynomials.w_eval_points", "count", "polynomials.w_eval", "points"),
    ("polynomials.rq_eval_s", "s", "polynomials.rq_eval", "total"),
    ("measure.quadrature_self_s", "s", "measure.quadrature", "self"),
    ("periodic.band_structure_s", "s", "periodic.band_structure", "self"),
    ("periodic.gap_candidates_s", "s", "periodic.gap_candidates", "self"),
    ("periodic.pure_point_mass_s", "s", "periodic.pure_point_mass", "self"),
    ("periodic.discriminant_calls", "count", "periodic.discriminant", "calls"),
    ("periodic.discriminant_points", "count", "periodic.discriminant", "points"),
    ("polynomials.szego_eval_points", "count", "polynomials.szego_eval", "points"),
    ("periodic.normalization_report_s", "s", "periodic.normalization_report", "total"),
    ("chain.maximal_parameters_s", "s", "chain.maximal_parameters", "total"),
    ("chain.maximal_depth", "count", "chain.maximal_parameters", "points"),
    ("serialize.read_input_document_s", "s", "serialize.read_input_document", "total"),
    ("serialize.load_sequences_s", "s", "serialize.load_sequences", "total"),
    ("serialize.dumps_s", "s", "serialize.dumps", "total"),
    ("serialize.dumps_bytes", "bytes", "serialize.dumps", "points"),
    ("bijection.pair_to_verblunsky_s", "s", "bijection.pair_to_verblunsky", "total"),
    ("bijection.verblunsky_to_pair_s", "s", "bijection.verblunsky_to_pair", "total"),
    ("selfcheck.run_checks_s", "s", "selfcheck.run_checks", "total"),
]
# seeded pools whose skipped share is reported, as admission.<pool>_skipped_pct
ADMISSION_POOLS = ("quad", "gap", "p16")

# fresh processes timed for cli.import_s in each traced run
IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import opuckit.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def _parse(argv):
    p = argparse.ArgumentParser(description="opuckit benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    if not (SRC / "opuckit" / "__init__.py").is_file():
        sys.stderr.write(f"no opuckit sources under {SRC}; run from the root of a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import opuckit
    import opuckit.cli  # noqa: F401 - the cli workload and the tracer need it

    if Path(opuckit.__file__).resolve().parent != (SRC / "opuckit").resolve():
        sys.stderr.write(f"opuckit was imported from {opuckit.__file__}, not {SRC}\n")
        sys.exit(2)
    return opuckit


class Paired:
    """Traced: each operation runs twice, untraced (timed only) and traced.

    The traced pass is the one checked and counted; the untraced pass gives
    the time the tracing overhead is measured against.  The two passes take
    turns at going first, so that neither gains from what the other warmed.
    """

    def __init__(self, ledger, tracer):
        self.ledger = ledger
        self.tracer = tracer
        self.untraced = defaultdict(list)
        self.figures = defaultdict(list)  # kind -> per-operation span figures
        self.turn = 0

    def _untraced(self, kind, call):
        t0 = time.perf_counter()
        try:
            call()
            self.untraced[kind].append(time.perf_counter() - t0)
        except Exception:  # the traced pass records the failure
            pass

    def run(self, kind, label, call, check):
        self.turn += 1
        if self.turn % 2:
            self._untraced(kind, call)
        result = self._traced(kind, label, call, check)
        if not self.turn % 2:
            self._untraced(kind, call)
        return result

    def _traced(self, kind, label, call, check):
        self.tracer.install()
        self.tracer.begin_op()
        try:
            result = self.ledger.run(kind, label, call, check)
        finally:
            figures = self.tracer.end_op()
            self.tracer.uninstall()
        if result is not None:
            self.figures[kind].append(figures)
        return result

    def skip(self, kind, label, reason):
        self.ledger.skip(kind, label, reason)


def _per_layer(figures, admission, import_s):
    """Every per-layer metric: span figures per traced operation, the import
    time and the skipped shares of the seeded pools."""
    ops = [op for kind_ops in figures.values() for op in kind_ops]
    out = {
        name: {"value": sum(op.get(fn, {}).get(stat, 0) for op in ops) / len(ops), "unit": unit}
        for name, unit, fn, stat in PER_LAYER
    }
    out["cli.import_s"] = {"value": import_s, "unit": "s"}
    for pool in ADMISSION_POOLS:
        pct = admission.skipped_pct(pool) if admission and pool in admission.pools else 0.0
        out[f"admission.{pool}_skipped_pct"] = {"value": pct, "unit": "%"}
    return out


def _import_time(work) -> float:
    """Seconds a fresh process takes to import opuckit.cli, by its own clock."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code, _, _ = harness.run_child([sys.executable, "-c", IMPORT_PROBE], env,
                                   work / "import.txt", work / "import.err")
    if code != 0:
        sys.stderr.write((work / "import.err").read_text(errors="replace"))
        raise RuntimeError(f"import probe exited with {code}")
    return float((work / "import.txt").read_text())


def _setup_time(args, i) -> float:
    """Wall time of a fresh process that imports opuckit and builds the inputs."""
    work = OUT / f"setup-{os.getpid()}-{i}"
    work.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    env = dict(os.environ, BENCH_WORK=str(work))
    code, elapsed, _ = harness.run_child(argv, env, work / "out", work / "err")
    if code != 0:
        sys.stderr.write((work / "err").read_text(errors="replace"))
        raise RuntimeError(f"set-up process exited with {code}")
    shutil.rmtree(work, ignore_errors=True)
    return elapsed


def main(argv=None) -> int:
    args = _parse(argv)
    opuckit = _import_program()
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_only:
        module.generate(args.seed, opuckit, Path(os.environ["BENCH_WORK"]))
        return 0

    oracles.self_test()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        setups = 0 if args.trace else SETUP_REPEATS
        setup: list[float] = []
        inputs = module.generate(args.seed, opuckit, work)
        workload = module.Workload(args.seed, opuckit, inputs, work, traced=bool(args.trace))
        ledger = harness.Ledger()
        if args.trace:
            import tracing

            runner = Paired(ledger, tracing.Tracer())
        else:
            runner = ledger  # untraced: time and check each operation once
        rounds = 0
        start = time.perf_counter()
        in_setup = 0.0  # set-up processes run between rounds, off the clock
        while True:
            while len(setup) < setups and (
                time.perf_counter() - start - in_setup >= args.seconds * len(setup) / setups
            ):
                t0 = time.perf_counter()
                setup.append(_setup_time(args, len(setup)))
                in_setup += time.perf_counter() - t0
            workload.round(runner)
            rounds += 1
            if time.perf_counter() - start - in_setup >= args.seconds:
                break
        while len(setup) < setups:
            setup.append(_setup_time(args, len(setup)))
        elapsed = time.perf_counter() - start - in_setup
        if args.trace:
            import_s = harness.median([_import_time(work) for _ in range(IMPORT_REPEATS)])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [kind for kind in module.E2E.values() if not ledger.times.get(kind)]
    if missing:
        ledger.report_failures()
        sys.stderr.write(f"no operation of kind {', '.join(missing)} succeeded; no result\n")
        return 1
    if args.trace:
        metrics = _per_layer(runner.figures, workload.admission, import_s)
        overhead = {
            kind: harness.median(ledger.times[kind]) / harness.median(runner.untraced[kind]) - 1.0
            for kind in ledger.times
            if runner.untraced.get(kind)
        }
    else:
        metrics = {
            name: {"value": harness.median(ledger.times[kind]), "unit": "s"}
            for name, kind in module.E2E.items()
        }
        metrics["setup_s"] = {"value": harness.median(setup), "unit": "s"}
        rss = workload.peak_rss_mb()
        if rss is None:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        overhead = None

    ledger.report_failures()
    if workload.admission is not None:
        sys.stderr.write(f"admission: {workload.admission.summary()}\n")
    if overhead is not None:
        sys.stderr.write(
            "tracing overhead (traced / untraced median - 1): "
            + ", ".join(f"{k} {v:+.1%}" for k, v in sorted(overhead.items()))
            + "\n"
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "times_s": dict(ledger.times),
        "failures": dict(ledger.failures),
        "workload_notes": workload.notes(),
        "tracing_overhead": overhead,
        "setup_runs_s": setup,
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n"
    )
    result = {
        "correct": ledger.incorrect == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
