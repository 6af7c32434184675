"""incewave benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload scan|extended|verify --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the package is imported from ./src. One client
in one process sends its next op when the previous one returns. An op is one
in-process ``incewave.cli.main(argv)`` call writing into a scratch directory,
and is timed alone; its output is checked against the independent reference
in reference.py afterwards, outside every timed region. Whole rounds of ops
(see workloads.py) run until at least S seconds of op time have passed. An op
fails if it raises, exits non-zero or fails the check. The rounds draw only
inputs that pass at the seed; the inputs known to fail there run in a
separate probe of the traced run, which counts their failures by kind.

--trace 0 reports the end-to-end metrics:

    setup_s      median of 7 fresh interpreters, from process start until
                 ``import incewave.cli`` has returned
    ok_per_s     correct ops per second of op time
    ok_frac      correct ops / ops attempted
    op_p50_ms    median latency of all ops, failed ones included
    op_p90_ms    90th percentile latency of all ops, failed ones included
    peak_rss_mb  peak resident memory of the workload process

Percentiles are Harrell-Davis estimates. Shared hosts change the speed they
give a process by tens of percent within seconds, so a fixed calibration
kernel runs after every op, and each op's time is scaled to the speed at
which that kernel takes CALIBRATION_REF_S, taking the median kernel time of
the CALIBRATION_WINDOW ops around it; ok_per_s, op_p50_ms and op_p90_ms use
the scaled times. The unscaled values and the median host speed go to the
report.

--trace 1 runs the same ops twice, untraced and then with the span recorder
of tracer.py installed, and reports per-layer metrics and the tracing
overhead. It then runs the workload's known-failure probe (untraced, not
part of ``attempted``) and reports ``fail.<kind>``: the failures of the probe
and of the rounds by kind, so a change that fixes a known failure shows as a
drop. The last line of standard output is one JSON object; a per-run report
(every op, every failure with its inputs, the BLAS thread cap) and the spans
go to .perfbench_out/.
"""

from __future__ import annotations

import os
import sys

# BLAS pools read their size at import, so the cap is set before numpy loads.
# One thread: on a 2-core host a verify op with a dim-100 Gram product took
# 2.0-2.3 s with one or two threads when idle, but 3.5 s with two threads
# and 2.1-2.4 s with one while another process held a core, so more threads
# only add noise from whatever else runs on the host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("scan", "extended", "verify")
SETUP_SAMPLES = 7
# Median calibration kernel time on the host the bounds were set on (2-vCPU
# VM, Python 3.11.7, numpy 2.4.6); op times are reported at this speed.
CALIBRATION_REF_S = 0.0187
# Ops whose kernel times give an op's speed: the previous one, the op and the
# next, so that the kernel runs just before and just after the op count and
# the median drops one outlier. Over two sets of ten 20 s runs per workload
# on a 2-vCPU VM, the spread between runs (IQR / median) of ok_per_s,
# op_p50_ms and op_p90_ms was 0.02-0.09 this way, against 0.04-0.18 with
# one median kernel time for the whole run.
CALIBRATION_WINDOW = 3
FAILURE_KINDS = ("NumericalFailureError", "OracleFailureError", "OverflowError",
                 "other", "exit1", "exit2", "exit3", "check")

END_TO_END = (
    ("setup_s", "s"),
    ("ok_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import incewave.cli, from
    process start to the child reporting ready."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import incewave.cli; print('ready', flush=True)"
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"fresh interpreter failed to import incewave.cli ({child.returncode})")
    return statistics.median(samples)


def calibrate() -> float:
    """Time of a fixed kernel in two halves like an incewave op: interpreter
    work on small arrays (the eigensolver's loops) and a complex phase matrix
    of a few hundred kB times a vector (polynomial evaluation, which feels a
    busy cache more). It runs after every op to track the speed the host
    gives this process."""
    x = np.linspace(0.0, 1.0, 64)
    xi = np.linspace(-np.pi, np.pi, 512)
    freqs = np.arange(-32.0, 32.0)
    start = time.perf_counter()
    for i in range(1000):
        np.sum(np.sign(x * (1.0 + 1e-3 * i) - 0.5))
    for i in range(4):
        np.exp(-1j * np.multiply.outer(xi, freqs + 1e-3 * i)) @ x
    return time.perf_counter() - start


class Runner:
    """Runs ops through the CLI and checks their outputs."""

    def __init__(self, scratch: str):
        import incewave.cli as cli
        import reference

        self.cli = cli
        self.ref = reference
        self.scratch = scratch

    def argv(self, op) -> tuple[list[str], str]:
        out = os.path.join(self.scratch, f"{op.kind}.out")
        common = ["--parity", op.parity, "--tier", op.tier, "--out", out]
        if op.kind == "scan":
            return ["scan", "--n-min", str(op.n), "--n-max", str(op.n), "--a", repr(op.a),
                    "--format", "csv", *common], out
        args = [op.kind, "--n", str(op.n), "--a", repr(op.a), *common]
        if op.kind == "wavefunction":
            args += ["--eta", repr(op.eta), "--with-prefactor"]
        return args, out

    def run(self, op) -> dict:
        """One timed CLI call, then the output check."""
        argv, out = self.argv(op)
        if os.path.exists(out):
            os.remove(out)
        err = io.StringIO()
        failure = None
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a raised op is a failed op, by type
                code = None
                name = type(exc).__name__
                failure = name if name in FAILURE_KINDS else "other"
                detail = f"{name}: {exc}"
            latency = time.perf_counter() - start
        if failure is None and code != 0:
            failure, detail = f"exit{code}", err.getvalue().strip()
        if failure is None:
            detail = self.check(op, out)
            failure = "check" if detail else None
        rec = {**op.label(), "latency_s": latency, "ok": failure is None}
        if failure is not None:
            rec.update(failure=failure, detail=detail[:300])
        return rec

    def check(self, op, out: str) -> str | None:
        try:
            if op.kind == "scan":
                return self.ref.check_scan(out, op.parity, op.n, op.a)
            if op.kind == "spectrum":
                return self.ref.check_spectrum(out, op.parity, op.n, op.a)
            if op.kind == "wavefunction":
                return self.ref.check_wavefunction(out, op.parity, op.n, op.a, op.eta, 0.5)
            return self.ref.check_verify(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"


def run_rounds(runner: Runner, rounds, seconds: float) -> tuple[list, list]:
    """Whole rounds until the summed op time reaches `seconds`; returns the
    ops and their records."""
    ops, records, spent = [], [], 0.0
    while spent < seconds:
        for op in next(rounds):
            rec = runner.run(op)
            rec["calibration_s"] = calibrate()
            ops.append(op)
            records.append(rec)
            spent += rec["latency_s"]
    return ops, records


def failure_counts(records) -> dict[str, int]:
    counts = {kind: 0 for kind in FAILURE_KINDS}
    for rec in records:
        if not rec["ok"]:
            counts[rec["failure"]] += 1
    return counts


def host_speeds(records) -> list[float]:
    """How fast the host ran each op, against the calibration kernel's
    reference time (1.0 at the reference, 0.5 at half speed)."""
    kernel = [rec["calibration_s"] for rec in records]
    half = CALIBRATION_WINDOW // 2
    return [CALIBRATION_REF_S / statistics.median(kernel[max(0, i - half):i + half + 1])
            for i in range(len(kernel))]


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, far steadier than one or two of them in small samples."""
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(records, setup_s: float, speeds, peak_rss_mb: float) -> dict[str, float]:
    """Op times are scaled to the reference host speed by `speeds`, one per op."""
    ok = sum(rec["ok"] for rec in records)
    if ok == 0:
        raise RuntimeError(f"none of {len(records)} ops succeeded")
    latencies = [rec["latency_s"] * speed for rec, speed in zip(records, speeds)]
    return {
        "setup_s": setup_s,
        "ok_per_s": ok / sum(latencies),
        "ok_frac": ok / len(records),
        "op_p50_ms": 1e3 * quantile(latencies, 0.5),
        "op_p90_ms": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        setup_s = None if trace else measure_setup()
        runner = Runner(scratch)
        warmup = workloads.Op("spectrum", "even", 15, 12.0, "extended")
        runner.run(warmup)
        rounds = workloads.rounds(workload, seed)
        probe = []
        if not trace:
            _ops, records = run_rounds(runner, rounds, seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            speeds = host_speeds(records)
            speed = statistics.median(speeds)
            values = end_to_end(records, setup_s, speeds, peak)
            raw = end_to_end(records, setup_s, [1.0] * len(records), peak)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            passes = [records]
        else:
            from tracer import PER_LAYER, Tracer

            ops, records = run_rounds(runner, rounds, seconds / 2)
            speed, raw = statistics.median(host_speeds(records)), None
            tracer = Tracer()
            tracer.install()
            try:
                traced = []
                for i, op in enumerate(ops):
                    tracer.op = i
                    traced.append(runner.run(op))
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
            layers = tracer.layer_metrics()
            untraced_s = sum(rec["latency_s"] for rec in records)
            traced_s = sum(rec["latency_s"] for rec in traced)
            metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
            metrics["trace.op_s"] = (traced_s, "s")
            metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
            probe = [runner.run(op) for op in workloads.KNOWN_FAILURES[workload]]
            for kind, count in failure_counts(records + probe).items():
                metrics[f"fail.{kind}"] = (count, "count")
            passes = [records, traced]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed = sum(not rec["ok"] for p in passes for rec in p)
    bad_outputs = sum(rec.get("failure") == "check" for p in passes + [probe] for rec in p)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "blas_threads": BLAS_THREADS,
        "failures": failure_counts(passes[0]),
        "failed_ops": [rec for rec in passes[0] if not rec["ok"]],
        "probe": probe,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
        "host_speed": speed,
        "unscaled_metrics": raw,
        "ops": passes,
    }
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload={workload} seed={seed} blas_threads={BLAS_THREADS} "
          f"ops={len(passes[0])} passes={len(passes)} host_speed={speed:.4f}")
    for kind, count in report["failures"].items():
        if count:
            print(f"  fail.{kind} = {count}")
    for rec in report["failed_ops"]:
        print(f"  failed: {rec['failure']} {rec['kind']} parity={rec['parity']} "
              f"n={rec['n']} a={rec['a']!r} tier={rec['tier']}")
    for rec in probe:
        outcome = rec.get("failure", "ok")
        print(f"  probe: {outcome} {rec['kind']} parity={rec['parity']} "
              f"n={rec['n']} a={rec['a']!r} tier={rec['tier']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": bad_outputs == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints one table."""
    lines, status = [], 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        lines.append(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
                     f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            lines.append(f"  {workload:9s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print("\n".join(lines))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "incewave", "cli.py")):
        print(f"error: no incewave sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
