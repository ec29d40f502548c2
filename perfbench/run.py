"""farrowsync benchmark: three closed-loop workloads with output checks.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid_ofdm --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced and traced blocks of calls, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Human-readable lines, the environment record and the sample counts come
before it.  Per-call output summaries, spans and the full result go to
``.perfbench_out/`` in the checkout.

The load is one client in one process: the next call starts when the
previous one returns.  The benchmark starts no threads; BLAS keeps its
default thread count, which is recorded.  ``setup_s`` is the median of
three set-ups, each in a fresh process: this one and two children started
with ``--setup-only`` between the three segments of the timed loop.

The timing metrics in the JSON result (``ref_trials_per_s``,
``ref_call_p50_ms``, ``ref_call_p90_ms``) are scaled to a reference machine
speed, measured by a fixed kernel timed between blocks of calls (see
``SpeedReference``).  The same metrics as measured, without the ``ref_``
prefix, are printed before the result and kept in the result file.

Exit codes: 0 when every output is correct, 1 when an output mismatches the
reference or breaks a sanity bound, 2 when the program cannot be imported
from ``src/`` of the checkout.
"""

import time

_START = time.perf_counter()  # set-up is timed from before the program is imported

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
MIN_CALLS = 100  # at least 10 latency samples lie beyond p90
SETUP_RUNS = 3
RATE_CHUNKS = 10
# One SpeedReference pass takes about this long on the 2-vCPU machine of the
# baseline; ``ref_`` metrics are scaled to a machine on which it takes this long.
REFERENCE_PASS_S = 0.004
WORKLOAD_NAMES = ("grid_ofdm", "ber_ofdm", "frontier_stream")

END_TO_END = (
    ("setup_s", "s"),
    ("ref_trials_per_s", "1/s"),
    ("ref_call_p50_ms", "ms"),
    ("ref_call_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class ProgramMissing(Exception):
    pass


def import_program():
    """Import farrowsync from ``src/`` of this checkout and nowhere else."""
    src = ROOT / "src"
    if not (src / "farrowsync" / "__init__.py").is_file():
        raise ProgramMissing(f"no farrowsync package under {src}")
    sys.path.insert(0, str(src))
    import farrowsync

    if Path(farrowsync.__file__).resolve().parent != (src / "farrowsync").resolve():
        raise ProgramMissing(f"farrowsync imported from {farrowsync.__file__}, not from {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input pool and one set-up, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and print it (used for the set-up repeats)")
    parser.add_argument("--write-reference", action="store_true", help="write the reference summaries for this seed and exit")
    return parser.parse_args(argv)


class OutputChecker:
    """Checks each call's output: sanity bounds, repeat agreement and the reference."""

    def __init__(self, workload, seed: int, check_mod):
        self.workload = workload
        self.check = check_mod
        self.schema = workload.schema
        self.first: dict[int, dict] = {}
        self.reference = None
        ref_path = check_mod.REFERENCE_DIR / f"{workload.name}.json"
        if seed == DEFAULT_SEED:
            self.reference = check_mod.load_summaries(ref_path)["calls"]
        self.problems: list[str] = []
        self.failed_trials = 0

    def __call__(self, i: int, outcome) -> None:
        entry = i % self.workload.pool
        program_failures = self.workload.failures(outcome)
        rows = self.workload.table(outcome)
        summary = self.check.summarize(self.schema, rows)
        problems = self.workload.invariants(rows, i)
        if entry in self.first:
            problems += [f"differs from its first run: {p}" for p in self.check.compare(self.schema, self.first[entry], summary)]
        else:
            self.first[entry] = summary
        if self.reference is not None:
            ref = self.reference.get(str(entry))
            if ref is None:
                problems.append(f"no reference for pool entry {entry}")
            else:
                problems += [f"reference: {p}" for p in self.check.compare(self.schema, ref, summary)]
        failed = program_failures
        if problems:
            failed = self.workload.trials_per_call
            self.problems += [f"call {i} (pool entry {entry}): {p}" for p in problems[:5]]
        self.failed_trials += min(failed, self.workload.trials_per_call)


class SpeedReference:
    """A fixed kernel of NumPy and pure-Python work, timed between blocks of calls.

    Other tenants of a shared machine slow it by 10-40 % for tens of seconds
    at a time, and the process sees this as slower CPU time, not as time off
    the CPU.  The kernel slows with it, so a latency divided by the kernel
    time measured around it keeps the program's speed and drops most of the
    machine's.  The kernel is the benchmark's own code: no change to the
    program alters it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20240917)
        self.np = np
        self.x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        self.m = rng.standard_normal((32, 32))

    def time_pass(self) -> float:
        np, x, m = self.np, self.x, self.m
        t0 = time.perf_counter()
        for _ in range(8):
            y = np.fft.ifft(np.fft.fft(x) * x)
            np.abs(y) ** 2 + np.exp(1j * np.angle(x)).real
            np.linalg.solve(m, m[0])
        s = 0
        for k in range(8000):
            s += k * k % 7
        return time.perf_counter() - t0


def closed_loop(workload, check, start: int, seconds: float, min_calls: int, reference: SpeedReference, tracer=None):
    """Call the workload back to back for ``seconds`` and at least ``min_calls`` calls.

    Calls run in blocks of ``workload.cycle``, so per-trial work counts
    repeat exactly.  Only the program call is timed; the output check runs
    between calls.  A reference pass is timed before the first block and
    after each block.  Returns the latencies as measured and the latencies
    scaled to the reference speed by the mean of the two passes around each
    block.
    """
    latencies, scaled = [], []
    i = start
    deadline = time.perf_counter() + seconds
    before = reference.time_pass()
    while time.perf_counter() < deadline or len(latencies) < min_calls:
        block = []
        for _ in range(workload.cycle):
            if tracer is not None:
                tracer.begin_call(i, workload.trials_per_call)
            t0 = time.perf_counter()
            outcome = workload.call(i)
            block.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_call()
            check(i, outcome)
            i += 1
        after = reference.time_pass()
        speed = REFERENCE_PASS_S / ((before + after) / 2)
        latencies += block
        scaled += [t * speed for t in block]
        before = after
    return latencies, scaled


def chunked_rate(latencies: list[float], trials_per_call: int) -> float:
    """Median over consecutive chunks of the calls of trials per second of call time."""
    size = max(1, len(latencies) // RATE_CHUNKS)
    rates = [
        trials_per_call * len(chunk) / sum(chunk)
        for chunk in (latencies[k : k + size] for k in range(0, len(latencies) - size + 1, size))
    ]
    return statistics.median(rates)


def latency_metrics(latencies: list[float], trials_per_call: int, prefix: str) -> dict[str, float]:
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return {
        f"{prefix}trials_per_s": chunked_rate(latencies, trials_per_call),
        f"{prefix}call_p50_ms": statistics.median(latencies) * 1e3,
        f"{prefix}call_p90_ms": deciles[-1] * 1e3,
    }


def blas_record() -> dict:
    """BLAS library and its thread count, read from the loaded OpenBLAS if there is one."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": None,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, workload) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "trials_per_call": workload.trials_per_call,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def child_setup_seconds(args) -> float:
    """Time one full set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"set-up child failed with code {out.returncode}: {out.stderr.strip()[-2000:]}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import check as check_mod
    import spans
    import workloads

    pool = 2 if args.smoke else workloads.POOL
    scratch = OUT_DIR / f"{args.workload}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        return _run(args, pool, scratch, tracer, check_mod, spans, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, pool, scratch, tracer, check_mod, spans, workloads) -> int:
    cls = workloads.WORKLOADS[args.workload]
    if tracer is not None:
        tracer.install()
    workload = cls(args.seed, pool, scratch)
    warmup = workload.call(0)
    if tracer is not None:
        tracer.uninstall()
    setup_s = time.perf_counter() - _START

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.write_reference:
        calls = {}
        for i in range(pool):
            outcome = warmup if i == 0 else workload.call(i)
            calls[i] = check_mod.summarize(workload.schema, workload.table(outcome))
        path = check_mod.REFERENCE_DIR / f"{workload.name}.json"
        check_mod.write_summaries(path, workload.name, args.seed, workload.schema, calls)
        print(f"wrote {path}")
        return 0

    checker = OutputChecker(workload, args.seed, check_mod)
    checker(0, warmup)
    reference = SpeedReference()
    reference.time_pass()
    min_calls = workload.cycle if args.smoke else MIN_CALLS
    tpc = workload.trials_per_call
    if tracer is None:
        # The timed loop runs in one segment per set-up, with a child set-up
        # between segments, so its samples span more wall time on a shared
        # machine whose speed drifts over tens of seconds.
        segments = 1 if args.smoke else SETUP_RUNS
        latencies, scaled, setups = [], [], [setup_s]
        for k in range(segments):
            if k:
                setups.append(child_setup_seconds(args))
            raw, ref = closed_loop(workload, checker, len(latencies), args.seconds / segments, -(-min_calls // segments), reference)
            latencies += raw
            scaled += ref
        metrics = {
            "setup_s": statistics.median(setups),
            **latency_metrics(scaled, tpc, "ref_"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        extra = {"latency_samples": len(latencies), "setup_runs_s": setups, "as_measured": latency_metrics(latencies, tpc, "")}
    else:
        # Untraced and traced blocks of one cycle alternate, so the overhead
        # ratio compares calls made under the same machine load.
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or not traced:
            plain += closed_loop(workload, checker, len(plain) + len(traced), 0, 1, reference)[1]
            with tracer.installed():
                traced += closed_loop(workload, checker, len(plain) + len(traced), 0, 1, reference, tracer)[1]
        latencies = plain + traced
        overhead = (sum(traced) / len(traced)) / (sum(plain) / len(plain))
        from farrowsync import design

        spans.design_probe(tracer, design)
        spec = spans.per_layer_spec(design.ERROR_FRONTIER)
        values = spans.layer_values(tracer.spans, len(traced), len(traced) * tpc, overhead)
        metrics = {name: values.get(name, 0.0) for name, _, _ in spec}
        units = {name: unit for name, unit, _ in spec}
        extra = {"untraced_calls": len(plain), "traced_calls": len(traced), "spans": len(tracer.spans), "not_traced": tracer.missing}
        tracer.write(OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl.gz")

    attempted = (len(latencies) + 1) * tpc
    failed = checker.failed_trials
    correct = not checker.problems
    env = environment(args, workload)
    summary_path = OUT_DIR / f"{workload.name}-seed{args.seed}.summary.json"
    check_mod.write_summaries(summary_path, workload.name, args.seed, workload.schema, checker.first)

    for problem in checker.problems[:20]:
        print(f"MISMATCH {problem}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    for name, value in extra.get("as_measured", {}).items():
        print(f"{name:40s} {value:.6g} {units['ref_' + name]} (as measured, not scaled)")
    print(f"{'failed_ratio':40s} {failed / attempted:.6g} ({failed} of {attempted} trials)")
    print(f"{'calls':40s} {len(latencies) + 1} (incl. warm-up); {json.dumps(extra)}")
    print(f"env: {json.dumps(env)}")
    print(f"summaries: {summary_path}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    full = dict(result, environment=env, failed_ratio=failed / attempted, problems=checker.problems, **extra)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.result.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
