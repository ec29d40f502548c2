"""The three benchmark workloads.

Each workload builds its inputs from the workload seed alone and hands the
program nothing else.  Inputs come from a pool of ``pool`` entries and call
``i`` uses entry ``i % pool``, so the committed reference for the default
seed covers every call however many calls a run makes.  Entry ``i`` depends
only on the seed and ``i``, so a smaller pool is a prefix of the full one.

All program calls go through module attributes looked up at call time
(``estimation.estimate``, not a name bound at import), so the traced run
sees them.

* ``grid_ofdm``: one call is the desk-scale grid campaign, one trial per
  cell.  Signal generation dominates.
* ``ber_ofdm``: one call is the desk-scale BER campaign with twenty trials.
  The Farrow filter runs as a compensator over whole OFDM symbols.
* ``frontier_stream``: the library path with no harness.  One call
  estimates one pre-generated window with Newton and ILS and scores both
  results; windows take the frontier banks in turn.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from farrowsync import design, estimation, farrow, harness, metrics, signals

from check import FLOAT, INT, TEXT

POOL = 64


def derive_seed(*parts) -> int:
    """64-bit input seed from the workload seed and an input's coordinates."""
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


class Campaign:
    """One call runs ``harness.run_experiment`` with a fresh base seed and reads its CSV back."""

    name: str
    campaign: str
    options: dict[str, str]
    trials_per_call: int
    schema: list[tuple[str, str]]
    cycle = 1

    def __init__(self, seed: int, pool: int, out_dir: Path):
        self.pool = pool
        self.base_seeds = [derive_seed(self.name, seed, i) for i in range(pool)]
        self.out_dir = out_dir

    def call(self, i: int):
        options = harness.Options(dict(self.options), self.campaign)
        return harness.run_experiment(self.campaign, options, self.base_seeds[i % self.pool], False, self.out_dir)

    def failures(self, outcome) -> int:
        return outcome.failures

    def table(self, outcome) -> list[tuple]:
        with open(outcome.files[0], newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            expected = [name for name, _ in self.schema]
            if header != expected:
                raise ValueError(f"{self.campaign}.csv header {header} != {expected}")
            parse = [{FLOAT: float, INT: int, TEXT: str}[kind] for _, kind in self.schema]
            return [tuple(p(v) for p, v in zip(parse, row)) for row in reader]


class GridOfdm(Campaign):
    name = "grid_ofdm"
    campaign = "grid"
    options = {"trials": "1"}
    trials_per_call = 5 * 5 * 2  # desk grid: 5x5 offsets at 20 and 40 dB, one trial per cell
    schema = [
        ("snr_db", FLOAT),
        ("delta_ppm", FLOAT),
        ("epsilon_ppm", FLOAT),
        ("method", TEXT),
        ("trials", INT),
        ("failures", INT),
        ("mean_delta_ppm", FLOAT),
        ("std_delta_ppm", FLOAT),
        ("mean_epsilon_ppm", FLOAT),
        ("std_epsilon_ppm", FLOAT),
    ]

    def invariants(self, rows: list[tuple], i: int) -> list[str]:
        """Seed-independent sanity bounds: one iteration lands within a quarter sample."""
        problems = []
        if len(rows) != 2 * self.trials_per_call:
            problems.append(f"expected {2 * self.trials_per_call} rows, got {len(rows)}")
        for snr, d, e, method, trials, failures, md, sd, me, se in rows:
            where = f"snr {snr} cell ({d}, {e}) {method}"
            if trials != 1 or failures != 0:
                problems.append(f"{where}: trials={trials} failures={failures}")
            if not all(math.isfinite(v) for v in (md, sd, me, se)):
                problems.append(f"{where}: non-finite estimate")
            elif abs(md - d) > 1000.0 or abs(me - e) > 250_000.0:
                problems.append(f"{where}: estimate ({md}, {me}) ppm far from truth")
        return problems


class BerOfdm(Campaign):
    name = "ber_ofdm"
    campaign = "ber"
    options = {"trials": "20"}
    # Twenty trials make a call long enough (about 0.15 s on a 2-core box)
    # that its median latency does not flip between short load states.
    trials_per_call = 20
    schema = [
        ("snr_db", FLOAT),
        ("trial", INT),
        ("seed", INT),
        ("method", TEXT),
        ("iteration", INT),
        ("delta_ppm", FLOAT),
        ("epsilon_ppm", FLOAT),
        ("nmse", FLOAT),
        ("bit_errors", INT),
        ("total_bits", INT),
    ]
    # Five parameter sets are scored per trial: Newton and ILS after one and
    # two iterations, and the true delay law.
    rows_per_trial = 5
    bits_per_symbol_block = 1536 * 6  # 1536 active 64-QAM subcarriers

    def invariants(self, rows: list[tuple], i: int) -> list[str]:
        """Seed-independent sanity bounds at 30 dB with 293 ppm offsets."""
        problems = []
        if len(rows) != self.rows_per_trial * self.trials_per_call:
            problems.append(f"expected {self.rows_per_trial * self.trials_per_call} rows, got {len(rows)}")
        errors = sum(r[8] for r in rows)
        bits = sum(r[9] for r in rows)
        for _, trial, _, method, iteration, d, e, err, bit_errors, total_bits in rows:
            where = f"trial {trial} {method}/{iteration}"
            if total_bits != self.bits_per_symbol_block:
                problems.append(f"{where}: {total_bits} bits scored")
            if not all(math.isfinite(v) for v in (d, e, err)):
                problems.append(f"{where}: non-finite result")
            elif abs(d - 293.0) > 200.0 or abs(e - 293.0) > 50_000.0 or not 0.0 < err < 1e-2:
                problems.append(f"{where}: estimate ({d}, {e}) ppm, nmse {err}")
        if bits and errors > 1e-3 * bits:
            problems.append(f"bit error rate {errors}/{bits} above 1e-3")
        return problems


class FrontierWindow:
    """One pre-generated estimation window and the bank that compensates it."""

    def __init__(self, bank, x0: np.ndarray, x1: np.ndarray, delta: float, epsilon: float):
        self.bank = bank
        self.x0 = x0
        self.x1 = x1
        self.delta = delta
        self.epsilon = epsilon


class FrontierStream:
    """Library path: estimate and compensate pre-generated windows, banks in turn."""

    name = "frontier_stream"
    trials_per_call = 1
    n_samples = 1024
    snr_db = 30.0
    # |n*delta + epsilon| <= 300e-6*1023 + 0.15 < 0.46 keeps every window inside the design range.
    max_delta = 300e-6
    max_epsilon = 0.15
    configs = (
        ("newton", estimation.EstimatorConfig(method="newton", max_iterations=2)),
        ("ils", estimation.EstimatorConfig(method="ils", max_iterations=2)),
    )
    schema = [
        ("degree", INT),
        ("order", INT),
        ("method", TEXT),
        ("iterations", INT),
        ("delta", FLOAT),
        ("epsilon", FLOAT),
        ("nmse", FLOAT),
        ("delay_exceeded", INT),
    ]

    def __init__(self, seed: int, pool: int, out_dir: Path | None = None):
        self.pool = pool
        entries = [design.ERROR_FRONTIER[i % len(design.ERROR_FRONTIER)] for i in range(pool)]
        # Any run of `cycle` consecutive calls takes every bank in the pool once.
        self.cycle = len(set(entries))
        banks = {}
        for _, degree, order in entries:
            if (degree, order) not in banks:
                banks[degree, order] = design.design_bank(design.DesignSpec(degree=degree, order=order))
        self.windows = []
        for i, (_, degree, order) in enumerate(entries):
            bank = banks[degree, order]
            rng = np.random.default_rng(derive_seed(self.name, seed, i, "offsets"))
            delta = float(rng.uniform(-self.max_delta, self.max_delta))
            epsilon = float(rng.uniform(-self.max_epsilon, self.max_epsilon))
            model = signals.make_bandpass_noise(seed=derive_seed(self.name, seed, i, "model"))
            impairment = signals.ImpairmentSpec(
                delta=delta, epsilon=epsilon, snr_db=self.snr_db, seed=derive_seed(self.name, seed, i, "noise")
            )
            x0, x1 = signals.sample_pair(model, impairment, self.n_samples + bank.order, start=-bank.group_delay)
            self.windows.append(FrontierWindow(bank, x0, x1, delta, epsilon))

    def call(self, i: int) -> tuple[list[tuple], int]:
        w = self.windows[i % self.pool]
        results = []
        failures = 0
        for method, config in self.configs:
            try:
                results.append((method, estimation.estimate(w.x0, w.x1, w.bank, config)))
            except estimation.SingularSystemError:
                failures = 1
        u = farrow.compute_subfilter_outputs(w.x1, w.bank)
        gd = w.bank.group_delay
        ref = w.x0[gd : gd + self.n_samples]
        rows = []
        for method, result in results:
            err = metrics.nmse(farrow.farrow_output(u, result.params), ref)
            exceeded = any(rec.delay_exceeded for rec in result.records)
            p = result.params
            rows.append((w.bank.degree, w.bank.order, method, result.iterations, p.delta, p.epsilon, err, int(exceeded)))
        return rows, failures

    def failures(self, outcome) -> int:
        return outcome[1]

    def table(self, outcome) -> list[tuple]:
        return outcome[0]

    def invariants(self, rows: list[tuple], i: int) -> list[str]:
        """Seed-independent sanity bounds: two iterations at 30 dB reach the true delay law.

        Over 2560 windows (seeds 200-219) the worst errors were 20 ppm in
        delta, 0.008 in epsilon and an NMSE of 0.0035; the bounds sit well
        outside that noise and catch gross breakage.
        """
        w = self.windows[i % self.pool]
        true_delta = w.delta / (1.0 + w.delta)
        true_epsilon = w.epsilon / (1.0 + w.delta)
        problems = []
        if len(rows) != len(self.configs):
            problems.append(f"expected {len(self.configs)} rows, got {len(rows)}")
        for degree, order, method, iterations, d, e, err, _ in rows:
            where = f"window {i % self.pool} L{degree}/N{order} {method}"
            if iterations != 2:
                problems.append(f"{where}: {iterations} iterations")
            if not all(math.isfinite(v) for v in (d, e, err)):
                problems.append(f"{where}: non-finite result")
            elif abs(d - true_delta) > 100e-6 or abs(e - true_epsilon) > 0.05 or not 0.0 < err < 2e-2:
                problems.append(f"{where}: estimate ({d}, {e}) vs ({true_delta}, {true_epsilon}), nmse {err}")
        return problems


WORKLOADS = {w.name: w for w in (GridOfdm, BerOfdm, FrontierStream)}
