"""Print where the time of a warm desk campaign call goes, stage by stage.

``python tools/stage_times.py CAMPAIGN [key=value ...] [--calls N] [--seed S]``
runs one untimed call of ``CAMPAIGN`` (which designs the bank and builds the
chirp-z plans) and then ``N`` timed calls (20 by default) in this process,
each through ``harness.run_experiment`` with the desk configuration, the
given keys (``trials=1`` gives the one-chunk grid call of the ``grid_ofdm``
benchmark) and base seeds ``S``, ``S + 1``, ...  Every call of the stages
below is timed, under every name the package binds it to.  For each stage
it prints the calls, the milliseconds and the share of one campaign call,
first with the stages it calls (``sample_pairs`` holds ``_tone_sums`` and
``add_awgn``) and then without them; ``rest`` is the time of a call that no
stage holds.  Then, for each cache of :data:`CACHES`, it prints the hits and
misses of the timed calls and the entries and bytes it holds after them (an
``lru_cache`` does not count bytes); a warm call should miss nothing.  It
needs the standard library and NumPy, and ``src/`` next to this file (or the
package installed).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from farrowsync import harness  # noqa: E402

#: (module, function) of every timed stage, in the order of a trial's path.
STAGES = (
    ("signals", "make_ofdm"),
    ("signals", "sample_pairs"),
    ("signals", "_tone_sums"),
    ("signals", "add_awgn"),
    ("farrow", "compute_subfilter_outputs"),
    ("estimation", "estimate_batch"),
    ("farrow", "farrow_output"),
    ("signals", "ofdm_demodulate"),
    ("metrics", "qam_demod_ber"),
    ("metrics", "nmse"),
    ("harness", "write_csv"),
)


#: (module, name) of every cache whose counts are printed after the stages.
CACHES = (
    ("signals", "_czt_plan"),
    ("signals", "_ofdm_layouts"),
    ("signals", "_input_phases"),
    ("signals", "_output_phases"),
    ("estimation", "_cascade_weights"),
)


class StageClock:
    """Calls, inclusive and self seconds of each stage; a stage's self time excludes the stages it calls."""

    def __init__(self):
        self.calls = {name: 0 for _, name in STAGES}
        self.total = dict.fromkeys(self.calls, 0.0)
        self.own = dict.fromkeys(self.calls, 0.0)
        self._inner: list[float] = []  # time spent in timed stages below each open stage

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._inner.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.own[name] += elapsed - inner
                if self._inner:
                    self._inner[-1] += elapsed

        return timed


@contextmanager
def installed(clock: StageClock):
    """Replace every stage under each name a ``farrowsync`` module binds it to, and put the originals back on exit."""
    modules = [module for name, module in sorted(sys.modules.items()) if name == "farrowsync" or name.startswith("farrowsync.")]
    patched = []
    for module_name, name in STAGES:
        original = getattr(sys.modules[f"farrowsync.{module_name}"], name)
        timed = clock.wrap(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                patched.append((module, name, original))
                setattr(module, name, timed)
    try:
        yield
    finally:
        for module, name, original in patched:
            setattr(module, name, original)


def cache_infos() -> dict[str, tuple]:
    """``cache_info()`` of every cache of :data:`CACHES`, by name."""
    return {name: getattr(sys.modules[f"farrowsync.{module}"], name).cache_info() for module, name in CACHES}


def run(campaign: str, options: dict[str, str], calls: int, seed: int) -> tuple[StageClock, float, dict[str, tuple]]:
    """The stage clock of ``calls`` warm calls of ``campaign``, their wall time in seconds, and each cache's ``(hits, misses, entries, bytes)`` over them.

    Hits and misses are those of the timed calls; entries and bytes are held
    after them, and bytes are ``None`` for an ``lru_cache``.
    """
    with tempfile.TemporaryDirectory() as out:

        def call(base_seed: int) -> None:
            harness.run_experiment(campaign, harness.Options(dict(options), campaign), base_seed, False, Path(out))

        call(seed)
        clock = StageClock()
        before = cache_infos()
        with installed(clock):
            start = time.perf_counter()
            for k in range(calls):
                call(seed + k)
            wall = time.perf_counter() - start
    caches = {
        name: (info.hits - before[name].hits, info.misses - before[name].misses, info.currsize, getattr(info, "nbytes", None))
        for name, info in cache_infos().items()
    }
    return clock, wall, caches


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Time the stages of warm desk calls of one campaign.")
    parser.add_argument("campaign", choices=list(harness.CAMPAIGNS))
    parser.add_argument("options", nargs="*", metavar="key=value", help="campaign config keys, e.g. trials=1")
    parser.add_argument("--calls", type=int, default=20, help="timed calls after the untimed one (default 20)")
    parser.add_argument("--seed", type=int, default=0, help="base seed of the first timed call (default 0)")
    args = parser.parse_args(argv)
    if args.calls < 1 or not all("=" in option for option in args.options):
        parser.error("--calls must be positive and every option must be key=value")
    clock, wall, caches = run(args.campaign, dict(option.split("=", 1) for option in args.options), args.calls, args.seed)
    per_call = wall / args.calls
    print(f"{' '.join([args.campaign, *args.options])}: {args.calls} warm calls, {per_call * 1e3:.2f} ms a call")
    print(f"{'stage':<28} {'calls':>7} {'ms':>8} {'share':>7} {'self ms':>8} {'share':>7}")
    for _, name in STAGES:
        row = (clock.calls[name], clock.total[name] * 1e3, clock.total[name] / wall, clock.own[name] * 1e3, clock.own[name] / wall)
        print(f"{name:<28} {row[0] / args.calls:>7.1f} {row[1] / args.calls:>8.2f} {row[2]:>7.1%} {row[3] / args.calls:>8.2f} {row[4]:>7.1%}")
    rest = wall - sum(clock.own.values())
    print(f"{'rest':<28} {'':>7} {'':>8} {'':>7} {rest / args.calls * 1e3:>8.2f} {rest / wall:>7.1%}")
    print(f"{'cache':<28} {'hits':>7} {'misses':>7} {'entries':>8} {'bytes':>10}")
    for name, (hits, misses, entries, nbytes) in caches.items():
        print(f"{name:<28} {hits:>7} {misses:>7} {entries:>8} {'-' if nbytes is None else nbytes:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
