"""Benchmark for the gcipw library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` tree.  The workloads are in workloads.py and are described, with
every metric, in bench/README.md.

--trace 0 runs whole blocks of ops until S seconds of op time have passed
and reports the end-to-end metrics.  --trace 1 runs a fixed prefix of
blocks untraced, then as many further blocks with a span around every
library call, and reports the per-layer metrics; the spans are written to
.bench_trace/ when the run ends.  Either way every op is checked against
its oracle, a digest of the exact outputs of the prefix is printed, and
the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SpanStats, Tracer, span_cost_s, span_stats  # noqa: E402
from workloads import LAYERS, SPAN_NAMES, WORKLOADS, CheckFailed, Workload  # noqa: E402

MODULES = ("fourpoint", "freefield", "kinematics", "partialwave", "symmetrize", "thermal")
SETUP_REPEATS = 3

# The shared machines this runs on switch between CPU speed states about
# 1.8x apart, every few seconds, which no amount of work per run averages
# out.  So every reported time is scaled by a speed probe: a fixed
# pure-Python rational kernel, timed at both ends of the measured interval
# and, from a timer signal, every SAMPLE_EVERY_S within it.  A scaled time
# is in reference seconds, the time the interval takes on a machine where
# the probe takes REFERENCE_S.  The probe runs no gcipw code, so no library
# change moves it, and its time inside an interval is not counted.
REFERENCE_S = 0.0025
PROBE_TERMS = 1000
SAMPLE_EVERY_S = 0.1


def probe_once() -> float:
    """Time of the probe kernel, with the cyclic garbage collector off so
    that a collection of the op's objects cannot land in it."""
    gc.disable()
    try:
        t0 = perf_counter()
        total = Fraction(0)
        for i in range(1, PROBE_TERMS):
            total += Fraction(1, i % 97 + 1)
        return perf_counter() - t0
    finally:
        gc.enable()


def probe_s() -> float:
    return statistics.median(probe_once() for _ in range(5))


@dataclass
class Interval:
    raw_seconds: float = 0.0  # wall time less the probes sampled inside it
    scale: float = 1.0  # reference seconds per second


class ScaledClock:
    def __init__(self):
        self.last = probe_s()
        self.probing_s = 0.0  # time spent in probes sampled inside intervals

    def now(self) -> float:
        """A clock that stands still while a sampled probe runs."""
        return perf_counter() - self.probing_s

    def _sample(self, samples: List[float]) -> None:
        t0 = perf_counter()
        samples.append(probe_once())
        self.probing_s += perf_counter() - t0

    @contextmanager
    def interval(self):
        """Time the body; its speed is the mean of the probe at its start,
        the probes sampled within it and the probe at its end."""
        samples = [self.last]
        result = Interval()
        previous = signal.signal(signal.SIGALRM, lambda *_: self._sample(samples))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = self.now()
        try:
            yield result
        finally:
            result.raw_seconds = self.now() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.last = probe_s()
            samples.append(self.last)
            result.scale = REFERENCE_S / statistics.mean(samples)


def import_library(src: Path) -> SimpleNamespace:
    """Import the gcipw modules afresh from `src`, dropping earlier imports."""
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "gcipw" or m.startswith("gcipw.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"gcipw.{m}") for m in MODULES})


def seeded_rng(workload: Workload, seed: int) -> random.Random:
    return random.Random(f"gcipw-bench/{workload.name}/{seed}")


@dataclass
class Setup:
    lib: SimpleNamespace
    blocks: List[list]
    refs: dict
    seconds: float  # reference seconds


def set_up(workload: Workload, seed: int, src: Path, clock: ScaledClock) -> Setup:
    """Import the library, draw the inputs and build the reference objects,
    SETUP_REPEATS times; the median repeat is the set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        with clock.interval() as t:
            lib = import_library(src)
            blocks = workload.generate(seeded_rng(workload, seed), lib)
            refs = workload.references(lib)
        times.append(t.raw_seconds * t.scale)
    return Setup(lib, blocks, refs, statistics.median(times))


@dataclass
class OpRecord:
    op: int  # the op id its spans carry
    raw_seconds: float
    scale: float
    error: Optional[str]  # None when the op passed its check
    expected: bool  # the failure is the documented known defect
    lines: List[str]  # the exact outputs, for the digest
    counts: Dict[str, int]

    @property
    def seconds(self) -> float:
        return self.raw_seconds * self.scale


def run_op(workload: Workload, setup: Setup, inp, tracer: Tracer, clock: ScaledClock) -> OpRecord:
    out: dict = {}
    error: Optional[Exception] = None
    with clock.interval() as t:
        try:
            workload.op(setup.lib, setup.refs, inp, tracer.call, out)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            error = exc
    expected = error is not None and workload.expected_failure(inp, error, setup.lib)
    if error is None:
        try:
            workload.check(setup.refs, inp, out)
        except CheckFailed as exc:
            error = exc
        except Exception as exc:  # malformed output: report it as a failed check
            traceback.print_exc(file=sys.stderr)
            error = exc
    elif not expected:
        traceback.print_exception(error, file=sys.stderr)
    lines = list(workload.exact_outputs(inp, out))
    if error is not None:
        lines.append(f"FAIL {type(error).__name__}: {error}")
    message = None if error is None else f"{type(error).__name__}: {error}"
    return OpRecord(
        tracer.op, t.raw_seconds, t.scale, message, expected, lines, workload.counts(inp, out)
    )


def run_blocks(
    workload: Workload,
    setup: Setup,
    blocks: List[list],
    tracer: Tracer,
    clock: ScaledClock,
    seconds: float = math.inf,
    min_blocks: int = 0,
) -> List[List[OpRecord]]:
    """Run whole blocks until `seconds` of (unscaled) op time have passed and
    at least `min_blocks` blocks have run, or the blocks run out."""
    done: List[List[OpRecord]] = []
    timed = 0.0
    for block in blocks:
        if len(done) >= min_blocks and timed >= seconds:
            break
        records = []
        for inp in block:
            tracer.op += 1
            records.append(run_op(workload, setup, inp, tracer, clock))
        done.append(records)
        timed += sum(rec.raw_seconds for rec in records)
    return done


def flat(blocks: List[List[OpRecord]]) -> List[OpRecord]:
    return [rec for block in blocks for rec in block]


def prefix_blocks(workload: Workload, seconds: float) -> int:
    """Blocks in the fixed prefix: about half the run at the seed."""
    return max(1, min(workload.max_blocks // 2, int(seconds / (2 * workload.nominal_block_s))))


def digest(records: List[OpRecord]) -> str:
    h = hashlib.sha256()
    for i, rec in enumerate(records):
        for line in rec.lines:
            h.update(f"{i} {line}\n".encode())
    return h.hexdigest()


def ok_count(records: List[OpRecord]) -> int:
    return sum(rec.error is None for rec in records)


def block_rate(block: List[OpRecord]) -> float:
    return ok_count(block) / sum(rec.seconds for rec in block)


def ops_per_s(blocks: List[List[OpRecord]]) -> float:
    """Median over blocks of the passing ops per second of op time; every
    block has the same mix, and the median rides out bursts of load."""
    return statistics.median(block_rate(b) for b in blocks)


def end_to_end(setup: Setup, blocks: List[List[OpRecord]]) -> Dict[str, tuple]:
    records = flat(blocks)
    return {
        "setup_s": (setup.seconds, "s"),
        "ops_per_s": (ops_per_s(blocks), "1/s"),
        "op_p50_s": (statistics.median(rec.seconds for rec in records), "s"),
        "ops_ok_frac": (ok_count(records) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_spec() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.busy_s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    spec += [
        ("symmetrize.symmetrized_wt.self_s", "s", "lower"),
        ("partialwave.solve_structure_constants.failed", "count", "lower"),
        ("partialwave.f_coeffs", "count", "lower"),
        ("partialwave.f_coeffs_useful_frac", "ratio", "higher"),
        ("freefield.cycle_trace_numerator_symbolic.terms", "count", "lower"),
    ]
    spec += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    spec += [
        ("trace.ops", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.top_span_coverage", "ratio", "higher"),
        ("trace.ops_per_s_untraced", "1/s", "higher"),
        ("trace.ops_per_s_traced", "1/s", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.span_cost_frac", "ratio", "lower"),
    ]
    return spec


def per_layer(
    tracer: Tracer, untraced: List[List[OpRecord]], traced_blocks: List[List[OpRecord]]
) -> Dict[str, float]:
    traced = flat(traced_blocks)
    scales = {rec.op: rec.scale for rec in traced}
    stats = span_stats(tracer.spans, scales)
    unlisted = set(stats) - set(SPAN_NAMES)
    if unlisted:
        raise RuntimeError(f"spans missing from SPAN_NAMES: {sorted(unlisted)}")
    stats = {name: stats.get(name, SpanStats()) for name in SPAN_NAMES}
    values: Dict[str, float] = {}
    for name, st in stats.items():
        values[f"{name}.busy_s"] = st.busy_s
        values[f"{name}.calls"] = st.calls
    values["symmetrize.symmetrized_wt.self_s"] = stats["symmetrize.symmetrized_wt"].self_s
    values["partialwave.solve_structure_constants.failed"] = stats[
        "partialwave.solve_structure_constants"
    ].failed
    total = lambda key: sum(rec.counts.get(key, 0) for rec in traced)
    values["partialwave.f_coeffs"] = total("f_coeffs")
    values["partialwave.f_coeffs_useful_frac"] = (
        total("f_coeffs_useful") / total("f_coeffs") if total("f_coeffs") else 0.0
    )
    values["freefield.cycle_trace_numerator_symbolic.terms"] = total("trace_terms")
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            st.self_s for name, st in stats.items() if name.startswith(layer + ".")
        )
    top_s = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    raw_op_s = sum(rec.raw_seconds for rec in traced)
    untraced_rate, traced_rate = ops_per_s(untraced), ops_per_s(traced_blocks)
    values["trace.ops"] = len(traced)
    values["trace.spans"] = len(tracer.spans)
    values["trace.top_span_coverage"] = top_s / raw_op_s
    values["trace.ops_per_s_untraced"] = untraced_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_frac"] = 1 - traced_rate / untraced_rate if untraced_rate else 0.0
    values["trace.span_cost_frac"] = len(tracer.spans) * span_cost_s() / raw_op_s
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gcipw" / "__init__.py").is_file():
        print(f"no gcipw source tree at {src}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    clock = ScaledClock()
    setup = set_up(workload, args.seed, src, clock)
    k = prefix_blocks(workload, args.seconds)
    if args.trace:
        prefix = run_blocks(workload, setup, setup.blocks[:k], Tracer(False), clock)
        tracer = Tracer(True, clock.now)
        traced = run_blocks(workload, setup, setup.blocks[k : 2 * k], tracer, clock)
        tracer.write(ROOT / ".bench_trace" / f"{workload.name}-seed{args.seed}.jsonl")
        values = per_layer(tracer, prefix, traced)
        metrics = {name: (values[name], unit) for name, unit, _ in per_layer_spec()}
        blocks = prefix + traced
    else:
        blocks = run_blocks(
            workload, setup, setup.blocks, Tracer(False), clock, args.seconds, min_blocks=k
        )
        metrics = end_to_end(setup, blocks)
    records = flat(blocks)
    prefix = flat(blocks[:k])
    failed = [rec for rec in records if rec.error is not None]
    unexpected = [rec for rec in failed if not rec.expected]
    print(
        f"workload={workload.name} seed={args.seed} trace={args.trace} ops={len(records)} "
        f"failed={len(failed)} (known defect: {len(failed) - len(unexpected)}) "
        f"op_time_s={sum(rec.raw_seconds for rec in records):.3f} unscaled, "
        f"median speed scale {statistics.median(rec.scale for rec in records):.3f}"
    )
    print("ops/s by block: " + " ".join(f"{block_rate(b):.4g}" for b in blocks))
    for rec in unexpected[:5]:
        print(f"unexpected failure: {rec.error}")
    print(f"digest {workload.name} seed={args.seed} ops={len(prefix)} sha256={digest(prefix)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
