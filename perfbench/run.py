"""svcgov benchmark: decision-step latency and replay-scan cost.

    python3 perfbench/run.py --workload family-sweep --seed 0 --seconds 20 --trace 0

One process and one closed-loop caller: each run, step and scan waits for
the previous one, and no thread is started.  Set-up builds the inputs
and runs one warm-up pass over them, ``setup_repeats`` times; setup_s is
the median.  Then the workload's cases are run and scanned in passes until
``--seconds`` have elapsed.  Every pass repeats the same decision steps
and scans, so each step and each scan is timed once per pass; its latency
is the median of those times, and the percentiles are taken over steps
and scans.

On a shared host the CPU speed can drift by tens of percent over minutes,
more than any run averages out, so ``--trace 0`` times are calibrated: a fixed
reference loop is timed before and after every set-up and pass, and each
of their times is multiplied by ``NOMINAL_SLICE_S`` over the median
reference time around it.  A time then reads as it would on the host at
nominal speed; the raw times are printed beside the result.

Outputs are checked after timing: every pass must produce the same trace
documents, traces must replay, seed-0 cases and the two pack runs must
match ``reference.json``, and padded-ontology traces must match their
unpadded twins byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import workloads
import reference
import tracing
from svcgov import orchestrator
from svcgov.harness import bench


@dataclass
class Tally:
    """Operations attempted and failed; a failure prints its cause."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args):
        """``fn(*args)``, or None when it raises: a raise fails the operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the benchmark keeps going and reports the failure
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


#: Iterations of the reference loop; one slice takes about 6 ms at nominal speed.
SLICE_LOOPS = 60_000
#: Median time of one reference slice on the host at nominal speed; the
#: scale to which calibrated times refer.
NOMINAL_SLICE_S = 0.006
#: Reference slices timed at each calibration point.
SLICES_PER_POINT = 10


@dataclass
class Calibration:
    """Times of a fixed reference loop, taken at points between timed
    sections: one point before each section and one after the last.  The
    loop runs no engine code and allocates no objects that the garbage
    collector tracks, so only the host's speed moves its time."""

    points: list[list[float]] = field(default_factory=list)  # slice times per point

    def sample(self) -> None:
        slices = []
        for _ in range(SLICES_PER_POINT):
            start = time.perf_counter()
            total = 0
            for i in range(SLICE_LOOPS):
                total += i * i % 7
            slices.append(time.perf_counter() - start)
        self.points.append(slices)

    def scale(self, section: int) -> float:
        """Factor that turns a time taken in the ``section``-th timed section
        into one at nominal speed, from the points on either side of it."""
        return NOMINAL_SLICE_S / statistics.median(self.points[section] + self.points[section + 1])


@dataclass
class Pass:
    wall: float = 0.0
    steps: list[tuple[float, int]] = field(default_factory=list)  # (seconds, candidates) per decision step
    scans: dict[str, float] = field(default_factory=dict)  # label -> scan seconds
    results: dict[str, object] = field(default_factory=dict)  # label -> RunResult
    digests: dict[str, str] = field(default_factory=dict)  # label -> trace document sha256


def run_pass(inputs: workloads.Inputs, tally: Tally, clock: tracing.StepClock | None = None) -> Pass:
    """Run then scan every case.  The pass's wall time covers only that
    work, and leaves the scans out where ``inputs.scan_in_wall`` is off.
    With ``clock`` installed, the pass keeps the steps it timed."""
    out = Pass()
    if clock is not None:
        clock.samples.clear()
    untimed = 0.0
    start = time.perf_counter()
    for case in inputs.cases:
        result = tally.call(f"run {case.label}", orchestrator.run, case.scenario, case.cfg, case.store)
        if result is None:
            continue
        scan_start = time.perf_counter()
        scanned = tally.call(f"scan {case.label}", bench.scan_run, case.scenario, case.cfg_full, result.traces)
        scan_s = time.perf_counter() - scan_start
        if scanned is not None:
            out.scans[case.label] = scan_s
        if not inputs.scan_in_wall:
            untimed += scan_s
        out.results[case.label] = result
    out.wall = time.perf_counter() - start - untimed
    if clock is not None:
        out.steps = list(clock.samples)
    return out


def per_repeat_medians(passes: list[Pass]) -> tuple[list[tuple[float, int]], list[float]]:
    """Median over passes of each decision step's time, as (seconds,
    candidates), and of each case's scan time.  Passes repeat the same
    steps in the same order; a pass cut short by a failure pairs with the
    others only as far as it got."""
    steps = [(statistics.median(s for s, _ in column), column[0][1]) for column in zip(*(p.steps for p in passes))]
    scans = [
        statistics.median(p.scans[label] for p in passes if label in p.scans)
        for label in passes[0].scans
    ]
    return steps, scans


def add_digests(inputs: workloads.Inputs, p: Pass) -> Pass:
    by_label = {case.label: case for case in inputs.cases}
    for label, result in p.results.items():
        p.digests[label] = reference.case_digest(by_label[label], result)
    return p


def check_repeat(first: Pass, later: Pass, tally: Tally) -> None:
    for label, digest in first.digests.items():
        tally.check(later.digests.get(label) == digest, f"{label}: trace differs between passes")


def verify(inputs: workloads.Inputs, last: Pass, tally: Tally, sizes: workloads.Sizes) -> None:
    """Untimed output checks after the measured passes."""
    for case in inputs.cases:
        if case.label in last.results:
            tally.call(
                f"replay {case.label}",
                orchestrator.replay_deployments,
                case.scenario,
                case.cfg,
                last.results[case.label].traces,
            )
    for label, scenario, cfg in inputs.twins:
        twin = tally.call(f"unpadded twin of {label}", orchestrator.run, scenario, cfg)
        if twin is not None:
            doc = twin.document(scenario.name, cfg)
            tally.check(
                reference.document_digest(doc) == last.digests.get(label),
                f"{label}: padded trace differs from the unpadded one",
            )
    expected = reference.load()
    seen = dict(last.digests)
    if inputs.seed != reference.SEED:
        for case in workloads.build(inputs.workload, reference.SEED, sizes).cases:
            if case.label in expected:
                result = tally.call(f"run {case.label}", orchestrator.run, case.scenario, case.cfg, case.store)
                if result is not None:
                    seen[case.label] = reference.case_digest(case, result)
    seen.update(reference.pack_digests())
    for label, digest in sorted(seen.items()):
        if label in expected:
            tally.check(digest == expected[label], f"{label}: trace differs from reference.json")


def setup(workload: str, seed: int, sizes: workloads.Sizes, tally: Tally, calibration: Calibration):
    """Set up ``setup_repeats`` times: build the inputs (priming stores
    included) and run one warm-up pass over them.  Returns the last inputs
    and the set-up times."""
    times = []
    for _ in range(sizes.setup_repeats):
        calibration.sample()
        workloads.clear_caches()
        start = time.perf_counter()
        inputs = workloads.build(workload, seed, sizes)
        run_pass(inputs, tally)
        times.append(time.perf_counter() - start)
    return inputs, times


def scaled(p: Pass, factor: float) -> Pass:
    """The pass's times multiplied by ``factor``."""
    return Pass(
        wall=p.wall * factor,
        steps=[(s * factor, n) for s, n in p.steps],
        scans={label: s * factor for label, s in p.scans.items()},
    )


def end_to_end(setup_times: list[float], passes: list[Pass]) -> dict:
    steps, scans = per_repeat_medians(passes)
    decisions = sorted(s for s, n in steps if n)
    quiet = [s for s, n in steps if not n]
    samples = [sample for p in passes for sample in p.steps]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "decision_p50_ms": (statistics.median(decisions) * 1e3, "ms"),
        "decision_p90_ms": (statistics.quantiles(decisions, n=10, method="inclusive")[8] * 1e3, "ms"),
        "quiet_step_p50_ms": (statistics.median(quiet) * 1e3, "ms"),
        "candidates_per_s": (sum(n for _, n in samples) / sum(s for s, _ in samples), "1/s"),
        "scan_p50_ms": (statistics.median(scans) * 1e3, "ms"),
    }


def measure(workload: str, seed: int, seconds: float, sizes: workloads.Sizes, tally: Tally) -> dict:
    clock = tracing.StepClock()
    calibration = Calibration()
    clock.install()
    try:
        inputs, setup_times = setup(workload, seed, sizes, tally, calibration)
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            calibration.sample()
            passes.append(add_digests(inputs, run_pass(inputs, tally, clock)))
            if len(passes) > 1:
                check_repeat(passes[0], passes[-1], tally)
                passes[-2].results.clear()  # so memory does not grow with the pass count
        calibration.sample()
    finally:
        clock.uninstall()
    verify(inputs, passes[-1], tally, sizes)

    repeats = len(setup_times)
    scales = [calibration.scale(i) for i in range(repeats + len(passes))]
    raw = end_to_end(setup_times, passes)
    metrics = end_to_end(
        [t * f for t, f in zip(setup_times, scales)],
        [scaled(p, f) for p, f in zip(passes, scales[repeats:])],
    )
    decisions = sum(1 for _, n in passes[0].steps if n)
    print(f"workload {workload} seed {seed}: {len(inputs.cases)} cases, {len(passes)} passes")
    print(f"setup: median of {repeats} builds with a warm-up pass each")
    print(
        f"samples: {decisions} decision steps, {len(passes[0].steps) - decisions} quiet steps and "
        f"{len(passes[0].scans)} scans per pass, each the median of its {len(passes)} timings"
    )
    print(
        f"calibration: {len(calibration.points)} points of {SLICES_PER_POINT} reference slices, "
        f"nominal slice {NOMINAL_SLICE_S * 1e3:g} ms, scale per section {min(scales):.3f} to {max(scales):.3f}"
    )
    print("raw " + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items()))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def measure_traced(workload: str, seed: int, seconds: float, sizes: workloads.Sizes, tally: Tally) -> dict:
    tracer = tracing.Tracer()
    workloads.clear_caches()
    tracer.install()
    try:
        inputs = workloads.build(workload, seed, sizes)
    finally:
        tracer.uninstall()
    setup_stats = tracer.aggregate()
    tracer.clear()
    run_pass(inputs, tally)  # warm-up

    untraced, traced, totals = [], [], {}
    first_counts = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run_pass(inputs, tally).wall)
        tracer.install()
        try:
            last = run_pass(inputs, tally)
        finally:
            tracer.uninstall()
        traced.append(last.wall)
        stats = tracer.aggregate()
        tracer.clear()
        add_digests(inputs, last)
        counts = {name: (s["calls"], s.get("observed")) for name, s in stats.items()}
        if first_counts is None:
            first_counts, first = counts, last
        else:
            tally.check(counts == first_counts, "call counts differ between traced passes")
            check_repeat(first, last, tally)
        for name, s in stats.items():
            acc = totals.setdefault(name, dict.fromkeys(s, 0))
            for key, value in s.items():
                acc[key] = acc.get(key, 0) + value
    verify(inputs, last, tally, sizes)

    print("spans per traced pass (name, calls, total ms, self ms), by self time:")
    for name, s in sorted(totals.items(), key=lambda item: -item[1]["self"]):
        n = len(traced)
        print(f"  {name} {s['calls'] // n} {s['total'] / n * 1e3:.1f} {s['self'] / n * 1e3:.1f}")
    stores = [r.store for r in last.results.values()]
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    overhead = traced_s / untraced_s
    print(f"workload {workload} seed {seed}: {len(inputs.cases)} cases, {len(traced)} traced passes")
    print(
        f"tracing overhead: traced pass {traced_s:.3f} s - untraced pass {untraced_s:.3f} s "
        f"= {traced_s - untraced_s:.3f} s (ratio {overhead:.3f})"
    )
    return layer_metrics(totals, setup_stats, len(traced), overhead, stores)


def layer_metrics(totals: dict, setup_stats: dict, passes: int, overhead: float, stores: list) -> dict:
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "step_calls": 0, "observed": 0}

    def get(name: str, stats: dict = totals) -> dict:
        return {**empty, **stats.get(name, {})}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    candidates = get("certify.admissible")["calls"]
    steps = get("orchestrator.Orchestrator.step")["calls"]
    scan = get("harness.bench.scan_run")

    def us_per_call(name: str) -> tuple[float, str]:
        s = get(name)
        return ratio(s["total"], s["calls"]) * 1e6, "us"

    def per_candidate(name: str) -> tuple[float, str]:
        return ratio(get(name)["calls"], candidates), "count"

    def per_step(name: str) -> tuple[float, str]:
        return ratio(get(name)["step_calls"], steps), "count"

    def setup_ms(name: str) -> tuple[float, str]:
        return get(name, setup_stats)["total"] * 1e3, "ms"

    m = {
        "ontology.is_refinement.calls_per_candidate": per_candidate("ontology.is_refinement"),
        "ontology.is_refinement.total_ms": (get("ontology.is_refinement")["total"] / passes * 1e3, "ms"),
        "ontology.ancestors.calls_per_candidate": per_candidate("ontology.OntologySchema.ancestors"),
        "ontology.load_schema.ms": setup_ms("ontology.load_schema"),
        "model.semantic_lift.us_per_call": us_per_call("model.semantic_lift"),
        "model.semantic_lift.calls_per_step": per_step("model.semantic_lift"),
        "model.type_soundness.calls_per_candidate": per_candidate("model.type_soundness"),
        "model.type_soundness.us_per_call": us_per_call("model.type_soundness"),
        "model.Hypothesis.digest.calls_per_candidate": per_candidate("model.Hypothesis.digest"),
        "model.Hypothesis.digest.us_per_call": us_per_call("model.Hypothesis.digest"),
        "transform.generate_candidates.us_per_call": us_per_call("transform.generate_candidates"),
        "transform.generate_candidates.candidates_per_call": (
            ratio(get("transform.generate_candidates")["observed"], get("transform.generate_candidates")["calls"]),
            "count",
        ),
        "transform.apply.calls_per_candidate": per_candidate("transform.apply"),
        "transform.apply.us_per_call": us_per_call("transform.apply"),
        "transform.edit_distance.calls_per_candidate": per_candidate("transform.edit_distance"),
        "evaluation.evaluate.us_per_call": us_per_call("evaluation.evaluate"),
        "evaluation.core_value.calls_per_candidate": per_candidate("evaluation.core_value"),
        "evaluation.core_value.us_per_call": us_per_call("evaluation.core_value"),
        "evaluation.identity_breakdown.calls_per_candidate": per_candidate("evaluation.identity_breakdown"),
        "evaluation.identity_breakdown.us_per_call": us_per_call("evaluation.identity_breakdown"),
        "evaluation.detect_regime.us_per_call": us_per_call("evaluation.detect_regime"),
        "certificates.environment_digest.calls_per_step": per_step("certificates.environment_digest"),
        "canon.canonical_dumps.calls_per_candidate": per_candidate("canon.canonical_dumps"),
        "canon.canonical_dumps.total_ms": (get("canon.canonical_dumps")["total"] / passes * 1e3, "ms"),
        "certify.admissible.us_per_candidate": us_per_call("certify.admissible"),
        "certify.admissible.self_us_per_candidate": (
            ratio(get("certify.admissible")["self"], candidates) * 1e6,
            "us",
        ),
    }
    for certifier in ("closure", "stability", "capacity", "invariance", "substitution"):
        m[f"certify.certify_{certifier}.us_per_call"] = us_per_call(f"certify.certify_{certifier}")
    m.update(
        {
            "certify.structural_charge.calls_per_candidate": per_candidate("certify.structural_charge"),
            "certify.admit_ratio": (ratio(get("certify.admissible")["observed"], candidates), "ratio"),
            "memory.find_transportable.calls_per_candidate": per_candidate("memory.find_transportable"),
            "memory.find_transportable.us_per_call": us_per_call("memory.find_transportable"),
            "memory.transport_certificate.calls_per_candidate": per_candidate("memory.transport_certificate"),
            "memory.transport_hit_ratio": (
                ratio(get("memory.find_transportable")["observed"], get("memory.find_transportable")["calls"]),
                "ratio",
            ),
            "memory.reuse_score.us_per_call": us_per_call("memory.reuse_score"),
            "memory.match_failure.us_per_call": us_per_call("memory.match_failure"),
            "memory.record.us_per_call": us_per_call("memory.record"),
            "memory.store_records_end": (sum(len(s.records) for s in stores), "count"),
            "memory.store_certificates_end": (sum(len(s.certificates) for s in stores), "count"),
            "orchestrator.step.self_ms": (
                ratio(get("orchestrator.Orchestrator.step")["self"], steps) * 1e3,
                "ms",
            ),
            "orchestrator.registry_from_state.us_per_call": us_per_call("orchestrator.registry_from_state"),
            "bench.scan_run.self_ms": (ratio(scan["self"], scan["calls"]) * 1e3, "ms"),
            "bench.scan.admissible_calls_per_tick": (
                ratio(get("certify.admissible")["calls"] - get("certify.admissible")["step_calls"], scan["observed"]),
                "count",
            ),
            "scenario.scenario_from_data.ms": setup_ms("harness.scenario.scenario_from_data"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
    )
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes: workloads.Sizes = workloads.DEFAULT) -> int:
    args = parse_args(argv)
    tally = Tally()
    measure_fn = measure_traced if args.trace else measure
    metrics = measure_fn(args.workload, args.seed, args.seconds, sizes, tally)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    workloads.pin_hash_seed()
    sys.exit(main())
