"""Per-candidate call counts of one environment-shift run, for comparison
with the counts recorded in ROADMAP.md (seed 1, full stack):

    python3 perfbench/crosscheck.py

Prints three views per function, each divided by the candidates the run
screened: all calls of the run, all calls of the run plus its replay scan
(``bench.scan_run``), and the calls made inside the run's ``admissible``
calls.
"""

from __future__ import annotations

import workloads  # first: puts the engine source on the path
import tracing
from svcgov import orchestrator
from svcgov.harness import baselines, bench

FAMILY, SEED = "environment-shift", 1
NAMES = (
    "model.Hypothesis.digest",
    "transform.apply",
    "model.type_soundness",
    "ontology.is_refinement",
    "certificates.environment_digest",
    "evaluation.core_value",
    "evaluation.identity_breakdown",
)


def counts() -> dict[str, tuple[float, float, float]]:
    scenario, cfg, store = bench.FAMILY_GENERATORS[FAMILY](SEED)
    cfg = baselines.configure(cfg, baselines.FULL)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = orchestrator.run(scenario, cfg, store)
        run_spans = len(tracer)
        bench.scan_run(scenario, cfg, result.traces)
    finally:
        tracer.uninstall()
    admissible = tracer.names.index("certify.admissible")
    inside = [False] * len(tracer)
    run_calls = dict.fromkeys(tracer.names, 0)
    all_calls = dict.fromkeys(tracer.names, 0)
    within = dict.fromkeys(tracer.names, 0)
    for i, (name, _, _, parent, _) in enumerate(tracer.rows()):
        if parent >= 0:
            inside[i] = inside[parent] or tracer.name[parent] == admissible
        all_calls[name] += 1
        if i < run_spans:
            run_calls[name] += 1
            within[name] += inside[i]
    n = sum(len(t.candidates) for t in result.traces)
    return {name: (run_calls.get(name, 0) / n, all_calls.get(name, 0) / n, within.get(name, 0) / n) for name in NAMES}


def main() -> None:
    print(f"{FAMILY} seed {SEED}, full stack: calls per screened candidate (run / run+scan / inside admissible)")
    for name, (run_only, with_scan, inside) in counts().items():
        print(f"  {name} {run_only:.2f} / {with_scan:.2f} / {inside:.2f}")


if __name__ == "__main__":
    workloads.pin_hash_seed()
    main()
