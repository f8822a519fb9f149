"""Run one benchmark workload through the public stack and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hamlet-writes --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``:
within ``--seconds`` the loop runs in slices, set-up (``SETUPS`` of each
workload) and restart (``RESTARTS``) are repeated between them, and the
set-ups' median and the restarts' interquartile mean are reported.
``--trace 1`` runs the workload twice from the same seed —
once plain for half the seconds, then the identical call sequence again
with every layer wrapped in spans — and reports the per-layer metrics,
including ``trace.overhead_frac``.  Spans and per-layer self times are
written under ``.perfbench-out/``.

Every run checks its outputs against independent oracles; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``) and the exit code is 1 when any answer was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Runs of the reference work just before and just after each set-up and
#: restart (the loop's measurements every 0.25 s take 5).
REFERENCE_REPEATS = 15


def run_pass(
    workload_cls: Any,
    seed: int,
    size: str,
    workdir: Path,
    seconds: Optional[float] = None,
    steps: Optional[int] = None,
    restarts: int = 1,
    setups: int = 1,
    tracer: Any = None,
    registry: Any = None,
) -> Dict[str, Any]:
    """Set up, run the closed loop, restart and check one workload instance.

    The loop runs in ``restarts`` slices, and one restart follows each
    slice.  The first set-up builds the serving instance; ``setups - 1``
    more are built beside it after slices spread evenly over the run, and
    released.  So the set-up, loop and restart figures all sample the
    whole run: the host's speed drifts within a run, and a phase timed
    in one block at either end sees only part of it.  With ``seconds``
    the timed phases together (set-ups, loop and restarts; inline oracle
    checks do not count) take about that long; with ``steps`` the loop
    makes exactly that many iterations.  Garbage is collected before
    each timed phase.  Under a tracer every part of the pass is a root
    span: the timed phases trace the program's layers, the rest (input
    generation, collections, the restart source, oracles) is one opaque
    span each.
    """
    from contextlib import nullcontext

    from common import Recorder, interquartile_mean, peak_rss_mb

    def phase(name: str) -> Any:
        return tracer.phase(name) if tracer is not None else nullcontext()

    def untimed(name: str) -> Any:
        return tracer.untraced(name) if tracer is not None else nullcontext()

    def collect() -> None:
        with untimed("bench.gc"):
            gc.collect()

    def timed(name: str, func: Any, raw: List[float], scaled: List[float]) -> None:
        """Run ``func`` (returns its own timed seconds) as phase ``name``;
        record its time as measured and scaled to the reference speed
        measured just before and just after it."""
        nonlocal wall
        collect()
        # A set-up or restart is one sample, so its scale is measured
        # more finely than the loop's.
        with untimed("bench.reference"):
            before = recorder.rescale(REFERENCE_REPEATS)
        started = time.perf_counter()
        with phase(name):
            seconds_inside = func()
        wall += time.perf_counter() - started
        with untimed("bench.reference"):
            after = recorder.rescale(REFERENCE_REPEATS)
        raw.append(seconds_inside)
        # The host's speed can change while the phase runs.
        scaled.append(seconds_inside * (before + after) / 2)

    recorder = Recorder(tracer, every_cpu=workload_cls.REFERENCE_ON_EVERY_CPU)
    with untimed("bench.inputs"):
        workload = workload_cls(seed, size, recorder)
    # Timed seconds so far, inline oracle checks included.
    wall = 0.0
    count = 0
    setup_times: List[float] = []
    restart_times: List[float] = []
    setup_scaled: List[float] = []
    restart_scaled: List[float] = []
    setup_after = {index * restarts // (setups - 1) for index in range(setups - 1)} if setups > 1 else set()
    try:
        timed("bench.setup", lambda: workload.setup(workdir / "setup0"), setup_times, setup_scaled)
        with untimed("bench.prepare_restart"):
            workload.prepare_restart(workdir / "restart")
        for repeat in range(restarts):
            collect()
            started = time.perf_counter()
            with phase("bench.loop"):
                if steps is None:
                    # Leave room for this slice's restart and set-up,
                    # estimated from those made so far.
                    side = statistics.mean(restart_times or setup_times)
                    if repeat in setup_after:
                        side += statistics.median(setup_times)
                    budget = seconds * (repeat + 1) / restarts - side - (wall - recorder.oracle_s)
                    oracle_before = recorder.oracle_s
                    first = count
                    while count == first or (
                        time.perf_counter() - started - (recorder.oracle_s - oracle_before) < budget
                    ):
                        recorder.rescale_if_due()
                        workload.step()
                        count += 1
                else:
                    while count < steps * (repeat + 1) // restarts:
                        recorder.rescale_if_due()
                        workload.step()
                        count += 1
            wall += time.perf_counter() - started
            if repeat in setup_after:
                timed("bench.setup", lambda: workload.setup(workdir / f"setup{repeat + 1}"),
                      setup_times, setup_scaled)
            timed("bench.restart", workload.restart, restart_times, restart_scaled)
            if repeat + 1 < restarts:
                # The last restarted state stays for the oracles.
                with untimed("bench.release"):
                    workload.drop_restart()
        # Read before the oracles build their own copies of the state.
        peak_mb = peak_rss_mb()
        counters = registry.snapshot()["counters"] if registry is not None else {}
        recorder.attempted += restarts
        with untimed("bench.check"):
            for problem in workload.check():
                recorder.fail(problem)
    finally:
        with untimed("bench.release"):
            workload.close()
    mix = getattr(workload, "queries", None) or getattr(workload, "mix", None)
    return {
        "recorder": recorder,
        "steps": count,
        "wall_s": wall - recorder.oracle_s,
        "setup_s": statistics.median(setup_scaled),
        "restart_s": interquartile_mean(restart_scaled),
        "setup_measured_s": statistics.median(setup_times),
        "restart_measured_s": interquartile_mean(restart_times),
        "peak_rss_mb": peak_mb,
        "counters": counters,
        "repeat_share": mix.repeat_share() if hasattr(mix, "repeat_share") else 0.0,
    }


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    overall = result["recorder"].summary()
    return {
        "setup_s": result["setup_s"],
        "op_p50_ms": overall["p50_ms"],
        "op_tail_ms": overall["tail_ms"],
        "ops_per_s": overall["per_s"],
        "restart_s": result["restart_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def client_figures(recorder: Any) -> Dict[str, float]:
    """The figures that apply to some workloads only (0 where they do not),
    from the untraced pass: ``client.<figure>``."""
    figures = {f"client.{name}": value for name, value in recorder.notes.items()
               if not name.startswith("oracle_")}
    figures["client.op_p90_ms"] = recorder.summary()["p90_ms"]
    for kind, rate in (("write", "write_ops_per_s"), ("read", "reads_per_s")):
        summary = recorder.summary(kind)
        if summary["n"]:
            figures[f"client.{kind}_p50_ms"] = summary["p50_ms"]
            figures[f"client.{kind}_p90_ms"] = summary["p90_ms"]
            figures[f"client.{rate}"] = summary["per_s"]
    figures["client.failed_frac"] = recorder.failed / recorder.attempted if recorder.attempted else 0.0
    return figures


def per_layer(tracer: Any, traced: Dict[str, Any], traced_wall_ms: float, plain: Dict[str, Any],
              names: List[str]) -> Dict[str, float]:
    """The per-layer metrics of a traced pass.

    ``traced_wall_ms`` is the pass's wall time clocked around it, apart
    from the spans: the self times should sum to it, and what they miss
    is reported as ``trace.unattributed_ms``.
    """
    from tracing import INCLUSIVE_LAYERS

    self_ms = tracer.self_times_ms()
    counters = traced["counters"]
    updates = counters.get("order.inserts", 0) + counters.get("order.deletes", 0)
    emitted = counters.get("query.nodes_emitted", 0)
    derived = {
        "sc.records_per_op": counters.get("sc.records_touched", 0) / updates if updates else 0.0,
        "query.scanned_per_result": counters.get("query.nodes_scanned", 0) / emitted if emitted else 0.0,
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
        "trace.wall_ms": traced_wall_ms,
        "trace.self_sum_ms": sum(self_ms.values()),
        "trace.unattributed_ms": traced_wall_ms - sum(self_ms.values()),
        "bench.querymix.repeat_share": traced["repeat_share"],
        **client_figures(plain["recorder"]),
    }
    values: Dict[str, float] = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name.startswith("client."):
            values[name] = 0.0
        elif name.endswith(".self_ms"):
            values[name] = self_ms.get(name[: -len(".self_ms")], 0.0)
        elif name.endswith(".calls"):
            values[name] = tracer.calls.get(name, 0)
        elif name[: -len(".ms")] in INCLUSIVE_LAYERS:
            values[name] = tracer.inclusive_ms(name[: -len(".ms")])
        else:
            values[name] = counters.get(name, 0)
    return values


def report(result: Dict[str, Any]) -> None:
    """Human-readable breakdown (everything above the final JSON line)."""
    from common import REFERENCE_MS

    recorder = result["recorder"]
    for kind in [None, *sorted(recorder.samples)]:
        s = recorder.summary(kind)
        if s["n"]:
            print(f"# {kind or 'all':6s} n={s['n']:5d}  p50={s['p50_ms']:.3f} ms  p90={s['p90_ms']:.3f} ms  "
                  f"{s['per_s']:.1f}/s busy")
    raw = recorder.summary(scaled=False)
    references = recorder.references
    print(f"# as measured: p50={raw['p50_ms']:.3f} ms  tail={raw['tail_ms']:.3f} ms  {raw['per_s']:.1f}/s busy  "
          f"setup={result['setup_measured_s']:.4f} s  restart={result['restart_measured_s']:.4f} s")
    print(f"# reference work: median {statistics.median(references):.4f} ms over {len(references)} measurements, "
          f"min {min(references):.4f}, max {max(references):.4f} (scaled figures assume {REFERENCE_MS} ms)")
    for key, value in sorted(recorder.notes.items()):
        print(f"# {key} = {value:.4f}")
    print(f"# steps={result['steps']}  repeat_share={result['repeat_share']:.3f}")
    if recorder.attempted:
        print(f"# failed_frac = {recorder.failed / recorder.attempted:.6f}")
    for problem in recorder.problems:
        print(f"# PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every document for smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from repro.obs import metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        if not args.trace:
            result = run_pass(workload_cls, args.seed, args.size, workdir / "run", seconds=args.seconds,
                              restarts=workload_cls.RESTARTS, setups=workload_cls.SETUPS)
            values = end_to_end(result)
            declared = spec["end_to_end"]
            recorder = result["recorder"]
        else:
            plain = run_pass(workload_cls, args.seed, args.size, workdir / "plain", seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                with metrics.collecting() as registry:
                    metrics.disable()
                    started = time.perf_counter()
                    result = run_pass(workload_cls, args.seed, args.size, workdir / "traced",
                                      steps=plain["steps"], tracer=tracer, registry=registry)
                    traced_wall_ms = (time.perf_counter() - started) * 1000.0
            finally:
                tracer.uninstall()
            declared = spec["per_layer"]
            values = per_layer(tracer, result, traced_wall_ms, plain, [m["name"] for m in declared])
            out = ROOT / ".perfbench-out"
            stem = f"{args.workload}-seed{args.seed}"
            tracer.write(out / f"{stem}-spans.csv")
            layers = {name: round(ms, 6) for name, ms in sorted(tracer.self_times_ms().items())}
            (out / f"{stem}-layers.json").write_text(json.dumps(layers, indent=1) + "\n", encoding="utf-8")
            recorder = result["recorder"]
            recorder.attempted += plain["recorder"].attempted
            recorder.failed += plain["recorder"].failed
            recorder.problems += plain["recorder"].problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    report(result)
    metrics_out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = recorder.failed == 0
    print(json.dumps({"correct": correct, "attempted": recorder.attempted,
                      "failed": recorder.failed, "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
