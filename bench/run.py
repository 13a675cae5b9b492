"""uctk benchmark.

One workload, one run:

    python3 bench/run.py --workload recover --seed 1 --seconds 30 --trace 0

runs passes of the workload's fixed work for about ``--seconds``, prints a
readable summary, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with every time scaled to a nominal host speed
(hostspeed.py); with ``--trace 1`` the run spends half its time untraced and
half traced, and reports the per-layer metrics.

Every workload, untraced then traced, with one table:

    python3 bench/run.py --all [--seed N] [--seconds N]

which also rewrites BENCHMARK.json from spec.py.

Run from the root of a checkout; the program is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed
import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 5
SETUP_ROUND_SPAWNS = 3
SETUP_UNITS = 5   # host-speed units timed on each side of a round
SETUP_ARGV = ["-m", "uctk.cli", "cfl", "u3"]
SETUP_EXPECT = "status=ok command=cfl input=u3 result=u3"


class Setup:
    """Cold start: a fresh interpreter runs one CLI command to exit.  The
    first spawn compiles bytecode and is not timed.  Spawns come in rounds of
    three, spread over the run so that they meet the host in the same states
    as the passes; setup_s is the median over rounds of each round's fastest
    spawn, which over eight runs spread 7.4 % between runs against 10.4 % for
    the median of all spawns.  Each round is scaled to the nominal host speed
    by host-speed units timed just before and after it."""

    def __init__(self):
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.rounds = []
        self._spawn()

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != SETUP_EXPECT:
            raise RuntimeError(f"set-up command failed: {proc.stdout!r} {proc.stderr!r}")
        return elapsed

    def round(self) -> None:
        before = hostspeed.unit_seconds(SETUP_UNITS)
        spawns = [self._spawn() for _ in range(SETUP_ROUND_SPAWNS)]
        unit = statistics.median([before, hostspeed.unit_seconds(SETUP_UNITS)])
        self.rounds.append([t * hostspeed.UNIT_S / unit for t in spawns])

    def seconds(self) -> float:
        return statistics.median(min(r) for r in self.rounds)


def measure(workload, seconds: float, tracer=None, setup=None) -> list:
    """Passes of fixed work for about ``seconds``, at least one.  No pass
    starts that would likely end more than half a pass past the deadline.
    With ``setup``, its rounds are run between passes, one each time another
    fifth of ``seconds`` has gone, and any left over at the end."""
    passes = []
    start = time.perf_counter()
    if setup is not None:
        setup.round()
    while True:
        passes.append(workload.run_pass())
        if tracer is not None:
            tracer.collect()
        elapsed = time.perf_counter() - start
        if setup is not None and len(setup.rounds) < SETUP_ROUNDS \
                and elapsed >= len(setup.rounds) * seconds / SETUP_ROUNDS:
            setup.round()
        if elapsed * (1 + 0.5 / len(passes)) >= seconds:
            break
    while setup is not None and len(setup.rounds) < SETUP_ROUNDS:
        setup.round()
    return passes


def per_op_ms(passes, scale=True) -> list:
    """Each op's median time, in ms, over the run's passes, at the nominal
    host speed of hostspeed.py unless ``scale`` is false.  Once scaled, the
    median is the steadier choice: over eight 30 s cli-batch runs the sum of
    per-op medians spread 1.8 % between runs, the sum of per-op minima, which
    picks the luckiest ratio of op to unit, 13.7 %."""
    if len({len(p.samples_ms) for p in passes}) != 1:
        raise RuntimeError("passes of one run did different numbers of ops")
    samples = [hostspeed.scaled(p.samples_ms, p.ticks) if scale else p.samples_ms
               for p in passes]
    return [statistics.median(xs) for xs in zip(*samples)]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    setup = None if trace else Setup()
    workload = workloads.WORKLOADS[name](seed)
    untraced = measure(workload, seconds / 2 if trace else seconds, setup=setup)
    everything = list(untraced)
    info = {"workload": name, "seed": seed, "trace": int(trace),
            "inputs_digest": workload.inputs_digest,
            "suite_cases": getattr(workload, "suite_cases", {}),
            "pass_seconds": [p.seconds for p in untraced]}
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        everything += traced
        metrics = tracer.metrics(len(traced))
        for s in spec.SUITES:
            metrics[f"lemmas.{s}.cases"] = info["suite_cases"].get(s, 0)
        metrics["trace.overhead_ratio"] = (statistics.median(p.seconds for p in traced)
                                           / statistics.median(p.seconds for p in untraced))
        units = dict(spec.PER_LAYER)
        info["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    else:
        # read before the percentiles, whose sort would add to the peak
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        op_ms = per_op_ms(untraced)
        q = statistics.quantiles(op_ms, n=10)
        work_s = sum(op_ms) / 1000
        metrics = {
            "setup_s": setup.seconds(),
            "wall_s": work_s,
            "ops_per_s": len(op_ms) / work_s,
            "op_p50_ms": q[4],
            "op_p90_ms": q[8],
            "peak_rss_mb": peak_rss_mb,
        }
        units = {n: u for n, u, _, _ in spec.END_TO_END}
        info["setup_rounds"] = setup.rounds
        info["unscaled_wall_s"] = sum(per_op_ms(untraced, scale=False)) / 1000
        info["unit_ms"] = statistics.median(u for p in untraced for _, u in p.ticks) * 1000
        labels = getattr(workload, "op_labels", None)
        if labels:   # each command's share of wall_s
            share = Counter()
            for label, ms in zip(labels, op_ms):
                share[label] += ms / 1000 / work_s
            info["time_share"] = dict(share.most_common())
        info["samples"] = {"setup_spawns": SETUP_ROUNDS * SETUP_ROUND_SPAWNS,
                           "passes": len(untraced),
                           "op_samples": len(op_ms)}
    # Every pass runs the same ops, so an op is counted once: attempted if
    # it ran, failed if it failed on any pass.  Both are then fixed by the
    # inputs, not by how many passes fitted into the run.
    failures = {}
    for p in everything:
        failures.update(p.failures)
    attempted = everything[0].attempted
    failed = len(failures)
    info["failed_ratio"] = failed / attempted
    info["failures"] = Counter(failures.values())
    return {"info": info,
            "result": {"correct": not any(p.wrong for p in everything),
                       "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}}


def print_summary(out: dict) -> None:
    info, result = out["info"], out["result"]
    print(f"workload={info['workload']} seed={info['seed']} trace={info['trace']} "
          f"inputs={info['inputs_digest']} samples={json.dumps(info['samples'])}")
    print("  untraced pass seconds: " + " ".join(f"{t:.4f}" for t in info["pass_seconds"]))
    if info["suite_cases"]:
        print("  suite cases: " + " ".join(f"{k}={v}" for k, v in info["suite_cases"].items()))
    if "setup_rounds" in info:
        print("  set-up spawn seconds by round, scaled: " + " | ".join(
            " ".join(f"{t:.4f}" for t in r) for r in info["setup_rounds"]))
    if "unit_ms" in info:
        print(f"  host-speed unit: median {info['unit_ms']:.4f} ms against "
              f"{hostspeed.UNIT_S * 1000:.4f} ms nominal; wall_s unscaled "
              f"{info['unscaled_wall_s']:.6g} s")
    if "time_share" in info:
        print("  share of wall_s: " + " ".join(f"{k}={v:.3f}" for k, v in info["time_share"].items()))
    for k, m in result["metrics"].items():
        print(f"  {k:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<36} {info['failed_ratio']:>14.6g} "
          f"({result['failed']} of {result['attempted']})")
    for k, v in sorted(info["failures"].items()):
        print(f"    failed {v:>6}  {k}")
    print(f"  correct={result['correct']}")


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, each in its own process so that
    peak RSS is that workload's; then one table and BENCHMARK.json."""
    rows = {}
    ok = True
    for name, _ in spec.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            row = rows.setdefault(name, {})
            row.update({k: m["value"] for k, m in result["metrics"].items()})
            if not trace:
                row["failed_ratio"] = result["failed"] / result["attempted"]
                row.update(json.loads(lines[0].split("samples=", 1)[1]))
    names = [n for n, _ in spec.WORKLOADS]
    columns = [(n, u) for n, u, _, _ in spec.END_TO_END] \
        + [("failed_ratio", "ratio"), ("setup_spawns", "count"), ("passes", "count"),
           ("op_samples", "count")] + list(spec.PER_LAYER)
    print(f"\n{'metric':<40} {'unit':<6}" + "".join(f" {n:>14}" for n in names))
    for metric, unit in columns:
        cells = "".join(f" {rows.get(n, {}).get(metric, float('nan')):>14.6g}" for n in names)
        print(f"{metric:<40} {unit:<6}{cells}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "uctk" / "__init__.py").is_file():
        print(f"no uctk sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload or --all")
    sys.path.insert(0, str(SRC))
    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
