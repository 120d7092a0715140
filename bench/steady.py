"""Steadiness check: sets of runs of the same code, reported against the bounds.

    python3 bench/steady.py                       # 2 sets x 10 seeds x 4 workloads
    python3 bench/steady.py --sets 1 --runs 5 --workloads indices

Each set runs ``bench/run.py`` once per (seed, workload), seeds 1..runs in
set 1, runs+1..2*runs in set 2, and so on; workloads alternate within a
seed so that every workload sees the same drift of the host.  For every
end-to-end metric it prints each set's median, quartiles and spread
(interquartile range over median) against the metric's bound from
``BENCHMARK.json``, and whether the later sets' medians stay within the
bound of the first set's, in either direction.  Results go to
``.bench_out/steady-<time>.json``.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # the unscaled wall-time medians and the calibration, from standard error
    out["wall"] = {k: float(v) for k, v in re.findall(r"(\w+_s|calibration) ([\d.]+)",
                                                      proc.stderr.split("wall-time medians")[-1])}
    return out


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for s in range(args.sets):
        for r in range(args.runs):
            seed = s * args.runs + r + 1
            for w in args.workloads:
                start = time.perf_counter()
                out = run_once(w, seed, spec["run_seconds"])
                results[w][s].append(out)
                print(f"set {s + 1} seed {seed} {w}: {time.perf_counter() - start:.1f}s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
                      + f" failed={out['failed']}/{out['attempted']}",
                      file=sys.stderr, flush=True)

    ok = True
    report = {}
    for w in args.workloads:
        print(f"\n{w}")
        report[w] = {}
        shares = [sum(o["failed"] for o in runs) / sum(o["attempted"] for o in runs)
                  for runs in results[w]]
        if any(out["failed"] or not out["correct"] for runs in results[w] for out in runs):
            ok = False
        print(f"  failed share per set: {shares}")
        for metric, bound in bounds.items():
            sets = [summarize([o["metrics"][metric]["value"] for o in runs])
                    for runs in results[w]]
            report[w][metric] = sets
            first = sets[0]["median"]
            line = []
            for i, st in enumerate(sets):
                drift = st["median"] / first - 1
                spread_ok = st["spread"] <= bound
                drift_ok = abs(drift) <= bound
                ok &= spread_ok and drift_ok
                line.append(f"set{i + 1} median {st['median']:.4f} "
                            f"[{st['q1']:.4f}, {st['q3']:.4f}] spread {st['spread']:.3f}"
                            f"{'' if spread_ok else ' OVER'}"
                            f"{' (over a third of the bound)' if st['spread'] > bound / 3 else ''}"
                            f" drift {drift:+.3f}{'' if drift_ok else ' OVER'}")
            print(f"  {metric:<13} bound {bound:.2f}: " + "; ".join(line))
        for metric in ("pass_s", "cli_s", "setup_s", "calibration"):
            sets = [summarize([o["wall"][metric] for o in runs]) for runs in results[w]]
            print(f"  unscaled {metric:<11}: " + "; ".join(
                f"set{i + 1} median {st['median']:.4f} spread {st['spread']:.3f}"
                for i, st in enumerate(sets)))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"args": vars(args), "report": report,
                                "runs": results}, indent=1))
    print(f"\n{'all within bounds' if ok else 'OUT OF BOUNDS'}; runs in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
