#!/usr/bin/env python3
"""Compare two sets of concord_bench reports against BENCHMARK.json's bounds.

  python3 perfbench/bench_diff.py --base A.json [...] --new B.json [...] [--layers]

Each file is a trajectory point written by `run.py --record` (a "runs" list)
or one full report written by `concord_bench --out`. Untraced runs are
grouped by workload; for every end-to-end metric the table shows each side's
median and quartiles and a verdict:

  REGRESSION  the new median is worse than the base median by more than the
              metric's bound (a share of the base median);
  unresolved  the base runs' own spread (quartile distance over median) is
              wider than the bound, so the comparison cannot be trusted —
              unless every new run beats every base run ("better");
  better / same  otherwise.

--layers also prints the per-layer metrics of the traced runs, without a
verdict (they have no bound). Exits 1 on any regression, any incorrect run,
or an end-to-end metric the new side no longer reports.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(paths: list[Path]) -> list[dict]:
    runs = []
    for p in paths:
        doc = json.loads(p.read_text())
        runs.extend(doc["runs"] if "runs" in doc else [doc])
    return runs


def group(runs: list[dict], traced: bool) -> dict:
    """workload -> metric -> [values] over the runs of one kind."""
    out = defaultdict(lambda: defaultdict(list))
    for r in runs:
        if bool(r.get("trace")) != traced:
            continue
        for name, m in r["metrics"].items():
            out[r["workload"]][name].append(m["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(base: list[float], new: list[float], bound: float, lower_better: bool) -> str:
    b_med, b_q1, b_q3 = summary(base)
    n_med = summary(new)[0]
    sign = 1 if lower_better else -1
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "better" if worse < -bound else "same"


def fmt(values: list[float]) -> str:
    med, q1, q3 = summary(values)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=Path, nargs="+", required=True)
    ap.add_argument("--new", type=Path, nargs="+", required=True)
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    ap.add_argument("--layers", action="store_true", help="also print per-layer metrics")
    args = ap.parse_args()

    spec = json.loads(args.benchmark.read_text())
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    failed = False
    for side, runs in (("base", base_runs), ("new", new_runs)):
        for r in runs:
            if not r.get("correct", False):
                print(f"incorrect {side} run: {r.get('workload')} seed {r.get('seed')}")
                failed = True

    base, new = group(base_runs, False), group(new_runs, False)
    print(f"{'workload':18} {'metric':28} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) | set(new)):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b:
                continue
            if not n:
                print(f"{workload:18} {name:28} missing from the new runs")
                failed = True
                continue
            b_med, n_med = summary(b)[0], summary(n)[0]
            change = (n_med - b_med) / abs(b_med) * 100 if b_med else 0.0
            v = verdict(b, n, bound, m["better"] == "lower")
            failed |= v == "REGRESSION"
            print(f"{workload:18} {name:28} {fmt(b):>34} {fmt(n):>34} "
                  f"{change:+7.2f}% {bound:6.2f}  {v}")

    if args.layers:
        base_l, new_l = group(base_runs, True), group(new_runs, True)
        print(f"\n{'workload':18} {'per-layer metric':36} {'base':>14} {'new':>14} {'change':>8}")
        for workload in sorted(set(base_l) | set(new_l)):
            for m in spec["per_layer"]:
                b, n = base_l[workload].get(m["name"]), new_l[workload].get(m["name"])
                if not b or not n:
                    continue
                b_med, n_med = summary(b)[0], summary(n)[0]
                change = f"{(n_med - b_med) / abs(b_med) * 100:+7.2f}%" if b_med else "-"
                print(f"{workload:18} {m['name']:36} {b_med:14.5g} {n_med:14.5g} {change:>8}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
