"""Compare two sets of benchmark runs, metric by metric and workload by
workload::

    python3 benchmarks/e2e/compare.py --base A1.json A2.json ... \
        --new B1.json B2.json ...

Each file is a ``run.py --out`` result.  Give the runs in the order
they were made, alternating sides, so that ``base[i]`` and ``new[i]``
form a pair.  For every workload and end-to-end metric it prints each
side's median and quartiles, the share of pairs the new side wins
(ties count for neither) and one verdict:

``better``
    at least ten pairs, the new side wins at least nine tenths of
    them, and the medians differ by more than the distance between
    the base runs' quartiles;
``worse``
    the new median is worse than the base median by more than the
    metric's bound;
``unresolved``
    either side's quartile spread is wider than the bound, and not
    every new run is better than every base run;
``unchanged``
    otherwise.

Bounds come from ``BENCHMARK.json``.  The metrics the benchmark reports
for some workloads only (``EXTRA_BOUNDS``) use the defaults below.  The
exit code is 1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")

#: name -> (better, bound, bound is absolute rather than relative)
EXTRA_BOUNDS = {
    "klines_per_s": ("higher", 0.10, False),
    "latency_p90_ms": ("lower", 0.10, False),
    "control_p90_ms": ("lower", 0.10, False),
    "within_limit_ratio": ("higher", 0.02, True),
    "fail_ratio": ("lower", 0.0, True),
    **{f"latency_p50_ms.{kind}": ("lower", 0.10, False)
       for kind in ("replay", "edit", "new", "large")},
}
MIN_PAIRS_FOR_GAIN = 10


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: List[float], new: List[float], better: str, bound: float,
            absolute: bool) -> Tuple[str, Optional[float]]:
    """The verdict and the new side's share of won pairs."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)

    def scaled(delta: float, reference: float) -> float:
        return delta if absolute else delta / abs(reference) if reference \
            else (0.0 if delta == 0 else float("inf"))

    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    share = wins / len(pairs) if pairs else None
    gain = sign * (nmed - bmed)
    if len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs) \
            and gain > b3 - b1:
        return "better", share
    if scaled(-gain, bmed) > bound:
        return "worse", share
    spread = max(scaled(b3 - b1, bmed), scaled(n3 - n1, nmed))
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def load(paths: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, in file order."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for workload, result in json.load(handle)["workloads"].items():
                for name, entry in result.get("metrics", {}).items():
                    if entry.get("value") is not None:
                        out.setdefault(workload, {}).setdefault(
                            name, []).append(entry["value"])
    return out


def bounds() -> Dict[str, Tuple[str, float, bool]]:
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    table = {m["name"]: (m["better"], m["bound"], False)
             for m in spec["end_to_end"]}
    table.update(EXTRA_BOUNDS)
    return table


def compare(base_paths: List[str], new_paths: List[str]) -> List[dict]:
    base, new = load(base_paths), load(new_paths)
    rows = []
    for workload in base:
        for name, (better, bound, absolute) in bounds().items():
            b = base[workload].get(name)
            n = new.get(workload, {}).get(name)
            if not b or not n:
                continue
            result, share = verdict(b, n, better, bound, absolute)
            rows.append({"workload": workload, "metric": name,
                         "base": quartiles(b), "new": quartiles(n),
                         "wins": share, "pairs": min(len(b), len(n)),
                         "bound": bound, "absolute": absolute,
                         "verdict": result})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of run.py --out results.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    rows = compare(args.base, args.new)
    print(f"{'workload':<13} {'metric':<19} {'base q1/median/q3':>26} "
          f"{'new q1/median/q3':>26} {'wins':>5} {'bound':>6}  verdict")
    for row in rows:
        sides = ["/".join(f"{v:.4g}" for v in row[s]) for s in ("base", "new")]
        wins = "-" if row["wins"] is None else f"{row['wins']:.0%}"
        bound = f"{row['bound']:g}" if row["absolute"] \
            else f"{row['bound']:.0%}"
        print(f"{row['workload']:<13} {row['metric']:<19} {sides[0]:>26} "
              f"{sides[1]:>26} {wins:>5} {bound:>6}  {row['verdict']}")
    pairs = min((r["pairs"] for r in rows), default=0)
    if pairs < MIN_PAIRS_FOR_GAIN:
        print(f"({pairs} pairs: a gain needs at least {MIN_PAIRS_FOR_GAIN})")
    return 1 if any(r["verdict"] in ("worse", "unresolved")
                    for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
