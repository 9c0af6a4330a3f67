"""Run the benchmark over many seeds and write one results file.

Run from the repository root:

    python3 bench/collect.py --label baseline

For each workload in ``BENCHMARK.json`` this runs ``bench/run.py`` untraced
once per seed 1-10, twice over the same seeds, and traced on the first two
seeds, one run at a time.  ``bench/results/<label>.json`` gets every run's
metrics, report and noise record, and per set the median, quartiles and
spread (interquartile distance over the median) of each end-to-end metric.
It also records whether the second set's median stays within the metric's
bound of the first's, in either direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT

SEEDS = range(1, 11)
SETS = 2
TRACED_RUNS = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"{ {k: round(v['value'], 4) for k, v in list(result['metrics'].items())[:4]} }",
          flush=True)
    return {"seed": seed, "result": result, "report": report}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs if "result" in r]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                     "bound": metric["bound"], "n": len(values)}
    return out


def agreement(first: dict, second: dict) -> dict:
    out = {}
    for name, a in first.items():
        b = second.get(name)
        if b is None:
            continue
        change = (b["median"] - a["median"]) / a["median"]
        out[name] = {"second_vs_first": change, "within_bound": abs(change) <= a["bound"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    seconds = SPEC["run_seconds"]
    doc = {"label": args.label, "run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        sets = [[run_once(workload, s, 0, seconds) for s in SEEDS] for _ in range(SETS)]
        summaries = [summarize(runs) for runs in sets]
        doc["workloads"][workload] = {
            "sets": [{"summary": summary, "runs": runs} for summary, runs in zip(summaries, sets)],
            "traced": [run_once(workload, s, 1, seconds) for s in SEEDS[:TRACED_RUNS]],
            "agreement": agreement(*summaries),
        }
    machines = [r["report"].pop("machine") for w in doc["workloads"].values()
                for runs in [*(s["runs"] for s in w["sets"]), w["traced"]]
                for r in runs if "report" in r]
    doc["machine"] = machines[0] if machines else None
    path = BENCH / "results" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
