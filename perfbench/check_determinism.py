#!/usr/bin/env python3
"""Self-check: the benchmark's deterministic figures repeat exactly.

    python3 perfbench/check_determinism.py

Runs the benchmark (traced, short windows) twice with SEED and once
with OTHER_SEED, and fails unless

* the same seed gives exactly equal ``text_growth_x``, ``overhead_x``,
  ``sim.instructions``, ``core.cfg.blocks``, ``verify.cosim_syncs`` and
  ``tools.qpt.counters_placed``;
* the second seed changes the order of operations and the fuzz_meta
  programs, but not the corpus or those totals;
* every run is correct.

Takes a few minutes; exits non-zero with one line per violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED, OTHER_SEED = 7, 8

# workload -> (named metrics, per-layer metrics) that must repeat exactly
EXACT = {
    "edit_corpus": (("text_growth_x",),
                    ("core.cfg.blocks", "tools.qpt.counters_placed")),
    "run_verify": (("overhead_x",),
                   ("sim.instructions", "verify.cosim_syncs")),
}


def run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (
            workload, seed, proc.returncode, proc.stderr.decode()[-2000:]))
    detail, result = [json.loads(line)
                      for line in proc.stdout.decode().splitlines()[-2:]]
    return detail, result


def figures(workload, detail, result):
    named, layers = EXACT[workload]
    values = {name: detail["named"][name]["value"] for name in named}
    values.update({name: result["metrics"][name]["value"]
                   for name in layers})
    return values


def main():
    problems = []
    seeds = (SEED, SEED, OTHER_SEED)
    for workload in ("edit_corpus", "run_verify", "fuzz_meta"):
        runs = [run(workload, seed) for seed in seeds]
        for seed, (detail, result) in zip(seeds, runs):
            if not result["correct"]:
                problems.append("%s seed %d: incorrect: %s" % (
                    workload, seed, detail["errors"][:3]))
        (first, _), (again, _), (other, _) = runs
        if first["first_round"] != again["first_round"]:
            problems.append("%s: one seed gave two operation orders"
                            % workload)
        if first["first_round"] == other["first_round"]:
            problems.append("%s: the second seed kept the operation order"
                            % workload)
        if workload == "fuzz_meta":
            if first["inputs"] == other["inputs"]:
                problems.append("fuzz_meta: the second seed kept the "
                                "generated programs")
            continue
        if first["inputs"] != other["inputs"]:
            problems.append("%s: the seed changed the corpus" % workload)
        base = figures(workload, *runs[0])
        for label, (detail, result) in (("same seed", runs[1]),
                                        ("second seed", runs[2])):
            got = figures(workload, detail, result)
            for name, value in sorted(base.items()):
                if got[name] != value:
                    problems.append("%s (%s): %s %r != %r" % (
                        workload, label, name, got[name], value))
        print("%s: %s" % (workload, json.dumps(base)))
    for problem in problems:
        print("check_determinism: FAIL: %s" % problem, file=sys.stderr)
    if not problems:
        print("check_determinism: OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
