"""Run every workload untraced and traced, and print all of it.

    python3 perfbench/report.py [--seed 0] [--seconds 20] [--json FILE]

For each workload this runs ``run.py`` twice in fresh processes, once with
``--trace 0`` (the end-to-end metrics and failed_ops) and once with
``--trace 1`` (the per-module self-time table and the per-layer metrics),
and passes their output through. It then checks that the exact simulated
counters of the traced run equal those of the untraced run, and with
``--json`` writes every metric of every workload to FILE.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.splitlines()
    human = "\n".join(lines[:-1])
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run.py %s --trace %d exited %d"
                         % (workload, trace, proc.returncode))
    return human, json.loads(lines[-1])


def _fingerprint_line(human):
    for line in human.splitlines():
        if "model fingerprint" in line:
            return line.split(":", 1)[1].strip()
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--json", metavar="FILE",
                        help="also write every metric here")
    args = parser.parse_args(argv)

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        plain_text, plain = run_one(workload, args.seed, args.seconds, 0)
        traced_text, traced = run_one(workload, args.seed, args.seconds, 1)
        print(plain_text)
        print(traced_text)
        same = _fingerprint_line(plain_text) == _fingerprint_line(traced_text)
        print("  traced and untraced simulated counters %s"
              % ("are identical" if same else "DIFFER"))
        print()
        ok = ok and same and plain["correct"] and traced["correct"]
        record["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"] and same,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "fingerprint": _fingerprint_line(plain_text),
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    print("all workloads correct" if ok else "SOME WORKLOAD FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
