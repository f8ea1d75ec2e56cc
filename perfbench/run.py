"""The estimation engine's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload join_sample --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each workload runs in its own child interpreter (``harness.py``) with
``src/`` on its path; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see ``metrics.py``).  A wrong answer makes the
command fail with exit code 1.  Data and span files go to
``.perfbench-out/`` under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = ("join_sample", "grouped_scan", "catalog_mix")
#: Environment switches that would change what is measured: the engine
#: settings are fixed by the benchmark, and the in-program tracer stays off.
PINNED_ENV = ("REPRO_WORKERS", "REPRO_SCHEDULER", "REPRO_TRACE", "REPRO_JIT")
CHILD_TIMEOUT_S = 170


def run_child(workload: str, args, out_dir: str) -> tuple[int, dict | None, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A fixed string-hash seed, so dict and set layouts (and what they
    # cost) are the same in every run rather than drawn per process.
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "harness.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--out", out_dir,
    ]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return 124, None, f"{workload}: timed out after {exc.timeout} s\n"
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    body = "\n".join(lines[:-1] if result is not None else lines)
    return proc.returncode, result, body + ("\n" + proc.stderr if proc.stderr else "")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    out_root = os.path.abspath(".perfbench-out")
    names = NAMES if args.workload == "all" else (args.workload,)
    results: dict[str, dict] = {}
    code = 0
    for name in names:
        out_dir = os.path.join(out_root, f"{name}-{os.getpid()}")
        os.makedirs(out_dir, exist_ok=True)
        try:
            rc, result, log = run_child(name, args, out_dir)
        finally:
            # Keep span files; drop generated data.
            for entry in os.listdir(out_dir):
                path = os.path.join(out_dir, entry)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
            if not os.listdir(out_dir):
                os.rmdir(out_dir)
        sys.stdout.write(log if log.endswith("\n") else log + "\n")
        if result is None:
            print(f"perfbench: {name} produced no result (exit {rc})", file=sys.stderr)
            return rc or 1
        results[name] = result
        code = code or rc
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
