"""nevo benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload lenet1-pretrain --seed 1 \
        --seconds 20 --trace 0

Set-up runs three times in fresh processes (the median is ``setup_s``).
Then one worker process imports nevo the way the ``nevo`` console
script does and drives the workload's ``nevo.cli.cli_main`` commands as
a closed loop with one client -- the next command starts when the
previous one returns -- repeating the sequence until ``--seconds`` have
passed.  Every command is timed from outside and its outputs checked.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
perfbench/README.md for the metrics and what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUPS = 3
# every child is killed once the whole run has taken this long, so the
# benchmark ends within three minutes even if the program hangs
DEADLINE_S = 170


def end_to_end(benchmark: dict, result: dict, setup_s: float) -> dict:
    seqs = result["sequences"]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(s["wall_s"] for s in seqs),
        "items_per_s": statistics.median(s["items"] / s["stage_s"]
                                         for s in seqs),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in benchmark["end_to_end"]}


def per_layer(benchmark: dict, result: dict) -> dict:
    layers = result["layers"]
    return {m["name"]: {"value": layers[m["name"]][0], "unit": m["unit"]}
            for m in benchmark["per_layer"]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _python(args, env, deadline):
    """Run a worker role; raise with its stderr if it fails."""
    proc = subprocess.run([sys.executable, str(WORKER)] + args, env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def print_report(workload, args, env_block, result, setup_s, setup_fail):
    med = statistics.median
    seqs = result["sequences"]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"sequences={len(seqs)}"
          + (" (timings below include tracing)" if args.trace else ""))
    print("environment: " + json.dumps(env_block, sort_keys=True))
    print("determinism: " + json.dumps(result["hashes"], sort_keys=True))
    rows = [("setup_s", setup_s, "s"),
            ("wall_s", med(s["wall_s"] for s in seqs), "s"),
            ("peak_rss_mib", result["peak_rss_mib"], "MiB")]
    for key in seqs[0]["rates"]:
        unit = "evals/s" if key.startswith("de_") else "samples/s"
        rows.append((key, med(s["rates"][key] for s in seqs), unit))
    units = {"corruption_error": "fraction", "clean_error": "fraction",
             "bp_test_accuracy": "fraction"}
    for key in seqs[0]["quality"]:
        vals = [s["quality"][key] for s in seqs if key in s["quality"]]
        rows.append((key, med(vals), units.get(key, "nats")))
    attempted = result["attempted"] + setup_fail[0]
    failed = result["failed"] + setup_fail[1]
    rows.append(("op_failure_rate", failed / attempted, "ratio"))
    for name, value, unit in rows:
        print(f"  {name:<24} {value:>14.6g} {unit}")
    for reason in result["reasons"] + setup_fail[2]:
        print(f"  FAILED {reason}")
    if args.trace:
        audit = ", ".join(f"{m} {a['closed_form']}/{a['count_costs']}"
                          for m, a in result["audit"].items())
        print(f"  MAC audit (closed form / count_costs): {audit} -> "
              f"{'ok' if result['audit_ok'] else 'MISMATCH'}")
        print(f"  spans recorded: {result['spans']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "nevo" / "cli.py").is_file():
        print(f"error: no nevo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    runs_dir = ROOT / ".perfbench_runs"
    runs_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-s{args.seed}-",
                                 dir=runs_dir))
    try:
        setup_times, setup_hashes = [], []
        setup_fail = [0, 0, []]
        for i in range(SETUPS):
            fixture = work / f"fixture{i}"
            t0 = time.perf_counter()
            _python(["setup", "--workload", workload.name,
                     "--seed", str(args.seed), "--fixture", str(fixture)],
                    env, deadline)
            setup_times.append(time.perf_counter() - t0)
            doc = json.loads((fixture / "setup.json").read_text())
            setup_fail[0] += doc["attempted"]
            setup_fail[1] += doc["failed"]
            setup_fail[2] += doc["reasons"]
            setup_hashes.append(doc["hashes"])
        if any(h != setup_hashes[0] for h in setup_hashes):
            # same seed, different fixture bytes: every later set-up fails
            setup_fail[1] += SETUPS - 1
            setup_fail[2].append(f"setup: fixture hashes differ "
                                 f"{setup_hashes}")
        setup_s = statistics.median(setup_times)

        out = work / "result.json"
        _python(["measure", "--workload", workload.name,
                 "--seed", str(args.seed), "--fixture",
                 str(work / "fixture0"), "--work", str(work / "seqs"),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out", str(out), "--spans",
                 str(runs_dir / f"spans-{workload.name}.jsonl")],
                env, deadline)
        result = json.loads(out.read_text())
        probe = json.loads(_python(["probe"], env, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_block = dict(result["environment"])
    env_block.update({
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "blas_threads_numpy_imported_first": probe["blas_threads"],
    })
    print_report(workload, args, env_block, result, setup_s, setup_fail)

    attempted = result["attempted"] + setup_fail[0]
    failed = result["failed"] + setup_fail[1]
    correct = failed == 0 and result.get("audit_ok", True)
    metrics = per_layer(benchmark, result) if args.trace else \
        end_to_end(benchmark, result, setup_s)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
