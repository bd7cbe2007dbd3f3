"""Child process of the benchmark: builds a fixture (``setup``), runs a
workload's command sequence in a closed loop (``measure``), or reports
the BLAS thread count seen when numpy is imported before nevo
(``probe``).

``setup`` and ``measure`` import ``nevo.cli`` before anything else, the
way the ``nevo`` console script does, so the package's BLAS thread pin
applies as it does for a user; this file sets no ``*_NUM_THREADS``
variable itself.  Usage (run.py starts these):

    python3 perfbench/worker.py setup   --workload W --seed N --fixture DIR
    python3 perfbench/worker.py measure --workload W --seed N --fixture DIR
                                        --work DIR --seconds S --trace 0|1
                                        --out FILE
    python3 perfbench/worker.py probe
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import platform
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, \
    redirect_stdout
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
MAX_REASONS = 20


class Op:
    """One cli_main call."""

    def __init__(self, command, seconds, stdout):
        self.command = command
        self.seconds = seconds
        self.stdout = stdout
        self.failed = False


class Ops:
    """Runs CLI commands one after another and counts failures: a
    command fails if it exits non-zero, raises, or fails a check on its
    outputs."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def run(self, argv) -> Op:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer \
            else nullcontext()
        reason = None
        t0 = time.perf_counter()
        try:
            with span, redirect_stdout(out), redirect_stderr(err):
                rc = self.cli_main(argv)
            if rc != 0:
                reason = f"exit code {rc}: {err.getvalue().strip()[-300:]}"
        except Exception as exc:  # a raising command is a failed op
            reason = f"raised {type(exc).__name__}: {exc}"
        op = Op(argv[0], time.perf_counter() - t0, out.getvalue())
        self.attempted += 1
        if reason:
            self.fail(op, reason)
        return op

    def fail(self, op, reason):
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(f"{op.command}: {reason}")
        if not op.failed:
            op.failed = True
            self.failed += 1

    def expect(self, op, ok, reason):
        if not ok:
            self.fail(op, reason)

    @contextmanager
    def checking(self, op):
        """Any error while reading an op's outputs fails that op."""
        try:
            yield
        except Exception as exc:
            self.fail(op, f"output check raised {type(exc).__name__}: {exc}")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read through
    ctypes; None when it cannot be found."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(env_before: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env_from_caller": env_before,
        "blas_env_after_import": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_threads_effective": blas_threads(),
    }


def _import_nevo():
    env_before = {v: os.environ.get(v) for v in BLAS_VARS}
    import nevo.cli
    return nevo.cli.cli_main, env_before


def cmd_setup(args):
    cli_main, _ = _import_nevo()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    ops = Ops(cli_main)
    fixture = Path(args.fixture)
    wl.setup(ops, fixture, args.seed)
    doc = {"attempted": ops.attempted, "failed": ops.failed,
           "reasons": ops.reasons,
           "hashes": {} if ops.failed else wl.fixture_hashes(fixture)}
    (fixture / "setup.json").write_text(json.dumps(doc) + "\n")


def cmd_measure(args):
    cli_main, env_before = _import_nevo()
    import resource

    from workloads import EVOLVE_THREADS, WORKLOADS

    wl = WORKLOADS[args.workload]
    fixture, work_root = Path(args.fixture), Path(args.work)
    ops = Ops(cli_main)
    reference: dict = {}

    def one_sequence(i):
        work = work_root / f"seq{i}"
        work.mkdir(parents=True)
        try:
            seq = wl.sequence(ops, fixture, work, args.seed)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for name, (digest, op) in seq.hashes.items():
            first = reference.setdefault(name, digest)
            ops.expect(op, digest == first,
                       f"{name} differs from the first sequence's")
        return seq

    def loop():
        seqs, t0 = [], time.perf_counter()
        while not seqs or time.perf_counter() - t0 < args.seconds:
            seqs.append(one_sequence(len(seqs)))
        return seqs

    result = {"environment": environment(env_before)}
    if args.trace:
        import tracing
        import zoo

        # the first sequence in a process runs cold; the reference for
        # the tracing overhead is the second, untraced
        one_sequence("warmup")
        untraced = one_sequence("ref")
        tracer = tracing.Tracer(zoo.conv_layer_index(wl.model))
        tracer.install()
        ops.tracer = tracer
        try:
            seqs = loop()
        finally:
            tracer.uninstall()
            ops.tracer = None
        overhead = statistics.median(s.wall_s for s in seqs) / \
            untraced.wall_s - 1.0
        layers = tracing.layer_metrics(tracer, len(seqs), EVOLVE_THREADS,
                                     overhead)
        layers.update(zoo.profile(args.seed))
        audit = zoo.audit()
        for model, (closed, counted) in audit.items():
            layers[f"audit.{model}.forward_macs"] = (counted, "MAC")
        result["audit"] = {m: {"closed_form": c, "count_costs": n}
                           for m, (c, n) in audit.items()}
        result["audit_ok"] = all(c == n for c, n in audit.values())
        result["layers"] = layers
        tracer.dump(args.spans)
        result["spans"] = len(tracer.spans)
    else:
        seqs = loop()

    result.update({
        "attempted": ops.attempted,
        "failed": ops.failed,
        "reasons": ops.reasons,
        "sequences": [{"wall_s": s.wall_s, "stage_s": s.stage_s,
                       "items": s.items, "rates": s.rates,
                       "quality": s.quality} for s in seqs],
        "hashes": reference,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    Path(args.out).write_text(json.dumps(result) + "\n")


def cmd_probe(args):
    import numpy  # noqa: F401  -- deliberately before nevo
    import nevo  # noqa: F401

    print(json.dumps({"blas_threads": blas_threads()}))


def main(argv=None):
    p = argparse.ArgumentParser(prog="worker.py")
    sub = p.add_subparsers(dest="role", required=True)
    s = sub.add_parser("setup")
    m = sub.add_parser("measure")
    for q in (s, m):
        q.add_argument("--workload", required=True)
        q.add_argument("--seed", type=int, required=True)
        q.add_argument("--fixture", required=True)
    m.add_argument("--work", required=True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--spans", required=True)
    sub.add_parser("probe")
    args = p.parse_args(argv)
    {"setup": cmd_setup, "measure": cmd_measure, "probe": cmd_probe}[
        args.role](args)


if __name__ == "__main__":
    main()
