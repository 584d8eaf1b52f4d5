"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The engine is imported
from ``src/`` of that checkout; without it the run exits with code 2 and
prints no result.  The workload's inputs are generated from the seed in a
separate process and cached under ``.perfbench_cache/``; the workload then
runs in a fresh process of its own, so its peak RSS is its own.  Every
process started gets the same BLAS thread count, at most the number of
usable cores.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long-docs", "many-labels", "pipeline")
DEADLINE_S = 170.0  # the whole run, inputs included
BLAS_THREADS = 2


def child_env() -> dict[str, str]:
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_child(args, deadline: float, capture: bool) -> subprocess.CompletedProcess:
    """Run ``workloads.py`` in its own process group; on the deadline the
    whole group, CLI stages included, is killed and reaped."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {' '.join(args[:3])} passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def inputs_dir(workload: str, seed: int) -> Path:
    """Cache directory of one workload's inputs, keyed by the generator code."""
    sources = b"".join((ROOT / "src" / "xmtc" / f).read_bytes()
                       for f in ("synth.py", "corpus.py", "cli.py"))
    key = hashlib.sha256(sources + (HERE / "workloads.py").read_bytes()).hexdigest()[:12]
    return ROOT / ".perfbench_cache" / f"{workload}-s{seed}-{key}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "xmtc" / "__init__.py").is_file():
        print(f"perfbench: no engine at {ROOT / 'src' / 'xmtc'}; run from a checkout",
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    inputs = inputs_dir(args.workload, args.seed)
    if not inputs.is_dir():
        tmp = inputs.with_name(f"{inputs.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        if run_child(["prepare", *common, "--inputs", str(tmp)], deadline, False).returncode:
            shutil.rmtree(tmp, ignore_errors=True)
            print("perfbench: generating the inputs failed", file=sys.stderr)
            return 1
        os.replace(tmp, inputs)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    done = run_child(["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--inputs", str(inputs), "--out", str(out)], deadline, True)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode or not lines:
        print(f"perfbench: the workload exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
