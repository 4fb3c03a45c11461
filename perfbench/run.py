#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload pv-sim --seed 1 --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt (the fvn libraries from src/ plus the
benchmark program) into .bench_build/ at the repository root, or into
$CARGO_TARGET_DIR when that is set, builds it in Release mode, then runs
fvn_perfbench with the same arguments. Its last line of standard
output is the JSON result; build output goes to standard error. --tiny runs
small inputs (the benchmark's own tests use it). See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    configured = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return configured if configured.is_absolute() else ROOT / configured


def build(out: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no fvn sources at {ROOT / 'src'}")
    jobs = str(max(1, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True, stdout=sys.stderr)
    return out / "fvn_perfbench"


def source_id() -> str:
    """A digest of the measured sources (src/ and perfbench/), prefixed with
    the git commit when the tree is a checkout. The digest is always there,
    so a run of uncommitted changes is told apart from a run of HEAD."""
    digest = hashlib.sha1()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    stamp = "tree:" + digest.hexdigest()
    try:
        top, head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                                   capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            return "git:" + head + "+" + stamp
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    return stamp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--commit", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
