#!/usr/bin/env python3
"""Builds and runs the host-time benchmark (see README.md).

  python3 hostbench/run.py --workload W --seed N --seconds T --trace 0|1
      Builds hostbench from this checkout's src/ (first run only), runs
      one workload, and relays its output; the last stdout line is the
      JSON result. --out FILE also saves it with the host fingerprint.

  python3 hostbench/run.py --all [--seconds T]
      Every workload on the golden seed and on the held-out seed,
      untraced; prints each end-to-end metric and failed_ratio.

  python3 hostbench/run.py compare A.json B.json
      Compares two --out files; refuses when their fingerprints differ.

Everything it writes stays under .bench_build/ in the checkout root (or
$CARGO_TARGET_DIR when set).
"""

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper_sweep", "algorithm_suite", "engine_classes",
             "observed_sweep"]
GOLDEN_SEED = 1995
HELD_OUT_SEED = 271828
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build():
    """Configures (once) and builds; returns the binary or None."""
    bdir = build_root() / "hostbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("hostbench: build failed: %s\n" % " ".join(cmd))
            return None
    return bdir / "hostbench"


def fixed_layout():
    """Child pre-exec: disable address-space randomisation for the
    benchmark process. Run-to-run spread on a 4-vCPU VM fell from ~10% to
    ~3% with it; runs still differ by seed and host noise."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(ADDR_NO_RANDOMIZE | libc.personality(0xFFFFFFFF))
    except (OSError, AttributeError):
        pass


def run_one(binary, workload, seed, seconds, trace, echo=True,
            golden=HERE / "golden.txt"):
    """Runs one workload; returns (exit code, stdout lines)."""
    scratch = build_root() / "runs"
    scratch.mkdir(parents=True, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=workload + "-", dir=str(scratch))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir, "--golden", str(golden)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("hostbench: %s timed out\n" % workload)
        return 1, []
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if echo:
        sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout.splitlines()


def fingerprint_of(lines):
    for line in lines:
        if line.startswith("fingerprint "):
            return json.loads(line[len("fingerprint "):])
    return None


def compare(a_path, b_path):
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    if a["fingerprint"] != b["fingerprint"]:
        print("refusing to compare: fingerprints differ\n  %s\n  %s"
              % (json.dumps(a["fingerprint"]), json.dumps(b["fingerprint"])))
        return 3
    if a["workload"] != b["workload"]:
        print("refusing to compare: workloads differ")
        return 3
    for name, m in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            continue
        base = m["value"]
        change = (other["value"] / base - 1.0) if base else float("nan")
        print("%-34s %14.6g -> %14.6g %-6s %+.2f%%"
              % (name, base, other["value"], m["unit"], 100.0 * change))
    return 0


def run_all(binary, seconds):
    worst = 0
    for seed in (GOLDEN_SEED, HELD_OUT_SEED):
        for wl in WORKLOADS:
            rc, lines = run_one(binary, wl, seed, seconds, 0, echo=False)
            if rc != 0 or not lines:
                print("%s seed=%d: exit %d" % (wl, seed, rc))
                worst = 1
                continue
            result = json.loads(lines[-1])
            print("%s seed=%d failed_ratio=%d/%d"
                  % (wl, seed, result["failed"], result["attempted"]))
            for line in lines:
                if line.startswith(("digest ", "FAILED: ", "model_rms")):
                    print("  " + line)
            for name, m in result["metrics"].items():
                print("  %-20s %.6g %s" % (name, m["value"], m["unit"]))
            if not result["correct"]:
                worst = 1
    return worst


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(sys.argv[2], sys.argv[3])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="save the result with its fingerprint")
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("need --workload or --all")
    binary = build()
    if binary is None:
        return 1
    if args.all:
        return run_all(binary, args.seconds)
    rc, lines = run_one(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    if rc == 0 and args.out:
        Path(args.out).write_text(json.dumps({
            "fingerprint": fingerprint_of(lines),
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "result": json.loads(lines[-1])}, indent=1))
    return rc


if __name__ == "__main__":
    sys.exit(main())
