#!/usr/bin/env python3
"""Self-test of the benchmark's own gates.

  python3 hostbench/selftest.py

Checks that a perturbed golden digest is counted as a failed check (and
the true one is not), and that results from two different host
fingerprints are refused by `run.py compare`. Exits non-zero on the
first gate that does not hold.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOAD = "engine_classes"


def result(binary, golden):
    rc, lines = run.run_one(binary, WORKLOAD, run.GOLDEN_SEED, 1, 0,
                            echo=False, golden=golden)
    if rc != 0 or not lines:
        sys.exit("selftest: benchmark exited %d" % rc)
    return json.loads(lines[-1]), lines


def main():
    binary = run.build()
    if binary is None:
        return 1
    scratch = run.build_root() / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=str(scratch)) as tmp:
        good = run.HERE / "golden.txt"
        ok, lines = result(binary, good)
        if not ok["correct"] or ok["failed"] != 0:
            sys.exit("selftest: the true golden digest fails: %s" % ok)

        # Flip the last hex digit of this workload's golden digest.
        bad = Path(tmp) / "golden.txt"
        rows = []
        for row in good.read_text().splitlines():
            name, digest = row.split()
            if name == WORKLOAD:
                digest = digest[:-1] + ("0" if digest[-1] != "0" else "1")
            rows.append("%s %s" % (name, digest))
        bad.write_text("\n".join(rows) + "\n")
        perturbed, _ = result(binary, bad)
        if perturbed["correct"] or perturbed["failed"] != 1:
            sys.exit("selftest: a perturbed golden is not one failed check: "
                     "%s" % perturbed)
        print("perturbed golden: %d/%d checks failed, correct=false"
              % (perturbed["failed"], perturbed["attempted"]))

        # Same result, two fingerprints: compare must refuse.
        fp = run.fingerprint_of(lines)
        other = dict(fp, cpu=fp["cpu"] + " (other host)")
        paths = []
        for i, f in enumerate((fp, other)):
            path = Path(tmp) / ("r%d.json" % i)
            path.write_text(json.dumps({"fingerprint": f, "workload": WORKLOAD,
                                        "seed": run.GOLDEN_SEED, "trace": 0,
                                        "result": ok}))
            paths.append(str(path))
        refused = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "compare"] + paths,
            capture_output=True, text=True)
        if refused.returncode != 3:
            sys.exit("selftest: differing fingerprints were compared")
        same = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "compare",
             paths[0], paths[0]], capture_output=True, text=True)
        if same.returncode != 0:
            sys.exit("selftest: equal fingerprints were refused")
        print("differing fingerprints refused; equal ones compared")
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
