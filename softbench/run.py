"""Build the benchmark from the checkout's sources and make one measured run.

    python3 softbench/run.py --workload po-matrix --seed 1 --seconds 30 --trace 0

Workloads: po-matrix, flowmod-deep, patch-rerun (see main.ml).  The last
line of standard output is the run's result: one JSON object with the keys
correct, attempted, failed and metrics.  The full record (environment,
per-op gates, metric directions) and a traced run's spans are written to
.softbench/ in the checkout.

expected.json records, per workload, digests for the default seed (1) of
the crosscheck report and of its pair and inconsistency counts ("any": for
every seed, on workloads whose frontiers are explored to exhaustion).  The
report digest is left out where concurrent Phase-1 runs make the report
bytes differ from process to process.

--smoke caps every agent at a few Phase-1 paths and keeps only the replay
and self-consistency gates; the smoke test (test_smoke.py) uses it.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = os.path.basename(HERE)
EXE = os.path.join(ROOT, "_build", "default", NAME, "main.exe")
OUT = os.path.join(ROOT, ".softbench")
# a run measures for --seconds; this bounds its set-up and last op
GRACE_S = 120


def die(msg):
    print(f"{NAME}: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of the sources the benchmark builds, since the checkout need
    not be a git repository."""
    h = hashlib.sha256()
    files = ["dune-project"]
    for top in ("lib", NAME):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in sorted(names)]
    for f in files:
        h.update(f.encode() + b"\0")
        with open(os.path.join(ROOT, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die(f"{ROOT} holds no dune-project and lib/: not a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    # the release profile does not turn warnings into errors
    r = subprocess.run([dune, "build", "--root", ROOT, "--profile", "release", f"./{NAME}/main.exe"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def expectations(workload, seed):
    with open(os.path.join(HERE, "expected.json")) as f:
        exp = json.load(f).get(workload, {})
    args = []
    digest = exp.get("digests", {}).get(str(seed))
    if digest:
        args += ["--expect-digest", digest]
    verdicts = exp.get("verdicts", {})
    verdict = verdicts.get(str(seed), verdicts.get("any"))
    if verdict:
        args += ["--expect-verdict", verdict]
    return args


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--commit", commit(), "--source-digest", source_digest(),
           "--out", OUT]
    if a.smoke:
        cmd.append("--smoke")
    cmd += expectations(a.workload, a.seed)
    proc = subprocess.Popen(cmd, cwd=ROOT)
    rc = None
    try:
        rc = proc.wait(timeout=a.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc is None:
        die("run overran its time limit")
    sys.exit(rc)


if __name__ == "__main__":
    main()
