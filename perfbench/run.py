#!/usr/bin/env python3
"""Build and run the SheetMusiq benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-study --seed 1 --seconds 15 --trace 0

Builds bin/sheetserved.exe and perfbench/sheetbench.exe with dune,
then runs sheetbench, whose last line of output is the JSON result.
Exits non-zero without a result when the sources are missing or do
not build, when the benchmark fails a correctness check, or when it
overruns its time limit.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

LIMIT_S = 170  # one run must end within 180 s
BUILD_LIMIT_S = 880  # a cold first build may take up to 900 s
WORKLOADS = ("serve-study", "local-study")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_revision(root):
    """The git commit when there is one, and a digest of the sources
    the benchmark builds, which also covers checkouts outside git."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin"):
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(
                os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            )
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    src = "src-" + h.hexdigest()[:16]
    return "git-%s+%s" % (sha, src) if sha else src


def run(cmd, limit):
    """Run [cmd] in its own process group, killing the whole group if
    it overruns, and wait for it to end."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s overran %d s" % (cmd[0], limit), 3)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    # a terminated run still stops the benchmark and its server
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(root, need)):
            fail("no %s here: run from the root of a SheetMusiq checkout" % need)

    server = os.path.join("_build", "default", "bin", "sheetserved.exe")
    bench = os.path.join("_build", "default", "perfbench", "sheetbench.exe")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./" + server, "./" + bench],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=BUILD_LIMIT_S,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stderr.decode(errors="replace")[-4000:])
        fail("build failed")

    # sockets left by a run that was killed
    rundir = ".perfbench"
    if os.path.isdir(rundir):
        for f in os.listdir(rundir):
            if f.endswith(".sock"):
                os.unlink(os.path.join(rundir, f))

    code = run(
        [
            bench,
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", repr(a.seconds),
            "--trace", str(a.trace),
            "--server", server,
            "--commit", source_revision(root),
        ],
        LIMIT_S,
    )
    sys.exit(code)


if __name__ == "__main__":
    main()
