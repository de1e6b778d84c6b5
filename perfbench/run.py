#!/usr/bin/env python3
"""Build and run the ffq benchmark.

    python3 perfbench/run.py --workload pubsub-burst --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The Go program in this directory
is built into the build directory ($CARGO_TARGET_DIR, default
.bench_build) with a Go cache kept there too, so nothing is written
outside the checkout. The program's output is passed through; its last
line is the JSON result. The exit code is the program's, or 1 when the
build fails or the run times out.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(out):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "go-cache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
    )
    return env


def revision():
    """The git commit when run from a clone, else a hash of the sources."""
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    skip = {".git", os.path.basename(build_dir())}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return None


def main():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "perfbench", "perfbench")
    code = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT_S,
               cwd=HERE, env=go_env(out), stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(out, "perfbench", f"work-{os.getpid()}")
    cmd = [binary, *sys.argv[1:], "--commit", revision(), "--work-dir", work,
           "--trace-dir", os.path.join(out, "perfbench", "traces")]
    code = run(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    shutil.rmtree(work, ignore_errors=True)
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
