"""Print what a fixed list of sbprop commands writes, one line per case.

Each case runs in a fresh process on the sources of CHECKOUT (default:
this checkout), with the configs of this checkout, one cache directory
shared by the whole list and created empty, and one BLAS thread.  A line
holds the arguments, the exit code, and the sha256 of stdout, of stderr
and of the cache files after the case.  The cache directory's path is
replaced by $CACHE in both streams, and `cache list`'s created= field, a
file time, is dropped, so two runs of one checkout print the same lines:

    python3 tools/cli_bytes.py > mine.txt
    python3 tools/cli_bytes.py OTHER_CHECKOUT > theirs.txt
    diff mine.txt theirs.txt
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("fig1", "fig2", "fig3_P200", "fig3_P400", "fig5a", "fig5b", "fig6")


def cases() -> list[list[str]]:
    def cfg(name):
        return ["--config", f"configs/{name}.cfg"]

    runs = [["evolve", *cfg(name), "--set", "t_max=1"] for name in CONFIGS]
    # deep strong coupling at P = 2000 through its start-up transient
    runs += [["evolve", *cfg("fig3_P200"), "--set", "P=2000", "--set", "t_max=0.5"]]
    # the same runs again, now served from the cache
    runs += [["evolve", *cfg(name), "--set", "t_max=1"] for name in ("fig1", "fig2", "fig6")]
    for name in ("fig1", "fig2"):
        runs += [["compare", *cfg(name)], ["compare", *cfg(name), "--normalize"]]
    runs += [["compare", *cfg("fig3_P200"), "--set", "t_max=2"], ["compare", *cfg("fig6")],
             ["spectrum", *cfg("fig3_P400"), "--levels", "40"], ["spectrum", *cfg("fig2")],
             ["gs-scan", *cfg("fig5a")], ["gs-scan", *cfg("fig5b")],
             # a short scan of a bounded model
             ["gs-scan", *cfg("fig5a"), "--p-values", "0,1"],
             # the rotating-wave model: one chain left live in the Sturm sweep
             ["spectrum", *cfg("fig1")], ["gs-scan", *cfg("fig1"), "--p-values", "0:50"],
             ["cache", "list"]]
    return runs


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cache_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = str(path.relative_to(root)).encode()
        h.update(len(name).to_bytes(8, "little") + name)
        data = path.read_bytes()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]).resolve() if argv else ROOT
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache"
        cache.mkdir()
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"), SBPROP_CACHE_DIR=str(cache),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        for args in cases():
            done = subprocess.run([sys.executable, "-m", "sbprop.cli", *args], cwd=ROOT,
                                  env=env, capture_output=True)
            out, err = (s.replace(str(cache).encode(), b"$CACHE")
                        for s in (done.stdout, done.stderr))
            if args[0] == "cache":
                out = re.sub(rb"created=\S+ ", b"", out)
            print(f"{' '.join(args)} | exit={done.returncode} stdout={digest(out)} "
                  f"stderr={digest(err)} cache={cache_digest(cache)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
