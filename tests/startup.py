"""Time ``import tillst.cli`` from two source trees in fresh interpreters.

Usage: python tests/startup.py PARENT_SRC CHANGE_SRC [-n N]

Each tree argument is a directory holding the ``tillst`` package, such as
the ``src`` directory of a checkout.  Each tree's bytecode is cached under
a temporary ``PYTHONPYCACHEPREFIX`` of its own, written by one untimed
import first, so that, as for an installed tool, no timed import compiles.
Then N pairs (default 15) run for each mode, plain ``python`` and
``python -S`` (no ``site``, so none of its preloads, such as ``typing``
from a ``.pth`` file, hides what ``tillst`` itself loads).  Each pair
imports the parent's tree and the change's in one fresh interpreter each,
the side that goes first alternating from pair to pair.  For each mode the
script prints both medians in milliseconds, the change in percent, and in
how many pairs the change's import was faster.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE = ("import time\nstart = time.perf_counter()\nimport tillst.cli\n"
         "print(time.perf_counter() - start)\n")


def import_ms(src: Path, pycache: Path, flags: list) -> float:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    child = subprocess.run([sys.executable, *flags, "-c", PROBE], env=env, cwd=pycache,
                           capture_output=True, text=True, check=True)
    return 1000 * float(child.stdout.strip().splitlines()[-1])


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("-n", type=int, default=15, help="pairs per mode")
    args = parser.parse_args(argv)
    trees = (args.parent_src.resolve(), args.change_src.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        caches = (Path(tmp, "parent"), Path(tmp, "change"))
        for src, cache in zip(trees, caches):
            cache.mkdir()
            import_ms(src, cache, [])
        for label, flags in (("python", []), ("python -S", ["-S"])):
            parent, change = [], []
            for i in range(args.n):
                sides = ((0, parent), (1, change))
                for k, times in (sides if i % 2 == 0 else sides[::-1]):
                    times.append(import_ms(trees[k], caches[k], flags))
            before, after = statistics.median(parent), statistics.median(change)
            lower = sum(b < a for a, b in zip(parent, change))
            print(f"{label}: import tillst.cli {before:.1f} -> {after:.1f} ms median "
                  f"({100 * (after - before) / before:+.1f}%), "
                  f"lower in {lower} of {args.n} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
