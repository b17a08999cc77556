"""One measuring process of the benchmark.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS WORKDIR TRACE PROBES

``perfbench/run.py`` writes the workload's files to WORKDIR and starts
workers one after another.  A worker generates the same workload from SEED,
runs the probes if PROBES is 1, measures for SECONDS (traced if TRACE is
1), and prints one JSON object: the outcome of every operation it ran and
its raw timings.  It exits 1, printing no result, when an operation's
output cannot be compared with its known answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from execute import Incomparable, Untraced, Verdicts, run_passes, run_probes  # noqa: E402


def main(argv: list) -> int:
    name, seed, seconds, workdir, trace, probes = argv
    workdir = Path(workdir)
    workload = workloads.generate(name, int(seed), SRC / "tillst" / "corpus")
    verdicts = Verdicts(workload.ops)
    try:
        if trace == "1":
            import traced

            result = traced.measure(workload, workdir, float(seconds), verdicts, probes == "1")
        else:
            plain = Untraced(workdir)
            if probes == "1":
                run_probes(workload, plain, verdicts)
            passes, peak_kib = run_passes(workload, plain, float(seconds), verdicts)
            result = {"passes": passes, "peak_rss_kib": peak_kib}
    except Incomparable as exc:
        print(f"error: output cannot be compared with its known answer: {exc}",
              file=sys.stderr)
        return 1
    result["outcomes"] = {i: [o.status, o.seconds, o.detail]
                          for i, o in verdicts.worst.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
