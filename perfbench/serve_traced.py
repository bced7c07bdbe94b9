"""``repro serve`` with the benchmark's span probes installed.

The traced service phase starts its server through this script so
that spans inside the service (disk-cache reads and writes, and the
runs its pool workers execute) reach the recorder's sink directory.

Usage: ``python3 perfbench/serve_traced.py SINK_DIR serve [ARGS...]``
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spans import SpanRecorder, probes  # noqa: E402


def main(argv):
    from repro.cli import main as repro_main

    recorder = SpanRecorder(argv[0], in_memory=False)
    try:
        with probes(recorder):
            return repro_main(argv[1:])
    finally:
        recorder.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
