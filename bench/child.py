"""Fresh-process probes started by run.py (one task per process).

    child.py library M00 M01 ... M33   analyze one matrix, print "ok"
    child.py batch DIR                 run the batch command once, print "ok"
    child.py trace-analyze FILE SPANS  run ``analyze FILE`` traced, exit with its code
    child.py import                    print the seconds taken to import muellercert.cli

The first two measure set-up time: the parent times the interval from
starting the process to reading "ok".  The package is found on PYTHONPATH,
which run.py sets to the checkout's ``src``.
"""

import sys
import time


def main(argv) -> int:
    task = argv[0]
    if task == "import":
        start = time.perf_counter()
        import muellercert.cli  # noqa: F401

        print(time.perf_counter() - start)
        return 0

    import io

    from muellercert import cli

    if task == "library":
        import numpy as np

        cli.analyze_matrix(np.array([float(x) for x in argv[1:17]]).reshape(4, 4))
    elif task == "batch":
        if cli.main(["batch", argv[1]], out=io.StringIO(), err=sys.stderr) != 0:
            return 1
    elif task == "trace-analyze":
        from pathlib import Path

        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            return cli.main(["analyze", argv[1]])
        finally:
            tracer.dump(Path(argv[2]))
    else:
        raise SystemExit(f"unknown task {task!r}")
    print("ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
