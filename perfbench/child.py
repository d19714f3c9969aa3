"""One fresh-interpreter workload process, started and timed by ``run.py``.

    python3 perfbench/child.py run WORKLOAD SEED STORE OUT [SPAN_DIR]
    python3 perfbench/child.py prime WORKLOAD SEED STORE CLAIMS

``run`` imports ``repro.cli`` as the ``repro`` command does, executes the
workload on the store at STORE and writes its output to OUT as JSON.  With
SPAN_DIR it also wraps every layer (see ``layers.py``) and writes the spans
of this process and of its grid workers there.  ``prime`` derives the traces
a warm workload loads, sharing the work with other ``prime`` processes
through claim files in CLAIMS.  ``PYTHONPATH`` must name ``src``.
"""

import time

STARTED_NS = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _run(name: str, seed: int, store: str, out: str, span_dir: str = "") -> None:
    tracer = None
    if span_dir:
        import layers

        tracer = layers.Tracer(Path(span_dir))
        root = tracer.begin("root", name)
        root[3] = STARTED_NS
        startup = tracer.begin("startup", "import repro.cli")
    import repro.cli  # noqa: F401  (the import a user's ``repro`` pays)

    if tracer is not None:
        tracer.end(startup)
        layers.install(tracer)
    result = workloads.run(name, seed, store)
    if tracer is not None:
        # The root span ends here, and no later span is written: collecting
        # the output below is the benchmark's bookkeeping, not the program's.
        tracer.end(root)
        tracer.flush("parent")
    Path(out).write_text(json.dumps(workloads.output(name, result)))


def main(argv: list) -> int:
    command, name, seed, store = argv[0], argv[1], int(argv[2]), argv[3]
    if command == "prime":
        workloads.prime(name, seed, store, argv[4])
    else:
        _run(name, seed, store, *argv[4:])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
