"""Child-process entry points of the benchmark.

    python benchmarks/child.py setup SPANS WORKLOAD SEED OUT_DIR TINY
    python benchmarks/child.py cli SPANS WORDGROUND_CLI_ARGS...

`setup` builds a run's input files in a fresh interpreter, so set-up time
includes interpreter start and `import wordground`. `cli` runs one
`wordground.cli.main` call with the tracer installed. SPANS is a path for a
JSON dump of the child's spans, or `-` for none. Both record the moment the
interpreter reached this script and the import of wordground, so the parent
can split a call into interpreter start, import and work.
"""

import time

STARTED = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    mode, spans, rest = argv[0], argv[1], argv[2:]
    import_start = time.perf_counter_ns()
    import wordground.cli

    import_end = time.perf_counter_ns()
    tracer = None
    if spans != "-":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    if mode == "setup":
        from inputs import Scale, build_inputs

        workload, seed, out, tiny = rest[0], int(rest[1]), Path(rest[2]), rest[3] == "1"
        build_inputs(workload, seed, out, Scale.tiny() if tiny else Scale())
        code = 0
    else:
        code = wordground.cli.main(rest)
    if tracer is not None:
        dump = tracer.dump()
        dump.update(started=STARTED, imported=[import_start, import_end])
        Path(spans).write_text(json.dumps(dump), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
