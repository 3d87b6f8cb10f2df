"""Child process of the benchmark: generate inputs or run the visemefit CLI.

    python child.py [--trace FILE --t0 T] cli <visemefit arguments...>
    python child.py [--trace FILE --t0 T] gen <clips_batch|assets> SEED OUT SIZE

With ``--trace`` the layer spans of ``spans.py`` are recorded and written to
FILE as JSON at exit. T is the parent's ``perf_counter`` just before it
started this process, so start-up and imports show as their own spans.
"""

from __future__ import annotations

import sys
from time import perf_counter

started = perf_counter()


def main(argv) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, t0, argv = argv[1], float(argv[3]), argv[4:]
    tracer = None
    if trace_path:
        import spans

        tracer = spans.Tracer()
        boot = tracer.open("process.start")
        boot[2], boot[3] = t0, started
        tracer.close(boot)
        imports = tracer.open("process.import")
    import visemefit.cli

    if tracer:
        spans.install(tracer)
        tracer.close(imports)
    if argv[0] == "cli":
        name, run = "cli.main", lambda: visemefit.cli.main(argv[1:])
    else:
        import inputs

        workload, seed, out, size = argv[1], int(argv[2]), argv[3], int(argv[4])
        generate = {"clips_batch": inputs.landmark_clips, "assets": inputs.assets_inputs}[workload]
        name, run = "inputs.gen", lambda: generate(seed, size, out) or 0
    if not tracer:
        return run()
    tracer.root = tracer.open(name)
    try:
        return run()
    finally:
        tracer.close(tracer.root)
        tracer.root = None
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
