"""One ``neckpinch run --config CONFIG --strict`` in a fresh process.

Usage: python3 perfbench/child.py {run,trace,probe} CONFIG RESULT_JSON

``run`` times the user's path untraced, ``trace`` adds the layer spans of
``layers.py``, and ``probe`` stops at the entry of ``flow.evolve`` to time
set-up alone. The timings, the exit code of ``cli.main`` and the process's
peak RSS go to RESULT_JSON. The exit code is that of ``cli.main``, or 70 when
it raised.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


class SetupDone(Exception):
    """Raised at the entry of flow.evolve in a probe run."""


def main(argv: list[str]) -> int:
    mode, config_path, result_path = argv
    import neckpinch  # noqa: F401  (the whole package, as the CLI entry point loads it)
    import numpy
    import scipy
    from neckpinch import cli, flow

    t_import = time.perf_counter()
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)

    marks = {}
    inner = flow.evolve

    def evolve_entry(*args, **kwargs):
        marks["evolve"] = time.perf_counter()
        marks["evolve_cpu"] = time.process_time()
        if mode == "probe":
            raise SetupDone
        return inner(*args, **kwargs)

    flow.evolve = evolve_entry
    error = None
    try:
        rc = cli.main(["run", "--config", config_path, "--strict"])
    except SetupDone:
        rc = 0
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        rc = 70
    t_end = time.perf_counter()
    cpu_end = time.process_time()

    result = {
        "rc": rc,
        "error": error,
        "import_s": t_import - T0,
        "setup_s": marks["evolve"] - T0 if "evolve" in marks else None,
        "run_s": t_end - marks["evolve"] if "evolve" in marks else None,
        "run_cpu_s": cpu_end - marks["evolve_cpu"] if "evolve" in marks else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
