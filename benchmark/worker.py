"""One workload step in a fresh interpreter, so that its imports and its
peak memory belong to that step alone.

    python3 benchmark/worker.py <setup|pass> SPEC.json RESULT.json

``setup`` imports the program and makes the workload's inputs, and reports
how long both took. ``pass`` imports the program, then times the workload's
CLI calls (wall and CPU) and reports them with the process's peak RSS. With
``"trace": true`` in the spec the pass runs under ``tracing.Tracer``, and
the spans are written out after the timed region.
"""

import time

STARTED = time.perf_counter()  # set-up time counts the imports below

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def invoke(argv: list[str]) -> dict:
    """Run ``windforecast.cli.main`` in process, as the console script would.

    An exception that escapes ``main`` is an operation that failed: the
    console script would print its traceback and exit 1.
    """
    from windforecast import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    failed = False
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code, failed = 1, True
    return {"argv": argv, "exit": code, "failed": failed,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def main() -> int:
    step, spec_path, result_path = sys.argv[1:]
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import windforecast.cli  # noqa: F401

    origin = Path(windforecast.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"windforecast imported from {origin}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]](
        workloads.Scale(**spec["scale"]), spec["seed"]
    )
    inputs = Path(spec["inputs"])
    if step == "setup":
        workload.setup(inputs, invoke)
        result = {"setup_s": time.perf_counter() - STARTED}
    else:
        out = Path(spec["out"])
        tracer = None
        if spec["trace"]:
            tracer = tracing.Tracer(pass_id=out.name)
            tracer.install()
        argvs = workload.commands(inputs, out)
        ops = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in argvs:
            ops.append(invoke(argv))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": peak_kib / 1024.0, "ops": ops}
        if tracer is not None:
            tracer.write(out / "trace.jsonl")
            result["trace"] = tracer.summary()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
