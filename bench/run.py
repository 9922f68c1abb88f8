"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  The workload's job list is run in passes for ``--seconds`` (at
least one pass; no pass starts that would not end in time at the pace so
far), and every timing is the median over passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
(fresh interpreter to parser ready, median of several), wall time of the
job list, peak RSS, the share of jobs that passed, and the time of the
workload's main command; the other commands' times are printed too.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics derived from spans, plus the tracing overhead.

Every output is checked (untimed) against independent oracles, golden lines
or statistical contracts; each pass's outputs must equal the first pass's,
traced or not.  The last line of standard output is one JSON object; details,
the environment and the spans of the last traced pass go to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.  The exit status is 1
if any job failed or any check did not hold, 2 if the checkout has no source.
"""

import os

# Pin BLAS and OpenMP pools to one thread before anything imports numpy.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, fields, is_dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 9
SETUP_CODE = "import bipartitions.cli as c; c.build_parser(); print('ready', flush=True)"
SETUP_TIMEOUT_S = 60
# Traced passes: layer self times must cover the traced wall time but this
# share (the harness's own time inside a pass: output capture, job dispatch).
LAYER_SHARE_SLACK = 0.05
WORKLOAD_NAMES = ("exact", "diagnostics", "sampling")


@dataclass
class Pass:
    traced: bool
    wall_s: float
    job_s: dict
    digests: dict
    errors: dict
    layers: dict | None = None


def canonical(value) -> bytes:
    """Byte form of a job output for digests: exact, with no truncation."""
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, np.ndarray):
        return repr((value.dtype.str, value.shape)).encode() + value.tobytes()
    if is_dataclass(value):
        return b"{" + b";".join(canonical(getattr(value, f.name)) for f in fields(value)) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(canonical(v) for v in value) + b"]"
    return repr(value).encode()


def run_pass(workload, tracer=None) -> tuple[Pass, dict]:
    gc.collect()
    outputs, job_s, errors = {}, {}, {}
    start = perf_counter()
    for j, job in enumerate(workload.jobs):
        t0 = perf_counter()
        try:
            if tracer is None:
                outputs[job.name] = job.run()
            else:
                with tracer.job_span(j):
                    outputs[job.name] = job.run()
        except Exception as exc:  # a failed job is counted; the others still run
            errors[job.name] = f"{type(exc).__name__}: {exc}"
            outputs[job.name] = None
        job_s[job.name] = perf_counter() - t0
    wall_s = perf_counter() - start
    digests = {name: hashlib.sha256(canonical(out)).hexdigest() for name, out in outputs.items()}
    return Pass(tracer is not None, wall_s, job_s, digests, errors), outputs


def measure_setup() -> list[float]:
    """Fresh interpreter to parser ready, SETUP_RUNS times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child printed {line!r} and exited with {code}")
        times.append(t1 - t0)
    return times


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bipartitions").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, load_at_start) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_at_start,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def command_times(untraced: list[Pass], workload) -> dict[str, float]:
    """Median over passes of each command's summed job times."""
    commands = dict.fromkeys(job.command for job in workload.jobs)
    return {
        command: statistics.median(
            sum(p.job_s[job.name] for job in workload.jobs if job.command == command)
            for p in untraced
        )
        for command in commands
    }


def end_to_end(untraced: list[Pass], workload, setup_times, peak_rss_mb, attempted, failed) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": (attempted - failed) / attempted,
        "command_s": command_times(untraced, workload)[workload.primary],
    }


def run_rounds(workload, seconds: float, tracer, problems: list[str]):
    """Run rounds of passes for about `seconds`; return passes, first outputs, spans.

    A round is one untraced pass, or with a tracer an untraced and a traced
    pass in alternating order.  Another round starts only if it would still
    end within `seconds` at the slowest round's pace so far; the first
    round always runs.
    """
    passes: list[Pass] = []
    reference = None
    spans: list = []
    start = perf_counter()
    slowest = 0.0
    while not passes or perf_counter() - start + slowest <= seconds:
        round_start = perf_counter()
        if tracer is None:
            kinds = (False,)
        else:
            kinds = (False, True) if len(passes) % 4 == 0 else (True, False)
        for traced in kinds:
            if traced:
                tracer.clear()
                tracer.install()
                try:
                    p, outputs = run_pass(workload, tracer)
                finally:
                    problems += [f"restore: {m}" for m in tracer.uninstall()]
                p.layers = tracing.layer_metrics(tracer, workload.jobs, p.wall_s)
                spans = list(tracer.spans)
            else:
                p, outputs = run_pass(workload)
            passes.append(p)
            if reference is None:
                reference = outputs
        slowest = max(slowest, perf_counter() - round_start)
    return passes, reference, spans


def gate(workload, passes: list[Pass], reference: dict) -> dict[str, list[str]]:
    """Correctness gate, untimed: failure reasons by job#pass.

    The workload's oracle checks judge the first pass's outputs, and every
    later pass, traced or not, must reproduce them exactly.
    """
    try:
        job_problems = workload.check(reference)
    except Exception as exc:  # a check that crashes fails every job
        job_problems = {job.name: [f"check raised {type(exc).__name__}: {exc}"]
                        for job in workload.jobs}
    failures: dict[str, list[str]] = {}
    first = passes[0]
    for job in workload.jobs:
        checked = job_problems.get(job.name, ["no correctness check ran"])
        for k, p in enumerate(passes):
            why = list(checked)
            if job.name in p.errors:
                why.append(p.errors[job.name])
            elif p.digests[job.name] != first.digests[job.name]:
                kind = "traced" if p.traced else "untraced"
                why.append(f"{kind} pass {k} output differs from pass 0")
            if why:
                failures[f"{job.name}#{k}"] = why
    return failures


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "bipartitions"
    if not (package / "__init__.py").is_file():
        print(f"error: no package source at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bipartitions

    if Path(bipartitions.__file__).resolve().parent != package.resolve():
        print(f"error: imported {bipartitions.__file__}, not {package}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args, load_at_start)
    problems: list[str] = []
    if args.trace:
        problems += [f"trace self-test: {p}" for p in tracing.self_test()]
    setup_times = measure_setup()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    passes, reference, spans = run_rounds(workload, args.seconds, tracer, problems)
    untraced = [p for p in passes if not p.traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = gate(workload, passes, reference)
    attempted = len(passes) * len(workload.jobs)
    failed = len(failures)

    if args.trace:
        traced = [p for p in passes if p.traced]
        metrics = tracing.median_metrics([p.layers for p in traced])
        share = metrics["trace.layer_self_share"]
        if not (1.0 - LAYER_SHARE_SLACK <= share <= 1.0 + 1e-9):
            problems.append(f"layer self times cover {share:.4f} of traced wall_s")
        metrics["cli.output_bytes"] = sum(
            len(reference[job.name].encode()) for job in workload.jobs
            if job.cli and reference[job.name] is not None
        )
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced) - 1.0
        )
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(untraced, workload, setup_times, peak_rss_mb, attempted, failed)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    problems += [f"metric {name} not measured" for name in missing]
    result_metrics = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in declared if m["name"] in metrics
    }
    correct = failed == 0 and not problems

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "environment": env,
        "inputs": workload.inputs,
        "setup_times_s": setup_times,
        "passes": [vars(p) for p in passes],
        "failures": failures,
        "problems": problems,
        "metrics": result_metrics,
    }
    if args.trace:
        record["span_fields"] = ["name", "start", "end", "parent", "job"]
        record["jobs"] = [job.name for job in workload.jobs]
        record["spans"] = spans
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, default=str))

    print(
        f"bench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
        f"jobs={len(workload.jobs)} | python {env['python']} numpy {env['numpy']} "
        f"scipy {env['scipy']} nproc {env['nproc']} load {load_at_start[0]:.2f} "
        f"commit {env['git_commit']} | details in {out_path.relative_to(ROOT)}"
    )
    labels = {"command_s": f"{workload.primary}_s"}
    for name, entry in result_metrics.items():
        label = labels.get(name, name)
        print(f"  {label:34s} {entry['value']:>16.6g} {entry['unit']}"
              + (f"  ({name})" if label != name else ""))
    if not args.trace:
        print(f"  {'fail_ratio':34s} {failed / attempted:>16.6g} 1  ({failed}/{attempted})")
        for command, seconds in command_times(untraced, workload).items():
            if command != workload.primary:
                print(f"  {command + '_s':34s} {seconds:>16.6g} s  (not bounded)")
    for key, why in list(failures.items()) + [("run", [p]) for p in problems]:
        print(f"  FAIL {key}: {'; '.join(why)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
