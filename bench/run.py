"""Benchmark of the spkdeid pipeline on two generated workloads.

    python3 bench/run.py --workload desk --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  BLAS and OpenMP are pinned to one thread before numpy
is imported.  Set-up (config write plus ``spkdeid gen-data``) runs a few
times and reports its median.  Then the workload's stages run in a closed
loop, one pass after another, until ``--seconds`` have passed; timings are
medians over passes.  Every stage output is parsed with the package's own
readers on the first pass, and every later pass must write the same bytes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes (each with its own
set-up) and reports the per-layer metrics, medians over traced passes;
bench/metric_map.json says which end-to-end metric each of them should
move, on which workload.

The last line of stdout is the result object; the line before it holds
the details: environment, config, per-pass timings, output digests and
the quality figures that are not end-to-end metrics.  Both are also
written to .bench_results/.  Exit code 0 on success, 1 when an op failed
or an output check missed (the result says so), 2 when the benchmark
cannot run at all.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNPINNED = {var: os.environ.get(var) for var in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (the thread variables must be set first)
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The benchmark cannot run here."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "vox64"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--thumbnail", action="store_true",
                        help="tiny shape of the workload, for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def load_spec() -> tuple[dict, dict]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metric_map = json.loads((BENCH / "metric_map.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read the benchmark spec: {exc}") from None
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(names) != sorted(metric_map["per_layer"]):
        raise SetupError("BENCHMARK.json per_layer and metric_map.json disagree")
    return spec, metric_map


def import_package():
    if not (SRC / "spkdeid" / "__init__.py").is_file():
        raise SetupError(f"no spkdeid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spkdeid

    if Path(spkdeid.__file__).resolve().parent != SRC / "spkdeid":
        raise SetupError(f"imported spkdeid from {spkdeid.__file__}, not from {SRC}")
    return spkdeid


def _git(*argv: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy

    in_git = _git("rev-parse", "--show-toplevel")
    in_git = in_git is not None and Path(in_git).resolve() == ROOT
    source = hashlib.sha256()
    for path in sorted((SRC / "spkdeid").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    cpus = len(os.sched_getaffinity(0))
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": (_git("status", "--porcelain") != "") if in_git else None,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
        "threads_unpinned": {"env": UNPINNED, "default_threads": cpus},
        "nproc": cpus,
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    """One benchmark run: set-ups, passes, checks and the figures they give."""

    def __init__(self, args, spec: dict, metric_map: dict, work: Path):
        import stages

        self.stages = stages
        self.args = args
        self.spec = spec
        self.metric_map = metric_map
        shape_table = stages.THUMBNAILS if args.thumbnail else stages.SHAPES
        self.shape = shape_table[args.workload]
        self.pipeline = stages.Pipeline(args.workload, self.shape, args.seed, work)
        self.setup_walls: list[float] = []
        self.passes: list[dict[str, float]] = []
        self.digests: dict[str, str] = {}
        self.quality: dict[str, float] = {}

    def setup(self) -> float:
        wall = self.pipeline.setup()
        self._same_bytes(self.pipeline.setup_digests(), self.pipeline.check_setup)
        self.setup_walls.append(wall)
        return wall

    def measured_pass(self) -> dict[str, float]:
        walls = self.pipeline.run_pass()
        self._same_bytes(self.pipeline.pass_digests(), self._check_pass)
        return walls

    def _check_pass(self) -> None:
        self.quality = self.pipeline.check_pass()

    def _same_bytes(self, digests: dict[str, str], first_check) -> None:
        """First time: parse-check the outputs; later: they must be the same bytes."""
        if not all(key in self.digests for key in digests):
            first_check()
            self.digests.update(digests)
            return
        for key, digest in digests.items():
            if self.digests[key] != digest:
                self.pipeline.failed += 1
                raise self.stages.CheckError(
                    f"{key} output differs from the first pass with the same seed")

    def end_to_end(self) -> dict[str, float]:
        for _ in range(self.shape.setups):
            self.setup()
        start = time.perf_counter()
        while not self.passes or time.perf_counter() - start < self.args.seconds:
            self.passes.append(self.measured_pass())
        train_rows = self.shape.epochs * self.shape.rows("train")
        anonymize_rows = self.shape.rows(self.stages.ANONYMIZE_INPUT[self.args.workload])
        return {
            "setup_s": median(self.setup_walls),
            "wall_s": median(sum(p.values()) for p in self.passes),
            "train_rows_per_s": median(train_rows / p["train"] for p in self.passes),
            "anonymize_rows_per_s": median(anonymize_rows / p["anonymize"]
                                           for p in self.passes),
            "evaluate_s": median(p["evaluate"] for p in self.passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "min_cllr_oa": self.quality["min_cllr_oa"],
        }

    def per_layer(self) -> dict[str, float]:
        from tracer import TraceError, Tracer, layer_metrics, total_self_s

        names = [m["name"] for m in self.spec["per_layer"]]
        functions = {n.rpartition(".")[0] for n in names if not n.startswith("trace.")}
        exercised = functions - set(self.metric_map["not_exercised"].get(self.args.workload, []))
        untraced, traced_walls, samples = [], [], []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < self.args.seconds:
            self.setup()
            walls = self.measured_pass()
            untraced.append(sum(walls.values()))
            self.passes.append(walls)
            with Tracer(functions) as tracer:
                t0 = time.perf_counter()
                self.setup()
                walls = self.measured_pass()
                traced_wall = time.perf_counter() - t0
            traced_walls.append(sum(walls.values()))
            summary = tracer.summary()
            idle = sorted(name for name in exercised if summary[name]["calls"] == 0)
            if idle:
                raise TraceError(f"{self.args.workload} made no calls to {idle}")
            if total_self_s(summary) > traced_wall:
                raise TraceError("traced self times exceed the traced wall time")
            values = layer_metrics(summary, names)
            values["trace.wall_s"] = traced_wall
            samples.append(values)
        result = {name: median(s[name] for s in samples) for name in samples[0]}
        result["trace.overhead_pct"] = 100.0 * (median(traced_walls) / median(untraced) - 1.0)
        return result


def report(spec: dict, key: str, values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec, metric_map = load_spec()
        import_package()
        env = environment()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(args, spec, metric_map, work)
    error = None
    try:
        values = run.per_layer() if args.trace else run.end_to_end()
    except Exception as exc:  # every failure is reported in the result
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
        values = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    pipeline = run.pipeline
    failed = pipeline.failed if error is None else max(pipeline.failed, 1)
    result = {
        "correct": error is None and failed == 0,
        "attempted": max(pipeline.attempted, 1),
        "failed": failed,
        "metrics": (report(spec, "per_layer" if args.trace else "end_to_end", values)
                    if values is not None else {}),
    }
    env["loadavg_end"] = list(os.getloadavg())
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "thumbnail": args.thumbnail, "error": error,
        "environment": env,
        "config": run.stages.config_dict(run.shape, args.seed, work),
        "setup_s": run.setup_walls, "passes": run.passes,
        "digests": run.digests, "quality": run.quality,
        "ops_attempted": pipeline.attempted, "ops_failed": failed,
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
