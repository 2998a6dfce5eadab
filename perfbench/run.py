"""Benchmark of ``effect-engine run``, end to end and layer by layer.

    python3 perfbench/run.py --workload xsec_hc1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

``--trace 0`` measures end to end, tracing off, in a closed loop with one
client: each iteration spawns one ``effect-engine --help`` child (the import
cost every run pays, ``setup_s``) and then one ``effect-engine run`` child on
the workload (``run_s`` from spawn to exit, ``peak_rss_mb`` from that child's
own rusage), until ``--seconds`` have passed. Children are spawned by a
small launcher process (``launcher.py``) so that their peak RSS is their
own. Every report is checked (see ``checks.py``); a non-zero exit or a
failed check counts against ``ok_frac``, which is 1 - failed_frac.

``--trace 1`` runs one untraced child pair for the overhead base, then calls
``effect_engine.cli.main(["run", ...])`` in this process under the span
tracer until ``--seconds`` have passed, and reports per-layer calls, total
and self time and counters, as medians over the traced repetitions.

Inputs are generated from ``--seed`` under ``.perfbench/`` in the checkout.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(ROOT, "docs", "report.schema.json")
WORK = os.path.join(ROOT, ".perfbench")

MIN_ITERATIONS = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 60.0

END_TO_END = {  # name -> unit
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _layer_units() -> dict:
    units = {}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "data.load_csv.rows": "count",
        "model.fit_ols.cluster.groups": "count",
        "mvnorm.mvn_orthant.points": "count",
        "mvnorm.mvn_orthant.tol_met_frac": "frac",
        "report.bytes": "bytes",
        "trace.overhead_frac": "frac",
    })
    return units


PER_LAYER = _layer_units()


@dataclass
class Child:
    exit_code: int
    wall_s: float
    peak_rss_mb: float


def child_env() -> dict:
    """The caller's environment with the absolute ``src`` on PYTHONPATH and
    EFFECT_ENGINE_THREADS unset, so the default of one thread is measured.
    Bytecode writing is allowed, so children import cached bytecode as an
    installed package would. BLAS threading is left at its default."""
    env = dict(os.environ)
    env.pop("EFFECT_ENGINE_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The small process that spawns and times every engine child, so each
    child's peak RSS is its own (see ``launcher.py``)."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, args: list, log_prefix: str) -> Child:
        """Run ``python -m effect_engine <args>`` and wait for it."""
        request = {"argv": [sys.executable, "-m", "effect_engine", *args], "env": child_env(),
                   "log_prefix": log_prefix, "timeout": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self._proc.wait()}")
        return Child(**json.loads(reply))

    def close(self) -> None:
        """Stop the launcher. One that is still waiting on a child (this
        process was interrupted) is terminated, and kills the child first."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.terminate()
            self._proc.wait()
        self._proc.stdout.close()


@dataclass
class Tally:
    """Attempted and failed runs, and the stable digest of every report."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)

    def add(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


class Bench:
    """One workload's generated inputs plus the checks every report must pass."""

    def __init__(self, name: str, seed: int, rows: int | None = None, work: str = WORK):
        self.name, self.seed = name, seed
        self.dir = os.path.join(work, name)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = workloads.generate(name, seed, rows)
        self.paths = workloads.write_inputs(self.inputs, self.dir)
        with open(SCHEMA, encoding="utf-8") as fh:
            self.schema = json.load(fh)
        self.tally = Tally()
        self.launcher = Launcher()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.close()
        return False

    def run_args(self, out: str) -> list:
        args = ["run", "--config", self.paths["config"], "--out", out]
        return args + (["--flat-prior-ok"] if self.inputs.flat_prior_ok else [])

    def check(self, exit_code: int, out: str, log_prefix: str | None = None) -> None:
        """Check one run's outcome and record it in the tally."""
        if exit_code != 0:
            detail = ""
            if log_prefix is not None:
                with open(log_prefix + ".err", encoding="utf-8", errors="replace") as fh:
                    detail = "".join(fh.read().strip().splitlines()[-1:])
            problems = [f"exit code {exit_code}: {detail}"]
        else:
            with open(out, "rb") as fh:
                report = fh.read()
            problems = checks.check_report(report, self.schema, self.inputs.config,
                                           self.inputs.truth)
            digest = checks.stable_digest(report)
            if self.tally.digests and digest != self.tally.digests[0]:
                problems.append(f"report bytes differ from the first run's ({digest})")
            self.tally.digests.append(digest)
        self.tally.add(problems)

    def help_child(self, tag: str) -> Child:
        child = self.launcher.spawn(["--help"], os.path.join(self.dir, f"help-{tag}"))
        if child.exit_code != 0:
            raise RuntimeError(f"effect-engine --help exited {child.exit_code}")
        return child

    def run_child(self, tag: str) -> Child:
        out = os.path.join(self.dir, f"report-{tag}.json")
        prefix = os.path.join(self.dir, f"run-{tag}")
        child = self.launcher.spawn(self.run_args(out), prefix)
        self.check(child.exit_code, out, prefix)
        return child


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Closed loop, one client: alternate a --help child and a run child."""
    bench.help_child("warmup")  # compiles bytecode; unmeasured
    setup, run, rss = [], [], []
    start = time.perf_counter()
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        setup.append(bench.help_child(str(i)).wall_s)
        child = bench.run_child(str(i))
        run.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        i += 1
    metrics = {
        "run_s": statistics.median(run),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": 1.0 - bench.tally.failed_frac,
    }
    samples = {"run_s": run, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, samples


def traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """One untraced child pair, then traced in-process runs."""
    bench.help_child("warmup")
    setup = bench.help_child("base").wall_s
    run = bench.run_child("base").wall_s

    sys.path.insert(0, SRC)
    os.environ.pop("EFFECT_ENGINE_THREADS", None)
    from effect_engine import cli

    reps, tracers = [], []
    start = time.perf_counter()
    while len(reps) < MIN_TRACED or time.perf_counter() - start < seconds:
        out = os.path.join(bench.dir, f"report-traced-{len(reps)}.json")
        with tracer.Tracer() as tr:
            try:
                code = cli.main(bench.run_args(out))
            except SystemExit as exc:  # argparse errors
                code = exc.code
        bench.check(code, out)
        tracers.append(tr)
        rep = tracer.layer_metrics(tr)
        rep["report.bytes"] = os.path.getsize(out) if code == 0 else 0
        reps.append(rep)

    tracer.write_spans(tracers, os.path.join(bench.dir, "spans.jsonl"))

    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            continue
        values = [r[name] for r in reps]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                bench.tally.problems.append(f"{name} differs across traced runs: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_frac"] = metrics["cli.execute.total_s"] / (run - setup) - 1.0
    samples = {"traced_reps": len(reps), "run_s": [run], "setup_s": [setup]}
    return metrics, samples


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded in this process (the
    children inherit the same environment, so they get the same default)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    """Digest of the engine's source files, which identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "effect_engine")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "src_digest": _src_digest(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with Bench(name, seed) as bench:
        metrics, samples = (traced if trace else end_to_end)(bench, seconds)
    tally = bench.tally
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name, "why": workloads.WORKLOADS[name].why, "seed": seed,
        "seconds": seconds, "trace": trace, "result": result, "samples": samples,
        "failed_frac": tally.failed_frac, "problems": tally.problems,
        "report_digest": tally.digests[0] if tally.digests else None,
        "environment": environment(),
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    _print_summary(record, path)
    return result


def _print_summary(record: dict, path: str) -> None:
    result, samples = record["result"], record["samples"]
    print(f"== {record['workload']} (seed {record['seed']}): {record['why']}")
    if record["trace"]:
        layers = {k[:-len(".self_s")]: v["value"] for k, v in result["metrics"].items()
                  if k.endswith(".self_s") and v["value"] > 0}
        print(f"  traced repetitions: {samples['traced_reps']}; layers by self time:")
        for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            calls = result["metrics"][f"{layer}.calls"]["value"]
            print(f"  {layer:32s} self {value:9.4f} s  calls {calls}")
        for k, v in result["metrics"].items():
            if not k.endswith((".calls", ".total_s", ".self_s")):
                print(f"  {k:32s} {v['value']}")
    else:
        for name in ("run_s", "setup_s", "peak_rss_mb"):
            values = samples[name]
            print(f"  {name:12s} median {statistics.median(values):10.4f} {END_TO_END[name]:4s}"
                  f"  n={len(values)}  min {min(values):.4f}  max {max(values):.4f}")
        print(f"  {'failed_frac':12s} {record['failed_frac']:17.4f} frac  n={result['attempted']}")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  report digest (created_at removed): {record['report_digest']}")
    env = record["environment"]
    print(f"  {env['cpu']}, nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']} ({env['blas_threads']} threads), "
          f"commit {env['commit'] or env['src_digest']}")
    print(f"  details: {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in (os.path.join(SRC, "effect_engine", "cli.py"), SCHEMA)
               if not os.path.exists(p)]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
