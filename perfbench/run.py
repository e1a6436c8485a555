"""pubrank benchmark: the real CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload rank_deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Generates the workload's inputs from the seed (untimed), runs one untimed
warm-up invocation of `python -m pubrank.cli` whose output is checked in
full, then alternates, for --seconds, two set-up invocations (`validate` on
an empty corpus) with one timed workload invocation, one process at a
time. With --trace 1 each round adds a traced in-process run
(perfbench/traced.py) and the per-layer metrics replace the end-to-end
ones. Prints each metric by name with its unit, then, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.
A full record of the run (machine details, every invocation, the spans)
goes to .perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
# the keys of workloads.WORKLOADS, named here so that parsing arguments imports no pubrank
WORKLOAD_NAMES = ("rank_deep", "rank_wide", "validate_dirty")
MIN_TIMED = 3
SETUP_PER_ROUND = 2
CGROUP_FILES = (
    "/sys/fs/cgroup/cpu.max",
    "/sys/fs/cgroup/memory.max",
    "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
    "/sys/fs/cgroup/cpu/cpu.cfs_period_us",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",
)


class Launcher:
    """Client of perfbench/launcher.py, which spawns the measured commands."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "env": env, "cwd": str(ROOT), "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)

    try:
        rev = git("rev-parse", "HEAD")
        if rev.returncode != 0:
            return {"revision": None, "dirty": None}
        status = git("status", "--porcelain", "--untracked-files=no")
        return {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"revision": None, "dirty": None}


def run_metadata() -> dict:
    """Facts about the machine and the code; read only, nothing is changed."""
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git": git_state(),
        "loadavg_start": _read("/proc/loadavg"),
        "cgroup_limits": {path: value for path in CGROUP_FILES if (value := _read(path)) is not None},
    }


def metric_specs() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class WorkloadRun:
    """Invocations of one workload: run, check, and keep their samples."""

    def __init__(self, launcher: Launcher, workload, inputs, work: Path, seed: int):
        import checks

        self.checks = checks
        self.launcher = launcher
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.seed = seed
        # Bytecode is always cached, outside src/, so that the warm-up pays
        # for compiling whatever the caller's environment says.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(STATE / "pycache"))
        self.invocations: list[dict] = []
        self.traced: list[dict] = []
        self.reference: str | None = None  # output digest of the warm-up
        self.reference_ok = False
        self.table_files = checks.expected_table_files(inputs.taxonomy)
        self.setup_stdout = checks.expected_setup_stdout(inputs)

    def _cli_args(self, command: str, corpus: Path, out: Path | None) -> list[str]:
        args = [command, "--corpus", str(corpus), "--registry-dir", str(self.inputs.registry_dir),
                "--taxonomy", str(self.inputs.taxonomy)]
        if out is not None:
            args += ["--out", str(out)]
        return args

    def _workload_args(self, out: Path) -> list[str]:
        wl = self.workload
        return self._cli_args(wl.command, self.inputs.corpus, out if wl.command == "rank" else None) + wl.flags

    def _launch(self, kind: str, argv: list[str]) -> tuple[dict, str]:
        stdout, stderr = self.work / f"{kind}.out", self.work / f"{kind}.err"
        record = {"kind": kind, **self.launcher.run(argv, self.env, stdout, stderr)}
        self.invocations.append(record)
        return record, stdout.read_text(encoding="utf-8", errors="replace")

    def _verdict(self, record: dict, problems: list[str]) -> dict:
        record["ok"] = not problems
        if problems:
            record["problems"] = problems
            print(f"{self.workload.name} {record['kind']} failed: " + "; ".join(problems), file=sys.stderr)
        return record

    def setup(self) -> dict:
        argv = [sys.executable, "-m", "pubrank.cli"] + self._cli_args("validate", self.inputs.empty_corpus, None)
        record, stdout = self._launch("setup", argv)
        problems = []
        if record["returncode"] != 0:
            problems.append(f"exit {record['returncode']}, expected 0")
        elif stdout != self.setup_stdout:
            problems.append(f"unexpected set-up output {stdout[:200]!r}")
        return self._verdict(record, problems)

    def _check_output(self, exit_code: int, out: Path, stdout_digest: str, stdout: str | None = None) -> list[str]:
        """Exit code, file names and digest; the first output is also
        checked in full and becomes the reference for the rest."""
        problems = []
        if exit_code != self.workload.expected_exit:
            problems.append(f"exit {exit_code}, expected {self.workload.expected_exit}")
            return problems
        if self.workload.command == "rank":
            problems += self.checks.check_table_files(out, self.table_files)
            digest = self.checks.tree_digest(out)
        else:
            digest = stdout_digest
        if self.reference is None:
            self.reference = digest
            self.reference_ok = not problems and not self._full_check(out, stdout)
        if digest != self.reference:
            problems.append("output differs from the first invocation's")
        elif not self.reference_ok:
            problems.append("output equals the first invocation's, which failed its checks")
        return problems

    def _full_check(self, out: Path, stdout: str) -> list[str]:
        wl, checks = self.workload, self.checks
        if wl.command == "validate":
            problems = checks.check_validate_report(stdout, self.inputs.expected_validate)
        else:
            problems = checks.check_rows_against_ledger(out, self.inputs.ledger, wl.min_books, wl.min_chapters)
            if wl.oracle_sample:
                problems += checks.check_oracle_sample(out, self.inputs, self.seed)
        for problem in problems:
            print(f"{wl.name} reference output: {problem}", file=sys.stderr)
        return problems

    def workload_run(self, kind: str = "workload") -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        record, stdout = self._launch(kind, [sys.executable, "-m", "pubrank.cli"] + self._workload_args(out))
        problems = self._check_output(record["returncode"], out, self.checks.text_digest(stdout), stdout)
        return self._verdict(record, problems)

    def traced_run(self) -> dict:
        out, spans = self.work / "out_traced", self.work / "spans.json"
        shutil.rmtree(out, ignore_errors=True)
        record, _ = self._launch("traced", [sys.executable, str(HERE / "traced.py"), str(spans)]
                                 + self._workload_args(out))
        if record["returncode"] != 0:
            return self._verdict(record, [f"traced run exited {record['returncode']}"])
        doc = json.loads(spans.read_text(encoding="utf-8"))
        doc["wall_s"] = record["wall_s"]
        files = list(out.iterdir()) if out.is_dir() else []
        doc["output_files"] = len(files)
        doc["output_bytes"] = {suffix: sum(p.stat().st_size for p in files if p.suffix == f".{suffix}")
                               for suffix in ("csv", "json", "html")}
        self.traced.append(doc)
        if doc["missing"]:
            print(f"not traced, absent from the program: {', '.join(doc['missing'])}", file=sys.stderr)
        return self._verdict(record, self._check_output(doc["exit_code"], out, doc["stdout_sha256"]))


def layer_metrics(doc: dict, lines: int) -> dict[str, float]:
    """Per-layer metrics of one traced run. A span's self time is its
    duration minus its children's; stages a workload does not run read 0."""
    spans = doc["spans"]
    duration = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            covered[s["parent"]] += duration[i]
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    maxrss: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        name = s["name"]
        total[name] += duration[i]
        own[name] += duration[i] - covered[i]
        for key, value in s.get("counts", {}).items():
            counts[f"{name}.{key}"] += value
        layer = name.split(".")[0]
        maxrss[layer] = max(maxrss[layer], s["maxrss_mb"])
    nbytes = doc["output_bytes"]
    resolved = counts["corpus.resolve.resolved"]
    rows = counts["indicators.rows.rows"]
    m = {
        "registry.load_s": total["registry.load"],
        "taxonomy.load_s": total["taxonomy.load"],
        "corpus.ingest_s": total["corpus.ingest"],
        "corpus.ingest_us_per_line": total["corpus.ingest"] / lines * 1e6,
        "corpus.lines": lines,
        "corpus.records": counts["corpus.ingest.records"],
        "corpus.diagnostics": counts["corpus.ingest.diagnostics"],
        "corpus.maxrss_mb": maxrss["corpus"],
        "corpus.filter_s": total["corpus.filter"],
        "corpus.filter_kept": counts["corpus.filter.kept"],
        "corpus.filter_dropped": counts["corpus.filter.dropped"],
        "corpus.resolve_s": total["corpus.resolve"],
        "corpus.fingerprint_s": total["corpus.fingerprint"],
        "corpus.resolved": resolved,
        "corpus.unresolved_names": counts["corpus.resolve.unresolved"],
        "indicators.baselines_s": total["indicators.baselines"],
        "indicators.baseline_cells": counts["indicators.baselines.cells"],
        "indicators.rows_s": total["indicators.rows"],
        "indicators.us_per_item": total["indicators.rows"] / resolved * 1e6 if rows else 0.0,
        "indicators.rows": rows,
        "indicators.maxrss_mb": maxrss["indicators"],
        "ranking.tables_s": total["ranking.tables"],
        "ranking.self_s": own["ranking.tables"],
        "ranking.entries": counts["ranking.tables.entries"],
        "ranking.eligible_ratio": counts["ranking.tables.entries"] / rows if rows else 0.0,
        "report.export_csv_s": total["report.export_csv"],
        "report.export_json_s": total["report.export_json"],
        "report.export_html_s": total["report.export_html"],
        "report.bytes_csv": nbytes["csv"],
        "report.bytes_json": nbytes["json"],
        "report.bytes_html": nbytes["html"],
        "report.files": doc["output_files"],
        "report.validate_self_s": own["report.run_validate"],
        "cli.print_s": own["cli.run"],
        "cli.stdout_lines": doc["stdout_lines"],
        "trace.wall_s": doc["wall_s"],
    }
    # The named stages partition the traced run_cli call; the remainder is
    # interpreter start-up, imports, writing the spans, and the entry points'
    # own time (run_rank, run_pipeline, the export loop).
    named = ("registry.load_s", "taxonomy.load_s", "corpus.ingest_s", "corpus.filter_s",
             "corpus.resolve_s", "indicators.baselines_s", "ranking.tables_s", "report.export_csv_s",
             "report.export_json_s", "report.export_html_s", "report.validate_self_s", "cli.print_s")
    m["trace.unattributed_s"] = m["trace.wall_s"] - sum(m[k] for k in named)
    return m


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    work = STATE / f"work-{os.getpid()}" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    meta = run_metadata()
    inputs = workloads.generate(workload, seed, work / "inputs")
    run = WorkloadRun(launcher, workload, inputs, work, seed)

    run.workload_run("warmup")
    start = time.perf_counter()
    timed: list[dict] = []
    setups: list[dict] = []
    while len(timed) < MIN_TIMED or time.perf_counter() - start < seconds:
        setups += [run.setup() for _ in range(SETUP_PER_ROUND)]
        timed.append(run.workload_run())
        if trace:
            run.traced_run()
    measured_s = time.perf_counter() - start

    wall = statistics.median(r["wall_s"] for r in timed)
    setup_s = statistics.median(r["wall_s"] for r in setups)
    if trace:
        per_run = [layer_metrics(doc, inputs.lines) for doc in run.traced]
        values = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]} if per_run else {}
        if values:
            # both are process wall times, so start-up cancels
            values["trace.overhead_s"] = values["trace.wall_s"] - wall
    else:
        values = {
            "wall_s": wall,
            "records_per_s": inputs.lines / wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in timed),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in timed) / 1024,
            "setup_s": setup_s,
        }
    attempted = len(run.invocations)
    failed = sum(not r["ok"] for r in run.invocations)
    meta["loadavg_end"] = _read("/proc/loadavg")
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metadata": meta,
        "input_lines": inputs.lines,
        "generate_s": inputs.generate_s,
        "measured_s": measured_s,
        "samples": {"timed": len(timed), "setup": len(setups), "traced": len(run.traced)},
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "invocations": run.invocations,
        "traced_runs": run.traced,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def report(result: dict, units: dict[str, str]) -> dict:
    """Print a workload's metrics by name and unit; return the JSON metrics."""
    missing = sorted(set(units) - set(result["values"]))
    if missing:
        raise RuntimeError(f"{result['workload']}: no value for {missing}")
    s = result["samples"]
    print(f"{result['workload']} (seed {result['seed']}): {result['input_lines']} input lines, "
          f"generated in {result['generate_s']:.2f} s; {s['timed']} timed, {s['setup']} set-up and "
          f"{s['traced']} traced invocations in {result['measured_s']:.1f} s")
    for name, unit in units.items():
        print(f"  {name:<28} {result['values'][name]:>14.6g} {unit}")
    print(f"  {'error_rate':<28} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} invocations failed)")
    return {name: {"value": result["values"][name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the pubrank CLI on a seeded workload.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pubrank" / "cli.py").is_file():
        print(f"no pubrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_specs()
    units = per_layer if args.trace else end_to_end

    # Start the launcher while this process is small: its children inherit
    # its memory high-water mark, not this process's.
    launcher = Launcher()
    try:
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = [run_workload(launcher, name, args.seed, args.seconds, bool(args.trace)) for name in names]
    finally:
        launcher.close()
        shutil.rmtree(STATE / f"work-{os.getpid()}", ignore_errors=True)

    metrics = {}
    for result in results:
        for name, metric in report(result, units).items():
            metrics[name if len(results) == 1 else f"{result['workload']}.{name}"] = metric
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
