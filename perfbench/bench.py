"""Workloads and the loop that runs them through the `sawbridge` CLI.

Every stage is one fresh `python3 -m sawbridge.cli <stage> ...` process,
as a user runs it, timed from spawn to reap (interpreter start-up
included); its peak RSS comes from the rusage `wait4` returns, which
covers the stage and the pool workers it waited for.

A run has a set-up phase (an import probe plus the workload's set-up
stages, repeated SETUP_PASSES times; `setup_s` is the median pass) and a
timed phase that repeats the timed stages, as a closed loop with one
client, while another iteration fits in the time budget (there is always
at least one); the end-to-end metrics are medians over those iterations.  Outputs of every stage are checked (see
checks.py): fully the first time, and on later passes by comparing file
digests, so any drift between passes counts as a failure.

A traced run (trace=True) replaces the timed phase by alternating
untraced and traced iterations; traced stages run under tracer.py.  Its
per-layer metrics are the traced set-up pass plus the median traced
iteration, and `trace.overhead_s` is the median traced minus the median
untraced iteration wall time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
from sawbridge.config import DEFAULT_GRID

SETUP_PASSES = 3
# a stage still running after this long is killed and counted as failed,
# which keeps a whole run well inside the three minutes it may take
STAGE_TIMEOUT_S = 90
TRACER = Path(__file__).resolve().parent / "tracer.py"
UNSEEN_SPANS = (
    "sawbridge.counting._subtree_counts and everything below it in the "
    "ProcessPoolExecutor workers of enumerate --threads 2 (deep-enum): "
    "only the caller's enumerate_counts span covers that work"
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cutoff: int
    spans: tuple[int, ...]
    replicas: int
    threads: int
    setup: tuple[str, ...]
    timed: tuple[str, ...]

    def argv(self, stage: str, out: Path, seed: int) -> list[str]:
        args = [stage, "--d", "2", "--beta", "1.2", "--L", str(self.cutoff),
                "--threads", str(self.threads), "--out", str(out)]
        if self.spans:
            args += ["--n", ",".join(map(str, self.spans)),
                     "--replicas", str(self.replicas), "--seed", str(seed)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long-span",
            why="L=13, n=128,256,512, 250 replicas, 1 worker: sample then analyze; "
                "~500-step backward chains, MB of skeleton CSV written then read back, "
                "every stats reduction",
            cutoff=13, spans=(128, 256, 512), replicas=250, threads=1,
            setup=("enumerate", "calibrate"), timed=("sample", "analyze"),
        ),
        Workload(
            name="short-span",
            why="L=13, n=5, 50000 replicas, 1 worker: oracle; many replicates of at most "
                "5 draws, so per-replicate RNG streams and skeleton objects dominate, "
                "plus exhaustive and product laws",
            cutoff=13, spans=(5,), replicas=50000, threads=1,
            setup=("enumerate",), timed=("oracle",),
        ),
        Workload(
            name="deep-enum",
            why="L=15, 2 workers: enumerate then calibrate; DFS with process-pool "
                "splitting and merging, count-cache save and load; never calls the "
                "sampler, stats or skeleton CSV path",
            cutoff=15, spans=(), replicas=0, threads=2,
            setup=(), timed=("enumerate", "calibrate"),
        ),
    )
}

END_TO_END = {
    "wall_s": "s",
    "first_stage_s": "s",
    "last_stage_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class StageRun:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    trace: dict | None = None


class Runner:
    """One benchmark run of one workload at one seed."""

    def __init__(self, root: Path, workload: Workload, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = root / ".bench_work" / f"{workload.name}-s{seed}-{os.getpid()}"
        self.out = self.work / "out"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.file_hashes: dict[str, str] = {}
        self.spans: list[dict] = []
        self.iterations = 0
        self.layer_counts: dict[str, int] = {}
        self.trace_file: Path | None = None
        self.summary: dict[str, dict] = {}
        self.unseen = [UNSEEN_SPANS] if workload.threads > 1 else []

    # -- stages ---------------------------------------------------------

    def run_stage(self, stage: str, run_id: str, traced: bool) -> StageRun:
        """Spawn one CLI stage and wait for it; a failure is counted, not raised."""
        span_id = f"{run_id}/{stage}"
        cli_args = ["--help"] if stage == "probe" else self.workload.argv(
            stage, self.out, self.seed)
        spans_file = self.work / "spans.json"
        spans_file.unlink(missing_ok=True)
        if traced:
            command = [sys.executable, str(TRACER), str(spans_file), span_id, run_id,
                       "--", *cli_args]
        else:
            command = [sys.executable, "-m", "sawbridge.cli", *cli_args]
        log = self.work / "stage.log"
        with log.open("w") as handle:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(command, cwd=self.root, env=self.env,
                                    stdout=handle, stderr=handle)
            watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        result = StageRun((end - start) / 1e9, usage.ru_maxrss / 1024.0, proc.returncode)
        if self.trace:
            self.spans.append({"id": span_id, "name": f"stage:{stage}",
                               "tag": None if traced else "untraced",
                               "parent": run_id, "run": run_id, "start_ns": start,
                               "end_ns": end, "traced": traced})
        if traced and spans_file.exists():
            result.trace = json.loads(spans_file.read_text())
            self.spans += result.trace["spans"]
        if result.exit_code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            self.fail(f"{stage} exited {result.exit_code}: {' | '.join(tail)}")
        return result

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check_stage(self, stage: str) -> bool:
        """Check a stage's artifacts; count a failure and return False if one fails.

        The first pass verifies each artifact in full; later passes must
        reproduce its bytes exactly.
        """
        if stage == "probe":
            return True
        for name in checks.stage_artifacts(stage, self.workload.cutoff, self.workload.spans):
            path = self.out / name
            try:
                whole = hashlib.sha256(path.read_bytes()).hexdigest()
                if name not in self.file_hashes:
                    self.digests[name] = checks.verify_artifact(
                        path, self.workload.replicas, len(DEFAULT_GRID))
                    self.file_hashes[name] = whole
                elif whole != self.file_hashes[name]:
                    raise checks.CheckError(f"{name}: bytes differ from the first pass")
            except (checks.CheckError, OSError) as err:
                self.fail(f"{stage}: {err}")
                return False
        return True

    def run_pass(self, stages: tuple[str, ...], label: str,
                 traced: bool = False) -> list[StageRun] | None:
        """Run stages in order after removing their old outputs; None on failure."""
        for stage in stages:
            if stage != "probe":
                for name in checks.stage_artifacts(
                        stage, self.workload.cutoff, self.workload.spans):
                    (self.out / name).unlink(missing_ok=True)
        run_id = f"{self.workload.name}:{self.seed}:{label}"
        start = time.perf_counter_ns()
        results = []
        for stage in stages:
            result = self.run_stage(stage, run_id, traced)
            results.append(result)
            if result.exit_code != 0 or not self.check_stage(stage):
                return None
        if self.trace:
            self.spans.append({"id": run_id, "name": "pass", "tag": label, "parent": None,
                               "run": run_id, "start_ns": start,
                               "end_ns": time.perf_counter_ns(), "traced": traced})
        return results

    # -- phases ---------------------------------------------------------

    def run(self, seconds: float) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.out.mkdir(parents=True)
        try:
            return self._traced(seconds) if self.trace else self._timed(seconds)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _timed(self, seconds: float) -> dict:
        setup_walls = []
        for k in range(SETUP_PASSES):
            results = self.run_pass(("probe", *self.workload.setup), f"setup{k}")
            if results is None:
                return self.result({})
            setup_walls.append(sum(r.wall_s for r in results))
        iterations = []
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            results = self.run_pass(self.workload.timed, f"iter{len(iterations)}")
            if results is None:
                return self.result({})
            iterations.append(results)
            if self.out_of_time(start, begun, seconds):
                break
        self.iterations = len(iterations)
        metrics = {
            "wall_s": statistics.median(sum(r.wall_s for r in it) for it in iterations),
            "first_stage_s": statistics.median(it[0].wall_s for it in iterations),
            "last_stage_s": statistics.median(it[-1].wall_s for it in iterations),
            "peak_rss_mb": statistics.median(
                max(r.peak_rss_mb for r in it) for it in iterations),
            "setup_s": statistics.median(setup_walls),
        }
        return self.result({k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()})

    @staticmethod
    def out_of_time(start: float, begun: float, seconds: float) -> bool:
        """True when one more pass as long as the last would overrun the budget."""
        now = time.perf_counter()
        return now - start + (now - begun) > seconds

    def _traced(self, seconds: float) -> dict:
        setup = self.run_pass(("probe", *self.workload.setup), "setup", traced=True)
        if setup is None:
            return self.result({})
        setup_metrics = layers.pass_metrics([r.trace for r in setup if r.trace])
        untraced, traced, timed_metrics = [], [], []
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            for is_traced, walls in ((False, untraced), (True, traced)):
                label = f"iter{len(walls)}" + ("-traced" if is_traced else "")
                results = self.run_pass(self.workload.timed, label, traced=is_traced)
                if results is None:
                    return self.result({})
                walls.append(sum(r.wall_s for r in results))
            timed_metrics.append(layers.pass_metrics([r.trace for r in results if r.trace]))
            if self.out_of_time(start, begun, seconds):
                break
        counts = [{k: m[k] for k in layers.COUNTERS} for m in timed_metrics]
        if any(c != counts[0] for c in counts):
            self.fail("exact counters differ between traced iterations")
        self.iterations = len(traced)
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics = layers.combine(setup_metrics, timed_metrics, overhead)
        self.layer_counts = {k: metrics[k] for k in layers.COUNTERS}
        self.write_trace()
        return self.result({k: {"value": v, "unit": layers.UNITS[k]} for k, v in metrics.items()})

    def write_trace(self) -> None:
        """Write every span of the run, with self time per span name."""
        path = self.root / ".bench_work" / "traces" / f"{self.workload.name}-s{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        self.summary = layers.span_summary(self.spans)
        payload = {
            "workload": self.workload.name,
            "seed": self.seed,
            "clock": "time.perf_counter_ns (CLOCK_MONOTONIC, shared by all processes)",
            "unseen": self.unseen,
            "summary": self.summary,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, indent=1))
        self.trace_file = path

    # -- result ---------------------------------------------------------

    def result(self, metrics: dict) -> dict:
        self.check_record()
        return {
            "correct": self.failed == 0 and bool(metrics),
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": metrics,
        }

    def record_path(self) -> Path:
        """Where digests and counts of this workload, seed and program live."""
        source = hashlib.sha256()
        for path in sorted((self.root / "src").rglob("*.py")):
            source.update(path.relative_to(self.root).as_posix().encode())
            source.update(path.read_bytes())
        params = json.dumps(dataclasses.asdict(self.workload), sort_keys=True).encode()
        key = hashlib.sha256(source.digest() + params).hexdigest()[:16]
        return self.root / ".bench_work" / "records" / f"{self.workload.name}-s{self.seed}-{key}.json"

    def check_record(self) -> None:
        """Digests and exact counts must repeat across runs at one seed."""
        if self.failed:
            return
        path = self.record_path()
        current = {"digests": self.digests}
        if self.trace:
            current["counts"] = self.layer_counts
        stored = json.loads(path.read_text()) if path.exists() else {}
        for key, value in current.items():
            if key in stored and stored[key] != value:
                self.fail(f"{key} differ from an earlier run at seed {self.seed}: {path.name}")
                return
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**stored, **current}, indent=1, sort_keys=True))
