#!/usr/bin/env python3
"""Layered benchmark of the wronoc command line.

Run from the repository root:

    python3 bench/run.py --workload p1-front --seed 0 --seconds 25 --trace 0

One run measures one workload in this single process (``peak_rss_mb``
belongs to that workload).  The loop is closed, with one client and one
request in flight: a request is one ``wronoc.cli.main(argv)`` call, from
reading the instance file to writing the JSON result.  Request *i* of a
run with seed *S* solves ``generate(GenSpec(seed=S + i, jitter_pm=100))``;
the run cycles over the workload's instance list until its requests have
taken ``--seconds``.  No thread or subprocess is started.

``--trace 0`` reports the end-to-end metrics.  Their timings are given in
reference seconds, which cancel the host's speed drift (see
``hostspeed``): a timer signal times a fixed calibration unit every 0.1 s.
``--trace 1`` runs every request twice, once plain and once with layer
spans recorded (alternating which goes first), and reports the per-layer
metrics and the tracing overhead.  Every output is checked (see
``check``); a request that fails a check counts in ``failed``.  The last
line of standard output is the result as one JSON object; the lines before
it are a readable report.  Traced runs also write their spans to
``bench/_out/``.

The workloads, why each was chosen and which metrics each layer should
move are described in ``bench/README.md``.
"""

import time

_STARTED = time.perf_counter()  # set-up is timed from here: interpreter start-up is excluded

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "wronoc" / "cli.py").is_file():
    sys.exit(f"bench: no wronoc sources at {ROOT / 'src' / 'wronoc'}; run from a wronoc checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from wronoc import cli, generator, model, verify  # noqa: E402
from wronoc.parallelism import ParallelismSolution  # noqa: E402
from wronoc.spacing import SpacingProblem, SpacingSolution  # noqa: E402

_IMPORTED = time.perf_counter()

DEFAULT_SEED = 0
JITTER_PM = 100  # with no jitter the generator ignores the seed
SETUP_ROUNDS = 3
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the p90
REFERENCE = BENCH / "reference.json"
WORK = BENCH / "_work"
OUT = BENCH / "_out"


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    exit_code: int  # 0 solved, 1 proven infeasible
    # Distinct instances in the request list, cycled.  Instances differ in
    # cost, so each run takes enough of them that its mean cost varies
    # little from seed to seed: more than a run's requests where those are
    # slow, at least 64 where they are fast.
    instances: int
    time_limit: float  # per-request --time-limit: several times the slowest request


WORKLOADS = {
    "p1-front": Workload(("max-parallelism", "--delta", "100", "--n-radii", "4"), 0, 64, 1.0),
    "p1-tight": Workload(("max-parallelism", "--delta", "1000", "--n-radii", "16"), 1, 16, 20.0),
    "p2-refined": Workload(
        ("spacing", "--mode", "refined", "--n-radii", "3", "--parallelism", "3"), 0, 40, 8.0),
    "p2-base": Workload(
        ("spacing", "--mode", "base", "--n-radii", "2", "--parallelism", "2"), 0, 32, 8.0),
}

END_TO_END_UNITS = {"ref_requests_per_s": "1/s", "ref_request_ms_p50": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "model.parse_ms": "ms", "model.digest_ms": "ms", "model.resonances": "count",
    "conflict.build_ms": "ms", "conflict.pairs": "count", "conflict.peak_alloc_mb": "MB",
    "parallelism.solve_ms": "ms", "parallelism.optimal": "count",
    "parallelism.infeasible": "count", "parallelism.timeout": "count",
    "spacing.solve_ms": "ms", "spacing.timeout": "count",
    "verify.check_ms": "ms", "cli.self_ms": "ms", "generator.generate_ms": "ms",
    "gc.pause_ms": "ms", "gc.collections": "count",
    "trace.overhead_pct": "%", "trace.requests": "count",
}


@dataclass(frozen=True)
class Request:
    index: int  # position in the request list; -1 for the warm-up
    instance_seed: int
    argv: tuple[str, ...]


@dataclass
class Outcome:
    request: Request
    exit_code: int | str  # a string names an exception that escaped cli.main
    output: str | None
    started: float  # perf_counter at the call
    seconds: float
    timed: bool
    traced: bool = False
    scale: float = 1.0  # reference seconds per second during this request
    failures: list = field(default_factory=list)  # filled in by check()


def generate(instance_seed: int):
    return generator.generate(generator.GenSpec(seed=instance_seed, jitter_pm=JITTER_PM))


def make_request(wl: Workload, index: int, instance_seed: int, work: Path) -> Request:
    name = "warmup" if index < 0 else str(index)
    argv = (*wl.argv,
            "--instance", str(work / f"seed-{instance_seed}.txt"),
            "--time-limit", str(wl.time_limit),
            "--out", str(work / f"out-{name}.json"))
    return Request(index, instance_seed, argv)


def execute(request: Request, timed: bool, tracer=None) -> Outcome:
    out = Path(request.argv[-1])
    out.unlink(missing_ok=True)
    argv = list(request.argv)
    started = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.request():
                code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed request, not a failed run
        code = f"exception {type(exc).__name__}"
    elapsed = time.perf_counter() - started
    try:
        output = out.read_text(encoding="utf-8")
    except OSError:
        output = None
    return Outcome(request, code, output, started, elapsed, timed, tracer is not None)


# --- output checks ---------------------------------------------------------


def _flag(argv, name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def canonical(document: dict) -> str:
    """The payload without ``wall_time_ms``, as the text repeats must match.

    The echoed instance path is cut to its file name, which holds the
    instance seed, because the work directory differs between runs.
    """
    document = dict(document)
    document.pop("wall_time_ms", None)
    command = dict(document["command"])
    command["instance"] = Path(command["instance"]).name
    document["command"] = command
    return json.dumps(document, sort_keys=True)


def objective(document: dict):
    result = document["result"]
    return result["P"] if result["type"] == "parallelism" else result["dist_pm"]


def verify_payload(document: dict, instance, argv) -> list[str]:
    """Re-check an emitted payload with ``wronoc.verify`` on our own instance."""
    problems = []
    if document["instance_digest"] != model.instance_digest(instance):
        problems.append("instance digest differs")
    result = document["result"]
    if document["status"] != result["status"]:
        problems.append("status differs from result status")
    rows = result["rows"]
    for row in rows:
        noms = instance.entry(row["radius"]).nominals()
        if row["nominal_pm"] != [noms[j] for j in row["indices"]]:
            problems.append(f"radius {row['radius']}: nominal_pm do not match indices")
    n_radii = int(_flag(argv, "--n-radii"))
    if result["type"] == "parallelism":
        solution = ParallelismSolution(
            tuple(result["selected_radii"]),
            {row["radius"]: tuple(row["indices"]) for row in rows},
            {row["radius"]: row["q"] for row in rows},
            result["P"], result["status"])
        problems += verify.check_parallelism_solution(instance, solution, n_radii)
    else:
        problem = SpacingProblem(n_radii, int(_flag(argv, "--parallelism")),
                                 _flag(argv, "--mode"))
        solution = SpacingSolution(
            tuple(result["selected_radii"]),
            tuple(tuple(row["indices"]) for row in rows),
            result["dist_pm"], result["status"])
        problems += verify.check_spacing_solution(instance, problem, solution)
    return problems


def check(outcomes: list[Outcome], wl: Workload, instances: dict, reference: dict) -> Counter:
    """Mark failed requests; return failure causes counted per request.

    A request fails when its exit code is not the expected one, when its
    payload does not pass ``wronoc.verify`` on the benchmark's own copy of
    the instance, when it differs from an earlier repeat of the same
    request, or when a pinned reference exists for its instance and the
    objective, selected radii or payload digest disagree with it.
    """
    causes: Counter = Counter()
    first_seen: dict[int, str] = {}
    payload_problems: dict[str, list[str]] = {}
    for outcome in outcomes:
        request = outcome.request
        found = []
        if outcome.exit_code != wl.exit_code:
            found.append(f"exit {outcome.exit_code}")
        if outcome.output is None:
            found.append("no output")
        else:
            try:
                document = json.loads(outcome.output)
                text = canonical(document)
                if text not in payload_problems:
                    payload_problems[text] = _payload_problems(
                        document, text, request, instances, reference)
                found += payload_problems[text]
                if first_seen.setdefault(request.index, text) != text:
                    found.append("differs from an earlier repeat")
            except (ValueError, KeyError, TypeError, IndexError, AttributeError):
                found.append("malformed payload")
        outcome.failures = found
        causes.update(set(found))
    return causes


def _payload_problems(document, text, request, instances, reference) -> list[str]:
    argv = request.argv
    instance = instances[request.instance_seed]
    delta = _flag(argv, "--delta")
    if delta is not None:
        instance = model.apply_delta(instance, int(delta))
    found = ["verify: " + p for p in verify_payload(document, instance, argv)]
    pinned = reference.get(request.instance_seed)
    if pinned is not None:
        if objective(document) != pinned["objective"]:
            found.append("reference: objective")
        if document["result"]["selected_radii"] != pinned["selected_radii"]:
            found.append("reference: selected radii")
        if hashlib.sha256(text.encode()).hexdigest() != pinned["payload_sha256"]:
            found.append("reference: payload digest")
    return found


def load_reference(workload: str) -> dict:
    """Pinned results for the default seed, keyed by instance seed."""
    entries = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"].get(workload, [])
    return {e["instance_seed"]: e for e in entries}


# --- measurement -----------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    outcomes: list
    setup_rounds_s: list
    setup_scales: list  # reference seconds per second in each round (untraced)
    host_scale: float | None  # reference seconds per second over the run (untraced)
    generate_s: list
    busy_s: float  # time spent in timed requests
    peak_rss_mb: float
    causes: Counter
    tracer: tracing.Tracer | None = None
    plain_s: float = 0.0  # paired plain and traced request time (traced runs)
    traced_s: float = 0.0
    alloc_peaks: tuple = ()

    @property
    def timed(self) -> list:
        return [o for o in self.outcomes if o.timed and not o.traced]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.failures)

    @property
    def raw_setup_s(self) -> float:
        return (_IMPORTED - _STARTED) + statistics.median(self.setup_rounds_s)

    @property
    def setup_s(self) -> float:
        """Imports plus the median set-up round, in reference seconds.

        The imports run before sampling starts; the first round's scale,
        the nearest, is used for them.
        """
        rounds = [s * k for s, k in zip(self.setup_rounds_s, self.setup_scales)]
        return (_IMPORTED - _STARTED) * self.setup_scales[0] + statistics.median(rounds)


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict,
            max_requests: int | None = None, setup_rounds: int = SETUP_ROUNDS) -> Run:
    """Set up, run the closed loop for ``seconds`` of requests, check every output.

    A set-up round generates and writes the request list's instance files
    and makes one warm-up request on the default seed's first instance, so
    its time does not depend on the seed.  The first round runs before the
    loop; the others run at even intervals inside it, so that their median
    samples the host over the whole run rather than over the few seconds
    before it.  Untraced runs time calibration units from a timer signal
    throughout (see ``hostspeed``); their time is taken out of every
    request and round.  The rounds do not count towards ``seconds``.
    ``max_requests`` caps the loop (the smoke test uses it).
    """
    wl = WORKLOADS[workload]
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    seeds = sorted({DEFAULT_SEED, *range(seed, seed + wl.instances)})
    requests = [make_request(wl, i, seed + i, work) for i in range(wl.instances)]
    warmup = make_request(wl, -1, DEFAULT_SEED, work)
    outcomes, rounds, generate_s = [], [], []

    def set_up() -> None:
        started = time.perf_counter()
        for s in seeds:
            t = time.perf_counter()
            instance = generate(s)
            generate_s.append(time.perf_counter() - t)
            (work / f"seed-{s}.txt").write_text(
                model.format_instance(instance), encoding="utf-8")
        # No instance is kept: the loop's heap, which the garbage collector
        # walks, should hold no more than one CLI run's.
        del instance
        outcomes.append(execute(warmup, timed=False))
        rounds.append((started, time.perf_counter()))

    sampler = None if trace else hostspeed.Sampler()
    try:
        with sampler.running() if sampler else contextlib.nullcontext():
            set_up()
            tracer = tracing.Tracer(cli, model, verify) if trace else None
            alloc_peaks: list[int] = []
            if tracer is not None:
                with tracer.conflict_alloc_probe(alloc_peaks):
                    outcomes.append(execute(requests[0], timed=False))
            plain_s = traced_s = 0.0
            n = 0
            while True:
                request = requests[n % len(requests)]
                # Traced runs pair each request with a plain one and
                # alternate which side runs first.
                sides = ((None,) if tracer is None
                         else (None, tracer) if n % 2 == 0 else (tracer, None))
                for side in sides:
                    outcome = execute(request, timed=True, tracer=side)
                    outcomes.append(outcome)
                    if side is None:
                        plain_s += outcome.seconds
                    else:
                        traced_s += outcome.seconds
                n += 1
                busy_s = plain_s + traced_s
                if max_requests is not None and n >= max_requests or busy_s >= seconds:
                    break
                if len(rounds) < setup_rounds and busy_s >= len(rounds) * seconds / setup_rounds:
                    set_up()
            while len(rounds) < setup_rounds:
                set_up()
        # The workload's own peak, before the checks below allocate.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        causes = check(outcomes, wl, {s: generate(s) for s in seeds}, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rounds_s = [end - start for start, end in rounds]
    setup_scales, host_scale = [], None
    if sampler is not None:
        for outcome in outcomes:
            end = outcome.started + outcome.seconds
            outcome.scale = sampler.scale(outcome.started, end)
            outcome.seconds -= sampler.unit_s(outcome.started, end)
        rounds_s = [end - start - sampler.unit_s(start, end) for start, end in rounds]
        setup_scales = [sampler.scale(start, end) for start, end in rounds]
        busy_s = sum(o.seconds for o in outcomes if o.timed)
        host_scale = sampler.run_scale()
    return Run(workload, seed, trace, outcomes, rounds_s, setup_scales, host_scale,
               generate_s, busy_s, peak_rss_mb, causes, tracer, plain_s, traced_s,
               tuple(alloc_peaks))


# --- metrics and report ----------------------------------------------------


def end_to_end_metrics(run: Run) -> dict:
    good = sum(1 for o in run.timed if not o.failures)
    return {
        "ref_requests_per_s": good / sum(o.seconds * o.scale for o in run.timed),
        "ref_request_ms_p50": statistics.median(o.seconds * o.scale * 1000 for o in run.timed),
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": run.setup_s,
    }


def per_layer_metrics(run: Run) -> dict:
    tracer = run.tracer
    requests = tracer.requests
    self_ns = tracer.self_ns()

    def layer_ms(span: str) -> float:
        return self_ns.get(span, 0) / requests / 1e6

    def mean(values) -> float:
        return statistics.fmean(values) if values else 0.0

    return {
        "model.parse_ms": layer_ms("model.parse"),
        "model.digest_ms": layer_ms("model.digest"),
        "model.resonances": mean(tracer.sizes["model.resonances"]),
        "conflict.build_ms": layer_ms("conflict.build"),
        "conflict.pairs": mean(tracer.sizes["conflict.pairs"]),
        "conflict.peak_alloc_mb": max(run.alloc_peaks, default=0) / 2**20,
        "parallelism.solve_ms": layer_ms("parallelism.solve"),
        "parallelism.optimal": tracer.counts["parallelism.optimal"],
        "parallelism.infeasible": tracer.counts["parallelism.infeasible"],
        "parallelism.timeout": tracer.counts["parallelism.timeout"],
        "spacing.solve_ms": layer_ms("spacing.solve"),
        "spacing.timeout": tracer.counts["spacing.timeout"],
        "verify.check_ms": layer_ms("verify.check"),
        "cli.self_ms": layer_ms(tracing.REQUEST),
        "generator.generate_ms": mean(run.generate_s) * 1000,
        "gc.pause_ms": tracer.gc_pause_ns / requests / 1e6,
        "gc.collections": tracer.gc_collections / requests,
        "trace.overhead_pct": (run.traced_s / run.plain_s - 1) * 100 if run.plain_s else 0.0,
        "trace.requests": tracer.requests,
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(run: Run) -> dict:
    wl = WORKLOADS[run.workload]
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wronoc").rglob("*.py")):
        sources.update(path.read_bytes())
    return {
        "workload": run.workload,
        "seed": run.seed,
        "trace": int(run.trace),
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "time_limit_s": wl.time_limit,
        "instances": wl.instances,
        "requests_timed": len(run.timed),
        "requests_attempted": len(run.outcomes),
        "setup_rounds": len(run.setup_rounds_s),
        "ref_unit_s": hostspeed.REF_UNIT_S,
        "loop": "closed, one client, one request in flight",
    }


def _timing_lines(run: Run) -> list[str]:
    """Sample counts, the p90s and the wall-clock figures."""
    timed = run.timed
    lines = [f"  samples: ref_request_ms_p50 is the median of {len(timed)} requests",
             f"  {'request_ms_p50':24} "
             f"{statistics.median(o.seconds * 1000 for o in timed):14.4f} ms (wall clock)"]
    for label, ms in (("request_ms", sorted(o.seconds * 1000 for o in timed)),
                      ("ref_request_ms", sorted(o.seconds * o.scale * 1000 for o in timed))):
        if len(ms) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(ms, n=10)[-1]
            lines.append(f"  {label + '_p90':24} {p90:14.4f} ms "
                         f"({len(ms)} samples, {sum(v > p90 for v in ms)} beyond)")
        else:
            lines.append(f"  {label}_p90: not reported, {len(ms)} samples < {P90_MIN_SAMPLES}")
    good = sum(1 for o in timed if not o.failures)
    lines.append(f"  {'requests_per_s':24} {good / run.busy_s:14.4f} 1/s (wall clock)")
    lines.append(f"  {'raw_setup_s':24} {run.raw_setup_s:14.4f} s (wall clock)")
    lines.append(f"  timed {len(timed)} requests in {run.busy_s:.2f} s; host at "
                 f"{run.host_scale:.3f} reference s per s; "
                 "set-up rounds " + ", ".join(f"{s:.3f}" for s in run.setup_rounds_s)
                 + f" s after {_IMPORTED - _STARTED:.3f} s of imports")
    return lines


def report(run: Run) -> dict:
    """Print the readable report and the result line; return the result."""
    lines = [f"wronoc benchmark: workload {run.workload}, seed {run.seed}, "
             f"trace {int(run.trace)}",
             "provenance " + json.dumps(provenance(run), sort_keys=True)]
    if run.trace:
        metrics = per_layer_metrics(run)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(run)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        lines.append(f"  {name:24} {value:14.4f} {units[name]}")
    if run.trace:
        self_ns = run.tracer.self_ns()
        ranked = sorted(self_ns.items(), key=lambda item: -item[1])
        lines.append("  layers by self time per traced request: " + ", ".join(
            f"{name} {ns / run.tracer.requests / 1e6:.1f} ms" for name, ns in ranked))
    else:
        lines += _timing_lines(run)
    attempted = len(run.outcomes)
    lines.append(f"  {'failed_ratio':24} {run.failed / attempted:14.4f} ratio "
                 f"({run.failed} of {attempted} attempted)"
                 + ("" if not run.causes else "; causes: " + json.dumps(dict(run.causes))))
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return result


def write_spans(run: Run) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{run.workload}-s{run.seed}.json"
    document = {"provenance": provenance(run), **run.tracer.dump()}
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  load_reference(args.workload))
    if run.trace:
        print(f"spans written to {write_spans(run).relative_to(ROOT)}")
    report(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
