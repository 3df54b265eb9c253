"""eprfw benchmark: dense transport, Bell sweep, point queries and verify.

    python3 bench/run.py --workload transport_dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, one process
    python3 bench/run.py --self-test           # the oracles must catch mutations

One closed-loop caller in one process, no threads: each operation starts when
the previous one has returned and been checked.  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics of a traced run, which
follows an untraced run of the same length to measure the tracing overhead.
Spans, counters and the provenance record go to ``bench/out/``.  See
``bench/README.md`` for the metrics and the reasons for each workload.
"""

import time

T0 = time.perf_counter()  # a set-up probe's setup_s counts from here

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

# Set before numpy loads.  With OpenBLAS's default of one thread per core the
# first few hundred 2x2 exponentials of a process take ~8 ms each.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # reserved for confirming a claimed gain; never used while tuning one
MIN_ROUNDS = {"bell_sweep": 2}  # a rerun makes the CSV digest comparable
# Reference speed: the calibration kernel takes CAL_REF_S on the reference
# machine.  While a run measures, the kernel runs every CAL_EVERY_S of wall
# time, and an operation's speed is estimated over blocks of at least
# BLOCK_S of operation time.
CAL_REF_S = 0.00125
CAL_EVERY_S = 0.1
BLOCK_S = 0.25


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import eprfw
    except ImportError as exc:
        sys.exit(f"bench: cannot import eprfw from {src}: {exc}")
    if Path(eprfw.__file__).resolve().parent != src / "eprfw":
        sys.exit(f"bench: eprfw was imported from {eprfw.__file__}, not from {src}")


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    threads = max(int(v) for v in BLAS_THREADS.values())
    if threads > nproc:
        sys.exit(f"bench: {threads} BLAS threads exceed nproc={nproc}")
    return {
        "commit": git_commit(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


# -------------------------------------------------------------- measuring


def calibration_s() -> float:
    """Time of a fixed kernel of interpreter work and small numpy calls.

    The program's own mix is the same kind of work, so the kernel's time
    tracks the speed the machine runs it at, which drifts by tens of percent
    over minutes on a shared host.
    """
    a = np.array([[0.1, 0.2], [0.3, 0.4]])
    acc = 0.0
    start = time.perf_counter()
    for i in range(1000):
        acc += float((a @ a)[0, 0]) + {"k": i}["k"] * 1e-9
    return time.perf_counter() - start


class SpeedProbe:
    """Calibration samples taken on demand and, while ``sampling``, on a wall-clock timer.

    The timer runs the kernel from a SIGALRM handler, between bytecodes of
    whatever is running, including an operation; ``stolen`` adds up the wall
    time the samples took so that it can be taken out of the operation's time.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(calibration_s())
        self.stolen += time.perf_counter() - start
        self._busy = False

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def measure(rounds, seconds, min_rounds, oracle, tracer=None, samples_in_ops=True):
    """Run whole rounds until ``seconds`` of operation time; check each output after timing it.

    Returns the operation times, the same times at reference speed, and the
    items done.  Operations are grouped in blocks of at least BLOCK_S; an
    operation's reference-speed time is its time scaled by CAL_REF_S over the
    mean calibration time of its block, from the samples at the block's two
    ends and, with ``samples_in_ops``, those taken during it.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    probe = SpeedProbe()
    times, reference, items = [], [], 0
    block = []
    probe.sample()

    def close_block():
        nonlocal block
        probe.sample()
        scale = CAL_REF_S / statistics.mean(probe.samples)
        reference.extend(t * scale for t in block)
        block, probe.samples = [], probe.samples[-1:]

    with probe.sampling() if samples_in_ops else nullcontext():
        for n, ops in enumerate(rounds):
            if n >= min_rounds and sum(times) >= seconds:
                break
            for op in ops:
                with span("bench.op"):
                    stolen = probe.stolen
                    start = time.perf_counter()
                    out = op.run()
                    elapsed = time.perf_counter() - start - (probe.stolen - stolen)
                times.append(elapsed)
                block.append(elapsed)
                with span("bench.oracle"):
                    op.check(out, oracle)
                items += op.items
                if tracer:
                    tracer.count("transport.steps", op.steps)
                if sum(block) >= BLOCK_S:
                    close_block()
        if block:
            close_block()
    return times, reference, items


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of import + inputs + one warm-up call, measured and at reference speed."""
    measured, reference = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, cal = (float(x) for x in proc.stdout.split()[-2:])
        measured.append(elapsed)
        reference.append(elapsed * CAL_REF_S / cal)
    return statistics.median(measured), statistics.median(reference)


@contextmanager
def traced_library(tracer):
    """Rebind the public functions the workloads reach to timing wrappers."""
    from eprfw import cli, epr, transport

    targets = [
        (transport, "transport_from_connection", "transport.transport_from_connection"),
        (epr, "bell_report", "epr.bell_report"),
        (epr, "transport_params", "transport.transport_params"),
        (epr, "transport_closed_form", "transport.transport_closed_form"),
        (cli, "sweep_points", "cli.sweep_points"),
        (cli, "bell_rows", "cli.bell_rows"),
        (cli, "render_bell", "cli.render_bell"),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, name in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def end_to_end(wl, workload, seed, seconds):
    measured_setup_s, setup_s = setup_seconds(workload, seed)
    inputs = wl.make_inputs(workload, seed)
    wl.warm_up(workload, inputs)
    oracle = wl.Oracle()
    times, reference, items = measure(wl.rounds(workload, inputs), seconds,
                                      MIN_ROUNDS.get(workload, 1), oracle)

    def figures(op_times):
        p99 = statistics.quantiles(op_times, n=100, method="inclusive")[98] if len(op_times) > 1 else op_times[0]
        return items / sum(op_times), 1e3 * statistics.median(op_times), 1e3 * p99

    metrics = dict(zip(("ref_items_per_s", "ref_op_p50_ms", "ref_op_p99_ms"), figures(reference)))
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = dict(zip(("items_per_s", "op_p50_ms", "op_p99_ms"), figures(times)), setup_s=measured_setup_s)
    raw["machine_speed"] = sum(reference) / sum(times)
    return metrics, oracle, {"ops": len(times), "raw": raw}


def per_layer(wl, workload, seed, seconds):
    from eprfw import geometry

    from spans import Tracer

    inputs = wl.make_inputs(workload, seed)
    wl.warm_up(workload, inputs)
    untraced = wl.Oracle()
    # No samples inside operations in either phase: they would land in layer frames.
    _, reference, items = measure(wl.rounds(workload, inputs), seconds, MIN_ROUNDS.get(workload, 1), untraced,
                                  samples_in_ops=False)
    untraced_s_per_item = sum(reference) / items

    tracer = Tracer()
    oracle = wl.Oracle()
    with tracer.span("bench.run"):
        if workload == "verify":
            rounds = itertools.repeat([wl.traced_verify_op(tracer.wrap)])
            times, reference, items = measure(rounds, seconds, 1, oracle, tracer, samples_in_ops=False)
        else:
            hook = tracer.wrap("geometry.total_connection_at", geometry.total_connection_at)
            with traced_library(tracer):
                rounds = wl.rounds(workload, inputs, hook)
                times, reference, items = measure(rounds, seconds, MIN_ROUNDS.get(workload, 1), oracle, tracer,
                                                  samples_in_ops=False)

    def per(total, count, scale=1e6):
        return scale * total / count if count else 0.0

    steps = tracer.counters.get("transport.steps", 0)
    conn_calls = tracer.calls("geometry.total_connection_at")
    conn_s = tracer.total_s("geometry.total_connection_at")
    closed_form_s = tracer.total_s("transport.transport_params") + tracer.total_s("transport.transport_closed_form")
    points = tracer.calls("epr.bell_report")
    metrics = {
        "trace.wall_s": tracer.total_s("bench.run"),
        "trace_overhead_frac": (sum(reference) / items) / untraced_s_per_item - 1.0,
        "bench.self_s": tracer.self_s("bench"),
        "geometry.connection_s": conn_s,
        "geometry.connection_calls": conn_calls,
        "geometry.connection_us_per_step": per(conn_s, steps),
        "transport.self_s": tracer.self_s("transport"),
        "transport.self_us_per_step": per(tracer.self_s("transport.transport_from_connection"), steps),
        "transport.steps": steps,
        "transport.closed_form_us": per(closed_form_s, tracer.calls("transport.transport_closed_form")),
        "transport.max_abs_err": oracle.max_transport_err,
        "epr.self_s": tracer.self_s("epr"),
        "epr.bell_report_us": per(tracer.total_s("epr.bell_report"), points),
        "epr.points": points,
        "cli.self_s": tracer.self_s("cli"),
        "cli.rows_self_s": tracer.self_s("cli.bell_rows"),
        "cli.render_s": tracer.total_s("cli.render_bell"),
        "cli.render_bytes": oracle.rendered_bytes,
        "verify.self_s": tracer.self_s("verify"),
    }
    for name in wl.VERIFY_CHECKS:
        metrics[f"verify.check_s.{name}"] = per(tracer.total_s(f"verify.{name}"),
                                                tracer.calls(f"verify.{name}"), 1.0)
    oracle.merge(untraced)
    return metrics, oracle, {"tracer": tracer, "ops": len(times)}


# -------------------------------------------------------------- reporting


ALIASES = {
    "transport_dense": [("transport_steps_per_s", "items_per_s", 1.0, "1/s")],
    "bell_sweep": [("bell_points_per_s", "items_per_s", 1.0, "1/s")],
    "point_queries": [("call_p50_ms", "op_p50_ms", 1.0, "ms"), ("call_p99_ms", "op_p99_ms", 1.0, "ms")],
    "verify": [("verify_s", "op_p50_ms", 1e-3, "s")],
}


def run_workload(wl, workload, seed, seconds, trace, units):
    measure_fn = per_layer if trace else end_to_end
    metrics, oracle, info = measure_fn(wl, workload, seed, seconds)
    if set(metrics) != set(units):
        sys.exit(f"bench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    digests = sorted(set(oracle.csv_digests))
    correct = oracle.failed == 0 and len(digests) <= 1
    print(f"{workload} seed={seed} trace={trace} ops={info['ops']} "
          f"attempted={oracle.attempted} failed={oracle.failed}")
    for name, unit in units.items():
        print(f"  {name:<48s} {metrics[name]:.6g} {unit}")
    raw = info.get("raw", {})
    for name, value in raw.items():
        print(f"  measured {name:<39s} {value:.6g}")
    if not trace:
        for alias, name, scale, unit in ALIASES[workload]:
            print(f"  = {alias} {raw[name] * scale:.6g} {unit} measured, "
                  f"{metrics['ref_' + name] * scale:.6g} {unit} at reference speed")
        print(f"  = error_rate {oracle.failed / oracle.attempted:.6g}")
    if digests:
        print(f"  bell csv sha256 {' '.join(digests)} over {len(oracle.csv_digests)} renders")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": provenance(), "metrics": metrics, "measured": raw, "csv_sha256": digests}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    if trace:
        info["tracer"].write(path, record)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return correct, oracle.attempted, oracle.failed, metrics


def result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


# -------------------------------------------------------------- self-test


def self_test(wl, seed) -> int:
    """Clean first rounds pass; a flipped connection and a corrupted row fail."""
    problems = []
    for workload in wl.WORKLOADS:
        if wl.make_inputs(workload, seed) != wl.make_inputs(workload, seed):
            problems.append(f"{workload}: same seed gave different inputs")
    if wl.make_inputs("point_queries", seed) == wl.make_inputs("point_queries", seed + 1):
        problems.append("point_queries: different seeds gave equal inputs")

    def first_round(workload, connection_fn=None, mutate=lambda out: out):
        oracle = wl.Oracle()
        for op in next(wl.rounds(workload, wl.make_inputs(workload, seed), connection_fn)):
            op.check(mutate(op.run()), oracle)
        return oracle

    cases = [
        ("transport_dense", "clean", first_round("transport_dense"), False),
        ("transport_dense", "flipped connection", first_round("transport_dense", wl.flipped_connection), True),
        ("point_queries", "clean", first_round("point_queries"), False),
        ("point_queries", "flipped connection", first_round("point_queries", wl.flipped_connection), True),
        ("bell_sweep", "clean", first_round("bell_sweep"), False),
        ("bell_sweep", "one corrupted row", first_round("bell_sweep", mutate=wl.corrupt_first_row), True),
    ]
    for workload, label, oracle, must_fail in cases:
        print(f"{workload:<16s} {label:<20s} attempted={oracle.attempted} failed={oracle.failed}")
        if (oracle.failed > 0) != must_fail:
            problems.append(f"{workload} {label}: failed={oracle.failed}")
    for problem in problems:
        print(f"SELF-TEST FAIL: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads as wl

    if args.setup_probe:
        wl.warm_up(args.workload, wl.make_inputs(args.workload, args.seed))
        elapsed = time.perf_counter() - T0
        print(elapsed, statistics.median(calibration_s() for _ in range(5)))
        return 0
    if args.self_test:
        return self_test(wl, args.seed)

    units = declared_metrics()[args.trace]
    if args.workload != "all":
        if args.workload not in wl.WORKLOADS:
            parser.error(f"--workload must be one of {wl.WORKLOADS} or all")
        outcome = run_workload(wl, args.workload, args.seed, args.seconds, args.trace, units)
        print(result_line(*outcome, units))
        return 0

    correct, attempted, failed, merged, merged_units = True, 0, 0, {}, {}
    for workload in wl.WORKLOADS:
        ok, n, bad, metrics = run_workload(wl, workload, args.seed, args.seconds, args.trace, units)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        for name, unit in units.items():
            merged[f"{workload}.{name}"] = metrics[name]
            merged_units[f"{workload}.{name}"] = unit
    print(result_line(correct, attempted, failed, merged, merged_units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
