"""Benchmark the facility toolkit end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload campaign|elastic|monitor|service \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see each module's docstring for why it exists):

* ``campaign`` — the paper's Figure 2 window through the ``repro run F2``
  steps;
* ``elastic``  — a faulted, carbon-aware malleable trace, killed and resumed;
* ``monitor``  — a week of cabinet power through the supervised live
  pipeline, killed and resumed;
* ``service``  — an open-loop eight-tenant request mix against one
  facility service.

Every run checks the program's outputs and counts an operation whose check
fails as failed. With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics, measured with tracing off. With
``--trace 1`` the run is split into an untraced and a traced pass over the
same inputs; the traced pass wraps the program's entry points from this
directory, writes its spans to ``.perfbench/traces/`` and reports the
per-layer metrics, the ratio of traced to untraced cost
(``trace.overhead``), and fails if a named layer boundary saw no call or
if tracing changed the program's outputs.

Set-up time is a fresh-process ``import`` of the workload's modules plus
building its inputs, taken here and in two more fresh processes; the
median is reported.

Rates and set-up time are reported in reference seconds (``speed.py``):
wall time scaled by the machine's speed, which a reference call timed
every 50 ms samples while the program runs, so a slow spell on a shared
host does not read as a slower program. Per-layer times and resume times are read the same
way; latencies are wall time. The wall-clock rate and set-up time are
reported per layer beside them (``machine.raw_throughput_per_s``,
``machine.raw_setup_s``), with the speed itself (``machine.speed``, 1.0 on
the nominal machine).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import CLOCK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("campaign", "elastic", "monitor", "service")
SETUP_SAMPLES = 3
#: The seed a gain claim is tuned on; predictions.json names the seeds it
#: is re-checked on.
DEFAULT_SEED = 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only time import and input building, print them as JSON and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_workload(name: str):
    """Import the workload module and, through it, the program.

    Returns the module and the wall interval the import took.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    module = importlib.import_module(name)
    return module, (t0, time.perf_counter())


def setup_probe(args: argparse.Namespace) -> dict:
    """Time one set-up in a fresh interpreter."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-probe",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload, inputs, args: argparse.Namespace, machine: dict, scratch: Path):
    """Run the workload untraced, or an untraced and a traced half-pass.

    Returns the measurement, the untraced half-pass of a traced run (else
    ``None``) and the path of the trace written (else ``None``).
    """
    from tracing import NullTracer, Tracer

    if not args.trace:
        return workload.run(inputs, args.seconds, NullTracer()), None, None
    plain = workload.run(inputs, args.seconds / 2, NullTracer())
    tracer = Tracer()
    origin = time.perf_counter()
    try:
        measured = workload.run(inputs, args.seconds / 2, tracer)
    finally:
        tracer.unpatch()
    trace_path = scratch / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    tracer.write_jsonl(trace_path, origin, {**header, "machine": machine})
    checks = {f"calls at {name}": tracer.calls(name) > 0 for name in workload.REQUIRED}
    checks["traced and untraced outputs equal"] = measured.checksum == plain.checksum
    measured.check("traced run", checks)
    measured.ops += plain.ops
    measured.failed += plain.failed
    measured.failures += plain.failures
    return measured, plain, trace_path


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    scratch = ROOT / ".perfbench"
    with CLOCK:
        workload, import_span = load_workload(args.workload)
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        with CLOCK:
            t0 = time.perf_counter()
            inputs = workload.build_inputs(args.seed, args.seconds, workdir)
            inputs_span = (t0, time.perf_counter())
        setup = {
            "import_s": CLOCK.reference_s(*import_span),
            "inputs_s": CLOCK.reference_s(*inputs_span),
            "wall_s": import_span[1] - import_span[0] + inputs_span[1] - inputs_span[0],
        }
        if args.setup_probe:
            print(json.dumps(setup))
            return 0

        import common

        machine = common.machine_state()
        setups = [setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        setup_s = common.median([s["import_s"] + s["inputs_s"] for s in setups])
        with CLOCK:
            start = time.perf_counter()
            measured, plain, trace_path = measure(workload, inputs, args, machine, scratch)
            speed = CLOCK.speed(start, time.perf_counter())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine:", json.dumps(machine, sort_keys=True))
    for name, (value, unit) in measured.named.items():
        print(f"  {name:<16} {value:14.4f} {unit}")
    print(f"  at wall-clock speed {measured.raw_throughput:14.4f} 1/s (machine speed {speed:.3f})")
    for failure in measured.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(f"  checks: {measured.ops - measured.failed}/{measured.ops} operations passed")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        # Values a pass measures without spans come from the untraced pass.
        layer = {**measured.layer, **plain.layer}
        layer["setup.import_s"] = common.median([s["import_s"] for s in setups])
        layer["setup.inputs_s"] = common.median([s["inputs_s"] for s in setups])
        layer["trace.overhead"] = measured.work_s / plain.work_s
        layer["machine.speed"] = speed
        layer["machine.raw_throughput_per_s"] = plain.raw_throughput
        layer["machine.raw_setup_s"] = common.median([s["wall_s"] for s in setups])
        specs = benchmark["per_layer"]
    else:
        layer = {
            "throughput_per_s": measured.throughput,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        specs = benchmark["end_to_end"]
    metrics = {}
    for spec in specs:
        # A layer the workload does not run reports 0.
        value = layer.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<36} {value:16.6g} {spec['unit']}")
    if args.trace:
        print(f"  trace written to {trace_path.relative_to(ROOT)}")

    print(
        json.dumps(
            {
                "correct": measured.failed == 0,
                "attempted": measured.ops,
                "failed": measured.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
