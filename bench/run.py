"""gomptest benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. NAME is one of the workloads in
BENCHMARK.json, or `all` to run each in turn. Each workload runs in fresh
interpreters with OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS
set to 1: set-up is measured in SETUP_RUNS of them (median), the closed loop
in one of them. Every metric is printed by name with its unit, and the last
line of output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. A fuller record, with the machine's
details, goes to .bench_results/ and, for traced runs, the spans beside it.
--smoke shrinks every workload to toy size for a quick self-test.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
SETUP_RUNS = 3
# A workload's run must end within 180 s; the measuring child gets what
# the set-up children left of this.
DEADLINE_S = 170.0
# Printed beside the BENCHMARK.json metrics; they can be 0, so the JSON
# result carries their complement (fit_converged_frac) or the failed count.
EXTRA_UNITS = {"fallback_frac": "ratio", "failed_frac": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy-size workloads")
    return p.parse_args(argv)


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def child(args, timeout):
    """Run measure.py in a fresh interpreter and return its JSON result.

    The child leads its own process group, so a timeout stops it together
    with any pool workers it started.
    """
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "measure.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(spec, args, host):
    deadline = time.monotonic() + DEADLINE_S
    name = args.workload
    tag = f"{name}_seed{args.seed}_trace{args.trace}"
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    common += ["--smoke"] if args.smoke else []
    setup = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setup.append(child(common + ["--setup-only"], deadline - time.monotonic())["setup_s"])
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{tag}_spans.jsonl"
    extra = ["--trace", "1", "--spans", str(spans_path)] if args.trace else []
    res = child(common + extra, deadline - time.monotonic())
    setup.append(res["setup_s"])

    if args.trace:
        values = res["layers"]
        declared = spec["per_layer"]
        shown = dict(values)
    else:
        values = dict(res["e2e"], setup_s=statistics.median(setup))
        declared = spec["end_to_end"]
        shown = {m["name"]: values[m["name"]] for m in declared}
        shown.update((k, values[k]) for k in EXTRA_UNITS)
    units = dict(EXTRA_UNITS, **{m["name"]: m["unit"] for m in declared})

    print(f"[bench] workload={name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}")
    print(f"[bench] why: {res['why']}")
    for layer_metric, moves in res["moves"]:
        print(f"[bench] predicted: {layer_metric} -> {moves}")
    checks = " ".join(f"{k}={v}" for k, v in res["checks"].items())
    print(f"[bench] checks {'passed' if res['correct'] else 'FAILED'}: {checks}")
    for msg in res["check_failures"]:
        print(f"[bench] check failure: {msg}")
    print(f"[bench] result_digest={res['result_digest']}")
    for layer in res.get("absent", []):
        print(f"[bench] absent: {layer} not found; its layer's metrics are reported as null")
    for key, value in shown.items():
        note = ""
        if key == "latency_tail_ms":
            note = f" (p{values['latency_tail_percentile']}, {values['latency_samples']} samples)"
        if key == "setup_s":
            note = f" (median of {len(setup)} fresh interpreters)"
        print(f"{key} {'absent' if value is None else repr(value)} {units[key]}{note}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    (RESULTS / f"{tag}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "machine": host,
                "setup_runs_s": setup,
                "values": values,
                "units": units,
                "checks": res["checks"],
                "check_failures": res["check_failures"],
                "result_digest": res["result_digest"],
                "why": res["why"],
                "predicted": res["moves"],
                "spans": spans_path.name if args.trace else None,
            },
            indent=2,
        )
    )
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "gomptest" / "__init__.py").is_file():
        print(f"bench: no gomptest sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"bench: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    host = machine()
    print("[bench] machine: " + " ".join(f"{k}={v!r}" for k, v in host.items()))
    for name in names if args.workload == "all" else [args.workload]:
        result = run_workload(spec, argparse.Namespace(**dict(vars(args), workload=name)), host)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
