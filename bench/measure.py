"""Measure one workload in a fresh interpreter; run.py starts this file.

Prints one JSON object as its last line of output: set-up time, raw
end-to-end figures, per-layer figures (traced runs), check counts and the
result digest. run.py turns it into the benchmark's result.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="file to write the traced run's spans to")
    return p.parse_args(argv)


def tail_percentile(values):
    """(value, percentile, samples): the highest percentile with ten samples beyond it.

    With fewer than 11 samples no percentile has ten beyond it; the maximum
    is reported with percentile 100.
    """
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100, n
    pct = math.floor(100 * (n - 10) / n)
    return v[max(1, math.ceil(pct * n / 100)) - 1], pct, n


class Run:
    """Operations of one measurement, in the order they ran."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.records = []
        self.attempted = 0
        self.failed = 0

    def op(self, i, workers=None, tracer=None, op_id=None):
        """Run operation i; returns (record, seconds, units). Inputs are made untimed."""
        inputs = self.workload.inputs(self.seed, i)
        span = None
        if tracer is not None:
            tracer.op = op_id
            span = tracer.begin("op." + self.workload.name, self.workload.root_layer)
        t = time.perf_counter()
        record, units, failed = self.workload.call(inputs, workers)
        seconds = time.perf_counter() - t
        if span is not None:
            tracer.end(span)
        self.attempted += units
        self.failed += failed
        return record, seconds, units

    def loop(self, start, seconds, min_ops):
        """Closed loop from operation `start` for `seconds`; keeps the records."""
        latencies, units = [], 0
        i = start
        t0 = time.perf_counter()
        while i - start < min_ops or time.perf_counter() - t0 < seconds:
            record, lat, u = self.op(i)
            self.records.append(record)
            latencies.append(lat)
            units += u
            i += 1
        return latencies, units, time.perf_counter() - t0, i


def end_to_end(run, latencies, units, wall):
    fallback = fits = 0
    for rec in run.records:
        f, t = run.workload.fits(rec)
        fallback += f
        fits += t
    tail, pct, samples = tail_percentile(latencies)
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "throughput_per_s": units / wall,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail,
        "latency_tail_percentile": pct,
        "latency_samples": samples,
        "peak_rss_mb": rss_kib / 1024,
        "fallback_frac": fallback / fits if fits else 0.0,
        "fit_converged_frac": 1 - fallback / fits if fits else 0.0,
        "failed_frac": run.failed / run.attempted,
    }


def install_tracer(tracer):
    """Rebind the layer entry points that bootstrap and simulation look up."""
    from gomptest import bootstrap, simulation

    def fit_rows(args, result):
        fallback = getattr(result, "fallback", None)
        iterations = getattr(result, "iterations", None)
        return {
            "rows": int(args[0].shape[0]),
            "fallback": None if fallback is None else int(fallback.sum()),
            "iters": None if iterations is None else int(iterations.sum()),
        }

    tracer.wrap(bootstrap, "_gompertz_quantile_raw", "distributions")
    tracer.wrap(bootstrap, "fit_batch", "estimation", annotate=fit_rows)
    tracer.wrap(bootstrap, "_t_closed_form_rows", "stein_statistic")
    for name in ("_ks_rows", "_ad_rows", "_cm_rows", "_wa_rows"):
        tracer.wrap(bootstrap, name, "edf_tests")
    tracer.wrap(simulation, "bootstrap_many", "bootstrap")
    tracer.wrap(simulation, "_cell_chunks", "simulation", annotate=lambda a, r: {"chunks": len(r)})
    tracer.count_instances(simulation, "ProcessPoolExecutor", "simulation")


_BOOT = "gomptest.bootstrap."
_SIM = "gomptest.simulation."
_IN_BOOTSTRAP = (
    _BOOT + "_gompertz_quantile_raw",
    _BOOT + "fit_batch",
    _BOOT + "_t_closed_form_rows",
    *(f"{_BOOT}_{k}_rows" for k in ("ks", "ad", "cm", "wa")),
    _SIM + "bootstrap_many",
)
# The wrapped names each metric rests on, by metric name prefix; a metric
# whose names are gone is reported absent. Self time of bootstrap and
# simulation needs every span nested in it.
REQUIRES = {
    "distributions.": (_BOOT + "_gompertz_quantile_raw",),
    "estimation.": (_BOOT + "fit_batch",),
    "stein_statistic.": (_BOOT + "_t_closed_form_rows",),
    "edf_tests.": tuple(f"{_BOOT}_{k}_rows" for k in ("ks", "ad", "cm", "wa")),
    "bootstrap.self_ms": _IN_BOOTSTRAP,
    "bootstrap.share": _IN_BOOTSTRAP,
    "simulation.share": (_SIM + "bootstrap_many",),
    "simulation.pools_created": (_SIM + "ProcessPoolExecutor",),
    "simulation.chunks": (_SIM + "_cell_chunks",),
}


def layer_metrics(workload, tracer, layer_ops, units, study):
    """Per-layer figures per operation from the spans of `layer_ops`.

    `study` holds the workers=2 study spans' op ids and the serial and
    parallel wall times, or is None on a gof workload.
    """
    from spans import duration, layer_self_seconds
    from workloads import bytes_computed

    spans = [s for s in tracer.spans if s["op"] in layer_ops]
    self_s = layer_self_seconds(spans)
    total = sum(duration(s) for s in spans if s["parent"] is None and not s["detached"])
    named = {}
    for s in spans:
        named.setdefault(s["layer"], []).append(s)
    fits = [s for s in named.get("estimation", []) if s["name"].endswith("fit_batch")]
    rows = sum(s["rows"] for s in fits)
    n_a = len(workload.a_grid) if "stein" in workload.tests else 0

    def per_op(seconds):
        return 1000 * seconds / units

    def share(layer):
        return self_s.get(layer, 0.0) / total

    def fit_total(attr):
        vals = [s[attr] for s in fits]
        return None if None in vals else sum(vals)

    fallback_rows = fit_total("fallback")
    iters = fit_total("iters")
    m = {
        "estimation.fit_ms": per_op(self_s.get("estimation", 0.0)),
        "estimation.us_per_row": 1e6 * self_s.get("estimation", 0.0) / rows if rows else 0.0,
        "estimation.rows": rows / units,
        "estimation.fallback_rows": None if fallback_rows is None else fallback_rows / units,
        "estimation.fallback_frac": None if fallback_rows is None or not rows else fallback_rows / rows,
        "estimation.newton_iters_mean": None if iters is None or not rows else iters / rows,
        "estimation.share": share("estimation"),
        "stein_statistic.ms": per_op(self_s.get("stein_statistic", 0.0)),
        "stein_statistic.ms_per_a": per_op(self_s.get("stein_statistic", 0.0)) / n_a if n_a else 0.0,
        "stein_statistic.calls": len(named.get("stein_statistic", [])) / units,
        "stein_statistic.share": share("stein_statistic"),
        "edf_tests.ms": per_op(self_s.get("edf_tests", 0.0)),
        "edf_tests.calls": len(named.get("edf_tests", [])) / units,
        "edf_tests.share": share("edf_tests"),
        "distributions.quantile_ms": per_op(self_s.get("distributions", 0.0)),
        "distributions.share": share("distributions"),
        "bootstrap.self_ms": per_op(self_s.get("bootstrap", 0.0)),
        "bootstrap.bytes_computed": bytes_computed(workload),
        "bootstrap.share": share("bootstrap"),
        "simulation.share": share("simulation"),
        "simulation.cell_s": 0.0,
        "simulation.pools_created": 0.0,
        "simulation.chunks": 0.0,
        "simulation.speedup": 0.0,
    }
    if study is not None:
        par = [s for s in tracer.spans if s["op"] in study["ops"]]
        calls = len(study["ops"])
        m["simulation.pools_created"] = sum(s["name"].endswith("ProcessPoolExecutor") for s in par) / calls
        chunked = [s["chunks"] for s in par if s["name"].endswith("_cell_chunks")]
        m["simulation.chunks"] = sum(chunked) / calls
        m["simulation.cell_s"] = study["cell_s"]
        m["simulation.speedup"] = study["serial_s"] / study["parallel_s"]
    for prefix, names in REQUIRES.items():
        if any(n in tracer.absent for n in names):
            for key in m:
                if key.startswith(prefix):
                    m[key] = None
    return m


def traced_run(run, start, seconds, min_ops, spans_path):
    """Untraced half then traced half; returns (per-layer metrics, absent names)."""
    from spans import Tracer

    wl = run.workload
    study = wl.root_layer == "simulation"
    latencies, units, _, i = run.loop(start, seconds / 2, min_ops)
    untraced_rate = units / sum(latencies)

    tracer = Tracer()
    install_tracer(tracer)
    layer_ops, timed_ops = [], []
    timed_s = serial_s = 0.0
    layer_units = timed_units = 0
    cell_seconds = []
    first = i
    t0 = time.perf_counter()
    try:
        while i - first < min_ops or time.perf_counter() - t0 < seconds / 2:
            op_id = f"{i}/parallel" if study else i
            record, lat, u = run.op(i, None, tracer, op_id)
            run.records.append(record)
            timed_ops.append(op_id)
            timed_s += lat
            timed_units += u
            if study:
                cell_seconds += [getattr(c, "seconds", math.nan) for c in record["report"].cells]
                # The same configuration serially: pool workers keep their
                # spans, so the in-process layers are measured here.
                op_id = f"{i}/serial"
                _, lat, u = run.op(i, 1, tracer, op_id)
                serial_s += lat
            layer_ops.append(op_id)
            layer_units += u
            i += 1
    finally:
        tracer.restore()

    info = None
    if study:
        cell_s = statistics.fmean(cell_seconds)
        info = {
            "ops": set(timed_ops),
            "cell_s": None if math.isnan(cell_s) else cell_s,
            "serial_s": serial_s,
            "parallel_s": timed_s,
        }
    metrics = layer_metrics(wl, tracer, set(layer_ops), layer_units, info)
    metrics["trace.throughput_ratio"] = timed_units / timed_s / untraced_rate
    if spans_path:
        tracer.dump(spans_path)
    return metrics, tracer.absent


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    import workloads  # numpy and gomptest: part of set-up

    wl = workloads.get(args.workload, args.smoke)
    run = Run(wl, args.seed)
    record, _, _ = run.op(0)
    run.records.append(record)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    min_ops = workloads.DIGEST_OPS - 1
    if args.trace:
        out["layers"], out["absent"] = traced_run(run, 1, args.seconds, min_ops, args.spans)
    else:
        latencies, units, wall, _ = run.loop(1, args.seconds, min_ops)
        out["e2e"] = end_to_end(run, latencies, units, wall)

    checks, bad = wl.check(run.records)
    out.update(
        attempted=run.attempted,
        failed=run.failed,
        correct=not bad,
        checks=checks,
        check_failures=bad[:10],
        result_digest=workloads.result_digest(wl, run.records),
        why=wl.why,
        moves=wl.moves,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
