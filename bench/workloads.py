"""The benchmark's workloads: what each one runs, why, and how it is checked.

Every input sample of the gof workloads is generated here from the workload
seed, and the library receives only those samples. The study workload hands
run_study a configuration whose master seed derives from the workload seed.
All loops are closed with one client: the next operation starts when the
previous one has returned.

An operation is one bootstrap_many call on a gof workload and one study
replicate on the study workload; each run_study call of the study workload
runs 2 cells of M replicates.
"""

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from gomptest import (
    AlternativeSpec,
    GompertzParams,
    SimulationConfig,
    StatisticInput,
    TestKind,
    bootstrap_many,
    report_to_csv,
    rescale,
    run_study,
    t_statistic_quadrature,
)

ALPHA = 0.05
# The scale a fit reports when it found no root (documented in FitResult).
FALLBACK_B = 0.001
# The CLI's default stein grid today, pinned so that the workload stays fixed
# if the library default changes.
DEFAULT_A_GRID = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
EDF = ("ks", "ad", "cm", "wa")
# Outputs of the first DIGEST_OPS operations form result_digest, so the
# digest does not depend on how many operations fit in the measured time.
DIGEST_OPS = 4
QUADRATURE_RTOL = 1e-8


def _op_seed(seed, i):
    return (seed << 32) | i


def draw_gompertz_1_1(rng, n):
    """GO(1, 1) by inverse transform; the clamp keeps every value positive."""
    return np.log1p(-np.log1p(-np.maximum(rng.random(n), np.finfo(float).tiny)))


def draw_gamma_0_8(rng, n):
    """gamma(0.8): coefficient of variation 1.12, so no interior scale MLE."""
    return rng.standard_gamma(0.8, n)


def bytes_computed(workload):
    """Computed (not measured) bytes of the (B, n) float64 arrays per call.

    The bootstrap layer builds the uniforms, their clamped copy, the
    bootstrap sample and the rescaled rows; with EDF kinds also the PIT
    values and their clipped copy.
    """
    edf = any(t != "stein" for t in workload.tests)
    return 8 * workload.B * workload.n * (4 + (2 if edf else 0))


@dataclass(frozen=True)
class Gof:
    """bootstrap_many on one fresh sample per operation."""

    name: str
    why: str
    moves: tuple  # (layer metric, end-to-end metric and workload it should move)
    draw: object  # (numpy Generator, n) -> sample
    n: int
    B: int
    tests: tuple
    a_grid: tuple = ()
    smoke: tuple = ()  # field overrides for the toy-size mode
    root_layer = "bootstrap"

    @property
    def kinds(self):
        stein = tuple(TestKind("stein", a) for a in self.a_grid) if "stein" in self.tests else ()
        return stein + tuple(TestKind(k) for k in self.tests if k != "stein")

    def inputs(self, seed, i):
        return self.draw(np.random.default_rng([seed, i]), self.n), _op_seed(seed, i)

    def call(self, inputs, workers=None):
        """One operation; returns (record, units, failed units)."""
        x, bseed = inputs
        try:
            out = bootstrap_many(x, self.kinds, B=self.B, alpha=ALPHA, seed=bseed)
        except (ValueError, ArithmeticError) as exc:
            return {"x": x, "error": repr(exc)}, 1, 1
        return {"x": x, "out": out}, 1, 0

    def fits(self, record):
        """(fits on the fallback, fits) of one operation: data fit plus refits."""
        if "out" not in record:
            return 0, 0
        first = next(iter(record["out"].values()))
        boot = round(first.not_found_frequency_bootstrap * self.B)
        return int(first.fit.fallback_used) + boot, self.B + 1

    def digest_lines(self, record):
        if "out" not in record:
            yield "failed " + record["error"]
            return
        for kind, o in record["out"].items():
            f = o.fit
            yield " ".join(
                [
                    str(kind),
                    o.statistic.hex(),
                    o.p_value.hex(),
                    o.critical_value.hex(),
                    str(o.reject),
                    o.not_found_frequency_bootstrap.hex(),
                    f.eta_hat.hex(),
                    f.b_hat.hex(),
                    str(f.fallback_used),
                    str(f.iterations),
                ]
            )

    def check(self, records):
        """Check every operation's outputs against public oracles.

        Returns ({check: cases checked}, [failure messages]).
        """
        counts = {"decision": 0, "p_value_range": 0, "fallback_b": 0, "stein_vs_quadrature": 0}
        bad = []
        for i, rec in enumerate(records):
            if "out" not in rec:
                continue
            fit = next(iter(rec["out"].values())).fit
            counts["fallback_b"] += 1
            if fit.fallback_used and fit.b_hat != FALLBACK_B:
                bad.append(f"op {i}: fallback fit has b_hat={fit.b_hat!r}")
            stat_input = None
            for kind, o in rec["out"].items():
                counts["decision"] += 1
                if o.reject != (o.statistic > o.critical_value):
                    bad.append(f"op {i} {kind}: reject disagrees with statistic > critical value")
                counts["p_value_range"] += 1
                if not 0.0 <= o.p_value <= 1.0:
                    bad.append(f"op {i} {kind}: p_value {o.p_value!r} outside [0, 1]")
                if kind.name == "stein":
                    if stat_input is None:
                        stat_input = StatisticInput.from_rescaled(rescale(rec["x"], o.fit))
                    counts["stein_vs_quadrature"] += 1
                    ref = t_statistic_quadrature(stat_input, kind.a)
                    if not math.isclose(o.statistic, ref, rel_tol=QUADRATURE_RTOL):
                        bad.append(f"op {i} {kind}: statistic {o.statistic!r} vs quadrature {ref!r}")
        return counts, bad

@dataclass(frozen=True)
class Study:
    """run_study over two scenarios at one sample size per operation batch."""

    name: str
    why: str
    moves: tuple
    scenarios: tuple
    n: int
    M: int
    B: int
    tests: tuple
    a_grid: tuple
    workers: int
    smoke: tuple = ()
    root_layer = "simulation"

    def inputs(self, seed, i):
        return SimulationConfig(
            scenarios=self.scenarios,
            sizes=(self.n,),
            a_grid=self.a_grid,
            tests=self.tests,
            alpha=ALPHA,
            replications=self.M,
            bootstrap=self.B,
            seed=_op_seed(seed, i),
        )

    def call(self, config, workers=None):
        report = run_study(config, workers=workers or self.workers, progress=False)
        units = sum(c.replications for c in report.cells)
        return {"report": report}, units, sum(c.failures for c in report.cells)

    def fits(self, record):
        cells = record["report"].cells
        fallback = sum(c.not_found_fit + c.not_found_boot for c in cells)
        return fallback, sum((c.replications - c.failures) * (1 + c.bootstrap) for c in cells)

    def digest_lines(self, record):
        report = record["report"]
        yield report_to_csv(report)
        yield " ".join(str(c.failures) for c in report.cells)

    def check(self, records):
        """Count and rate checks on every cell, and worker invariance once.

        The first operation's configuration is rerun with workers=1 (untimed)
        and its CSV must equal the workers=2 CSV byte for byte.
        """
        counts = {"cell_counts": 0, "csv_workers_1_vs_2": 0}
        bad = []
        for i, rec in enumerate(records):
            for c in rec["report"].cells:
                counts["cell_counts"] += 1
                valid = c.replications - c.failures
                if not 0 <= c.failures <= c.replications:
                    bad.append(f"op {i} {c.scenario}: failures {c.failures} out of range")
                if any(not 0 <= r <= valid for r in c.rejections.values()):
                    bad.append(f"op {i} {c.scenario}: rejections exceed valid replicates")
                if not 0 <= c.not_found_boot <= valid * c.bootstrap:
                    bad.append(f"op {i} {c.scenario}: bootstrap fallbacks out of range")
        first = records[0]["report"]
        serial, _, _ = self.call(first.config, workers=1)
        counts["csv_workers_1_vs_2"] += 1
        if report_to_csv(serial["report"]) != report_to_csv(first):
            bad.append("study CSV differs between workers=1 and workers=2")
        return counts, bad

WORKLOADS = {
    w.name: w
    for w in (
        Gof(
            name="gof-null-default",
            why=(
                "The call users make, GO(1,1) data with the CLI default battery; "
                "stein over 10 a values dominates it, so a shared a-grid engine shows here."
            ),
            moves=(
                ("stein_statistic.ms, .ms_per_a", "latency_*, throughput_per_s (largest share here)"),
                ("estimation.fit_ms, .us_per_row", "latency_*, throughput_per_s (second share)"),
                ("edf_tests.ms", "nothing much (control, about 1%)"),
                ("estimation.fallback_rows", "fit_converged_frac (no fallbacks today)"),
                ("simulation.*", "none (no study runs)"),
            ),
            draw=draw_gompertz_1_1,
            n=100,
            B=500,
            tests=("stein",) + EDF,
            a_grid=DEFAULT_A_GRID,
            smoke=(("n", 20), ("B", 20), ("a_grid", (1.0, 2.0))),
        ),
        Gof(
            name="gof-boundary-edf",
            # gamma(1) = Exp(1) samples straddle the boundary: at n=1000 about half
            # have a coefficient of variation above 1 and no interior root, so the
            # cost per call is bimodal (README.md). gamma(0.8) puts every sample
            # on the boundary side.
            why=(
                "gamma(0.8) data at n=1000 sit on the b->0 boundary, so root finding and "
                "the fallback dominate, the (B, n) arrays are largest, and stein does no work."
            ),
            moves=(
                ("estimation.fit_ms, .us_per_row, .newton_iters_mean", "latency_*, throughput_per_s (largest share here)"),
                ("estimation.fallback_rows", "fit_converged_frac"),
                ("distributions.quantile_ms, bootstrap.self_ms, .bytes_computed", "peak_rss_mb, latency_*"),
                ("stein_statistic.*", "none (stein is not called)"),
                ("simulation.*", "none (no study runs)"),
            ),
            draw=draw_gamma_0_8,
            n=1000,
            B=500,
            tests=EDF,
            smoke=(("n", 50), ("B", 20)),
        ),
        Study(
            name="study-small-n",
            why=(
                "A Monte-Carlo study at n=30 with 2 workers, where per-call numpy overhead "
                "and one process pool per cell dominate, so batching and a single pool show here."
            ),
            moves=(
                ("simulation.cell_s, .pools_created, .chunks, .speedup", "throughput_per_s, latency_*"),
                ("estimation.fit_ms, stein_statistic.ms, edf_tests.ms", "throughput_per_s (per replicate)"),
                ("estimation.fallback_rows", "fit_converged_frac"),
            ),
            scenarios=(GompertzParams(0.5, 1.0), AlternativeSpec("lognormal", sigma=0.5)),
            n=30,
            M=16,
            B=200,
            tests=("stein",) + EDF,
            a_grid=(1.0, 2.0),
            workers=2,
            smoke=(("M", 4), ("B", 20), ("n", 15)),
        ),
    )
}


def get(name, smoke=False):
    w = WORKLOADS[name]
    return replace(w, **dict(w.smoke)) if smoke else w


def result_digest(workload, records):
    h = hashlib.sha256()
    for rec in records[:DIGEST_OPS]:
        for line in workload.digest_lines(rec):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()
