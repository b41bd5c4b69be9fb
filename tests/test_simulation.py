import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from gomptest.bootstrap import TestKind, bootstrap_test
from gomptest.distributions import AlternativeSpec, GompertzParams
from gomptest.rng import derive_key
from gomptest.simulation import (
    DEFAULT_A_GRID,
    SimulationConfig,
    SimulationReport,
    config_from_file,
    parse_family,
    report_to_csv,
    run_study,
    scenario_label,
)

SMALL = dict(replications=20, bootstrap=40, seed=11, alpha=0.05)


def _counts(report):
    return [
        (c.scenario, c.n, dict(c.rejections), c.not_found_fit, c.not_found_boot, c.clipped,
         c.failures)
        for c in report.cells
    ]


def test_parse_family():
    assert parse_family("gompertz eta=1 b=2") == GompertzParams(1.0, 2.0)
    assert parse_family("gamma k=3") == AlternativeSpec("gamma", k=3)
    assert parse_family("ln sigma=0.5") == AlternativeSpec("lognormal", sigma=0.5)
    for bad in ("", "gamma", "gamma k", "gamma k=x", "gamma q=3", "nosuch x=1"):
        with pytest.raises(ValueError):
            parse_family(bad)


def test_scenario_label():
    assert scenario_label(GompertzParams(0.5, 1.0)) == "gompertz(0.5,1)"
    assert scenario_label(AlternativeSpec("gamma", k=3)) == "gamma(3)"


def test_config_validation():
    good = SimulationConfig(scenarios=(GompertzParams(1, 1),), sizes=(20,))
    assert good.a_grid == DEFAULT_A_GRID and good.alpha == 0.05
    with pytest.raises(ValueError):
        SimulationConfig(scenarios=(), sizes=(20,))
    with pytest.raises(ValueError):
        SimulationConfig(scenarios=("gompertz",), sizes=(20,))
    with pytest.raises(ValueError):
        SimulationConfig(scenarios=(GompertzParams(1, 1),), sizes=(1,))
    with pytest.raises(ValueError):
        SimulationConfig(scenarios=(GompertzParams(1, 1),), sizes=(20,), tests=("nope",))
    with pytest.raises(ValueError):
        SimulationConfig(scenarios=(GompertzParams(1, 1),), sizes=(20,), tests=("ks", "ks"))
    with pytest.raises(ValueError):
        SimulationConfig(scenarios=(GompertzParams(1, 1),), sizes=(20,), alpha=1.0)
    with pytest.raises(ValueError):
        SimulationConfig(scenarios=(GompertzParams(1, 1),), sizes=(20,), replications=0)
    # each setting goes to the rule that owns it, at construction: a seed the
    # run would refuse, and every a of the grid, stein requested or not
    base = dict(scenarios=(GompertzParams(1, 1),), sizes=(20,))
    for bad, match in (
        (dict(seed=-1), "seeds"), (dict(seed=2**64), "seeds"),
        (dict(a_grid=(math.inf,), tests=("ks",)), "weight parameter a"),
        (dict(alpha="1.5"), "alpha must"), (dict(alpha=math.nan), "alpha must"),
    ):
        with pytest.raises(ValueError, match=match):
            SimulationConfig(**{**base, **bad})
    text = SimulationConfig(**base, a_grid=("0.5", 2), alpha="0.1")
    assert (text.a_grid, text.alpha) == ((0.5, 2.0), 0.1)


def test_config_rejects_non_integral_counts_instead_of_truncating():
    base = dict(scenarios=(GompertzParams(1, 1),), sizes=(20,))
    bad_values = (
        dict(sizes=(30.5,)), dict(replications=2.7), dict(bootstrap=19.9), dict(seed=1.9),
        dict(sizes=(math.inf,)), dict(replications=math.inf), dict(bootstrap=math.inf),
        dict(seed=math.inf), dict(replications=math.nan), dict(seed="-inf"),
    )
    for bad in bad_values:
        with pytest.raises(ValueError, match="whole number"):
            SimulationConfig(**{**base, **bad})
    # config-file text and integral numbers of any type still convert
    cfg = SimulationConfig(
        scenarios=base["scenarios"], sizes=("50", 30.0), replications=np.int64(7),
        bootstrap="40", seed=np.uint64(3),
    )
    assert (cfg.sizes, cfg.replications, cfg.bootstrap, cfg.seed) == ((50, 30), 7, 40, 3)
    assert all(type(v) is int for v in (*cfg.sizes, cfg.replications, cfg.bootstrap, cfg.seed))
    # a bool is not a count or a seed
    for name, value in (("sizes", (True,)), ("replications", True), ("bootstrap", True),
                        ("seed", True)):
        with pytest.raises(ValueError, match=name):
            SimulationConfig(**{**base, name: value})


def test_run_study_rejects_fewer_than_one_worker():
    cfg = SimulationConfig(scenarios=(GompertzParams(1, 1),), sizes=(15,), tests=("ks",), **SMALL)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_study(cfg, workers=workers, progress=False)


def test_run_study_rejects_a_non_integer_worker_count_before_starting_a_pool(monkeypatch):
    import gomptest.simulation as simulation

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", no_pool)
    cfg = SimulationConfig(scenarios=(GompertzParams(1, 1),), sizes=(15,), tests=("ks",), **SMALL)
    for workers in (2.5, 2.0, "2", None, True):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_study(cfg, workers=workers, progress=False)


def test_config_kind_expansion():
    cfg = SimulationConfig(
        scenarios=(GompertzParams(1, 1),), sizes=(20,), a_grid=(0.5, 2.0),
        tests=("Stein ", " KS"),
    )
    assert cfg.tests == ("stein", "ks")  # stored as _expand_tests normalises them
    assert cfg.kinds() == (TestKind("stein", 0.5), TestKind("stein", 2.0), TestKind("ks"))


def test_study_deterministic_and_worker_invariant():
    cfg = SimulationConfig(
        scenarios=(GompertzParams(1.0, 1.0), AlternativeSpec("gamma", k=3)),
        sizes=(15,), a_grid=(1.0,), tests=("stein", "ks"), **SMALL,
    )
    r1 = run_study(cfg, workers=1, progress=False)
    r2 = run_study(cfg, workers=1, progress=False)
    r3 = run_study(cfg, workers=2, progress=False)
    assert _counts(r1) == _counts(r2) == _counts(r3)


def test_study_makes_one_pool_per_run(monkeypatch):
    import gomptest.simulation as simulation

    pools = []

    class CountingPool(simulation.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", CountingPool)
    cfg = SimulationConfig(
        scenarios=(GompertzParams(1.0, 1.0), AlternativeSpec("gamma", k=3)),
        sizes=(15,), a_grid=(1.0,), tests=("ks",), **SMALL,
    )
    report = run_study(cfg, workers=2, progress=False)
    assert len(report.cells) == 2
    assert len(pools) == 1


def test_cells_keyed_by_scenario_not_position():
    base = dict(sizes=(15,), a_grid=(1.0,), tests=("stein",), **SMALL)
    fwd = run_study(
        SimulationConfig(
            scenarios=(GompertzParams(1.0, 1.0), AlternativeSpec("gamma", k=3)), **base
        ),
        progress=False,
    )
    rev = run_study(
        SimulationConfig(
            scenarios=(AlternativeSpec("gamma", k=3), GompertzParams(1.0, 1.0)), **base
        ),
        progress=False,
    )
    fwd_map = {(c.scenario, c.n): dict(c.rejections) for c in fwd.cells}
    rev_map = {(c.scenario, c.n): dict(c.rejections) for c in rev.cells}
    assert fwd_map == rev_map


def test_study_replicates_match_bootstrap_test():
    # replicate i of a cell is exactly a bootstrap_test call with derived seeds
    from gomptest.simulation import _fnv1a
    from gomptest.distributions import gompertz_sample

    scenario = GompertzParams(1.0, 1.0)
    cfg = SimulationConfig(
        scenarios=(scenario,), sizes=(15,), a_grid=(1.0,), tests=("stein",), **SMALL
    )
    report = run_study(cfg, progress=False)
    kind = TestKind("stein", 1.0)
    cell_seed = derive_key(cfg.seed, _fnv1a(scenario_label(scenario)), 15)
    rejects = 0
    for i in range(cfg.replications):
        x = gompertz_sample(scenario, 15, derive_key(cell_seed, i, 0))
        out = bootstrap_test(
            x, kind, B=cfg.bootstrap, alpha=cfg.alpha, seed=derive_key(cell_seed, i, 1)
        )
        rejects += int(out.reject)
    assert report.cells[0].rejections[kind] == rejects


def test_cell_rates():
    cfg = SimulationConfig(
        scenarios=(AlternativeSpec("lognormal", sigma=0.5),), sizes=(40,),
        a_grid=(1.0,), tests=("stein",), **SMALL,
    )
    cell = run_study(cfg, progress=False).cells[0]
    kind = TestKind("stein", 1.0)
    assert cell.rejection_rate(kind) == cell.rejections[kind] / cfg.replications
    assert 0.0 <= cell.not_found_fit_rate() <= 1.0
    assert 0.0 <= cell.not_found_boot_rate() <= 1.0
    # lognormal at n=40 is already a strong alternative
    assert cell.rejection_rate(kind) >= 0.5


def test_report_csv_format_and_parse_back():
    cfg = SimulationConfig(
        scenarios=(GompertzParams(1.0, 1.0),), sizes=(15,), a_grid=(1.0,),
        tests=("stein", "ks"), **SMALL,
    )
    report = run_study(cfg, progress=False)
    text = report_to_csv(report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "scenario", "n", "test", "a", "rejection_rate", "notfound_fit", "notfound_boot",
        "failures", "valid_replications", "clipped",
    ]
    assert len(rows) == 1 + 2  # one row per (cell, kind)
    by_test = {r[2]: r for r in rows[1:]}
    assert by_test["stein"][3] == "1" and by_test["ks"][3] == "NA"
    cell = report.cells[0]
    for kind in (TestKind("stein", 1.0), TestKind("ks")):
        row = by_test[kind.name]
        assert abs(float(row[4]) - cell.rejection_rate(kind)) <= 5e-5
        assert abs(float(row[5]) - cell.not_found_fit_rate()) <= 5e-5
        assert abs(float(row[6]) - cell.not_found_boot_rate()) <= 5e-5
        assert row[7:] == [
            str(cell.failures), str(cell.replications - cell.failures), str(cell.clipped)
        ]


def test_report_csv_empty_report():
    cfg = SimulationConfig(scenarios=(GompertzParams(1, 1),), sizes=(20,))
    text = report_to_csv(SimulationReport(config=cfg, cells=(), seconds=0.0))
    assert text.splitlines() == [
        "scenario,n,test,a,rejection_rate,notfound_fit,notfound_boot,failures,valid_replications,"
        "clipped"
    ]


def test_config_from_file(tmp_path):
    p = tmp_path / "study.cfg"
    p.write_text(
        "# comment\n"
        "scenarios = gompertz eta=1 b=1; gamma k=3\n"
        "sizes = 20, 50\n"
        "a_grid = 1, 2\n"
        "tests = stein, ad\n"
        "alpha = 0.1\n"
        "replications = 25\n"
        "bootstrap = 40\n"
        "seed = 7\n"
    )
    cfg = config_from_file(p)
    assert cfg.scenarios == (GompertzParams(1, 1), AlternativeSpec("gamma", k=3))
    assert cfg.sizes == (20, 50) and cfg.a_grid == (1.0, 2.0)
    assert cfg.tests == ("stein", "ad") and cfg.alpha == 0.1
    assert cfg.replications == 25 and cfg.bootstrap == 40 and cfg.seed == 7


def test_config_keys_are_the_fields_of_simulation_config(tmp_path):
    # each key's text in a config file and the value that sets the same field
    # through the constructor
    settings = {
        "scenarios": ("gamma k=3; ln sigma=0.5",
                      (AlternativeSpec("gamma", k=3), AlternativeSpec("lognormal", sigma=0.5))),
        "sizes": ("20, 50", (20, 50)),
        "a_grid": ("1, 2.5", (1.0, 2.5)),
        "tests": ("stein, AD", ("stein", "ad")),
        "alpha": ("0.1", 0.1),
        "replications": ("25", 25),
        "bootstrap": ("40", 40),
        "seed": ("7", 7),
    }
    assert list(settings) == [f.name for f in dataclasses.fields(SimulationConfig)]
    p = tmp_path / "study.cfg"
    for key, (text, value) in settings.items():
        lines = {"scenarios": "gompertz eta=1 b=1", "sizes": "30", key: text}
        p.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        expected = dict(scenarios=(GompertzParams(1, 1),), sizes=(30,))
        assert config_from_file(p) == SimulationConfig(**{**expected, key: value}), key
    # keys match in any case
    p.write_text("".join(f"{k.upper()} = {text}\n" for k, (text, _) in settings.items()))
    assert config_from_file(p) == SimulationConfig(**{k: v for k, (_, v) in settings.items()})


def test_config_file_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("sizes = 20\n")
    with pytest.raises(ValueError):
        config_from_file(p)  # scenarios missing
    p.write_text("scenarios = gompertz eta=1 b=1\n")
    with pytest.raises(ValueError):
        config_from_file(p)  # sizes missing
    p.write_text("scenarios = gompertz eta=1 b=1\nsizes = 20\nbogus = 3\n")
    with pytest.raises(ValueError):
        config_from_file(p)
    p.write_text("scenarios = gompertz eta=1 b=1\nsizes = 20\ntests = nope\n")
    with pytest.raises(ValueError):
        config_from_file(p)


def test_parse_family_rejects_a_repeated_key():
    with pytest.raises(ValueError, match="repeated key 'k'"):
        parse_family("gamma k=1 k=3")
    with pytest.raises(ValueError, match="repeated key 'eta'"):
        parse_family("gompertz eta=1 b=1 eta=2")


def test_config_rejects_a_setting_given_twice(tmp_path):
    p = tmp_path / "twice.cfg"
    head = "scenarios = gompertz eta=1 b=1\n"
    for lines in ("sizes = 20\nsizes = 50\n",
                  "sizes = 20\nreplications = 100\nreplications = 50\n",
                  "sizes = 20\nseed = 1\nseed = 2\n",
                  "sizes = 20\nbootstrap = 40\nbootstrap = 40\n",
                  "sizes = 20\nscenarios = gamma k=3\n",
                  "sizes = 20\na_grid = 1\na_grid = 2\n"):
        p.write_text(head + lines)
        with pytest.raises(ValueError, match="twice"):
            config_from_file(p)


def test_rates_exclude_failed_replicates():
    # 8 of the 20 replicates raise ScoreOverflowError; all 12 others reject,
    # and their fallback fits leave 229 of the 360 data PIT values to be clipped
    cfg = SimulationConfig(
        scenarios=(AlternativeSpec("lognormal", sigma=6),), sizes=(30,), tests=("ks",),
        replications=20, bootstrap=20, seed=1,
    )
    report = run_study(cfg, progress=False)
    cell = report.cells[0]
    kind = TestKind("ks")
    counts = (cell.failures, cell.rejections[kind], cell.not_found_fit, cell.not_found_boot)
    assert counts + (cell.clipped,) == (8, 12, 12, 92, 229)
    assert cell.rejection_rate(kind) == 1.0
    assert cell.not_found_fit_rate() == 1.0
    assert cell.not_found_boot_rate() == 92 / (12 * 20)
    assert report_to_csv(report).splitlines()[1] == "lognormal(6),30,ks,NA,1.0000,1.0000,0.3833,8,12,229"


def test_rates_are_nan_when_every_replicate_fails():
    cfg = SimulationConfig(
        scenarios=(AlternativeSpec("lognormal", sigma=20),), sizes=(30,), tests=("ks",),
        replications=4, bootstrap=10, seed=1,
    )
    report = run_study(cfg, progress=False)
    cell = report.cells[0]
    assert (cell.failures, cell.clipped) == (4, 0)
    assert np.isnan(cell.rejection_rate(TestKind("ks")))
    assert np.isnan(cell.not_found_fit_rate()) and np.isnan(cell.not_found_boot_rate())
    assert report_to_csv(report).splitlines()[1] == "lognormal(20),30,ks,NA,nan,nan,nan,4,0,0"
