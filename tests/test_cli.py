import csv
import dataclasses
import io

import numpy as np
import pytest

from gomptest.cli import main
from gomptest.distributions import AlternativeSpec, GompertzParams, alt_sample, gompertz_sample
from gomptest.estimation import fit_mle
from gomptest.simulation import SimulationConfig


def _write_sample(path, n=80, seed=7, eta=1.0, b=1.0):
    x = gompertz_sample(GompertzParams(eta, b), n, seed)
    path.write_text("value\n" + "".join(f"{v:.15g}\n" for v in x))
    return x


def test_fit_success(tmp_path, capsys):
    data = tmp_path / "x.csv"
    _write_sample(data, n=200, seed=1)
    assert main(["fit", "--input", str(data)]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["n"] == "200"
    assert 0.3 < float(fields["b_hat"]) < 3.0
    assert fields["converged"] in ("True", "False")


def test_fit_reads_back_its_own_precision(tmp_path, capsys):
    # 15 significant digits round-trip through write and read
    data = tmp_path / "x.csv"
    x = _write_sample(data, n=50, seed=3)
    main(["fit", "--input", str(data)])
    capsys.readouterr()
    from gomptest.lifetable import _read_rows as _read_column
    back = _read_column(str(data))
    rewritten = "".join(f"{v:.15g}\n" for v in back)
    assert rewritten == "".join(f"{v:.15g}\n" for v in x)


def test_fit_error_codes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("value\n1.0\n-2.0\n")
    assert main(["fit", "--input", str(bad)]) == 2
    bad.write_text("value\n2.0\n2.0\n2.0\n")
    assert main(["fit", "--input", str(bad)]) == 2
    assert main(["fit", "--input", str(tmp_path / "missing.csv")]) == 2
    capsys.readouterr()


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["nosuchcommand"]) == 2
    capsys.readouterr()


def test_gof_output_and_determinism(tmp_path, capsys):
    data = tmp_path / "x.csv"
    _write_sample(data, n=60, seed=5)
    args = ["gof", "--input", str(data), "--test", "stein,ks", "--a", "1,2",
            "--bootstrap", "120", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("# seed=9 ")
    rows = [r for r in csv.reader(io.StringIO(first)) if r and not r[0].startswith("#")]
    assert rows[0] == ["test", "a", "statistic", "p_value", "critical_value", "reject"]
    body = rows[1:]
    assert [r[0] for r in body] == ["stein", "stein", "ks"]
    assert [r[1] for r in body] == ["1", "2", "NA"]
    for r in body:
        assert 0.0 <= float(r[3]) <= 1.0
        assert r[5] in ("0", "1")


def test_gof_fit_overflow_exits_1(tmp_path, capsys):
    # a data fit whose eta_hat overflows is a numeric failure, not "not rejected"
    data = tmp_path / "x.csv"
    x = alt_sample(AlternativeSpec("gamma", k=1.0), 30, seed=0) * 1e6
    data.write_text("value\n" + "".join(f"{v:.15g}\n" for v in x))
    out = tmp_path / "out.csv"
    assert main(["gof", "--input", str(data), "--bootstrap", "20", "--output", str(out)]) == 1
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


def test_gof_header_reports_the_data_fits_newton_iterations(tmp_path, capsys):
    data = tmp_path / "x.csv"
    x = _write_sample(data, n=60, seed=5)
    assert main(["gof", "--input", str(data), "--test", "ks", "--bootstrap", "20"]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    fields = dict(f.split("=", 1) for f in header.lstrip("# ").split())
    fit = fit_mle(np.array([float(f"{v:.15g}") for v in x]))
    assert fields["iterations"] == str(fit.iterations)
    assert fit.iterations > 0


@pytest.mark.parametrize("scale, clipped", [(1.0, 0), (1e5, 95)])
def test_gof_header_counts_the_clipped_pit_values(scale, clipped, tmp_path, capsys):
    # at x1e5 the fit falls back and 95 of the data's PIT values leave [EPS, 1-EPS]
    data = tmp_path / "x.csv"
    x = gompertz_sample(GompertzParams(1, 1), 100, 3) * scale
    data.write_text("value\n" + "".join(f"{v:.15g}\n" for v in x))
    assert main(["gof", "--input", str(data), "--test", "ks", "--bootstrap", "20"]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    fields = dict(f.split("=", 1) for f in header.lstrip("# ").split())
    assert fields["clipped"] == str(clipped)


@pytest.mark.parametrize(
    "dist, above_one",
    [(GompertzParams(1.0, 1.0), False), (AlternativeSpec("gamma", k=0.5), True)],
    ids=["go(1,1)", "gamma(0.5)"],
)
def test_gof_header_reports_the_population_cv(dist, above_one, tmp_path, capsys):
    data = tmp_path / "x.csv"
    x = alt_sample(dist, 200, seed=4)
    data.write_text("value\n" + "".join(f"{v:.15g}\n" for v in x))
    assert main(["gof", "--input", str(data), "--test", "ks", "--bootstrap", "20"]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    fields = dict(f.split("=", 1) for f in header.lstrip("# ").split())
    back = np.array([float(f"{v:.15g}") for v in x])
    cv = float(fields["cv"])
    assert cv == pytest.approx(np.std(back) / np.mean(back), rel=1e-13)
    assert (cv >= 1.0) == above_one


def test_gof_writes_file(tmp_path, capsys):
    data = tmp_path / "x.csv"
    _write_sample(data, n=40, seed=2)
    out = tmp_path / "res.csv"
    assert main(["gof", "--input", str(data), "--test", "cm", "--bootstrap", "80",
                 "--seed", "3", "--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().startswith("# seed=3 ")


def test_gof_validation(tmp_path, capsys):
    data = tmp_path / "x.csv"
    _write_sample(data)
    assert main(["gof", "--input", str(data), "--bootstrap", "0"]) == 2
    assert main(["gof", "--input", str(data), "--test", "nope"]) == 2
    assert main(["gof", "--input", str(data), "--alpha", "1.5"]) == 2
    capsys.readouterr()
    assert main(["gof", "--input", str(data), "--test", "stein,ks", "--a", ""]) == 2
    assert "the a grid must be nonempty" in capsys.readouterr().err


def test_sample_token_form_and_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "gompertz", "eta=1", "b=1", "--n", "50", "--seed", "7",
                 "--output", str(f1)]) == 0
    assert main(["sample", "gompertz", "eta=1", "b=1", "--n", "50", "--seed", "7",
                 "--output", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_text() == f2.read_text()
    assert f1.read_text().startswith("# seed=7\nvalue\n")


def test_sample_power_one_equals_uniform(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sample", "pow", "nu=1", "--n", "40", "--seed", "3", "--output", str(f1)])
    main(["sample", "u", "c=1", "--n", "40", "--seed", "3", "--output", str(f2)])
    capsys.readouterr()
    assert f1.read_text() == f2.read_text()


def test_sample_errors(capsys):
    assert main(["sample", "nosuch", "x=1", "--n", "5"]) == 2
    assert main(["sample", "gamma", "k=3"]) == 2  # n missing
    assert main(["sample", "gamma", "k=3", "--n", "0"]) == 2
    capsys.readouterr()


def test_sample_seeds_outside_64_bits_exit_2(capsys):
    # distinct seeds must not alias modulo 2^64 while the header echoes them
    base = ["sample", "gompertz", "eta=1", "b=1", "--n", "3"]
    assert main(base + ["--seed", "0"]) == 0
    low = capsys.readouterr().out
    assert main(base + ["--seed", f"{2**64 - 1}"]) == 0
    high = capsys.readouterr().out
    assert low.startswith("# seed=0\n") and high.startswith(f"# seed={2**64 - 1}\n")
    assert low.splitlines()[1:] != high.splitlines()[1:]
    for seed in (2**64, -1):
        assert main(base + ["--seed", f"{seed}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "2**64" in captured.err


def test_lifetable_pipeline(tmp_path, capsys):
    lt = tmp_path / "lt.csv"
    ages = np.arange(101)
    q = np.clip(0.0002 * np.exp(0.09 * ages), 0.0, 1.0)
    q[-1] = 1.0
    lt.write_text("age,hazard\n" + "".join(f"{a},{h:.12g}\n" for a, h in zip(ages, q)))
    out = tmp_path / "lives.csv"
    pmf_out = tmp_path / "pmf.csv"
    assert main(["lifetable", "--input", str(lt), "--n", "300", "--seed", "11",
                 "--truncate", "40", "99", "--output", str(out),
                 "--pmf-output", str(pmf_out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=11" and lines[1] == "value"
    vals = np.array([float(v) for v in lines[2:]])
    assert vals.size == 300
    assert np.all((vals > 40) & (vals < 99))
    pmf_rows = list(csv.reader(io.StringIO(pmf_out.read_text())))
    assert pmf_rows[0] == ["age", "mass"]
    total = sum(float(r[1]) for r in pmf_rows[1:])
    assert abs(total - 1.0) < 1e-9


def test_lifetable_errors(tmp_path, capsys):
    lt = tmp_path / "lt.csv"
    lt.write_text("age,hazard\n0,0.2\n1,0.3\n2,1.0\n")
    assert main(["lifetable", "--input", str(lt), "--n", "0"]) == 2
    assert main(["lifetable", "--input", str(lt), "--n", "5",
                 "--truncate", "2", "1"]) == 2
    assert main(["lifetable", "--input", str(tmp_path / "none.csv"), "--n", "5"]) == 2
    capsys.readouterr()


def test_simulate_small_config(tmp_path, capsys):
    cfg = tmp_path / "study.toml"
    cfg.write_text(
        'scenarios = ["gompertz eta=1 b=1"]\nsizes = [15]\na_grid = [1]\ntests = ["stein"]\n'
        "replications = 8\nbootstrap = 40  # a trailing comment\nseed = 4\n"
    )
    out = tmp_path / "rep.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=4"
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert rows[0][0] == "scenario" and len(rows) == 2
    assert 0.0 <= float(rows[1][4]) <= 1.0


def test_simulate_errors(tmp_path, capsys):
    def error(*args):
        assert main(["simulate", *args]) == 2
        return capsys.readouterr().err

    assert "No such file" in error("--config", str(tmp_path / "none.toml"))
    cfg = tmp_path / "study.toml"
    good = 'scenarios = ["gompertz eta=1 b=1"]\nsizes = [15]\n'
    for text, match in (
        ('scenarios = ["gompertz eta=1 b=1"]\n', "config must set sizes"),
        (good + "bogus = 1\n", "unknown config key 'bogus'"),
        (good + 'tests = ["nope"]\n', "unknown test kind 'nope'"),
        # the old flat format
        ("scenarios = gompertz eta=1 b=1; gamma k=1\nsizes = 15, 20\n",
         f"error: {cfg} must be a TOML study config"),
    ):
        cfg.write_text(text)
        assert match in error("--config", str(cfg))
    cfg.write_text(good + 'tests = ["ks"]\nreplications = 2\nbootstrap = 10\n')
    for workers in ("-3", "0"):
        assert "workers must be an integer of at least 1" in error(
            "--config", str(cfg), "--workers", workers)


def test_simulate_rejects_a_setting_given_twice(tmp_path, capsys):
    # TOML refuses a repeated key; the message names the file
    cfg = tmp_path / "twice.toml"
    cfg.write_text(
        'scenarios = ["gompertz eta=1 b=1"]\nsizes = [15]\nsizes = [20]\ntests = ["ks"]\n'
        "replications = 2\nbootstrap = 10\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert f"{cfg} must be a TOML study config" in capsys.readouterr().err


def test_removed_spellings_are_refused(tmp_path, capsys):
    # a config key is a SimulationConfig field name, and sample takes its size
    # and seed only as --n and --seed
    keys = ", ".join(f.name for f in dataclasses.fields(SimulationConfig))
    cfg = tmp_path / "study.toml"
    head = 'scenarios = ["gompertz eta=1 b=1"]\nsizes = [15]\ntests = ["ks"]\n'
    for line in ("n = 15", "m = 2", "b = 10", "a = 1", "full_scale = true"):
        cfg.write_text(f"{head}{line}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        key = line.split()[0]
        assert f"unknown config key {key!r}" in err and keys in err, err
    assert main(["sample", "gamma", "k=3", "n=5", "seed=3"]) == 2
    assert "required: --n" in capsys.readouterr().err
    for token in ("n=5", "seed=3"):
        assert main(["sample", "gamma", "k=3", token, "--n", "5"]) == 2
        assert "takes parameters" in capsys.readouterr().err


def test_sample_rejects_a_repeated_key(capsys):
    assert main(["sample", "gamma", "k=1", "k=3", "--n", "5"]) == 2
    assert "repeated key" in capsys.readouterr().err
