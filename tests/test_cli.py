import csv
import json

import pytest

from lpplfit.cli import EXIT_INPUT, EXIT_OK, main


def run_synth(tmp_path, name="trace.csv", *extra):
    out = tmp_path / name
    args = ["synth", "--preset", "base", "--seed", "3", "--out", str(out)]
    if "--n" not in extra:
        args += ["--n", "400"]  # short traces keep the CLI tests quick
    assert main([*args, *extra]) == EXIT_OK
    return out


FAST_FIT = ["--auto-triples", "2", "--max-iter", "60"]


def test_synth_writes_trace_and_sidecar(tmp_path):
    out = run_synth(tmp_path)
    assert out.read_text().splitlines()[0] == "index,log_price,price"
    sidecar = json.loads((tmp_path / "trace.csv.json").read_text())
    assert sidecar["rng"] == "numpy-pcg64"
    assert sidecar["seed"] == 3


def test_synth_overrides(tmp_path):
    run_synth(tmp_path, "short.csv", "--n", "200", "--sigma", "0", "--T", "250")
    assert len((tmp_path / "short.csv").read_text().splitlines()) == 201


@pytest.mark.parametrize("flag", ["--sigma", "--T", "--m"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_synth_flag_writes_nothing(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--n", "50", "--out", str(tmp_path / "x.csv"), flag, value])
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and flag in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("extra", [
    ["--n", "0"],  # no samples
    ["--B", "1e308", "--sigma", "0"],  # log prices overflow to -inf
    ["--A", "800"],  # prices overflow a float
])
def test_bad_synth_trace_writes_nothing(tmp_path, capsys, extra):
    assert main(["synth", "--n", "50", "--out", str(tmp_path / "x.csv"), *extra]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fit_stdout_json(tmp_path, capsys):
    trace = run_synth(tmp_path)
    assert main(["fit", str(trace), "--column", "price", *FAST_FIT]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["verdict"]["label"] in ("lppl-bubble", "non-lppl")
    assert report["best"]["params"]["T"] > 400


def test_fit_byte_identical_reports(tmp_path):
    trace = run_synth(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["fit", str(trace), "--column", "price", *FAST_FIT]
    assert main([*args, "--out", str(a)]) == EXIT_OK
    assert main([*args, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_fit_csv_format_and_plot(tmp_path):
    trace = run_synth(tmp_path)
    report = tmp_path / "report.csv"
    plot = tmp_path / "plot.csv"
    assert main(["fit", str(trace), "--column", "price", *FAST_FIT,
                 "--weights", "uniform", "--weights", "step:101,300",
                 "--format", "csv", "--out", str(report),
                 "--plot-csv", str(plot)]) == EXIT_OK
    assert report.read_text().splitlines()[0].startswith("seed,weights,average_error")
    # triple provenances and step labels contain commas
    rows = list(csv.reader(report.read_text().splitlines()))
    assert any(r[1] == "step:101,300" for r in rows[1:])
    assert all(len(r) == 8 for r in rows)
    lines = plot.read_text().splitlines()
    assert lines[0] == "index,log_price,fit"
    assert len(lines) == 401
    for k, line in enumerate(lines[1:], start=1):
        index, log_price, fit = line.split(",")
        assert int(index) == k
        float(log_price), float(fit)


def test_fit_multiple_weight_schemes(tmp_path, capsys):
    trace = run_synth(tmp_path)
    assert main(["fit", str(trace), "--column", "price", *FAST_FIT,
                 "--weights", "uniform", "--weights", "quad:100"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    labels = {f["weights"] for f in report["fits"]}
    assert any(l.startswith("quad") for l in labels)
    assert "uniform" in labels


def test_fit_missing_file_is_input_error(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "absent.csv")]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_fit_bad_column_is_input_error(tmp_path, capsys):
    trace = run_synth(tmp_path)
    assert main(["fit", str(trace), "--column", "volume"]) == EXIT_INPUT


def test_fit_bad_config_key_rejected(tmp_path, capsys):
    trace = run_synth(tmp_path)
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"max_iters": 5}')
    assert main(["fit", str(trace), "--column", "price",
                 "--config", str(cfg)]) == EXIT_INPUT
    assert "unknown solver config keys" in capsys.readouterr().err


def test_fit_config_file_applied(tmp_path, capsys):
    trace = run_synth(tmp_path)
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"max_iterations": 30, "mu_init": 0.01}')
    assert main(["fit", str(trace), "--column", "price", "--auto-triples", "0",
                 "--config", str(cfg)]) == EXIT_OK
    json.loads(capsys.readouterr().out)


def test_fit_timings_flag(tmp_path, capsys):
    trace = run_synth(tmp_path)
    assert main(["fit", str(trace), "--column", "price", *FAST_FIT,
                 "--timings"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["timings"]


def test_classify_reapplies_thresholds(tmp_path, capsys):
    trace = run_synth(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["fit", str(trace), "--column", "price", *FAST_FIT,
                 "--out", str(report_path)]) == EXIT_OK
    assert main(["classify", str(report_path)]) == EXIT_OK
    base = json.loads(capsys.readouterr().out)
    # an absurd m threshold flips any fit to non-lppl
    assert main(["classify", str(report_path), "--m-hi", "0.0"]) == EXIT_OK
    strict = json.loads(capsys.readouterr().out)
    assert strict["label"] == "non-lppl"
    assert base["label"] in ("lppl-bubble", "non-lppl")


def test_classify_missing_report(tmp_path):
    assert main(["classify", str(tmp_path / "none.json")]) == EXIT_INPUT


BEST = {"params": {"A": 5.0, "B": 0.02, "T": 1100.0, "m": 0.68, "C": 0.05,
                   "omega": 9.0, "phi": 0.0},
        "error": 1.0, "average_error": 0.001, "termination": "converged",
        "iterations": 10, "restarts": 0}


@pytest.mark.parametrize("command, text", [
    pytest.param("classify", '{"best": {}}', id="classify-no-version"),
    pytest.param("classify", "[1, 2]", id="classify-list"),
    pytest.param("classify", '{"schema_version": 1, "best": {}, "baseline_average_error": 0.01}',
                 id="classify-empty-best"),
    pytest.param("classify", json.dumps({"schema_version": 1, "best": {**BEST, "params": [1, 2]},
                                         "baseline_average_error": 0.01}),
                 id="classify-params-list"),
    pytest.param("classify", json.dumps({"schema_version": 1, "best": {**BEST, "error": "low"},
                                         "baseline_average_error": 0.01}),
                 id="classify-error-string"),
    pytest.param("classify", json.dumps({"schema_version": 2, "best": BEST,
                                         "baseline_average_error": 0.01}),
                 id="classify-other-version"),
    pytest.param("config", "5", id="config-number"),
    pytest.param("config", '{"max_iterations": "30"}', id="config-int-as-string"),
    pytest.param("config", '{"max_iterations": 30.5}', id="config-int-as-float"),
    pytest.param("config", '{"mu_init": null}', id="config-null"),
    pytest.param("config", '{"gradient_tol": true}', id="config-bool"),
    pytest.param("classify", json.dumps({"schema_version": 1,
                                         "best": {**BEST, "params": {**BEST["params"],
                                                                     "m": float("nan")}},
                                         "baseline_average_error": 0.01}),
                 id="classify-nan-param"),
    pytest.param("classify", json.dumps({"schema_version": 1, "best": BEST,
                                         "baseline_average_error": float("inf")}),
                 id="classify-infinite-baseline"),
    pytest.param("config", '{"mu_init": NaN, "mu_bar": NaN}', id="config-nan"),
    pytest.param("config", '{"mu_init": 1e400}', id="config-overflow"),
    pytest.param("classify", json.dumps({"schema_version": 1, "best": BEST,
                                         "baseline_average_error": 10**400}),
                 id="classify-int-overflow"),
])
def test_malformed_json_is_input_error(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if command == "classify":
        argv = ["classify", str(bad)]
    else:
        argv = ["fit", str(run_synth(tmp_path)), "--column", "price", "--config", str(bad)]
    assert main(argv) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "classify"])
@pytest.mark.parametrize("flag", ["--m-hi", "--omega-lo", "--c-lo", "--min-reduction"])
def test_nan_threshold_flag_is_input_error(tmp_path, capsys, command, flag):
    # a NaN threshold compares false against everything, so the check it sets
    # would pass: classify would call a fit at m = 1, C = 0 lppl-bubble
    if command == "fit":
        argv = ["fit", str(run_synth(tmp_path)), "--column", "price", *FAST_FIT]
    else:
        report = tmp_path / "report.json"
        params = {**BEST["params"], "m": 1.0, "C": 0.0}
        report.write_text(json.dumps({"schema_version": 1, "best": {**BEST, "params": params},
                                      "baseline_average_error": 0.01}))
        argv = ["classify", str(report)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "nan"])
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and flag in err


def test_classify_accepts_current_schema(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"schema_version": 1, "best": BEST,
                                  "baseline_average_error": 0.01}))
    assert main(["classify", str(report)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["label"] == "lppl-bubble"


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["bench", "--n", "2000", "--threads", "1,2", "--reps", "2",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())
    assert [r["threads"] for r in rows] == [1, 2]
    assert all("speedup" in r for r in rows)


def test_triple_argument_parsing(tmp_path, capsys):
    trace = run_synth(tmp_path, "long.csv", "--n", "1000")
    assert main(["fit", str(trace), "--column", "price", "--auto-triples", "0",
                 "--max-iter", "60", "--triple", "342,723,912,peak"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert any(f["seed"] == "triple(342,723,912,peak)" for f in report["fits"])


def test_bad_triple_argument(tmp_path, capsys):
    trace = run_synth(tmp_path)
    with pytest.raises(SystemExit):
        main(["fit", str(trace), "--triple", "1,2"])
