import csv
import inspect
import json
import math

import pytest

from lpplfit.cli import EXIT_INPUT, EXIT_OK, _thresholds_from, build_parser, main
from lpplfit.driver import ClassifyThresholds, fit_command
from lpplfit.seeds import propose_triples


def run_synth(tmp_path, name="trace.csv", *extra):
    out = tmp_path / name
    args = ["synth", "--preset", "base", "--seed", "3", "--out", str(out)]
    if "--n" not in extra:
        args += ["--n", "400"]  # short traces keep the CLI tests quick
    assert main([*args, *extra]) == EXIT_OK
    return out


FAST_FIT = ["--auto-triples", "2"]


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


def test_near_quadratic_schemes_get_distinct_labels(tmp_path, capsys):
    trace = run_synth(tmp_path)
    assert main(["fit", str(trace), "--column", "price", *FAST_FIT,
                 "--weights", "quad:1234567", "--weights", "quad:1234568"]) == EXIT_OK
    labels = {f["weights"] for f in json.loads(capsys.readouterr().out)["fits"]}
    assert labels == {"quad:1234567.0", "quad:1234568.0"}


@pytest.mark.parametrize("W", ["nan", "inf"])
def test_non_finite_quadratic_weight_is_input_error(tmp_path, capsys, W):
    trace = run_synth(tmp_path)
    assert main(["fit", str(trace), "--column", "price", *FAST_FIT,
                 "--weights", f"quad:{W}"]) == EXIT_INPUT
    assert "W must be finite and > 0" in capsys.readouterr().err


def test_repeated_weight_scheme_is_fitted_once(tmp_path):
    trace = run_synth(tmp_path)
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    args = ["fit", str(trace), "--column", "price", *FAST_FIT, "--weights", "uniform"]
    assert main([*args, "--out", str(once)]) == EXIT_OK
    assert main([*args, "--weights", "uniform", "--out", str(twice)]) == EXIT_OK
    assert once.read_bytes() == twice.read_bytes()


def test_tiny_positive_slope_fits(tmp_path, capsys):
    # ln p = 5 + 1e-13 * i: the exponential baseline used to fail the B floor
    trace = tmp_path / "tiny.csv"
    trace.write_text("price\n" + "".join(f"{math.exp(5 + 1e-13 * i)!r}\n"
                                          for i in range(1, 201)))
    assert main(["fit", str(trace), "--column", "price", "--auto-triples", "0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fits"]


@pytest.mark.parametrize("n, flags", [("5", []), ("1000", ["--weights", "step:1,5"])])
def test_unfittable_input_is_input_error(tmp_path, capsys, n, flags):
    # 5 prices, or 5 positively weighted points: no scheme can be fitted, so
    # the run stops before any seed or task with an input error, not exit 3
    trace = run_synth(tmp_path, "short.csv", "--n", n)
    assert main(["fit", str(trace), "--column", "price", *flags]) == EXIT_INPUT
    assert "8 positively weighted points" in capsys.readouterr().err


def test_flag_defaults_are_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["fit", "x.csv"])
    fit_defaults = {name: p.default
                    for name, p in inspect.signature(fit_command).parameters.items()}
    assert args.auto_triples == fit_defaults["auto_triples"]
    assert args.extremum_window == fit_defaults["extremum_half_width"]
    assert args.extremum_window == inspect.signature(
        propose_triples).parameters["half_width"].default
    assert args.interleave == fit_defaults["interleave"]
    assert (args.jobs, args.threads) == (fit_defaults["jobs"], fit_defaults["threads"])
    for ns in (args, parser.parse_args(["classify", "r.json"])):
        assert _thresholds_from(ns) == fit_defaults["thresholds"] == ClassifyThresholds()


@pytest.mark.parametrize("flag", ["--out", "--plot-csv"])
def test_unwritable_output_exits_before_any_fit(tmp_path, capsys, monkeypatch, flag):
    def no_fit(*args, **kwargs):
        pytest.fail("fit_command ran although an output path cannot be written")

    monkeypatch.setattr("lpplfit.cli.fit_command", no_fit)
    trace = run_synth(tmp_path)
    outputs = {"--out": tmp_path / "report.json", "--plot-csv": tmp_path / "plot.csv"}
    paths = {**outputs, flag: tmp_path / "absent" / "output"}
    assert main(["fit", str(trace), "--column", "price",
                 *(arg for item in paths.items() for arg in map(str, item))]) == EXIT_INPUT
    assert "absent" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs.values())


def test_fit_missing_file_is_input_error(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "absent.csv")]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_fit_bad_column_is_input_error(tmp_path, capsys):
    trace = run_synth(tmp_path)
    assert main(["fit", str(trace), "--column", "volume"]) == EXIT_INPUT


def test_fit_row_without_its_date_is_input_error(tmp_path, capsys):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("close,date\n10,2020-01-02\n11\n12,2020-01-04\n")
    assert main(["fit", str(ragged)]) == EXIT_INPUT
    assert "row 3" in capsys.readouterr().err


def test_fit_reads_a_csv_with_a_byte_order_mark(tmp_path, capsys):
    # spreadsheet programs save UTF-8 CSVs with a BOM ahead of the header
    prices = [line.split(",")[2] for line in run_synth(tmp_path).read_text().splitlines()[1:]]
    bom = tmp_path / "bom.csv"
    bom.write_text("close\n" + "\n".join(prices) + "\n", encoding="utf-8-sig")
    assert main(["fit", str(bom), *FAST_FIT]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["n"] == 400


@pytest.mark.parametrize("flags", [["--config", "x.json"], ["--L", "5"], ["--adaptive-L", "off"],
                                   ["--max-iter", "60"]], ids=lambda flags: flags[0])
def test_removed_solver_flags_are_usage_errors(capsys, flags):
    # the damping seeds, tolerances and the first L are constants, not settings,
    # and the interleave caps each LM run at its round's adaptive L
    with pytest.raises(SystemExit) as exc:
        main(["fit", "x.csv", *flags])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("text", [
    pytest.param('{"best": {}}', id="classify-no-version"),
    pytest.param("[1, 2]", id="classify-list"),
    pytest.param('{"schema_version": 1, "best": {}, "baseline_average_error": 0.01}',
                 id="classify-empty-best"),
    pytest.param(json.dumps({"schema_version": 1, "best": {**BEST, "params": [1, 2]},
                             "baseline_average_error": 0.01}),
                 id="classify-params-list"),
    pytest.param(json.dumps({"schema_version": 1, "best": {**BEST, "error": "low"},
                             "baseline_average_error": 0.01}),
                 id="classify-error-string"),
    pytest.param(json.dumps({"schema_version": 2, "best": BEST,
                             "baseline_average_error": 0.01}),
                 id="classify-other-version"),
    pytest.param(json.dumps({"schema_version": 1,
                             "best": {**BEST, "params": {**BEST["params"], "m": float("nan")}},
                             "baseline_average_error": 0.01}),
                 id="classify-nan-param"),
    pytest.param(json.dumps({"schema_version": 1, "best": BEST,
                             "baseline_average_error": float("inf")}),
                 id="classify-infinite-baseline"),
    # a float literal that overflows to inf: the only case that meets parse_float
    pytest.param('{"schema_version": 1, "best": %s, "baseline_average_error": 1e400}'
                 % json.dumps(BEST), id="classify-float-overflow"),
    pytest.param(json.dumps({"schema_version": 1, "best": BEST,
                             "baseline_average_error": 10**400}),
                 id="classify-int-overflow"),
    # float() reads these strings and bools, but a report holds only JSON numbers there
    pytest.param(json.dumps({"schema_version": 1,
                             "best": {**BEST, "error": "nan",
                                      "params": {**BEST["params"],
                                                 "m": "nan", "C": "nan", "omega": "nan"}},
                             "baseline_average_error": "nan"}),
                 id="classify-nan-strings"),
    pytest.param(json.dumps({"schema_version": 1, "best": BEST,
                             "baseline_average_error": "1e400"}),
                 id="classify-overflow-string"),
    pytest.param(json.dumps({"schema_version": 1,
                             "best": {**BEST, "params": {**BEST["params"], "m": True}},
                             "baseline_average_error": 0.01}),
                 id="classify-bool-param"),
])
def test_malformed_json_is_input_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["classify", str(bad)]) == EXIT_INPUT
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


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_bench_without_repetitions_is_input_error(tmp_path, capsys, reps):
    out = tmp_path / "bench.json"
    assert main(["bench", "--n", "2000", "--reps", reps, "--out", str(out)]) == EXIT_INPUT
    assert "--reps" in capsys.readouterr().err
    assert not out.exists()


def test_triple_argument_parsing(tmp_path, capsys):
    trace = run_synth(tmp_path, "long.csv", "--n", "1000")
    assert main(["fit", str(trace), "--column", "price", "--auto-triples", "0",
                 "--triple", "342,723,912,peak"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert any(f["seed"] == "triple(342,723,912,peak)" for f in report["fits"])


def test_bad_triple_argument(tmp_path, capsys):
    trace = run_synth(tmp_path)
    with pytest.raises(SystemExit):
        main(["fit", str(trace), "--triple", "1,2"])
