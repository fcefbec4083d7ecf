import json
import math

import numpy as np
import pytest

import uot.cli
import uot.divergences
from uot import (KL, CostSpec, DiscreteMeasure, grad_positions, grad_weights,
                 sinkhorn_divergence)
from uot.cli import main


@pytest.fixture()
def dirac_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    DiscreteMeasure([1.0], [[0.0]]).save_json(a)
    DiscreteMeasure([1.0], [[math.sqrt(3.0)]]).save_json(b)
    return str(a), str(b)


def test_div_dirac_pair_value(dirac_files, tmp_path, capsys):
    a, b = dirac_files
    code = main(["div", "--entropy", "kl:rho=1", "--eps", "1", a, b])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(3 * (1 - math.exp(-1)), rel=1e-6)
    # OT and S coincide for unit Diracs
    code = main(["div", "--divergence", "ot", "--entropy", "kl:rho=1",
                 "--eps", "1", a, b])
    assert code == 0
    payload_ot = json.loads(capsys.readouterr().out)
    assert payload_ot["value"] == pytest.approx(payload["value"], abs=1e-9)


def test_solve_writes_potentials(dirac_files, tmp_path):
    a, b = dirac_files
    out = tmp_path / "pots.json"
    code = main(["solve", "--entropy", "kl:rho=1", "--eps", "1",
                 "-o", str(out), a, b])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"f", "g", "eps", "entropy", "report"}
    assert payload["f"][0] == pytest.approx(1.0, rel=1e-6)  # rho c/(2rho+eps)
    assert payload["report"]["status"] == "converged"


def test_infeasible_instance_exits_2(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    DiscreteMeasure([1.0], [[0.0]]).save_json(a)
    DiscreteMeasure([4.0], [[1.0]]).save_json(b)
    code = main(["solve", "--entropy", "range:a=0.5,b=1.5", "--eps", "1",
                 str(a), str(b)])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["div", "--entropy"]) == 1
    assert main(["frobnicate"]) == 1


def test_main_builds_the_parser_once(dirac_files, capsys):
    a, b = dirac_files
    uot.cli.build_parser.cache_clear()
    args = ["div", "--entropy", "kl:rho=1", "--eps", "1", a, b]
    assert main(args) == 0 and main(args) == 0
    assert uot.cli.build_parser.cache_info().misses == 1
    capsys.readouterr()
    # the reused parser still reports a usage error with exit 1
    assert main(["div", "--entropy"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: uot div") and "error: argument" in err


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["div", str(tmp_path / "none.json"), str(tmp_path / "none2.json")])
    assert code == 1


def test_malformed_measure_file_exits_1_naming_it(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"w": [1]}')
    assert main(["div", str(bad), str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: missing key 'weights'\n"


def test_bad_entropy_string_exits_1(dirac_files, capsys):
    a, b = dirac_files
    assert main(["div", "--entropy", "zorp:rho=1", a, b]) == 1


@pytest.mark.parametrize("args,name", [
    (["--tol", "nan"], "tol"), (["--eps", "nan"], "eps"),
    (["--eps", "inf"], "eps"), (["--entropy", "kl:rho=nan"], "rho"),
    (["--entropy", "tv:rho=inf"], "rho"),
    (["--entropy", "power:rho=1,s=nan"], "finite s"),
    (["--cost-scale", "nan"], "cost scale"),
    (["--cost-power", "nan"], "cost power")])
def test_non_finite_parameters_exit_1_naming_them(dirac_files, capsys, args,
                                                  name):
    a, b = dirac_files
    assert main(["div", *args, a, b]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("command", ["div", "grad"])
def test_non_callable_rho_fn_exits_1_naming_it(dirac_files, capsys, command):
    a, b = dirac_files
    assert main([command, "--entropy", "kl:rho_fn=1", a, b]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rho_fn" in err


def test_grad_schema(dirac_files, capsys):
    a, b = dirac_files
    code = main(["grad", "--entropy", "kl:rho=1", "--eps", "0.5",
                 "--which", "ot", a, b])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"value", "grad_weights_a", "grad_weights_b", "grad_points_a",
            "grad_points_b", "report"} <= set(payload)


def test_flow_zero_steps_single_snapshot(tmp_path, capsys):
    rng = np.random.default_rng(70)
    src = tmp_path / "src.json"
    tgt = tmp_path / "tgt.json"
    DiscreteMeasure(np.full(5, 0.2), rng.random((5, 2))).save_json(src)
    DiscreteMeasure(np.full(5, 0.2), rng.random((5, 2))).save_json(tgt)
    out = tmp_path / "flow"
    code = main(["flow", "--steps", "0", "--entropy", "kl:rho=0.1",
                 "--out-dir", str(out), str(src), str(tgt)])
    assert code == 0
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert len(snaps) == 1
    lines = snaps[0].read_text().strip().splitlines()
    assert lines[0] == "step,i,x1,x2,mass"
    assert len(lines) == 6
    source = DiscreteMeasure.load_json(src)
    masses = [float(line.split(",")[-1]) for line in lines[1:]]
    # masses round-trip through r = sqrt(w), exact only to machine precision
    assert np.allclose(masses, source.weights, rtol=1e-15)
    summary = (out / "summary.csv").read_text()
    assert summary.startswith("step,S_eps")
    header, row = summary.strip().splitlines()
    assert header == "step,S_eps,status,sweeps"
    step, _, status, sweeps = row.split(",")
    assert (step, status) == ("0", "converged") and int(sweeps) > 0


def test_check_command(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "--seed", "0", "-o", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True


@pytest.mark.parametrize("command", ["grad", "check"])
def test_json_output_is_the_payload_one_key_a_line(cloud_files, tmp_path,
                                                   monkeypatch, command):
    emitted = []
    inner = uot.cli._emit

    def recording(payload, args):
        emitted.append(payload)
        inner(payload, args)

    monkeypatch.setattr(uot.cli, "_emit", recording)
    out = tmp_path / "out.json"
    argv = (["grad", "--which", "s", "--target", "both", *cloud_files[2]]
            if command == "grad" else ["check", "--seed", "0"])
    assert main(argv + ["-o", str(out)]) == 0
    text = out.read_text()
    assert json.loads(text) == emitted[0]
    assert len(text.splitlines()) == len(emitted[0]) + 2


def test_outputs_are_deterministic(dirac_files, tmp_path):
    a, b = dirac_files
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    for out in (out1, out2):
        assert main(["div", "--entropy", "berg:rho=1", "--eps", "0.5",
                     "-o", str(out), a, b]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_measure_input_and_csv_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    DiscreteMeasure([1.0], [[0.0]]).save_csv(a)
    DiscreteMeasure([1.0], [[1.0]]).save_csv(b)
    code = main(["div", "--entropy", "kl:rho=1", "--eps", "1",
                 "--format", "csv", str(a), str(b)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("value,")


@pytest.fixture()
def cloud_files(tmp_path):
    rng = np.random.default_rng(5)
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, 30) / 30, rng.random((30, 2)))
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, 25) / 25, rng.random((25, 2)))
    paths = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    a.save_json(paths[0])
    b.save_json(paths[1])
    return a, b, paths


def test_grad_runs_one_cross_and_two_self_solves(cloud_files, monkeypatch,
                                                 capsys):
    calls = {"solve": 0, "symmetric_potentials": 0}

    def counted(name):
        inner = getattr(uot.divergences, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(uot.divergences, name, counted(name))
    _, _, (a, b) = cloud_files
    assert main(["grad", "--which", "s", "--target", "both", a, b]) == 0
    assert calls == {"solve": 1, "symmetric_potentials": 2}


def test_grad_matches_the_separate_functions(cloud_files, capsys):
    alpha, beta, (a, b) = cloud_files
    assert main(["grad", "--which", "s", "--target", "both",
                 "--entropy", "kl:rho=0.5", "--eps", "0.1", a, b]) == 0
    payload = json.loads(capsys.readouterr().out)
    args = (alpha, beta, CostSpec.sq_euclidean(), KL(0.5), 0.1)
    assert payload["value"] == sinkhorn_divergence(*args).value
    gw = grad_weights(*args, "s")
    gp = grad_positions(*args, "s")
    assert np.array_equal(payload["grad_weights_a"], gw.d_weights_a)
    assert np.array_equal(payload["grad_weights_b"], gw.d_weights_b)
    assert np.array_equal(payload["grad_points_a"], gp.d_points_a)
    assert np.array_equal(payload["grad_points_b"], gp.d_points_b)


def test_grad_builds_each_plan_once(cloud_files, monkeypatch, capsys):
    calls = []
    inner = uot.divergences.plan_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(uot.divergences, "plan_matrix", counted)
    _, _, (a, b) = cloud_files
    assert main(["grad", "--which", "s", "--target", "both", a, b]) == 0
    # the self terms read theirs off their kernels
    assert len(calls) == 1


def test_grad_weights_of_distance_cost(cloud_files, capsys):
    # each self term pairs every atom with itself, where the cost gradient
    # of a distance is undefined; the weight gradients do not need it
    _, _, (a, b) = cloud_files
    assert main(["grad", "--which", "s", "--target", "weights",
                 "--cost-power", "1", a, b]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.all(np.isfinite(payload["grad_weights_a"]))
    assert np.all(np.isfinite(payload["grad_weights_b"]))


@pytest.mark.parametrize("command", ["solve", "div", "grad"])
def test_max_iter_stop_warns_once_and_keeps_exit_0(cloud_files, capsys,
                                                   command):
    _, _, (a, b) = cloud_files
    assert main([command, "--eps", "0.01", a, b]) == 0
    assert capsys.readouterr().err == ""
    assert main([command, "--eps", "0.01", "--max-iter", "2", a, b]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["report"]["status"] == "max_iter"
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    assert "max_iter" in lines[0]


def test_flow_warns_about_unconverged_snapshots(cloud_files, tmp_path, capsys):
    _, _, (a, b) = cloud_files
    out = str(tmp_path / "flow")
    assert main(["flow", "--steps", "2", "--out-dir", out, a, b]) == 0
    assert capsys.readouterr().err == ""
    assert main(["flow", "--steps", "2", "--max-iter", "1", "--out-dir", out,
                 a, b]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    assert "2 of 2 snapshots" in lines[0]


def test_flow_negative_steps_exit_1_naming_them(cloud_files, tmp_path,
                                                capsys):
    _, _, (a, b) = cloud_files
    out = tmp_path / "flow"
    assert main(["flow", "--steps", "-2", "--out-dir", str(out), a, b]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "steps" in err
    assert not out.exists()
