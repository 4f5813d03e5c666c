"""End-to-end tests for the command-line interface."""

import csv
import io
import json

import numpy as np
import pytest

from helpers import matrix_json, plain_params, random_channel, write_spec
from tko_distill import KrausPair, canonicalize, kraus_from_params, params_analytic
from tko_distill.cli import main


@pytest.fixture()
def cli(capsys):
    def invoke(*argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return invoke


def test_validate_inline_ok(cli):
    rc, out, err = cli("validate", "--p", "0.3", "--eta", "0.5")
    assert rc == 0 and err == ""
    data = json.loads(out)
    assert data["ok"] is True
    assert data["deviation"] < 1e-12


def test_validate_csv_format(cli):
    rc, out, _ = cli("validate", "--p", "0.3", "--eta", "0.5", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "ok,deviation"
    assert lines[1].startswith("true,")


def test_validate_file_and_malformed_input(cli, tmp_path):
    kp = kraus_from_params(plain_params(0.4, 0.8))
    rc, out, _ = cli("validate", "--in", write_spec(tmp_path, kp))
    assert rc == 0 and json.loads(out)["ok"] is True
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = cli("validate", "--in", str(bad), "--format", "json")
    assert rc == 1
    assert json.loads(err)["error"] == "input-error"


def test_canonicalize_identity_channel_is_single_kraus(cli, tmp_path):
    ident = KrausPair(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
    rc, out, err = cli("canonicalize", "--in", write_spec(tmp_path, ident))
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "single-kraus-channel"


def test_canonicalize_inline_and_csv(cli):
    rc, out, _ = cli("canonicalize", "--p", "0.3", "--eta", "0.5", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "p,abs_eta,zeta"
    p, abs_eta, zeta = (float(x) for x in lines[1].split(","))
    assert abs(p - 0.3) < 1e-12
    assert abs(abs_eta - 0.5) < 1e-12
    assert abs(zeta - np.sqrt(0.75)) < 1e-12


def test_canonicalize_file_roundtrip_random(cli, tmp_path):
    rng = np.random.default_rng(77)
    kp, p, abs_eta = random_channel(rng)
    rc, out, _ = cli("canonicalize", "--in", write_spec(tmp_path, kp))
    assert rc == 0
    data = json.loads(out)
    assert abs(data["p"] - p) < 1e-9
    eta = complex(*data["eta"])
    assert abs(abs(eta) - abs_eta) < 1e-9


def test_kraus_spec_file_reads_back(cli, tmp_path):
    # The CLI reads back exactly the pair the spec holds: its canonical
    # parameters are the library's for that pair, to the last bit.
    kp, _, _ = random_channel(np.random.default_rng(17))
    rc, out, _ = cli("canonicalize", "--in", write_spec(tmp_path, kp))
    assert rc == 0
    data, want = json.loads(out), canonicalize(kp)
    assert data["p"] == want.p and complex(*data["eta"]) == want.eta
    assert data["u"] == matrix_json(want.u) and data["v"] == matrix_json(want.v)


def test_channel_spec_with_both_keys_reads_canonical(cli, tmp_path):
    pair = kraus_from_params(plain_params(0.2, 0.0))
    kraus = [matrix_json(pair.c1), matrix_json(pair.c2)]
    spec = {"kraus": kraus, "canonical": {"p": 0.6, "eta": [0.0, 0.8]}}
    rc, out, _ = cli("canonicalize", "--in", write_spec(tmp_path, spec, "both.json"))
    assert rc == 0
    data = json.loads(out)
    assert data["p"] == 0.6 and data["eta"] == [0.0, 0.8]
    assert data["u"] == data["v"] == matrix_json(np.eye(2))


def test_canonical_spec_roundtrip_and_minimal_form(cli, tmp_path):
    # canonicalize's JSON, wrapped as {"canonical": ...}, is a channel spec
    # that canonicalizes to the same (p, eta, u, v).
    kp, _, _ = random_channel(np.random.default_rng(19))
    rc, out, _ = cli("canonicalize", "--in", write_spec(tmp_path, kp))
    first = json.loads(out)
    spec = write_spec(tmp_path, {"canonical": first}, "canonical.json")
    rc, out, _ = cli("canonicalize", "--in", spec)
    assert rc == 0
    again = json.loads(out)
    assert all(again[key] == first[key] for key in ("p", "eta", "u", "v"))
    assert abs(again["zeta"] - first["zeta"]) < 1e-12
    # zeta, u, v may be omitted; eta may be a bare number.
    minimal = write_spec(tmp_path, {"canonical": {"p": 0.3, "eta": 0.5}}, "minimal.json")
    rc, out, _ = cli("canonicalize", "--in", minimal)
    assert rc == 0
    data = json.loads(out)
    assert data["eta"] == [0.5, 0.0] and abs(data["zeta"] - np.sqrt(0.75)) < 1e-12
    assert data["u"] == matrix_json(np.eye(2))


def test_state_inline_matches_closed_forms(cli):
    rc, out, _ = cli("state", "--p", "0.8", "--eta", "1.0")
    assert rc == 0
    data = json.loads(out)
    f, a, b, g, d = params_analytic(0.8, 1.0)
    assert abs(data["fidelity"] - f) < 1e-9
    assert abs(data["alpha"] - a) < 1e-9
    assert abs(data["gamma"] - g) < 1e-9
    assert "u_a" in data and "u_b" in data


def test_state_csv_header(cli):
    rc, out, _ = cli("state", "--p", "0.8", "--eta", "0.0", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "fidelity,alpha,beta,gamma,delta,theta"


def test_state_accepts_canonical_params_file(cli, tmp_path):
    path = write_spec(tmp_path, plain_params(0.8, 0.0), "params.json")
    rc, out, _ = cli("state", "--in", path)
    assert rc == 0
    f = params_analytic(0.8, 0.0)[0]
    assert abs(json.loads(out)["fidelity"] - f) < 1e-9


def test_state_reports_p_one_as_entanglement_destroyed(cli, tmp_path):
    # The same p >= 1 rule as distill, for each way a channel can come in.
    cp = plain_params(1.0, 0.5)
    for spec in (
        ("--p", "1", "--eta", "0.5"),
        ("--in", write_spec(tmp_path, kraus_from_params(cp))),
        ("--in", write_spec(tmp_path, cp, "params.json")),
    ):
        for command in ("state", "distill"):
            extra = ("--policy", "fp") if command == "distill" else ()
            rc, out, err = cli(command, *spec, *extra, "--format", "json")
            assert rc == 2 and out == ""
            assert json.loads(err)["error"] == "entanglement-destroyed"


def test_state_validates_the_kraus_pair(cli, tmp_path):
    leaky = KrausPair(np.eye(2, dtype=complex), np.ones((2, 2), dtype=complex))
    rc, out, err = cli("state", "--in", write_spec(tmp_path, leaky), "--format", "json")
    assert rc == 1 and out == ""
    assert "not trace preserving" in json.loads(err)["detail"]
    ident = KrausPair(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
    rc, out, err = cli("state", "--in", write_spec(tmp_path, ident), "--format", "json")
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "single-kraus-channel"


def test_distill_amplitude_damping_single_round(cli):
    rc, out, _ = cli("distill", "--p", "0.8", "--eta", "1.0", "--policy", "fp")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "round,fidelity,keep_prob,cumulative_yield"
    last = lines[-1].split(",")
    assert last[0] == "1"
    assert float(last[1]) == 1.0


def test_distill_json_trace(cli):
    rc, out, _ = cli("distill", "--p", "0.8", "--eta", "0.0", "--policy", "pp", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["policy"] == "pp"
    assert data["reached"] is True
    assert len(data["records"]) == 4
    assert abs(data["records"][1]["fidelity"] - 0.8726779962499649) < 1e-9


def test_distill_requires_policy_and_channel(cli):
    rc, _, err = cli("distill", "--p", "0.8", "--eta", "1.0")
    assert rc == 1 and err != ""
    rc, _, _ = cli("distill", "--policy", "fp")
    assert rc == 1
    rc, _, _ = cli("distill", "--p", "0.8", "--policy", "fp")
    assert rc == 1  # inline spec needs both --p and --eta


def test_distill_domain_error_exit_code(cli):
    rc, _, err = cli(
        "distill", "--p", "1.0", "--eta", "1.0", "--policy", "fp", "--format", "json"
    )
    assert rc == 2
    assert json.loads(err)["error"] == "entanglement-destroyed"
    rc, _, err = cli(
        "distill", "--p", "0.9", "--eta", "1.0", "--policy", "bbpssw", "--format", "json"
    )
    assert rc == 2
    assert json.loads(err)["error"] == "non-distillable"


def test_distill_input_error_exit_code(cli):
    rc, _, err = cli("distill", "--p", "1.2", "--eta", "1.0", "--policy", "fp", "--format", "json")
    assert rc == 1
    assert json.loads(err)["error"] == "input-error"


def test_distill_engine_cross_check(cli):
    rc, out, _ = cli(
        "distill", "--p", "0.8", "--eta", "1.0", "--policy", "fp",
        "--engine", "exact", "--check-analytic",
    )
    assert rc == 0
    assert out.splitlines()[-1].split(",")[0] == "1"


@pytest.mark.parametrize("policy", ["fp", "pp"])
@pytest.mark.parametrize(
    "p, abs_eta",
    [
        pytest.param("0.999999999", "1e-05", id="1e-05"),
        pytest.param("0.999999999", "1", id="1"),
        # F - 1/2 = (1 - p)/2 down to 5e-14 at amplitude damping.
        pytest.param("0.999999999999", "1", id="1-p=1-1e-12"),
        pytest.param("0.9999999999999", "1", id="1-p=1-1e-13"),
    ],
)
def test_distill_exact_engine_at_the_edge_of_the_domain(cli, policy, p, abs_eta):
    rc, out, err = cli(
        "distill", "--p", p, "--eta", abs_eta, "--policy", policy,
        "--engine", "exact", "--check-analytic", "--format", "json",
    )
    assert rc == 0, err
    assert json.loads(out)["reached"]


def test_distill_cross_check_requires_exact_engine(cli):
    rc, _, err = cli("distill", "--p", "0.8", "--eta", "1.0", "--policy", "fp", "--check-analytic")
    assert rc == 1 and "check-analytic" in err
    rc, _, _ = cli(
        "distill", "--p", "0.8", "--eta", "0.0", "--policy", "bbpssw",
        "--engine", "exact", "--check-analytic",
    )
    assert rc == 1


def test_distill_rejects_an_engine_the_policy_lacks(cli):
    rc, out, err = cli(
        "distill", "--p", "0.7", "--eta", "0.5", "--policy", "bbpssw", "--engine", "exact"
    )
    assert rc == 1 and out == "" and "engine" in err


def test_distill_qpa_engines_agree_inline_and_dressed(cli, tmp_path):
    # A Kraus spec canonicalizes to dressed u and v, where analytic QPA reads
    # its prepared state rather than the closed forms in (p, |eta|).
    kp, _, _ = random_channel(np.random.default_rng(18), p=0.3)
    for channel in (("--p", "0.3", "--eta", "0.2"), ("--in", write_spec(tmp_path, kp))):
        rc, out, err = cli(
            "distill", *channel, "--policy", "qpa", "--engine", "exact", "--check-analytic",
            "--format", "json",
        )
        assert rc == 0, err
        assert json.loads(out)["engine"] == "exact"


def test_sweep_p_csv(cli):
    rc, out, _ = cli(
        "sweep-p", "--eta", "1.0", "--p-values", "0.2,0.5,0.8", "--policies", "fp"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "p,abs_eta,policy,rounds,reached,fidelity_final,yield_avg"
    assert len(lines) == 4
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0.2", "0.5", "0.8"]
    yields = [float(ln.split(",")[6]) for ln in lines[1:]]
    assert yields[0] > yields[1] > yields[2]


def test_sweep_eta_csv(cli):
    rc, out, _ = cli(
        "sweep-eta", "--p", "0.7", "--eta-values", "0.0,1.0", "--policies", "fp,pp"
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert [ln.split(",")[1] for ln in lines[1:]] == ["0.0", "0.0", "1.0", "1.0"]


@pytest.mark.parametrize("steps", ["0", "1"])
@pytest.mark.parametrize(
    "fixed", [("sweep-p", "--eta", "0.5"), ("sweep-eta", "--p", "0.7")], ids=["sweep-p", "sweep-eta"]
)
def test_sweeps_need_two_grid_steps(cli, fixed, steps):
    rc, out, err = cli(*fixed, "--steps", steps, "--policies", "fp")
    assert rc == 1 and out == ""
    assert "--steps must be at least 2" in err


def test_sweep_rejects_abs_eta_outside_unit_interval(cli):
    for argv in (
        ("sweep-p", "--eta", "1.5", "--p-values", "0.3"),
        ("sweep-eta", "--p", "0.7", "--eta-values", "0.5,-0.5"),
    ):
        rc, out, err = cli(*argv, "--policies", "fp", "--format", "json")
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "input-error" and "|eta|" in err


def test_sweep_rejects_unknown_policy(cli):
    rc, _, err = cli("sweep-p", "--eta", "1.0", "--p-values", "0.2", "--policies", "bogus")
    assert rc == 1 and err != ""


def test_sweep_output_is_deterministic(cli):
    argv = ("sweep-p", "--eta", "1.0", "--p-values", "0.1,0.5,0.9")
    rc1, out1, _ = cli(*argv)
    rc2, out2, _ = cli(*argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_figure_benchmark_table(cli):
    rc, out, _ = cli("figure", "--id", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "asin_eta_over_pi,round,fp,pp,qpa,bbpssw"
    rows = [ln.split(",") for ln in lines[1:]]
    fractions = sorted({r[0] for r in rows})
    assert fractions == ["0.0", "0.25", "0.5"]
    # Amplitude damping: the fidelity-prioritized column hits 1 at round 1.
    amp_round1 = [r for r in rows if r[0] == "0.5" and r[1] == "1"][0]
    assert float(amp_round1[2]) == 1.0
    # QPA stalls there, so its column is empty past its plateau while the
    # slower protocol keeps going.
    deep = [r for r in rows if r[0] == "0.5" and r[1] == "24"][0]
    assert deep[4] == "" and deep[5] != ""


def test_figure_sweep_tables(cli):
    rc3, out3, _ = cli("figure", "--id", "3")
    assert rc3 == 0
    lines3 = out3.splitlines()
    assert lines3[0].startswith("p,abs_eta,policy")
    assert len(lines3) == 1 + 100 * 3
    rc4, out4, _ = cli("figure", "--id", "4")
    assert rc4 == 0
    assert len(out4.splitlines()) == 1 + 100 * 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figure_sweeps_are_sweep_presets(cli, fmt):
    presets = {
        "3": ("sweep-p", "--eta", "1.0", "--policies", "fp,pp,bbpssw"),
        "4": ("sweep-eta", "--p", "0.7"),
    }
    for fig_id, argv in presets.items():
        rc_fig, out_fig, _ = cli("figure", "--id", fig_id, "--format", fmt)
        rc_sweep, out_sweep, _ = cli(*argv, "--format", fmt)
        assert rc_fig == rc_sweep == 0
        assert out_fig == out_sweep


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep-p", "--eta", "1.0", "--p-values", "0.2", "--seed", "3"),
        ("sweep-eta", "--p", "0.7", "--eta-values", "0.5", "--seed", "3"),
        ("figure", "--id", "3", "--seed", "3"),
    ],
)
def test_sweeps_take_no_seed(cli, argv):
    rc, out, err = cli(*argv)
    assert rc == 1 and out == "" and "--seed" in err


def test_figure_rejects_unknown_id(cli):
    rc, _, err = cli("figure", "--id", "9")
    assert rc == 1 and err != ""


def test_cli_rejects_unknown_subcommand(cli):
    rc, _, err = cli("frobnicate")
    assert rc == 1 and err != ""


def test_cli_rejects_conflicting_channel_specs(cli, tmp_path):
    kp = kraus_from_params(plain_params(0.4, 0.8))
    path = write_spec(tmp_path, kp)
    rc, _, err = cli("canonicalize", "--in", path, "--p", "0.4", "--eta", "0.8")
    assert rc == 1 and err != ""


def _as_cell(value) -> str:
    """How a JSON value appears as a CSV cell: floats by repr, null as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _both_formats(cli, *argv):
    rc_csv, out_csv, _ = cli(*argv, "--format", "csv")
    rc_json, out_json, _ = cli(*argv, "--format", "json")
    assert rc_csv == rc_json == 0
    return list(csv.DictReader(io.StringIO(out_csv))), json.loads(out_json)


def _assert_same_cells(row: dict, obj: dict) -> None:
    for name, cell in row.items():
        assert cell == _as_cell(obj[name]), name


@pytest.mark.parametrize("command", ["validate", "canonicalize", "state"])
def test_single_row_csv_matches_json(cli, tmp_path, command):
    rng = np.random.default_rng(5)
    kp, _, _ = random_channel(rng)
    canonical = {"canonical": {"p": 0.7, "eta": [0.3, 0.4]}}
    for channel in (
        ("--p", "0.3", "--eta", "0.5"),
        ("--in", write_spec(tmp_path, kp)),
        ("--in", write_spec(tmp_path, canonical, "canonical.json")),
    ):
        (row,), obj = _both_formats(cli, command, *channel)
        if command == "canonicalize":
            # JSON carries eta as [re, im]; CSV carries its modulus.
            assert row.pop("abs_eta") == repr(abs(complex(*obj["eta"])))
        _assert_same_cells(row, obj)


@pytest.mark.parametrize("policy", ["fp", "pp", "qpa", "bbpssw"])
def test_distill_csv_records_match_json(cli, policy):
    rows, obj = _both_formats(cli, "distill", "--p", "0.6", "--eta", "0.5", "--policy", policy)
    assert obj["policy"] == policy and len(rows) == len(obj["records"]) == obj["rounds"] + 1
    for row, record in zip(rows, obj["records"]):
        _assert_same_cells(row, record)


def test_figure_two_csv_matches_json(cli):
    rows, objs = _both_formats(cli, "figure", "--id", "2")
    assert len(rows) == len(objs) > 0
    for row, obj in zip(rows, objs):
        assert list(row) == list(obj)
        _assert_same_cells(row, obj)
